"""Read back the binary PGM mode images the package writes."""

import numpy as np


def read_pgm(path):
    """The image and maxval of a binary PGM written by io.write_mode_image."""
    with open(path, "rb") as fh:
        blob = fh.read()
    parts = blob.split(b"\n", 3)
    assert parts[0] == b"P5", "not a binary PGM file"
    w, h = (int(v) for v in parts[1].split())
    maxval = int(parts[2])
    img = np.frombuffer(parts[3], dtype=np.uint8, count=w * h).reshape(h, w)
    return img, maxval
