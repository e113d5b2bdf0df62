"""File formats: binary matrix files with JSON sidecars, grayscale mode
images, and the report serializer.

Matrix payloads are little-endian 64-bit floats in column-major order;
complex matrices interleave real and imaginary parts per entry.  A view
sidecar names a run of columns of another matrix file, its block, so X and
X' of a series share one payload.  Writes go through an atomic rename.
"""

import json
import os

import numpy as np

from .errors import DimensionError, check_count

REPORT_SCHEMA = "csdmd-report/1"


def atomic_write_bytes(path, payload):
    """Write a bytes-like payload (bytes, or a C-contiguous array) to path."""
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def atomic_write_text(path, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


def _json_fragment(obj):
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            return "null"
        return format(x, ".17g")
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return '{"re": %s, "im": %s}' % (
            _json_fragment(z.real),
            _json_fragment(z.imag),
        )
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _json_fragment(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_fragment(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = (f"{json.dumps(str(k))}: {_json_fragment(v)}" for k, v in obj.items())
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(obj) -> str:
    """Serialize to JSON with 17-significant-digit floats and stable
    (insertion) key order."""
    return _json_fragment(obj) + "\n"


def write_matrix(directory, name, M, grid=None, dt=None):
    """Write a matrix as ``name.bin`` plus ``name.json`` sidecar."""
    M = np.asarray(M)
    if M.ndim == 1:
        M = M[:, None]
    dtype, np_dtype = ("c128", "<c16") if np.iscomplexobj(M) else ("f64", "<f8")
    # the transpose of a column-major block is C-contiguous: its buffer is
    # the payload, with no copy when M is already column-major
    payload = np.asfortranarray(M, np_dtype).T
    sidecar = {"rows": int(M.shape[0]), "cols": int(M.shape[1]), "dtype": dtype}
    if grid is not None:
        sidecar["grid"] = [int(grid[0]), int(grid[1])]
    if dt is not None:
        sidecar["dt"] = float(dt)
    os.makedirs(directory, exist_ok=True)
    atomic_write_bytes(os.path.join(directory, f"{name}.bin"), payload)
    atomic_write_text(
        os.path.join(directory, f"{name}.json"), dumps_report(sidecar)
    )


def write_view(directory, name, block, first, cols):
    """Write ``name.json``, a view sidecar: the matrix name is the columns
    first ... first+cols-1 of the matrix block written in the same
    directory, with block's rows, dtype, grid and dt."""
    sidecar = dict(_read_sidecar(directory, block), cols=cols, block=block, first_col=first)
    atomic_write_text(os.path.join(directory, f"{name}.json"), dumps_report(sidecar))


def _read_sidecar(directory, name):
    """The sidecar of the matrix name, its rows and cols checked as counts."""
    with open(os.path.join(directory, f"{name}.json"), "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    for key in ("rows", "cols"):
        check_count(sidecar[key], f"{key} in {name}.json")
    return sidecar


def locate(directory, name):
    """Where the matrix name is stored: (sidecar, block, first, width).  Its
    columns are the columns first, first+1, ... of the width-column matrix
    file ``block.bin``: name's own, or the one its view sidecar names."""
    sidecar = _read_sidecar(directory, name)
    if "block" not in sidecar:
        return sidecar, name, 0, sidecar["cols"]
    block, first = sidecar["block"], check_count(sidecar["first_col"], f"first_col in {name}.json")
    try:
        outer = _read_sidecar(directory, block)
    except FileNotFoundError:
        raise DimensionError(f"{name}.json is a view of {block}, which is missing") from None
    rows, cols, dtype = outer["rows"], outer["cols"], outer["dtype"]
    if "block" in outer or (rows, dtype) != (sidecar["rows"], sidecar["dtype"]) or (
        first > cols - sidecar["cols"]
    ):
        raise DimensionError(
            f"{name}.json is no run of columns of {block}, a {rows}x{cols} {dtype} "
            + ("view" if "block" in outer else "matrix")
        )
    return sidecar, block, first, cols


def read_matrix(directory, name):
    """Read a matrix written by write_matrix, or a view written by
    write_view; returns (column-major array, sidecar)."""
    sidecar, block, first, width = locate(directory, name)
    rows, cols, dtype = sidecar["rows"], sidecar["cols"], sidecar["dtype"]
    np_dtype = {"f64": "<f8", "c128": "<c16"}.get(dtype)
    if np_dtype is None:
        raise DimensionError(f"unknown dtype {dtype!r} in {name}.json")
    M = np.empty((rows, cols), np_dtype, order="F")
    with open(os.path.join(directory, f"{block}.bin"), "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != rows * width * M.itemsize:
            raise DimensionError(
                f"{block}.bin holds {size} bytes, sidecar says {rows}x{width} {dtype}"
            )
        fh.seek(first * rows * M.itemsize)
        # the transpose of a column-major block is C-contiguous
        fh.readinto(M.T)
    return M, sidecar


def write_mode_image(path, field, grid, component="real"):
    """Write one mode as a binary PGM with a min-max rescale sidecar.

    field is a length-n complex (or real) vector over the (nx, ny) grid;
    the chosen component is affinely mapped onto 0..255.
    """
    nx, ny = grid
    vec = np.asarray(field).reshape(-1)
    if vec.shape[0] != nx * ny:
        raise DimensionError(f"field length {vec.shape[0]} != grid size {nx * ny}")
    img = (vec.imag if component == "imag" else vec.real).reshape(ny, nx)
    lo = float(img.min())
    hi = float(img.max())
    if hi > lo:
        scaled = np.round((img - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(img)
    data = scaled.astype(np.uint8).tobytes(order="C")
    header = f"P5\n{nx} {ny}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + data)
    atomic_write_text(
        f"{path}.json",
        dumps_report(
            {"nx": nx, "ny": ny, "min": lo, "max": hi, "component": component}
        ),
    )
