"""File formats: binary matrix files with JSON sidecars, grayscale mode
images, and the report serializer.

Matrix payloads are little-endian 64-bit floats in column-major order;
complex matrices interleave real and imaginary parts per entry.  A view
sidecar names a run of columns of another matrix file, its block, so X and
X' of a series share one payload.  PanelReader reads a payload whole or in
fixed-height row panels (PANEL_ROWS rows of every column, one reused
buffer), so a fit can sum over a block it never holds; write_blocks writes
one from column blocks as they are formed, so a generator never holds it
either.  Writes go through an atomic rename.
"""

import contextlib
import json
import os

import numpy as np

from .errors import DimensionError, check_count

REPORT_SCHEMA = "csdmd-report/1"
# rows per panel, read with one preadv per column: 4096 rows of the 151
# paper-gyre snapshots are 4.7 MiB, and a 128 x 64 gyre's block is two
# panels; every reader of a block in panels uses this height.  8192 and
# 16384 rows made a 128 x 128 exact DMD slower, and 16384 its peak larger
PANEL_ROWS = 4096


def atomic_write_bytes(path, payloads):
    """Write bytes-like payloads (bytes, or C-contiguous arrays), taken in
    order from an iterable, to path through one temp file and one rename.
    If a write or the iterable raises, the temp file is removed and path
    keeps what it held."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            for payload in payloads:
                fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def atomic_write_text(path, text: str):
    atomic_write_bytes(path, [text.encode("utf-8")])


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
        # a list of plain ints (pixel indices) in one join; a bool is no
        # plain int, so True still prints true
        if all(type(v) is int for v in obj):
            return "[" + ", ".join(map(str, obj)) + "]"
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
    write_blocks(directory, name, [M[:, None] if M.ndim == 1 else M], grid=grid, dt=dt)


def write_blocks(directory, name, blocks, grid=None, dt=None):
    """Write the matrix whose columns are those of the blocks, an iterable
    of 2-d arrays of one row count and one dtype (real or complex) taken in
    order, as ``name.bin`` plus ``name.json`` sidecar.  Each block is
    written as it comes, so the matrix is never held whole."""
    layout = {}  # rows, cols and dtype of the blocks written so far

    def payloads():
        for M in blocks:
            M = np.asarray(M)
            dtype, np_dtype = ("c128", "<c16") if np.iscomplexobj(M) else ("f64", "<f8")
            rows = layout.setdefault("rows", M.shape[0])
            if (M.shape[0], dtype) != (rows, layout.setdefault("dtype", dtype)):
                raise DimensionError(
                    f"{name}: a {M.shape[0]}-row {dtype} block after {rows}-row "
                    f"{layout['dtype']} ones"
                )
            layout["cols"] = layout.get("cols", 0) + M.shape[1]
            # the transpose of a column-major block is C-contiguous: its
            # buffer is the payload, with no copy when M is column-major
            yield np.asfortranarray(M, np_dtype).T
        if not layout:
            raise DimensionError(f"no blocks to write as {name}")

    os.makedirs(directory, exist_ok=True)
    atomic_write_bytes(os.path.join(directory, f"{name}.bin"), payloads())
    sidecar = {key: layout[key] for key in ("rows", "cols", "dtype")}
    if grid is not None:
        sidecar["grid"] = [int(grid[0]), int(grid[1])]
    if dt is not None:
        sidecar["dt"] = float(dt)
    atomic_write_text(os.path.join(directory, f"{name}.json"), dumps_report(sidecar))


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


class PanelReader:
    """The matrix name written by write_matrix, or a view written by
    write_view, read on demand: whole (read) or in row panels (panels).
    The payload is opened once, and its size checked, when the reader is
    made; every read goes through that one descriptor, so a file renamed
    over the path later is never read.  It closes with the reader."""

    def __init__(self, directory, name):
        self.sidecar, block, first, width = locate(directory, name)
        rows, cols, dtype = (self.sidecar[key] for key in ("rows", "cols", "dtype"))
        np_dtype = {"f64": "<f8", "c128": "<c16"}.get(dtype)
        if np_dtype is None:
            raise DimensionError(f"unknown dtype {dtype!r} in {name}.json")
        self.shape, self.dtype = (rows, cols), np.dtype(np_dtype)
        self.path = os.path.join(directory, f"{block}.bin")
        fd = os.open(self.path, os.O_RDONLY)
        size = os.fstat(fd).st_size
        if size != rows * width * self.dtype.itemsize:
            os.close(fd)
            raise DimensionError(
                f"{block}.bin holds {size} bytes, sidecar says {rows}x{width} {dtype}"
            )
        self._fd, self._offset = fd, first * rows * self.dtype.itemsize

    def __del__(self):
        if hasattr(self, "_fd"):
            os.close(self._fd)

    def _ended(self, offset):
        """The file ending at offset, before its sidecar's size: it shrank
        since its size was checked."""
        return DimensionError(f"{self.path} ended at byte {offset}, before its sidecar's size")

    def read(self):
        """The whole matrix, column-major, in one buffered read."""
        M = np.empty(self.shape, self.dtype, order="F")
        os.lseek(self._fd, self._offset, os.SEEK_SET)
        with open(self._fd, "rb", closefd=False) as fh:
            # the transpose of a column-major block is C-contiguous
            done = fh.readinto(M.T)
        if done != M.nbytes:
            raise self._ended(self._offset + done)
        return M

    def panels(self):
        """(start, P) for each run of PANEL_ROWS rows (fewer in the last):
        P holds rows start ... start+len(P)-1 of every column, column-major,
        in one buffer that the next panel overwrites."""
        rows, cols = self.shape
        itemsize = self.dtype.itemsize
        buffer = np.empty(cols * min(rows, PANEL_ROWS), self.dtype)
        fd = self._fd
        for start in range(0, rows, PANEL_ROWS):
            height = min(PANEL_ROWS, rows - start)
            panel = buffer[: cols * height].reshape(cols, height)
            offset = self._offset + start * itemsize
            for column in panel:
                # one preadv (POSIX) fills a column but for a short read
                done = os.preadv(fd, [column], offset)
                while done < column.nbytes:
                    got = os.preadv(fd, [column.view("B")[done:]], offset + done)
                    if got == 0:
                        raise self._ended(offset + done)
                    done += got
                offset += rows * itemsize
            yield start, panel.T


def read_matrix(directory, name):
    """Read a matrix written by write_matrix, or a view written by
    write_view; returns (column-major array, sidecar)."""
    reader = PanelReader(directory, name)
    return reader.read(), reader.sidecar


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
    atomic_write_bytes(path, [header, data])
    atomic_write_text(
        f"{path}.json",
        dumps_report(
            {"nx": nx, "ny": ny, "min": lo, "max": hi, "component": component}
        ),
    )
