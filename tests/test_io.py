"""Binary matrix files, PGM mode images, and the report serializer."""

import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from csdmd.errors import DimensionError
from csdmd.io import (
    PANEL_ROWS,
    REPORT_SCHEMA,
    PanelReader,
    dumps_report,
    locate,
    read_matrix,
    write_blocks,
    write_matrix,
    write_mode_image,
    write_view,
)

from pgm import read_pgm


def test_real_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((7, 3))
    write_matrix(tmp_path, "X", M, grid=(16, 8), dt=0.25)
    back, sidecar = read_matrix(tmp_path, "X")
    np.testing.assert_array_equal(back, M)
    assert sidecar["rows"] == 7 and sidecar["cols"] == 3
    assert sidecar["dtype"] == "f64"
    assert sidecar["grid"] == [16, 8]
    assert sidecar["dt"] == 0.25


def test_complex_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    M = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    write_matrix(tmp_path, "Phi", M)
    back, sidecar = read_matrix(tmp_path, "Phi")
    np.testing.assert_array_equal(back, M)
    assert sidecar["dtype"] == "c128"


def test_matrix_bytes_are_little_endian_column_major(tmp_path):
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    write_matrix(tmp_path, "M", M)
    raw = open(os.path.join(tmp_path, "M.bin"), "rb").read()
    values = struct.unpack("<4d", raw)
    assert values == (1.0, 3.0, 2.0, 4.0)


@pytest.mark.parametrize("dtype", [float, complex])
def test_column_major_block_is_written_without_a_copy(tmp_path, dtype):
    # X = S[:, :m] and X' = S[:, 1:] of a column-major series S
    rng = np.random.default_rng(4)
    S = np.asfortranarray(rng.standard_normal((256, 129)).astype(dtype))
    for name, block in (("X", S[:, :-1]), ("Xp", S[:, 1:])):
        tracemalloc.start()
        write_matrix(tmp_path, name, block)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < block.nbytes / 4
        back, _ = read_matrix(tmp_path, name)
        np.testing.assert_array_equal(back, block)


def test_vector_promoted_to_column(tmp_path):
    write_matrix(tmp_path, "v", np.array([1.0, 2.0, 3.0]))
    back, sidecar = read_matrix(tmp_path, "v")
    assert back.shape == (3, 1)
    assert sidecar["cols"] == 1


@pytest.mark.parametrize("dtype", [float, complex])
def test_views_read_columns_of_their_block(tmp_path, dtype):
    S = np.arange(24.0).reshape(6, 4).astype(dtype) * (1 + 1j if dtype is complex else 1)
    write_matrix(tmp_path, "S", S, grid=(3, 2), dt=0.5)
    write_view(tmp_path, "A", "S", 0, 3)
    write_view(tmp_path, "B", "S", 1, 2)
    assert sorted(os.listdir(tmp_path)) == ["A.json", "B.json", "S.bin", "S.json"]
    back, sidecar = read_matrix(tmp_path, "A")
    assert back.flags.f_contiguous
    np.testing.assert_array_equal(back, S[:, :3])
    # a view keeps its block's rows, dtype, grid and dt
    assert sidecar == {"rows": 6, "cols": 3, "dtype": "c128" if dtype is complex else "f64",
                       "grid": [3, 2], "dt": 0.5, "block": "S", "first_col": 0}
    np.testing.assert_array_equal(read_matrix(tmp_path, "B")[0], S[:, 1:3])
    assert locate(tmp_path, "B")[1:] == ("S", 1, 4)
    assert locate(tmp_path, "S")[1:] == ("S", 0, 4)


@pytest.mark.parametrize("dtype", [float, complex])
def test_panels_of_a_view_are_its_rows_in_fixed_runs(tmp_path, dtype):
    # 2 full panels and a short one, of columns 2 ... 6 of a 9-column block
    rng = np.random.default_rng(5)
    S = rng.standard_normal((2 * PANEL_ROWS + 37, 9)).astype(dtype)
    if dtype is complex:
        S += 1j * rng.standard_normal(S.shape)
    write_matrix(tmp_path, "S", S)
    write_view(tmp_path, "V", "S", 2, 5)
    reader = PanelReader(tmp_path, "V")
    assert reader.shape == (len(S), 5) and reader.dtype == S.dtype
    starts, panels = [], []
    for start, P in reader.panels():
        assert P.flags.f_contiguous
        starts.append(start)
        panels.append(P.copy())
    assert starts == [0, PANEL_ROWS, 2 * PANEL_ROWS]
    assert [len(P) for P in panels] == [PANEL_ROWS, PANEL_ROWS, 37]
    np.testing.assert_array_equal(np.vstack(panels), S[:, 2:7])
    np.testing.assert_array_equal(reader.read(), S[:, 2:7])


def test_a_payload_that_ends_early_is_refused_mid_read(tmp_path):
    # the size is checked when the reader is made; a file that shrinks
    # after that ends a read early, which is refused, not returned short
    write_matrix(tmp_path, "S", np.ones((PANEL_ROWS + 5, 3)))
    reader = PanelReader(tmp_path, "S")
    os.truncate(os.path.join(tmp_path, "S.bin"), 8 * (3 * (PANEL_ROWS + 5) - 2))
    with pytest.raises(DimensionError, match="ended at byte"):
        reader.read()
    with pytest.raises(DimensionError, match="ended at byte"):
        for _ in reader.panels():
            pass


def test_a_reader_reads_the_file_it_checked_and_closes_it(tmp_path):
    # a payload renamed over the path after the size check is not read, and
    # the one descriptor closes with the reader
    S = np.arange(12.0).reshape(4, 3)
    write_matrix(tmp_path, "S", S)
    reader = PanelReader(tmp_path, "S")
    write_matrix(tmp_path, "S", -np.ones((5, 3)))
    np.testing.assert_array_equal(reader.read(), S)
    np.testing.assert_array_equal(np.vstack([P.copy() for _, P in reader.panels()]), S)
    fd = reader._fd
    del reader
    with pytest.raises(OSError):
        os.fstat(fd)


def test_size_mismatch_detected(tmp_path):
    write_matrix(tmp_path, "X", np.ones((3, 3)))
    with open(os.path.join(tmp_path, "X.bin"), "ab") as fh:
        fh.write(b"\x00" * 8)
    with pytest.raises(DimensionError):
        read_matrix(tmp_path, "X")


def test_no_temp_files_left(tmp_path):
    write_matrix(tmp_path, "X", np.ones((2, 2)))
    leftovers = [f for f in os.listdir(tmp_path) if ".tmp" in f]
    assert leftovers == []


def test_blocks_written_side_by_side_are_the_matrix_of_their_columns(tmp_path):
    rng = np.random.default_rng(5)
    S = np.asfortranarray(rng.standard_normal((6, 7)))
    write_matrix(tmp_path / "whole", "S", S, grid=(3, 2), dt=0.5)
    write_blocks(tmp_path / "blocks", "S", (S[:, :3], S[:, 3:6], S[:, 6:]), grid=(3, 2), dt=0.5)
    for name in ("S.bin", "S.json"):
        assert (tmp_path / "blocks" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()


@pytest.mark.parametrize("second", [np.ones((5, 2)), np.ones((6, 2), complex)],
                         ids=["other-rows", "other-dtype"])
def test_blocks_of_another_shape_are_refused_and_nothing_is_written(tmp_path, second):
    with pytest.raises(DimensionError):
        write_blocks(tmp_path, "S", [np.ones((6, 3)), second])
    with pytest.raises(DimensionError):
        write_blocks(tmp_path, "S", [])
    assert os.listdir(tmp_path) == []


def test_a_failed_write_leaves_no_temp_file_and_the_old_matrix(tmp_path):
    old = np.arange(12.0).reshape(4, 3)
    write_matrix(tmp_path, "S", old)
    before = {name: (tmp_path / name).read_bytes() for name in ("S.bin", "S.json")}

    def blocks():
        yield np.ones((4, 2))
        raise OSError(28, "No space left on device")

    with pytest.raises(OSError, match="No space"):
        write_blocks(tmp_path, "S", blocks())
    assert sorted(os.listdir(tmp_path)) == ["S.bin", "S.json"]
    assert {name: (tmp_path / name).read_bytes() for name in before} == before
    np.testing.assert_array_equal(read_matrix(tmp_path, "S")[0], old)


def test_mode_image_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    field = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    path = os.path.join(tmp_path, "mode00.pgm")
    write_mode_image(path, field, grid=(8, 4))
    img, maxval = read_pgm(path)
    assert maxval == 255
    assert img.shape == (4, 8)
    sidecar = json.load(open(f"{path}.json"))
    assert sidecar["nx"] == 8 and sidecar["ny"] == 4
    assert sidecar["component"] == "real"
    # the affine map is invertible from the sidecar constants
    lo, hi = sidecar["min"], sidecar["max"]
    rebuilt = lo + img.astype(float) / 255.0 * (hi - lo)
    np.testing.assert_allclose(
        rebuilt, field.real.reshape(4, 8), atol=(hi - lo) / 255.0
    )
    # extremes hit the full 0..255 range
    assert img.min() == 0 and img.max() == 255


def test_mode_image_imag_component(tmp_path):
    field = np.arange(8.0) * 1j
    path = os.path.join(tmp_path, "m.pgm")
    write_mode_image(path, field, grid=(4, 2), component="imag")
    img, _ = read_pgm(path)
    assert img[0, 0] == 0 and img[-1, -1] == 255


def test_mode_image_constant_field(tmp_path):
    path = os.path.join(tmp_path, "flat.pgm")
    write_mode_image(path, np.ones(16), grid=(4, 4))
    img, _ = read_pgm(path)
    assert np.all(img == 0)


def test_mode_image_length_guard(tmp_path):
    with pytest.raises(DimensionError):
        write_mode_image(os.path.join(tmp_path, "x.pgm"), np.ones(5), grid=(4, 4))


def test_report_float_precision():
    text = dumps_report({"value": float(np.cos(0.3))})
    assert text == '{"value": 0.95533648912560598}\n'
    assert json.loads(text)["value"] == float(np.cos(0.3))


def test_report_complex_and_arrays():
    text = dumps_report({"lam": np.array([1.0 + 2.0j]), "n": 3})
    parsed = json.loads(text)
    assert parsed["lam"][0] == {"re": 1, "im": 2}
    assert parsed["n"] == 3


def test_report_nonfinite_becomes_null():
    parsed = json.loads(dumps_report({"a": np.inf, "b": np.nan, "c": 1.5}))
    assert parsed["a"] is None and parsed["b"] is None and parsed["c"] == 1.5


def test_report_key_order_is_insertion_order():
    text = dumps_report({"z": 1, "a": 2, "m": 3})
    assert text.index('"z"') < text.index('"a"') < text.index('"m"')


def test_report_lists_of_plain_ints_print_as_every_list_does():
    # plain ints take a one-join path; each other element its own fragment
    mixed = [1, True, np.int64(-3), [4, 5], [np.int32(6), False], [], (7,), [2**70, 0]]
    text = dumps_report({"mixed": mixed, "bools": [True, False], "indices": np.arange(4)})
    assert text == ('{"mixed": [1, true, -3, [4, 5], [6, false], [], [7], '
                    '[1180591620717411303424, 0]], "bools": [true, false], '
                    '"indices": [0, 1, 2, 3]}\n')
    indices = list(range(0, 131072, 53))
    assert dumps_report(indices) == json.dumps(indices) + "\n"


def test_report_schema_tag():
    assert REPORT_SCHEMA == "csdmd-report/1"


def test_report_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps_report({"x": object()})
