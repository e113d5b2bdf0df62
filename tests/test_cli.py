"""Command-line driver: artifact layout, subcommand chaining, exit codes.

All invocations go through main() in-process so exit codes and stderr
text can be asserted directly.
"""

import inspect
import json
import os
import shutil
import tracemalloc
import zlib

import numpy as np
import pytest

from csdmd import io, pipelines
from csdmd.cli import (
    HANDLERS,
    MEASUREMENT_BLOCK,
    _parser,
    _read_pair,
    build_parser,
    main,
)
from csdmd.dmd import SnapshotPair
from csdmd.errors import (
    ConvergenceError,
    CsdmdError,
    DimensionError,
    NoProgress,
    RankCollapse,
    ZeroInput,
)
from csdmd.io import read_matrix, write_matrix, write_view
from csdmd.linalg import DEFAULT_TRUNCATION_TOL, gram_svd
from csdmd.pipelines import (
    INVARIANCE_TOL_FLOOR,
    ExperimentConfig,
    run_2a,
    run_path,
    verify_invariance_suite,
)
from csdmd.recovery import RecoveryConfig
from csdmd.sensing import SensingOperator, SparseBasis, apply_basis, make_measurement
from csdmd.systems import (
    GEN_CHUNK_COLS,
    DoubleGyreParams,
    add_fourier_noise,
    generate_fourier_lti,
    generate_gyre_snapshots,
    make_fourier_lti,
)

from pgm import read_pgm


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated planted-wave dataset plus its full-state decomposition."""
    root = tmp_path_factory.mktemp("cli")
    code = main(
        ["gen", "example1", "--nx", "16", "--ny", "16", "--k", "2",
         "--dt", "0.05", "--t1", "1.0", "--seed", "3", "--out",
         str(root / "data")]
    )
    assert code == 0
    code = main(
        ["dmd", "--snapshots", str(root / "data"), "--tol", "1e-6",
         "--out", str(root / "full")]
    )
    assert code == 0
    return root


def test_gen_writes_dataset(workspace):
    data = workspace / "data"
    for name in ("snapshots.bin", "X.json", "Xp.json", "truth_lambdas.bin", "system.json"):
        assert (data / name).exists()
    # the series x_0 ... x_20 is stored once; X and X' are views of it
    assert not (data / "X.bin").exists() and not (data / "Xp.bin").exists()
    assert (data / "snapshots.bin").stat().st_size == 256 * 21 * 8
    X, side = read_matrix(str(data), "X")
    assert X.shape == (256, 20)
    assert side["grid"] == [16, 16]
    assert side["dt"] == 0.05
    meta = json.loads((data / "system.json").read_text())
    assert meta["K"] == 2 and meta["m"] == 20


def test_dmd_outputs(workspace):
    full = workspace / "full"
    summary = json.loads((full / "result.json").read_text())
    assert summary["rank"] == 4
    assert summary["path"] == "1A"
    lambdas, _ = read_matrix(str(full), "lambdas")
    modes, _ = read_matrix(str(full), "modes")
    assert lambdas.shape == (4, 1)
    assert modes.shape == (256, 4)


def test_compressed_and_recovery_chain(workspace):
    data, full = workspace / "data", workspace / "full"
    comp = workspace / "comp"
    assert main(
        ["cdmd", "--snapshots", str(data), "--measure", "gaussian", "-p", "12",
         "--seed", "5", "--tol", "1e-6", "--out", str(comp)]
    ) == 0
    Y, _ = read_matrix(str(comp), "Y")
    assert Y.shape == (12, 20)
    # the measured series is stored once, as one p x (m+1) block
    assert not (comp / "Y.bin").exists() and not (comp / "Yp.bin").exists()
    assert (comp / "measurements.bin").stat().st_size == 12 * 21 * 8
    assert json.loads((comp / "result.json").read_text())["path"] == "1B"

    sparse = workspace / "sparse"
    assert main(
        ["csdmd", "--measured", str(comp), "--measure-file",
         str(comp / "measure.json"), "--sparsity", "2", "--tol", "1e-6",
         "--out", str(sparse)]
    ) == 0
    summary = json.loads((sparse / "result.json").read_text())
    assert summary["path"] == "2B"
    for entry in summary["recovery"]:
        assert entry["residual"] <= 1e-8

    for other in (comp, sparse):
        out = workspace / f"cmp_{other.name}.json"
        assert main(
            ["compare", "--a", str(full), "--b", str(other), "--out", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        assert report["max_abs_delta"] <= 1e-8
        assert min(report["mode_alignments"]) >= 1.0 - 1e-8
        assert report["unmatched_a"] == []


def _opened_payloads(monkeypatch):
    """The .bin files that csdmd.io opens from now on, in order."""
    opened = []
    os_open = os.open

    def recording(path, *args, **kwargs):
        if str(path).endswith(".bin"):
            opened.append(os.path.basename(path))
        return os_open(path, *args, **kwargs)

    monkeypatch.setattr(io.os, "open", recording)
    return opened


@pytest.mark.parametrize("source", ["gen", "cdmd"])
def test_generated_pair_reads_back_as_one_series(workspace, tmp_path, source,
                                                 monkeypatch):
    data = str(workspace / "data")
    names, block, rows = ("X", "Xp"), "snapshots.bin", 256
    if source == "cdmd":
        data = str(tmp_path / "comp")
        assert main(
            ["cdmd", "--snapshots", str(workspace / "data"), "--measure", "gaussian",
             "-p", "12", "--seed", "5", "--tol", "1e-6", "--out", data]
        ) == 0
        names, block, rows = ("Y", "Yp"), "measurements.bin", 12
    opened = _opened_payloads(monkeypatch)
    pair = _read_pair(data, *names)
    # the block is the one payload opened, once, with no comparison; a pass
    # over its row panels and a whole read go through that one file
    assert opened == [block]
    assert pair.lag == 1 and pair.S.shape == (rows, 21)
    panels = [P.copy() for _, P in pair.panels()]
    loaded = pair.load()
    monkeypatch.undo()
    assert opened == [block]
    # loaded whole, X and X' are views of the one n x (m+1) block read from the file
    assert loaded.S.flags.owndata and np.shares_memory(loaded.X, loaded.Xp)
    np.testing.assert_array_equal(np.vstack(panels), loaded.S)
    np.testing.assert_array_equal(loaded.X, read_matrix(data, names[0])[0])
    np.testing.assert_array_equal(loaded.Xp, read_matrix(data, names[1])[0])
    assert pair.dt == 0.05 and pair.grid == ((16, 16) if source == "gen" else None)


def test_gen_directory_reads_as_the_bench_reads_it(tmp_path):
    # two read_matrix calls plus X's sidecar dt and grid give the pair
    # the generator returns, bit for bit
    out = str(tmp_path / "data")
    assert main(
        ["gen", "example1", "--nx", "16", "--ny", "8", "--k", "2", "--dt", "0.05",
         "--t1", "0.5", "--seed", "4", "--noise", "0.01", "--noise-seed", "2",
         "--out", out]
    ) == 0
    cfg = make_fourier_lti(nx=16, ny=8, K=2, dt=0.05, m=10, seed=4)
    pair = add_fourier_noise(generate_fourier_lti(cfg)[0], 0.01, 2)
    X, side = read_matrix(out, "X")
    Xp, _ = read_matrix(out, "Xp")
    assert X.tobytes() == pair.X.tobytes() and Xp.tobytes() == pair.Xp.tobytes()
    assert side["dt"] == pair.dt and tuple(side["grid"]) == pair.grid == (16, 8)


def test_pair_that_is_not_a_series_reads_back_whole(tmp_path):
    # one entry of X' one ulp off the shift
    X = np.random.default_rng(0).standard_normal((6, 4))
    Xp = np.column_stack([X[:, 1:], X[:, 0]])
    Xp[2, 1] = np.nextafter(Xp[2, 1], np.inf)
    write_matrix(str(tmp_path), "X", X, dt=0.5)
    write_matrix(str(tmp_path), "Xp", Xp, dt=0.5)
    pair = _read_pair(str(tmp_path))
    assert pair.lag == 4 and pair.S.shape == (6, 8)
    np.testing.assert_array_equal(pair.X, X)
    np.testing.assert_array_equal(pair.Xp, Xp)
    # cdmd stores the measured pair as one p x 2m block at lag m
    comp = str(tmp_path / "comp")
    assert main(
        ["cdmd", "--snapshots", str(tmp_path), "--measure", "pixel", "-p", "6",
         "--out", comp]
    ) == 0
    measured = _read_pair(comp, "Y", "Yp")
    assert measured.lag == 4 and measured.S.shape == (6, 8)
    np.testing.assert_array_equal(measured.load().S, pair.S)


def test_views_that_do_not_end_the_block_read_as_two_matrices(tmp_path):
    # X and X' are columns 0..3 and 1..4 of a 6-column block that ends with
    # neither: they are read apart, and the keyword constructor finds the shift
    S = np.random.default_rng(2).standard_normal((5, 6))
    write_matrix(str(tmp_path), "S", S, dt=0.5)
    write_view(str(tmp_path), "X", "S", 0, 4)
    write_view(str(tmp_path), "Xp", "S", 1, 4)
    pair = _read_pair(str(tmp_path))
    assert pair.lag == 1 and pair.S.shape == (5, 5)
    np.testing.assert_array_equal(pair.S, S[:, :5])


def test_complex_shifted_matrix_keeps_its_last_column(tmp_path):
    # X' = [x_1, x_2, x_3, z]: the shift of a real X up to a complex last column
    X = np.random.default_rng(1).standard_normal((6, 3))
    Xp = np.column_stack([X[:, 1:], X[:, 0] + 1j]).astype(complex)
    write_matrix(str(tmp_path), "X", X, dt=0.5)
    write_matrix(str(tmp_path), "Xp", Xp, dt=0.5)
    pair = _read_pair(str(tmp_path))
    np.testing.assert_array_equal(pair.X, X)
    np.testing.assert_array_equal(pair.Xp, Xp)


@pytest.mark.parametrize("damage", ["truncated", "narrowed", "widened"])
def test_damaged_shifted_matrix_is_a_configuration_error(workspace, tmp_path, capsys,
                                                         damage):
    X, side = read_matrix(str(workspace / "data"), "X")
    Xp, _ = read_matrix(str(workspace / "data"), "Xp")
    write_matrix(str(tmp_path), "X", X, grid=side["grid"], dt=side["dt"])
    if damage == "narrowed":
        write_matrix(str(tmp_path), "Xp", Xp[:, 1:], dt=side["dt"])
    elif damage == "widened":
        # the first m columns of X' still are the shift of X
        write_matrix(str(tmp_path), "Xp", np.column_stack([Xp, Xp[:, -1]]), dt=side["dt"])
    else:
        write_matrix(str(tmp_path), "Xp", Xp, dt=side["dt"])
        blob = (tmp_path / "Xp.bin").read_bytes()
        (tmp_path / "Xp.bin").write_bytes(blob[:-8])
    with pytest.raises(DimensionError):
        _read_pair(str(tmp_path))
    assert main(["dmd", "--snapshots", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
    assert "configuration error in dmd" in capsys.readouterr().err


def _set_sidecar(directory, name, **changes):
    path = directory / f"{name}.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **changes}))


@pytest.mark.parametrize("damage", [
    "missing_block", "negative_first_col", "first_col_past_block",
    "rows", "dtype", "view_of_view", "payload_size", "null_dt", "string_dt", "list_dt",
    "true_dt",
])
def test_malformed_view_is_a_configuration_error(tmp_path, capsys, damage):
    data = tmp_path / "data"
    assert main(
        ["gen", "example1", "--nx", "16", "--ny", "16", "--k", "2", "--dt", "0.05",
         "--t1", "1.0", "--seed", "3", "--out", str(data)]
    ) == 0
    if damage == "missing_block":
        (data / "snapshots.bin").unlink()
        (data / "snapshots.json").unlink()
    elif damage == "negative_first_col":
        _set_sidecar(data, "X", first_col=-1)
    elif damage == "first_col_past_block":
        _set_sidecar(data, "Xp", first_col=2)
    elif damage == "rows":
        _set_sidecar(data, "X", rows=255)
    elif damage == "dtype":
        _set_sidecar(data, "Xp", dtype="c128")
    elif damage == "view_of_view":
        _set_sidecar(data, "Xp", block="X", first_col=0)
    elif damage.endswith("_dt"):
        # a sidecar's dt is any JSON value: null (how a non-finite dt is
        # written), a string, a list or true; the matrix reads, its pair does not
        dt = {"null_dt": None, "string_dt": "fast", "list_dt": [1], "true_dt": True}[damage]
        _set_sidecar(data, "X", dt=dt)
    else:
        blob = (data / "snapshots.bin").read_bytes()
        (data / "snapshots.bin").write_bytes(blob[:-8])
    with pytest.raises(DimensionError):
        _read_pair(str(data))
    if not damage.endswith("_dt"):
        with pytest.raises(DimensionError):
            read_matrix(str(data), "Xp" if damage in ("first_col_past_block", "dtype",
                                                      "view_of_view") else "X")
    capsys.readouterr()
    assert main(["dmd", "--snapshots", str(data), "--out", str(tmp_path / "o")]) == 2
    assert "configuration error in dmd" in capsys.readouterr().err


def test_snapshot_reconstruction_from_files_solves_the_measured_range_once(
    workspace, tmp_path, monkeypatch
):
    # cdmd writes a measured series of m+1 = 21 snapshots; 2A recovers only
    # the rank-4 range of that 24 x 21 block, in one joint solve
    comp = tmp_path / "comp"
    assert main(
        ["cdmd", "--snapshots", str(workspace / "data"), "--measure", "pixel",
         "-p", "24", "--seed", "9", "--tol", "1e-6", "--out", str(comp)]
    ) == 0
    assert read_matrix(str(comp), "Y")[0].shape == (24, 20)
    shapes = []
    cosamp = pipelines.cosamp

    def counted(op, y, cfg):
        shapes.append(np.shape(y))
        return cosamp(op, y, cfg)

    monkeypatch.setattr(pipelines, "cosamp", counted)
    assert main(
        ["csdmd", "--measured", str(comp), "--measure-file",
         str(comp / "measure.json"), "--sparsity", "4", "--tol", "1e-6",
         "--reconstruct-snapshots", "--out", str(tmp_path / "recon")]
    ) == 0
    assert shapes == [(24, 4)]


def test_snapshot_reconstruction_fits_the_pair_on_disk_as_the_loaded_pair(workspace, tmp_path):
    # csdmd hands 2A the pair over the measured block on disk, as it hands 2B;
    # run_2a reads the block whole itself
    comp = tmp_path / "comp"
    assert main(
        ["cdmd", "--snapshots", str(workspace / "data"), "--measure", "pixel",
         "-p", "24", "--seed", "9", "--tol", "1e-6", "--out", str(comp)]
    ) == 0
    on_disk = _read_pair(str(comp), "Y", "Yp")
    assert isinstance(on_disk.S, io.PanelReader)
    op = SensingOperator(make_measurement("pixel", 24, 256, 9), SparseBasis((16, 16)))
    fits = [run_2a(pair, op, RecoveryConfig(4), 1e-6)[0] for pair in (on_disk, on_disk.load())]
    for name in ("lambdas", "amplitudes", "Phi", "Atilde"):
        assert getattr(fits[0], name).tobytes() == getattr(fits[1], name).tobytes()


def test_compare_result_with_itself(workspace):
    full = workspace / "full"
    out = workspace / "self.json"
    assert main(["compare", "--a", str(full), "--b", str(full), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["max_abs_delta"] == 0.0
    assert min(report["mode_alignments"]) >= 1.0 - 1e-12


def test_compare_refuses_results_of_different_state_sizes(workspace, tmp_path, capsys):
    # a 16 x 16 fit against an 8 x 8 one: no mode pair can be aligned
    data, small = str(tmp_path / "data"), str(tmp_path / "small")
    assert main(["gen", "example1", "--nx", "8", "--ny", "8", "--k", "2", "--dt", "0.05",
                 "--t1", "1.0", "--seed", "3", "--out", data]) == 0
    assert main(["dmd", "--snapshots", data, "--tol", "1e-6", "--out", small]) == 0
    capsys.readouterr()
    out = tmp_path / "cmp.json"
    for a, b, sizes in ((workspace / "full", small, "256 and 64"),
                        (small, workspace / "full", "64 and 256")):
        assert main(["compare", "--a", str(a), "--b", str(b), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error in compare: modes of {sizes} states cannot be aligned\n"
        )
    assert not out.exists()


@pytest.mark.parametrize("name", ["lambdas", "amplitudes", "modes"])
def test_compare_refuses_a_result_whose_counts_disagree(workspace, tmp_path, capsys, name):
    # 4 lambdas, 4 amplitudes and 256 x 4 modes, with one of them cut to 3
    bad = tmp_path / "bad"
    shutil.copytree(workspace / "full", bad)
    array, _ = read_matrix(str(bad), name)
    write_matrix(str(bad), name, array[:, :3] if name == "modes" else array[:3])
    capsys.readouterr()
    out = tmp_path / "cmp.json"
    for a, b in ((workspace / "full", bad), (bad, workspace / "full")):
        assert main(["compare", "--a", str(a), "--b", str(b), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error in compare: result in {bad} holds")
    assert not out.exists()


def test_pixel_measure_file_roundtrip(workspace):
    data, full = workspace / "data", workspace / "full"
    comp = workspace / "pix"
    assert main(
        ["cdmd", "--snapshots", str(data), "--measure", "pixel", "-p", "24",
         "--seed", "9", "--tol", "1e-6", "--out", str(comp)]
    ) == 0
    meta = json.loads((comp / "measure.json").read_text())
    assert meta["kind"] == "pixel"
    assert meta["indices"] == sorted(set(meta["indices"]))

    # the persisted measurement description must reproduce the operator:
    # sparse recovery from the saved artifacts alone
    sparse = workspace / "pix_sparse"
    assert main(
        ["csdmd", "--measured", str(comp), "--measure-file",
         str(comp / "measure.json"), "--sparsity", "2", "--tol", "1e-6",
         "--out", str(sparse)]
    ) == 0
    assert json.loads((sparse / "result.json").read_text())["path"] == "2B"

    recon = workspace / "pix_recon"
    assert main(
        ["csdmd", "--measured", str(comp), "--measure-file",
         str(comp / "measure.json"), "--sparsity", "4", "--tol", "1e-6",
         "--reconstruct-snapshots", "--out", str(recon), "--images", "2"]
    ) == 0
    for name in ("mode00.pgm", "mode01.pgm"):
        assert (recon / name).exists()
    out = workspace / "cmp_recon.json"
    assert main(
        ["compare", "--a", str(full), "--b", str(recon), "--out", str(out)]
    ) == 0
    assert json.loads(out.read_text())["max_abs_delta"] <= 1e-6


def _fit_argv(workspace, tmp_path, fit):
    """One fit command on the workspace data, without the shared options;
    csdmd runs 2B on the measured pair of a Gaussian p = 12 cdmd run."""
    data = str(workspace / "data")
    if fit == "dmd":
        return ["dmd", "--snapshots", data]
    cdmd = ["cdmd", "--snapshots", data, "--measure", "gaussian", "-p", "12", "--seed", "5"]
    if fit == "cdmd":
        return cdmd
    comp = tmp_path / "comp"
    assert main([*cdmd, "--tol", "1e-6", "--out", str(comp)]) == 0
    return ["csdmd", "--measured", str(comp), "--measure-file", str(comp / "measure.json"),
            "--sparsity", "2"]


@pytest.mark.parametrize("fit", ["dmd", "cdmd", "csdmd"])
def test_mode_images(workspace, tmp_path, fit):
    imgs = tmp_path / "imgs"
    assert main(
        [*_fit_argv(workspace, tmp_path, fit), "--tol", "1e-6", "--out", str(imgs),
         "--images", "2", "--imag"]
    ) == 0
    for name in ("mode00.pgm", "mode00_imag.pgm", "mode01.pgm", "mode01_imag.pgm"):
        assert (imgs / name).exists()
    assert not (imgs / "mode02.pgm").exists()
    img, maxval = read_pgm(str(imgs / "mode00.pgm"))
    assert img.shape == (16, 16)
    assert maxval == 255
    side = json.loads((imgs / "mode00.pgm.json").read_text())
    assert side["component"] == "real"


def test_fit_commands_share_one_option_set():
    required = {
        "dmd": ["--snapshots", "d"],
        "cdmd": ["--snapshots", "d", "--measure", "pixel", "-p", "4"],
        "csdmd": ["--measured", "d", "--measure-file", "m", "--sparsity", "2"],
    }
    parser = build_parser()

    def shared(*argv):
        args = parser.parse_args(list(argv))
        return args.tol, args.out, args.images, args.imag

    for fit, argv in required.items():
        assert shared(fit, *argv, "--out", "o") == (DEFAULT_TRUNCATION_TOL, "o", 0, False)
        assert shared(fit, *argv, "--out", "o", "--tol", "1e-3", "--images", "3",
                      "--imag") == (1e-3, "o", 3, True)


def test_main_parses_each_call_afresh_with_one_parser(monkeypatch):
    # main builds its parser once per process; a value given in one call
    # does not become the default of the next
    seen = []
    monkeypatch.setitem(HANDLERS, "dmd", lambda args: seen.append(args.images) or 0)
    assert main(["dmd", "--snapshots", "d", "--out", "o", "--images", "3"]) == 0
    assert main(["dmd", "--snapshots", "d", "--out", "o"]) == 0
    assert seen == [3, 0]
    assert _parser() is _parser() and build_parser() is not build_parser()


@pytest.mark.parametrize("tol", ["nan", "inf"])
@pytest.mark.parametrize("command", ["dmd", "cdmd", "csdmd", "verify"])
def test_a_non_finite_tolerance_is_a_configuration_error(workspace, tmp_path, capsys,
                                                         command, tol):
    # max(tol, floor) passed NaN and Inf on: the fits wrote rank 1 and exited
    # 0, and verify printed five passes
    out = tmp_path / "out"
    if command == "verify":
        argv = ["verify", "--snapshots", str(workspace / "data")]
    else:
        argv = [*_fit_argv(workspace, tmp_path, command), "--out", str(out)]
    capsys.readouterr()
    assert main([*argv, "--tol", tol]) == 2
    assert "tolerance must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, option", [
    ("dmd", "--images"), ("cdmd", "--images"), ("csdmd", "--images"),
    ("gen", "--seed"), ("gen", "--noise-seed"), ("cdmd", "--seed"), ("verify", "--seed"),
])
def test_a_negative_count_or_seed_exits_before_any_write(workspace, tmp_path, capsys,
                                                        command, option):
    # --images -1 wrote all modes but the last (order[:-1]); a negative seed
    # ended in a ValueError traceback from default_rng
    out = tmp_path / "out"
    if command == "gen":
        argv = ["gen", "example1", "--nx", "8", "--ny", "8", "--noise", "0.01",
                "--out", str(out)]
    elif command == "verify":
        argv = ["verify", "--snapshots", str(workspace / "data")]
    else:
        argv = [*_fit_argv(workspace, tmp_path, command), "--out", str(out)]
    capsys.readouterr()
    assert main([*argv, option, "-1"]) == 2
    assert f"argument {option}: need an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_gridless_cdmd_writes_its_fit_before_refusing_images(tmp_path, capsys):
    # the images come last: the fit and the measured pair are written first
    data, comp = tmp_path / "vel", tmp_path / "comp"
    assert main(
        ["gen", "gyre", "--nx", "12", "--ny", "6", "--t1", "1.0", "--dt", "0.1",
         "--observable", "velocity", "--out", str(data)]
    ) == 0
    capsys.readouterr()
    assert main(
        ["cdmd", "--snapshots", str(data), "--measure", "gaussian", "-p", "20",
         "--tol", "1e-6", "--out", str(comp), "--images", "1"]
    ) == 2
    assert "mode images need grid metadata" in capsys.readouterr().err
    for name in ("result.json", "modes.bin", "measure.json", "measurements.bin"):
        assert (comp / name).exists()
    assert not (comp / "mode00.pgm").exists()


def test_verify_reports_all_checks(workspace, capsys):
    assert main(
        ["verify", "--snapshots", str(workspace / "data"), "--tol", "1e-6"]
    ) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    assert len(lines) == 5
    assert all(ln.startswith("pass") for ln in lines)


def test_verify_passes_on_the_double_gyre(tmp_path, capsys):
    # a Gaussian p x d projection re-truncated the projected gyre data
    # (projection_commutes read 0.30); at a tol of 1e-6, kept as asked,
    # every check failed here
    out = tmp_path / "gyre"
    assert main(["gen", "gyre", "--nx", "64", "--ny", "32", "--out", str(out)]) == 0
    for tol in ([], ["--tol", "1e-4"]):
        capsys.readouterr()
        assert main(["verify", "--snapshots", str(out), *tol]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
        assert len(lines) == 5
        assert all(ln.startswith("pass") for ln in lines)


# 2B on a 128 x 64 gyre with 800 pixels and --sparsity 30, as recovered by
# CoSaMP's pair model (every gyre eigenvalue is real, so every measured mode
# is a real target): per-mode residual, iterations and coefficient support
GYRE_2B_RECOVERY = [
    (0.02720583985569639, 6, [1, 2, 3, 4, 124, 125, 126, 127, 129, 130, 254, 255, 257, 383,
                              385, 511, 513, 639, 767, 7553, 7681, 7807, 7809, 7935, 7937,
                              8063, 8065, 8066, 8190, 8191]),
    (0.07702746852740186, 7, [1, 2, 3, 4, 5, 6, 122, 123, 124, 125, 126, 127, 129, 130, 131,
                              253, 254, 255, 257, 258, 383, 7937, 8062, 8063, 8065, 8066,
                              8067, 8189, 8190, 8191]),
    (0.061622320951985214, 6, [1, 2, 3, 4, 5, 123, 124, 125, 126, 127, 129, 130, 131, 253,
                               254, 255, 257, 258, 382, 383, 7937, 7938, 8062, 8063, 8065,
                               8066, 8067, 8189, 8190, 8191]),
    (0.05524805806260871, 5, [0, 1, 2, 3, 4, 64, 124, 125, 126, 127, 128, 129, 130, 131, 254,
                              255, 257, 258, 382, 383, 7937, 7938, 8062, 8063, 8064, 8065,
                              8066, 8189, 8190, 8191]),
    (0.06801875491307652, 6, [1, 2, 3, 4, 5, 123, 124, 125, 126, 127, 129, 130, 131, 253, 254,
                              255, 257, 258, 382, 383, 7937, 7938, 8062, 8063, 8065, 8066,
                              8067, 8189, 8190, 8191]),
]


def test_gyre_2b_recovery_is_pinned(tmp_path):
    # the pair model keeps each wavenumber with its conjugate, so a support
    # is conjugate-closed and no tie at +-k is left for last bits to break
    data, comp, out = (str(tmp_path / name) for name in ("gyre", "comp", "sparse"))
    assert main(["gen", "gyre", "--nx", "128", "--ny", "64", "--out", data]) == 0
    assert main(["cdmd", "--snapshots", data, "--measure", "pixel", "-p", "800",
                 "--seed", "2", "--tol", "1e-4", "--out", comp]) == 0
    assert main(["csdmd", "--measured", comp, "--measure-file", f"{comp}/measure.json",
                 "--sparsity", "30", "--tol", "1e-4", "--out", out]) == 0
    rows = json.loads((tmp_path / "sparse" / "result.json").read_text())["recovery"]
    psi = SparseBasis((128, 64))
    coeffs = apply_basis(psi, read_matrix(out, "modes")[0], "inverse")
    assert len(rows) == len(GYRE_2B_RECOVERY)
    for row, s, (residual, iters, support) in zip(rows, coeffs.T, GYRE_2B_RECOVERY):
        np.testing.assert_allclose(row["residual"], residual, rtol=1e-9)
        assert row["iters"] == iters
        got = np.flatnonzero(np.abs(s) > 1e-9 * np.abs(s).max())
        assert got.tolist() == support
        assert sorted(psi.conjugate(got)) == support


def test_verify_tol_defaults_to_the_invariance_floor():
    # any lower tol is raised to the floor, so the floor is what runs
    args = build_parser().parse_args(["verify", "--snapshots", "data"])
    assert args.tol == INVARIANCE_TOL_FLOOR
    default = inspect.signature(verify_invariance_suite).parameters["truncation_tol"]
    assert default.default == INVARIANCE_TOL_FLOOR


def test_rewriting_a_directory_removes_the_plain_payloads_of_an_older_layout(tmp_path):
    # an older version wrote X.bin/Xp.bin and Y.bin/Yp.bin; the views that
    # gen and cdmd write now leave nothing pointing at them
    data, comp = tmp_path / "data", tmp_path / "comp"
    stale = np.ones((4, 3))
    for directory, names in ((data, ("X", "Xp")), (comp, ("Y", "Yp"))):
        for name in names:
            write_matrix(str(directory), name, stale)
    assert main(
        ["gen", "example1", "--nx", "16", "--ny", "16", "--k", "2", "--dt", "0.05",
         "--t1", "1.0", "--seed", "3", "--out", str(data)]
    ) == 0
    assert main(
        ["cdmd", "--snapshots", str(data), "--measure", "pixel", "-p", "12",
         "--tol", "1e-6", "--out", str(comp)]
    ) == 0
    payloads = lambda d: sorted(f for f in os.listdir(d) if f.endswith(".bin"))
    assert payloads(data) == ["snapshots.bin", "truth_atoms.bin", "truth_lambdas.bin"]
    assert "Y.bin" not in payloads(comp) and "Yp.bin" not in payloads(comp)
    assert "measurements.bin" in payloads(comp)
    pair = _read_pair(str(data))
    cfg = make_fourier_lti(nx=16, ny=16, K=2, dt=0.05, m=20, seed=3)
    np.testing.assert_array_equal(pair.load().S, generate_fourier_lti(cfg)[0].S)
    assert _read_pair(str(comp), "Y", "Yp").S.shape == (12, 21)


def test_config_error_exit_codes(workspace, tmp_path, capsys):
    assert main(["bogus"]) == 2
    assert main(["dmd", "--wat"]) == 2
    capsys.readouterr()

    assert main(
        ["dmd", "--snapshots", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]
    ) == 2
    assert "configuration error in dmd" in capsys.readouterr().err

    comp = workspace / "comp"
    assert main(
        ["csdmd", "--measured", str(comp), "--measure-file",
         str(comp / "measure.json"), "--sparsity", "2", "--basis", "wavelet",
         "--out", str(tmp_path / "w")]
    ) == 2
    assert "unrecognized arguments: --basis" in capsys.readouterr().err


def test_gridless_data_runs_1b_but_not_sparse_recovery(tmp_path, capsys):
    # stacked velocity components carry no grid: 1B needs none, but there
    # is no basis to recover sparse modes in
    data, comp = tmp_path / "vel", tmp_path / "comp"
    assert main(
        ["gen", "gyre", "--nx", "12", "--ny", "6", "--t1", "1.0", "--dt", "0.1",
         "--observable", "velocity", "--out", str(data)]
    ) == 0
    assert main(
        ["cdmd", "--snapshots", str(data), "--measure", "gaussian", "-p", "20",
         "--tol", "1e-6", "--out", str(comp)]
    ) == 0
    capsys.readouterr()
    assert main(
        ["csdmd", "--measured", str(comp), "--measure-file",
         str(comp / "measure.json"), "--sparsity", "2", "--out", str(tmp_path / "o")]
    ) == 2
    assert "configuration error in csdmd" in capsys.readouterr().err


def _dense_cdmd(workspace, comp, kind="gaussian"):
    assert main(
        ["cdmd", "--snapshots", str(workspace / "data"), "--measure", kind,
         "-p", "12", "--seed", "5", "--tol", "1e-6", "--out", str(comp)]
    ) == 0
    return json.loads((comp / "measure.json").read_text())


def _move_block_aside(comp, aside):
    aside.mkdir()
    for suffix in (".bin", ".json"):
        os.replace(comp / f"{MEASUREMENT_BLOCK}{suffix}", aside / f"{MEASUREMENT_BLOCK}{suffix}")


def _csdmd_argv(comp, out, path):
    extra = ["--sparsity", "4", "--reconstruct-snapshots"] if path == "2A" else ["--sparsity", "2"]
    return ["csdmd", "--measured", str(comp), "--measure-file", str(comp / "measure.json"),
            "--tol", "1e-6", "--out", str(out), *extra]


@pytest.mark.parametrize("path", ["2B", "2A"])
@pytest.mark.parametrize("kind", ["gaussian", "bernoulli"])
def test_csdmd_reads_the_stored_matrix_and_fits_as_with_the_redraw(workspace, tmp_path,
                                                                   monkeypatch, kind, path):
    # cdmd stores the dense C as C^T; csdmd reads it instead of drawing C
    # again, and its outputs are those of the redraw, byte for byte
    comp = tmp_path / "comp"
    meta = _dense_cdmd(workspace, comp, kind)
    assert meta["payload_block"] == MEASUREMENT_BLOCK
    stored, side = read_matrix(str(comp), MEASUREMENT_BLOCK)
    drawn = make_measurement(kind, 12, 256, 5).payload
    assert (side["rows"], side["cols"], side["dtype"]) == (256, 12, "f64")
    assert stored.T.tobytes() == drawn.tobytes()
    draws = []
    monkeypatch.setattr("csdmd.cli.make_measurement",
                        lambda *a: draws.append(a) or make_measurement(*a))
    assert main(_csdmd_argv(comp, tmp_path / "stored", path)) == 0
    assert draws == []
    _move_block_aside(comp, tmp_path / "aside")
    assert main(_csdmd_argv(comp, tmp_path / "redrawn", path)) == 0
    assert draws == [(kind, 12, 256, 5)]
    for name in ("modes.bin", "lambdas.bin", "amplitudes.bin", "result.json"):
        assert (tmp_path / "stored" / name).read_bytes() == (
            tmp_path / "redrawn" / name).read_bytes()


def test_csdmd_refuses_a_stored_matrix_that_fails_its_checksum(workspace, tmp_path, capsys):
    comp = tmp_path / "comp"
    _dense_cdmd(workspace, comp)
    block = comp / f"{MEASUREMENT_BLOCK}.bin"
    blob = bytearray(block.read_bytes())
    blob[1000] ^= 0x01
    block.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(_csdmd_argv(comp, tmp_path / "o", "2B")) == 2
    assert capsys.readouterr().err == (
        f"configuration error in csdmd: gaussian matrix stored in {MEASUREMENT_BLOCK}.bin "
        f"does not match the payload checksum in {comp / 'measure.json'}\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("changes", [
    {"rows": 12, "cols": 256},  # C, not C^T: the same payload size
    {"rows": 128, "cols": 24},
    {"dtype": "c128", "cols": 6},
])
def test_csdmd_refuses_a_stored_matrix_of_another_shape_before_reading_it(
    workspace, tmp_path, capsys, monkeypatch, changes
):
    comp = tmp_path / "comp"
    _dense_cdmd(workspace, comp)
    _set_sidecar(comp, MEASUREMENT_BLOCK, **changes)
    reads = []
    monkeypatch.setattr(io.PanelReader, "read", lambda self: reads.append(self.path))
    capsys.readouterr()
    assert main(_csdmd_argv(comp, tmp_path / "o", "2B")) == 2
    assert capsys.readouterr().err.startswith(
        f"configuration error in csdmd: {MEASUREMENT_BLOCK} is a ")
    assert reads == [] and not (tmp_path / "o").exists()


def test_csdmd_refuses_a_stored_matrix_of_an_unknown_kind(workspace, tmp_path, capsys):
    comp = tmp_path / "comp"
    meta = _dense_cdmd(workspace, comp)
    (comp / "measure.json").write_text(json.dumps({**meta, "kind": "gauss"}))
    capsys.readouterr()
    assert main(_csdmd_argv(comp, tmp_path / "o", "2B")) == 2
    assert capsys.readouterr().err == (
        "configuration error in csdmd: unknown measurement kind 'gauss'\n"
    )


def test_cdmd_writes_the_stored_matrix_without_a_copy(gyre_128x64, tmp_path, monkeypatch):
    # C^T of a 32 x 8192 Gaussian C is 2 MiB; its column-major payload is
    # C's own buffer, so writing it allocates next to nothing
    peaks = {}
    write_matrix = io.write_matrix

    def traced(directory, name, M, **kw):
        tracemalloc.start()
        try:
            write_matrix(directory, name, M, **kw)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(io, "write_matrix", traced)
    out = tmp_path / "o"
    assert main(["cdmd", "--measure", "gaussian", "-p", "32", "--snapshots", str(gyre_128x64),
                 "--out", str(out)]) == 0
    assert (out / f"{MEASUREMENT_BLOCK}.bin").stat().st_size == 32 * 8192 * 8
    assert peaks[MEASUREMENT_BLOCK] < 1 << 20


def test_cdmd_rerun_replaces_or_drops_the_stored_matrix(workspace, tmp_path, monkeypatch):
    # a rerun into the same directory removes the old block before it
    # writes, so no rename replaces it; a pixel rerun leaves none behind
    comp = tmp_path / "comp"
    _dense_cdmd(workspace, comp)
    renames = []
    replace = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: (
        renames.append((dst, os.path.exists(dst))), replace(src, dst)))
    meta = _dense_cdmd(workspace, comp, "bernoulli")
    block = str(comp / f"{MEASUREMENT_BLOCK}.bin")
    assert (block, False) in renames
    stored, _ = read_matrix(str(comp), MEASUREMENT_BLOCK)
    assert zlib.crc32(stored.T.tobytes()) == meta["payload_crc32"]
    assert main(_csdmd_argv(comp, tmp_path / "o", "2B")) == 0
    meta = _dense_cdmd(workspace, comp, "pixel")
    assert "payload_block" not in meta
    assert not any(comp.glob(f"{MEASUREMENT_BLOCK}.*"))


def test_cdmd_rerun_cut_short_leaves_no_measure_file_of_the_old_matrix(
    workspace, tmp_path, monkeypatch, capsys
):
    # a rerun with another seed stops while it writes its block: the new
    # measurements must not sit beside the old run's measure.json, from
    # whose seed csdmd would draw the old C, pass its checksum and fit
    comp = tmp_path / "comp"

    def cdmd(seed):
        return main(["cdmd", "--snapshots", str(workspace / "data"), "--measure", "gaussian",
                     "-p", "12", "--seed", str(seed), "--tol", "1e-6", "--out", str(comp)])

    assert cdmd(2) == 0
    write_matrix = io.write_matrix

    class Killed(Exception):
        pass

    def cut(directory, name, M, **kw):
        if name == MEASUREMENT_BLOCK:
            raise Killed
        write_matrix(directory, name, M, **kw)

    monkeypatch.setattr(io, "write_matrix", cut)
    with pytest.raises(Killed):
        cdmd(3)
    monkeypatch.undo()
    assert not (comp / "measure.json").exists()
    capsys.readouterr()
    assert main(_csdmd_argv(comp, tmp_path / "o", "2B")) == 2
    assert "configuration error in csdmd" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli"])
def test_csdmd_rejects_a_measurement_that_rebuilds_differently(workspace, tmp_path,
                                                              monkeypatch, capsys, kind):
    # the saved checksum catches a seed that no longer draws the same matrix;
    # with the stored block moved away, csdmd draws the matrix again
    comp = tmp_path / "comp"
    assert "payload_crc32" in _dense_cdmd(workspace, comp, kind)
    _move_block_aside(comp, tmp_path / "aside")
    drawn = make_measurement
    monkeypatch.setattr(
        "csdmd.cli.make_measurement",
        lambda kind, p, n, seed: drawn(kind, p, n, seed + 1),
    )
    assert main(
        ["csdmd", "--measured", str(comp), "--measure-file",
         str(comp / "measure.json"), "--sparsity", "2", "--out", str(tmp_path / "o")]
    ) == 2
    assert "configuration error in csdmd" in capsys.readouterr().err


def test_measure_file_without_checksum_loads(workspace, tmp_path):
    # files written before the checksum existed still load
    comp = tmp_path / "comp"
    meta = _dense_cdmd(workspace, comp)
    del meta["payload_crc32"]
    old = tmp_path / "measure.json"
    old.write_text(json.dumps(meta))
    assert main(
        ["csdmd", "--measured", str(comp), "--measure-file", str(old),
         "--sparsity", "2", "--tol", "1e-6", "--out", str(tmp_path / "o")]
    ) == 0


def test_measure_file_without_a_block_name_is_drawn_again(workspace, tmp_path, monkeypatch):
    # files written before cdmd stored C name no block: csdmd draws C from
    # the seed, checks it against the CRC and fits to the same bytes
    comp = tmp_path / "comp"
    meta = _dense_cdmd(workspace, comp)
    assert main(_csdmd_argv(comp, tmp_path / "stored", "2B")) == 0
    del meta["payload_block"]
    (comp / "measure.json").write_text(json.dumps(meta))
    draws = []
    monkeypatch.setattr("csdmd.cli.make_measurement",
                        lambda *a: draws.append(a) or make_measurement(*a))
    assert main(_csdmd_argv(comp, tmp_path / "redrawn", "2B")) == 0
    assert draws == [("gaussian", 12, 256, 5)]
    for name in ("modes.bin", "result.json"):
        assert (tmp_path / "stored" / name).read_bytes() == (
            tmp_path / "redrawn" / name).read_bytes()


@pytest.mark.parametrize("kind", ["gaussian", "pixel"])
def test_csdmd_refuses_a_measure_file_it_cannot_rebuild(workspace, tmp_path, capsys, kind):
    # with a null seed, make_measurement would draw a dense matrix, or pixel
    # rows without their indices, that never measured the data
    comp = tmp_path / "comp"
    assert main(
        ["cdmd", "--snapshots", str(workspace / "data"), "--measure", kind,
         "-p", "24", "--seed", "9", "--tol", "1e-6", "--out", str(comp)]
    ) == 0
    meta = json.loads((comp / "measure.json").read_text())
    kept = {key: meta.pop(key) for key in ("payload_crc32", "indices") if key in meta}
    meta["seed"] = None
    bad = tmp_path / "measure.json"
    bad.write_text(json.dumps(meta))
    capsys.readouterr()
    argv = ["csdmd", "--measured", str(comp), "--measure-file", str(bad), "--sparsity", "2",
            "--tol", "1e-6", "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"configuration error in csdmd: {bad} holds no seed to rebuild its {kind} matrix from\n"
    )
    assert not (tmp_path / "o").exists()
    if kind == "pixel":
        # the indices alone rebuild a pixel measurement
        bad.write_text(json.dumps({**meta, **kept}))
        assert main(argv) == 0
    else:
        # a dense one is read from the block next to its own measure.json
        (comp / "measure.json").write_text(json.dumps({**meta, **kept}))
        assert main([*argv[:3], "--measure-file", str(comp / "measure.json"), *argv[5:]]) == 0


@pytest.mark.parametrize("sparsity", ["0", "-2"])
def test_csdmd_refuses_a_sparsity_below_one_before_reading_the_pair(workspace, tmp_path,
                                                                    capsys, monkeypatch,
                                                                    sparsity):
    comp = tmp_path / "comp"
    _dense_cdmd(workspace, comp)
    reads = []
    monkeypatch.setattr("csdmd.cli._read_pair", lambda *a: reads.append(a) or _read_pair(*a))
    capsys.readouterr()
    assert main(
        ["csdmd", "--measured", str(comp), "--measure-file", str(comp / "measure.json"),
         "--sparsity", sparsity, "--out", str(tmp_path / "o")]
    ) == 2
    assert capsys.readouterr().err == (
        f"configuration error in csdmd: sparsity_K must be an integer >= 1, got {sparsity}\n"
    )
    assert reads == [] and not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "damage",
    [
        lambda idx: idx[:-1] + [9999],  # outside [0, n)
        lambda idx: idx[:-1] + [-1],
        lambda idx: idx[:2] + idx[1:-1],  # a duplicate, still p of them
        lambda idx: idx[::-1],  # decreasing
        lambda idx: idx[:-1],  # fewer than p
        lambda idx: idx[:-1] + [float(idx[-1])],  # not integers
    ],
)
def test_malformed_pixel_indices_are_a_configuration_error(workspace, tmp_path,
                                                           capsys, damage):
    comp = tmp_path / "comp"
    assert main(
        ["cdmd", "--snapshots", str(workspace / "data"), "--measure", "pixel",
         "-p", "24", "--seed", "9", "--tol", "1e-6", "--out", str(comp)]
    ) == 0
    meta = json.loads((comp / "measure.json").read_text())
    meta["indices"] = damage(meta["indices"])
    (comp / "measure.json").write_text(json.dumps(meta))
    assert main(
        ["csdmd", "--measured", str(comp), "--measure-file",
         str(comp / "measure.json"), "--sparsity", "2", "--out", str(tmp_path / "o")]
    ) == 2
    assert "pixel indices" in capsys.readouterr().err


@pytest.mark.parametrize("name, key, value", [
    ("lambdas", "rows", -1),
    ("lambdas", "rows", "256"),
    ("lambdas", "cols", 31.0),
    ("Y", "first_col", "0"),
    ("measure", "p", "20"),
    ("measure", "seed", -1),
    ("measure", "grid", [16]),
    ("measure", "grid", 16),
])
def test_malformed_sizes_are_a_configuration_error(workspace, tmp_path, capsys,
                                                   name, key, value):
    # sizes read from a sidecar or from measure.json are checked before any
    # arithmetic or allocation uses them
    comp = tmp_path / "comp"
    _dense_cdmd(workspace, comp)
    _set_sidecar(comp, name, **{key: value})
    if name == "lambdas":  # a plain matrix of the fit, as compare reads it
        argv = ["compare", "--a", str(comp), "--b", str(comp), "--out", str(tmp_path / "c")]
    else:
        argv = ["csdmd", "--measured", str(comp), "--measure-file", str(comp / "measure.json"),
                "--sparsity", "2", "--out", str(tmp_path / "o")]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"configuration error in {argv[0]}: ")


def test_numerical_failure_exit_code(workspace, tmp_path, capsys):
    # one measurement row cannot carry a rank-4 system
    code = main(
        ["cdmd", "--snapshots", str(workspace / "data"), "--measure",
         "gaussian", "-p", "1", "--tol", "1e-6", "--out", str(tmp_path / "o")]
    )
    assert code == 3
    assert "numerical failure in cdmd" in capsys.readouterr().err


def test_failing_snapshot_reconstruction_exit_code(tmp_path, capsys):
    # 24 pixels cannot pin down 10-row-sparse snapshots: the joint CoSaMP
    # on the measured range gives up, and its residual names the failure
    data, comp = tmp_path / "data", tmp_path / "comp"
    assert main(
        ["gen", "example1", "--nx", "64", "--ny", "64", "--k", "5", "--t1", "0.64",
         "--out", str(data)]
    ) == 0
    assert main(
        ["cdmd", "--snapshots", str(data), "--measure", "pixel", "-p", "24",
         "--seed", "1", "--out", str(comp)]
    ) == 0
    capsys.readouterr()
    assert main(
        ["csdmd", "--measured", str(comp), "--measure-file",
         str(comp / "measure.json"), "--sparsity", "10", "--reconstruct-snapshots",
         "--out", str(tmp_path / "o")]
    ) == 3
    assert capsys.readouterr().err == (
        "numerical failure in csdmd: residual 0.874 after 4 iterations; "
        "too few measurements or target not sparse\n"
    )


def _error_classes(base=CsdmdError):
    return [base] + [c for sub in base.__subclasses__() for c in _error_classes(sub)]


@pytest.mark.parametrize("error", _error_classes(), ids=lambda c: c.__name__)
def test_every_package_error_maps_to_an_exit_code(error, monkeypatch, capsys):
    def fail(args):
        raise error("boom")

    monkeypatch.setitem(HANDLERS, "compare", fail)
    code = main(["compare", "--a", "a", "--b", "b", "--out", "c"])
    numerical = (RankCollapse, ZeroInput, NoProgress, ConvergenceError)
    if error in numerical:
        assert code == 3
        assert capsys.readouterr().err == "numerical failure in compare: boom\n"
    else:
        assert code == 2
        assert capsys.readouterr().err == "configuration error in compare: boom\n"


def test_gyre_generation(tmp_path):
    out = tmp_path / "gyre"
    assert main(
        ["gen", "gyre", "--nx", "24", "--ny", "12", "--t1", "2.0", "--dt",
         "0.1", "--out", str(out)]
    ) == 0
    X, side = read_matrix(str(out), "X")
    assert X.shape == (288, 20)
    assert side["grid"] == [24, 12]
    assert json.loads((out / "system.json").read_text())["observable"] == "vorticity"
    assert main(
        ["dmd", "--snapshots", str(out), "--tol", "1e-4", "--out",
         str(tmp_path / "res")]
    ) == 0


@pytest.mark.parametrize("args", [
    ["example1", "--dt", "0"],
    ["example1", "--dt", "-0.01"],
    ["example1", "--t1", "-1"],
    ["gyre", "--t0", "5", "--t1", "1"],
    ["gyre", "--dt", "0"],
    ["example1", "--t1", "nan"],
    ["gyre", "--t1", "inf"],
    # an 8 x 8 grid holds only 30 wave pairs
    ["example1", "--k", "40"],
    # a NaN or negative noise level skipped the noise: clean data, exit 0
    ["example1", "--noise", "nan"],
    ["example1", "--noise", "-0.1"],
    ["example1", "--noise", "1.5"],
    # half a step rounds to no step: the window check passed it, the series then failed
    ["gyre", "--t1", "0.05"],
    # non-finite flow parameters wrote a NaN block and exited 0
    ["gyre", "--amp", "nan"],
    ["gyre", "--omega", "inf"],
    ["gyre", "--eps", "nan"],
], ids=["zero-dt", "negative-dt", "negative-t1", "t1-before-t0", "gyre-zero-dt", "nan-t1",
        "gyre-infinite-t1", "k-40", "nan-noise", "negative-noise", "noise-above-one",
        "gyre-half-step", "gyre-nan-amp", "gyre-infinite-omega", "gyre-nan-eps"])
def test_gen_rejects_a_bad_time_window_or_wave_count(tmp_path, capsys, args):
    argv = ["gen", *args, "--nx", "8", "--ny", "8", "--out", str(tmp_path / "g")]
    assert main(argv) == 2
    assert "configuration error in gen" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_noisy_data_set_is_drawn_again_from_its_system_json(tmp_path):
    first = tmp_path / "first"
    assert main(
        ["gen", "example1", "--nx", "16", "--ny", "16", "--k", "2", "--dt", "0.05",
         "--t1", "1.0", "--seed", "4", "--noise", "0.05", "--noise-seed", "3",
         "--out", str(first)]
    ) == 0
    meta = json.loads((first / "system.json").read_text())
    assert meta["noise_seed"] == 3
    again = tmp_path / "again"
    assert main(
        ["gen", "example1", "--nx", str(meta["nx"]), "--ny", str(meta["ny"]),
         "--k", str(meta["K"]), "--dt", str(meta["dt"]), "--t1", str(meta["m"] * meta["dt"]),
         "--seed", str(meta["seed"]), "--noise", str(meta["noise_rms"]),
         "--noise-seed", str(meta["noise_seed"]), "--out", str(again)]
    ) == 0
    assert (again / "snapshots.bin").read_bytes() == (first / "snapshots.bin").read_bytes()
    # without --noise-seed the noise comes from OS entropy, recorded as null
    clean = tmp_path / "clean"
    assert main(["gen", "example1", "--nx", "8", "--ny", "8", "--out", str(clean)]) == 0
    assert json.loads((clean / "system.json").read_text())["noise_seed"] is None


def test_gen_gyre_defaults_are_the_library_defaults(tmp_path):
    # the command line and DoubleGyreParams must draw the same flow
    out = tmp_path / "gyre"
    assert main(["gen", "gyre", "--nx", "32", "--ny", "16", "--out", str(out)]) == 0
    pair = generate_gyre_snapshots(DoubleGyreParams(grid=(32, 16)))
    np.testing.assert_array_equal(read_matrix(str(out), "X")[0], pair.X)
    np.testing.assert_array_equal(read_matrix(str(out), "Xp")[0], pair.Xp)


def test_gen_example1_writes_the_generated_block(tmp_path):
    out = tmp_path / "waves"
    assert main(["gen", "example1", "--nx", "32", "--ny", "16", "--k", "3", "--t1", "0.5",
                 "--seed", "4", "--out", str(out)]) == 0
    pair, _ = generate_fourier_lti(make_fourier_lti(nx=32, ny=16, K=3, m=50, seed=4))
    assert pair.S.flags.f_contiguous
    assert (out / "snapshots.bin").read_bytes() == pair.S.tobytes(order="F")


@pytest.mark.parametrize("observable", ["vorticity", "velocity"])
def test_gen_gyre_writes_the_library_block_in_chunks(tmp_path, observable):
    params = DoubleGyreParams(grid=(24, 12))
    pair = generate_gyre_snapshots(params, observable)
    # the last chunk is a partial one
    assert pair.S.shape[1] % GEN_CHUNK_COLS != 0
    write_matrix(str(tmp_path / "lib"), "snapshots", pair.S, grid=pair.grid, dt=pair.dt)
    out = tmp_path / "cli"
    assert main(["gen", "gyre", "--nx", "24", "--ny", "12", "--observable", observable,
                 "--out", str(out)]) == 0
    for name in ("snapshots.bin", "snapshots.json"):
        assert (out / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()
    X, side = read_matrix(str(out), "X")
    assert side["cols"] == pair.m
    np.testing.assert_array_equal(X, pair.X)


def _run_twice(workspace, name, args):
    """Run one subcommand into two directories; the outputs must match."""
    a, b = workspace / f"det_{name}_a", workspace / f"det_{name}_b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "lambdas.bin").read_bytes() == (b / "lambdas.bin").read_bytes()
    assert (a / "result.json").read_text() == (b / "result.json").read_text()
    return a


def test_compressed_run_is_deterministic(workspace):
    data = str(workspace / "data")
    measured = {}
    for kind, p, seed in (("gaussian", "12", "5"), ("pixel", "24", "9")):
        measured[kind] = _run_twice(
            workspace, kind,
            ["cdmd", "--snapshots", data, "--measure", kind, "-p", p,
             "--seed", seed, "--tol", "1e-6"],
        )
    for name, kind, extra in (
        ("2b", "gaussian", ["--sparsity", "2"]),
        ("2a", "pixel", ["--sparsity", "4", "--reconstruct-snapshots"]),
    ):
        src = measured[kind]
        _run_twice(
            workspace, name,
            ["csdmd", "--measured", str(src), "--measure-file",
             str(src / "measure.json"), "--tol", "1e-6", *extra],
        )


def test_cdmd_decomposes_only_the_measured_pair(workspace, tmp_path, monkeypatch):
    # the one decomposition is of the Gram of the 12-row measured block Y,
    # on its short side: 12 x 12, not 20 x 20
    grams = []

    def recording_gram_svd(G, tol):
        grams.append(G)
        return gram_svd(G, tol)

    monkeypatch.setattr("csdmd.dmd.gram_svd", recording_gram_svd)
    comp = str(tmp_path / "comp")
    assert main(
        ["cdmd", "--snapshots", str(workspace / "data"), "--measure", "gaussian",
         "-p", "12", "--seed", "5", "--tol", "1e-6", "--out", comp]
    ) == 0
    Y, _ = read_matrix(comp, "Y")
    assert Y.shape == (12, 20) and len(grams) == 1
    np.testing.assert_allclose(grams[0], Y @ Y.T, rtol=0, atol=1e-12 * np.abs(Y @ Y.T).max())


def test_compare_agrees_with_run_path(tmp_path):
    # the CLI compare report and run_path's 1B tables come from one routine;
    # on this noisy draw the reference keeps 40 directions and the measured
    # fit 20, so the pairing order and the unmatched lists are compared too
    data, full, comp = (str(tmp_path / d) for d in ("data", "full", "comp"))
    assert main(
        ["gen", "example1", "--nx", "32", "--ny", "32", "--k", "3", "--dt", "0.02",
         "--t1", "0.8", "--seed", "6", "--noise", "0.01", "--noise-seed", "1",
         "--out", data]
    ) == 0
    assert main(["dmd", "--snapshots", data, "--tol", "1e-3", "--out", full]) == 0
    assert main(
        ["cdmd", "--snapshots", data, "--measure", "gaussian", "-p", "20",
         "--seed", "0", "--tol", "1e-3", "--out", comp]
    ) == 0
    out = tmp_path / "cmp.json"
    assert main(["compare", "--a", full, "--b", comp, "--out", str(out)]) == 0
    cmp = json.loads(out.read_text())

    X, side = read_matrix(data, "X")
    Xp, _ = read_matrix(data, "Xp")
    report = run_path(
        ExperimentConfig(
            system=SnapshotPair(X=X, Xp=Xp, dt=side["dt"], grid=tuple(side["grid"])),
            path="1B", measurement_kind="gaussian", p=20, measurement_seed=0,
            truncation_tol=1e-3,
        )
    )

    def z(entry):
        return complex(entry["re"], entry["im"])

    assert len(cmp["eigen_table"]) == len(report.eigen_table) == 20
    for got, want in zip(cmp["eigen_table"], report.eigen_table):
        assert abs(z(got["lambda_a"]) - want["lambda_full"]) <= 1e-12
        assert abs(z(got["lambda_b"]) - want["lambda_projected"]) <= 1e-12
        assert abs(got["abs_delta"] - want["abs_delta"]) <= 1e-12
    np.testing.assert_allclose(cmp["mode_alignments"], report.mode_alignments, atol=1e-12)
    assert len(cmp["unmatched_a"]) == 20 and len(cmp["unmatched_b"]) == 0
    for key, unmatched in (("unmatched_a", report.unmatched_reference),
                           ("unmatched_b", report.unmatched_result)):
        np.testing.assert_allclose([z(e) for e in cmp[key]], unmatched, atol=1e-12)


@pytest.mark.parametrize("path", ["2B", "2A"])
def test_sparse_recovery_run_transforms_the_measurement_once(workspace, tmp_path, monkeypatch,
                                                            path):
    # the operator's half-plane table gives both CoSaMP's columns and the
    # coherence: one rfft2 of all 20 rows of C per run, in the CLI and in
    # run_path alike (2A's real target makes further rfft2 calls, of its
    # adjoints, on no rows of C).  Each of the two planted waves is a
    # conjugate pair in the real snapshots 2A recovers, so 2A needs twice
    # 2B's sparsity.
    data, comp, sparse = str(workspace / "data"), str(tmp_path / "comp"), tmp_path / "sparse"
    assert main(
        ["cdmd", "--snapshots", data, "--measure", "gaussian", "-p", "20",
         "--seed", "5", "--tol", "1e-6", "--out", comp]
    ) == 0
    shapes = []
    rfft2 = np.fft.rfft2

    def counted(a, *args, **kwargs):
        if np.ndim(a) == 3 and np.shape(a)[1:] == (16, 16):  # rows of C, (p, ny, nx)
            shapes.append(np.shape(a))
        return rfft2(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft2", counted)
    K, extra = (4, ["--reconstruct-snapshots"]) if path == "2A" else (2, [])
    assert main(
        ["csdmd", "--measured", comp, "--measure-file", os.path.join(comp, "measure.json"),
         "--sparsity", str(K), "--tol", "1e-6", "--out", str(sparse), *extra]
    ) == 0
    assert shapes == [(20, 16, 16)]
    summary = json.loads((sparse / "result.json").read_text())
    assert (summary["path"], summary["sparsity_K"]) == (path, K)

    X, side = read_matrix(data, "X")
    Xp, _ = read_matrix(data, "Xp")
    shapes.clear()
    report = run_path(
        ExperimentConfig(
            system=SnapshotPair(X=X, Xp=Xp, dt=side["dt"], grid=tuple(side["grid"])),
            path=path, measurement_kind="gaussian", p=20, measurement_seed=5,
            sparsity_K=K, truncation_tol=1e-6,
        )
    )
    monkeypatch.undo()
    assert shapes == [(20, 16, 16)]
    assert report.coherence == summary["coherence"]

    rows = summary["recovery"]
    if path == "2A":
        # one joint recovery of the measured range, one row
        assert len(rows) == len(report.recovery_residuals) == 1
        assert set(rows[0]) == {"residual", "iters"}
        return
    # a conjugate pair of modes shares one solve, so its two rows agree
    lambdas, _ = read_matrix(str(sparse), "lambdas")
    for j, lam in enumerate(lambdas[:, 0]):
        k = int(np.argmin(np.abs(lambdas[:, 0] - lam.conj())))
        assert {**rows[k], "mode": j} == rows[j]
    assert any(lam.imag != 0 for lam in lambdas[:, 0])


@pytest.fixture(scope="module")
def gyre_128x64(tmp_path_factory):
    """A 128 x 64 double gyre (n = 8192, m + 1 = 151 snapshots) on disk."""
    data = tmp_path_factory.mktemp("gyre") / "data"
    assert main(["gen", "gyre", "--nx", "128", "--ny", "64", "--out", str(data)]) == 0
    return data


@pytest.mark.parametrize("argv", [
    ["dmd"],
    ["cdmd", "--measure", "pixel", "-p", "400"],
    ["cdmd", "--measure", "gaussian", "-p", "32"],
])
def test_full_state_fits_hold_less_than_one_snapshot_block(gyre_128x64, tmp_path, argv):
    # the fit reads the snapshot block in row panels, so a whole command,
    # reads and writes included, traces less than the n x (m+1) block it
    # fits; reading the block whole traced 1.2-1.4 blocks
    block = 8192 * 151 * 8
    tracemalloc.start()
    try:
        assert main([*argv, "--snapshots", str(gyre_128x64), "--out", str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block


def test_run_path_and_the_cli_write_identical_eigenvalues(tmp_path, monkeypatch):
    # a 96 x 64 gyre, 6144 rows, is one and a half panels: the generated block
    # in memory and the written one on disk are summed in the same panels
    data = str(tmp_path / "data")
    assert main(["gen", "gyre", "--nx", "96", "--ny", "64", "--out", data]) == 0
    fits = {}
    for name in ("exact_dmd", "compressed_dmd"):
        fit = getattr(pipelines, name)
        monkeypatch.setattr(pipelines, name,
                            lambda *a, fit=fit, name=name: fits.setdefault(name, fit(*a)))
    for kind, p in (("pixel", 300), ("gaussian", 40)):
        fits.clear()
        run_path(ExperimentConfig(system=DoubleGyreParams(grid=(96, 64)), path="1B",
                                  measurement_kind=kind, p=p, measurement_seed=2,
                                  truncation_tol=1e-6))
        for name, argv in (("exact_dmd", ["dmd"]),
                           ("compressed_dmd", ["cdmd", "--measure", kind, "-p", str(p),
                                               "--seed", "2"])):
            out = tmp_path / f"{kind}-{name}"
            assert main([*argv, "--snapshots", data, "--tol", "1e-6", "--out", str(out)]) == 0
            write_matrix(str(tmp_path / "lib"), "lambdas", fits[name].lambdas)
            assert (out / "lambdas.bin").read_bytes() == (tmp_path / "lib" / "lambdas.bin").read_bytes()


def _short_reads(monkeypatch):
    """Every preadv reads all but the last 8 bytes asked for: the file
    seems to end early after its size was checked."""
    preadv = os.preadv

    def short(fd, buffers, offset):
        view = memoryview(buffers[0]).cast("B")
        return preadv(fd, [view[: max(len(view) - 8, 0)]], offset)

    monkeypatch.setattr(os, "preadv", short)


@pytest.mark.parametrize("damage", ["truncated", "view_outside_block", "short_read"])
@pytest.mark.parametrize("argv", [["dmd"], ["cdmd", "--measure", "pixel", "-p", "20"]])
def test_a_damaged_block_is_refused_before_any_output(workspace, tmp_path, capsys, monkeypatch,
                                                      damage, argv):
    data = tmp_path / "data"
    for name in ("snapshots.bin", "snapshots.json", "X.json", "Xp.json"):
        (data / name).parent.mkdir(exist_ok=True)
        (data / name).write_bytes((workspace / "data" / name).read_bytes())
    if damage == "truncated":
        blob = (data / "snapshots.bin").read_bytes()
        (data / "snapshots.bin").write_bytes(blob[:-8])
    elif damage == "view_outside_block":
        _set_sidecar(data, "Xp", first_col=2)
    else:
        _short_reads(monkeypatch)
    out = tmp_path / "out"
    assert main([*argv, "--snapshots", str(data), "--out", str(out)]) == 2
    assert f"configuration error in {argv[0]}" in capsys.readouterr().err
    assert not out.exists()
