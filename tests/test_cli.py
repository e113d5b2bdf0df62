"""Command-line driver: artifact layout, subcommand chaining, exit codes.

All invocations go through main() in-process so exit codes and stderr
text can be asserted directly.
"""

import inspect
import json
import os

import numpy as np
import pytest

from csdmd import io, recovery
from csdmd.cli import HANDLERS, _read_pair, build_parser, main
from csdmd.dmd import SnapshotPair
from csdmd.errors import (
    ConvergenceError,
    CsdmdError,
    DimensionError,
    NoProgress,
    RankCollapse,
    ZeroInput,
)
from csdmd.io import read_matrix, read_pgm, write_matrix, write_view
from csdmd.linalg import DEFAULT_TRUNCATION_TOL, gram_svd
from csdmd.pipelines import (
    INVARIANCE_TOL_FLOOR,
    ExperimentConfig,
    run_path,
    verify_invariance_suite,
)
from csdmd.sensing import make_measurement
from csdmd.systems import (
    DoubleGyreParams,
    add_fourier_noise,
    generate_fourier_lti,
    generate_gyre_snapshots,
    make_fourier_lti,
)


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

    def recording(path, *args, **kwargs):
        if str(path).endswith(".bin"):
            opened.append(os.path.basename(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(io, "open", recording, raising=False)
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
    monkeypatch.undo()
    # the block is the one payload read, once, with no comparison
    assert opened == [block]
    assert pair.lag == 1 and pair.S.shape == (rows, 21)
    # X and X' are views of the one n x (m+1) block read from the file
    assert pair.S.flags.owndata and np.shares_memory(pair.X, pair.Xp)
    np.testing.assert_array_equal(pair.X, read_matrix(data, names[0])[0])
    np.testing.assert_array_equal(pair.Xp, read_matrix(data, names[1])[0])
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
    np.testing.assert_array_equal(measured.S, pair.S)


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
    "rows", "dtype", "view_of_view", "payload_size",
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
    else:
        blob = (data / "snapshots.bin").read_bytes()
        (data / "snapshots.bin").write_bytes(blob[:-8])
    with pytest.raises(DimensionError):
        _read_pair(str(data))
    with pytest.raises(DimensionError):
        read_matrix(str(data), "Xp" if damage in ("first_col_past_block", "dtype",
                                                  "view_of_view") else "X")
    capsys.readouterr()
    assert main(["dmd", "--snapshots", str(data), "--out", str(tmp_path / "o")]) == 2
    assert "configuration error in dmd" in capsys.readouterr().err


def test_snapshot_reconstruction_from_files_solves_each_snapshot_once(
    workspace, tmp_path, monkeypatch
):
    # cdmd writes a measured series, so 2A runs m+1 solves, not 2m
    comp = tmp_path / "comp"
    assert main(
        ["cdmd", "--snapshots", str(workspace / "data"), "--measure", "pixel",
         "-p", "24", "--seed", "9", "--tol", "1e-6", "--out", str(comp)]
    ) == 0
    solves = []
    cosamp = recovery.cosamp

    def counted(op, y, cfg):
        solves.append(1)
        return cosamp(op, y, cfg)

    monkeypatch.setattr(recovery, "cosamp", counted)
    assert main(
        ["csdmd", "--measured", str(comp), "--measure-file",
         str(comp / "measure.json"), "--sparsity", "4", "--tol", "1e-6",
         "--reconstruct-snapshots", "--out", str(tmp_path / "recon")]
    ) == 0
    assert len(solves) == 21


def test_compare_result_with_itself(workspace):
    full = workspace / "full"
    out = workspace / "self.json"
    assert main(["compare", "--a", str(full), "--b", str(full), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["max_abs_delta"] == 0.0
    assert min(report["mode_alignments"]) >= 1.0 - 1e-12


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
    np.testing.assert_array_equal(pair.S, generate_fourier_lti(cfg)[0].S)
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


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli"])
def test_csdmd_rejects_a_measurement_that_rebuilds_differently(workspace, tmp_path,
                                                              monkeypatch, capsys, kind):
    # the saved checksum catches a seed that no longer draws the same matrix
    comp = tmp_path / "comp"
    assert "payload_crc32" in _dense_cdmd(workspace, comp, kind)
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


def test_numerical_failure_exit_code(workspace, tmp_path, capsys):
    # one measurement row cannot carry a rank-4 system
    code = main(
        ["cdmd", "--snapshots", str(workspace / "data"), "--measure",
         "gaussian", "-p", "1", "--tol", "1e-6", "--out", str(tmp_path / "o")]
    )
    assert code == 3
    assert "numerical failure in cdmd" in capsys.readouterr().err


def test_failing_snapshot_reconstruction_exit_code(tmp_path, capsys):
    # 24 pixels cannot pin down 10-sparse snapshots: the first snapshot
    # CoSaMP gives up on names the failure
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
        "numerical failure in csdmd: residual 0.507 after 5 iterations; "
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


def test_verify_size_guard(tmp_path, capsys):
    big = np.ones((4097, 3))
    write_matrix(str(tmp_path), "X", big, dt=1.0)
    write_matrix(str(tmp_path), "Xp", big, dt=1.0)
    assert main(["verify", "--snapshots", str(tmp_path)]) == 2
    assert "configuration error in verify" in capsys.readouterr().err


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
], ids=["zero-dt", "negative-dt", "negative-t1", "t1-before-t0", "gyre-zero-dt", "nan-t1",
        "gyre-infinite-t1", "k-40", "nan-noise", "negative-noise", "noise-above-one"])
def test_gen_rejects_a_bad_time_window_or_wave_count(tmp_path, capsys, args):
    argv = ["gen", *args, "--nx", "8", "--ny", "8", "--out", str(tmp_path / "g")]
    assert main(argv) == 2
    assert "configuration error in gen" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_gen_gyre_defaults_are_the_library_defaults(tmp_path):
    # the command line and DoubleGyreParams must draw the same flow
    out = tmp_path / "gyre"
    assert main(["gen", "gyre", "--nx", "32", "--ny", "16", "--out", str(out)]) == 0
    pair = generate_gyre_snapshots(DoubleGyreParams(grid=(32, 16)))
    np.testing.assert_array_equal(read_matrix(str(out), "X")[0], pair.X)
    np.testing.assert_array_equal(read_matrix(str(out), "Xp")[0], pair.Xp)


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
