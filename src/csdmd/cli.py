"""Command-line front end.

Subcommands generate snapshot data, run the decomposition pathways,
compare results, and verify invariance properties.  Artifacts are binary
matrix files with JSON sidecars; reports are JSON; mode images are
binary PGM.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure (stage named on stderr).
"""

import argparse
import contextlib
import functools
import json
import os
import sys
import zlib

import numpy as np

from . import io as io_mod
from .dmd import SnapshotPair, compare_spectra, exact_dmd, lifted_dmd, measure_pair
from .errors import (
    ConvergenceError,
    CsdmdError,
    DimensionError,
    NoProgress,
    RankCollapse,
    ZeroInput,
    check_count,
)
from .linalg import DEFAULT_TRUNCATION_TOL
from .pipelines import INVARIANCE_TOL_FLOOR, run_2a, run_2b, verify_invariance_suite
from .recovery import RecoveryConfig
from .sensing import (
    MeasurementMatrix,
    SensingOperator,
    SparseBasis,
    check_grid,
    make_measurement,
)
from .systems import (
    DoubleGyreParams,
    add_fourier_noise,
    generate_fourier_lti,
    gyre_chunks,
    make_fourier_lti,
)

NUMERICAL_ERRORS = (
    RankCollapse,
    ZeroInput,
    NoProgress,
    ConvergenceError,
)
# caught after NUMERICAL_ERRORS: every other package error is a configuration one
CONFIG_ERRORS = (CsdmdError, FileNotFoundError, json.JSONDecodeError, KeyError)
# the matrix file, next to measurements.bin, that holds a dense C as C^T
MEASUREMENT_BLOCK = "measurement"


def _read_pair(directory, x="X", xp="Xp", dt=1.0):
    """The pair stored as the matrices x and xp (dt from x's sidecar, if
    there).  When x and xp are views of one block at columns 0 and lag, and
    the block ends with xp, the pair at that lag is held over an
    io.PanelReader of the block, checked here and read by the fit in row
    panels; any other pair is read whole, as two matrices."""
    side, block, first, width = io_mod.locate(directory, x)
    xp_side, xp_block, lag, _ = io_mod.locate(directory, xp)
    grid = check_grid(side["grid"]) if side.get("grid") else None
    dt = side.get("dt", dt)
    if xp_block == block and first == 0 and xp_side["cols"] == side["cols"] == width - lag:
        return SnapshotPair.from_block(io_mod.PanelReader(directory, block), lag, dt, grid)
    X, _ = io_mod.read_matrix(directory, x)
    Xp, _ = io_mod.read_matrix(directory, xp)
    return SnapshotPair(X=X, Xp=Xp, dt=dt, grid=grid)


def _write_views(directory, pair, x, xp, block):
    """The pair, whose block pair.S is written as the matrix block, as two
    view sidecars of it: x at column 0 and xp at the pair's lag.  A plain
    x.bin or xp.bin that an older version wrote there is removed: no
    sidecar points at it now."""
    io_mod.write_view(directory, x, block, 0, pair.m)
    io_mod.write_view(directory, xp, block, pair.lag, pair.m)
    for name in (x, xp):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(directory, f"{name}.bin"))


def _write_fit(args, result, grid, **extra):
    """A fit's arrays and result.json (its rank, dt, cutoff and extra) in
    args.out, then, with --images, the args.images modes of largest
    amplitude as images on grid (with --imag, their imaginary parts too)."""
    for name, array in (("lambdas", result.lambdas), ("omegas", result.omegas),
                        ("amplitudes", result.amplitudes), ("modes", result.Phi),
                        ("atilde", result.Atilde)):
        io_mod.write_matrix(args.out, name, array)
    summary = {"rank": result.rank, "dt": result.dt,
               "truncation_tol": result.svd_used.truncation_tol, **extra}
    io_mod.atomic_write_text(os.path.join(args.out, "result.json"), io_mod.dumps_report(summary))
    if args.images and grid is None:
        raise DimensionError("mode images need grid metadata on the snapshots")
    order = np.argsort(-np.abs(result.amplitudes))
    for rank_pos, j in enumerate(order[:args.images]):
        base = os.path.join(args.out, f"mode{rank_pos:02d}")
        io_mod.write_mode_image(base + ".pgm", result.Phi[:, j], grid, "real")
        if args.imag:
            io_mod.write_mode_image(base + "_imag.pgm", result.Phi[:, j], grid, "imag")
    return 0


def _cmd_gen(args):
    if not (args.dt > 0 and np.isfinite(args.t1)):
        raise DimensionError(f"need dt > 0 and a finite t1, got dt={args.dt}, t1={args.t1}")
    if args.what == "example1":
        m = int(round(args.t1 / args.dt))
        sys_cfg = make_fourier_lti(
            nx=args.nx, ny=args.ny, K=args.k, dt=args.dt, m=m, seed=args.seed
        )
        pair, truth = generate_fourier_lti(sys_cfg)
        pair = add_fourier_noise(pair, args.noise, args.noise_seed)
        io_mod.write_matrix(args.out, "snapshots", pair.S, grid=pair.grid, dt=pair.dt)
        io_mod.write_matrix(args.out, "truth_lambdas", truth.lambdas)
        io_mod.write_matrix(args.out, "truth_atoms", truth.atoms, grid=sys_cfg.grid)
        meta = {
            "system": "fourier_lti",
            "nx": args.nx,
            "ny": args.ny,
            "K": args.k,
            "dt": args.dt,
            "m": m,
            "seed": args.seed,
            "noise_rms": args.noise,
            "noise_seed": args.noise_seed,
            "wavenumbers": [list(w) for w in sys_cfg.wavenumbers],
            "mu": [complex(z) for z in sys_cfg.mu],
        }
    else:
        params = DoubleGyreParams(
            A=args.amp,
            omega=args.omega,
            eps=args.eps,
            grid=(args.nx, args.ny),
            t0=args.t0,
            t1=args.t1,
            dt=args.dt,
        )
        chunks, _, grid = gyre_chunks(params, args.observable)
        io_mod.write_blocks(args.out, "snapshots", chunks, grid=grid, dt=params.dt)
        # the series over the block as written, with the checks of any pair
        pair = SnapshotPair.series(io_mod.PanelReader(args.out, "snapshots"), params.dt, grid)
        meta = {
            "system": "double_gyre",
            "nx": args.nx,
            "ny": args.ny,
            "A": args.amp,
            "omega": args.omega,
            "eps": args.eps,
            "t0": args.t0,
            "t1": args.t1,
            "dt": args.dt,
            "observable": args.observable,
        }
    _write_views(args.out, pair, "X", "Xp", "snapshots")
    io_mod.atomic_write_text(
        os.path.join(args.out, "system.json"), io_mod.dumps_report(meta)
    )
    return 0


def _cmd_dmd(args):
    pair = _read_pair(args.snapshots)
    return _write_fit(args, exact_dmd(pair, args.tol), pair.grid, path="1A")


def _cmd_cdmd(args):
    pair = _read_pair(args.snapshots)
    C = make_measurement(args.measure, args.p, pair.n, args.seed)
    measured = measure_pair(C, pair)
    result = lifted_dmd(measured, pair, args.tol)
    # the previous run's measure.json and block go before the first write,
    # so a rerun cut short leaves no measure.json of another C.  A rename
    # over the old block makes ext4 (auto_da_alloc) start writing the new
    # block to disk before the rename returns: 9-12 ms for a 14.7 MB block
    # on a 2-core x86_64 VM, and as long as the disk takes; with nothing to
    # replace it takes 0.7 ms.  A pixel run leaves no stale block behind
    for name in ("measure.json", f"{MEASUREMENT_BLOCK}.bin", f"{MEASUREMENT_BLOCK}.json"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(args.out, name))
    # persist the measured pair and the measurement description for the
    # sampling-only pipeline, before _write_fit can refuse --images
    io_mod.write_matrix(args.out, "measurements", measured.S, grid=measured.grid, dt=measured.dt)
    _write_views(args.out, measured, "Y", "Yp", "measurements")
    measure_meta = {
        "kind": C.kind,
        "p": C.p,
        "n": C.n,
        "seed": C.seed,
        "grid": list(pair.grid) if pair.grid else None,
        "dt": pair.dt,
    }
    if C.kind == "pixel":
        measure_meta["indices"] = C.indices.tolist()
    else:
        # C^T is n x p column-major: its payload is C's row-major buffer,
        # written with no copy, and csdmd reads it back instead of drawing
        # C again from the seed
        io_mod.write_matrix(args.out, MEASUREMENT_BLOCK, C.payload.T)
        measure_meta["payload_block"] = MEASUREMENT_BLOCK
        measure_meta["payload_crc32"] = zlib.crc32(C.payload)
    io_mod.atomic_write_text(
        os.path.join(args.out, "measure.json"), io_mod.dumps_report(measure_meta)
    )
    return _write_fit(args, result, pair.grid, path="1B", measure=args.measure, p=args.p)


def _stored_payload(path, meta, p, n):
    """The p x n payload of the dense measurement stored as the block that
    meta names, in the directory of path, or None if there is no block (a
    file of an older run, or a measure.json copied elsewhere).  The block's
    sidecar must be n x p f64, checked before the payload is read."""
    name = meta.get("payload_block")
    if name is None:
        return None
    if not isinstance(name, str):
        raise DimensionError(f"payload_block in {path} is no matrix name: {name!r}")
    try:
        reader = io_mod.PanelReader(os.path.dirname(path), name)
    except FileNotFoundError:
        return None
    if reader.shape != (n, p) or reader.dtype != np.float64:
        raise DimensionError(
            f"{name} is a {reader.shape[0]}x{reader.shape[1]} {reader.sidecar['dtype']} "
            f"matrix, {path} needs C^T, {n}x{p} f64"
        )
    return reader.read().T


def _load_measurement(path):
    with open(path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    kind, seed = meta["kind"], meta.get("seed")
    p, n = (check_count(meta[key], f"{key} in {path}", 1) for key in ("p", "n"))
    if seed is not None:
        check_count(seed, f"seed in {path}")
    if kind == "pixel" and "indices" in meta:
        C = MeasurementMatrix(kind, p, n, seed, indices=np.asarray(meta["indices"]))
    else:
        payload = _stored_payload(path, meta, p, n)
        if payload is not None:
            C = MeasurementMatrix(kind, p, n, seed, payload=payload)
            source = f"stored in {meta['payload_block']}.bin"
        elif seed is None:
            # make_measurement would draw a matrix that never measured the data
            raise DimensionError(f"{path} holds no seed to rebuild its {kind} matrix from")
        else:
            C = make_measurement(kind, p, n, seed)
            source = f"rebuilt from seed {seed}"
        crc = meta.get("payload_crc32")  # absent in files of older runs
        if crc is not None and crc != zlib.crc32(C.payload):
            raise DimensionError(
                f"{kind} matrix {source} does not match the payload checksum in {path}"
            )
    grid = check_grid(meta["grid"]) if meta.get("grid") else None
    return C, grid, meta.get("dt", 1.0)


def _cmd_csdmd(args):
    recovery = RecoveryConfig(sparsity_K=args.sparsity)
    C, grid, dt = _load_measurement(args.measure_file)
    measured = _read_pair(args.measured, "Y", "Yp", dt)
    op = SensingOperator(C, SparseBasis(grid))
    path, run = ("2A", run_2a) if args.reconstruct_snapshots else ("2B", run_2b)
    result, residuals = run(measured, op, recovery, args.tol)
    return _write_fit(args, result, grid, path=path, sparsity_K=args.sparsity,
                      coherence=op.coherence, recovery=residuals)


def _read_result(directory):
    """A result's lambdas, amplitudes and modes, if they hold one count r
    (r x 1, r x 1 and n x r); else a DimensionError naming directory."""
    la, amps, modes = (io_mod.read_matrix(directory, name)[0]
                       for name in ("lambdas", "amplitudes", "modes"))
    if not la.shape == amps.shape == (len(la), 1) == (modes.shape[1], 1):
        raise DimensionError(f"result in {directory} holds lambdas {la.shape}, amplitudes "
                             f"{amps.shape} and modes {modes.shape}: not one count of modes")
    return la[:, 0], amps[:, 0], modes


def _cmd_compare(args):
    la, amps_a, Ma = _read_result(args.a)
    lb, _, Mb = _read_result(args.b)
    if Ma.shape[0] != Mb.shape[0]:
        raise DimensionError(f"modes of {Ma.shape[0]} and {Mb.shape[0]} states cannot be aligned")
    rows, aligns, un_a, un_b = compare_spectra(la, Ma, lb, Mb, amps_a)
    report = {
        "schema": io_mod.REPORT_SCHEMA,
        "eigen_table": [
            {"lambda_a": a, "lambda_b": b, "abs_delta": d} for a, b, d in rows
        ],
        "mode_alignments": aligns,
        "unmatched_a": un_a,
        "unmatched_b": un_b,
        "max_abs_delta": max((d for _, _, d in rows), default=0.0),
    }
    io_mod.atomic_write_text(args.out, io_mod.dumps_report(report))
    return 0


def _cmd_verify(args):
    pair = _read_pair(args.snapshots).load()
    checks = verify_invariance_suite(pair, seed=args.seed, truncation_tol=args.tol)
    all_ok = True
    for chk in checks:
        status = "pass" if chk["passed"] else "FAIL"
        print(
            f"{status}  {chk['name']:22s} eig_dev={chk['eig_dev']:.3e} "
            f"mode_dev={chk['mode_dev']:.3e}"
        )
        all_ok = all_ok and chk["passed"]
    if not all_ok:
        raise ConvergenceError("one or more invariance checks failed")
    return 0


def _count(text):
    """An argparse type: an integer >= 0 (an image count or a seed)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"need an integer >= 0, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="csdmd",
        description="modal decomposition from full, compressed, or subsampled snapshots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate snapshot datasets")
    gen_sub = p_gen.add_subparsers(dest="what", required=True)

    g1 = gen_sub.add_parser("example1", help="planted sparse-spectrum linear system")
    g1.add_argument("--nx", type=int, default=128)
    g1.add_argument("--ny", type=int, default=128)
    g1.add_argument("--k", type=int, default=5)
    g1.add_argument("--dt", type=float, default=0.01)
    g1.add_argument("--t1", type=float, default=2.0)
    g1.add_argument("--seed", type=_count, default=0)
    g1.add_argument("--noise", type=float, default=0.0)
    g1.add_argument("--noise-seed", type=_count, default=None)
    g1.add_argument("--out", required=True)

    gyre = DoubleGyreParams()
    g2 = gen_sub.add_parser("gyre", help="double gyre flow snapshots")
    g2.add_argument("--nx", type=int, default=gyre.grid[0])
    g2.add_argument("--ny", type=int, default=gyre.grid[1])
    g2.add_argument("--amp", type=float, default=gyre.A)
    g2.add_argument("--omega", type=float, default=gyre.omega)
    g2.add_argument("--eps", type=float, default=gyre.eps)
    g2.add_argument("--dt", type=float, default=gyre.dt)
    g2.add_argument("--t0", type=float, default=gyre.t0)
    g2.add_argument("--t1", type=float, default=gyre.t1)
    g2.add_argument("--observable", choices=("vorticity", "velocity"), default="vorticity")
    g2.add_argument("--out", required=True)

    # the options every fit command shares, read by _write_fit
    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("--tol", type=float, default=DEFAULT_TRUNCATION_TOL)
    fit.add_argument("--out", required=True)
    fit.add_argument("--images", type=_count, default=0)
    fit.add_argument("--imag", action="store_true")

    p_dmd = sub.add_parser("dmd", parents=[fit], help="full-state decomposition")
    p_dmd.add_argument("--snapshots", required=True)

    p_cdmd = sub.add_parser("cdmd", parents=[fit], help="compress, decompose, lift modes")
    p_cdmd.add_argument("--snapshots", required=True)
    p_cdmd.add_argument("--measure", choices=("gaussian", "bernoulli", "pixel"), required=True)
    p_cdmd.add_argument("-p", type=int, required=True)
    p_cdmd.add_argument("--seed", type=_count, default=0)

    p_cs = sub.add_parser("csdmd", parents=[fit],
                          help="decompose measurements, recover sparse modes")
    p_cs.add_argument("--measured", required=True)
    p_cs.add_argument("--measure-file", required=True)
    p_cs.add_argument("--sparsity", type=int, required=True)
    p_cs.add_argument("--reconstruct-snapshots", action="store_true")

    p_cmp = sub.add_parser("compare", help="match eigenvalues and modes of two results")
    p_cmp.add_argument("--a", required=True)
    p_cmp.add_argument("--b", required=True)
    p_cmp.add_argument("--out", required=True)

    p_ver = sub.add_parser("verify", help="run the invariance checks on snapshots")
    p_ver.add_argument("--snapshots", required=True)
    p_ver.add_argument("--seed", type=_count, default=0)
    p_ver.add_argument("--tol", type=float, default=INVARIANCE_TOL_FLOOR,
                       help="rank cutoff, at least %(default).2g: a lower one is raised to it")

    return parser


HANDLERS = {
    "gen": _cmd_gen,
    "dmd": _cmd_dmd,
    "cdmd": _cmd_cdmd,
    "csdmd": _cmd_csdmd,
    "compare": _cmd_compare,
    "verify": _cmd_verify,
}


@functools.cache
def _parser():
    """The parser main uses, built once per process: parsing does not
    change it, and building its eight subcommands took 1.2-1.5 ms a call
    on a 2-core x86_64 VM."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    stage = args.command
    try:
        return HANDLERS[stage](args)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure in {stage}: {exc}", file=sys.stderr)
        return 3
    except CONFIG_ERRORS as exc:
        print(f"configuration error in {stage}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
