"""Workload definitions, CLI argument lists and output checks.

A workload is one or more data sets made by ``csdmd gen`` plus the
pathways run on them.  One operation is one pathway run through ``csdmd.cli.main``; the
argument lists below are exactly what a shell user would type.  Output
checks read the files an operation wrote and compare them with a
reference: the planted ground truth written by ``gen example1``, or the
workload's own 1A result for the double gyre.
"""

import os
from dataclasses import dataclass
from typing import Optional

# Criterion-2 bounds (planted waves) and criterion-6 bounds (double gyre).
PLANTED_MAX_DLAMBDA = 1e-6
PLANTED_MIN_ALIGN = 0.99
GYRE_MAX_DLAMBDA = 1e-3
GYRE_MIN_ALIGN = 0.95
CROSS_CHECK_MAX_DLAMBDA = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    gen: tuple  # arguments after "gen", without --seed/--out
    seeded_gen: bool  # gen gyre takes no seed; only the measurement is seeded
    measure: str
    p: int
    tol: str
    sparsity_2b: int
    sparsity_2a: Optional[int]
    pathways: tuple
    reference: str  # "truth" (planted waves) or "1A" (own full-state result)
    datasets: int  # data sets per run, cycled through by the operations
    cross_check: tuple  # pathways compared with the library's run_path


WORKLOADS = {
    w.name: w
    for w in (
        # p = 112 is recommended_measurements(2K, n) for K = 5, n = 16384.
        Workload(
            name="waves-desk",
            gen=("example1",),
            seeded_gen=True,
            measure="gaussian",
            p=112,
            tol="1e-6",
            sparsity_2b=5,
            sparsity_2a=None,
            pathways=("1A", "1B", "2B"),
            reference="truth",
            datasets=4,
            cross_check=("2B",),
        ),
        # sparsity 30 is the demos/sparse_recovery.py budget for gyre modes.
        Workload(
            name="gyre-paper",
            gen=("gyre",),
            seeded_gen=False,
            measure="pixel",
            p=2500,
            tol="1e-4",
            sparsity_2b=30,
            sparsity_2a=None,
            pathways=("1A", "1B", "2B"),
            reference="1A",
            datasets=1,
            cross_check=(),
        ),
        # m = 64 snapshots on 64 x 64 is the largest size the 2A guard allows;
        # a snapshot of K = 5 real waves is 2K = 10 sparse.  CoSaMP's iteration
        # count, and so the 2A time, varies from draw to draw by tens of
        # percent; eight draws per run make a run describe the family.
        Workload(
            name="waves-2a",
            gen=("example1", "--nx", "64", "--ny", "64", "--t1", "0.64"),
            seeded_gen=True,
            measure="pixel",
            p=200,
            tol="1e-6",
            sparsity_2b=5,
            sparsity_2a=10,
            pathways=("1A", "1B", "2B", "2A"),
            reference="truth",
            datasets=8,
            cross_check=("2A", "2B"),
        ),
    )
}


def measurement_seed(seed):
    return seed + 1


class Paths:
    """Directory layout of one workload run inside the work directory;
    ``d`` numbers the data set."""

    def __init__(self, work):
        self.work = work

    def data(self, d):
        return os.path.join(self.work, "data", f"d{d}")

    def ref(self, d):
        return os.path.join(self.work, "ref", f"d{d}")

    def out(self, tag, variant, d):
        return os.path.join(self.work, "out", f"{tag}-{variant}-d{d}")


def gen_argv(wl: Workload, seed, out):
    argv = ["gen", *wl.gen]
    if wl.seeded_gen:
        argv += ["--seed", str(seed)]
    return argv + ["--out", out]


def op_argv(wl: Workload, tag, seed, paths: Paths, variant, d):
    """CLI arguments of one pathway operation on data set d.  2B and 2A
    read the measured pair that the latest 1B operation of the same
    variant on the same data set wrote."""
    out = paths.out(tag, variant, d)
    if tag == "1A":
        return ["dmd", "--snapshots", paths.data(d), "--tol", wl.tol, "--out", out]
    if tag == "1B":
        return [
            "cdmd", "--snapshots", paths.data(d), "--measure", wl.measure,
            "-p", str(wl.p), "--seed", str(measurement_seed(seed)),
            "--tol", wl.tol, "--out", out,
        ]
    measured = paths.out("1B", variant, d)
    argv = [
        "csdmd", "--measured", measured,
        "--measure-file", os.path.join(measured, "measure.json"),
        "--tol", wl.tol, "--out", out,
    ]
    if tag == "2B":
        return argv + ["--sparsity", str(wl.sparsity_2b)]
    return argv + ["--sparsity", str(wl.sparsity_2a), "--reconstruct-snapshots"]


def load_reference(wl: Workload, paths: Paths, d):
    from csdmd import io

    if wl.reference == "truth":
        lambdas, _ = io.read_matrix(paths.data(d), "truth_lambdas")
        atoms, _ = io.read_matrix(paths.data(d), "truth_atoms")
        return {"lambdas": lambdas[:, 0], "modes": atoms, "amplitudes": None}
    lambdas, _ = io.read_matrix(paths.ref(d), "lambdas")
    modes, _ = io.read_matrix(paths.ref(d), "modes")
    amplitudes, _ = io.read_matrix(paths.ref(d), "amplitudes")
    return {"lambdas": lambdas[:, 0], "modes": modes, "amplitudes": amplitudes[:, 0]}


def check_output(wl: Workload, out_dir, ref):
    """Compare an operation's eigenvalues and modes with the reference.

    Every reference eigenvalue must be matched and every result eigenvalue
    used; matched pairs must agree within the workload's bounds.  Returns
    (ok, detail).
    """
    from csdmd import io
    from csdmd.dmd import mode_alignment, pair_eigenvalues

    lambdas, _ = io.read_matrix(out_dir, "lambdas")
    modes, _ = io.read_matrix(out_dir, "modes")
    pairs, un_ref, un_res = pair_eigenvalues(ref["lambdas"], lambdas[:, 0], ref["amplitudes"])
    if wl.reference == "truth":
        max_d, min_a = PLANTED_MAX_DLAMBDA, PLANTED_MIN_ALIGN
    else:
        max_d, min_a = GYRE_MAX_DLAMBDA, GYRE_MIN_ALIGN
    dlambda = max((d for _, _, d in pairs), default=float("inf"))
    align = min(
        (mode_alignment(ref["modes"][:, i], modes[:, j]) for i, j, _ in pairs),
        default=0.0,
    )
    ok = not un_ref and not un_res and dlambda <= max_d and align >= min_a
    detail = (
        f"rank {lambdas.shape[0]}, max|dlambda| {dlambda:.1e}, min align {align:.4f}, "
        f"unmatched {len(un_ref)}/{len(un_res)}"
    )
    return ok, detail


def cross_check_run_path(wl: Workload, seed, paths: Paths):
    """Run the library's run_path on the same snapshot pair and settings as
    the CLI operations of the pathways in ``wl.cross_check`` on data set 0
    and compare eigenvalues.  Returns a list of (tag, ok, detail)."""
    from csdmd import io
    from csdmd.dmd import SnapshotPair, pair_eigenvalues
    from csdmd.pipelines import ExperimentConfig, run_path

    X, side = io.read_matrix(paths.data(0), "X")
    Xp, _ = io.read_matrix(paths.data(0), "Xp")
    pair = SnapshotPair(X=X, Xp=Xp, dt=side["dt"], grid=tuple(side["grid"]))
    verdicts = []
    sparsity = {"2A": wl.sparsity_2a, "2B": wl.sparsity_2b}
    for tag in wl.cross_check:
        cfg = ExperimentConfig(
            system=pair,
            path=tag,
            measurement_kind=wl.measure,
            p=wl.p,
            measurement_seed=measurement_seed(seed),
            sparsity_K=sparsity[tag],
            truncation_tol=float(wl.tol),
        )
        report = run_path(cfg)
        lib = [row["lambda_projected"] for row in report.eigen_table]
        lib += list(report.unmatched_result)
        cli, _ = io.read_matrix(paths.out(tag, "cli", 0), "lambdas")
        pairs, un_cli, un_lib = pair_eigenvalues(cli[:, 0], lib)
        dlambda = max((d for _, _, d in pairs), default=float("inf"))
        ok = not un_cli and not un_lib and dlambda <= CROSS_CHECK_MAX_DLAMBDA
        verdicts.append(
            (tag, ok, f"run_path vs CLI {tag}: max|dlambda| {dlambda:.1e}, "
                      f"ranks {len(cli)}/{len(lib)}")
        )
    return verdicts
