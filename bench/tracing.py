"""Spans recorded from the benchmark's own code, and traced replicas of the
CLI pathway handlers.

Each replica makes the same sequence of public library calls as the
``csdmd.cli`` handler it mirrors and writes the same files, with a span
around every call into a layer.  CoSaMP is traced by handing ``cosamp`` a
timing proxy around ``SensingOperator`` (the solver only needs ``shape``,
``apply``, ``adjoint``, ``columns`` and ``synthesize``).  ``svd_econ`` and
``eig_dense`` run inside the DMD calls, so after each traced operation
they are timed again as separate calls on the same inputs; those spans
have no parent and do not count towards the operation's wall time.
"""

import itertools
import json
import os
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from csdmd import io
from csdmd.cli import build_parser
from csdmd.dmd import SnapshotPair, compressed_dmd, exact_dmd
from csdmd.errors import BadDimensions, DimensionError, NoProgress, ZeroInput
from csdmd.linalg import eig_dense, svd_econ
from csdmd.pipelines import PATH_2A_MAX_M, PATH_2A_MAX_N
from csdmd.recovery import RecoveredMode, RecoveryConfig, SensingOperator, cosamp
from csdmd.sensing import (
    MeasurementMatrix,
    SparseBasis,
    apply_measurement,
    make_measurement,
    mutual_coherence,
)


class Tracer:
    """In-memory span store.  Spans nest per thread; a span opened in a
    worker thread names its parent explicitly."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name, parent=None, **counts):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        rec = {"id": next(self._ids), "name": name, "parent": parent, "op": self.op,
               "start": time.perf_counter(), "end": None, **counts}
        stack.append(rec["id"])
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def dump(self, path):
        keys = ("id", "name", "parent", "op", "start", "end")
        rows = [[s[k] for k in keys] + [{k: v for k, v in s.items() if k not in keys}]
                for s in sorted(self.spans, key=lambda s: s["id"])]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": list(keys) + ["extra"], "spans": rows}, fh)


class TimedOperator:
    """Timing proxy around a recovery operator."""

    def __init__(self, tracer, inner):
        self.tracer = tracer
        self.inner = inner
        self.shape = inner.shape

    def apply(self, s):
        with self.tracer.span("recovery.apply"):
            return self.inner.apply(s)

    def adjoint(self, y):
        with self.tracer.span("recovery.adjoint"):
            return self.inner.adjoint(y)

    def columns(self, idx):
        with self.tracer.span("recovery.columns", atoms=len(idx)):
            return self.inner.columns(idx)

    def synthesize(self, coeffs):
        with self.tracer.span("recovery.synthesize"):
            return self.inner.synthesize(coeffs)


def svd_flops(shape, rank, complex_input):
    """Leading-order flop count of the Gram-route SVD (computed, not
    measured): Gram product 2nm^2, symmetric eigensolver 9m^3, U = X V
    2nmr, thin QR of U 4nr^2; complex inputs count four times as much."""
    n, m = max(shape), min(shape)
    flops = 2 * n * m * m + 9 * m ** 3 + 2 * n * m * rank + 4 * n * rank * rank
    return flops * (4 if complex_input else 1)


class Replica:
    """Traced replicas of the dmd, cdmd and csdmd handlers."""

    def __init__(self, tracer):
        self.tr = tracer
        self.side = []  # (kind, array) inputs re-timed after the operation

    # -- io ----------------------------------------------------------------
    def read(self, directory, name):
        with self.tr.span("io.read") as rec:
            M, side = io.read_matrix(directory, name)
            rec["bytes"] = M.nbytes
        return M, side

    def write(self, directory, name, M, **meta):
        with self.tr.span("io.write", bytes=np.asarray(M).nbytes):
            io.write_matrix(directory, name, M, **meta)

    def write_text(self, path, text):
        with self.tr.span("io.write", bytes=len(text.encode("utf-8"))):
            io.atomic_write_text(path, text)

    def read_pair(self, directory):
        X, side = self.read(directory, "X")
        Xp, _ = self.read(directory, "Xp")
        grid = tuple(side["grid"]) if side.get("grid") else None
        return SnapshotPair(X=X, Xp=Xp, dt=side.get("dt", 1.0), grid=grid)

    def write_result(self, out_dir, result, extra):
        os.makedirs(out_dir, exist_ok=True)
        self.write(out_dir, "lambdas", result.lambdas)
        self.write(out_dir, "omegas", result.omegas)
        self.write(out_dir, "amplitudes", result.amplitudes)
        self.write(out_dir, "modes", result.Phi)
        self.write(out_dir, "atilde", result.Atilde)
        summary = {"rank": result.rank, "dt": result.dt,
                   "truncation_tol": result.svd_used.truncation_tol}
        summary.update(extra)
        self.write_text(os.path.join(out_dir, "result.json"), io.dumps_report(summary))

    # -- handlers ----------------------------------------------------------
    def dmd(self, snapshots, tol, out):
        pair = self.read_pair(snapshots)
        with self.tr.span("dmd.exact_dmd"):
            result = exact_dmd(pair, tol)
        self.side += [("svd", pair.X, tol), ("eig", result.Atilde, None)]
        self.write_result(out, result, {"path": "1A"})

    def cdmd(self, snapshots, kind, p, seed, tol, out):
        pair = self.read_pair(snapshots)
        with self.tr.span("sensing.make_measurement"):
            C = make_measurement(kind, p, pair.n, seed)
        with self.tr.span("dmd.compressed_dmd"):
            result = compressed_dmd(pair, C, tol)
        self.write_result(out, result, {"path": "1B", "measure": kind, "p": p})
        with self.tr.span("sensing.apply_measurement"):
            Y = apply_measurement(C, pair.X)
        self.write(out, "Y", Y, dt=pair.dt)
        with self.tr.span("sensing.apply_measurement"):
            Yp = apply_measurement(C, pair.Xp)
        self.write(out, "Yp", Yp, dt=pair.dt)
        meta = {"kind": C.kind, "p": C.p, "n": C.n, "seed": C.seed,
                "grid": list(pair.grid) if pair.grid else None, "dt": pair.dt}
        if C.kind == "pixel":
            meta["indices"] = [int(i) for i in C.indices]
        self.write_text(os.path.join(out, "measure.json"), io.dumps_report(meta))
        # compressed_dmd decomposes Y for the fit and X for its rank check
        self.side += [("svd", Y, tol), ("svd", pair.X, tol), ("eig", result.Atilde, None)]

    def csdmd(self, measured_dir, measure_file, sparsity, tol, out, reconstruct):
        with self.tr.span("sensing.make_measurement"):
            with open(measure_file, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
            if meta["kind"] == "pixel":
                C = MeasurementMatrix("pixel", meta["p"], meta["n"], meta.get("seed"),
                                      indices=np.asarray(meta["indices"]))
            else:
                C = make_measurement(meta["kind"], meta["p"], meta["n"], meta.get("seed"))
        grid = tuple(meta["grid"])
        psi = SparseBasis(grid)
        Y, side = self.read(measured_dir, "Y")
        Yp, _ = self.read(measured_dir, "Yp")
        measured = SnapshotPair(X=Y, Xp=Yp, dt=side.get("dt", meta.get("dt", 1.0)))
        rcfg = RecoveryConfig(sparsity_K=sparsity)

        if reconstruct:
            if C.n > PATH_2A_MAX_N or measured.m > PATH_2A_MAX_M:
                raise BadDimensions("snapshot reconstruction size guard")
            op = TimedOperator(self.tr, SensingOperator(C, psi))
            outs = []
            for M in (measured.X, measured.Xp):
                cols = []
                for k in range(M.shape[1]):
                    with self.tr.span("recovery.cosamp"):
                        cols.append(cosamp(op, M[:, k], rcfg).spatial)
                outs.append(np.column_stack(cols))
            recon = SnapshotPair(X=outs[0], Xp=outs[1], dt=measured.dt)
            with self.tr.span("dmd.exact_dmd"):
                result = exact_dmd(recon, tol)
            self.side += [("svd", recon.X, tol), ("eig", result.Atilde, None)]
            self.write_result(out, result, {"path": "2A"})
            return

        with self.tr.span("dmd.exact_dmd_measured"):
            projected = exact_dmd(measured, tol)
        self.side += [("svd", Y, tol), ("eig", projected.Atilde, None)]
        with self.tr.span("recovery.recover_modes") as rec:
            recovered, diags = self.recover_modes(rec["id"], projected, C, psi, rcfg)
        result = replace(projected, Phi=recovered)
        residuals = []
        for j, diag in enumerate(diags):
            if isinstance(diag, RecoveredMode):
                residuals.append({"mode": j, "residual": diag.residual, "iters": diag.iters})
            else:
                residuals.append({"mode": j, "error": str(diag)})
        with self.tr.span("sensing.mutual_coherence"):
            coherence = mutual_coherence(C, psi)
        self.write_result(out, result, {"path": "2B", "sparsity_K": sparsity,
                                        "coherence": coherence, "recovery": residuals})

    def recover_modes(self, parent, projected, C, psi, cfg):
        """recover_modes with the operator wrapped; same per-mode error
        handling and the same worker-thread policy."""
        op = TimedOperator(self.tr, SensingOperator(C, psi))
        Phi_y = projected.Phi
        r = Phi_y.shape[1]

        def one(j):
            try:
                with self.tr.span("recovery.cosamp", parent=parent):
                    return cosamp(op, Phi_y[:, j], cfg)
            except (ZeroInput, NoProgress) as exc:
                return f"mode {j}: {type(exc).__name__}: {exc}"

        workers = recovery_workers(r)
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                diagnostics = list(pool.map(one, range(r)))
        else:
            diagnostics = [one(j) for j in range(r)]
        full_modes = np.zeros((C.n, r), dtype=complex)
        for j, diag in enumerate(diagnostics):
            if isinstance(diag, RecoveredMode):
                full_modes[:, j] = diag.spatial
        return full_modes, diagnostics

    def time_side_calls(self):
        """Time svd_econ and eig_dense separately on the inputs the last
        operation's DMD calls used."""
        for kind, A, tol in self.side:
            if kind == "svd":
                with self.tr.span("linalg.svd_econ") as rec:
                    svd = svd_econ(A, tol)
                rec["rank"] = svd.rank
                rec["flops"] = svd_flops(A.shape, svd.rank, np.iscomplexobj(A))
            else:
                with self.tr.span("linalg.eig_dense"):
                    eig_dense(A)
        self.side = []


def recovery_workers(n_tasks):
    """Worker count recover_modes uses: CSDMD_THREADS, or the CPU count
    when unset or not positive, capped at the number of modes."""
    try:
        requested = int(os.environ.get("CSDMD_THREADS", "0"))
    except ValueError:
        requested = 0
    if requested <= 0:
        requested = os.cpu_count() or 1
    return max(1, min(requested, n_tasks))


def run_replica(replica, argv):
    """Parse CLI arguments as ``csdmd.cli.main`` does and dispatch them to
    the traced replica of the matching handler."""
    args = build_parser().parse_args(argv)
    if args.command == "dmd":
        replica.dmd(args.snapshots, args.tol, args.out)
    elif args.command == "cdmd":
        replica.cdmd(args.snapshots, args.measure, args.p, args.seed, args.tol, args.out)
    elif args.command == "csdmd":
        replica.csdmd(args.measured, args.measure_file, args.sparsity, args.tol, args.out,
                      args.reconstruct_snapshots)
    else:
        raise DimensionError(f"no traced replica for {args.command!r}")


def union_length(intervals):
    total = 0.0
    end = -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


# per-layer metric -> span name whose durations it sums
LAYER_TIMES = {
    "io.read_s": "io.read",
    "io.write_s": "io.write",
    "sensing.make_measurement_s": "sensing.make_measurement",
    "sensing.apply_measurement_s": "sensing.apply_measurement",
    "sensing.mutual_coherence_s": "sensing.mutual_coherence",
    "linalg.svd_econ_s": "linalg.svd_econ",
    "linalg.eig_dense_s": "linalg.eig_dense",
    "dmd.exact_dmd_s": "dmd.exact_dmd",
    "dmd.compressed_dmd_s": "dmd.compressed_dmd",
    "dmd.exact_dmd_measured_s": "dmd.exact_dmd_measured",
    "recovery.recover_modes_s": "recovery.recover_modes",
    "recovery.columns_s": "recovery.columns",
    "recovery.adjoint_s": "recovery.adjoint",
    "recovery.apply_s": "recovery.apply",
    "recovery.synthesize_s": "recovery.synthesize",
}


def _duration(s):
    return s["end"] - s["start"]


def _children(spans):
    by_parent = {}
    for s in spans:
        if s["parent"] is not None:
            by_parent.setdefault(s["parent"], []).append(s)
    return by_parent


def op_layers(spans):
    """Per-layer metrics of one traced operation from its spans: busy
    seconds (summed over worker threads), counts, and bytes computed from
    array sizes.  Also the operation's wall time and the part of it that
    its direct child spans cover."""
    by_parent = _children(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    out = {metric: sum(map(_duration, named(name))) for metric, name in LAYER_TIMES.items()}
    cosamps = named("recovery.cosamp")
    out["recovery.solve_s"] = sum(
        _duration(s) - sum(map(_duration, by_parent.get(s["id"], []))) for s in cosamps
    )
    out["recovery.cosamp_calls"] = len(cosamps)
    out["recovery.cosamp_iters"] = len(named("recovery.adjoint"))
    out["recovery.cosamp_failed"] = sum("error" in s for s in cosamps)
    out["recovery.columns_calls"] = len(named("recovery.columns"))
    out["recovery.columns_atoms"] = sum(s["atoms"] for s in named("recovery.columns"))
    out["io.read_bytes"] = sum(s.get("bytes", 0) for s in named("io.read"))
    out["io.write_bytes"] = sum(s["bytes"] for s in named("io.write"))
    out["sensing.apply_measurement_calls"] = len(named("sensing.apply_measurement"))
    out["sensing.mutual_coherence_failed"] = sum(
        "error" in s for s in named("sensing.mutual_coherence")
    )
    svds = named("linalg.svd_econ")
    out["linalg.svd_flops"] = sum(s.get("flops", 0) for s in svds)
    out["linalg.svd_rank"] = svds[0].get("rank", 0) if svds else 0
    (root,) = [s for s in spans if s["name"].startswith("op.")]
    kids = by_parent.get(root["id"], [])
    out["wall_s"] = _duration(root)
    out["covered_s"] = union_length([(c["start"], c["end"]) for c in kids])
    return out


def round_layers(spans, ops):
    """Per-layer metrics of one round (every pathway once): for each
    pathway the median over its measured traced operations, summed over
    pathways.  Also the per-pathway medians, for the coverage report."""
    by_op = {}
    for s in spans:
        by_op.setdefault(s["op"], []).append(s)
    per_tag = {}
    for o in ops:
        if o["variant"] == "traced" and o["measured"] and o["id"] in by_op:
            per_tag.setdefault(o["tag"], []).append(op_layers(by_op[o["id"]]))
    medians = {
        tag: {k: statistics.median(row[k] for row in rows) for k in rows[0]}
        for tag, rows in per_tag.items()
    }
    total = {k: sum(m[k] for m in medians.values()) for k in next(iter(medians.values()))}
    # the SVD rank reported is the full-state decomposition's (1A)
    total["linalg.svd_rank"] = medians["1A"]["linalg.svd_rank"]
    wall, covered = total.pop("wall_s"), total.pop("covered_s")
    total["cli.self_s"] = wall - covered
    total["trace.coverage"] = covered / wall

    total["trace.overhead_frac"] = overhead(ops) - 1.0
    return total, medians


def overhead(ops, tag=None):
    """Traced over untraced time of the measured operations (of one
    pathway, or all); the two variants run back to back on the same data."""
    def seconds(variant):
        return sum(o["t"] or 0.0 for o in ops if o["variant"] == variant and o["measured"]
                   and tag in (None, o["tag"]))

    return seconds("traced") / seconds("cli")
