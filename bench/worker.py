"""Child processes of the benchmark, one per phase.

    worker.py setup <request.json>   generate the workload's data (timed)
    worker.py warm  <request.json>   the warm pathway loop, traced or not

The request names the workload, seed, work directory and the file the
child writes its result to.  ``csdmd`` is imported from PYTHONPATH.
"""

import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

from workloads import (
    WORKLOADS,
    Paths,
    check_output,
    cross_check_run_path,
    gen_argv,
    load_reference,
    op_argv,
)

RESOLVE_MARGIN = 10.0


def describe(exc):
    """Exception type plus the chain of csdmd functions it came through."""
    chain = []
    for frame in traceback.extract_tb(exc.__traceback__):
        parts = frame.filename.split(os.sep)
        if "csdmd" in parts[:-1] and frame.name != "main":
            chain.append(f"{parts[-1][:-3]}.{frame.name}")
    return f"{type(exc).__name__} in {' > '.join(chain)}" if chain else type(exc).__name__


def run_cli(argv):
    """One operation through the CLI entry point: (seconds, error or None)."""
    from csdmd.cli import main

    t0 = time.perf_counter()
    try:
        rc = main(argv)
        error = None if rc == 0 else f"exit code {rc}"
    except Exception as exc:  # the loop must go on; the failure is recorded
        error = describe(exc)
    return time.perf_counter() - t0, error


def verdict(wl, error, out_dir, ref):
    """'ok', 'wrong' (output failed its check) or 'error', with detail."""
    if error is not None:
        return "error", error
    try:
        ok, detail = check_output(wl, out_dir, ref)
    except (OSError, ValueError, KeyError) as exc:
        return "wrong", f"unreadable output: {type(exc).__name__}: {exc}"
    return ("ok" if ok else "wrong"), detail


def environment():
    import numpy as np

    from tracing import recovery_workers

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "recovery_workers": recovery_workers(1 << 30),
        "rlimit_as_bytes": resource.getrlimit(resource.RLIMIT_AS)[0],
        "machine": platform.machine(),
    }


def resolvable_gen_seed(wl, seed):
    """Seed for ``gen example1``: the given seed, or the first of seed +
    1000, seed + 2000, ... whose snapshots hold all 2K planted eigenvalues
    clearly above the workload's truncation tolerance (sigma_2K >= 10 tol
    sigma_1, by LAPACK).  Two planted waves with close frequencies can make
    the true rank-2K data numerically rank-deficient at that tolerance over
    a short window; every pathway then correctly returns fewer modes than
    were planted, which the truth check would count as wrong.  At 64 x 64,
    m = 64 about one draw in twenty is redrawn."""
    import numpy as np

    from csdmd.cli import build_parser

    for candidate in range(seed, seed + 100_000, 1000):
        pair, truth = generate(build_parser().parse_args(gen_argv(wl, candidate, "unused")))
        sigma = np.linalg.svd(pair.X, compute_uv=False)
        if sigma[len(truth.lambdas) - 1] >= RESOLVE_MARGIN * float(wl.tol) * sigma[0]:
            return candidate
    raise SystemExit(f"no resolvable planted system near seed {seed}")


def generate(args):
    """The generation call of the gen handler, without the writes."""
    from csdmd.systems import (
        DoubleGyreParams,
        generate_fourier_lti,
        generate_gyre_snapshots,
        make_fourier_lti,
    )

    if args.what == "example1":
        m = int(round(args.t1 / args.dt))
        return generate_fourier_lti(
            make_fourier_lti(nx=args.nx, ny=args.ny, K=args.k, dt=args.dt, m=m, seed=args.seed)
        )
    params = DoubleGyreParams(A=args.amp, omega=args.omega, eps=args.eps,
                              grid=(args.nx, args.ny), t0=args.t0, t1=args.t1, dt=args.dt)
    return generate_gyre_snapshots(params, args.observable)


def role_setup(req, wl, paths):
    """Generate every data set of the workload, at least ``min_reps`` times
    over and until ``min_seconds`` have passed; one set-up time is the time
    to generate all of them."""
    from csdmd.cli import build_parser, main

    seeds = [req["seed"] * wl.datasets + d for d in range(wl.datasets)]
    if wl.seeded_gen:
        seeds = [resolvable_gen_seed(wl, s) for s in seeds]
    setup_s = []
    rep = None
    while len(setup_s) < req["min_reps"] or sum(setup_s) < req["min_seconds"]:
        if rep is not None:
            shutil.rmtree(rep)
        rep = os.path.join(paths.work, f"gen{len(setup_s)}")
        t0 = time.perf_counter()
        for d, seed in enumerate(seeds):
            rc = main(gen_argv(wl, seed, os.path.join(rep, f"d{d}")))
            if rc != 0:
                raise SystemExit(f"gen failed with exit code {rc}")
        setup_s.append(time.perf_counter() - t0)
    os.replace(rep, os.path.dirname(paths.data(0)))

    generate_s = []
    if req["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        for _ in setup_s:
            with tracer.span("systems.generate") as rec:
                for seed in seeds:
                    generate(build_parser().parse_args(gen_argv(wl, seed, "unused")))
            generate_s.append(rec["end"] - rec["start"])

    if wl.reference == "1A":
        for d in range(wl.datasets):
            rc = main(["dmd", "--snapshots", paths.data(d), "--tol", wl.tol,
                       "--out", paths.ref(d)])
            if rc != 0:
                raise SystemExit(f"reference 1A failed with exit code {rc}")
    return {"setup_s": setup_s, "generate_s": generate_s,
            "gen_seeds": seeds if wl.seeded_gen else None}


def role_warm(req, wl, paths):
    """Warm loop.  A warm-up operation of every pathway on every data set
    comes first.  After it the next pathway is always the one with the
    least measured time so far, so each pathway gets an equal share of the
    run and its samples spread over all of it; each pathway cycles through
    the data sets.  2B and 2A read what the latest 1B operation on their
    data set wrote.  The run_path cross-check comes last, untimed."""
    trace = req["trace"]
    seed = req["seed"]
    refs = [load_reference(wl, paths, d) for d in range(wl.datasets)]
    cold = []
    for c in req["cold"]:
        error = None if c["rc"] == 0 else f"exit code {c['rc']}"
        status, detail = verdict(wl, error, c["out"], refs[0])
        cold.append(dict(c, status=status, detail=detail))
    if trace:
        from tracing import Replica, Tracer, run_replica

        tracer = Tracer()
    ops = []

    def run(tag, variant, d, measured):
        op = {"tag": tag, "variant": variant, "dataset": d, "measured": measured,
              "id": len(ops) + 1}
        upstream = [o for o in ops if o["tag"] == "1B" and o["variant"] == variant
                    and o["dataset"] == d]
        if tag in ("2A", "2B") and upstream[-1]["status"] != "ok":
            op.update(t=None, status="error", detail="not run: 1B failed")
            ops.append(op)
            return upstream[-1]["t"]  # the turn is charged what the failed 1B took
        argv = op_argv(wl, tag, seed, paths, variant, d)
        if variant == "cli":
            t, error = run_cli(argv)
        else:
            tracer.op = op["id"]
            replica = Replica(tracer)
            t0 = time.perf_counter()
            try:
                with tracer.span(f"op.{tag}"):
                    run_replica(replica, argv)
                error = None
            except Exception as exc:  # recorded like a CLI failure
                error = describe(exc)
            t = time.perf_counter() - t0
            replica.time_side_calls()
            tracer.op = None
        status, detail = verdict(wl, error, paths.out(tag, variant, d), refs[d])
        op.update(t=t, status=status, detail=detail)
        ops.append(op)
        return t

    def run_pathway(tag, d, measured):
        """The CLI operation, and in traced runs its replica, alternating
        which goes first; returns the CLI operation's time."""
        variants = ("cli", "traced") if trace else ("cli",)
        if sum(o["variant"] == "cli" for o in ops) % 2:
            variants = variants[::-1]
        return {v: run(tag, v, d, measured) for v in variants}["cli"]

    for d in range(wl.datasets):
        for tag in wl.pathways:
            run_pathway(tag, d, measured=False)
    busy = {tag: 0.0 for tag in wl.pathways}
    turns = {tag: 0 for tag in wl.pathways}
    start = time.perf_counter()
    while min(busy.values()) == 0.0 or time.perf_counter() - start < req["seconds"]:
        tag = min(wl.pathways, key=busy.get)
        busy[tag] += run_pathway(tag, turns[tag] % wl.datasets, measured=True)
        turns[tag] += 1
    measured_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # after the peak is read, so that run_path's memory does not count
    cross = [
        {"tag": tag, "ok": ok, "detail": detail}
        for tag, ok, detail in cross_check_run_path(wl, seed, paths)
    ]
    result = {
        "ops": ops,
        "cold": cold,
        "measured_s": measured_s,
        "cross_checks": cross,
        "peak_rss_mb": peak_rss_mb,
        "environment": environment(),
    }
    if trace:
        from tracing import overhead, round_layers

        result["layers"], result["coverage"] = round_layers(tracer.spans, ops)
        result["overhead"] = {tag: overhead(ops, tag) - 1.0 for tag in wl.pathways}
        tracer.dump(req["spans_path"])
    return result


ROLES = {"setup": role_setup, "warm": role_warm}


def main():
    role, request_path = sys.argv[1], sys.argv[2]
    with open(request_path, "r", encoding="utf-8") as fh:
        req = json.load(fh)
    wl = WORKLOADS[req["workload"]]
    result = ROLES[role](req, wl, Paths(req["work"]))
    with open(req["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
