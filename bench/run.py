"""Pathway benchmark for csdmd: 1A/1B/2B (and 2A) through the CLI.

    python3 bench/run.py --workload waves-desk --seed 1 --seconds 35 --trace 0

One operation is one pathway run through ``csdmd.cli.main`` in-process,
one at a time.  A run has three phases, each in its own process so that
set-up memory, cold start and the warm loop do not disturb one another:

  setup  ``csdmd gen`` for every data set of the workload, repeated
         (setup_s); worker.py
  cold   ``python -m csdmd.cli dmd`` in a fresh interpreter, repeated,
         each timed from start to exit (first_call_s)
  warm   a warm-up operation of every pathway on every data set, then
         operations until --seconds have passed, each time of the pathway
         with the least measured time so far; worker.py

Every output is checked.  With --trace 1 the cold phase is skipped and
the warm loop runs, next to each CLI operation, a traced replica of the
same handler; the run reports per-layer metrics instead of end-to-end
ones.  The last line of standard output is one JSON object with the
metrics named in BENCHMARK.json.  A result file with the run environment
goes to ``.bench_out/``.

The benchmark caps its own address space (RLIMIT_AS, inherited by every
process it starts), so an allocation that does not fit raises
MemoryError, recorded as a failed operation, instead of waking the
kernel's OOM killer.

``correct`` is false when any operation returned output that failed its
check, or when the run_path cross-check disagrees.  ``failed`` counts
every operation without checked-correct output: exceptions, non-zero
exit codes and wrong output alike.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from workloads import WORKLOADS, Paths, measurement_seed, op_argv  # noqa: E402

# set-up and cold calls repeat at least this often and for this long
SETUP_MIN_REPS, SETUP_MIN_S = 5, 2.0
COLD_MIN_REPS, COLD_MIN_S = 5, 2.0
AS_CAP_BYTES = 4 << 30
RUN_DEADLINE_S = 170.0


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 11
    return {"value": sorted(samples)[k], "percentile": 100 * (k + 1) // n, "samples": n}


def cap_address_space():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = AS_CAP_BYTES if hard == resource.RLIM_INFINITY else min(AS_CAP_BYTES, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def child_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


class Runner:
    """Starts the run's processes one at a time under one deadline and
    waits for each to end."""

    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.env = child_env()
        self.t0 = time.monotonic()

    def run(self, cmd):
        """Run cmd to its end and return its exit code.  A timer thread
        kills it at the deadline, so that the wait itself is a blocking
        one and the caller's clock sees the exit when it happens (waiting
        with a timeout polls, at up to 50 ms intervals)."""
        remaining = RUN_DEADLINE_S - (time.monotonic() - self.t0)
        if remaining <= 0:
            raise RuntimeError("run deadline passed")
        proc = subprocess.Popen(cmd, env=self.env, stdout=sys.stderr)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            rc = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:  # interrupted: leave nothing running
                proc.kill()
                proc.wait()
        if time.monotonic() - self.t0 >= RUN_DEADLINE_S:
            raise RuntimeError(f"run deadline passed; stopped {cmd[1]}")
        return rc

    def phase(self, role, **extra):
        result_path = os.path.join(self.work, f"{role}.json")
        req = {"workload": self.args.workload, "seed": self.args.seed,
               "seconds": self.args.seconds, "trace": self.args.trace,
               "work": self.work, "result_path": result_path, **extra}
        request_path = os.path.join(self.work, f"{role}-request.json")
        with open(request_path, "w", encoding="utf-8") as fh:
            json.dump(req, fh)
        rc = self.run([sys.executable, os.path.join(BENCH, "worker.py"), role, request_path])
        if rc != 0:
            raise RuntimeError(f"{role} phase exited with code {rc}")
        with open(result_path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def cold_calls(self, wl):
        """First calls as a shell user makes them: a fresh interpreter runs
        one 1A operation on data set 0.  Outputs are checked in the warm
        phase."""
        paths = Paths(self.work)
        calls = []
        while len(calls) < COLD_MIN_REPS or sum(c["t"] for c in calls) < COLD_MIN_S:
            i = len(calls)
            argv = op_argv(wl, "1A", self.args.seed, paths, f"cold{i}", 0)
            t0 = time.perf_counter()
            rc = self.run([sys.executable, "-m", "csdmd.cli", *argv])
            calls.append({"t": time.perf_counter() - t0, "rc": rc,
                          "out": paths.out("1A", f"cold{i}", 0)})
        return calls


def end_to_end(wl, setup, cold, warm):
    ops = [o for o in warm["ops"] if o["variant"] == "cli"]
    metrics, notes = {}, {}
    metrics["setup_s"] = statistics.median(setup["setup_s"])
    notes["setup_s"] = f"median of {len(setup['setup_s'])}, {wl.datasets} data set(s) each"
    metrics["first_call_s"] = statistics.median(c["t"] for c in cold)
    notes["first_call_s"] = f"median of {len(cold)} fresh `python -m csdmd.cli dmd`, start to exit"
    ok_shares = []
    for tag in wl.pathways:
        mine = [o for o in ops if o["tag"] == tag]
        samples = [o["t"] for o in mine if o["measured"] and o["t"] is not None]
        metrics[f"t_{tag}_s"] = statistics.median(samples)
        notes[f"t_{tag}_s"] = f"median of {len(samples)}, failed operations included"
        t = tail(samples)
        if t is None:
            notes[f"t_{tag}_tail_s"] = f"n/a: {len(samples)} samples, a tail needs 11"
        else:
            metrics[f"t_{tag}_tail_s"] = t["value"]
            notes[f"t_{tag}_tail_s"] = (
                f"p{t['percentile']}, 10 of {t['samples']} samples beyond it"
            )
        ok_shares.append(sum(o["status"] == "ok" for o in mine) / len(mine))
    metrics["peak_rss_mb"] = warm["peak_rss_mb"]
    notes["peak_rss_mb"] = "ru_maxrss of the warm loop process"
    metrics["ok_frac"] = statistics.mean(ok_shares)
    notes["ok_frac"] = "mean over pathways of " + ", ".join(
        f"{tag} {share:.3g}" for tag, share in zip(wl.pathways, ok_shares)
    )
    every = ops + cold
    failed = sum(o["status"] != "ok" for o in every)
    metrics["failed_frac"] = failed / len(every)
    notes["failed_frac"] = f"{failed} of {len(every)} operations, cold ones included"
    return metrics, notes


def verdict_lines(wl, warm, cold):
    marks = {"ok": ".", "wrong": "F", "error": "E"}
    lines = []
    if cold:
        lines.append("verdicts cold 1A: " + "".join(marks[c["status"]] for c in cold))
    for variant in ("cli", "traced"):
        for tag in wl.pathways:
            ops = [o for o in warm["ops"] if o["tag"] == tag and o["variant"] == variant]
            if not ops:
                continue
            lines.append(f"verdicts {variant} {tag}: " + "".join(marks[o["status"]] for o in ops))
            reasons = {}
            for o in ops:
                if o["status"] != "ok":
                    reasons[o["detail"]] = reasons.get(o["detail"], 0) + 1
            good = [o["detail"] for o in ops if o["status"] == "ok"]
            if good:
                lines.append(f"  ok, last: {good[-1]}")
            for detail, count in reasons.items():
                lines.append(f"  failed x{count}: {detail}")
    for c in warm["cross_checks"]:
        lines.append(f"cross-check {c['tag']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    return lines


def trace_lines(wl, warm):
    lines = []
    for tag in wl.pathways:
        cov = warm["coverage"].get(tag)
        if cov is None:
            continue
        self_s = cov["wall_s"] - cov["covered_s"]
        lines.append(
            f"trace {tag}: traced/untraced time {warm['overhead'][tag]:+.1%}; "
            f"medians: layer spans {cov['covered_s']:.4f} s + cli.self_s {self_s:.4f} s "
            f"= traced wall {cov['wall_s']:.4f} s, coverage {cov['covered_s'] / cov['wall_s']:.1%}"
        )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "csdmd", "cli.py")):
        print(f"csdmd sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    wl = WORKLOADS[args.workload]
    out_dir = os.path.join(ROOT, ".bench_out")
    work = os.path.join(ROOT, ".bench_work", f"{wl.name}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    os.makedirs(out_dir, exist_ok=True)
    label = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    cap_address_space()
    runner = Runner(args, work)
    try:
        setup = runner.phase("setup", min_reps=SETUP_MIN_REPS, min_seconds=SETUP_MIN_S)
        cold = [] if args.trace else runner.cold_calls(wl)
        warm = runner.phase("warm", cold=cold,
                            spans_path=os.path.join(out_dir, f"spans-{label}.json"))
    except RuntimeError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    cold = warm["cold"]

    env = warm["environment"]
    env["seeds"] = {"workload": args.seed, "gen": setup["gen_seeds"],
                    "measurement": measurement_seed(args.seed)}
    measured = sum(o["measured"] for o in warm["ops"])
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}  "
          f"{measured} measured operations in {warm['measured_s']:.1f} s")
    print("environment: " + json.dumps(env, sort_keys=True))

    if args.trace:
        values = dict(warm["layers"])
        values["systems.generate_s"] = statistics.median(setup["generate_s"])
        notes = {}
        lines = trace_lines(wl, warm)
    else:
        values, notes = end_to_end(wl, setup, cold, warm)
        lines = []
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in values.items():
        unit = units.get(name, "s" if name.endswith("_s") else "")
        print(f"{name:36s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    for line in lines + verdict_lines(wl, warm, cold):
        print(line)

    ops = warm["ops"]
    attempted = len(ops) + len(cold)
    failed = sum(o["status"] != "ok" for o in ops) + sum(c["status"] != "ok" for c in cold)
    correct = all(o["status"] != "wrong" for o in ops + cold) and all(
        c["ok"] for c in warm["cross_checks"]
    )
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "metrics": values, "notes": notes,
              "correct": correct, "attempted": attempted, "failed": failed,
              "setup": setup, "ops": ops, "cold": cold,
              "cross_checks": warm["cross_checks"]}
    with open(os.path.join(out_dir, f"result-{label}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
