"""Benchmark for the pavelka library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: omit-search, type-queries,
cli-batch (see perfbench/README.md).

The command starts worker processes one after another.  Each worker
imports the library from ``src``, makes the seeded inputs, builds what
the workload needs and does one untimed warm-up pass, then reports
READY; ``setup_s`` is the median time from starting a worker to READY
over several workers, half of them started before the timed worker and
half after it.  The timed worker runs the timed phase, checks every
result against an independent reference (outside the timed phase) and
reports.  Times are scaled to the reference speed of the host (see
harness.py); the ``facts`` line also gives them as measured.  With ``--trace 1`` a single worker instead runs a share of
the batch untraced, then twice under the tracer, and reports per-layer
metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import harness
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# worker processes whose set-up time is measured, per workload
SETUPS = {"omit-search": 21, "type-queries": 21, "cli-batch": 5}
WORKLOAD_NAMES = tuple(SETUPS)
# a fixed hash seed keeps set and dict layouts, and so timings, the same
# from one worker to the next
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "setup", "worker"),
                        default="main", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# worker side


def worker(args):
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import workloads

    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.seconds)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.role == "setup":
            return 0
        if args.trace:
            report = traced_report(workload)
        else:
            report = timed_report(workload)
        print("RESULT " + json.dumps(report), flush=True)
    finally:
        workload.cleanup()
    return 0


def timed_report(workload):
    items = workload.batch()
    results, latencies, probes = harness.run_ops(workload.op, items)
    summary = harness.summarize(latencies, probes)
    if workload.name == "cli-batch":
        summary["peak_rss_mb"] = max(workload.child_rss)
        summary["interpreter_floor_ms"] = workload.interpreter_floor_ms()
    else:
        summary["peak_rss_mb"] = harness.self_peak_rss_mb()
    failures = workload.verify(items, results)
    return {"summary": summary, "attempted": len(items),
            "failures": failures, "counts": workload.counts(items, results)}


def traced_report(workload):
    """Untraced pass, then two traced passes over the same items."""
    import tracer as tracing

    items = workload.trace_batch()
    results, latencies, _ = harness.run_ops(workload.op, items)
    untraced_wall = sum(latencies)
    failures = workload.verify(items, results)
    snaps, walls = [], []
    for _ in range(2):
        if workload.name == "cli-batch":
            results, wall, snap = workload.traced_pass(items)
        else:
            tracer = tracing.Tracer()
            missing = tracer.install()
            if missing:
                print(f"perfbench: not found, not traced: {missing}",
                      file=sys.stderr)
            try:
                results, latencies, _ = harness.run_ops(workload.op, items)
            finally:
                tracer.uninstall()
            wall = sum(latencies)
            snap = tracer.snapshot()
        failures += workload.verify(items, results)
        snaps.append(snap)
        walls.append(wall)
    exact = [{k: v for k, v in s.items() if k not in ("self_s", "import_ms")}
             for s in snaps]
    if exact[0] != exact[1]:
        failures.append("trace counts differ between two identical passes")
    extra = {"trace_overhead_ratio": walls[0] / untraced_wall,
             "queries": len(items)}
    if workload.name == "cli-batch":
        extra.update(interpreter_floor_ms=workload.interpreter_floor_ms(),
                     import_ms=snaps[0]["import_ms"],
                     certify_invocations=snaps[0]["certify_invocations"],
                     certify_grid_sweeps=snaps[0]["certify_grid_sweeps"])
    return {"snapshot": snaps[0], "extra": extra, "attempted": 3 * len(items),
            "failures": failures, "counts": workload.counts(items, results)}


# ---------------------------------------------------------------------------
# coordinator side


def spawn(args, role):
    """Start a worker, after timing the speed probe a few times; returns
    (seconds until READY, probe times, RESULT payload)."""
    probes = [harness.probe() for _ in range(5)]
    argv = [sys.executable, os.path.abspath(__file__), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--trace", str(args.trace), "--role", role]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=WORKER_ENV,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            text=True)
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready is None:
        raise SystemExit(f"perfbench: {role} worker failed (exit {code})")
    return ready, probes, result


def main(argv=None):
    args = parse_args(argv)
    if args.role != "main":
        return worker(args)
    for needed in ("src/pavelka/__init__.py", "tests/naive.py",
                   "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}; run from a "
                  "checkout of the repository", file=sys.stderr)
            return 2
    spec = load_spec()
    others = 0 if args.trace else SETUPS[args.workload] - 1
    spawned = [spawn(args, "setup") for _ in range(others // 2)]
    spawned.append(spawn(args, "worker"))
    report = spawned[-1][2]
    spawned += [spawn(args, "setup") for _ in range(others - others // 2)]
    setups = [ready for ready, _, _ in spawned]
    setup_factor = harness.speed_factor(
        [t for _, probes, _ in spawned for t in probes])
    failed = min(len(report["failures"]), report["attempted"])
    facts = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "nproc": os.cpu_count(), "python": platform.python_version(),
             "platform": platform.platform(), "setup_runs": setups}
    if args.trace:
        metrics = layers.metrics(args.workload, report, spec["per_layer"])
    else:
        summary = report["summary"]
        values = {"setup_s": statistics.median(setups) * setup_factor,
                  **summary}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"] if m["name"] in values}
        raw = dict(summary["raw"], setup_s=statistics.median(setups),
                   setup_speed_factor=setup_factor)
        facts.update(ops=summary["ops"], timed_s=summary["timed_s"],
                     tail_percentile=summary.get("tail_percentile"),
                     tail_beyond=summary.get("tail_beyond"),
                     fail_ratio=failed / report["attempted"], raw=raw)
        if "interpreter_floor_ms" in summary:
            facts["interpreter_floor_ms"] = summary["interpreter_floor_ms"]
    for message in report["failures"][:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print("facts " + json.dumps(facts, sort_keys=True))
    print("counts " + json.dumps(report["counts"], sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"correct": not report["failures"],
                      "attempted": report["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
