"""Fast self-check of the benchmark harness.

    python3 perfbench/selfcheck.py [--seconds S]

Runs every workload untraced and traced (the traced run twice, same
seed) at a tiny size, and checks that:
  * every end-to-end metric of BENCHMARK.json is reported with its unit
    (``op_tail_ms`` only where the run has enough samples for a tail),
    no operation failed and the machine facts are recorded;
  * every per-layer metric is reported with its unit, and is non-zero on
    each workload that reaches its layer;
  * the exact counts repeat between the two traced runs;
  * each ``certify`` call sweeps the grid 3 times.
At the full size (``--seconds 25``, BENCHMARK.json's run length) it also
checks the 126,275 candidates examined in the large exhausted space.
Exits non-zero on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402

EXACT_SUFFIXES = (".calls", ".yielded", ".examined", ".dag_nodes",
                  ".calls_per_certify", "_per_candidate", "_per_query")


def run(workload, seconds, trace, seed=1):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    facts = json.loads(lines[0][len("facts "):])
    counts = json.loads(lines[1][len("counts "):])
    return facts, counts, json.loads(lines[-1])


def check(condition, message):
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=1)
    seconds = parser.parse_args().seconds
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    check(set(layers.REACH) == {m["name"] for m in spec["per_layer"]},
          "layers.REACH and BENCHMARK.json name different per-layer metrics")
    full = seconds >= spec["run_seconds"]
    for workload in names:
        facts, counts, result = run(workload, seconds, 0)
        check(result["correct"] and result["failed"] == 0
              and facts["fail_ratio"] == 0, f"{workload}: failures")
        check(result["attempted"] >= 1, f"{workload}: nothing attempted")
        for key in ("nproc", "python", "platform", "seed", "ops"):
            check(key in facts, f"{workload}: fact {key} missing")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name == "op_tail_ms" and facts["tail_percentile"] is None:
                check(facts["ops"] < 40, f"{workload}: no tail at "
                      f"{facts['ops']} operations")
                continue
            got = result["metrics"].get(name)
            check(got is not None and got["unit"] == metric["unit"]
                  and got["value"] > 0, f"{workload}: {name} is {got}")

        traced = [run(workload, seconds, 1) for _ in range(2)]
        first = traced[0][2]
        check(first["correct"] and first["failed"] == 0,
              f"{workload}: traced run failed")
        for metric in spec["per_layer"]:
            name = metric["name"]
            got = first["metrics"].get(name)
            check(got is not None and got["unit"] == metric["unit"],
                  f"{workload}: {name} is {got}")
            if workload in layers.REACH[name]:
                check(got["value"] > 0, f"{workload}: {name} is 0")
            if name.endswith(EXACT_SUFFIXES):
                again = traced[1][2]["metrics"][name]["value"]
                check(again == got["value"], f"{workload}: {name} "
                      f"{got['value']} then {again}")
        check(traced[0][1] == traced[1][1], f"{workload}: counts differ")

        if workload == "cli-batch":
            per = first["metrics"]["connectives.grid_max_error.calls_per_certify"]
            check(per["value"] == 3, f"grid sweeps per certify: {per}")
        if full and workload == "omit-search":
            check(counts["examined_by_problem"]["big-pq"] == [126275],
                  f"omit-search {counts}")
        print(f"selfcheck ok: {workload}", flush=True)


if __name__ == "__main__":
    main()
