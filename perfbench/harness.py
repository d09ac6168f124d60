"""Timing loop, speed probe, percentiles, memory and child-process
helpers.

The host this benchmark was built on drifts in speed by up to a third
over seconds and minutes (see README.md, "Noise and bounds").  To keep
that drift out of the figures, a fixed pure-Python loop that does not
touch the library (the probe) is timed every PROBE_EVERY_S while the
operations run, and every time of the run is scaled by PROBE_REF_S /
(the median probe time).  A reported time is thus the time on a host
where the probe takes PROBE_REF_S; the raw figures are printed beside
them.
"""

import math
import os
import resource
import statistics
import subprocess
import time

# Percentiles the tail may be reported at, lowest first.
TAIL_LADDER = (75, 80, 90, 95, 99, 99.9, 99.99)
TAIL_BEYOND = 10
# a round figure near the probe's time (2-3 ms) on the 2-CPU x86_64 VM
# the baseline was recorded on
PROBE_REF_S = 0.003
PROBE_EVERY_S = 0.25


def probe():
    """Seconds the fixed loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i % 7
    return time.perf_counter() - start


def speed_factor(probe_times):
    """Scale from measured seconds to seconds at the reference speed."""
    return PROBE_REF_S / statistics.median(probe_times)


def run_ops(op, items):
    """Closed loop, one client: each item is run after the previous one
    returns.  An exception is recorded as the item's result.  Returns
    the results, each operation's latency in seconds and the probe
    times taken between operations."""
    results, latencies, probes = [], [], []
    clock = time.perf_counter
    due = clock()
    for item in items:
        if clock() >= due:
            probes.append(probe())
            due = clock() + PROBE_EVERY_S
        start = clock()
        try:
            result = op(item)
        except Exception as exc:  # counted as a failed operation
            result = ("error", f"{type(exc).__name__}: {exc}")
        latencies.append(clock() - start)
        results.append(result)
    probes.append(probe())
    return results, latencies, probes


def nearest_rank(sorted_values, pct):
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return rank, sorted_values[rank - 1]


def tail(latencies):
    """(percentile, samples beyond it, value) at the highest ladder
    percentile with at least TAIL_BEYOND samples above its rank, or
    None when there are too few samples."""
    ordered = sorted(latencies)
    best = None
    for pct in TAIL_LADDER:
        rank, value = nearest_rank(ordered, pct)
        beyond = len(ordered) - rank
        if beyond >= TAIL_BEYOND:
            best = (pct, beyond, value)
    return best


def summarize(latencies, probe_times):
    """End-to-end timing metrics of one timed phase at the reference
    speed, and the same figures as measured under ``raw``."""
    factor = speed_factor(probe_times)
    out = _timings([latency * factor for latency in latencies])
    out["raw"] = dict(_timings(latencies), speed_factor=factor)
    return out


def _timings(latencies):
    total = sum(latencies)
    out = {"ops": len(latencies),
           "ops_per_s": len(latencies) / total,
           "op_p50_ms": statistics.median(latencies) * 1000,
           "timed_s": total}
    found = tail(latencies)
    if found:
        pct, beyond, value = found
        out.update(op_tail_ms=value * 1000, tail_percentile=pct,
                   tail_beyond=beyond)
    return out


def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_child(argv, cwd, env, stderr_path):
    """Run one process to completion.  Returns (exit code, stdout bytes,
    seconds, peak RSS of that process in MB)."""
    start = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, elapsed, usage.ru_maxrss / 1024


def scaled(count, seconds, design_seconds, minimum=1):
    """``count`` at the design length, scaled to a run of ``seconds``."""
    return max(minimum, round(count * seconds / design_seconds))
