"""Benchmark of hgpoly: three closed-loop workloads, one job in flight.

    python3 bench/run.py --workload {lattice,order,words} --seed N
                         --seconds S --trace {0,1}

Run from the root of a checkout; hgpoly is imported from its `src`.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

--trace 0 measures the end-to-end metrics with tracing off: set-up time
(the median over several fresh interpreters), the median and 90th
percentile of job wall time, jobs per second of job time, and the peak
RSS of the worker process.  Times are given at the reference host's
speed (see PROBE_REF_S).

--trace 1 runs one untraced round and one traced round.  It reports,
per traced round (set-up included), the calls and self time of every
layer function in tracer.LAYERS, the faces enumerated, and the tracing
overhead: traced minus untraced job time.  Spans are written to
bench/out/spans-<workload>.tsv.gz, replacing the previous run's.

A run does whole rounds of one fixed job list.  The number of rounds is
fixed by --seconds and the round time measured on the reference host
(ROUND_S), so every run with the same arguments does the same work; a
much slower program stops starting rounds after twice --seconds.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH, "worker.py")
OUT = os.path.join(BENCH, "out")

# Untraced job time of one round on the reference host (2-core Xeon at
# 2.0 GHz, Python 3.11), used only to turn --seconds into rounds.
ROUND_S = {"lattice": 10.8, "order": 28.0, "words": 4.0}
# Typical time of worker.host_probe on the reference host.  That host
# switches, for seconds to minutes at a time, between states in which
# the probe takes about 2.0, 2.7 or 3.4 ms, and jobs mostly slow down or
# speed up with it (by up to 40%).  So each time a worker measures is
# multiplied by PROBE_REF_S / p, p being the median of the PROBE_WINDOW
# probes taken nearest to it.  The worker runs the probe between jobs
# every 0.2 s; the measured values go to stderr.
PROBE_REF_S = 0.0027
PROBE_WINDOW = 5
SETUP_SAMPLES = 3  # fresh interpreters timed per run, the main worker included
DEADLINE_S = 170.0


class RunFailed(Exception):
    pass


def worker(args: list[str], deadline: float) -> dict:
    """Run one worker process to its end and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], stdout=subprocess.PIPE,
                              timeout=remaining, text=True)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker {args} did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker {args} exited {proc.returncode}")
    return json.loads(lines[-1])


def host_scale(probes: list, at: float) -> float:
    """Factor that turns seconds measured at time `at` into seconds at the
    reference host's speed, from the probes (time, length) nearest `at`."""
    i = bisect.bisect_left(probes, (at,))
    lo = max(0, min(i - PROBE_WINDOW // 2, len(probes) - PROBE_WINDOW))
    return PROBE_REF_S / statistics.median(p[1] for p in probes[lo:lo + PROBE_WINDOW])


def scaled_jobs(result: dict) -> list[float]:
    probes = sorted(map(tuple, result["probes"]))
    return [length * host_scale(probes, start + length / 2) for start, length in result["jobs"]]


def run_scale(result: dict) -> float:
    """One factor for a whole worker, from its median probe."""
    return PROBE_REF_S / statistics.median(p[1] for p in result["probes"])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [worker(common + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
    rounds = max(1, round(seconds / ROUND_S[workload]))
    main = worker(common + ["--rounds", str(rounds), "--max-seconds", str(2 * seconds)],
                  deadline)
    setups.append(main)
    measured = [length for _, length in main["jobs"]]
    if len(measured) < 2:
        raise RunFailed("too few jobs completed for percentiles")
    times = scaled_jobs(main)
    print(f"host scale {run_scale(main):.4f}: measured job p50 {statistics.median(measured):.5f} s, "
          f"jobs per s {len(measured) / sum(measured):.4f}, setup "
          f"{statistics.median(s['setup_s'] for s in setups):.4f} s", file=sys.stderr)
    return {
        "correct": main["correct"],
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {
            "setup_s": metric(statistics.median(s["setup_s"] * run_scale(s) for s in setups), "s"),
            "job_p50_s": metric(statistics.median(times), "s"),
            "job_p90_s": metric(statistics.quantiles(times, n=10)[8], "s"),
            "jobs_per_s": metric(len(times) / sum(times), "1/s"),
            "peak_rss_mib": metric(main["maxrss_kib"] / 1024, "MiB"),
        },
    }


def traced(workload: str, seed: int, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed), "--rounds", "1"]
    plain = worker(common, deadline)
    spans = os.path.join(OUT, f"spans-{workload}.tsv.gz")
    os.makedirs(OUT, exist_ok=True)
    traced_run = worker(common + ["--trace", spans], deadline)
    k = run_scale(traced_run)
    metrics = {}
    for name, value in traced_run["trace"].items():
        if name.endswith("_s"):
            metrics[name] = metric(value * k, "s")
        else:
            metrics[name] = metric(value, "count")
    overhead = traced_run["round_s"][0] * k - plain["round_s"][0] * run_scale(plain)
    metrics["trace.overhead_s"] = metric(overhead, "s")
    return {
        "correct": plain["correct"] and traced_run["correct"],
        "attempted": plain["attempted"] + traced_run["attempted"],
        "failed": plain["failed"] + traced_run["failed"],
        "metrics": metrics,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be positive")
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            result = traced(args.workload, args.seed, deadline)
        else:
            result = untraced(args.workload, args.seed, args.seconds, deadline)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
