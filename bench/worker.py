"""One benchmark worker: set up a workload, then run its rounds.

Usage (run.py starts it; it is not meant to be run by hand):

    python3 bench/worker.py --workload NAME --seed N --rounds R
                            [--max-seconds S] [--setup-only] [--trace SPANS_PATH]

The worker imports hgpoly from the checkout's `src`, builds the job list
from the seed (set-up), then runs every job of every round one after the
other, one job in flight.  Outputs of the first round are checked against
the independent oracle; later rounds must reproduce them byte for byte.
The last line of stdout is one JSON object with the raw measurements.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

# the benchmark's own modules, beside this file
import oracle  # noqa: E402
import workloads  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")


def import_hgpoly():
    """Import hgpoly from this checkout only; refuse any other copy."""
    sys.path.insert(0, SRC)
    import hgpoly
    import hgpoly.cli
    import hgpoly.corpus

    where = os.path.dirname(os.path.abspath(hgpoly.__file__))
    if where != os.path.join(SRC, "hgpoly"):
        raise SystemExit(f"hgpoly was imported from {where}, not from {SRC}")
    return hgpoly


PROBE_EVERY_S = 0.2
PROBE_SETUP_REPEATS = 5


def host_probe() -> float:
    """Time a fixed piece of the benchmark's own pure-Python work (the
    face recursion of the complete graph on six atoms).  No hgpoly code
    runs in it, and the cyclic collector is off while it runs so that it
    never pays for garbage the jobs left; its time follows only the
    speed of the host."""
    g = oracle.Graph("abcdef", [[a] for a in "abcdef"]
                     + [[a, b] for i, a in enumerate("abcdef") for b in "abcdef"[i + 1:]])
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        g.f_vector()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--max-seconds", type=float, default=float("inf"),
                   help="start no new round after this many seconds")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", default=None, help="write spans to this path")
    args = p.parse_args()

    tracer = None
    hg = import_hgpoly()
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.on = True
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        jobs = workloads.build_jobs(args.workload, hg, args.seed, workdir)
        setup_s = time.perf_counter() - STARTED
        result = {"setup_s": setup_s}
        if args.setup_only:
            result["probes"] = [(0.0, host_probe()) for _ in range(PROBE_SETUP_REPEATS)]
        else:
            result.update(run_rounds(jobs, args.rounds, args.max_seconds, tracer))
            if tracer is not None:
                tracer.on = False
                result["trace"] = tracer.metrics()
                tracer.dump(args.trace)
        result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_rounds(jobs, rounds: int, max_seconds: float, tracer) -> dict:
    """Run whole rounds of the job list.  Returns the start and length of
    every completed job and the time and length of every host probe, in
    seconds from the start of the first round."""
    done: list[tuple[float, float]] = []
    probes: list[tuple[float, float]] = []
    round_s: list[float] = []
    digests: list[bytes] = []
    attempted = failed = 0
    correct = True
    began = last_probe = time.perf_counter()
    for r in range(rounds):
        if r and time.perf_counter() - began > max_seconds:
            break
        in_round = 0.0
        for i, job in enumerate(jobs):
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = job.run()
            except Exception:  # a refused job counts as failed, the run goes on
                failed += 1
                print(f"job {job.kind} failed:\n{traceback.format_exc()}", file=sys.stderr)
                out = None
            else:
                length = time.perf_counter() - t0
                done.append((t0 - began, length))
                in_round += length
            digest = hashlib.blake2b(out.encode() if out is not None else b"").digest()
            if r == 0:
                digests.append(digest)
                if out is not None:
                    correct &= check(job, out, tracer)
            elif digest != digests[i]:
                correct = False
                print(f"job {job.kind}: output differs from round 1", file=sys.stderr)
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                last_probe = time.perf_counter()
                probes.append((last_probe - began, host_probe()))
        round_s.append(in_round)
    if not probes:
        probes.append((time.perf_counter() - began, host_probe()))
    return {"jobs": done, "probes": probes, "round_s": round_s, "attempted": attempted,
            "failed": failed, "correct": correct}


def check(job, out: str, tracer) -> bool:
    """Run a job's check with tracing paused, so checks add no spans."""
    if tracer is not None:
        tracer.on = False
    try:
        job.check(out)
    except Exception as exc:  # a malformed output fails its check
        print(f"check of {job.kind} failed: {exc!r}", file=sys.stderr)
        return False
    finally:
        if tracer is not None:
            tracer.on = True
    return True


if __name__ == "__main__":
    sys.exit(main())
