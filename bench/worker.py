"""One pass of one workload, in a process of its own.

Started by `run.py` with the package on PYTHONPATH. It imports the package,
optionally wraps its layers in a `Tracer`, builds the workload's traces, runs
one timed pass and prints one JSON line: when set-up ended (on the system-wide
monotonic clock, so the parent can add interpreter start-up), the pass time,
the calibration time, the simulated requests, peak resident memory, one record
per operation and, when traced, the per-layer figures.

The calibration is a fixed piece of pure-Python work, shaped like the
simulator's (dictionary updates and a scan for the oldest of 100 entries on
each miss). It runs just before the pass, between operations at most every
CALIBRATION_INTERVAL_S seconds, and just after the pass; its time is not part
of the pass time. It shares no code with the package, so a change to the
package cannot move it; what moves it is how fast the host runs Python at
that moment.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import time
from pathlib import Path

CALIBRATION_STEPS = 4_000
CALIBRATION_INTERVAL_S = 0.15


class Calibration:
    """Runs the calibration work when called, if it is due or `force` is set."""

    def __init__(self):
        self.seconds = 0.0
        self.chunks = 0
        self.due = 0.0

    def __call__(self, force: bool = False) -> None:
        if not force and time.perf_counter() < self.due:
            return
        rng = random.Random(0)
        cache: dict[int, int] = {}
        start = time.perf_counter()
        for i in range(CALIBRATION_STEPS):
            page = rng.randrange(300)
            if page not in cache and len(cache) >= 100:
                del cache[min(cache, key=cache.__getitem__)]
            cache[page] = i
        end = time.perf_counter()
        self.seconds += end - start
        self.chunks += 1
        self.due = end + CALIBRATION_INTERVAL_S


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--traced", type=Path, help="write the trace to this file")
    args = parser.parse_args()

    start = time.perf_counter()
    import cachesim
    import cachesim.cli  # noqa: F401 - part of what a command-line user loads
    import_s = time.perf_counter() - start

    import workloads
    tracer = None
    if args.traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(cachesim)
    setup, run = workloads.WORKLOADS[args.workload]
    state = setup(cachesim, args.inputs, args.seed)
    ready = time.monotonic()

    calibration = Calibration()
    calibration(force=True)
    before = calibration.seconds
    start = time.perf_counter()
    requests, ops = run(cachesim, state, args.seed, args.out, calibration)
    pass_s = time.perf_counter() - start - (calibration.seconds - before)
    calibration(force=True)

    result = {
        "ready": ready,
        "import_s": import_s,
        "pass_s": pass_s,
        "calibration_s": calibration.seconds / calibration.chunks,
        "requests": requests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.dump(args.traced)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
