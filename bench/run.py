"""Benchmark of the cache simulator, end to end and layer by layer.

    python3 bench/run.py --workload matched-k100 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark writes the workload's inputs
from `--seed`, computes what the program must answer with the references in
`reference.py`, then runs passes for `--seconds` seconds. Each pass is a fresh
worker process (`worker.py`) with the package from `src/` on its path, one
thread, and no optimum cache or output directory from the environment. Every
pass's outputs are checked; the pass must also repeat the first pass's
outputs exactly.

With `--trace 0` it reports the end-to-end metrics, medians over the passes:
simulated requests per second of pass time, set-up time (interpreter start,
`import cachesim` and building the traces), and peak resident memory. The
two times are scaled to a host of fixed speed: each pass times a fixed piece
of pure-Python work around itself (see `worker.py`), and a time t measured
while that work took c seconds is reported as t * NOMINAL_CALIBRATION_S / c.
On a shared machine whose speed drifts by tens of percent from minute to
minute, this keeps the figures of one commit comparable with another's; the
unscaled medians are printed as well. With
`--trace 1` it alternates plain and traced passes and reports the per-layer
metrics of the traced ones (see `tracer.py`), plus the tracing overhead; the
full trace goes to `.bench_out/`. The last line of output is one JSON object.
The exit code is 1 when a check fails and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("matched-k100", "adversarial-k100", "envelope-small-k", "cli-checkins")
MIN_PASSES = 3
PASS_TIMEOUT_S = 60
STOP_AFTER_S = 120  # no new pass after this, so that a run ends within 180 s
# Calibration time of the machine the README's figures come from.
NOMINAL_CALIBRATION_S = 0.015

END_TO_END = {"requests_per_s": "requests/s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Per-layer metrics every workload measures; BENCHMARK.json lists these.
PER_LAYER = {
    "cli.import_s": "s",
    "trace.build_ns_per_request": "ns",
    "trace.ingest_ns_per_line": "ns",
    "oracle.opt_ns_per_request": "ns",
    "oracle.belady_runs": "count",
    "predict.bundle_ns_per_request": "ns",
    "predict.fitf_queries": "count",
    "predict.measure_error_ns_per_request": "ns",
    "policy.replay_self_ns_per_request": "ns",
    "policy.victim_us_per_eviction": "us",
    "policy.hits": "count",
    "policy.misses": "count",
    "policy.evictions": "count",
    "policy.simulate_p50_ms": "ms",
    "policy.simulate_p99_ms": "ms",
    "guard.hook_ns_per_request": "ns",
    "guard.victim_self_us_per_eviction": "us",
    "guard.redirects": "count",
    "guard.phases": "count",
    "guard.max_guarded": "count",
    "guard.phase_report_us_per_run": "us",
    "bench.trace_overhead_x": "ratio",
}
# Figures of layers that only some workloads use; printed, not in the JSON.
PER_LAYER_WHERE_USED = {
    "oracle.labels_ns_per_request": "ns",
    "predict.fitf_query_us": "us",
    "guard.matched_overhead_x": "ratio",
    "harness.self_s": "s",
    "harness.csv_ms": "ms",
}


class PassFailed(RuntimeError):
    pass


def _env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("CACHESIM_CACHE_DIR", "CACHESIM_OUT_DIR")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_pass(args, indir: Path, outdir: Path, trace_file: Path | None) -> dict:
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--inputs", str(indir), "--out", str(outdir)]
    if trace_file is not None:
        cmd += ["--traced", str(trace_file)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass did not end within {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise PassFailed(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def _outcome(op: dict) -> dict:
    return {k: v for k, v in op.items() if k not in ("replay_s", "stderr")}


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(workload: str, plain: list[dict], traced: list[dict]) -> dict:
    out = {}
    for name in list(PER_LAYER) + list(PER_LAYER_WHERE_USED):
        values = [t["layers"][name] for t in traced if t["layers"].get(name) is not None]
        unit = PER_LAYER.get(name) or PER_LAYER_WHERE_USED[name]
        out[name] = (values[0] if unit == "count" else _median(values)) if values else None
    out["cli.import_s"] = _median([r["import_s"] for r in plain + traced])
    out["bench.trace_overhead_x"] = (_median([t["pass_s"] for t in traced])
                                     / _median([r["pass_s"] for r in plain]))
    if workload == "matched-k100":
        out["guard.matched_overhead_x"] = _median(
            [r["ops"][1]["replay_s"] / r["ops"][0]["replay_s"] for r in plain])
    return out


def end_to_end(plain: list[dict]) -> dict:
    def scale(r):  # > 1 when the host ran slower than the nominal one
        return r["calibration_s"] / NOMINAL_CALIBRATION_S

    rates = [r["requests"] / r["pass_s"] for r in plain]
    metrics = {
        "requests_per_s": _median([x * scale(r) for x, r in zip(rates, plain)]),
        "setup_s": _median([r["setup_s"] / scale(r) for r in plain]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
    }
    unscaled = {"requests_per_s": _median(rates),
                "setup_s": _median([r["setup_s"] for r in plain])}
    for name, value in metrics.items():
        raw = f" (unscaled {unscaled[name]:.6g})" if name in unscaled else ""
        print(f"  {name} = {value:.6g} {END_TO_END[name]}{raw}")
    print(f"  calibration = {_median([r['calibration_s'] for r in plain]):.4g} s "
          f"(nominal {NOMINAL_CALIBRATION_S} s)")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cachesim" / "__init__.py").is_file():
        print(f"error: no cachesim package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        return measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()


def measure(args, tmp: Path) -> int:
    indir, outdir = tmp / "in", tmp / "out"
    indir.mkdir()
    exp = checks.expect(args.workload, inputs.generate(args.workload, args.seed, indir),
                        args.seed)
    expected_ops = inputs.ops_per_pass(args.workload)
    plain: list[dict] = []
    traced: list[dict] = []
    problems: list[str] = []
    errors: list[str] = []
    attempted = failed = 0
    first: list[dict] | None = None
    first_counts: dict | None = None
    index = 0
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if elapsed >= STOP_AFTER_S or (
                elapsed >= args.seconds and (len(plain) >= MIN_PASSES or errors)):
            break
        for with_trace in ((False, True) if args.trace else (False,)):
            index += 1
            trace_file = tmp / f"trace-{index}.json" if with_trace else None
            attempted += expected_ops
            try:
                result = run_pass(args, indir, outdir, trace_file)
            except PassFailed as exc:
                failed += expected_ops
                errors.append(f"pass {index}: {exc}")
                continue
            ops = result["ops"]
            failed += sum(map(checks.failed, ops))
            errors += [f"pass {index}: {op.get('error') or op.get('stderr')}"
                       for op in ops if checks.failed(op)]
            problems += [f"pass {index}: {p}"
                         for p in checks.check(args.workload, exp, ops, outdir)]
            outcome = [_outcome(op) for op in ops]
            if first is None:
                first = outcome
            elif outcome != first:
                problems.append(f"pass {index}: operations gave other results than pass 1")
            if with_trace:
                counts = {k: v for k, v in result["layers"].items()
                          if PER_LAYER.get(k) == "count"}
                if first_counts is None:
                    first_counts = counts
                elif counts != first_counts:
                    problems.append(f"pass {index}: layer counts {counts} != {first_counts}")
                result["trace_file"] = trace_file
                traced.append(result)
            else:
                plain.append(result)

    for line in errors[:10] + problems[:20]:
        print(line, file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} passes={len(plain)} "
          f"traced_passes={len(traced)} attempted={attempted} failed={failed} "
          f"checks={'ok' if not problems else f'{len(problems)} failed'}")
    metrics = {}
    if args.trace and traced and plain:
        layers = layer_metrics(args.workload, plain, traced)
        for name, value in layers.items():
            unit = PER_LAYER.get(name) or PER_LAYER_WHERE_USED[name]
            if value is not None:
                print(f"  {name} = {value:.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        write_trace(args, plain, traced)
    elif not args.trace and plain:
        metrics = end_to_end(plain)
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in metrics.items()}
    correct = not problems and bool(metrics) and all(
        m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def write_trace(args, plain: list[dict], traced: list[dict]) -> None:
    """Keep the spans and aggregates of every traced pass under .bench_out/."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    passes = [{"pass_s": t["pass_s"], "layers": t["layers"],
               "trace": json.loads(t["trace_file"].read_text())} for t in traced]
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "plain_pass_s": [r["pass_s"] for r in plain],
                                "traced_passes": passes}))
    print(f"  trace written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
