"""What one pass of each workload does inside the worker process.

Each workload has a `setup`, which builds what a user loads once (the
traces), and a `run`, one timed pass. `run` calls `tick` between operations,
which lets the worker gauge the host's speed, and returns the number of
simulated requests and one record per operation: an operation is one
`simulate` replay, or in `cli-checkins` one command-line invocation. An operation that raises is
recorded with its error and counted as failed; the others go on. The package
is passed in as `cs`, so importing this module does not import it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
from pathlib import Path
from time import perf_counter

import inputs


def _replay(cs, spec, trace, k, bundle, opt, seed=0) -> dict:
    policy = cs.build_policy(spec)
    start = perf_counter()
    result = cs.simulate(policy, trace, k, bundle, seed=seed, opt_misses=opt)
    op = {"spec": spec, "misses": result.misses, "opt": result.opt_misses,
          "replay_s": perf_counter() - start}
    if spec.startswith("guard:"):
        report = cs.phase_report(result)
        op.update(
            violations=len(report.violations),
            counted=sum(ph.n_q + ph.o_q for ph in report.phases),
            phases=len(report.phases),
            redirects=policy.guard_events,
            max_guarded=policy.max_guarded,
        )
    return op


def _attempt(ops: list, tick, fn, **tags) -> None:
    tick()
    try:
        op = fn()
    except Exception as exc:  # one failed operation must not hide the others
        op = {"error": f"{type(exc).__name__}: {exc}"}
    op.update(tags)
    ops.append(op)


def _read_plain(cs, path: Path):
    return cs.parse_plain_trace(path.read_text())


# matched-k100 and adversarial-k100 ----------------------------------------

def setup_uniform(cs, indir: Path, seed: int):
    count = len(list(indir.glob("uniform-*.txt")))
    return [_read_plain(cs, indir / f"uniform-{i}.txt") for i in range(count)]


def run_matched(cs, traces, seed: int, outdir: Path, tick):
    k = inputs.K_LARGE
    ops: list[dict] = []
    for idx, trace in enumerate(traces):
        opt = cs.opt_cost(trace, k)
        tick()
        bundle = cs.perfect_nrt(trace)
        eta_t = cs.measure_error(bundle, trace, k).eta_t
        for spec in ("blind_oracle", "guard:blind_oracle"):
            _attempt(ops, tick, lambda: _replay(cs, spec, trace, k, bundle, opt),
                     trace=idx, eta_t=eta_t)
    return 2 * sum(map(len, traces)), ops


def run_adversarial(cs, traces, seed: int, outdir: Path, tick):
    k = inputs.K_LARGE
    ops: list[dict] = []
    for idx, trace in enumerate(traces):
        opt = cs.opt_cost(trace, k)
        for pred, bundle in (
            ("inverted", cs.inverted_nrt(trace)),
            ("sigma", cs.synthetic_nrt(trace, inputs.SIGMA_ADVERSARIAL, seed=seed)),
        ):
            eta_t = cs.measure_error(bundle, trace, k).eta_t
            for spec in ("blind_oracle", "guard:blind_oracle"):
                _attempt(ops, tick, lambda: _replay(cs, spec, trace, k, bundle, opt),
                         trace=idx, pred=pred, eta_t=eta_t)
    return 4 * sum(map(len, traces)), ops


# envelope-small-k ----------------------------------------------------------

ENVELOPE_REGIMES = ("guard:blind_oracle", "guard:lrb", "guard:fitf")


def setup_envelope(cs, indir: Path, seed: int):
    return [(k, _read_plain(cs, indir / f"envelope-{i}-k{k}.txt"))
            for i, k in enumerate(inputs.envelope_ks())]


def run_envelope(cs, traces, seed: int, outdir: Path, tick):
    """Every trace under the three worst regimes: inverted next-request
    times, every label flipped, and a FITF oracle that errs on every query."""
    ops: list[dict] = []
    requests = 0
    for idx, (k, trace) in enumerate(traces):
        opt = cs.opt_cost(trace, k)
        shared = {"guard:blind_oracle": cs.inverted_nrt(trace),
                  "guard:lrb": cs.flip_labels(trace, k, 1.0)}
        errors = {spec: cs.measure_error(b, trace, k) for spec, b in shared.items()}
        for spec in ENVELOPE_REGIMES:
            for run_seed in range(inputs.ENVELOPE_SEEDS):
                def one():
                    bundle = shared.get(spec) or cs.noisy_fitf(trace, k, 1.0, seed=run_seed)
                    op = _replay(cs, spec, trace, k, bundle, opt, run_seed)
                    err = errors.get(spec) or cs.measure_error(bundle, trace, k)
                    op.update(eta_t=err.eta_t, eta_b=err.eta_b, eta_f=err.eta_f)
                    return op
                _attempt(ops, tick, one, trace=idx, seed=run_seed)
                requests += len(trace)
    return requests, ops


# cli-checkins --------------------------------------------------------------

def setup_cli(cs, indir: Path, seed: int):
    cli = importlib.import_module("cachesim.cli")
    config = cs.ExperimentConfig(trace=indir / "checkins.tsv", format="brightkite",
                                 k=inputs.CLI_K)
    total = sum(len(tr) for _, tr in cs.load_traces(config))
    return cli, indir / "checkins.tsv", total


def run_cli(cs, state, seed: int, outdir: Path, tick):
    cli, dump, total = state
    ops: list[dict] = []
    requests = 0
    for name, policy, pred, param, values in inputs.CLI_SWEEPS:
        argv = ["--trace", str(dump), "--format", "brightkite",
                "--k", str(inputs.CLI_K), "--policy", policy, "--pred", pred,
                "--sweep", f"{param}={','.join(values)}",
                "--seeds", str(inputs.CLI_SEEDS), "--phase-stats",
                "--out", str(outdir / f"{name}.csv")]

        def one():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv)
            return {"exit": code, "stderr": err.getvalue()[-500:]}
        _attempt(ops, tick, one, sweep=name)
        requests += total * len(values) * inputs.CLI_SEEDS
    return requests, ops


WORKLOADS = {
    "matched-k100": (setup_uniform, run_matched),
    "adversarial-k100": (setup_uniform, run_adversarial),
    "envelope-small-k": (setup_envelope, run_envelope),
    "cli-checkins": (setup_cli, run_cli),
}
