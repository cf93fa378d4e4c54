"""Layer timing from outside the package.

`Tracer.install` replaces the public entry points of `trace`, `oracle`,
`predict`, `policy`, `guard`, `harness` and `cli` with timing wrappers,
wherever the package holds a reference to them. Calls made once per run
(ingestion, trace build, optimum, bundles, replays, error measurement, phase
reports, harness and CLI entry points) become spans, each with the span that
caused it. Calls made per request or per eviction (policy hooks, victim
choice, FITF queries) only add to a count and a total, to keep the cost of
tracing down. A boundary's self time is its time minus the time of the timed
calls made inside it. Everything stays in memory until `dump`.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

SIMULATE = "policy.simulate"
# The bundle builders and readers the workloads reach.
BUNDLES = ("perfect_nrt", "synthetic_nrt", "inverted_nrt", "flip_labels", "noisy_fitf")
INGESTS = ("parse_plain_trace", "ingest_brightkite")


def _trace_len(args) -> int:
    return next(len(a.pages) for a in args if hasattr(a, "pages"))


def _lines(args) -> int:
    return args[0].count("\n")


class Tracer:
    def __init__(self):
        self.stack = [[-1, 0, ""]]  # open frames: [span id, child ns, boundary]
        self.aggs: dict[str, list[int]] = {}  # boundary -> [calls, ns, self ns, work]
        self.spans: list = []  # (boundary, parent span id, start ns, end ns, self ns)
        self.evictions = 0
        self.runs = {"hits": 0, "misses": 0, "guarded_requests": 0,
                     "redirects": 0, "phases": 0, "max_guarded": 0}
        self.simulate_ms: list[float] = []

    def _agg(self, name: str) -> list[int]:
        return self.aggs.setdefault(name, [0, 0, 0, 0])

    def span(self, fn, name, work=None, after=None):
        """Wrap a per-run call: one span per call, plus the aggregate."""
        agg, stack, spans = self._agg(name), self.stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [len(spans), 0, name]
            spans.append(None)
            parent = stack[-1][0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                stack[-1][1] += dur
                spans[frame[0]] = (name, parent, start, end, dur - frame[1])
            if work is not None:
                agg[3] += work(args)
            if after is not None:
                after(args, result, dur)
            return result
        return wrapper

    def hot(self, fn, name, evicts=False):
        """Wrap a per-request call: count and time only. With `evicts`, a call
        made straight from the replay loop counts as one eviction."""
        agg, stack = self._agg(name), self.stack

        @functools.wraps(fn)
        def wrapper(*args):
            parent = stack[-1]
            if evicts and parent[2] == SIMULATE:
                self.evictions += 1
            frame = [parent[0], 0, name]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args)
            finally:
                dur = perf_counter_ns() - start
                stack.pop()
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                parent[1] += dur
        return wrapper

    def _after_simulate(self, args, result, dur) -> None:
        policy, trace = args[0], args[1]
        runs = self.runs
        runs["misses"] += result.misses
        runs["hits"] += len(trace) - result.misses
        self.simulate_ms.append(dur / 1e6)
        if hasattr(policy, "guard_events"):
            runs["guarded_requests"] += len(trace)
            runs["redirects"] += policy.guard_events
            runs["phases"] += len(policy.phase_stats)
            runs["max_guarded"] = max(runs["max_guarded"], policy.max_guarded)

    def install(self, cs) -> None:
        """Wrap the package's public entry points; `cs` is the imported package
        with its `cli` module already loaded."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "cachesim" or n.startswith("cachesim.")]

        def patch(module, attr, wrap):
            fn = getattr(module, attr)
            wrapped = wrap(fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)

        def method(cls, attr, wrap):
            setattr(cls, attr, wrap(getattr(cls, attr)))

        for attr in INGESTS:
            patch(cs.trace, attr, lambda f: self.span(f, "trace.ingest", _lines))
        method(cs.trace.Trace, "__init__", lambda f: self.span(
            f, "trace.build", lambda a: len(a[0].pages)))
        patch(cs.oracle, "belady_simulate", lambda f: self.span(f, "oracle.belady"))
        patch(cs.oracle, "opt_cost", lambda f: self.span(f, "oracle.opt", _trace_len))
        patch(cs.oracle, "belady_labels",
              lambda f: self.span(f, "oracle.labels", _trace_len))

        def wrap_fitf(args, bundle, dur):
            bundle.fitf_choice = self.hot(bundle.fitf_choice, "predict.fitf_query")
        for attr in BUNDLES:
            patch(cs.predict, attr, lambda f, a=attr: self.span(
                f, "predict.bundle", _trace_len,
                wrap_fitf if a == "noisy_fitf" else None))
        patch(cs.predict, "measure_error",
              lambda f: self.span(f, "predict.measure_error", _trace_len))
        patch(cs.policy, "simulate", lambda f: self.span(
            f, SIMULATE, _trace_len, self._after_simulate))
        for cls in vars(cs.policy).values():
            if (isinstance(cls, type) and issubclass(cls, cs.policy.Policy)
                    and cls is not cs.policy.Policy and "choose_victim" in vars(cls)):
                method(cls, "choose_victim",
                       lambda f: self.hot(f, "policy.victim", evicts=True))
        guard = cs.guard.GuardPolicy
        method(guard, "choose_victim", lambda f: self.hot(f, "guard.victim", evicts=True))
        method(guard, "on_request", lambda f: self.hot(f, "guard.hook"))
        method(guard, "on_evict", lambda f: self.hot(f, "guard.hook"))
        patch(cs.guard, "phase_report", lambda f: self.span(f, "guard.phase_report"))
        patch(cs.harness, "run", lambda f: self.span(f, "harness.run"))
        method(cs.harness.RunTable, "write_csv", lambda f: self.span(f, "harness.csv"))
        patch(cs.cli, "main", lambda f: self.span(f, "cli.main"))

    def summary(self) -> dict:
        """Per-layer figures of this process, by metric name; None where the
        layer did no work."""
        def agg(name):
            return self.aggs.get(name, [0, 0, 0, 0])

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else None

        build, ingest, opt = agg("trace.build"), agg("trace.ingest"), agg("oracle.opt")
        labels, bundle, fitf = agg("oracle.labels"), agg("predict.bundle"), agg("predict.fitf_query")
        measure, sim, victim = agg("predict.measure_error"), agg(SIMULATE), agg("policy.victim")
        hook, gvictim, report = agg("guard.hook"), agg("guard.victim"), agg("guard.phase_report")
        harness, csv = agg("harness.run"), agg("harness.csv")
        ms = sorted(self.simulate_ms)
        runs = self.runs
        return {
            "trace.build_ns_per_request": ratio(build[2], build[3]),
            "trace.ingest_ns_per_line": ratio(ingest[2], ingest[3]),
            "oracle.opt_ns_per_request": ratio(opt[1], opt[3]),
            "oracle.belady_runs": agg("oracle.belady")[0],
            "oracle.labels_ns_per_request": ratio(labels[1], labels[3]),
            "predict.bundle_ns_per_request": ratio(bundle[2], bundle[3]),
            "predict.fitf_queries": fitf[0],
            "predict.fitf_query_us": ratio(fitf[1], fitf[0], 1e-3),
            "predict.measure_error_ns_per_request": ratio(measure[2], measure[3]),
            "policy.replay_self_ns_per_request": ratio(sim[2], sim[3]),
            "policy.victim_us_per_eviction": ratio(victim[1], victim[0], 1e-3),
            "policy.hits": runs["hits"],
            "policy.misses": runs["misses"],
            "policy.evictions": self.evictions,
            "policy.simulate_p50_ms": statistics.median(ms) if ms else None,
            "policy.simulate_p99_ms": ms[math.ceil(0.99 * len(ms)) - 1] if ms else None,
            "guard.hook_ns_per_request": ratio(hook[2], runs["guarded_requests"]),
            "guard.victim_self_us_per_eviction": ratio(gvictim[2], gvictim[0], 1e-3),
            "guard.redirects": runs["redirects"],
            "guard.phases": runs["phases"],
            "guard.max_guarded": runs["max_guarded"],
            "guard.phase_report_us_per_run": ratio(report[1], report[0], 1e-3),
            "harness.self_s": harness[2] / 1e9 if harness[0] else None,
            "harness.csv_ms": csv[1] / 1e6 if csv[0] else None,
        }

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "aggregates": {name: dict(zip(("calls", "ns", "self_ns", "work"), v))
                           for name, v in self.aggs.items()},
            "spans": [dict(zip(("boundary", "parent", "start_ns", "end_ns", "self_ns"), s))
                      for s in self.spans],
        }))
