"""Experiment orchestration: configs, seeded sweeps, CSV output.

One experiment = one trace source, one policy spec, one predictor spec, an
optional sweep over a single predictor parameter, and a list of seeds. Every
(sweep point, seed) pair produces one result row; sources that split into
several sub-traces (per-user check-in histories, per-set address streams) are
simulated sub-trace by sub-trace and reported as total misses over total
offline-optimum misses.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .guard import InvariantViolation, phase_report, phase_stats_csv
from .oracle import check_k
from .policy import build_policy, simulate
from .predict import (
    PredictionBundle,
    binary_from_nrt,
    flip_labels,
    inverted_nrt,
    load_bundle_csv,
    measure_error,
    noisy_fitf,
    perfect_labels,
    perfect_nrt,
    pleco,
    popu,
    synthetic_nrt,
)
from .trace import (
    Trace,
    ingest_address_trace,
    ingest_brightkite,
    ingest_citibike,
    parse_plain_trace,
)

CSV_COLUMNS = [
    "policy", "predictor", "param", "seed", "misses", "opt", "ratio",
    "eta_t", "eta_b", "eta_f", "wall_ms",
]

DEFAULT_K = {"plain": 10, "brightkite": 10, "citi": 100, "addr": 16}

OUT_DIR_ENV = "CACHESIM_OUT_DIR"


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment."""

    trace: str | Path
    format: str = "plain"
    k: int | None = None
    policy: str = "lru"
    pred: str = "none"
    sweep: str | None = None
    seeds: list[int] = field(default_factory=lambda: [0])
    out: str | Path | None = None
    phase_stats: bool = False
    assert_invariants: bool = False

    def resolved_k(self) -> int:
        if self.format not in DEFAULT_K:
            raise ValueError(
                f"unknown trace format {self.format!r}; expected one of {sorted(DEFAULT_K)}"
            )
        k = self.k if self.k is not None else DEFAULT_K[self.format]
        check_k(k)
        return k


def load_traces(config: ExperimentConfig) -> list[tuple[str, Trace]]:
    """Read the configured source into labelled sub-traces."""
    k = config.resolved_k()  # also rejects an unknown format
    text = Path(config.trace).read_text(encoding="utf-8-sig")
    fmt = config.format
    if fmt == "plain":
        return [("trace", parse_plain_trace(text))]
    if fmt == "brightkite":
        pairs = ingest_brightkite(text, cache_size=k)
        if not pairs:
            raise ValueError("no user in the check-in file has enough distinct locations")
        return [(f"user:{user}", tr) for user, tr in pairs]
    if fmt == "citi":
        return [("citi", ingest_citibike(text))]
    sets = ingest_address_trace(text, ways=k)  # fmt == "addr"
    return [(f"set:{idx}", tr) for idx, tr in sets.items()]


def parse_pred_spec(spec: str) -> tuple[str, dict[str, str]]:
    """Split ``name`` or ``name:key=val,key=val`` into name and parameters."""
    spec = spec.strip()
    name, _, rest = spec.partition(":")
    params: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key.strip():
                raise ValueError(f"malformed predictor parameter {item!r} in {spec!r}")
            params[key.strip()] = value.strip()
    if not name:
        raise ValueError(f"empty predictor name in {spec!r}")
    return name, params


def parse_sweep(sweep: str) -> tuple[str, list[str]]:
    """Parse ``param=v1,v2,...`` into the parameter name and value strings."""
    key, sep, rest = sweep.partition("=")
    values = [v.strip() for v in rest.split(",") if v.strip()]
    if not sep or not key.strip() or not values:
        raise ValueError(f"malformed sweep {sweep!r}; expected param=v1,v2,...")
    return key.strip(), values


@dataclass(frozen=True)
class _Predictor:
    """How the harness builds one predictor's bundles.

    `params` maps each parameter to its default: given numbers parse as
    floats, None leaves the value to the builder, and `str` marks a required
    string. Without a sweep, the given `primary` value labels the rows. A
    `seeded` bundle depends on the run seed, so it is rebuilt per seed. The
    builders call this module's globals, so wrappers installed there see them.
    """

    build: Callable[[Trace, int, dict, int], PredictionBundle] | None
    params: dict = field(default_factory=dict)
    primary: str | None = None
    seeded: bool = False


_PREDICTORS = {
    "none": _Predictor(None),
    "nrt": _Predictor(lambda tr, k, p, s: synthetic_nrt(tr, sigma=p["sigma"], seed=s),
                      {"sigma": 1.0}, "sigma", seeded=True),
    "perfect": _Predictor(lambda tr, k, p, s: perfect_nrt(tr)),
    "inverted": _Predictor(lambda tr, k, p, s: inverted_nrt(tr)),
    "binary": _Predictor(lambda tr, k, p, s: flip_labels(tr, k, p_flip=p["p_flip"], seed=s),
                         {"p_flip": 0.0}, "p_flip", seeded=True),
    "perfect_labels": _Predictor(lambda tr, k, p, s: perfect_labels(tr, k)),
    "fitf": _Predictor(lambda tr, k, p, s: noisy_fitf(tr, k, epsilon=p["epsilon"], seed=s),
                       {"epsilon": 0.0}, "epsilon", seeded=True),
    "pleco": _Predictor(lambda tr, k, p, s: pleco(tr, alpha=p["alpha"], offset=p["offset"]),
                        {"alpha": 1.8, "offset": 10.0}, "alpha"),
    "popu": _Predictor(lambda tr, k, p, s: popu(tr)),
    "binary_nrt": _Predictor(
        lambda tr, k, p, s: binary_from_nrt(synthetic_nrt(tr, sigma=p["sigma"], seed=s), tr,
                                            boundary=p["boundary"], k=k),
        {"sigma": 1.0, "boundary": None}, "sigma", seeded=True),
    "csv": _Predictor(lambda tr, k, p, s: load_bundle_csv(p["path"]), {"path": str}),
}


def predictor_points(pred: str, sweep: str | None) -> tuple[str, list[tuple[str, dict]]]:
    """Check a predictor spec and sweep against `_PREDICTORS`.

    Returns the predictor name and, per sweep point, the row's `param` label
    (the value the user gave for the swept or primary parameter, else "") and
    the typed parameters with defaults filled in. Raises ValueError for an
    unknown predictor or parameter, a value that is not a finite number
    (NaN and infinities included), or a missing required parameter.
    """
    name, given = parse_pred_spec(pred)
    entry = _PREDICTORS.get(name)
    if entry is None:
        raise ValueError(f"unknown predictor {name!r}; expected one of {sorted(_PREDICTORS)}")
    key, values = (None, [None]) if sweep is None else parse_sweep(sweep)
    points = []
    for value in values:
        params = dict(entry.params)
        for param, text in (given if key is None else {**given, key: value}).items():
            if param not in params:
                raise ValueError(f"predictor {name!r} has no parameter {param!r}; "
                                 f"it takes {sorted(params) or 'no parameters'}")
            if params[param] is str:
                params[param] = text
                continue
            try:
                params[param] = float(text)
            except ValueError:
                params[param] = math.nan
            if not math.isfinite(params[param]):
                raise ValueError(f"predictor {name!r} parameter {param!r}: "
                                 f"{text!r} is not a finite number")
        for param, default in params.items():
            if default is str:
                raise ValueError(f"predictor {name!r} needs parameter {param!r} "
                                 f"({name}:{param}=...)")
        points.append((given.get(entry.primary, "") if key is None else value, params))
    return name, points


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


@dataclass
class RunTable:
    """Result of one experiment: per-run rows plus per-sweep-point means."""

    rows: list[dict]

    def mean_ratios(self) -> dict[str, float]:
        """Aggregate mean ratio per sweep-point, keyed by the param column."""
        return {
            row["param"]: row["ratio"]
            for row in self.rows
            if row["seed"] == "mean"
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in self.rows:
            writer.writerow([_fmt(row[col]) for col in CSV_COLUMNS])
        return buf.getvalue()

    def write_csv(self, path: str | Path) -> Path:
        path = resolve_out(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_csv())
        return path


def resolve_out(path: str | Path) -> Path:
    """Root bare output filenames at the directory named by the environment."""
    path = Path(path)
    out_dir = os.environ.get(OUT_DIR_ENV)
    if out_dir and not path.is_absolute() and path.parent == Path("."):
        return Path(out_dir) / path
    return path


def replay_subtrace(
    config: ExperimentConfig,
    k: int,
    label: str,
    trace: Trace,
    bundle: PredictionBundle | None,
    seed: int,
    param: str,
) -> tuple[dict[str, float], str]:
    """Replay one sub-trace under one seed.

    Returns the record that `run` sums per seed (misses, opt,
    `wall_ms`, plus `eta_t`, `eta_b` and the FITF wrong answers and queries
    when there is a bundle), and this run's `.phases.csv` section ("" if none).
    """
    result = simulate(build_policy(config.policy), trace, k, bundle, seed=seed)
    record = {"misses": result.misses, "opt": result.opt_misses, "wall_ms": result.wall_ms}
    if bundle is not None:
        err = measure_error(bundle, trace, k=k)
        record.update(eta_t=err.eta_t, eta_b=err.eta_b, fitf_wrong=err.eta_f,
                      fitf_queries=bundle.fitf_queries)
    section = ""
    if result.phase_stats is not None and (config.assert_invariants or config.phase_stats):
        report = phase_report(result)
        where = f"{label} seed={seed} param={param}"
        if config.assert_invariants and report.violations:
            raise InvariantViolation(f"{where}: " + "; ".join(report.violations))
        if config.phase_stats:
            section = f"# {where}\n" + phase_stats_csv(report.phases)
    return record, section


def run(config: ExperimentConfig) -> RunTable:
    """Execute the experiment: every sweep point, every seed, every sub-trace.

    Writes the result CSV when `config.out` is set, plus a `.phases.csv`
    companion when `config.phase_stats` is set and the policy is guarded;
    otherwise a companion left by an earlier run is removed.
    With `config.assert_invariants`, any guarded run whose phase counters
    break their inequalities raises `InvariantViolation`.
    """
    # every check of the config comes before the trace is read
    k = config.resolved_k()
    if not config.seeds:
        raise ValueError("seeds must be nonempty")
    build_policy(config.policy)  # raises on unknown policy specs
    pred_name, points = predictor_points(config.pred, config.sweep)
    if pred_name == "csv" and config.format in ("brightkite", "addr"):
        raise ValueError(f"the {config.format!r} format splits into sub-traces: one csv "
                         "prediction file cannot fit them all")
    predictor = _PREDICTORS[pred_name]
    traces = load_traces(config)

    rows: list[dict] = []
    sections: list[str] = []
    for param, params in points:
        fixed = {"policy": config.policy, "predictor": pred_name, "param": param}
        bundles: dict[str, PredictionBundle | None] = {}
        seed_rows: list[dict] = []
        for seed in config.seeds:
            records = []
            for label, tr in traces:
                if predictor.seeded or label not in bundles:
                    bundles[label] = (None if predictor.build is None
                                      else predictor.build(tr, k, params, seed))
                record, section = replay_subtrace(
                    config, k, label, tr, bundles[label], seed, param)
                records.append(record)
                sections.append(section)
            total = {key: sum(r[key] for r in records) for key in records[0]}
            row = dict(fixed, seed=seed, ratio=total["misses"] / total["opt"], **total)
            if "fitf_queries" in total:  # the error columns stay empty without a bundle
                row["eta_f"] = total["fitf_wrong"] / (total["fitf_queries"] or 1)
            seed_rows.append({col: row.get(col) for col in CSV_COLUMNS})
        mean = dict(fixed, seed="mean")
        for col in CSV_COLUMNS:
            if col not in mean:
                values = [row[col] for row in seed_rows]
                mean[col] = None if values[0] is None else sum(values) / len(values)
        rows += seed_rows
        rows.append(mean)

    table = RunTable(rows)
    phases = "".join(sections)
    if config.out is not None:
        companion = Path(str(table.write_csv(config.out)) + ".phases.csv")
        if phases:
            companion.write_text(phases)
        else:  # an earlier run's phases must not sit beside this run's rows
            companion.unlink(missing_ok=True)
    return table

