"""Experiment orchestration: configs, seeded sweeps, CSV output, comparisons.

One experiment = one trace source, one policy spec, one predictor spec, an
optional sweep over a single predictor parameter, and a list of seeds. Every
(sweep point, seed) pair produces one result row; sources that split into
several sub-traces (per-user check-in histories, per-set address streams) are
simulated sub-trace by sub-trace and reported as total misses over total
offline-optimum misses.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .guard import InvariantViolation, phase_report, phase_stats_csv
from .oracle import opt_cost
from .policy import RunResult, build_policy, simulate
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
    SetAssociativeConfig,
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
CACHE_DIR_ENV = "CACHESIM_CACHE_DIR"


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
        if k < 1:
            raise ValueError("k must be >= 1")
        return k

    def validate(self) -> None:
        self.resolved_k()
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        build_policy(self.policy)  # raises on unknown policy specs
        name, params = parse_pred_spec(self.pred)
        if name not in _PREDICTORS:
            raise ValueError(f"unknown predictor {name!r}; expected one of {sorted(_PREDICTORS)}")
        given = set(params)
        if self.sweep is not None:
            given.add(parse_sweep(self.sweep)[0])
        for key in _REQUIRED_PARAMS.get(name, ()):
            if key not in given:
                raise ValueError(f"predictor {name!r} needs parameter {key!r} ({name}:{key}=...)")


def load_traces(config: ExperimentConfig) -> list[tuple[str, Trace]]:
    """Read the configured source into labelled sub-traces."""
    k = config.resolved_k()  # also rejects an unknown format
    text = Path(config.trace).read_text()
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
    sets = ingest_address_trace(text, SetAssociativeConfig(ways=k))  # fmt == "addr"
    return [(f"set:{idx}", tr) for idx, tr in sorted(sets.items())]


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


# Predictor constructors; the bool marks whether the bundle depends on the
# run seed (and therefore must be rebuilt per seed rather than shared).
_PREDICTORS = {
    "none": (None, False),
    "nrt": (lambda tr, k, p, s: synthetic_nrt(tr, sigma=float(p.get("sigma", 1.0)), seed=s), True),
    "perfect": (lambda tr, k, p, s: perfect_nrt(tr), False),
    "inverted": (lambda tr, k, p, s: inverted_nrt(tr), False),
    "binary": (
        lambda tr, k, p, s: flip_labels(tr, k, p_flip=float(p.get("p_flip", 0.0)), seed=s),
        True,
    ),
    "perfect_labels": (lambda tr, k, p, s: perfect_labels(tr, k), False),
    "fitf": (
        lambda tr, k, p, s: noisy_fitf(tr, k, epsilon=float(p.get("epsilon", 0.0)), seed=s),
        True,
    ),
    "pleco": (
        lambda tr, k, p, s: pleco(
            tr, alpha=float(p.get("alpha", 1.8)), offset=float(p.get("offset", 10.0))
        ),
        False,
    ),
    "popu": (lambda tr, k, p, s: popu(tr), False),
    "binary_nrt": (
        lambda tr, k, p, s: binary_from_nrt(
            synthetic_nrt(tr, sigma=float(p.get("sigma", 1.0)), seed=s),
            tr,
            boundary=float(p["boundary"]) if "boundary" in p else None,
            k=k,
        ),
        True,
    ),
    "csv": (lambda tr, k, p, s: load_bundle_csv(p["path"]), False),
}

# Parameters a predictor cannot do without, from the spec or the sweep.
_REQUIRED_PARAMS = {"csv": ("path",)}

_PRIMARY_PARAM = {
    "nrt": "sigma", "binary": "p_flip", "fitf": "epsilon",
    "pleco": "alpha", "binary_nrt": "sigma",
}


class _OptCache:
    """Offline-optimum miss counts keyed by `v1:{trace digest}:{k}`.

    The version prefix is raised whenever the optimum's computation changes,
    so that a count persisted by another version is never read.

    Always memoised in memory; persisted to a JSON file when the cache
    directory environment variable is set. The file is replaced atomically,
    and a file that cannot be read or written gives a `RuntimeWarning`, after
    which the run goes on with the optimum it computed.
    """

    def __init__(self):
        self._mem: dict[str, int] = {}
        self._path: Path | None = None
        cache_dir = os.environ.get(CACHE_DIR_ENV)
        if cache_dir:
            self._path = Path(cache_dir) / "opt_cache.json"
            if self._path.exists():
                try:
                    self._mem.update(json.loads(self._path.read_text()))
                except (OSError, ValueError, TypeError) as exc:  # TypeError: not an object
                    warnings.warn(f"cannot read optimum cache {self._path}: {exc}",
                                  RuntimeWarning)

    def get(self, trace: Trace, k: int) -> int:
        key = f"v1:{trace.digest}:{k}"
        opt = self._mem.get(key)
        if opt is None:
            opt = opt_cost(trace, k)
            self._mem[key] = opt
            if self._path is not None:
                self._save(self._path)
        return opt

    def _save(self, path: Path) -> None:
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(self._mem))
            os.replace(tmp, path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                tmp.unlink()
            warnings.warn(f"cannot write optimum cache {path}: {exc}", RuntimeWarning)


_opt_cache = _OptCache()


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


@dataclass
class RunTable:
    """Result of one experiment: per-run rows plus per-sweep-point means."""

    config: ExperimentConfig
    rows: list[dict]
    results: list[RunResult]

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
) -> tuple[RunResult, dict[str, float], str]:
    """Replay one sub-trace under one seed.

    Returns the result, the record that `run` sums per seed (misses, opt,
    `wall_ms`, plus `eta_t`, `eta_b` and the FITF wrong answers and queries
    when there is a bundle), and this run's `.phases.csv` section ("" if none).
    """
    opt = _opt_cache.get(trace, k)
    result = simulate(build_policy(config.policy), trace, k, bundle, seed=seed, opt_misses=opt)
    record = {"misses": result.misses, "opt": opt, "wall_ms": result.wall_ms}
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
    return result, record, section


def run(config: ExperimentConfig) -> RunTable:
    """Execute the experiment: every sweep point, every seed, every sub-trace.

    Writes the result CSV when `config.out` is set (plus a `.phases.csv`
    companion when `config.phase_stats` is set and the policy is guarded).
    With `config.assert_invariants`, any guarded run whose phase counters
    break their inequalities raises `InvariantViolation`.
    """
    config.validate()
    traces = load_traces(config)
    k = config.resolved_k()
    pred_name, pred_params = parse_pred_spec(config.pred)
    ctor, seeded = _PREDICTORS[pred_name]
    sweep_key, sweep_values = (None, [None]) if config.sweep is None else parse_sweep(config.sweep)

    rows: list[dict] = []
    results: list[RunResult] = []
    sections: list[str] = []
    for value in sweep_values:
        params = dict(pred_params)
        if sweep_key is not None:
            params[sweep_key] = value
        param = value if value is not None else params.get(_PRIMARY_PARAM.get(pred_name, ""), "")
        fixed = {"policy": config.policy, "predictor": pred_name, "param": param}
        bundles: dict[str, PredictionBundle | None] = {}
        seed_rows: list[dict] = []
        for seed in config.seeds:
            records = []
            for label, tr in traces:
                if seeded or label not in bundles:
                    bundles[label] = None if ctor is None else ctor(tr, k, params, seed)
                result, record, section = replay_subtrace(
                    config, k, label, tr, bundles[label], seed, param)
                results.append(result)
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

    table = RunTable(config=config, rows=rows, results=results)
    phases = "".join(sections)
    if config.out is not None:
        out_path = table.write_csv(config.out)
        if phases:
            Path(str(out_path) + ".phases.csv").write_text(phases)
    return table


@dataclass
class ComparisonTable:
    """Policies as rows, (predictor, sweep point) pairs as columns."""

    columns: list[str]
    rows: list[tuple[str, dict[str, float]]]

    def render(self) -> str:
        width = max([len("policy")] + [len(name) for name, _ in self.rows])
        cols = [max(len(c), 8) for c in self.columns]
        lines = [
            "policy".ljust(width) + "  "
            + "  ".join(c.rjust(w) for c, w in zip(self.columns, cols))
        ]
        for name, cells in self.rows:
            rendered = [
                (f"{cells[c]:.4f}" if c in cells else "-").rjust(w)
                for c, w in zip(self.columns, cols)
            ]
            lines.append(name.ljust(width) + "  " + "  ".join(rendered))
        return "\n".join(lines) + "\n"


def compare(*configs: ExperimentConfig) -> ComparisonTable:
    """Run several configs on the same trace and tabulate mean ratios."""
    if not configs:
        raise ValueError("compare needs at least one config")
    anchor = (str(configs[0].trace), configs[0].format, configs[0].resolved_k())
    columns: list[str] = []
    rows: list[tuple[str, dict[str, float]]] = []
    for config in configs:
        this = (str(config.trace), config.format, config.resolved_k())
        if this != anchor:
            raise ValueError(
                f"compare requires a shared trace and k: {this} != {anchor}"
            )
        table = run(config)
        pred_name, _ = parse_pred_spec(config.pred)
        cells: dict[str, float] = {}
        for param, ratio in table.mean_ratios().items():
            col = f"{pred_name}:{param}" if param != "" else pred_name
            if col not in columns:
                columns.append(col)
            cells[col] = ratio
        rows.append((config.policy, cells))
    return ComparisonTable(columns=columns, rows=rows)
