"""Command-line front end for running cache-replacement experiments.

Exit codes: 0 on success (and for ``--help``), 1 on configuration or input
errors (malformed flags, ``--config`` keys or values, unreadable or malformed
traces and predictor files), 2 when ``--assert-invariants`` is set and a run
violates a structural invariant.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .guard import InvariantViolation
from .harness import DEFAULT_K, ExperimentConfig, resolve_out, run
from .policy import ContractViolation


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachesim",
        description="Replay a request trace against cache eviction policies "
                    "and report miss counts relative to the offline optimum.",
        argument_default=argparse.SUPPRESS,  # flags not given stay out of the namespace
    )
    parser.add_argument("--config", help="JSON file holding the flags below; "
                                         "explicit flags take precedence")
    parser.add_argument("--trace", help="path to the trace file")
    parser.add_argument("--format", choices=list(DEFAULT_K),
                        help="trace file format (default: plain)")
    parser.add_argument("--k", type=int, help="cache size in slots")
    parser.add_argument("--policy", help="policy spec, e.g. lru, guard:blind_oracle, "
                                         "switch_rand(lru,blind_oracle,0.99)")
    parser.add_argument("--pred", help="predictor spec, e.g. none, nrt:sigma=0.5, "
                                       "binary:p_flip=0.1, fitf:epsilon=0.2, pleco, popu")
    parser.add_argument("--sweep", help="sweep one predictor parameter, e.g. sigma=0,0.5,1,2")
    parser.add_argument("--seeds", type=int, help="number of seeds (runs seeds 0..N-1)")
    parser.add_argument("--out", help="write per-run and aggregate rows to this CSV")
    parser.add_argument("--phase-stats", action="store_true",
                        help="also write per-phase counters next to --out")
    parser.add_argument("--assert-invariants", action="store_true",
                        help="fail (exit 2) if any guarded run breaks a phase invariant")
    return parser


_WANT = {bool: "true or false", int: "an integer", str: "a string"}


def _check_config_values(data: dict, parser: argparse.ArgumentParser) -> None:
    """Check each --config value against what its flag takes: true or false
    for a switch, else the flag's type (`seeds` may also list integers)."""
    kinds = {a.dest: bool if a.nargs == 0 else a.type or str for a in parser._actions}
    for key, value in data.items():
        kind = kinds[key]
        if type(value) is kind or (key == "seeds" and type(value) is list
                                   and all(type(s) is int for s in value)):
            continue
        want = _WANT[kind] + (" or a list of integers" if key == "seeds" else "")
        raise ValueError(f"config key {key!r} must be {want}, got {value!r}")


def _config_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> ExperimentConfig:
    """Merge the --config file with the flags given (flags win); `run` validates."""
    flags = vars(args)
    config_path = flags.pop("config", None)
    data: dict = {}
    if config_path:
        with open(config_path, encoding="utf-8-sig") as fh:
            data = json.load(fh)
        if type(data) is not dict:
            raise ValueError(f"config file {config_path} must hold a JSON object")
    fields = dataclasses.fields(ExperimentConfig)
    unknown = set(data) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    # null stands for the default where the default is None (`k`, `sweep`, `out`)
    optional = {f.name for f in fields if f.default is None}
    data = {key: value for key, value in data.items() if value is not None or key not in optional}
    _check_config_values(data, parser)
    data.update(flags)
    if "trace" not in data:
        raise ValueError("--trace is required (directly or via --config)")
    seeds = data.get("seeds", 1)
    if isinstance(seeds, int):
        if seeds < 1:
            raise ValueError("--seeds must be >= 1")
        seeds = range(seeds)
    data["seeds"] = [int(s) for s in seeds]
    return ExperimentConfig(**data)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a malformed command line
        return 1 if exc.code == 2 else exc.code
    try:
        config = _config_from_args(args, parser)
        table = run(config)
    except (InvariantViolation, ContractViolation) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2 if config.assert_invariants else 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for param, ratio in table.mean_ratios().items():
        tag = f" param={param}" if param != "" else ""
        print(f"policy={config.policy} pred={config.pred}{tag} mean_ratio={ratio:.4f}")
    if config.out is not None:
        print(f"wrote {resolve_out(config.out)}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
