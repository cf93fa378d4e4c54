"""Exact harness output across trace formats and predictor families, frozen in a data file.

Each case runs `harness.run` with phase statistics on and an output file, and
the CSV it writes (without the `wall_ms` column, which is a timing) and its
`.phases.csv` companion must equal the text stored in
`data/pinned_outputs.json`. The cases cover the BrightKite, address and Citi
Bike fixtures and a plain trace; every predictor family the harness builds,
including a bundle read from a file; sweeps over sigma, p_flip and epsilon;
and raw, guarded and combiner policies over several seeds. So any change to
how the harness builds bundles, sums sub-traces, measures errors, averages
seeds or formats its output shows up here.

Regenerate the data file (only when a change of output is intended) with
``PYTHONPATH=src python3 -m tests.test_pinned_outputs``.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cachesim import ExperimentConfig, run, save_bundle_csv, synthetic_nrt
from cachesim.trace import parse_plain_trace

FIXTURES = Path(__file__).parent / "data"
DATA = FIXTURES / "pinned_outputs.json"

BRIGHTKITE = dict(trace=FIXTURES / "brightkite_sample.tsv", format="brightkite", k=10)
ADDR = dict(trace=FIXTURES / "addr_sample.txt", format="addr")
CITI = dict(trace=FIXTURES / "citibike_sample.csv", format="citi", k=20)
PLAIN = dict(format="plain", k=4)  # the trace file is written by `_plain_inputs`

CASES = {
    "plain-lru-none": dict(PLAIN, policy="lru", pred="none", seeds=[0, 1]),
    "plain-guard-marker-none": dict(PLAIN, policy="guard:marker", pred="none", seeds=[0, 1, 2]),
    "plain-guard-blind-perfect": dict(PLAIN, policy="guard:blind_oracle", pred="perfect",
                                      seeds=[0, 1]),
    "plain-blind-inverted": dict(PLAIN, policy="blind_oracle", pred="inverted", seeds=[0, 1]),
    "plain-guard-switch-csv": dict(PLAIN, policy="guard:switch_det(blind_oracle,marker)",
                                   pred="csv:path=", seeds=[0, 1]),
    "plain-switch-popu": dict(PLAIN, policy="switch_rand(blind_oracle,lru,0.9)", pred="popu",
                              seeds=[0, 1, 2]),
    "brightkite-guard-blind-nrt-sigma": dict(BRIGHTKITE, policy="guard:blind_oracle",
                                             pred="nrt", sweep="sigma=0,0.5,2", seeds=[0, 1]),
    "brightkite-guard-lrb-binary-pflip": dict(BRIGHTKITE, policy="guard:lrb", pred="binary",
                                              sweep="p_flip=0,0.2,1", seeds=[0, 1]),
    "brightkite-switch-lrb-binary": dict(BRIGHTKITE, policy="switch_det(lrb,marker)",
                                         pred="binary:p_flip=0.1", seeds=[0, 1]),
    "addr-lrb-perfect-labels": dict(ADDR, policy="lrb", pred="perfect_labels", seeds=[0, 1]),
    "addr-guard-lrb-binary-nrt": dict(ADDR, policy="guard:lrb", pred="binary_nrt:sigma=1",
                                      seeds=[0, 1]),
    "citi-guard-fitf-epsilon": dict(CITI, policy="guard:fitf", pred="fitf",
                                    sweep="epsilon=0,0.3,1", seeds=[0, 1]),
    "citi-switch-fitf": dict(CITI, policy="switch_rand(fitf,lru)", pred="fitf:epsilon=0.2",
                             seeds=[0, 1]),
    "citi-blind-popu": dict(CITI, policy="blind_oracle", pred="popu", seeds=[0, 1]),
}


def _plain_inputs(workdir: Path) -> tuple[Path, Path]:
    """A seeded plain trace and a noisy NRT bundle file for it."""
    rng = np.random.default_rng(11)
    tokens = [f"p{int(rng.integers(12))}" for _ in range(300)]
    trace_path = workdir / "trace.txt"
    trace_path.write_text("\n".join(tokens) + "\n")
    bundle_path = workdir / "preds.csv"
    save_bundle_csv(synthetic_nrt(parse_plain_trace(trace_path.read_text()), 0.7, seed=3),
                    bundle_path)
    return trace_path, bundle_path


def run_case(name: str, workdir: Path) -> dict[str, list[str]]:
    """The CSV lines (without `wall_ms`) and phase-file lines of one case."""
    spec = dict(CASES[name])
    if spec["format"] == "plain":
        spec["trace"], bundle_path = _plain_inputs(workdir)
        if spec["pred"] == "csv:path=":
            spec["pred"] += str(bundle_path)
    out = workdir / f"{name}.csv"
    run(ExperimentConfig(out=out, phase_stats=True, **spec))
    phases = Path(str(out) + ".phases.csv")
    return {
        "csv": [line.rsplit(",", 1)[0] for line in out.read_text().splitlines()],
        "phases": phases.read_text().splitlines() if phases.exists() else [],
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_pinned_text(name, pinned, tmp_path):
    got = run_case(name, tmp_path)
    want = pinned[name]
    for part in ("csv", "phases"):
        diffs = [i for i, (a, b) in enumerate(zip(got[part], want[part])) if a != b]
        assert got[part] == want[part], (
            f"{name} {part}: {len(got[part])} lines, want {len(want[part])}; "
            + "; ".join(f"line {i} got {got[part][i]!r} want {want[part][i]!r}"
                        for i in diffs[:3])
        )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pinned_outputs = {name: run_case(name, Path(tmp)) for name in CASES}
    DATA.write_text(json.dumps(pinned_outputs, indent=1) + "\n")
    print(f"wrote {DATA}")
