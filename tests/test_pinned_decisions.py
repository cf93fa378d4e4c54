"""Exact per-seed results across the whole policy grammar, frozen in a data file.

Every spec below is replayed on seeded random traces at several cache sizes
and seeds, and its miss count, FITF query tallies and guard phase counters
must equal the values stored in `data/pinned_decisions.json`. The specs cover
every base policy, both switching combiners with marker, label and FITF
lanes, `guard:` over a combiner, a combiner over `guard:`, and nested
combiners, so any change to the replay engine that alters an RNG draw, its
order, or a tie-break shows up here.

Regenerate the data file (only when a change of results is intended) with
``PYTHONPATH=src python3 -m tests.test_pinned_decisions``.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path

import numpy as np
import pytest

from cachesim import build_policy, flip_labels, noisy_fitf, simulate, synthetic_nrt
from cachesim.predict import PredictionKind
from .reference_impls import random_trace

DATA = Path(__file__).parent / "data" / "pinned_decisions.json"

SPECS = [
    "lru",
    "marker",
    "belady",
    "blind_oracle",
    "lrb",
    "fitf",
    "guard:marker",
    "guard:blind_oracle",
    "guard:lrb",
    "guard:fitf",
    "switch_det(marker,lru)",
    "switch_rand(marker,lru)",
    "switch_det(lrb,marker)",
    "switch_rand(lrb,marker,0.9)",
    "switch_det(fitf,lru)",
    "switch_rand(fitf,marker)",
    "switch_rand(blind_oracle,lru,0.9)",
    "guard:switch_rand(lrb,marker)",
    "guard:switch_det(blind_oracle,lru)",
    "guard:switch_rand(fitf,fitf,0.8)",
    "switch_det(guard:lru,belady)",
    "switch_rand(guard:fitf,fitf)",
    "switch_rand(switch_det(marker,lru),lru)",
    "switch_det(switch_rand(lrb,marker),lrb,1.5)",
]
KS = (1, 2, 3, 5)
SEEDS = (0, 1, 2)
# (length, universe) of each trace; trace t is drawn from default_rng(100 + t)
TRACES = ((90, 6), (120, 8), (150, 11))


def _bundle(kind, trace, k, seed):
    if kind is PredictionKind.NRT:
        return synthetic_nrt(trace, 1.0, seed=seed)
    if kind is PredictionKind.BINARY:
        return flip_labels(trace, k, 0.3, seed=seed)
    if kind is PredictionKind.FITF:
        return noisy_fitf(trace, k, 0.3, seed=seed)
    return None


def replay_spec(spec: str, make_bundle=_bundle) -> dict[str, list]:
    """Results of every (trace, k, seed) run of one spec, keyed by run."""
    out = {}
    for t, (n, universe) in enumerate(TRACES):
        trace = random_trace(np.random.default_rng(100 + t), n, universe)
        for k in KS:
            for seed in SEEDS:
                policy = build_policy(spec)
                bundle = make_bundle(policy.requires, trace, k, seed)
                res = simulate(policy, trace, k, bundle, seed=seed, compute_opt=False)
                row = [res.misses]
                if bundle is not None and bundle.kind is PredictionKind.FITF:
                    row += [bundle.fitf_queries, bundle.fitf_wrong]
                if res.phase_stats is not None:
                    row.append([[ph.c_q, ph.n_q, ph.o_q, ph.n_q_new, ph.n_q_old]
                                for ph in res.phase_stats])
                out[f"t{t} k{k} s{seed}"] = row
    return out


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("spec", SPECS)
def test_results_match_pinned_values(spec, pinned):
    got = replay_spec(spec)
    want = pinned[spec]
    diffs = [key for key in want if got.get(key) != want[key]]
    assert not diffs and got.keys() == want.keys(), (
        f"{spec}: {len(diffs)} runs differ, first {diffs[:3]}: "
        + "; ".join(f"{key} got {got.get(key)} want {want[key]}" for key in diffs[:3])
    )


@pytest.mark.parametrize("spec", ["fitf", "guard:fitf", "switch_rand(fitf,marker)"])
def test_fitf_bundle_keeps_its_generator_alive(spec, pinned):
    """A FITF bundle draws from its own stream, which holds the bit
    generator it reads. Nothing else refers to that generator once the bundle
    is built, so collect what can be collected and build other Generators
    before the replay: the bundle's answers must not change."""
    decoys = []

    def collected_bundle(kind, trace, k, seed):
        bundle = _bundle(kind, trace, k, seed)
        gc.collect()
        decoys.extend(np.random.default_rng(10_000 + seed + j) for j in range(8))
        return bundle

    assert replay_spec(spec, collected_bundle) == pinned[spec]


if __name__ == "__main__":
    # one run per line, so that a change of results reads as a short diff
    blocks = []
    for spec in SPECS:
        runs = ",\n".join(f"  {json.dumps(key)}: {json.dumps(row, separators=(',', ':'))}"
                          for key, row in replay_spec(spec).items())
        blocks.append(f" {json.dumps(spec)}: {{\n{runs}\n }}")
    DATA.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {DATA}")
