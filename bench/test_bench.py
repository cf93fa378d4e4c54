"""Tests of the benchmark's own parts: references, generators and checks.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import itertools
import json
import random
from functools import lru_cache
from pathlib import Path

import pytest

import checks
import inputs
import reference as ref
import run


def _brute_force_opt(pages: list[int], k: int) -> int:
    @lru_cache(maxsize=None)
    def solve(i: int, cache: frozenset) -> int:
        if i == len(pages):
            return 0
        p = pages[i]
        if p in cache:
            return solve(i + 1, cache)
        if len(cache) < k:
            return 1 + solve(i + 1, cache | {p})
        return 1 + min(solve(i + 1, (cache - {q}) | {p}) for q in cache)
    return solve(0, frozenset())


def _scan_follower(pages: list[int], k: int, preds: list[int]) -> int:
    cache: set[int] = set()
    pred_of: dict[int, int] = {}
    last: dict[int, int] = {}
    misses = 0
    for i, p in enumerate(pages, 1):
        pred_of[p] = preds[i - 1]
        if p not in cache:
            misses += 1
            if len(cache) == k:
                cache.remove(max(cache, key=lambda q: (pred_of[q], -last[q], q)))
            cache.add(p)
        last[p] = i
    return misses


def test_belady_matches_exhaustive_search():
    rng = random.Random(5)
    for _ in range(300):
        pages = [rng.randrange(5) for _ in range(rng.randint(1, 12))]
        k = rng.randint(1, 3)
        assert ref.belady_misses(pages, k) == _brute_force_opt(pages, k), (pages, k)


def test_follower_matches_a_full_scan_including_ties():
    rng = random.Random(6)
    for _ in range(300):
        pages = [rng.randrange(8) for _ in range(rng.randint(1, 60))]
        preds = [rng.randrange(6) for _ in pages]  # few values, so ties are common
        k = rng.randint(1, 5)
        assert ref.follower_misses(pages, k, preds) == _scan_follower(pages, k, preds)


def test_follower_with_true_times_is_optimal():
    pages = inputs.uniform_trace(3, 3000, 30)
    assert ref.follower_misses(pages, 20, ref.next_use(pages)) == ref.belady_misses(pages, 20)


def test_robustness_bound():
    assert ref.robustness_bound(1) == 4.0
    assert ref.robustness_bound(2) == 5.0
    assert ref.robustness_bound(10) == pytest.approx(2 * 2.9289682539682538 + 2)


def test_inputs_follow_the_seed():
    for seed in (0, 1):
        assert inputs.uniform_trace(seed, 500) == inputs.uniform_trace(seed, 500)
        assert inputs.envelope_traces(seed) == inputs.envelope_traces(seed)
        assert inputs.checkin_rows(seed) == inputs.checkin_rows(seed)
    assert inputs.uniform_trace(0, 500) != inputs.uniform_trace(1, 500)
    assert inputs.checkin_rows(0) != inputs.checkin_rows(1)
    pages = inputs.uniform_trace(0, 500)
    assert pages[0] == 0 and all(p <= max(pages[:i], default=-1) + 1
                                 for i, p in enumerate(pages))


def test_shapes_do_not_depend_on_the_seed():
    shapes = {tuple(len(set(p)) for _, p in inputs.envelope_traces(s)) for s in range(3)}
    assert len(shapes) == 1
    kept = {tuple(sorted((u, len(p)) for u, p in
                         inputs.user_traces(inputs.checkin_rows(s), inputs.CLI_K).items()))
            for s in range(3)}
    assert len(kept) == 1


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_checks_catch_a_wrong_replay():
    pages = inputs.uniform_trace(0, 2000)
    exp = checks.expect("matched-k100", [pages], 0)
    opt, universe = exp["traces"][0]["opt"], exp["traces"][0]["universe"]
    good = {"spec": "blind_oracle", "trace": 0, "misses": opt, "opt": opt, "eta_t": 0.0}
    assert checks.check("matched-k100", exp, [good], None) == []
    bad = dict(good, misses=opt + 1)
    assert checks.check("matched-k100", exp, [bad], None)
    guarded = dict(good, spec="guard:blind_oracle", violations=0, redirects=1,
                   max_guarded=1, counted=opt - min(100, universe))
    assert any("intervened" in p for p in checks.check("matched-k100", exp, [guarded], None))


# The rest compares the references with the package itself.
cachesim = pytest.importorskip("cachesim")


def test_lognormal_model_matches_the_package():
    pages = inputs.uniform_trace(2, 5000)
    bundle = cachesim.synthetic_nrt(cachesim.Trace(pages), 1.0, seed=7)
    assert bundle.nrt == ref.lognormal_predictions(pages, 1.0, 7)


def test_references_agree_with_the_package():
    for seed, (k, universe) in itertools.product(range(3), ((2, 5), (10, 17), (100, 120))):
        pages = inputs.uniform_trace(seed, 4000, universe)
        trace = cachesim.Trace(pages)
        assert ref.belady_misses(pages, k) == cachesim.opt_cost(trace, k)
        for bundle, preds in ((cachesim.inverted_nrt(trace), ref.inverted_predictions(pages)),
                              (cachesim.synthetic_nrt(trace, 1.0, seed), None)):
            preds = preds or bundle.nrt
            result = cachesim.simulate(cachesim.build_policy("blind_oracle"), trace, k, bundle,
                                    compute_opt=False)
            assert result.misses == ref.follower_misses(pages, k, preds)


def test_kept_users_match_the_ingestion_filter(tmp_path):
    rows = inputs.checkin_rows(4)
    path = tmp_path / "checkins.tsv"
    inputs.write_checkins(path, rows)
    ingested = dict(cachesim.ingest_brightkite(path.read_text(), cache_size=inputs.CLI_K))
    ours = inputs.user_traces(rows, inputs.CLI_K)
    assert sorted(ingested) == sorted(ours)
    assert all(ingested[u].pages == ours[u] for u in ours)
