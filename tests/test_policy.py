"""Eviction policies, the replay engine, combiners, and the spec grammar."""

from __future__ import annotations

import math
from contextlib import ExitStack
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cachesim.policy
from cachesim import (
    ContractViolation,
    Policy,
    PredictionBundle,
    RunResult,
    Trace,
    adversarial_pinning_trace,
    build_policy,
    inverted_nrt,
    noisy_fitf,
    opt_cost,
    perfect_labels,
    perfect_nrt,
    simulate,
)
from cachesim.draws import DrawStream
from cachesim.guard import GuardPolicy
from cachesim.policy import (
    SCAN_K,
    BeladyPolicy,
    BlindOraclePolicy,
    EvictionContext,
    LRBFollowerPolicy,
    LRUPolicy,
    MarkerPolicy,
    SwitchDeterministicPolicy,
    SwitchRandomizedPolicy,
)
from cachesim.predict import PredictionKind
from .reference_impls import eviction_log, lru_misses, random_trace
from .test_pinned_decisions import _bundle as seeded_bundle


def test_lru_frozen_example():
    tr = Trace([0, 1, 2, 0, 1, 2])
    res = simulate(LRUPolicy(), tr, 2)
    assert res.misses == 6
    assert res.opt_misses == 4


def test_lru_matches_reference():
    rng = np.random.default_rng(0)
    for _ in range(100):
        tr = random_trace(rng, int(rng.integers(5, 150)), int(rng.integers(3, 9)))
        k = int(rng.integers(1, 6))
        assert simulate(LRUPolicy(), tr, k, compute_opt=False).misses == lru_misses(tr.pages, k)


def test_belady_policy_matches_offline_simulation():
    rng = np.random.default_rng(1)
    for _ in range(60):
        tr = random_trace(rng, 200, 9)
        k = int(rng.integers(2, 6))
        opt = opt_cost(tr, k)
        assert simulate(BeladyPolicy(), tr, k, opt_misses=opt).misses == opt


def test_blind_oracle_with_exact_predictions_is_optimal():
    rng = np.random.default_rng(2)
    for _ in range(60):
        tr = random_trace(rng, 200, 9)
        k = int(rng.integers(2, 6))
        res = simulate(BlindOraclePolicy(), tr, k, perfect_nrt(tr))
        assert res.misses == res.opt_misses


def test_label_follower_with_exact_labels_is_optimal():
    rng = np.random.default_rng(3)
    for seed in range(60):
        tr = random_trace(rng, 200, 9)
        k = int(rng.integers(2, 6))
        res = simulate(LRBFollowerPolicy(), tr, k, perfect_labels(tr, k), seed=seed)
        assert res.misses == res.opt_misses


def test_fitf_follower_with_exact_answers_is_optimal():
    rng = np.random.default_rng(4)
    for seed in range(40):
        tr = random_trace(rng, 150, 8)
        k = int(rng.integers(2, 6))
        res = simulate(build_policy("fitf"), tr, k, noisy_fitf(tr, k, 0.0, seed=seed), seed=seed)
        assert res.misses == res.opt_misses


def test_marker_is_seed_deterministic_and_never_beats_opt():
    rng = np.random.default_rng(5)
    for _ in range(30):
        tr = random_trace(rng, 200, 7)
        k = 4
        a = simulate(MarkerPolicy(), tr, k, seed=11)
        b = simulate(MarkerPolicy(), tr, k, seed=11)
        assert a.misses == b.misses
        assert a.misses >= a.opt_misses


def test_marker_prefers_unmarked_pages():
    # [0, 1, 2]: on the miss at 2 the marks {0, 1} cover the cache, so a new
    # phase starts and either unmarked page may go; after 2 is requested only
    # 0 and 1 are unmarked again, so requesting 3 must keep page 2 cached.
    tr = Trace([0, 1, 2, 3, 2])
    for seed in range(10):
        assert simulate(MarkerPolicy(), tr, 2, seed=seed).misses == 4


def test_engine_skips_eviction_until_cache_fills():
    tr = Trace([0, 1, 2, 0, 1, 2])

    class Exploder(Policy):
        def choose_victim(self, ctx, rng):
            raise AssertionError("cache never fills at k=3")

    assert simulate(Exploder(), tr, 3).misses == 3


def test_engine_rejects_non_candidate_victims():
    class Rogue(Policy):
        name = "rogue"

        def choose_victim(self, ctx, rng):
            return "not-a-page"

    with pytest.raises(ContractViolation):
        simulate(Rogue(), Trace([0, 1, 2]), 2)


def test_engine_validates_cache_size():
    with pytest.raises(ValueError):
        simulate(LRUPolicy(), Trace([0, 1]), 0)


def test_engine_validates_bundle_kind_and_length():
    tr = Trace([0, 1, 0])
    with pytest.raises(ValueError):
        simulate(BlindOraclePolicy(), tr, 2)  # required bundle missing
    with pytest.raises(ValueError):
        simulate(BlindOraclePolicy(), tr, 2, perfect_labels(tr, 2))
    with pytest.raises(ValueError):
        simulate(BlindOraclePolicy(), tr, 2, PredictionBundle(PredictionKind.NRT, nrt=[4, 4]))
    with pytest.raises(ValueError):
        simulate(build_policy("fitf"), tr, 2, PredictionBundle(PredictionKind.FITF))


def test_prediction_attaches_at_most_recent_request():
    # k=1: the single cached page is always evicted, but the blind follower
    # must read the prediction written at the page's latest request, not its
    # first. At k = 1 the engine scans the cached page's key, read at its
    # last request.
    tr = Trace([0, 1, 0, 1])
    res = simulate(BlindOraclePolicy(), tr, 1, perfect_nrt(tr))
    assert res.misses == 4


def test_float_nrt_stream_raises_instead_of_choosing_a_victim():
    # keys are decoded back to request indices, which only integer values
    # allow: by the scan at k = 2, by the heap above SCAN_K
    for k in (2, SCAN_K + 1):
        tr = Trace(list(range(k + 1)) + [0])
        bundle = PredictionBundle(PredictionKind.NRT, nrt=[float(k + 2)] * (k + 2))
        with pytest.raises(TypeError):
            simulate(BlindOraclePolicy(), tr, k, bundle)


def test_simulate_rejects_a_fraction_of_a_slot():
    # a cache of 2.5 slots never filled, so only the cold misses counted
    tr = Trace([0, 1, 2, 0, 1, 2, 3, 0, 1])
    with pytest.raises(ValueError, match="k must be a whole number, got 2.5"):
        simulate(build_policy("lru"), tr, 2.5, compute_opt=False)
    assert [simulate(build_policy("lru"), tr, k).misses
            for k in (2, 2.0, np.int64(2))] == [9, 9, 9]


def test_run_result_ratio_handles_missing_opt():
    assert RunResult("lru", 6, 3, 0, 0.0).ratio == 2.0
    assert RunResult("lru", 6, None, 0, 0.0).ratio is None
    assert RunResult("lru", 6, 0, 0, 0.0).ratio is None
    res = simulate(LRUPolicy(), Trace([0, 1, 0]), 2, compute_opt=False)
    assert res.opt_misses is None and res.ratio is None


# --- combiners ---------------------------------------------------------------


def test_switch_det_abandons_a_misled_lane():
    tr = adversarial_pinning_trace(400)
    bundle = inverted_nrt(tr)
    opt = opt_cost(tr, 2)
    raw = simulate(build_policy("blind_oracle"), tr, 2, bundle, opt_misses=opt)
    det = simulate(build_policy("switch_det(blind_oracle,lru)"), tr, 2, bundle, opt_misses=opt)
    assert opt == 3 and raw.misses == 400
    assert det.misses == 4


def test_switch_det_keeps_a_well_predicted_lane():
    rng = np.random.default_rng(6)
    for _ in range(20):
        tr = random_trace(rng, 300, 8)
        bundle = perfect_nrt(tr)
        opt = opt_cost(tr, 3)
        det = simulate(build_policy("switch_det(blind_oracle,lru)"), tr, 3, bundle, opt_misses=opt)
        assert det.misses == opt


def test_switch_rand_stays_near_the_better_lane():
    tr = adversarial_pinning_trace(400)
    bundle = inverted_nrt(tr)
    opt = opt_cost(tr, 2)
    for seed in range(5):
        res = simulate(
            build_policy("switch_rand(blind_oracle,lru)"), tr, 2, bundle,
            seed=seed, opt_misses=opt,
        )
        assert res.misses <= 3 * opt


def test_switch_rand_keeps_the_better_lane_past_weight_underflow():
    # 11 pages cycled through 10 slots: `lru` misses every request and `belady`
    # one in ten. Past about 7,000 misses a lane, 0.9 ** misses underflows for
    # both lanes, so weights kept as two floats would split the draw about
    # evenly; the miss difference still favours `belady` overwhelmingly.
    tr = Trace([i % 11 for i in range(120_000)])
    policy = build_policy("switch_rand(belady,lru,0.9)")
    engine = EvictionContext(policy, tr, 10, None, DrawStream(0))
    engine.advance(100_000)
    misses, belady = engine.misses, policy.lanes[0].misses
    engine.advance(120_000)
    assert policy.lanes[1].misses == 120_000
    assert engine.misses - misses <= 1.05 * (policy.lanes[0].misses - belady)


@pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 0.99, 0.999])
def test_switch_rand_lane0_probability_is_exact(beta):
    policy = SwitchRandomizedPolicy(LRUPolicy(), LRUPolicy(), beta)
    b = Fraction(beta)
    for d in range(-1000, 1001):
        w0, w1 = Fraction(1), b ** d  # the weights scaled by beta ** -misses_0
        exact = w0 / (w0 + w1)
        p = policy.lane0_probability(d)
        assert abs(Fraction(p) - exact) <= 4 * Fraction(math.ulp(float(exact))), d


@pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 0.99, 0.999])
def test_switch_rand_lane0_probability_holds_at_any_miss_difference(beta):
    policy = SwitchRandomizedPolicy(LRUPolicy(), LRUPolicy(), beta)
    for d in [0, 1, 7, 1_000, 7_000, 74_000, 10**6, 10**7 - 1, 10**7]:
        p, q = policy.lane0_probability(d), policy.lane0_probability(-d)
        assert 0.0 <= q <= p <= 1.0
        assert abs(p + q - 1) <= 1e-15, d


@settings(deadline=None, max_examples=150)
@given(
    pages=st.lists(st.integers(0, 7), min_size=1, max_size=80),
    k=st.integers(1, 5),
    combiner=st.sampled_from(["switch_det", "switch_rand"]),
    lanes=st.tuples(*[st.sampled_from(["lru", "belady", "blind_oracle"])] * 2),
    inverted=st.booleans(),
    seed=st.integers(0, 3),
)
def test_combiner_lanes_replay_like_simulate(pages, k, combiner, lanes, inverted, seed):
    # Deterministic sub-policies draw nothing, so each lane must make exactly
    # the misses its sub-policy makes when `simulate` runs it alone.
    tr = Trace(pages)
    bundle = inverted_nrt(tr) if inverted else perfect_nrt(tr)
    policy = build_policy(f"{combiner}({lanes[0]},{lanes[1]})")
    simulate(policy, tr, k, bundle, seed=seed, compute_opt=False)
    for lane, spec in zip(policy.lanes, lanes):
        alone = simulate(build_policy(spec), tr, k, bundle, seed=seed, compute_opt=False)
        assert lane.misses == alone.misses


def test_combiner_rejects_mixed_prediction_kinds():
    with pytest.raises(ValueError):
        SwitchDeterministicPolicy(BlindOraclePolicy(), LRBFollowerPolicy())


def test_combiner_parameter_validation():
    with pytest.raises(ValueError):
        SwitchDeterministicPolicy(LRUPolicy(), BeladyPolicy(), bound=0.0)
    with pytest.raises(ValueError):
        SwitchRandomizedPolicy(LRUPolicy(), BeladyPolicy(), beta=1.0)


@pytest.mark.parametrize("param", ["nan", "inf", "-inf", "0", "-1"])
def test_switch_det_bound_must_be_finite_and_positive(param):
    with pytest.raises(ValueError, match="bound must be finite and positive"):
        build_policy(f"switch_det(lru,marker,{param})")


@pytest.mark.parametrize("k", (3, 10, 100))
def test_choose_victim_wrapped_as_a_plain_function_keeps_every_decision(k):
    # The benchmark's tracer times victim choice by setting a plain function
    # that calls the class's `choose_victim` in its place on every policy
    # class that defines one, and on `GuardPolicy`. A `choose_victim` that is
    # not a plain method (say, another class's function bound to the name)
    # breaks under that wrapping while every unwrapped run still passes
    trace = random_trace(np.random.default_rng(k), 2000, k + 1 + k // 2)

    def evictions(spec):  # on a fresh bundle: a FITF bundle draws on across runs
        policy = build_policy(spec)
        bundle = seeded_bundle(policy.requires, trace, k, seed=k)
        return eviction_log(policy, trace, k, bundle, k)[0]

    specs = [p + s for p in ("", "guard:") for s in ("blind_oracle", "belady", "fitf", "lrb")]
    want = {spec: evictions(spec) for spec in specs}
    classes = [cls for cls in vars(cachesim.policy).values()
               if isinstance(cls, type) and issubclass(cls, Policy)
               and cls is not Policy and "choose_victim" in vars(cls)] + [GuardPolicy]
    with ExitStack() as stack:
        for cls in classes:
            fn = getattr(cls, "choose_victim")

            def passing(*args, fn=fn):
                return fn(*args)

            stack.enter_context(mock.patch.object(cls, "choose_victim", passing))
        got = {spec: evictions(spec) for spec in specs}
    assert got == want
    assert all(want.values())


# --- policy spec grammar -----------------------------------------------------


def test_build_policy_simple_names():
    for name in ("lru", "marker", "belady", "blind_oracle", "lrb", "fitf"):
        assert build_policy(name).name == name


def test_build_policy_combiner_and_guard_nesting():
    p = build_policy("switch_det(blind_oracle,lru,1.5)")
    assert p.name == "switch_det(blind_oracle,lru,1.5)"
    assert p.requires is PredictionKind.NRT

    q = build_policy("guard:switch_rand(lrb,marker)")
    assert q.name == "guard:switch_rand(lrb,marker,0.99)"
    assert q.requires is PredictionKind.BINARY

    nested = build_policy("switch_det(guard:lru,belady)")
    assert nested.name == "switch_det(guard:lru,belady,1)"
    # a guard may hold a guard in a combiner's lane, just not directly
    assert build_policy("guard:" + nested.name).name == "guard:switch_det(guard:lru,belady,1)"


def test_build_policy_rejects_malformed_specs():
    for spec in (
        "nope",
        "switch_det(lru)",
        "switch_det(lru,belady,1,2)",
        "switch_det(lru,belady",
        "switch_det(lru,(belady)",
        "switch_rand(lru,belady,two)",
        "guard:",
        "guard:guard:lru",
    ):
        with pytest.raises(ValueError):
            build_policy(spec)
    with pytest.raises(ValueError, match="already guarded"):
        GuardPolicy(GuardPolicy(LRUPolicy()))
