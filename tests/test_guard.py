"""Guarded wrapper: phase mechanics, counters, invariants, and reports."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachesim import (
    InvariantViolation,
    Policy,
    Trace,
    adversarial_pinning_trace,
    build_policy,
    flip_labels,
    inverted_nrt,
    noisy_fitf,
    opt_cost,
    perfect_nrt,
    phase_report,
    phase_stats_csv,
    robustness_bound,
    simulate,
    synthetic_nrt,
)
from cachesim.guard import GuardPolicy, PhaseStats, harmonic
from cachesim.policy import LRUPolicy
from .reference_impls import (
    CountingGuardPolicy,
    _RandomSet,
    catch_up,
    cyclic_trace,
    opt_against_old_evictions,
    random_trace,
)


def test_harmonic_values():
    assert harmonic(1) == 1.0
    assert harmonic(2) == 1.5
    assert harmonic(10) == pytest.approx(2.9289682539682538)
    with pytest.raises(ValueError):
        harmonic(0)


def test_robustness_bound_values():
    assert robustness_bound(1) == 4.0
    assert robustness_bound(2) == 5.0
    assert robustness_bound(10) == pytest.approx(7.857936507936508)


def test_random_set_discard_and_membership():
    s = _RandomSet([3, 1, 4, 1, 5][:3])  # duplicates never occur in practice
    s.reset([3, 1, 4, 5])
    s.discard(1)
    s.discard(99)  # absent: no-op
    assert len(s) == 3
    assert 1 not in s and 3 in s and 4 in s and 5 in s
    assert sorted(s) == [3, 4, 5]
    s.discard(3)
    s.discard(4)
    s.discard(5)
    assert len(s) == 0


def test_random_set_sampling_is_uniformish():
    s = _RandomSet([0, 1, 2])
    rng = np.random.default_rng(0)
    counts = {0: 0, 1: 0, 2: 0}
    for _ in range(3000):
        counts[s.sample(rng)] += 1
    assert min(counts.values()) > 800


def test_random_set_rejects_empty_sample():
    with pytest.raises(InvariantViolation):
        _RandomSet().sample(np.random.default_rng(0))


def test_guard_exposes_base_name_and_requirements():
    g = build_policy("guard:blind_oracle")
    assert g.name == "guard:blind_oracle"
    assert g.requires is build_policy("blind_oracle").requires


def test_phase_counters_frozen_example():
    # Perfect predictions, k=3. Phase 0 loads three pages without evicting;
    # phase 1 admits two new pages, each eviction-causing (one victim old,
    # one new); the final open phase re-admits one page evicted well before.
    tr = Trace([0, 1, 2, 3, 4, 0, 1, 3])
    res = simulate(build_policy("guard:blind_oracle"), tr, 3, perfect_nrt(tr))
    assert res.misses == res.opt_misses == 6
    assert res.phase_stats == [
        PhaseStats(q=0, c_q=3, n_q=0, o_q=0, n_q_new=0, n_q_old=0),
        PhaseStats(q=1, c_q=2, n_q=2, o_q=0, n_q_new=1, n_q_old=1),
        PhaseStats(q=2, c_q=1, n_q=1, o_q=0, n_q_new=0, n_q_old=1),
    ]
    rep = phase_report(res)
    assert not rep.violations
    assert rep.c_sum == 6 and rep.n_old_sum == 2
    # 6 misses = 3 cold fills + (0 + 2 + 1) eviction-causing misses
    assert res.misses == min(3, tr.universe_size) + sum(ph.n_q + ph.o_q for ph in rep.phases)
    # even this perfectly predicted run leaves sum(n_q_old) below opt
    literal_upper_ok, reverse_lower_ok = opt_against_old_evictions(rep.phases, rep.opt_misses)
    assert literal_upper_ok is False
    assert reverse_lower_ok is True


def test_phase_stats_csv_format():
    tr = Trace([0, 1, 2, 3, 4, 0, 1, 3])
    res = simulate(build_policy("guard:blind_oracle"), tr, 3, perfect_nrt(tr))
    assert phase_stats_csv(res.phase_stats) == (
        "phase,c_q,n_q,o_q,n_q_new,n_q_old\n"
        "0,3,0,0,0,0\n"
        "1,2,2,0,1,1\n"
        "2,1,1,0,0,1\n"
    )


def test_cache_that_never_fills_stays_in_phase_zero():
    res = simulate(GuardPolicy(LRUPolicy()), Trace([0, 1, 2, 0]), 10)
    assert res.phase_stats == [PhaseStats(q=0, c_q=3, n_q=0, o_q=0, n_q_new=0, n_q_old=0)]
    with pytest.raises(ValueError):
        phase_report(simulate(LRUPolicy(), Trace([0, 1]), 2))


def test_guard_rescues_a_misled_follower():
    tr = adversarial_pinning_trace(400)
    bundle = inverted_nrt(tr)
    opt = opt_cost(tr, 2)
    raw = simulate(build_policy("blind_oracle"), tr, 2, bundle, opt_misses=opt)
    assert raw.ratio > 100
    for seed in range(4):
        guard = build_policy("guard:blind_oracle")
        res = simulate(guard, tr, 2, bundle, seed=seed, opt_misses=opt)
        assert res.misses == 4
        assert res.ratio <= robustness_bound(2)
        assert guard.guard_events == 1 and guard.max_guarded == 1


def test_guard_never_intervenes_on_well_predicted_runs():
    rng = np.random.default_rng(7)
    for _ in range(30):
        tr = random_trace(rng, 200, 8)
        k = int(rng.integers(2, 6))
        guard = build_policy("guard:blind_oracle")
        res = simulate(guard, tr, k, perfect_nrt(tr))
        assert res.misses == res.opt_misses
        assert guard.guard_events == 0 and guard.max_guarded == 0


def test_cyclic_pressure_frozen_counters():
    tr = cyclic_trace(3, 60)
    res = simulate(build_policy("guard:blind_oracle"), tr, 2, inverted_nrt(tr))
    rep = phase_report(res)
    assert res.opt_misses == 31 and res.misses == 60
    assert not rep.violations
    assert rep.c_sum == 31 and rep.n_old_sum == 29
    # 60 misses = 2 cold fills + 58 eviction-causing misses
    assert sum(ph.n_q + ph.o_q for ph in rep.phases) == 58
    assert opt_against_old_evictions(rep.phases, rep.opt_misses) == (False, True)


def test_single_slot_cache_degenerates_cleanly():
    tr = cyclic_trace(2, 20)
    res = simulate(GuardPolicy(LRUPolicy()), tr, 1)
    assert res.misses == 20 and res.opt_misses == 20
    assert not phase_report(res).violations


def test_counter_inequalities_hold_across_regimes():
    rng = np.random.default_rng(8)
    regimes = [
        ("guard:lru", lambda tr, k, s: None),
        ("guard:marker", lambda tr, k, s: None),
        ("guard:blind_oracle", lambda tr, k, s: synthetic_nrt(tr, 2.0, seed=s)),
        ("guard:blind_oracle", lambda tr, k, s: inverted_nrt(tr)),
        ("guard:lrb", lambda tr, k, s: flip_labels(tr, k, 0.3, seed=s)),
    ]
    for seed in range(12):
        tr = random_trace(rng, 250, 9)
        k = int(rng.integers(2, 7))
        for spec, make in regimes:
            res = simulate(build_policy(spec), tr, k, make(tr, k, seed), seed=seed)
            rep = phase_report(res)
            assert not rep.violations, rep.violations
            for ph in rep.phases:
                assert 0 <= ph.n_q_old <= ph.c_q
                assert ph.n_q <= 2 * ph.c_q


def test_guard_composes_with_combiners():
    tr = adversarial_pinning_trace(400)
    bundle = inverted_nrt(tr)
    res = simulate(build_policy("guard:switch_det(blind_oracle,lru)"), tr, 2, bundle)
    assert not phase_report(res).violations
    assert res.ratio <= robustness_bound(2)


class _StuckBase(Policy):
    """Always evicts page 0, even after the wrapper shields it."""

    name = "stuck"

    def choose_victim(self, ctx, rng):
        return 0


def test_base_returning_a_guarded_page_is_caught():
    # 0 is evicted in phase 1, re-requested (so it becomes guarded), and the
    # next miss routes through the base, which illegally names it again.
    tr = Trace([0, 1, 2, 3, 0, 4])
    with pytest.raises(InvariantViolation):
        simulate(GuardPolicy(_StuckBase()), tr, 3)


def test_report_requires_phase_stats():
    res = simulate(LRUPolicy(), Trace([0, 1, 0]), 1)
    with pytest.raises(ValueError):
        phase_report(res)


class _LoadsAudit(GuardPolicy):
    """Guard wrapper that, after every request and the guard's catch-up with
    it, compares the keys of `_loads` with the new pages requested since the
    phase began, read off the request stream: the pages requested at or
    after the request that opened the phase, less the phase's `old_pages`
    snapshot. It also records that count per phase, so the run's c_q column
    can be checked."""

    needs_request_hook = True

    def begin_run(self, trace, k, bundle, rng):
        super().begin_run(trace, k, bundle, rng)
        self.pages = trace.pages
        self.stream: list = []
        self.phase_starts = [0]
        self.c_q: list[int] = [0]
        self.mismatches: list[int] = []

    def on_request(self, page, now, hit):
        super().on_request(page, now, hit)
        catch_up(self, self.pages, now)
        if self.phase != len(self.phase_starts) - 1:  # this request opened a phase
            self.phase_starts.append(len(self.stream))
            self.c_q.append(0)
        self.stream.append(page)
        new = set(self.stream[self.phase_starts[-1]:]) - self.old_pages
        self.c_q[-1] = len(new)
        if set(self._loads) != new:
            self.mismatches.append(now)


GUARDED_BASES = {
    "blind_oracle": lambda tr, k, s: inverted_nrt(tr) if s % 2 else synthetic_nrt(tr, 1.0, seed=s),
    "belady": lambda tr, k, s: None,
    "lrb": lambda tr, k, s: flip_labels(tr, k, 0.5 + 0.5 * (s % 2), seed=s),
    "fitf": lambda tr, k, s: noisy_fitf(tr, k, 0.5 + 0.5 * (s % 2), seed=s),
    "marker": lambda tr, k, s: None,
    "lru": lambda tr, k, s: None,
}


@settings(deadline=None, max_examples=120)
@given(
    base=st.sampled_from(sorted(GUARDED_BASES)),
    k=st.integers(1, 12),
    spread=st.integers(0, 100),
    n=st.integers(1, 400),
    seed=st.integers(0, 2**16),
)
def test_loads_keys_are_the_new_pages_requested_this_phase(base, k, spread, n, seed):
    # the fact behind c_q = len(_loads); the guard's own invariant checks
    # stay armed, so a violation fails the run
    rng = np.random.default_rng(seed)
    tr = random_trace(rng, n, k + 1 + spread * k // 100)
    guard = _LoadsAudit(build_policy(base))
    res = simulate(guard, tr, k, GUARDED_BASES[base](tr, k, seed), seed=seed, compute_opt=False)
    assert guard.mismatches == []
    assert guard.phase_starts[0] == 0 and len(guard.phase_starts) == guard.phase + 1
    assert [ph.c_q for ph in res.phase_stats] == guard.c_q


# every base the grammar offers, with the predictions that make the guard
# work hardest: inverted times, every label flipped, an always-wrong FITF
COUNTED_BASES = {
    "lru": lambda tr, k: None,
    "marker": lambda tr, k: None,
    "belady": lambda tr, k: None,
    "blind_oracle": lambda tr, k: inverted_nrt(tr),
    "lrb": lambda tr, k: flip_labels(tr, k, 1.0, seed=k),
    "fitf": lambda tr, k: noisy_fitf(tr, k, 1.0, seed=k),
    "switch_det(lru,marker)": lambda tr, k: None,
    "switch_rand(lrb,marker)": lambda tr, k: flip_labels(tr, k, 1.0, seed=k),
}


def check_phase_work(guard):
    """Each list entry leaves at most once a phase, each draw is a redirect's
    victim or removes an entry, and each read is a tail pop, one look that
    stops them at an eviction, or a draw."""
    for work in guard.phase_work:
        pops = work.tail_pops + work.rejected
        assert pops <= work.reset_pages
        assert work.draws == work.redirects + work.rejected
        assert work.reads <= pops + work.evictions + work.draws


@pytest.mark.parametrize("k", [1, 2, 5, 10, 100, 1000])
@pytest.mark.parametrize("base", sorted(COUNTED_BASES))
def test_guard_work_is_constant_per_request(base, k):
    # "O(1) extra per request", counted: phase resets are at least k
    # requests apart, so their O(k) refills add up to at most n + k pages,
    # and per phase the list's pops, reads and draws are bounded by its
    # reset size, evictions and redirects
    n = 4 * k + 2000
    tr = random_trace(np.random.default_rng(k), n, k + 1 + k // 2)
    guard = CountingGuardPolicy(build_policy(base))
    simulate(guard, tr, k, COUNTED_BASES[base](tr, k), seed=k, compute_opt=False)
    gaps = [b - a for a, b in zip(guard.resets, guard.resets[1:])]
    assert len(guard.resets) >= 2
    assert min(gaps) >= k
    assert guard.reset_pages <= n + k
    check_phase_work(guard)
    assert sum(w.redirects for w in guard.phase_work) == guard.guard_events


@pytest.mark.parametrize("k", [10, 100, 1000])
def test_well_predicted_guard_never_draws(k):
    # Under perfect predictions the guard never redirects, so it never
    # draws: its work is the tail pops, each entry at most once a phase, and
    # one look that stops them at each eviction
    n = 4 * k + 2000
    tr = random_trace(np.random.default_rng(k), n, k + 1 + k // 2)
    guard = CountingGuardPolicy(build_policy("blind_oracle"))
    res = simulate(guard, tr, k, perfect_nrt(tr), seed=k)
    assert res.misses == res.opt_misses and guard.guard_events == 0
    assert len(guard.resets) >= 2
    assert sum(w.draws for w in guard.phase_work) == 0
    check_phase_work(guard)


# the guarded specs the relabel tests replay, with predictions under which
# the guard redirects; FITF's wrong answers, `marker` and `lrb` draw from
# sorted pools, so only an order-keeping relabel leaves their draws alone
RELABEL_SPECS = {
    "guard:lru": lambda tr, k, s: None,
    "guard:blind_oracle": lambda tr, k, s: synthetic_nrt(tr, 1.0, seed=s),
    "guard:marker": lambda tr, k, s: None,
    "guard:lrb": lambda tr, k, s: flip_labels(tr, k, 0.3, seed=s),
    "guard:fitf": lambda tr, k, s: noisy_fitf(tr, k, 0.3, seed=s),
    "guard:switch_rand(lrb,marker)": lambda tr, k, s: flip_labels(tr, k, 0.3, seed=s),
}


def relabelled_runs(spec, relabel):
    """The (k, trace, seed) of each of 72 seeded runs of `spec` whose misses
    or `phase_stats` differ between a random 800-request trace and the same
    trace with each page p renamed `relabel(universe, t)[p]`, for the t-th of
    six traces at each k in {2, 3, 5, 8}, three seeds each."""
    differ = []
    for k in (2, 3, 5, 8):
        for t in range(6):
            universe = k + 1 + t * k // 2
            trace = random_trace(np.random.default_rng(1000 * k + t), 800, universe)
            names = relabel(universe, t)
            renamed = Trace([names[p] for p in trace.pages])
            for seed in range(3):
                got = []
                for tr in (trace, renamed):
                    bundle = RELABEL_SPECS[spec](tr, k, seed)
                    res = simulate(build_policy(spec), tr, k, bundle, seed=seed,
                                   compute_opt=False)
                    got.append((res.misses, res.phase_stats))
                if got[0] != got[1]:
                    differ.append((k, t, seed))
    return differ


@pytest.mark.parametrize("spec", sorted(RELABEL_SPECS))
def test_guarded_runs_keep_their_results_under_an_order_keeping_relabel(spec):
    # the engine's cache iterates in load order, so a phase reset fills
    # `unrequested` in an order that follows from the requests alone: page
    # ids that keep their order but hash apart must give the same draws
    differ = relabelled_runs(spec, lambda universe, t: [1024 * p + 7 for p in range(universe)])
    assert differ == [], f"{len(differ)} of 72 runs differ, first {differ[:3]}"


@pytest.mark.parametrize("spec", ("guard:lru", "guard:blind_oracle"))
def test_unsorted_guarded_runs_keep_their_results_under_any_relabel(spec):
    # `lru` and `blind_oracle` order by request indices and predictions only,
    # so under them any renaming of the pages leaves every draw alone
    def shuffled(universe, t):
        ids = np.random.default_rng(t).permutation(universe)
        return [int(i) * 977 + 3 for i in ids]

    differ = relabelled_runs(spec, shuffled)
    assert differ == [], f"{len(differ)} of 72 runs differ, first {differ[:3]}"
