"""The hook-free guard against the eager one it replaced.

`GuardPolicy` takes no request hook of its own: it tells an unrequested page
from the engine's `last_used` at each eviction, and it records the evictions
it chooses inside `choose_victim`. `EagerGuardPolicy` in `reference_impls.py`
keeps the unrequested pages as a set, with a hook on every request and an
engine-called `on_evict`, run on `EagerEvictionContext`, and that set alone
decides which entries of its own copy of the reset list it pops and which
draws it rejects. Over every base and the compositions below, both must
evict the same pages at the same requests, count the same redirects,
shielded pages and phase counters, and, after every request, hold the same
reset list in the same order, the same `_loads` and the same phase state. A
run whose predictions turn from exact to inverted at a phase start,
mid-phase or at a phase's last eviction makes its first redirect late in the
run, and must still match the eager guard.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cachesim.policy
from cachesim import (
    InvariantViolation,
    build_policy,
    flip_labels,
    inverted_nrt,
    noisy_fitf,
    perfect_nrt,
    synthetic_nrt,
)
from cachesim.draws import DrawStream
from cachesim.guard import GuardPolicy
from cachesim.policy import (
    BeladyPolicy,
    BlindOraclePolicy,
    EvictionContext,
    FitFFollowerPolicy,
    LRBFollowerPolicy,
    LRUPolicy,
    SwitchDeterministicPolicy,
    SwitchRandomizedPolicy,
)
from cachesim.predict import PredictionBundle, PredictionKind
from .reference_impls import (
    CountingGuardPolicy,
    EagerEvictionContext,
    EagerGuardPolicy,
    EagerMarkerPolicy,
    catch_up,
    random_trace,
)

# spec -> (the eager reference, the kind of predictions it reads)
SPECS = {
    "guard:lru": (lambda: EagerGuardPolicy(LRUPolicy()), None),
    "guard:marker": (lambda: EagerGuardPolicy(EagerMarkerPolicy()), None),
    "guard:belady": (lambda: EagerGuardPolicy(BeladyPolicy()), None),
    "guard:blind_oracle": (lambda: EagerGuardPolicy(BlindOraclePolicy()), "nrt"),
    "guard:lrb": (lambda: EagerGuardPolicy(LRBFollowerPolicy()), "labels"),
    "guard:fitf": (lambda: EagerGuardPolicy(FitFFollowerPolicy()), "fitf"),
    "switch_rand(guard:fitf,fitf)": (
        lambda: SwitchRandomizedPolicy(EagerGuardPolicy(FitFFollowerPolicy()),
                                       FitFFollowerPolicy()), "fitf"),
    "guard:switch_det(guard:lru,belady)": (
        lambda: EagerGuardPolicy(SwitchDeterministicPolicy(EagerGuardPolicy(LRUPolicy()),
                                                           BeladyPolicy())), None),
    "guard:switch_det(blind_oracle,marker)": (
        lambda: EagerGuardPolicy(SwitchDeterministicPolicy(BlindOraclePolicy(),
                                                           EagerMarkerPolicy())), "nrt"),
}


def make_bundle(kind, trace, k, seed):
    """A fresh bundle per run: a FITF bundle keeps its own RNG."""
    if kind == "nrt":
        return inverted_nrt(trace) if seed % 2 else synthetic_nrt(trace, 1.0, seed=seed)
    if kind == "labels":
        return flip_labels(trace, k, 0.5 + 0.5 * (seed % 2), seed=seed)
    if kind == "fitf":
        return noisy_fitf(trace, k, 0.5 + 0.5 * (seed % 2), seed=seed)
    return None


def guards(policy):
    """Every guard inside `policy`, outermost first."""
    if isinstance(policy, (GuardPolicy, EagerGuardPolicy)):
        yield policy
        yield from guards(policy.base)
    for sub in getattr(policy, "policies", ()):
        yield from guards(sub)


def state(guard) -> tuple:
    return (list(guard.unrequested), dict(guard._loads),
            (guard.phase, guard._n, guard._o, guard._n_new, guard._n_old),
            list(guard._closed), set(guard.guarded), set(guard.evicted_this_phase),
            set(guard.old_pages), guard.guard_events, guard.max_guarded)


def replay(policy, engine_cls, trace, k, bundle, seed, audit=None):
    """Every (request, victim) of one run, ending with the invariant violation
    that stopped it, if any; `audit(t)` runs after each request."""
    engine = engine_cls(policy, trace, k, bundle, DrawStream(seed))
    log = []
    try:
        for t in range(1, len(trace) + 1):
            engine.advance(t)
            if engine.last_evict_t == t:
                log.append((t, engine.last_evict_victim))
            if audit is not None:
                audit(t)
    except InvariantViolation as exc:
        log.append(str(exc))
    return log


def eager_run(spec, trace, k, seed):
    """The reference run, with the states of its guards after every request;
    combiner lanes run on the eager engine too."""
    make, kind = SPECS[spec]
    policy = make()
    states = []
    with mock.patch.object(cachesim.policy, "EvictionContext", EagerEvictionContext):
        log = replay(policy, EagerEvictionContext, trace, k, make_bundle(kind, trace, k, seed),
                     seed, lambda t: states.append([state(g) for g in guards(policy)]))
    return policy, log, states


def check_lazy_against_eager(spec, trace, k, seed):
    kind = SPECS[spec][1]
    eager, want, want_states = eager_run(spec, trace, k, seed)

    lazy = build_policy(spec)
    got = replay(lazy, EvictionContext, trace, k, make_bundle(kind, trace, k, seed), seed)
    assert got == want
    if want and isinstance(want[-1], str):
        return want, eager
    pairs = list(zip(guards(lazy), guards(eager)))
    assert len(pairs) == len(list(guards(eager))) > 0
    for g, e in pairs:
        assert (g.guard_events, g.max_guarded) == (e.guard_events, e.max_guarded)
        assert g.phase_stats == e.phase_stats

    # the same run again, its phase-0 loads caught up after every request
    audited = build_policy(spec)
    got_states = []

    def audit(t):
        for g in guards(audited):
            catch_up(g, trace.pages, t)
        got_states.append([state(g) for g in guards(audited)])

    got = replay(audited, EvictionContext, trace, k, make_bundle(kind, trace, k, seed), seed, audit)
    assert got == want
    assert len(got_states) == len(want_states)
    for t, (a, b) in enumerate(zip(got_states, want_states), 1):
        assert a == b, f"guard states differ after request {t}"
    return want, eager


@settings(deadline=None, max_examples=100)
@given(
    spec=st.sampled_from(sorted(SPECS)),
    k=st.integers(1, 12),
    universe=st.integers(1, 26),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**16),
)
def test_lazy_guard_matches_eager_guard(spec, k, universe, n, seed):
    trace = random_trace(np.random.default_rng(seed), n, universe)
    check_lazy_against_eager(spec, trace, k, seed)


@pytest.mark.parametrize("spec", sorted(SPECS))
def test_lazy_guard_matches_eager_guard_without_evictions(spec):
    # the whole run stays in phase 0, so every count comes from the final
    # catch-up that `phase_stats` makes
    trace = random_trace(np.random.default_rng(3), 200, 5)
    assert check_lazy_against_eager(spec, trace, 12, 3)[0] == []
    policy = build_policy(spec)
    replay(policy, EvictionContext, trace, 12, make_bundle(SPECS[spec][1], trace, 12, 3), 3)
    for g in guards(policy):
        assert [(ph.q, ph.c_q, ph.n_q) for ph in g.phase_stats] == [(0, 5, 0)]


@pytest.mark.parametrize("spec", sorted(SPECS))
def test_lazy_guard_matches_eager_guard_under_pressure(spec):
    # long enough at small k that every guard a base can mislead (all but
    # belady's) shields pages and redirects
    trace = random_trace(np.random.default_rng(11), 2000, 7)
    log, eager = check_lazy_against_eager(spec, trace, 4, 1)
    assert len(log) > 300 and not isinstance(log[-1], str)
    outer = next(guards(eager))
    assert (outer.guard_events > 0) == (spec != "guard:belady")


def cut_bundle(trace, cut):
    """Next-request-time predictions, exact for the first `cut` requests and
    inverted after them."""
    exact, inverted = perfect_nrt(trace).nrt, inverted_nrt(trace).nrt
    return PredictionBundle(PredictionKind.NRT, nrt=exact[:cut] + inverted[cut:])


@pytest.mark.parametrize("where", ("phase start", "mid-phase", "last eviction of a phase"))
@pytest.mark.parametrize("k", (2, 10, 100, 1000))
def test_late_first_redirect_matches_eager_guard(k, where):
    # the cut falls in the first phase, from a third of the exact run's
    # phases on (and not phase 1), with evictions after the one that opened
    # it; at k = 2 such a phase has one, so mid-phase is its last eviction
    trace = random_trace(np.random.default_rng(k), 16 * k + 2000, k + 1 + k // 2)
    exact = CountingGuardPolicy(BlindOraclePolicy())
    evictions = [t for t, _ in replay(exact, EvictionContext, trace, k, perfect_nrt(trace), k)]
    resets = exact.resets
    assert exact.guard_events == 0 and len(resets) >= 4
    j = next(j for j in range(max(1, len(resets) // 3), len(resets) - 1)
             if any(resets[j] < t < resets[j + 1] for t in evictions))
    inside = [t for t in evictions if resets[j] < t < resets[j + 1]]
    # the first request whose prediction is inverted
    first = {"phase start": resets[j], "mid-phase": inside[len(inside) // 2],
             "last eviction of a phase": inside[-1]}[where]
    bundle = cut_bundle(trace, first - 1)

    eager = EagerGuardPolicy(BlindOraclePolicy())
    want = replay(eager, EagerEvictionContext, trace, k, bundle, k)
    lazy = GuardPolicy(BlindOraclePolicy())
    states = []  # (redirects, phase) after each request
    got = replay(lazy, EvictionContext, trace, k, bundle, k,
                 lambda t: states.append((lazy.guard_events, lazy.phase)))
    assert got == want
    assert not isinstance(got[-1], str)
    assert lazy.phase_stats == eager.phase_stats
    assert (lazy.guard_events, lazy.max_guarded) == (eager.guard_events, eager.max_guarded)
    # the run redirected, first after the cut and in a phase past the first
    assert lazy.guard_events > 0
    t = next(t for t, (redirects, _) in enumerate(states, 1) if redirects)
    assert t >= first and states[t - 1][1] >= 2
