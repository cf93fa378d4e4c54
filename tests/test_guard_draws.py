"""Exact distributions of guarded runs, enumerated over every draw.

A redirect draws its victim by rejection from the phase's reset list, so one
redirect may take several `integers` calls, and a given seed gives other
evictions than the earlier rule, which drew one index into the swap-removal
order of the unrequested set (`SwapRemoveGuardPolicy` in `reference_impls.py`).
Only the distribution of each run is claimed to stay, and it is checked here
exactly: in a guarded run of `blind_oracle`, `lrb` or `marker` every random
choice is an `integers(n)` call on the run's stream, so a stream that forces
a prefix of answers and records the n of every call lets a depth-first search
visit every draw sequence once, with weight the product of 1/n over its
calls. The eviction logs of `GuardPolicy` must have the same probabilities,
as fractions, as those of the earlier rule.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from cachesim import flip_labels, inverted_nrt, synthetic_nrt
from cachesim.guard import GuardPolicy
from cachesim.policy import BlindOraclePolicy, EvictionContext, LRBFollowerPolicy, MarkerPolicy
from .reference_impls import (
    EagerEvictionContext,
    EagerMarkerPolicy,
    SwapRemoveGuardPolicy,
    eviction_log,
    random_trace,
)


class ForcingStream:
    """A draw stream that answers the j-th `integers(n)` call with the j-th
    forced answer, or 0 past them, and records the n of every call."""

    def __init__(self, forced: tuple[int, ...]):
        self.forced = forced
        self.bounds: list[int] = []

    def integers(self, n: int) -> int:
        j = len(self.bounds)
        self.bounds.append(n)
        return self.forced[j] if j < len(self.forced) else 0

    def random(self) -> float:
        raise AssertionError("the runs enumerated here draw only integers")


def log_distribution(make, engine_cls, trace, k, bundle) -> tuple[dict[tuple, Fraction], int]:
    """Each eviction log of the run, as (request, victim) pairs, with its
    exact probability, and the number of draw sequences visited. Each
    visited run is one leaf, its calls past the forced prefix answered 0;
    each other answer of such a call starts a subtree of its own."""
    dist: dict[tuple, Fraction] = defaultdict(Fraction)
    pending = [()]
    leaves = 0
    while pending:
        leaves += 1
        forced = pending.pop()
        stream = ForcingStream(forced)
        engine = engine_cls(make(), trace, k, bundle, stream)
        log = []
        for i in range(1, len(trace) + 1):
            engine.advance(i)
            if engine.last_evict_t == i:
                log.append((i, engine.last_evict_victim))
        dist[tuple(log)] += Fraction(1, prod(stream.bounds))
        answers = forced + (0,) * (len(stream.bounds) - len(forced))
        for j in range(len(forced), len(stream.bounds)):
            pending.extend(answers[:j] + (a,) for a in range(1, stream.bounds[j]))
    assert sum(dist.values()) == 1
    return dict(dist), leaves


# regime -> (base, the base under the earlier rule's eager engine, bundle)
REGIMES = {
    "blind_oracle-inverted": (BlindOraclePolicy, BlindOraclePolicy,
                              lambda tr, k, s: inverted_nrt(tr)),
    "blind_oracle-sigma2": (BlindOraclePolicy, BlindOraclePolicy,
                            lambda tr, k, s: synthetic_nrt(tr, 2.0, seed=s)),
    "lrb-pflip0.7": (LRBFollowerPolicy, LRBFollowerPolicy,
                     lambda tr, k, s: flip_labels(tr, k, 0.7, seed=s)),
    "marker": (MarkerPolicy, EagerMarkerPolicy, lambda tr, k, s: None),
}


def distributions(regime: str, k: int, t: int, guard=GuardPolicy):
    """The log distributions of `guard` and of the earlier rule on the t-th
    trace at cache size k, 20 requests over k + 1 + t pages, and the draw
    sequences `guard` made."""
    base, eager_base, make_bundle = REGIMES[regime]
    trace = random_trace(np.random.default_rng(10 * k + t), 20, k + 1 + t, burst_prob=0.0)
    bundle = make_bundle(trace, k, 10 * k + t)
    got, leaves = log_distribution(lambda: guard(base()), EvictionContext, trace, k, bundle)
    want, _ = log_distribution(lambda: SwapRemoveGuardPolicy(eager_base()),
                               EagerEvictionContext, trace, k, bundle)
    return got, want, leaves


@pytest.mark.parametrize("t", (0, 1))
@pytest.mark.parametrize("k", (2, 3, 4))
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_guard_keeps_the_earlier_rules_log_distribution(regime, k, t):
    got, want, leaves = distributions(regime, k, t)
    assert leaves > 1  # some draw has a choice
    assert got == want


def test_seeded_runs_draw_other_victims_than_the_earlier_rule():
    # the change the exact test allows: one seed's evictions may differ
    trace = random_trace(np.random.default_rng(5), 200, 6)
    bundle = inverted_nrt(trace)
    differ = 0
    for seed in range(10):
        got = eviction_log(GuardPolicy(BlindOraclePolicy()), trace, 4, bundle, seed)[0]
        want = eviction_log(SwapRemoveGuardPolicy(BlindOraclePolicy()), trace, 4, bundle,
                            seed, EagerEvictionContext)[0]
        differ += got != want
    assert differ > 0
