"""Offline-optimum oracles: furthest-in-future replay and exact enumeration."""

from __future__ import annotations

import numpy as np
import pytest

from cachesim import Trace, opt_cost
from cachesim.oracle import belady_labels, belady_simulate
from .reference_impls import (
    belady_misses_naive,
    brute_force_opt,
    current_one_pages,
    fitf_page,
    max_belady_simulate,
    random_trace,
    rb_random_policy_cost,
)


def test_belady_five_request_example():
    # a b c b a at k=2: at t=3 evict a (b is needed sooner), at t=5 evict c
    # (b and c are both dead; the least-recently-used of the tie goes first)
    tr = Trace([0, 1, 2, 1, 0])
    out = belady_simulate(tr, 2)
    assert out.misses == 4
    assert out.labels == bytearray([1, 0, 1, 0, 0])
    assert max_belady_simulate(tr, 2).eviction_events == [(3, 0), (5, 2)]


def test_belady_no_evictions_when_cache_fits():
    tr = Trace([0, 1, 0, 1])
    out = belady_simulate(tr, 2)
    assert out.misses == 2
    assert out.labels == bytearray([0, 0, 0, 0])
    assert max_belady_simulate(tr, 2).eviction_events == []


def test_belady_interleaved_example():
    # a b a c a at k=2: evicting b at t=4 keeps the hot page a
    tr = Trace([0, 1, 0, 2, 0])
    assert opt_cost(tr, 2) == 3
    assert belady_labels(tr, 2) == bytearray([0, 1, 0, 0, 0])


def test_belady_collect_states():
    # the package keeps no states; the scan reference, whose misses and
    # labels the package's equal, records them
    tr = Trace([0, 1, 2, 1, 0])
    out = max_belady_simulate(tr, 2, collect_states=True)
    got = belady_simulate(tr, 2)
    assert (out.misses, bytearray(out.labels)) == (got.misses, got.labels)
    assert out.states[0] == frozenset({0})
    assert out.states[2] == frozenset({1, 2})
    assert out.states[4] == frozenset({1, 0})


def test_belady_rejects_bad_k():
    with pytest.raises(ValueError):
        belady_simulate(Trace([0, 1]), 0)


def test_optimum_rejects_a_fraction_of_a_slot():
    # a cache of 2.5 slots never filled, so only the cold misses counted
    tr = Trace([0, 1, 2, 0, 1, 2, 3, 0, 1])
    for call in (belady_simulate, opt_cost, belady_labels):
        for k in (2.5, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                call(tr, k)
    assert opt_cost(tr, 2.0) == opt_cost(tr, np.int64(2)) == opt_cost(tr, 2) == 6


def test_belady_matches_naive_reference():
    rng = np.random.default_rng(11)
    for _ in range(120):
        tr = random_trace(rng, int(rng.integers(5, 80)), int(rng.integers(2, 9)))
        k = int(rng.integers(1, 6))
        assert belady_simulate(tr, k).misses == belady_misses_naive(tr.pages, k)


def test_belady_matches_brute_force_on_small_instances():
    rng = np.random.default_rng(5)
    for _ in range(150):
        tr = random_trace(rng, int(rng.integers(4, 15)), int(rng.integers(2, 6)))
        k = int(rng.integers(2, 4))
        assert opt_cost(tr, k) == brute_force_opt(tr, k)


def test_brute_force_guards_instance_size():
    with pytest.raises(ValueError):
        brute_force_opt(Trace(list(range(9)) * 2), 2)  # universe too large
    with pytest.raises(ValueError):
        brute_force_opt(Trace([0, 1] * 10), 2)  # too many requests


def test_labels_mark_exactly_evicted_spans():
    # label is 1 iff the offline optimum evicts that occurrence before reuse
    # (the eviction events come from the scan reference)
    tr = Trace([0, 1, 2, 0, 1, 2])
    labels = belady_simulate(tr, 2).labels
    events = max_belady_simulate(tr, 2).eviction_events
    assert sum(labels) == len(events)
    for when, page in events:
        last_req = max(i for i in range(1, when) if tr.pages[i - 1] == page)
        assert labels[last_req - 1] == 1


def test_fitf_page_resolves_ties_by_recency_then_id():
    nxt = {1: 9, 2: 9, 3: 5}
    last = {1: 2, 2: 1, 3: 3}
    # 1 and 2 tie on next request; 2 was used longer ago, so it goes first
    assert fitf_page({1, 2, 3}, 4, nxt, last) == 2
    assert fitf_page({1, 3}, 4, nxt, last) == 1
    with pytest.raises(ValueError):
        fitf_page(set(), 4, nxt, last)


def test_fitf_page_accepts_callables():
    assert fitf_page({1, 2}, 3, lambda p: {1: 7, 2: 6}[p], lambda p: 0) == 1


def test_current_one_pages_tiny_example():
    # a b c b a at k=2 just before t=3: OPT evicts a -> a is the 1-page
    tr = Trace([0, 1, 2, 1, 0])
    ones = current_one_pages(tr, 2, {0, 1}, 2)
    assert ones == {0}


def test_current_one_pages_all_zero_when_no_future_evictions():
    tr = Trace([0, 1, 0, 1])
    assert current_one_pages(tr, 2, {0, 1}, 2) == set()


def test_rb_random_policy_matches_opt():
    rng = np.random.default_rng(23)
    for _ in range(40):
        tr = random_trace(rng, int(rng.integers(10, 90)), int(rng.integers(3, 8)))
        k = int(rng.integers(2, 5))
        opt = opt_cost(tr, k)
        for seed in range(3):
            assert rb_random_policy_cost(tr, k, seed=seed) == opt


def test_rb_random_policy_is_seed_deterministic():
    tr = Trace([0, 1, 2, 3, 0, 1, 2, 3, 4, 0])
    assert rb_random_policy_cost(tr, 2, seed=7) == rb_random_policy_cost(tr, 2, seed=7)
