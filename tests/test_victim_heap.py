"""The value-ordered victim choice against the scans it replaced.

`blind_oracle`, `belady` and `fitf` (for its truth) pick their victims from
a lazy-deletion heap above `SCAN_K` slots and by one scan of the cache's heap
keys up to it, `belady_simulate` searches marks on next-request times at
every cache size, `lrb` reads the label attached at each page's last request
through `last_used`, `lru` takes the least recent page from the engine's
`last_used`, and `marker` reads its marks from `last_used` and the request
index of its last clear. On random traces with perfect, inverted and noisy
predictions,
every eviction (request index and victim) of these policies, bare and under
`guard:`, must equal that of the reference in `reference_impls.py`: a scan,
a recency list kept by a request hook, or a `marker` that unmarks in an
engine-called `on_evict`, each run on the eager engine and, under `guard:`,
wrapped in the eager guard. The optimum's misses and labels must equal the
reference's. FITF answers at every noise level must equal
those of the bisect reference, truth for truth. The engine's countdown to
the heap's next rebuild must rebuild at the same requests as the engine that
compares the heap's length with its limit on every request, bare, under
`guard:` and in combiner lanes; up to `SCAN_K` no engine keeps a heap.
Counted, each heap pops no more entries than its pushes and rebuilds put in,
and its rebuilds put in at most a third of what its pushes do; the optimum's
searches clear at most one stale flag per eviction.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cachesim.oracle
import cachesim.policy
from cachesim import (
    ContractViolation,
    Trace,
    build_policy,
    flip_labels,
    inverted_nrt,
    noisy_fitf,
    perfect_nrt,
    synthetic_nrt,
)
from cachesim.draws import DrawStream
from cachesim.oracle import belady_simulate
from cachesim.policy import SCAN_K, BlindOraclePolicy, EvictionContext
from cachesim.predict import PredictionBundle, PredictionKind
from .reference_impls import (
    DictLRBPolicy,
    EagerEvictionContext,
    EagerGuardPolicy,
    EagerMarkerPolicy,
    LengthCheckEvictionContext,
    MaxBeladyPolicy,
    MaxBlindOraclePolicy,
    RecencyLRUPolicy,
    bisect_noisy_fitf,
    max_belady_simulate,
    random_trace,
)

# (spec, reference policy, bundle kind); `fitf` with exact answers must
# evict what the scan-based `belady` evicts
PAIRS = (
    ("blind_oracle", MaxBlindOraclePolicy, "nrt"),
    ("belady", MaxBeladyPolicy, "nrt"),
    ("guard:blind_oracle", lambda: EagerGuardPolicy(MaxBlindOraclePolicy()), "nrt"),
    ("lrb", DictLRBPolicy, "labels"),
    ("guard:lrb", lambda: EagerGuardPolicy(DictLRBPolicy()), "labels"),
    ("fitf", MaxBeladyPolicy, "fitf"),
    ("guard:fitf", lambda: EagerGuardPolicy(MaxBeladyPolicy()), "fitf"),
    ("lru", RecencyLRUPolicy, None),
    ("guard:lru", lambda: EagerGuardPolicy(RecencyLRUPolicy()), None),
    ("marker", EagerMarkerPolicy, None),
    ("guard:marker", lambda: EagerGuardPolicy(EagerMarkerPolicy()), None),
)
# each regime's NRT stream and its share of flipped labels
REGIMES = {
    "perfect": (lambda tr, seed: perfect_nrt(tr), 0.0),
    "inverted": (lambda tr, seed: inverted_nrt(tr), 1.0),
    "sigma1": (lambda tr, seed: synthetic_nrt(tr, 1.0, seed=seed), 0.3),
}


def eviction_log(policy, trace, k, bundle, seed, engine_cls=EvictionContext):
    """Every (request index, victim) of one run, and the engine that ran it."""
    engine = engine_cls(policy, trace, k, bundle, DrawStream(seed))
    log = []
    for i in range(1, len(trace) + 1):
        engine.advance(i)
        if engine.last_evict_t == i:
            log.append((i, engine.last_evict_victim))
    return log, engine


def check_against_reference(trace, k, regime, seed):
    """Assert every decision equals the reference's; return the heap rebuilds
    and the most pages shielded at once, summed over the runs checked."""
    nrt, p_flip = REGIMES[regime]
    bundles = {"nrt": nrt(trace, seed), "labels": flip_labels(trace, k, p_flip, seed=seed)}
    rebuilds = shielded = 0
    for spec, reference, kind in PAIRS:
        bundle = noisy_fitf(trace, k, 0.0, seed=seed) if kind == "fitf" else bundles.get(kind)
        policy = build_policy(spec)
        got, engine = eviction_log(policy, trace, k, bundle, seed)
        want, _ = eviction_log(reference(), trace, k, bundle, seed, EagerEvictionContext)
        assert got == want, f"{spec}: first difference at eviction " + str(
            next(j for j, (a, b) in enumerate(zip(got + [None], want + [None])) if a != b))
        rebuilds += engine.rebuilds
        shielded += getattr(policy, "max_guarded", 0)
    got = belady_simulate(trace, k)
    want = max_belady_simulate(trace, k)
    assert got.misses == want.misses
    assert got.labels == bytearray(want.labels)
    return rebuilds, shielded


@settings(deadline=None, max_examples=50)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3000),
    k=st.sampled_from((1, 2, 3, SCAN_K, SCAN_K + 1, 10, 11, 17, 100)),
    spread=st.integers(0, 100),
    regime=st.sampled_from(sorted(REGIMES)),
)
def test_heap_victims_match_max_reference(seed, n, k, spread, regime):
    rng = np.random.default_rng(seed)
    universe = k + 1 + spread * k // 100  # k+1 .. 2k+1 pages, so the cache fills
    trace = random_trace(rng, n, universe)
    check_against_reference(trace, k, regime, seed)


@pytest.mark.parametrize("k", (2, 17, 100))
@pytest.mark.parametrize("regime", ("inverted", "sigma1"))
def test_long_runs_rebuild_the_heap_and_shield_pages(k, regime):
    # the property above draws short traces too; these runs are long enough
    # that each heap is rebuilt (above SCAN_K; no heap is kept up to it) and
    # the guard shields pages mid-phase
    trace = random_trace(np.random.default_rng(k), 3000, k + 1 + k // 2)
    rebuilds, shielded = check_against_reference(trace, k, regime, 7)
    assert (rebuilds > 0) == (k > SCAN_K)
    assert shielded > 0


def test_no_evictable_page_is_a_contract_violation():
    # scanned at k = 3, popped from the heap above SCAN_K
    for k in (3, SCAN_K + 3):
        trace = Trace(list(range(k)) + [0, k])
        policy = BlindOraclePolicy()
        engine = EvictionContext(policy, trace, k, perfect_nrt(trace), DrawStream(0))
        engine.advance(k + 1)
        engine.excluded = set(engine.cached)
        with pytest.raises(ContractViolation, match="found no evictable page at t=0"):
            policy.choose_victim(engine, engine.rng)
        # none of these pages returns, so the least recently used unshielded
        # page is the victim; above SCAN_K the shielded entries went back on
        # the heap
        engine.excluded = {1}
        assert engine.furthest() == 2


@pytest.mark.parametrize("k", (2, SCAN_K, SCAN_K + 1, 12))
def test_negative_predictions_order_like_the_max_reference(k):
    # `load_bundle_csv` accepts negative whole numbers; the scan must order
    # them like the heap and the `max` rule, with no sentinel key to beat
    trace = random_trace(np.random.default_rng(k), 1500, 2 * k + 1)
    for nrt in ([-v for v in trace.next_occurrence],
                [v - 3 * len(trace) for v in trace.next_occurrence],
                [-1] * len(trace)):
        bundle = PredictionBundle(PredictionKind.NRT, nrt=nrt)
        for spec, reference in (("blind_oracle", MaxBlindOraclePolicy),
                                ("guard:blind_oracle",
                                 lambda: EagerGuardPolicy(MaxBlindOraclePolicy()))):
            got, _ = eviction_log(build_policy(spec), trace, k, bundle, 5)
            want, _ = eviction_log(reference(), trace, k, bundle, 5, EagerEvictionContext)
            assert got == want and got


@contextmanager
def recorded_truths():
    """Record every page `EvictionContext.furthest` returns."""
    truths = []
    furthest = EvictionContext.furthest

    def recording(ctx):
        page = furthest(ctx)
        truths.append(page)
        return page

    with mock.patch.object(EvictionContext, "furthest", recording):
        yield truths


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 600),
    k=st.integers(1, 11),
    spread=st.integers(0, 100),
    epsilon=st.sampled_from((0.0, 0.5, 1.0)),
    spec=st.sampled_from(("fitf", "guard:fitf", "switch_rand(fitf,fitf)")),
)
def test_fitf_truths_and_evictions_match_bisect_reference(seed, n, k, spread, epsilon, spec):
    trace = random_trace(np.random.default_rng(seed), n, k + 1 + spread * k // 100)
    bundle = noisy_fitf(trace, k, epsilon, seed=seed)
    with recorded_truths() as truths:
        got, _ = eviction_log(build_policy(spec), trace, k, bundle, seed)
    want_truths = []
    reference = bisect_noisy_fitf(trace, k, epsilon, seed=seed, truths=want_truths)
    want, _ = eviction_log(build_policy(spec), trace, k, reference, seed)
    assert truths == want_truths
    assert got == want
    assert (bundle.fitf_queries, bundle.fitf_wrong) == (
        reference.fitf_queries, reference.fitf_wrong)


# heap-ordered policies bare, guarded and as combiner lanes, which the
# combiner advances a request at a time
COUNTDOWN_SPECS = (
    "blind_oracle", "belady", "fitf", "guard:blind_oracle", "guard:fitf",
    "switch_det(blind_oracle,belady)", "switch_rand(belady,blind_oracle)",
    "switch_rand(fitf,belady,0.9)", "guard:switch_det(fitf,belady,1.5)",
)


def heap_engines(engine):
    """The engine and every lane engine inside its policy, outermost first."""
    yield engine
    policy = engine.policy
    while not hasattr(policy, "lanes") and hasattr(policy, "base"):
        policy = policy.base
    for lane in getattr(policy, "lanes", ()):
        yield from heap_engines(lane)


def countdown_bundle(spec, trace, k, seed):
    kind = build_policy(spec).requires.value
    if kind == "nrt":
        return synthetic_nrt(trace, 1.0, seed=seed)
    return noisy_fitf(trace, k, 0.5, seed=seed) if kind == "fitf" else None


@pytest.mark.parametrize("k", (SCAN_K + 1, SCAN_K + 3, 10, 100))
@pytest.mark.parametrize("spec", COUNTDOWN_SPECS)
def test_rebuild_countdown_matches_length_check(spec, k):
    trace = random_trace(np.random.default_rng(k), 2500, k + 1 + k // 2)

    def bundle(seed):
        return countdown_bundle(spec, trace, k, seed)

    for seed in (0, 1):
        with mock.patch.object(cachesim.policy, "EvictionContext", LengthCheckEvictionContext):
            # the lanes of the reference run on the reference engine too
            want, reference = eviction_log(build_policy(spec), trace, k, bundle(seed), seed,
                                           LengthCheckEvictionContext)
        got, engine = eviction_log(build_policy(spec), trace, k, bundle(seed), seed)
        assert got == want
        assert {type(e) for e in heap_engines(reference)} == {LengthCheckEvictionContext}
        rebuilds = [e.rebuilds for e in heap_engines(reference)]
        assert [e.rebuilds for e in heap_engines(engine)] == rebuilds
        assert sum(rebuilds) > 0
        # served in one call, as `simulate` serves it
        whole = EvictionContext(build_policy(spec), trace, k, bundle(seed), DrawStream(seed))
        whole.advance(len(trace))
        assert (whole.misses, whole.rebuilds) == (engine.misses, engine.rebuilds)


@pytest.mark.parametrize("k", (1, 2, 3, SCAN_K))
@pytest.mark.parametrize("spec", COUNTDOWN_SPECS)
def test_small_caches_keep_no_heap(spec, k):
    # up to SCAN_K every engine, lanes included, finds its victims by a scan
    trace = random_trace(np.random.default_rng(k), 2500, k + 1 + k // 2)
    got, engine = eviction_log(build_policy(spec), trace, k,
                               countdown_bundle(spec, trace, k, 0), 0)
    engines = list(heap_engines(engine))
    assert got
    assert [(e._heap, e.rebuilds) for e in engines] == [(None, 0)] * len(engines)


@contextmanager
def counted_heaps(module):
    """Count the heap work of `module`: pushes, pops, and the entries each
    rebuild's `heapify` puts in."""
    counts = {"push": 0, "pop": 0, "rebuilt": 0}
    push, pop, heapify = module.heappush, module.heappop, module.heapify

    def counting_push(heap, key):
        counts["push"] += 1
        push(heap, key)

    def counting_pop(heap):
        counts["pop"] += 1
        return pop(heap)

    def counting_heapify(heap):
        counts["rebuilt"] += len(heap)
        heapify(heap)

    with mock.patch.multiple(module, heappush=counting_push, heappop=counting_pop,
                             heapify=counting_heapify):
        yield counts


@contextmanager
def counted_marks():
    """Count the optimum's work on its marks: each `bytearray` it makes
    counts its `rfind` calls and the zeros written into it."""
    made = []

    class CountingBytearray(bytearray):
        def __init__(self, *args):
            super().__init__(*args)
            self.rfinds = self.zeros = 0
            made.append(self)

        def rfind(self, *args):
            self.rfinds += 1
            return super().rfind(*args)

        def __setitem__(self, index, value):
            self.zeros += value == 0
            super().__setitem__(index, value)

    with mock.patch.object(cachesim.oracle, "bytearray", CountingBytearray, create=True):
        yield made


@pytest.mark.parametrize("k", (1, 2, 5, 10, 100))
def test_victim_heaps_do_amortised_constant_work_per_request(k):
    # The optimum writes a constant number of marks a request. A search meets
    # a flag whose block holds no mark only above every mark, so the last
    # mark it held was evicted: at most one such clear per eviction, and each
    # clear costs one more `rfind` of the flags and of the marks.
    # In the engine, a pop takes out an entry that a push or a rebuild put
    # in, and a rebuild of at most k entries follows at least 3k + 1 pushes:
    # so a run of n requests pops at most n + n / 3 entries however many
    # pages are dead.
    trace = random_trace(np.random.default_rng(k), 3000, k + 1 + k // 2)
    n = len(trace)
    with counted_marks() as made:
        out = belady_simulate(trace, k)
    want = max_belady_simulate(trace, k)
    assert (out.misses, out.labels) == (want.misses, bytes(want.labels))
    evictions = out.misses - min(k, trace.universe_size)
    flags = min(made, key=len)
    alive = max(made, key=len)
    assert len(flags) <= n // 64 + 2
    assert alive.zeros == n - out.misses  # one cleared mark a hit
    assert flags.zeros <= min(n, evictions)
    assert sum(b.rfinds for b in made) <= 2 * evictions + flags.zeros
    for spec, bundle in (("guard:blind_oracle", inverted_nrt(trace)), ("belady", None),
                         ("guard:fitf", noisy_fitf(trace, k, 0.5, seed=k))):
        with counted_heaps(cachesim.policy) as engine:
            result = cachesim.policy.simulate(build_policy(spec), trace, k, bundle,
                                              compute_opt=False)
        if k <= SCAN_K:  # no heap: the engine scans the candidates
            assert engine == {"push": 0, "pop": 0, "rebuilt": 0}, spec
            continue
        # every request pushes its key, and `furthest` pushes back the live
        # shielded keys it popped; it leaves the victim's key on top, dead
        assert engine["push"] >= n and result.misses > k
        assert 0 < engine["pop"] <= engine["push"] + engine["rebuilt"]
        assert 3 * engine["rebuilt"] <= engine["push"]
