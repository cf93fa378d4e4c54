"""The per-request sequences kept as typed buffers, against list references.

`Trace.next_occurrence` and `perfect_nrt`'s values are int64 `array('q')`
buffers, the optimum's labels a `bytearray` (kept on the trace as `bytes`),
and `measure_error` sums NRT errors in numpy's int64 when no sum can pass
2**63. Each must hold, element for element, what the list-building loops
they replaced give, on page ids that take every build path: 16-bit ids
(numpy's radix sort), larger ids up to and past 2**31 (int64), and ids past
int64 (numbered first).
"""

from __future__ import annotations

import tracemalloc
from array import array

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cachesim import Trace, measure_error, perfect_nrt, synthetic_nrt
from cachesim.oracle import OPT_SCAN_K, belady_labels, belady_simulate
from cachesim.predict import NRT_CAP, PredictionBundle, PredictionKind
from .reference_impls import loop_next_occurrence, max_belady_simulate, random_trace

# the smallest id of a trace: 16-bit, straddling 2**16, past 2**16, past
# 2**31, at the top of int64 and past it
ID_BASES = (0, 2**16 - 6, 2**16, 2**31 + 1, 2**63 - 20, 2**64)


@st.composite
def page_lists(draw):
    base = draw(st.sampled_from(ID_BASES))
    if draw(st.booleans()):  # every page distinct
        offsets = draw(st.lists(st.integers(0, 19), min_size=1, max_size=20, unique=True))
    else:
        offsets = draw(st.lists(st.integers(0, 12), min_size=1, max_size=150))
    return [base + o for o in offsets]


@settings(deadline=None, max_examples=300)
@given(page_lists())
@example([0])
@example([2**64])
@example(list(range(2**31, 2**31 + 40)))
def test_buffers_equal_their_list_references(pages):
    tr = Trace(pages)
    want = loop_next_occurrence(pages)
    nxt = tr.next_occurrence
    assert type(nxt) is array and nxt.typecode == "q"
    assert nxt.tolist() == want
    assert tr.universe_size == len(set(pages))
    nrt = perfect_nrt(tr).nrt
    assert type(nrt) is array and nrt.typecode == "q"
    assert nrt.tolist() == want and nrt is not nxt
    for k in sorted({1, 2, OPT_SCAN_K, OPT_SCAN_K + 1, len(set(pages))}):
        ref = max_belady_simulate(tr, k)
        out = belady_simulate(tr, k)
        assert type(out.labels) is bytearray
        assert list(out.labels) == ref.labels and out.misses == ref.misses
        labels = belady_labels(tr, k)
        assert type(labels) is bytearray and list(labels) == ref.labels
        assert type(tr._labels[k]) is bytes


def _python_l1(pred, truth) -> float:
    return float(sum(abs(a - b) for a, b in zip(pred, truth)))


def test_measure_error_is_exact_past_int64():
    # about half of the sigma = 1000 predictions are capped at NRT_CAP = 2**53,
    # so on n > 2,048 requests the sum of |errors| passes 2**63: Python ints
    # sum it
    tr = random_trace(np.random.default_rng(3), 3000, 40)
    bundle = synthetic_nrt(tr, 1000.0, seed=1)
    assert sum(abs(a - b) for a, b in zip(bundle.nrt, tr.next_occurrence)) > 2**63
    assert measure_error(bundle, tr).eta_t == _python_l1(bundle.nrt, tr.next_occurrence)


def test_measure_error_is_exact_below_int64():
    # large sums that a float rounds, on both sides of the int64 cutover:
    # every one must round like Python's
    tr = random_trace(np.random.default_rng(4), 1500, 30)
    n = len(tr)
    for nrt in ([2**52 + 1 + i for i in range(n)],
                [-(2**62 // n) + i for i in range(n)],
                array("q", [NRT_CAP - 3] * n),
                array("q", tr.next_occurrence)):
        bundle = PredictionBundle(PredictionKind.NRT, nrt=nrt)
        assert measure_error(bundle, tr).eta_t == _python_l1(nrt, tr.next_occurrence)


def test_measure_error_sums_non_int64_values_in_python():
    tr = Trace([0, 1, 0, 2, 1])
    for nrt in ([3.5, 4, 6, 6, 6], [2**64, 5, 6, 6, 6], [2**63, 5, 6, 6, 6],
                [True, False, True, False, True]):
        bundle = PredictionBundle(PredictionKind.NRT, nrt=nrt)
        assert measure_error(bundle, tr).eta_t == _python_l1(nrt, tr.next_occurrence)


def test_a_trace_and_its_perfect_bundle_hold_little():
    # 10**5 requests over 1,200 pages: the pages list (8 bytes a request)
    # and two int64 buffers, where lists of ints held 5.3 MiB
    pages = np.random.default_rng(0).integers(0, 1200, size=100_000).tolist()
    tracemalloc.start()
    try:
        tr = Trace(pages)
        bundle = perfect_nrt(tr)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(bundle.nrt) == len(tr)
    assert held <= 3 * 2**20, held / 2**20
