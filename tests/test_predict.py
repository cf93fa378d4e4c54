"""Prediction bundles: synthetic noise, heuristics, error measures, CSV I/O."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachesim import (
    PredictionBundle,
    Trace,
    flip_labels,
    inverted_nrt,
    measure_error,
    noisy_fitf,
    perfect_labels,
    perfect_nrt,
    pleco,
    popu,
    save_bundle_csv,
    synthetic_nrt,
)
from cachesim.oracle import belady_labels
from cachesim.policy import EvictionContext, FitFFollowerPolicy
from cachesim.predict import NRT_CAP, PredictionKind, binary_from_nrt, load_bundle_csv
from .reference_impls import (
    fitf_page,
    generator_flip_labels,
    generator_measure_error,
    random_trace,
)


def replay_fitf(trace, k, bundle, until, seed=0):
    """Replay `fitf` over the first `until` requests; return the bundle's
    counts and, per eviction, (request, true furthest page by scan, victim)."""
    engine = EvictionContext(FitFFollowerPolicy(), trace, k, bundle,
                             np.random.default_rng(seed))
    evictions = []
    for i in range(1, until + 1):
        cached, last_used = set(engine.cached), dict(engine.last_used)
        engine.advance(i)
        if engine.last_evict_t == i:
            truth = fitf_page(cached, i, lambda p: trace.next_occurrence[last_used[p] - 1],
                              last_used)
            evictions.append((i, truth, engine.last_evict_victim))
    return (bundle.fitf_queries, bundle.fitf_wrong), evictions


def test_perfect_nrt_equals_next_occurrence():
    tr = Trace([0, 1, 0, 2, 1, 0])
    assert perfect_nrt(tr).nrt == tr.next_occurrence


def test_synthetic_sigma_zero_is_exact():
    tr = Trace([0, 1, 0, 2, 1, 0])
    assert synthetic_nrt(tr, 0.0, seed=3).nrt == list(tr.next_occurrence)


def test_synthetic_noise_stays_in_the_future():
    rng = np.random.default_rng(9)
    for sigma in (0.5, 2.0):
        tr = random_trace(rng, 120, 7)
        preds = synthetic_nrt(tr, sigma, seed=1).nrt
        assert all(p >= t + 1 for t, p in enumerate(preds, 1))
        assert all(isinstance(p, int) for p in preds)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma", [20.0, 1000.0])
def test_synthetic_noise_with_a_huge_sigma_is_capped_not_wrapped(sigma):
    # such a sigma draws noise that overflows float64, and half of it rounds to 0
    tr = random_trace(np.random.default_rng(9), 200, 7)
    preds = synthetic_nrt(tr, sigma, seed=1).nrt
    assert all(t + 1 <= p <= NRT_CAP for t, p in enumerate(preds, 1))
    assert NRT_CAP in preds
    assert all(isinstance(p, int) for p in preds)


def test_synthetic_is_seed_deterministic():
    tr = Trace(list(range(6)) * 4)
    assert synthetic_nrt(tr, 1.0, seed=5).nrt == synthetic_nrt(tr, 1.0, seed=5).nrt
    assert synthetic_nrt(tr, 1.0, seed=5).nrt != synthetic_nrt(tr, 1.0, seed=6).nrt


def test_inverted_nrt_reverses_order():
    tr = Trace([0, 1, 0])
    # true next occurrences [3, 4, 4] -> n+1-T = [1, 0, 0]
    assert inverted_nrt(tr).nrt == [1, 0, 0]


def test_perfect_labels_match_offline_evictions():
    tr = Trace([0, 1, 2, 1, 0])
    bundle = perfect_labels(tr, 2)
    assert bundle.labels == belady_labels(tr, 2) == bytearray([1, 0, 1, 0, 0])
    bundle.labels[0] = 0  # each caller gets its own copy of the trace's labels
    assert belady_labels(tr, 2) == bytearray([1, 0, 1, 0, 0])
    assert measure_error(bundle, tr, k=2).eta_b == 1


def test_flip_labels_extremes():
    tr = Trace([0, 1, 2, 1, 0])
    base = belady_labels(tr, 2)
    assert flip_labels(tr, 2, 0.0, seed=1).labels == list(base)
    assert flip_labels(tr, 2, 1.0, seed=1).labels == [1 - b for b in base]


def test_flip_labels_rate_is_roughly_p():
    tr = Trace(list(range(10)) * 60)
    base = np.array(belady_labels(tr, 4))
    flipped = np.array(flip_labels(tr, 4, 0.3, seed=2).labels)
    rate = float(np.mean(base != flipped))
    assert 0.2 < rate < 0.4


def test_pleco_hand_example():
    # first occurrences predict an immediate repeat; the third request sees
    # one past occurrence of the page two steps back and a two-step horizon
    assert pleco(Trace([0, 1, 0])).nrt == [2, 3, 5]


def test_pleco_is_causal():
    # predictions for a shared prefix must not depend on the suffix
    long = Trace([0, 1, 0, 2, 1, 0, 3, 4])
    short = Trace(long.pages[:5])
    assert pleco(long).nrt[:5] == pleco(short).nrt


def test_pleco_rejects_weights_that_underflow():
    tr = Trace([0, 1, 0, 2, 1, 0])
    for alpha, offset in ((1000.0, 10.0), (1.8, 1e300)):
        with pytest.raises(ValueError, match="alpha=.*offset="):
            pleco(tr, alpha=alpha, offset=offset)
    for alpha in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="positive"):
            pleco(tr, alpha=alpha)


def test_synthetic_nrt_rejects_sigma_that_is_not_a_finite_non_negative_number():
    tr = Trace([0, 1, 0])
    for sigma in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma"):
            synthetic_nrt(tr, sigma)


def test_popu_hand_examples():
    assert popu(Trace([0, 1])).nrt == [2, 4]
    assert popu(Trace([0, 1, 0, 0, 1])).nrt == [2, 4, 5, 5, 7]


def test_noisy_fitf_zero_error_matches_offline_choice():
    tr = Trace([0, 1, 2, 1, 0, 3, 2, 1])
    bundle = noisy_fitf(tr, 2, 0.0, seed=4)
    # at t=3 with {0,1} cached: 0 returns at 5, 1 at 4 -> 0 goes
    assert replay_fitf(tr, 2, bundle, 3) == ((1, 0), [(3, 0, 0)])


def test_noisy_fitf_full_error_always_wrong_with_alternatives():
    tr = Trace([0, 1, 2, 1, 0, 3, 2, 1])
    bundle = noisy_fitf(tr, 2, 1.0, seed=4)
    counts, evictions = replay_fitf(tr, 2, bundle, len(tr))
    assert len(evictions) >= 3
    assert all(victim != truth for _, truth, victim in evictions)
    assert counts == (len(evictions), len(evictions))


def test_noisy_fitf_single_candidate_never_counts_as_wrong():
    tr = Trace([0, 1, 0])
    bundle = noisy_fitf(tr, 1, 1.0, seed=0)
    assert replay_fitf(tr, 1, bundle, 2) == ((1, 0), [(2, 0, 0)])


def test_binary_from_nrt_explicit_boundary():
    tr = Trace([0, 1, 0, 2, 1, 0])
    bundle = binary_from_nrt(perfect_nrt(tr), tr, boundary=2.0)
    # predicted gaps: [2, 3, 3, 3, 2, 1] -> 1 where the gap exceeds 2
    assert bundle.labels == [0, 1, 1, 1, 0, 0]
    assert bundle.kind is PredictionKind.BINARY


def test_binary_from_nrt_derives_boundary_from_prefix():
    rng = np.random.default_rng(12)
    tr = random_trace(rng, 400, 12)
    bundle = binary_from_nrt(perfect_nrt(tr), tr, k=4)
    assert set(bundle.labels) <= {0, 1}
    assert len(bundle.labels) == len(tr)


def test_measure_error_nrt_l1():
    tr = Trace([0, 1, 0])
    bundle = PredictionBundle(kind=PredictionKind.NRT, nrt=[4, 4, 5])
    err = measure_error(bundle, tr)
    assert err.eta_t == pytest.approx(abs(4 - 3) + abs(4 - 4) + abs(5 - 4))


def test_measure_error_binary_counts_disagreements():
    tr = Trace([0, 1, 2, 1, 0])
    bundle = flip_labels(tr, 2, 1.0, seed=0)
    err = measure_error(bundle, tr, k=2)
    assert err.eta_b == 5


def test_measure_error_fitf_counts_wrong_answers():
    tr = Trace([0, 1, 2, 1, 0, 3, 2, 1])
    bundle = noisy_fitf(tr, 2, 1.0, seed=4)
    counts, evictions = replay_fitf(tr, 2, bundle, 4)
    assert counts == (2, 2) and [t for t, _, _ in evictions] == [3, 4]
    assert measure_error(bundle, tr, k=2).eta_f == 2


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    k=st.integers(1, 6),
    p_flip=st.sampled_from((0.0, 0.1, 0.5, 1.0)),
    sigma=st.sampled_from((0.0, 0.5, 2.0)),
)
def test_flip_labels_and_measure_error_match_generator_formulas(seed, n, k, p_flip, sigma):
    tr = random_trace(np.random.default_rng(seed), n, k + 3)
    labels = flip_labels(tr, k, p_flip, seed=seed).labels
    want = generator_flip_labels(tr, k, p_flip, seed=seed)
    assert labels == want and all(type(y) is int for y in labels)
    for bundle in (PredictionBundle(PredictionKind.BINARY, labels=labels),
                   synthetic_nrt(tr, sigma, seed=seed), inverted_nrt(tr)):
        got, ref = measure_error(bundle, tr, k), generator_measure_error(bundle, tr, k)
        assert got == ref
        assert type(got.eta_t) is type(ref.eta_t) and type(got.eta_b) is type(ref.eta_b)


def test_measure_error_rejects_length_mismatch():
    tr = Trace([0, 1, 0])
    with pytest.raises(ValueError):
        measure_error(PredictionBundle(kind=PredictionKind.NRT, nrt=[4, 4]), tr)


def test_bundle_csv_roundtrip(tmp_path):
    tr = Trace([0, 1, 0, 2])
    nrt_path = tmp_path / "nrt.csv"
    save_bundle_csv(perfect_nrt(tr), nrt_path)
    loaded = load_bundle_csv(nrt_path)
    assert loaded.kind is PredictionKind.NRT
    assert loaded.nrt == list(tr.next_occurrence)

    lab_path = tmp_path / "labels.csv"
    save_bundle_csv(perfect_labels(tr, 2), lab_path)
    assert load_bundle_csv(lab_path).labels == list(belady_labels(tr, 2))


def test_bundle_csv_rejects_gaps(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,predicted_nrt\n1,2\n3,4\n")
    with pytest.raises(ValueError):
        load_bundle_csv(path)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "x"])
def test_bundle_csv_rejects_values_that_are_not_finite_numbers(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"index,predicted_nrt\n1,2\n2,{value}\n")
    with pytest.raises(ValueError, match="row 3"):
        load_bundle_csv(path)


@pytest.mark.parametrize("value", ["2.7", "3.5", "0.1"])
def test_bundle_csv_rejects_fractional_values(tmp_path, value):
    # truncating would read 2.7 as 2
    path = tmp_path / "bad.csv"
    path.write_text(f"index,predicted_nrt\n1,2\n2,{value}\n")
    with pytest.raises(ValueError, match="row 3.*whole number"):
        load_bundle_csv(path)


def test_bundle_csv_reads_whole_values_written_as_floats(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("index,predicted_nrt\n1,2.0\n2,4\n3,5e0\n")
    assert load_bundle_csv(path).nrt == [2, 4, 5]


def test_bundle_csv_may_start_with_a_byte_order_mark(tmp_path):
    # before, the header read as ['\ufeffindex', 'predicted_nrt'] and was refused
    path = tmp_path / "preds.csv"
    path.write_bytes(b"\xef\xbb\xbf" + b"index,predicted_nrt\n1,2\n2,4\n")
    assert load_bundle_csv(path).nrt == [2, 4]


def test_bundle_payload_validation():
    with pytest.raises(ValueError):
        PredictionBundle(kind=PredictionKind.NRT)
    with pytest.raises(ValueError):
        PredictionBundle(kind=PredictionKind.BINARY)
