"""Prediction bundles: synthetic noise models, history-based predictors, errors.

A bundle carries one prediction stream for a whole trace. Three kinds exist:
per-request next-request-time estimates (NRT), per-request binary eviction
labels, and a furthest-in-the-future choice function (FITF) that a `fitf`
replay queries at each eviction. Bundles are built deterministically from
(trace, parameters, seed). Labels are an immutable `bytes` of 0/1, one byte a
request. `perfect_nrt` and `inverted_nrt` return their values as an int64
`array('q')`, and the other NRT builders return lists of ints.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from enum import Enum
from operator import ne, sub
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .draws import DrawStream
from .oracle import belady_labels
from .trace import PageId, Trace, whole_number

if TYPE_CHECKING:
    from .policy import EvictionContext


class PredictionKind(Enum):
    NONE = "none"
    NRT = "nrt"
    BINARY = "binary"
    FITF = "fitf"


@dataclass
class PredictionBundle:
    """One prediction stream; exactly the payload matching ``kind`` is set.

    `nrt` holds one int per request: a list, or an int64 `array('q')`
    (`perfect_nrt`, `inverted_nrt`). `labels` is a `bytes` of 0/1, one byte
    a request; any other sequence of 0s and 1s is converted to one. FITF
    bundles count their queries and how many answers differed from the true
    furthest-in-the-future page; use one bundle instance per run.
    """

    kind: PredictionKind
    nrt: Sequence[int] | None = None
    labels: bytes | None = None
    fitf_choice: Callable[[EvictionContext], PageId] | None = None
    fitf_queries: int = 0
    fitf_wrong: int = 0

    def __post_init__(self):
        if self.kind is PredictionKind.NRT and self.nrt is None:
            raise ValueError("NRT bundle needs nrt values")
        if self.kind is PredictionKind.BINARY and type(self.labels) is not bytes:
            try:  # element by element: `bytes` of an array copies its raw buffer
                self.labels = bytes(iter(self.labels))
            except (TypeError, ValueError):  # None, or not a sequence of small ints
                raise ValueError("binary bundle needs labels, a sequence of 0s and 1s") from None
        if self.kind is PredictionKind.BINARY and self.labels.translate(None, b"\0\1"):
            raise ValueError("binary labels must be 0 or 1")


@dataclass(frozen=True)
class PredictionError:
    """Aggregate prediction error of one bundle against the true trace.

    eta_t: l1 distance between predicted and true next request times;
    eta_b: number of mispredicted binary labels;
    eta_f: number of FITF queries answered with a non-furthest page.
    """

    eta_t: float = 0.0
    eta_b: int = 0
    eta_f: int = 0


def perfect_nrt(trace: Trace) -> PredictionBundle:
    """Exact next request times (sentinel n+1 when a page never returns), a
    copy of the trace's int64 `next_occurrence`."""
    return PredictionBundle(PredictionKind.NRT, nrt=array("q", trace.next_occurrence))


# The largest synthetic prediction: 2**53, below which every integer is an
# exact float, so a huge draw of the noise cannot overflow the int64 cast.
NRT_CAP = 2**53


def synthetic_nrt(trace: Trace, sigma: float, seed: int = 0) -> PredictionBundle:
    """True next request times with log-normally scaled forward gaps.

    Each prediction is t + (T - t) * X with X ~ LogNormal(0, sigma) drawn
    i.i.d. per request, rounded to an integer, floored at t + 1 and capped at
    `NRT_CAP` (which only a large sigma reaches). sigma=0 reproduces the
    truth exactly.
    """
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and non-negative, got {sigma!r}")
    n = len(trace)
    rng = np.random.default_rng(seed)
    # capped before the product too, which would overflow to inf with a warning
    noise = np.minimum(rng.lognormal(0.0, sigma, size=n), NRT_CAP)
    t = np.arange(1, n + 1, dtype=float)
    T = np.asarray(trace.next_occurrence, dtype=float)
    pred = np.clip(np.rint(t + (T - t) * noise), t + 1, NRT_CAP).astype(np.int64)
    return PredictionBundle(PredictionKind.NRT, nrt=pred.tolist())


def inverted_nrt(trace: Trace) -> PredictionBundle:
    """Adversarial stream predicting n+1-T: the sooner a page returns, the
    further in the future it is claimed to be. An int64 `array('q')`, filled
    by one numpy pass over the trace's `next_occurrence`.

    Deliberately violates the usual "prediction lies in the future" shape;
    it exists to probe worst-case behaviour of prediction-following policies.
    """
    nrt = array("q", trace.next_occurrence)
    vals = np.frombuffer(nrt, np.int64)
    np.subtract(len(trace) + 1, vals, out=vals)
    return PredictionBundle(PredictionKind.NRT, nrt=nrt)


def perfect_labels(trace: Trace, k: int) -> PredictionBundle:
    """The offline optimum's own eviction labels, the `bytes` kept on the trace."""
    return PredictionBundle(PredictionKind.BINARY, labels=belady_labels(trace, k))


def flip_labels(trace: Trace, k: int, p_flip: float, seed: int = 0) -> PredictionBundle:
    """True eviction labels with each bit flipped independently w.p. ``p_flip``."""
    if not 0.0 <= p_flip <= 1.0:
        raise ValueError("p_flip must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    flips = rng.random(len(trace)) < p_flip
    labels = (np.frombuffer(belady_labels(trace, k), np.uint8) ^ flips).tobytes()
    return PredictionBundle(PredictionKind.BINARY, labels=labels)


def pleco(trace: Trace, *, alpha: float = 1.8, offset: float = 10.0) -> PredictionBundle:
    """Power-law repeat-consumption predictor.

    At request index t, a past access at index s has weight (t-s+offset)^-alpha;
    the requested page's return probability p is its share of the total weight
    of all past accesses (p = 1 at a page's first appearance), and the
    predicted next request time is t + max(1, round(1/p)). Strictly causal.
    Raises ValueError when a page's weight underflows to 0 in floating point,
    which a large alpha or offset brings about.
    """
    if not (alpha > 0 and offset > 0):
        raise ValueError("alpha and offset must be positive")
    pages = trace.pages
    n = len(pages)
    preds = [0] * n
    occ: dict[PageId, list[int]] = {}
    denom = 0.0
    for i in range(1, n + 1):
        p = pages[i - 1]
        past = occ.get(p)
        if past:
            num = float(np.sum((i - np.asarray(past, dtype=float) + offset) ** -alpha))
            if not (num > 0 and denom > 0):
                raise ValueError(f"pleco weights underflow to 0 with alpha={alpha:g} and "
                                 f"offset={offset:g}; lower alpha or offset")
            prob = num / denom
        else:
            prob = 1.0
        preds[i - 1] = i + max(1, round(1.0 / prob))
        occ.setdefault(p, []).append(i)
        # The total past weight at request t is sum_{d=1..t-1} (d+offset)^-alpha —
        # it depends only on access ages, so each step adds one term of age i.
        denom += (i + offset) ** -alpha
    return PredictionBundle(PredictionKind.NRT, nrt=preds)


def popu(trace: Trace) -> PredictionBundle:
    """Frequency predictor: p is the requested page's share of requests 1..t,
    and the predicted next request time is t + max(1, round(1/p))."""
    pages = trace.pages
    preds = [0] * len(pages)
    counts: dict[PageId, int] = {}
    for i, p in enumerate(pages, 1):
        c = counts.get(p, 0) + 1
        counts[p] = c
        preds[i - 1] = i + max(1, round(i / c))
    return PredictionBundle(PredictionKind.NRT, nrt=preds)


def noisy_fitf(trace: Trace, k: int, epsilon: float, seed: int = 0) -> PredictionBundle:
    """Furthest-in-the-future choice function that errs with probability epsilon.

    The function is queried with the replay engine's context at each
    eviction of a `fitf` run, and takes the true furthest candidate from
    `ctx.furthest()` (ties: least recently used first). Each query takes one
    `random()` from the bundle's own `DrawStream(seed)`, which makes
    `default_rng(seed)` at the first query: with probability 1 - epsilon the
    true furthest page is returned, otherwise a uniformly random other
    candidate (the sole candidate when there is no alternative). Wrong answers
    are tallied on the bundle.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    # the bundle's own stream: no other caller draws from it
    stream = DrawStream(seed)
    bundle = PredictionBundle(PredictionKind.FITF)

    def choice(ctx: EvictionContext) -> PageId:
        truth = ctx.furthest()
        u = stream.random()
        bundle.fitf_queries += 1
        if u < epsilon:
            others = sorted(ctx.candidates)
            others.remove(truth)
            if others:  # any other candidate is a wrong answer
                bundle.fitf_wrong += 1
                return others[min(int(u / epsilon * len(others)), len(others) - 1)]
        return truth

    bundle.fitf_choice = choice
    return bundle


def binary_from_nrt(
    bundle: PredictionBundle,
    trace: Trace,
    boundary: float | None = None,
    *,
    k: int | None = None,
) -> PredictionBundle:
    """Threshold an NRT bundle into binary labels: 1 iff predicted gap > boundary.

    When no boundary is given it is calibrated as the 90th percentile of the
    offline optimum's eviction forward-gaps on the leading tenth of the trace
    (which needs ``k``); with no warmup evictions every request is labelled 0
    via a maximal boundary. The derived boundary is kept on the trace, one
    per k.
    """
    if bundle.kind is not PredictionKind.NRT:
        raise ValueError("binary_from_nrt needs an NRT bundle")
    if boundary is None:
        if k is None:
            raise ValueError("deriving the default boundary requires k")
        boundary = trace._boundaries.get(k)
        if boundary is None:
            m = max(1, int(len(trace) * 0.1))
            prefix = Trace(trace.pages[:m])
            ones = np.frombuffer(belady_labels(prefix, k), bool)
            gaps = (np.asarray(prefix.next_occurrence) - np.arange(1, m + 1))[ones]
            boundary = float(np.percentile(gaps, 90.0)) if gaps.size else float(len(trace))
            trace._boundaries[k] = boundary
    if boundary <= 0:
        raise ValueError("boundary must be positive")
    labels = bytes(1 if pred - t > boundary else 0 for t, pred in enumerate(bundle.nrt, 1))
    return PredictionBundle(PredictionKind.BINARY, labels=labels)


def _l1_distance(pred: Sequence[int], truth: Sequence[int]) -> float:
    """`float(sum(|pred - truth|))`, exactly. Integer values are subtracted
    and summed in int64 by numpy when no sum of |differences| can pass 2**63;
    anything else is summed in Python ints."""
    a, b = np.asarray(pred), np.asarray(truth)
    if a.dtype.kind == "i" and b.dtype.kind == "i":
        largest = max(-int(a.min()), int(a.max())) + max(-int(b.min()), int(b.max()))
        if largest * len(a) < 2**63:
            return float(np.abs(np.subtract(a, b, dtype=np.int64)).sum())
    return float(sum(map(abs, map(sub, pred, truth))))


def measure_error(bundle: PredictionBundle, trace: Trace, k: int | None = None) -> PredictionError:
    """Errors of a bundle against the truth; binary labels need ``k``."""
    if bundle.kind is PredictionKind.NRT:
        truth = trace.next_occurrence
        if len(bundle.nrt) != len(truth):
            raise ValueError("bundle length does not match trace")
        return PredictionError(eta_t=_l1_distance(bundle.nrt, truth))
    if bundle.kind is PredictionKind.BINARY:
        if k is None:
            raise ValueError("measuring label error requires k")
        truth = belady_labels(trace, k)
        if len(bundle.labels) != len(truth):
            raise ValueError("bundle length does not match trace")
        return PredictionError(eta_b=sum(map(ne, bundle.labels, truth)))
    if bundle.kind is PredictionKind.FITF:
        return PredictionError(eta_f=bundle.fitf_wrong)
    raise ValueError(f"cannot measure errors for bundle kind {bundle.kind}")


_NRT_HEADER = ("index", "predicted_nrt")
_LABEL_HEADER = ("index", "label")


def save_bundle_csv(bundle: PredictionBundle, path: str | Path) -> None:
    """Write an NRT or binary bundle as a two-column CSV (1-based index)."""
    if bundle.kind is PredictionKind.NRT:
        header, values = _NRT_HEADER, bundle.nrt
    elif bundle.kind is PredictionKind.BINARY:
        header, values = _LABEL_HEADER, bundle.labels
    else:
        raise ValueError("only NRT and binary bundles can be exported")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(enumerate(values, 1))


def load_bundle_csv(path: str | Path) -> PredictionBundle:
    """Read a bundle written by `save_bundle_csv`, one row at a time; the
    header names the kind. Values are read exactly by `whole_number` (`7.0`
    is 7), and a label must be 0 or 1."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        rows = csv.reader(f)
        first = next(rows, None)
        if first is None:
            raise ValueError("empty bundle file")
        header = tuple(h.strip().lower() for h in first)
        kind = {_NRT_HEADER: PredictionKind.NRT, _LABEL_HEADER: PredictionKind.BINARY}.get(header)
        if kind is None:
            raise ValueError(f"unrecognised bundle header {first!r}")
        values: list[int] = []
        for rownum, row in enumerate(rows, 2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"row {rownum}: expected 2 fields")
            try:
                idx, val = int(row[0]), whole_number(row[1])
            except ValueError:
                raise ValueError(f"row {rownum}: expected an index and a whole number") from None
            if idx != len(values) + 1:
                raise ValueError(f"row {rownum}: indices must be consecutive from 1")
            if kind is PredictionKind.BINARY and val not in (0, 1):
                raise ValueError(f"row {rownum}: a label must be 0 or 1, got {val}")
            values.append(val)
    if kind is PredictionKind.NRT:
        return PredictionBundle(kind, nrt=values)
    return PredictionBundle(kind, labels=values)
