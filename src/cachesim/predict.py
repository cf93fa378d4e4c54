"""Prediction bundles: synthetic noise models, history-based predictors, errors.

A bundle carries one prediction stream for a whole trace. Three kinds exist:
per-request next-request-time estimates (NRT), per-request binary eviction
labels, and a furthest-in-the-future choice function (FITF) that a `fitf`
replay queries at each eviction. Bundles are built deterministically from
(trace, parameters, seed). `perfect_nrt` returns its values as an int64
`array('q')` and `perfect_labels` as a `bytearray`; the other builders return
lists of ints.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from dataclasses import dataclass
from enum import Enum
from operator import ne, sub
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .draws import DrawStream
from .oracle import belady_labels, belady_simulate
from .trace import PageId, Trace

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

    `nrt` and `labels` hold one int per request: a list, an int64
    `array('q')` (`perfect_nrt`) or a `bytearray` of labels
    (`perfect_labels`). FITF bundles count their queries and how many answers
    differed from the true furthest-in-the-future page; use one bundle
    instance per run.
    """

    kind: PredictionKind
    nrt: Sequence[int] | None = None
    labels: Sequence[int] | None = None
    fitf_choice: Callable[[EvictionContext], PageId] | None = None
    fitf_queries: int = 0
    fitf_wrong: int = 0

    def __post_init__(self):
        if self.kind is PredictionKind.NRT and self.nrt is None:
            raise ValueError("NRT bundle needs nrt values")
        if self.kind is PredictionKind.BINARY and self.labels is None:
            raise ValueError("binary bundle needs labels")


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
    further in the future it is claimed to be.

    Deliberately violates the usual "prediction lies in the future" shape;
    it exists to probe worst-case behaviour of prediction-following policies.
    """
    n = len(trace)
    return PredictionBundle(
        PredictionKind.NRT, nrt=[n + 1 - T for T in trace.next_occurrence]
    )


def perfect_labels(trace: Trace, k: int) -> PredictionBundle:
    """The offline optimum's own eviction labels."""
    return PredictionBundle(PredictionKind.BINARY, labels=belady_labels(trace, k))


def flip_labels(trace: Trace, k: int, p_flip: float, seed: int = 0) -> PredictionBundle:
    """True eviction labels with each bit flipped independently w.p. ``p_flip``."""
    if not 0.0 <= p_flip <= 1.0:
        raise ValueError("p_flip must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    flips = rng.random(len(trace)) < p_flip
    labels = (np.array(belady_labels(trace, k)) ^ flips).tolist()
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
    `random()` from the bundle's own draw stream over `default_rng(seed)`:
    with probability 1 - epsilon the true furthest page is
    returned, otherwise a uniformly random other candidate (the sole
    candidate when there is no alternative). Wrong answers are tallied on the
    bundle.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    # the bundle's own stream: it holds its generator, and no other caller draws from it
    stream = DrawStream(np.random.default_rng(seed))
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
    via a maximal boundary.
    """
    if bundle.kind is not PredictionKind.NRT:
        raise ValueError("binary_from_nrt needs an NRT bundle")
    if boundary is None:
        if k is None:
            raise ValueError("deriving the default boundary requires k")
        m = max(1, int(len(trace) * 0.1))
        prefix = Trace(trace.pages[:m])
        out = belady_simulate(prefix, k)
        gaps = [
            prefix.next_occurrence[i] - (i + 1)
            for i, y in enumerate(out.labels)
            if y
        ]
        boundary = float(np.percentile(gaps, 90.0)) if gaps else float(len(trace))
    if boundary <= 0:
        raise ValueError("boundary must be positive")
    labels = [
        1 if pred - t > boundary else 0
        for t, pred in enumerate(bundle.nrt, 1)
    ]
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


_NRT_HEADER = ["index", "predicted_nrt"]
_LABEL_HEADER = ["index", "label"]


def save_bundle_csv(bundle: PredictionBundle, path: str | Path) -> None:
    """Write an NRT or binary bundle as a two-column CSV (1-based index)."""
    if bundle.kind is PredictionKind.NRT:
        header, values = _NRT_HEADER, bundle.nrt
    elif bundle.kind is PredictionKind.BINARY:
        header, values = _LABEL_HEADER, bundle.labels
    else:
        raise ValueError("only NRT and binary bundles can be exported")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for i, v in enumerate(values, 1):
        writer.writerow([i, v])
    Path(path).write_text(buf.getvalue())


def load_bundle_csv(path: str | Path) -> PredictionBundle:
    """Read a bundle written by `save_bundle_csv`; the header names the kind.
    A value may be written as a float (`7.0`) but must be whole."""
    rows = list(csv.reader(io.StringIO(Path(path).read_text(encoding="utf-8-sig"))))
    if not rows:
        raise ValueError("empty bundle file")
    header = [h.strip().lower() for h in rows[0]]
    if header == _NRT_HEADER:
        kind = PredictionKind.NRT
    elif header == _LABEL_HEADER:
        kind = PredictionKind.BINARY
    else:
        raise ValueError(f"unrecognised bundle header {rows[0]!r}")
    values: list[int] = []
    for rownum, row in enumerate(rows[1:], 2):
        if not row:
            continue
        if len(row) != 2:
            raise ValueError(f"row {rownum}: expected 2 fields")
        try:
            idx, val = int(row[0]), float(row[1])
            if not val.is_integer():  # a fraction, or not finite
                raise ValueError
        except ValueError:
            raise ValueError(f"row {rownum}: expected an index and a whole number") from None
        if idx != len(values) + 1:
            raise ValueError(f"row {rownum}: indices must be consecutive from 1")
        values.append(int(val))
    if kind is PredictionKind.NRT:
        return PredictionBundle(kind, nrt=values)
    return PredictionBundle(kind, labels=values)
