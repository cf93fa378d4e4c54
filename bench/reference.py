"""References the benchmark checks the program against.

These are written apart from the package and share no code with it: the
optimum and the prediction follower keep their candidates in heaps with lazy
deletion where the package scans every cached page, and the robustness bound
is summed here rather than read from the package.
"""

from __future__ import annotations

import heapq
import math

import numpy as np


def next_use(pages: list[int]) -> list[int]:
    """1-based index of each request's next request for the same page; n+1 if none."""
    n = len(pages)
    nxt = [n + 1] * n
    seen: dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        nxt[i] = seen.get(pages[i], n + 1)
        seen[pages[i]] = i + 1
    return nxt


def belady_misses(pages: list[int], k: int) -> int:
    """Miss count of the offline optimum (evict the page needed furthest ahead)."""
    nxt = next_use(pages)
    cached: dict[int, int] = {}  # page -> its next use
    heap: list[tuple[int, int]] = []  # (-next use, page); stale entries skipped
    misses = 0
    for i, p in enumerate(pages):
        if p not in cached:
            misses += 1
            if len(cached) == k:
                while True:
                    neg, q = heapq.heappop(heap)
                    if cached.get(q) == -neg:
                        del cached[q]
                        break
        cached[p] = nxt[i]
        heapq.heappush(heap, (-nxt[i], p))
    return misses


def follower_misses(pages: list[int], k: int, preds: list[int]) -> int:
    """Miss count of the policy that trusts next-request-time predictions.

    A page carries the prediction made at its most recent request. The victim
    has the largest prediction; ties go to the least recently used page, then
    to the larger page id.
    """
    cached: dict[int, tuple[int, int]] = {}  # page -> (prediction, last use)
    heap: list[tuple[int, int, int]] = []  # (-prediction, last use, -page)
    misses = 0
    for i, p in enumerate(pages, 1):
        if p not in cached:
            misses += 1
            if len(cached) == k:
                while True:
                    neg_pred, last, neg_page = heapq.heappop(heap)
                    if cached.get(-neg_page) == (-neg_pred, last):
                        del cached[-neg_page]
                        break
        cached[p] = (preds[i - 1], i)
        heapq.heappush(heap, (-preds[i - 1], i, -p))
    return misses


def inverted_predictions(pages: list[int]) -> list[int]:
    """n + 1 - (true next request time): soon-needed pages look furthest away."""
    n = len(pages)
    return [n + 1 - t for t in next_use(pages)]


def lognormal_predictions(pages: list[int], sigma: float, seed: int) -> list[int]:
    """t + (T - t) * X with X ~ LogNormal(0, sigma) from numpy's default_rng(seed),
    rounded half to even and floored at t + 1: the documented noise model."""
    noise = np.random.default_rng(seed).lognormal(0.0, sigma, size=len(pages)).tolist()
    out = []
    for t, (T, x) in enumerate(zip(next_use(pages), noise), 1):
        out.append(max(round(t + (T - t) * x), t + 1))
    return out


def robustness_bound(k: int) -> float:
    """2 * H_k + 2, the guarded wrapper's worst-case ratio to the optimum."""
    return 2.0 * math.fsum(1.0 / i for i in range(1, k + 1)) + 2.0
