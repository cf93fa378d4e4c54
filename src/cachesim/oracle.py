"""Offline optimum (Belady's rule) and eviction labels.

Belady's rule evicts the cached page whose next request lies furthest in the
future. Ties (possible only among pages that are never requested again) are
broken least-recently-used first; no two cached pages share a last request,
so that settles every tie. Every eviction marks the evicted page's most
recent request with a binary label 1: the request was for a page the optimum
later dropped before its next use ("1-page"); requests whose page survives
in cache until its next request (or the end) are 0-pages.

Up to `SCAN_K` cache slots the victim is found by one scan of the cached
pages' keys, above it by a lazy-deletion heap of the same keys (see
`belady_simulate`), so both give the same victim.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .trace import PageId, Trace

# The largest cache size at which value-ordered victims (the optimum's here,
# `EvictionContext.furthest` for `blind_oracle`, `belady` and `fitf`'s truth)
# come from one O(k) scan of the cache on each eviction instead of an
# O(log k) heap that takes one push per request. Scan time over heap time,
# replaying 3,000-request uniform and bursty traces over k+1 to 2k pages:
# raw `blind_oracle` under inverted predictions, which evicts on almost every
# request, reads 0.66-0.72 at k = 2 and 0.95-1.02 at k = 5, then loses from
# k = 6 (1.02-1.12, and 1.35-1.48 at k = 10). Guarded and FITF regimes read
# 0.72-0.98 and the optimum 0.50-0.66 at every k up to 10.
SCAN_K = 5


def check_k(k: int) -> None:
    """Raise ValueError unless the cache size k is a whole number >= 1
    (`2.0` and numpy integers pass)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k % 1:  # a fraction, or not finite
        raise ValueError(f"k must be a whole number, got {k!r}")


@dataclass
class BeladyOutcome:
    """Result of one offline-optimal simulation."""

    misses: int
    labels: list[int]  # per-request 1-page / 0-page flags


def belady_simulate(trace: Trace, k: int) -> BeladyOutcome:
    """Serve the trace with Belady's rule on a k-slot cache.

    Each request i has one integer key, `i - (next request) * (n + 2)`, the
    order `EvictionContext` keeps for value-ordered policies: keys order like
    `(-next request, i)`, and `key % (n + 2)` gives back the request index i.
    The victim is the cached page whose last request has the smallest key.
    At k <= `SCAN_K` one scan of the cache's keys finds it on each eviction.
    Above that, victims come from a lazy-deletion min-heap of the keys, one
    push per request: an entry is live while its page is cached and was last
    requested at i, and the heap is rebuilt from the cache when it grows past
    4k entries.
    """
    check_k(k)
    pages = trace.pages
    nxt = trace.next_occurrence
    m = len(pages) + 2
    cache: dict[PageId, int] = {}  # page -> index of its last request
    heap: list[int] | None = None if k <= SCAN_K else []
    limit = 4 * k
    labels = [0] * len(pages)
    misses = 0
    for i, p in enumerate(pages, 1):
        if p not in cache:
            misses += 1
            if len(cache) == k:
                if heap is None:
                    best = None
                    for j in cache.values():
                        key = j - nxt[j - 1] * m
                        if best is None or key < best:
                            best = key
                    t = best % m
                    victim = pages[t - 1]
                else:
                    while True:
                        t = heappop(heap) % m
                        victim = pages[t - 1]
                        if cache.get(victim) == t:
                            break
                labels[t - 1] = 1
                del cache[victim]
        cache[p] = i
        if heap is not None:
            heappush(heap, i - nxt[i - 1] * m)
            if len(heap) > limit:
                heap = [t - nxt[t - 1] * m for t in cache.values()]
                heapify(heap)
    return BeladyOutcome(misses, labels)


def opt_cost(trace: Trace, k: int) -> int:
    """Miss count of the offline optimum."""
    return belady_simulate(trace, k).misses


def belady_labels(trace: Trace, k: int) -> list[int]:
    """Per-request binary eviction labels of the offline optimum.

    Computed once per (trace, k) and kept on the trace; every call returns a
    fresh list, so no caller can change the labels another caller sees.
    """
    labels = trace._labels.get(k)
    if labels is None:
        labels = trace._labels[k] = tuple(belady_simulate(trace, k).labels)
    return list(labels)
