"""Offline optimum (Belady's rule) and eviction labels.

Belady's rule evicts the cached page whose next request lies furthest in the
future. Ties (possible only among pages that are never requested again) are
broken least-recently-used first; no two cached pages share a last request,
so that settles every tie. Every eviction marks the evicted page's most
recent request with a binary label 1: the request was for a page the optimum
later dropped before its next use ("1-page"); requests whose page survives
in cache until its next request (or the end) are 0-pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .trace import PageId, Trace


@dataclass
class BeladyOutcome:
    """Result of one offline-optimal simulation."""

    misses: int
    labels: list[int]  # per-request 1-page / 0-page flags


def belady_simulate(trace: Trace, k: int) -> BeladyOutcome:
    """Serve the trace with Belady's rule on a k-slot cache.

    Victims come from a lazy-deletion min-heap with one integer key per
    request, `i - (next request) * (n + 2)`, the order `EvictionContext`
    keeps for value-ordered policies: keys order like `(-next request, i)`,
    and `key % (n + 2)` gives back the request index i. An entry is live while
    its page is cached and was last requested at i. The heap is rebuilt from
    the cache when it grows past 4k entries.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pages = trace.pages
    nxt = trace.next_occurrence
    m = len(pages) + 2
    cache: dict[PageId, int] = {}  # page -> index of its last request
    heap: list[int] = []
    limit = 4 * k
    labels = [0] * len(pages)
    misses = 0
    for i, p in enumerate(pages, 1):
        if p not in cache:
            misses += 1
            if len(cache) == k:
                while True:
                    t = heappop(heap) % m
                    victim = pages[t - 1]
                    if cache.get(victim) == t:
                        break
                labels[t - 1] = 1
                del cache[victim]
        cache[p] = i
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
