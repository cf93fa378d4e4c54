"""Offline optimum (Belady's rule) and eviction labels.

Belady's rule evicts the cached page whose next request lies furthest in the
future. Ties (possible only among pages that are never requested again) are
broken least-recently-used first; no two cached pages share a last request,
so that settles every tie. Every eviction marks the evicted page's most
recent request with a binary label 1: the request was for a page the optimum
later dropped before its next use ("1-page"); requests whose page survives
in cache until its next request (or the end) are 0-pages.

The victim comes from a lazy-deletion heap of the cached pages' keys (see
`belady_simulate`) at every cache size. The labels of one run are an
immutable `bytes` with one byte a request.

`opt_cost` and `belady_labels` share one `belady_simulate` run per
(trace, k): its miss count and its labels are kept on the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import count

from .trace import PageId, Trace


def check_k(k: int) -> None:
    """Raise ValueError unless the cache size k is a whole number >= 1
    (`2.0` and numpy integers pass)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k % 1:  # a fraction, or not finite
        raise ValueError(f"k must be a whole number, got {k!r}")


@dataclass
class BeladyOutcome:
    """Result of one offline-optimal simulation: the miss count and the
    labels, one 0/1 byte a request."""

    misses: int
    labels: bytes  # per-request 1-page / 0-page flags


def belady_simulate(trace: Trace, k: int) -> BeladyOutcome:
    """Serve the trace with Belady's rule on a k-slot cache.

    Each request i has one integer key, `i - (next request) * (n + 2)`, the
    order `EvictionContext` keeps for value-ordered policies: keys order like
    `(-next request, i)`, and `key % (n + 2)` gives back the request index i.
    The cache maps each page to the key of its last request, and the victim
    is the page with the smallest. Victims come from a lazy-deletion
    min-heap of the keys, one push per request: an entry is live while its
    page is cached under that key, and the heap is rebuilt from the cache
    when it grows past 4k entries.
    """
    check_k(k)
    pages = trace.pages
    m = len(pages) + 2
    cache: dict[PageId, int] = {}  # page -> key of its last request
    heap: list[int] = []
    limit = 4 * k
    labels = bytearray(len(pages))
    misses = 0
    for i, p, nxt in zip(count(1), pages, trace.next_occurrence):
        if p not in cache:
            misses += 1
            if len(cache) == k:
                while True:
                    best = heappop(heap)
                    t = best % m
                    victim = pages[t - 1]
                    if cache.get(victim) == best:
                        break
                labels[t - 1] = 1
                del cache[victim]
        key = i - nxt * m
        cache[p] = key
        heappush(heap, key)
        if len(heap) > limit:
            heap = list(cache.values())
            heapify(heap)
    return BeladyOutcome(misses, bytes(labels))


def _optimum(trace: Trace, k: int) -> tuple[int, bytes]:
    """Miss count and labels of the optimum, from one `belady_simulate` run
    per (trace, k), kept on the trace."""
    optimum = trace._optima.get(k)
    if optimum is None:
        out = belady_simulate(trace, k)
        optimum = trace._optima[k] = (out.misses, out.labels)
    return optimum


def opt_cost(trace: Trace, k: int) -> int:
    """Miss count of the offline optimum."""
    return _optimum(trace, k)[0]


def belady_labels(trace: Trace, k: int) -> bytes:
    """Per-request binary eviction labels of the offline optimum, one byte
    each: the `bytes` kept on the trace, the same object on every call."""
    return _optimum(trace, k)[1]
