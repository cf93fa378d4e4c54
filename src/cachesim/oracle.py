"""Offline optimum (Belady's rule) and eviction labels.

Belady's rule evicts the cached page whose next request lies furthest in the
future. Ties (possible only among pages that are never requested again) are
broken least-recently-used first; no two cached pages share a last request,
so that settles every tie. Every eviction marks the evicted page's most
recent request with a binary label 1: the request was for a page the optimum
later dropped before its next use ("1-page"); requests whose page survives
in cache until its next request (or the end) are 0-pages.

Up to `OPT_SCAN_K` cache slots the victim is found by one scan of the cached
pages' keys, above it by a lazy-deletion heap of the same keys (see
`belady_simulate`), so both give the same victim. The labels of one run are
a `bytearray` with one byte a request.

`opt_cost` and `belady_labels` share one `belady_simulate` run per
(trace, k): its miss count and its labels are kept on the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import count

from .trace import PageId, Trace

# The largest cache size at which the replay engine's value-ordered victims
# (`EvictionContext.furthest` for `blind_oracle`, `belady` and `fitf`'s truth)
# come from one O(k) scan of the cache on each eviction instead of an
# O(log k) heap that takes one push per request. Scan time over heap time,
# replaying 3,000-request uniform and bursty traces over k+1 to 2k pages:
# raw `blind_oracle` under inverted predictions, which evicts on almost every
# request, reads 0.66-0.72 at k = 2 and 0.95-1.02 at k = 5, then loses from
# k = 6 (1.02-1.12, and 1.35-1.48 at k = 10). Guarded and FITF regimes read
# 0.72-0.98 at every k up to 10.
SCAN_K = 5
# The same cutover for the optimum, `belady_simulate`, whose scan is one
# C-level `min` over the cached pages' keys. Scan time over heap time, with
# identical misses and labels: 0.49-0.85 at every k up to 16 on bursty
# 3,000-request traces over k+1 to 2k pages, and at k = 10 0.66-0.71 on the
# benchmark's `envelope-small-k` traces and 0.91-0.96 on its `cli-checkins`
# users. Where nearly every request evicts (uniform requests over 4k pages
# or more) the heap is ahead from k = 6 (1.1-1.6), so the cutover is not
# set higher.
OPT_SCAN_K = 10


def check_k(k: int) -> None:
    """Raise ValueError unless the cache size k is a whole number >= 1
    (`2.0` and numpy integers pass)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k % 1:  # a fraction, or not finite
        raise ValueError(f"k must be a whole number, got {k!r}")


@dataclass
class BeladyOutcome:
    """Result of one offline-optimal simulation: the miss count and a
    `bytearray` of labels, one 0/1 byte a request."""

    misses: int
    labels: bytearray  # per-request 1-page / 0-page flags


def belady_simulate(trace: Trace, k: int) -> BeladyOutcome:
    """Serve the trace with Belady's rule on a k-slot cache.

    Each request i has one integer key, `i - (next request) * (n + 2)`, the
    order `EvictionContext` keeps for value-ordered policies: keys order like
    `(-next request, i)`, and `key % (n + 2)` gives back the request index i.
    The cache maps each page to the key of its last request, and the victim
    is the page with the smallest. At k <= `OPT_SCAN_K` one `min` over the
    cache's keys finds it on each eviction. Above that, victims come from a
    lazy-deletion min-heap of the keys, one push per request: an entry is
    live while its page is cached under that key, and the heap is rebuilt
    from the cache when it grows past 4k entries.
    """
    check_k(k)
    pages = trace.pages
    m = len(pages) + 2
    cache: dict[PageId, int] = {}  # page -> key of its last request
    heap: list[int] | None = None if k <= OPT_SCAN_K else []
    limit = 4 * k
    labels = bytearray(len(pages))
    misses = 0
    for i, p, nxt in zip(count(1), pages, trace.next_occurrence):
        if p not in cache:
            misses += 1
            if len(cache) == k:
                if heap is None:
                    best = min(cache.values())
                    t = best % m
                    victim = pages[t - 1]
                else:
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
        if heap is not None:
            heappush(heap, key)
            if len(heap) > limit:
                heap = list(cache.values())
                heapify(heap)
    return BeladyOutcome(misses, labels)


def _optimum(trace: Trace, k: int) -> tuple[int, bytes]:
    """Miss count and labels of the optimum, from one `belady_simulate` run
    per (trace, k), kept on the trace; the labels as immutable `bytes`."""
    optimum = trace._optima.get(k)
    if optimum is None:
        out = belady_simulate(trace, k)
        optimum = trace._optima[k] = (out.misses, bytes(out.labels))
    return optimum


def opt_cost(trace: Trace, k: int) -> int:
    """Miss count of the offline optimum."""
    return _optimum(trace, k)[0]


def belady_labels(trace: Trace, k: int) -> bytearray:
    """Per-request binary eviction labels of the offline optimum, one byte each.

    Every call returns a fresh `bytearray`, so no caller can change the
    labels another caller sees.
    """
    return bytearray(_optimum(trace, k)[1])
