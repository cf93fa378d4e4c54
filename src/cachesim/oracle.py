"""Offline optimum (Belady's rule) and eviction labels.

Belady's rule evicts the cached page whose next request lies furthest in the
future. Ties (possible only among pages that are never requested again) are
broken least-recently-used first; no two cached pages share a last request,
so that settles every tie. Every eviction marks the evicted page's most
recent request with a binary label 1: the request was for a page the optimum
later dropped before its next use ("1-page"); requests whose page survives
in cache until its next request (or the end) are 0-pages.

The victim is found from marks on the cached pages' next-request times (see
`belady_simulate`), with one path at every cache size: O(1) work per
request, plus, per eviction, a search in C of at most n/64 flag bytes, and
each stale flag is cleared once per mark that set it. The labels of one run
are an immutable `bytes` with one byte a request.

`opt_cost` and `belady_labels` share one `belady_simulate` run per
(trace, k): its miss count and its labels are kept on the trace.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .trace import Trace


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

    No two cached pages are next requested at the same time T <= n, so the
    cache is kept as marks on those times: `alive[T]` is 2 while a cached
    page is next requested at T (request i hits exactly when `alive[i]` is 2)
    and becomes 1 when that page is evicted. `flags[b]` is set with every
    mark in the block of slots [64b, 64b + 64), and `top` is the highest
    flagged block. Pages never requested again wait in a FIFO of their last
    requests and are evicted first, oldest first. Otherwise the victim is
    the highest mark, in block `top`; a flag whose block holds no mark any
    more is cleared when the search meets it, and the search moves on to
    the next flag down. After the loop `alive[next_occurrence[j]]` is the
    label of request j, except for the evicted pages never requested again,
    whose labels are kept apart.
    """
    check_k(k)
    nxt = trace.next_occurrence
    n = len(nxt)
    alive = bytearray(n + 2)  # slot n + 1, the sentinel, is never marked
    flags = bytearray((n >> 6) + 1)
    dead_labels = bytearray(n)
    dead: deque[int] = deque()  # last requests of cached pages never requested again
    top = -1
    free = k
    misses = 0
    for i, t in enumerate(nxt, 1):
        if alive[i] == 2:
            alive[i] = 0
        else:
            misses += 1
            if free:
                free -= 1
            elif dead:
                dead_labels[dead.popleft() - 1] = 1
            else:
                while (v := alive.rfind(2, top << 6, top + 1 << 6)) < 0:
                    flags[top] = 0
                    top = flags.rfind(1, 0, top)
                alive[v] = 1
        if t > n:
            dead.append(i)
        else:
            alive[t] = 2
            b = t >> 6
            flags[b] = 1
            if b > top:
                top = b
    # one gather, then a label per dead victim: numpy arithmetic or a boolean
    # mask here raised the benchmark's peak resident memory by 0.1-0.2 MiB
    labels = np.frombuffer(alive, np.uint8)[np.asarray(nxt)]
    j = dead_labels.find(1)
    while j >= 0:
        labels[j] = 1
        j = dead_labels.find(1, j + 1)
    return BeladyOutcome(misses, labels.tobytes())


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
