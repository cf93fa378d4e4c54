"""Offline optimum (Belady's rule) and eviction labels.

Belady's rule evicts the cached page whose next request lies furthest in the
future. Ties (possible only among pages that are never requested again) are
broken least-recently-used first, then larger page id. Every eviction marks
the evicted page's most recent request with a binary label 1: the request was
for a page the optimum later dropped before its next use ("1-page"); requests
whose page survives in cache until its next request (or the end) are 0-pages.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trace import PageId, Trace


@dataclass
class BeladyOutcome:
    """Result of one offline-optimal simulation."""

    misses: int
    eviction_events: list[tuple[int, PageId]]  # (request index, evicted page)
    labels: list[int]  # per-request 1-page / 0-page flags
    states: list[frozenset] | None = None  # cache contents after each request


def belady_simulate(trace: Trace, k: int, *, collect_states: bool = False) -> BeladyOutcome:
    """Serve the trace with Belady's rule on a k-slot cache."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pages = trace.pages
    nxt = trace.next_occurrence
    cache: dict[PageId, int] = {}  # page -> next request index
    last_used: dict[PageId, int] = {}
    labels = [0] * len(pages)
    events: list[tuple[int, PageId]] = []
    states: list[frozenset] | None = [] if collect_states else None
    misses = 0
    for i, p in enumerate(pages, 1):
        if p in cache:
            cache[p] = nxt[i - 1]
        else:
            misses += 1
            if len(cache) == k:
                victim = max(cache, key=lambda q: (cache[q], -last_used[q], q))
                labels[last_used[victim] - 1] = 1
                events.append((i, victim))
                del cache[victim]
            cache[p] = nxt[i - 1]
        last_used[p] = i
        if states is not None:
            states.append(frozenset(cache))
    return BeladyOutcome(misses, events, labels, states)


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
