"""Small, deliberately naive reference implementations used by the tests.

Everything here trades speed for obviousness: quadratic scans and direct
simulations that can be checked by eye, so the package's optimized versions
have something independent to agree with. The `max`-based victim choices of
`belady`, `blind_oracle` and the offline optimum, which the package replaced
with heaps (and, up to `SCAN_K` slots, a scan of the heaps' keys), are kept
here as the rules those must reproduce (the
optimum's with the eviction events and cache states that only the tests
read), and so is
the FITF truth found by bisecting each candidate's request list. The guard
and `marker` as they were when the engine told every policy of every eviction
through `on_evict` and the guard took a hook on every request are kept too,
with an engine that still makes that call, as the rules the lazy guard must
reproduce, along with the eager guard's sampling set and the catch-up that
lets a test read the lazy guard's state after any request. So is the engine
that compared the heap's length with its limit on every request, which the
countdown to the next rebuild must reproduce. A guard that counts its own
work (phase resets and the pages each reset and catch-up moves) checks the
paper's "O(1) extra per request" by counts instead of timings.
The plain and check-in readers, the next-occurrence pass and the digest as
per-line and per-request loops are the rules the package's C-level passes
must reproduce.
The exact oracles (exhaustive optimum, current 1-pages, the random 1-page
policy), the request and occurrence helpers, the random and cyclic trace
generators, the generator formulas of label flipping and error measurement,
and the comparison of the optimum with a guarded run's old-page evictions
live here too, because only the tests use them.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappush
from typing import Callable, Iterable, Mapping

import numpy as np

from cachesim import (
    InvariantViolation,
    Policy,
    PredictionBundle,
    PredictionError,
    Trace,
)
from cachesim.guard import GuardPolicy, PhaseStats
from cachesim.oracle import belady_labels
from cachesim.policy import ContractViolation, EvictionContext
from cachesim.predict import PredictionKind
from cachesim.trace import PageId


@dataclass(frozen=True)
class Request:
    """A single page request: 1-based position in the trace plus the page."""

    index: int
    page: PageId


def requests(trace: Trace) -> list[Request]:
    """Materialised request objects; O(n), intended for small traces."""
    return [Request(i, p) for i, p in enumerate(trace.pages, 1)]


@lru_cache(maxsize=16)
def occurrences(trace: Trace) -> dict[PageId, list[int]]:
    """Per-page sorted request indices (1-based); kept for the last few traces."""
    occ: dict[PageId, list[int]] = {}
    for i, p in enumerate(trace.pages, 1):
        occ.setdefault(p, []).append(i)
    return occ


def next_occurrence_after(trace: Trace, page: PageId, t: int) -> int:
    """Index of the first request for `page` strictly after `t`; n+1 if none."""
    times = occurrences(trace).get(page)
    if not times:
        return len(trace.pages) + 1
    j = bisect_right(times, t)
    return times[j] if j < len(times) else len(trace.pages) + 1


def last_occurrence_at_or_before(trace: Trace, page: PageId, t: int) -> int | None:
    times = occurrences(trace).get(page)
    if not times:
        return None
    j = bisect_right(times, t)
    return times[j - 1] if j else None


def quadratic_next_occurrence(pages: list[int]) -> list[int]:
    """Next request index for each position by forward scan; n+1 sentinel."""
    n = len(pages)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if pages[j] == pages[i]:
                out.append(j + 1)
                break
        else:
            out.append(n + 1)
    return out


def loop_next_occurrence(pages: list[int]) -> list[int]:
    """The package's backward pass as one loop over indices, before it became
    a reversed `zip` that appends and then reverses."""
    n = len(pages)
    nxt = [0] * n
    last_seen: dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        p = pages[i]
        nxt[i] = last_seen.get(p, n + 1)
        last_seen[p] = i + 1
    return nxt


def loop_digest(pages: list[int]) -> str:
    """`Trace.digest` as hashed before: each page's decimal bytes, newline-joined."""
    h = hashlib.sha256()
    h.update(b"\n".join(str(p).encode() for p in pages))
    return h.hexdigest()


def loop_parse_plain_trace(text: str) -> list[int]:
    """The plain-format reader line by line: the pages it interns, or the
    ValueError it raises."""
    tokens = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens.append(line)
    if not tokens:
        raise ValueError("empty trace")
    interned: dict[str, int] = {}
    return [interned.setdefault(tok, len(interned)) for tok in tokens]


def loop_ingest_brightkite(text: str, cache_size: int) -> list[tuple[str, list[int]]]:
    """The check-in reader line by line: (user, pages) per kept user, or the
    ValueError it raises."""
    by_user: dict[str, list[tuple[str, str]]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        cols = raw.split("\t")
        if len(cols) != 5:
            raise ValueError(
                f"line {lineno}: expected 5 tab-separated fields, got {len(cols)}"
            )
        user, ts, _lat, _lon, loc = cols
        user, ts, loc = user.strip(), ts.strip(), loc.strip()
        if not loc:
            raise ValueError(f"line {lineno}: missing location id")
        if not user:
            raise ValueError(f"line {lineno}: missing user id")
        by_user.setdefault(user, []).append((ts, loc))
    if not by_user:
        raise ValueError("empty trace")
    out = []
    for user, rows in by_user.items():
        rows.sort(key=lambda r: r[0])
        locs = [loc for _, loc in rows]
        if len(set(locs)) < 2 * cache_size:
            continue
        interned: dict[str, int] = {}
        out.append((user, [interned.setdefault(l, len(interned)) for l in locs]))
    return out


def lru_misses(pages: list[int], k: int) -> int:
    """Plain LRU simulation on a list-backed cache."""
    cache: list[int] = []
    misses = 0
    for p in pages:
        if p in cache:
            cache.remove(p)
            cache.append(p)
            continue
        misses += 1
        if len(cache) == k:
            cache.pop(0)
        cache.append(p)
    return misses


def belady_misses_naive(pages: list[int], k: int) -> int:
    """Furthest-in-future eviction with a forward scan per eviction."""
    n = len(pages)
    cache: set[int] = set()
    misses = 0
    for i, p in enumerate(pages):
        if p in cache:
            continue
        misses += 1
        if len(cache) == k:
            best, best_next = None, -1
            for q in sorted(cache):
                nxt = n + 1
                for j in range(i + 1, n):
                    if pages[j] == q:
                        nxt = j + 1
                        break
                if nxt > best_next:
                    best, best_next = q, nxt
            cache.discard(best)
        cache.add(p)
    return misses


def random_trace(rng: np.random.Generator, n: int, universe: int,
                 burst_prob: float = 0.3) -> Trace:
    """Random request sequence over a fixed universe with short reuse bursts."""
    pages: list[int] = []
    while len(pages) < n:
        p = int(rng.integers(universe))
        if rng.random() < burst_prob:
            pages.extend([p] * int(rng.integers(1, 4)))
        else:
            pages.append(p)
    return Trace(pages[:n])


def cyclic_trace(num_pages: int, n: int) -> Trace:
    """Round-robin requests over ``num_pages`` pages; the classic paging stressor."""
    if num_pages < 1 or n < 1:
        raise ValueError("need at least one page and one request")
    return Trace([i % num_pages for i in range(n)])


class MaxBeladyPolicy(Policy):
    """`belady` by a scan of every candidate on each eviction."""

    name = "belady"

    def begin_run(self, trace, k, bundle, rng):
        self._nxt = trace.next_occurrence

    def choose_victim(self, ctx, rng):
        nxt = self._nxt
        lu = ctx.last_used
        return max(ctx.candidates, key=lambda p: (nxt[lu[p] - 1], -lu[p], p))


class MaxBlindOraclePolicy(Policy):
    """`blind_oracle` by a scan of every candidate on each eviction."""

    name = "blind_oracle"
    requires = PredictionKind.NRT

    def choose_victim(self, ctx, rng):
        nrt = ctx.predictions.nrt
        lu = ctx.last_used
        return max(ctx.candidates, key=lambda p: (nrt[lu[p] - 1], -lu[p], p))


class DictLRBPolicy(Policy):
    """`lrb` with the label attached at each page's latest request kept in a
    dict by its own request hook, and `rng.integers` for the draw."""

    name = "lrb"
    requires = PredictionKind.BINARY
    needs_request_hook = True

    def begin_run(self, trace, k, bundle, rng):
        self._labels = bundle.labels
        self._attached: dict[PageId, int] = {}

    def on_request(self, page, now, hit):
        self._attached[page] = self._labels[now - 1]

    def choose_victim(self, ctx, rng):
        pool = sorted(p for p in ctx.candidates if self._attached[p])
        if not pool:
            pool = sorted(ctx.candidates)
        return pool[int(rng.integers(len(pool)))]


def bisect_fitf_truth(trace: Trace, candidates: Iterable[PageId], now: int) -> PageId:
    """The furthest-in-the-future candidate after request `now`, found by
    bisecting each candidate's request list; ties: least recently used
    first, then larger id."""
    occ = occurrences(trace)
    sentinel = len(trace) + 1
    best = best_key = None
    for c in candidates:
        times = occ[c]
        j = bisect_right(times, now)
        nxt = times[j] if j < len(times) else sentinel
        key = (nxt, -times[j - 1], c)
        if best_key is None or key > best_key:
            best, best_key = c, key
    return best


def bisect_noisy_fitf(trace: Trace, k: int, epsilon: float, seed: int = 0,
                      truths: list | None = None) -> PredictionBundle:
    """`noisy_fitf` with its truth from `bisect_fitf_truth`, the same RNG
    stream and noise rule; each query's truth is appended to `truths`."""
    rng = np.random.default_rng(seed)
    bundle = PredictionBundle(PredictionKind.FITF)

    def choice(ctx) -> PageId:
        candidates = list(ctx.candidates)
        truth = answer = bisect_fitf_truth(trace, candidates, ctx.now)
        if truths is not None:
            truths.append(truth)
        u = float(rng.random())
        if u < epsilon:
            others = sorted(c for c in candidates if c != truth)
            if others:
                answer = others[min(int(u / epsilon * len(others)), len(others) - 1)]
        bundle.fitf_queries += 1
        if answer != truth:
            bundle.fitf_wrong += 1
        return answer

    bundle.fitf_choice = choice
    return bundle


def generator_flip_labels(trace: Trace, k: int, p_flip: float, seed: int = 0) -> list[int]:
    """`flip_labels`'s labels, one Python XOR per request."""
    flips = np.random.default_rng(seed).random(len(trace)) < p_flip
    return [int(y ^ bool(f)) for y, f in zip(belady_labels(trace, k), flips)]


def generator_measure_error(bundle: PredictionBundle, trace: Trace,
                            k: int | None = None) -> PredictionError:
    """`measure_error` of an NRT or binary bundle, by generator sums."""
    if bundle.kind is PredictionKind.NRT:
        truth = trace.next_occurrence
        return PredictionError(eta_t=float(sum(abs(a - b) for a, b in zip(bundle.nrt, truth))))
    truth = belady_labels(trace, k)
    return PredictionError(eta_b=sum(a != b for a, b in zip(bundle.labels, truth)))


@dataclass
class MaxBeladyOutcome:
    """`belady_simulate`'s misses and labels, with the eviction events and
    (on request) cache states that only the tests read."""

    misses: int
    eviction_events: list[tuple[int, PageId]]  # (request index, evicted page)
    labels: list[int]
    states: list[frozenset] | None = None  # cache contents after each request


def max_belady_simulate(trace: Trace, k: int, *, collect_states: bool = False) -> MaxBeladyOutcome:
    """`belady_simulate` by a scan of the whole cache on each eviction."""
    pages = trace.pages
    nxt = trace.next_occurrence
    cache: dict[PageId, int] = {}  # page -> next request index
    last_used: dict[PageId, int] = {}
    labels = [0] * len(pages)
    events: list[tuple[int, PageId]] = []
    states: list[frozenset] | None = [] if collect_states else None
    misses = 0
    for i, p in enumerate(pages, 1):
        if p not in cache:
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
    return MaxBeladyOutcome(misses, events, labels, states)


def fitf_page(
    cached: Iterable[PageId],
    now: int,
    next_of: Callable[[PageId], int] | Mapping[PageId, int],
    last_used: Callable[[PageId], int] | Mapping[PageId, int] | None = None,
) -> PageId:
    """Furthest-in-the-future page among ``cached``.

    ``next_of`` maps a page to its next request index strictly after ``now``.
    Ties break least-recently-used first (via ``last_used``, when given), then
    larger page id — the same rule `belady_simulate` applies.
    """
    cached = list(cached)
    if not cached:
        raise ValueError("empty candidate set")
    get_next = next_of if callable(next_of) else next_of.__getitem__
    if last_used is None:
        get_last = lambda p: 0  # noqa: E731 - no recency info: page id decides ties
    else:
        get_last = last_used if callable(last_used) else last_used.__getitem__
    return max(cached, key=lambda p: (get_next(p), -get_last(p), p))


def brute_force_opt(trace: Trace, k: int) -> int:
    """Exact optimum by exhaustive eviction branching, memoised on (position, cache).

    Only usable on tiny instances; guarded at n <= 16 and universe <= 6.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(trace) > 16 or trace.universe_size > 6:
        raise ValueError("instance too large for exhaustive search (n <= 16, universe <= 6)")
    pages = tuple(trace.pages)
    n = len(pages)

    @lru_cache(maxsize=None)
    def solve(i: int, cache: frozenset) -> int:
        if i == n:
            return 0
        p = pages[i]
        if p in cache:
            return solve(i + 1, cache)
        if len(cache) < k:
            return 1 + solve(i + 1, cache | {p})
        return 1 + min(solve(i + 1, (cache - {q}) | {p}) for q in cache)

    return solve(0, frozenset())


def current_one_pages(
    trace: Trace,
    k: int,
    cached: Iterable[PageId],
    now: int,
    last_used: Mapping[PageId, int] | None = None,
) -> set[PageId]:
    """Cached pages an optimal continuation would evict before their next request.

    Reruns Belady's rule over requests ``now+1..n`` starting from the given
    cache contents and reports which of those pages get dropped strictly
    before they are requested again (those are the state's current 1-pages).
    """
    pages = trace.pages
    nxt_arr = trace.next_occurrence
    n = len(pages)
    cache: dict[PageId, int] = {}
    lu: dict[PageId, int] = {}
    for p in cached:
        if last_used is not None:
            t_last = last_used[p]
        else:
            t_last = last_occurrence_at_or_before(trace, p, now)
            if t_last is None:
                raise ValueError(f"cached page {p} was never requested up to t={now}")
        cache[p] = next_occurrence_after(trace, p, now)
        lu[p] = t_last
    ones: set[PageId] = set()
    unresolved = set(cache)
    for i in range(now + 1, n + 1):
        if not unresolved:
            break
        p = pages[i - 1]
        # Reaching its next request while still cached settles a page as a 0-page.
        unresolved.discard(p)
        if p in cache:
            cache[p] = nxt_arr[i - 1]
        else:
            if len(cache) == k:
                victim = max(cache, key=lambda q: (cache[q], -lu[q], q))
                del cache[victim]
                if victim in unresolved:
                    ones.add(victim)
                    unresolved.discard(victim)
            cache[p] = nxt_arr[i - 1]
        lu[p] = i
    return ones


def rb_random_policy_cost(trace: Trace, k: int, seed: int = 0) -> int:
    """Miss count of the policy that evicts a uniformly random true 1-page.

    The 1-page set is recomputed operationally at every eviction via
    `current_one_pages`; prioritising 1-pages this way matches the offline
    optimum's cost exactly.
    """
    rng = np.random.default_rng(seed)
    cache: set[PageId] = set()
    last_used: dict[PageId, int] = {}
    misses = 0
    for i, p in enumerate(trace.pages, 1):
        if p in cache:
            last_used[p] = i
            continue
        misses += 1
        if len(cache) == k:
            ones = sorted(current_one_pages(trace, k, cache, i - 1, last_used))
            if not ones:
                raise RuntimeError(f"no 1-page available at miss t={i}")
            cache.discard(ones[int(rng.integers(len(ones)))])
        cache.add(p)
        last_used[p] = i
    return misses


class EagerEvictionContext(EvictionContext):
    """The replay engine with the earlier eviction protocol: after the policy
    chooses a victim, the engine calls the policy's `on_evict` with it. (The
    call comes before the engine drops the victim from the cache, which
    neither `on_evict` below reads.)"""

    __slots__ = ()

    def __init__(self, policy, trace, k, bundle, rng):
        super().__init__(policy, trace, k, bundle, rng)
        hook, choose = self._calls

        def choose_and_notify(ctx, rng):
            victim = choose(ctx, rng)
            policy.on_evict(victim, ctx.now)
            return victim

        self._calls = (hook, choose_and_notify)


class LengthCheckEvictionContext(EvictionContext):
    """The replay engine as it was before it counted down the pushes to the
    heap's next rebuild: it compares the heap's length with its limit after
    every push."""

    __slots__ = ()

    def advance(self, until: int) -> None:
        k = self.k
        rng = self.rng
        cache = self.cached
        last_used = self.last_used
        order, heap = self._order, self._heap
        m = len(self._pages) + 2
        limit = 4 * k
        hook, choose = self._calls
        i = self.served
        for p in self._pages[i:until]:
            i += 1
            if p in cache:
                last_used[p] = i
                if hook is not None:
                    hook(p, i, True)
            else:
                self.misses += 1
                if len(cache) == k:
                    self.now = i
                    self.requested = p
                    victim = choose(self, rng)
                    if victim not in cache:
                        raise ContractViolation(
                            f"{self.policy.name} chose non-candidate victim {victim!r} at t={i}"
                        )
                    cache.discard(victim)
                    self.last_evict_t, self.last_evict_victim = i, victim
                cache.add(p)
                last_used[p] = i
                if hook is not None:
                    hook(p, i, False)
            if heap is not None:
                heappush(heap, i - order[i - 1] * m)
                if len(heap) > limit:
                    heap[:] = [t - order[t - 1] * m for t in map(last_used.__getitem__, cache)]
                    heapify(heap)
                    self.rebuilds += 1
        self.served = i


class EagerMarkerPolicy(Policy):
    """`marker` that unmarks its victims in an engine-called `on_evict`
    (run it on `EagerEvictionContext`)."""

    name = "marker"
    needs_request_hook = True

    def begin_run(self, trace, k, bundle, rng):
        self.marked: set[PageId] = set()

    def choose_victim(self, ctx, rng):
        if self.marked >= ctx.cached:
            self.marked.clear()
        pool = sorted(p for p in ctx.candidates if p not in self.marked)
        if not pool:
            pool = sorted(ctx.candidates)
        return pool[int(rng.integers(len(pool)))]

    def on_request(self, page, now, hit):
        self.marked.add(page)

    def on_evict(self, page, now):
        self.marked.discard(page)


class RecencyLRUPolicy(Policy):
    """`lru` from its own recency list, kept by a hook on every request."""

    name = "lru"
    needs_request_hook = True

    def begin_run(self, trace, k, bundle, rng):
        self._recency: dict[PageId, None] = {}

    def on_request(self, page, now, hit):
        self._recency.pop(page, None)
        self._recency[page] = None

    def choose_victim(self, ctx, rng):
        return next(p for p in self._recency if p in ctx.candidates)


class _RandomSet:
    """Set of page ids with O(1) add, discard, and uniform sampling: the
    eager guard's `unrequested`, which the lazy guard keeps as a plain list
    and index map."""

    __slots__ = ("_items", "_pos")

    def __init__(self, items=()):
        self.reset(items)

    def __len__(self):
        return len(self._items)

    def __contains__(self, page):
        return page in self._pos

    def __iter__(self):
        return iter(self._items)

    def reset(self, items) -> None:
        self._items = list(items)
        self._pos = dict(zip(self._items, range(len(self._items))))

    def discard(self, page) -> None:
        idx = self._pos.pop(page, None)
        if idx is None:
            return
        items = self._items
        last = items.pop()
        if idx < len(items):
            items[idx] = last
            self._pos[last] = idx

    def sample(self, rng) -> PageId:
        if not self._items:
            raise InvariantViolation("sample from empty unrequested-page set")
        return self._items[rng.integers(len(self._items))]


def catch_up(guard, t: int) -> None:
    """Account the lazy `GuardPolicy` `guard` for the requests after the last
    one it accounted for, up to and including request t, as its next
    eviction would, so that an audit can read its state after any request.
    Before the first eviction (phase 0) they are cold fills and hits on
    them, so each distinct page was loaded once. After it, every miss
    evicts, so they are hits, and each page touched for the first time this
    phase leaves `unrequested`, in request order, as it would have on its
    hit."""
    seen = guard._seen
    if t > seen:
        window, guard._seen = guard._pages[seen:t], t
        if not guard.phase:
            guard._loads.update(dict.fromkeys(window, 1))
            return
        items, pos = guard.unrequested, guard._pos
        for page in filter(pos.__contains__, window):
            idx = pos.pop(page)
            last = items.pop()
            if idx < len(items):
                items[idx] = last
                pos[last] = idx


class EagerGuardPolicy(Policy):
    """The guard as it was before it caught up lazily at evictions: a hook on
    every request removes a hit page from `unrequested` and counts a miss's
    load, and `on_evict`, which the engine calls after every eviction (run it
    on `EagerEvictionContext`), records the eviction. Every invariant check
    of the guard is made at the same point of the run."""

    needs_request_hook = True

    def __init__(self, base: Policy):
        self.base = base
        self.name = f"guard:{base.name}"
        self.requires = base.requires

    def victim_order(self, trace, bundle):
        return self.base.victim_order(trace, bundle)

    def begin_run(self, trace, k, bundle, rng):
        self.base.begin_run(trace, k, bundle, rng)
        self._base_hook = self.base.on_request if self.base.needs_request_hook else None
        self.unrequested = _RandomSet()
        self.guarded: set[PageId] = set()
        self.evicted_this_phase: set[PageId] = set()
        self.old_pages: set[PageId] = set()
        self.phase = 0
        self.max_guarded = 0
        self.guard_events = 0
        self._closed: list[tuple[int, int, int, int, int, int]] = []
        self._loads: dict[PageId, int] = {}
        self._n = self._o = self._n_new = self._n_old = 0

    def _current(self) -> tuple[int, int, int, int, int, int]:
        return (self.phase, len(self._loads), self._n, self._o, self._n_new, self._n_old)

    def _close_phase(self, cached) -> None:
        self._closed.append(self._current())
        self.guarded.clear()
        self.old_pages = set(cached)
        self.unrequested.reset(cached)
        self.evicted_this_phase.clear()
        self._loads.clear()
        self._n = self._o = self._n_new = self._n_old = 0
        self.phase += 1

    def choose_victim(self, ctx, rng):
        page = ctx.requested
        if not self.unrequested._items:
            self._close_phase(ctx.cached)
        old = self.old_pages
        if page in self.evicted_this_phase:
            victim = self.unrequested.sample(rng)
            if page in self.unrequested._pos:
                raise InvariantViolation(
                    f"page {page!r} is both missed and marked unrequested at t={ctx.now}"
                )
            self.guarded.add(page)
            self.evicted_this_phase.discard(page)
            self.guard_events += 1
            if len(self.guarded) > self.max_guarded:
                self.max_guarded = len(self.guarded)
        else:
            if page in old and self.phase >= 1:
                raise InvariantViolation(
                    f"snapshot page {page!r} missed at t={ctx.now} in phase "
                    f"{self.phase} without having been evicted this phase"
                )
            guarded = self.guarded
            if guarded:
                saved = ctx.excluded
                ctx.excluded = saved | guarded if saved else guarded
                try:
                    victim = self.base.choose_victim(ctx, rng)
                finally:
                    ctx.excluded = saved
                if victim in guarded:
                    raise InvariantViolation(
                        f"base policy {self.base.name!r} chose guarded page {victim!r}"
                    )
            else:
                victim = self.base.choose_victim(ctx, rng)
        if page in old:
            self._o += 1
        else:
            self._n += 1
            if victim in old:
                self._n_old += 1
            else:
                self._n_new += 1
        return victim

    def on_request(self, page, now, hit):
        if hit:
            self.unrequested.discard(page)
        elif page not in self.old_pages:
            loads = self._loads.get(page, 0) + 1
            if loads > 2:
                raise InvariantViolation(
                    f"new page {page!r} loaded {loads} times in phase {self.phase}"
                )
            self._loads[page] = loads
        if self._base_hook is not None:
            self._base_hook(page, now, hit)

    def on_evict(self, page, now):
        if page in self.guarded:
            raise InvariantViolation(f"guarded page {page!r} evicted mid-phase")
        self.unrequested.discard(page)
        self.evicted_this_phase.add(page)
        self.base.on_evict(page, now)

    @property
    def phase_stats(self) -> list[PhaseStats]:
        return [PhaseStats(*ph) for ph in self._closed] + [PhaseStats(*self._current())]


def opt_against_old_evictions(phases: list[PhaseStats],
                              opt: int | None) -> tuple[bool | None, bool | None]:
    """Whether opt <= sum(n_q_old) (the literal upper leg) and whether
    sum(n_q_old) <= opt (the reverse lower leg) in a guarded run's phases.

    Neither direction is a guarantee, so both are diagnostics, not
    violations. The upper leg contradicts 1-consistency: n_q_old counts a
    subset of the eviction-causing misses, so sum(n_q_old) <= misses -
    min(k, U), and a run that costs exactly opt has sum(n_q_old) < opt. The
    reverse leg fails on adversarial runs, where sum(n_q_old) is bounded only
    by sum(c_q) <= 2*opt. Both are None when the run never left phase 0 or
    opt is unknown.
    """
    if opt is None or phases[-1].q < 1:
        return None, None
    n_old_sum = sum(ph.n_q_old for ph in phases)
    return opt <= n_old_sum, n_old_sum <= opt


class CountingGuardPolicy(GuardPolicy):
    """`GuardPolicy` that counts its work per run, leaving its decisions
    alone: the request index of every phase reset (`resets`), the pages the
    resets put into `unrequested` (`reset_pages`) and the pages the catch-up
    passes take out of it (`caught_up`). Each eviction's counts are read
    from the guard's state before and after it, and that state must agree:
    the catch-up removes exactly the unrequested pages hit since the
    previous eviction, and a reset refills the set with the whole cache."""

    def begin_run(self, trace, k, bundle, rng):
        super().begin_run(trace, k, bundle, rng)
        self.resets: list[int] = []
        self.reset_pages = 0
        self.caught_up = 0

    def choose_victim(self, ctx, rng):
        before = set(self.unrequested)
        hit = before.intersection(self._pages[self._seen:ctx.now - 1])
        phase = self.phase
        victim = super().choose_victim(ctx, rng)
        self.caught_up += len(hit)
        if self.phase != phase:
            assert hit == before, "a phase reset while pages were unrequested"
            assert set(self.unrequested) == ctx.cached - {victim}
            self.resets.append(ctx.now)
            self.reset_pages += len(ctx.cached)
        else:
            assert set(self.unrequested) == before - hit - {victim}
        return victim
