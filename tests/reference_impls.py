"""Small, deliberately naive reference implementations used by the tests.

Everything here trades speed for obviousness: quadratic scans and direct
simulations that can be checked by eye, so the package's optimized versions
have something independent to agree with. The `max`-based victim choices of
`belady`, `blind_oracle` and the offline optimum, which the package replaced
with the engine's heap (up to `SCAN_K` slots, a scan of the cache's keys)
and the optimum's marks, are kept here as the rules those must reproduce
(the optimum's with the eviction events and cache states that only the
tests read), and so is
the FITF truth found by bisecting each candidate's request list. The guard
and `marker` as they were when the engine told every policy of every eviction
through `on_evict` and the guard took a hook on every request are kept too,
with an engine that still makes that call, as the rules the hook-free guard
must reproduce, along with the eager guard's sampling set, the guard that
draws through that set's swap-removal order (the rule before rejection
draws) and the catch-up that lets a test read the guard's phase-0 loads after
any request. A guard that counts its own work (phase resets, list pops and
reads, and draws) checks the paper's "O(1) extra per request" by counts
instead of timings.
The plain and check-in readers and the next-occurrence pass as per-line and
per-request loops are the rules the package's C-level passes must reproduce.
The exact oracles (exhaustive optimum, current 1-pages, the random 1-page
policy), the request and occurrence helpers, a run's eviction log, the
random and cyclic trace generators, the hot-page instance, the generator
formulas of label flipping and error measurement,
and the comparison of the optimum with a guarded run's old-page evictions
live here too, because only the tests use them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping

import numpy as np

from cachesim import (
    InvariantViolation,
    Policy,
    PredictionBundle,
    PredictionError,
    Trace,
)
from cachesim.draws import DrawStream
from cachesim.guard import GuardPolicy, PhaseStats
from cachesim.oracle import belady_labels
from cachesim.policy import EvictionContext
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


def loop_ingest_address_trace(text: str, ways: int) -> list[tuple[int, list[int]]]:
    """The address reader line by line: (set, pages) per set in ascending set
    order, or the ValueError it raises. Takes a `ways` that divides the 32,768
    lines of the 2 MiB cache."""
    num_sets = 32768 // ways
    per_set: dict[int, list[int]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        tok = raw.strip()
        if not tok or tok.startswith("#"):
            continue
        try:
            addr = int(tok, 16) if tok.lower().startswith("0x") else int(tok)
        except ValueError:
            raise ValueError(f"line {lineno}: unparsable address {tok!r}") from None
        if addr < 0:
            raise ValueError(f"line {lineno}: negative address {tok!r}")
        per_set.setdefault(addr // 64 % num_sets, []).append(addr // 64)
    if not per_set:
        raise ValueError("empty trace")
    return sorted(per_set.items())


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


def eviction_log(policy, trace, k, bundle, seed, engine_cls=EvictionContext):
    """Every (request index, victim) of one run, served a request per
    `advance` call, and the engine that ran it."""
    engine = engine_cls(policy, trace, k, bundle, DrawStream(seed))
    log = []
    for i in range(1, len(trace) + 1):
        engine.advance(i)
        if engine.last_evict_t == i:
            log.append((i, engine.last_evict_victim))
    return log, engine


def hot_page_instance(n: int, k: int, seed: int) -> tuple[Trace, PredictionBundle]:
    """A trace and NRT bundle on which a guarded `blind_oracle` shields many
    pages at once: each request is, with probability 1/2, a uniform draw from
    k // 2 hot pages, and otherwise from 2k other pages. The bundle says
    n + 1 ("never again") at every hot request and gives the true next
    request elsewhere, so the base evicts hot pages first and the guard
    shields them as they come back. Drawn from `default_rng(seed)`."""
    rng = np.random.default_rng(seed)
    hot = k // 2
    is_hot = rng.random(n) < 0.5
    pages = np.where(is_hot, rng.integers(0, hot, n), hot + rng.integers(0, 2 * k, n))
    trace = Trace(pages.tolist())
    nrt = [n + 1 if h else v for h, v in zip(is_hot.tolist(), trace.next_occurrence)]
    return trace, PredictionBundle(PredictionKind.NRT, nrt=nrt)


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
    eager guard's set of unrequested pages, whose swap-removal order the
    guard's draws once followed."""

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


def catch_up(guard, pages, t: int) -> None:
    """Account `GuardPolicy` `guard` for requests 1..t of `pages`, so that an
    audit can read its `_loads` after any request, as the eager guard counts
    them. Only phase 0 needs it: the guard counts the loads of a phase at its
    evictions, and phase 0 ends at the first one, before which every request
    is a cold fill or a hit, so each distinct page was loaded once."""
    if not guard.phase:
        guard._loads.update(dict.fromkeys(pages[:t], 1))


class EagerGuardPolicy(Policy):
    """The guard with a hook on every request, which removes a hit page from
    the set `unrequested_set` and counts a miss's load, and `on_evict`, which
    the engine calls after every eviction (run it on `EagerEvictionContext`),
    to record the eviction. It keeps its own copy of each phase's reset list,
    `unrequested`, and that set alone decides which entries the list's end
    loses at an eviction and which draws a redirect rejects; it never reads
    the engine's `last_used`. Every invariant check of the guard is made at
    the same point of the run."""

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
        self.unrequested: list[PageId] = []
        self.unrequested_set = _RandomSet()
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
        self.unrequested.extend(cached)
        self.unrequested_set.reset(cached)
        self.evicted_this_phase.clear()
        self._loads.clear()
        self._n = self._o = self._n_new = self._n_old = 0
        self.phase += 1

    def _draw(self, rng) -> PageId:
        """A uniform draw among the unrequested pages: an index into the
        reset list, drawn again, after the last entry moves into its slot,
        while the entry there has left the set."""
        items, live = self.unrequested, self.unrequested_set
        if not items:
            raise InvariantViolation("sample from empty unrequested-page set")
        i = rng.integers(len(items))
        while items[i] not in live:
            last = items.pop()
            if i < len(items):
                items[i] = last
            i = rng.integers(len(items))
        return items[i]

    def choose_victim(self, ctx, rng):
        page = ctx.requested
        items, live = self.unrequested, self.unrequested_set
        while items and items[-1] not in live:
            items.pop()
        if not items:
            self._close_phase(ctx.cached)
        old = self.old_pages
        if page in self.evicted_this_phase:
            victim = self._draw(rng)
            if page in live:
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
            self.unrequested_set.discard(page)
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
        self.unrequested_set.discard(page)
        self.evicted_this_phase.add(page)
        self.base.on_evict(page, now)

    @property
    def phase_stats(self) -> list[PhaseStats]:
        return [PhaseStats(*ph) for ph in self._closed] + [PhaseStats(*self._current())]


class SwapRemoveGuardPolicy(EagerGuardPolicy):
    """`EagerGuardPolicy` whose redirect draws one index into its set's
    swap-removal order (`_RandomSet.sample`), the rule before rejection
    draws: the same distribution of every run, by other draws."""

    def _draw(self, rng) -> PageId:
        return self.unrequested_set.sample(rng)


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


class _CountingList(list):
    """A list that counts the entries it hands out (by index, slice,
    iteration or membership test) and its pops."""

    def __init__(self):
        super().__init__()
        self.reads = self.pops = 0

    def __getitem__(self, i):
        got = super().__getitem__(i)
        self.reads += len(got) if isinstance(i, slice) else 1
        return got

    def __iter__(self):
        for page in super().__iter__():
            self.reads += 1
            yield page

    def __contains__(self, page):
        self.reads += len(self)
        return super().__contains__(page)

    def pop(self, *args):
        self.pops += 1
        return super().pop(*args)


class _CountingStream:
    """A run's draw stream that counts the `integers` draws made through it,
    and the list pops made before the first of them."""

    def __init__(self, rng, items: _CountingList):
        self.rng, self.items = rng, items
        self.draws = 0
        self.pops_before = None

    def integers(self, n):
        if not self.draws:
            self.pops_before = self.items.pops
        self.draws += 1
        return self.rng.integers(n)

    def random(self):
        return self.rng.random()


class _OnRunStream:
    """A guard's base that draws from the run's stream, not from the counting
    one its guard is handed, so the guard's count holds only its own draws."""

    def __init__(self, base: Policy):
        self.policy = base

    def __getattr__(self, name):
        return getattr(self.policy, name)

    def choose_victim(self, ctx, rng):
        return self.policy.choose_victim(ctx, rng.rng)


@dataclass
class PhaseWork:
    """The counted work of one phase of `CountingGuardPolicy`."""

    reset_pages: int
    tail_pops: int = 0
    rejected: int = 0  # draws that removed an entry and drew again
    reads: int = 0
    draws: int = 0
    redirects: int = 0
    evictions: int = 0


class CountingGuardPolicy(GuardPolicy):
    """`GuardPolicy` that counts its work per run, leaving its decisions
    alone: the request index of every phase reset (`resets`), the pages the
    resets put into `unrequested` (`reset_pages`), and per phase
    (`phase_work`, one `PhaseWork` a phase from phase 1 on) the list's pops,
    split into tail pops and rejected draws, the entries read from the list,
    and the guard's own `integers` draws. An eviction's work up to a phase
    reset belongs to the phase it closes. Each eviction also checks, from the
    engine's `last_used` and not through the list, that a phase resets only
    when no page is unrequested and that the list's live entries are exactly
    the unrequested pages."""

    def __init__(self, base: Policy):
        super().__init__(_OnRunStream(base))

    def begin_run(self, trace, k, bundle, rng):
        super().begin_run(trace, k, bundle, rng)
        self.unrequested = _CountingList()
        self.resets: list[int] = []
        self.reset_pages = 0
        self.phase_work: list[PhaseWork] = []

    def choose_victim(self, ctx, rng):
        items, last_used = self.unrequested, ctx.last_used
        pops, reads = items.pops, items.reads
        stream = _CountingStream(rng, items)
        phase, redirects, start = self.phase, self.guard_events, self._start
        unrequested = {p for p, t in last_used.items() if t < start}
        victim = super().choose_victim(ctx, stream)
        assert self.unrequested is items, "a phase reset refills the list in place"
        if self.phase != phase:
            assert not unrequested, "a phase reset while pages were unrequested"
        # read past the counts: the check is not the guard's work
        start = self._start
        live = {p for p in list.__iter__(items) if last_used.get(p, start) < start}
        assert live == {p for p, t in last_used.items() if t < start}
        tail = (stream.pops_before if stream.draws else items.pops) - pops
        work = self.phase_work[-1] if self.phase_work else PhaseWork(0)
        work.tail_pops += tail
        work.rejected += items.pops - pops - tail
        work.reads += items.reads - reads
        work.draws += stream.draws
        work.redirects += self.guard_events - redirects
        if self.phase != phase:
            self.resets.append(ctx.now)
            self.reset_pages += len(ctx.cached)
            self.phase_work.append(PhaseWork(len(ctx.cached)))
        self.phase_work[-1].evictions += 1
        return victim
