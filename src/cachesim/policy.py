"""Eviction policies and the request-replay engine.

A policy sees every request through `on_request` (if it asks for the hook) and
is consulted through `choose_victim` whenever a miss hits a full cache. A
policy records the eviction it chooses inside `choose_victim`; the engine
gives no separate notice, and no wrapper sends one in its base's place: no
package code calls `on_evict`. One engine, `EvictionContext`, replays every
run: `simulate` drives one over the whole trace, and each switching combiner
drives one per sub-policy, a request at a time. The engine keeps each cached
page's last request, whose keys are the cache in load order and whose values
give the prediction attached to each page, and it is the context that
`choose_victim` receives. A policy may evict any cached page outside the
context's `excluded` set, which the guard sets to a fresh shield set at each
phase reset. A policy that evicts the page with the largest value attached
at its last request (`blind_oracle`, `belady`, and `fitf` for its true
furthest page) names those values in `victim_order` and takes its victim
from `furthest`, which skips excluded pages. Above `SCAN_K` slots `furthest`
fills a heap of keys built once per run and pops it, in amortised O(log k)
a request, holding the excluded keys it pops until `excluded` is another
set, and `advance` does no heap work; up to `SCAN_K` it scans the
candidates once, in O(k). Every other policy scans `candidates`.

The `rng` that `begin_run` and `choose_victim` receive is the run's
`DrawStream`, the one the engine is given (a combiner hands its own engine's
stream to its lanes, so they draw from the outer run's stream). `simulate`
gives it `DrawStream(seed)`, which makes `default_rng(seed)` at the run's
first draw, so a run that never draws makes no generator. Policies draw with
`rng.integers(n)` and `rng.random()`, which return what numpy's `Generator`
returns for the same calls, so a seed reproduces a run draw for draw.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import AbstractSet, Sequence

import numpy as np

from .draws import DrawStream
from .oracle import check_k, opt_cost
from .predict import PredictionBundle, PredictionKind
from .trace import PageId, Trace

# The largest cache size at which the replay engine's value-ordered victims
# (`EvictionContext.furthest` for `blind_oracle`, `belady` and `fitf`'s truth)
# come from one O(k) scan of the cache on each eviction instead of an
# O(log k) heap. Scan time over the time of a heap pushed on every request,
# replaying 3,000-request uniform and bursty traces over k+1 to 2k pages:
# raw `blind_oracle` under inverted predictions, which evicts on almost every
# request, reads 0.66-0.72 at k = 2 and 0.95-1.02 at k = 5, then loses from
# k = 6 (1.02-1.12, and 1.35-1.48 at k = 10). Guarded and FITF regimes read
# 0.72-0.98 at every k up to 10. Used at every k, the heap filled at
# evictions from keys built once per run took 1.08-1.10x on `envelope-small-k`.
SCAN_K = 5


def _victim_keys(trace: Trace, values: Sequence[int]) -> array | list[int]:
    """Every request's heap key, `i - values[i - 1] * (n + 2)`: an int64
    `array('q')` when every key fits, else a list of Python ints, in which a
    float value makes a float key whose decode raises `TypeError`. The keys
    of `trace.next_occurrence` are kept on the trace once built."""
    if values is trace.next_occurrence and trace._next_keys is not None:
        return trace._next_keys
    n = len(values)
    try:
        keys = array("q", values)
        vals = np.frombuffer(keys, np.int64)
        if max(-int(vals.min()), int(vals.max())) * (n + 2) + n >= 2**63:
            raise OverflowError
        vals *= -(n + 2)
        vals += np.arange(1, n + 1)
    except (TypeError, OverflowError):  # a float, or a value or key past int64
        keys = [i - v * (n + 2) for i, v in enumerate(values, 1)]
    if values is trace.next_occurrence:
        trace._next_keys = keys
    return keys


class ContractViolation(RuntimeError):
    """A policy broke the engine contract (e.g. evicted a non-candidate)."""


class EvictionContext:
    """Replay engine for one policy on one trace and k-slot cache, and the
    context handed to that policy's `choose_victim`.

    Policies read `now` (index of the request that missed), `requested` (its
    page), `last_used` (each cached page's most recent request index, so the
    prediction attached to page p is the bundle's value at `last_used[p] - 1`),
    `cached` (the keys of `last_used`: the cache, iterated in the order its
    pages were loaded), `excluded` (cached pages they must not evict),
    `candidates` (the cached pages outside `excluded`) and `predictions` (the
    bundle). These are the engine's live state: policies only read them,
    except that the guard sets `excluded` to its shield set. A set assigned
    to `excluded` may gain pages but must not lose any while it stays
    assigned: to shrink it, assign another set object.

    When the policy names a `victim_order`, each request i has one integer
    key, `i - value * (n + 2)`. Since 1 <= i <= n, keys order exactly like
    `(-value, i)`, and `key % (n + 2)` gives back i and with it the page. The
    page `furthest` returns is the candidate whose last request has the
    smallest key: the largest value, the least recently used among equal
    values (indices are unique, so live keys never tie). At k <= `SCAN_K` the
    engine keeps no heap, and `furthest` computes the candidates' keys in one
    scan. Above it, every request's key is built once per run, and
    `furthest` first takes into a min-heap the keys of the requests served
    since its last call (inside an eviction, those before `now`): by a push
    each, or by a rebuild from the cache when the heap would pass 4k
    entries, so it holds O(k). An entry is live while its page is cached and
    was last requested at its index; others are dropped when they reach the
    top. A live entry of an excluded page that reaches the top is held out
    of the heap while `excluded` stays the same set object, and goes back in,
    if still live, before the next pop once it is another, so a guard's
    shields are pushed back once a phase, not at every eviction. Held keys
    count toward the 4k entries, and a rebuild drops them. `advance` does no
    heap work, so an eviction that does not call `furthest` (a guard's
    redirect) costs the heap nothing.
    """

    __slots__ = ("now", "requested", "cached", "excluded", "predictions",
                 "last_used", "policy", "k", "rng", "misses", "served",
                 "last_evict_t", "last_evict_victim", "rebuilds",
                 "_pages", "_order", "_heap", "_keys", "_synced", "_calls",
                 "_held", "_shields", "_m", "_cap")

    def __init__(self, policy: Policy, trace: Trace, k: int,
                 bundle: PredictionBundle | None,
                 rng: DrawStream):
        policy.begin_run(trace, k, bundle, rng)
        self.policy = policy
        self.k = k
        self.rng = rng
        self.now = 0
        self.requested = -1
        self.last_used: dict[PageId, int] = {}
        self.cached = self.last_used.keys()
        self.excluded: set[PageId] | frozenset = frozenset()
        self.predictions = bundle
        self.misses = 0
        self.served = 0
        self.last_evict_t = 0
        self.last_evict_victim: PageId | None = None
        self.rebuilds = 0
        self._pages = trace.pages
        self._m, self._cap = len(trace) + 2, 4 * k  # key modulus, heap bound
        # bound once per run, since a combiner lane calls advance() per request
        self._calls = (policy.on_request if policy.needs_request_hook else None,
                       policy.choose_victim)
        self._order = policy.victim_order(trace, bundle)
        self._heap = self._keys = None
        self._synced = 0  # requests whose keys the heap has taken in
        self._held: list[int] = []  # live keys of `_shields`' pages, popped
        self._shields = self.excluded  # the `excluded` they were held under
        if self._order is not None and k > SCAN_K:
            self._heap, self._keys = [], _victim_keys(trace, self._order)

    @property
    def candidates(self) -> AbstractSet[PageId]:
        """The cached pages the policy may evict."""
        return self.cached - self.excluded if self.excluded else self.cached

    def advance(self, until: int) -> None:
        """Serve every request after the last one served, up to index `until`."""
        k = self.k
        rng = self.rng
        last_used = self.last_used
        hook, choose = self._calls
        misses = self.misses
        # kept in locals and stored once per call: an attribute store on every
        # eviction is measurable on short runs with many evictions
        evict_t, evict_victim = self.last_evict_t, self.last_evict_victim
        i = self.served
        # a slice, not an islice from the first request: a combiner lane
        # advances one request per call
        for p in self._pages[i:until]:
            i += 1
            if p in last_used:
                last_used[p] = i
                if hook is not None:
                    hook(p, i, True)
            else:
                misses += 1
                if len(last_used) == k:
                    self.now = i
                    self.requested = p
                    victim = choose(self, rng)
                    if victim not in last_used:
                        raise ContractViolation(
                            f"{self.policy.name} chose non-candidate victim {victim!r} at t={i}"
                        )
                    del last_used[victim]
                    evict_t, evict_victim = i, victim
                last_used[p] = i
                if hook is not None:
                    hook(p, i, False)
        self.served = i
        self.misses = misses
        self.last_evict_t, self.last_evict_victim = evict_t, evict_victim

    def furthest(self) -> PageId:
        """The cached page outside `excluded` with the largest value in the
        policy's `victim_order`, least recently used first among equals.

        At k <= `SCAN_K` it scans the candidates' keys. Above it, it takes
        the new requests' keys into the heap, pops dead entries for good and
        holds live excluded ones until `excluded` is another set object,
        then pushes back those still live.
        """
        heap, last_used, excluded = self._heap, self.last_used, self.excluded
        pages, m = self._pages, self._m
        if heap is None:
            order = self._order
            best = None  # no sentinel: values may be any integers
            for p, t in last_used.items():
                if p not in excluded:
                    key = t - order[t - 1] * m
                    if best is None or key < best:
                        best = key
            if best is not None:
                return pages[best % m - 1]
        else:
            # take in the requests served since the last call: inside an
            # eviction (`advance` stores `served` as it returns) those before
            # `now`, outside one every served request
            start, now, served = self._synced, self.now, self.served
            end = self._synced = now - 1 if now > served else served
            held = self._held
            if excluded is not self._shields:
                # a new shield set, which may leave out pages of the old one;
                # a held key whose page was requested or evicted since is dead
                self._shields = excluded
                for key in held:
                    i = key % m
                    if last_used.get(pages[i - 1]) == i:
                        heappush(heap, key)
                held.clear()
            if len(heap) + len(held) + end - start > self._cap:
                keys = self._keys
                heap[:] = [keys[t - 1] for t in last_used.values()]
                heapify(heap)
                held.clear()
                self.rebuilds += 1
            elif end - start == 1:
                heappush(heap, self._keys[start])
            else:
                for key in self._keys[start:end]:
                    heappush(heap, key)
            while heap:
                key = heap[0]
                i = key % m
                p = pages[i - 1]
                if last_used.get(p) == i:
                    if p not in excluded:
                        return p
                    held.append(key)
                heappop(heap)
        raise ContractViolation(
            f"{self.policy.name} found no evictable page at t={self.now}"
        )


class Policy:
    """Base eviction policy. Subclasses override `choose_victim`, record there
    the eviction they choose, and may hook `on_request` for bookkeeping; one
    instance serves one run."""

    name = "policy"
    requires = PredictionKind.NONE
    needs_request_hook = False

    def begin_run(self, trace: Trace, k: int, bundle: PredictionBundle | None,
                  rng: DrawStream) -> None:
        """Called once before the first request of a run."""

    def victim_order(self, trace: Trace,
                     bundle: PredictionBundle | None) -> Sequence[int] | None:
        """Per-request integer values for a policy that evicts the page with
        the largest value attached at its last request, through
        `EvictionContext.furthest`: above `SCAN_K` slots it pops a heap of
        keys the engine builds from them once per run, and up to it scans
        the candidates' values. None for a policy that scans its candidates
        itself. A float value makes the key decode fail (a `TypeError`) at
        the first eviction."""
        return None

    def choose_victim(self, ctx: EvictionContext, rng: DrawStream) -> PageId:
        """The cached page to evict for the request `ctx.requested`, which
        missed at `ctx.now`, chosen outside `ctx.excluded`. `rng` is the
        run's draw stream: draw with `rng.integers(n)` and `rng.random()`."""
        raise NotImplementedError

    def on_request(self, page: PageId, now: int, hit: bool) -> None:
        """Observes every request (after the page is cached, on misses) when
        `needs_request_hook` is set; the engine reads that flag once per run."""

    def on_evict(self, page: PageId, now: int) -> None:
        """No package code calls this: a policy records the evictions it
        chooses in `choose_victim`. The no-op stays for the tests' eager
        engine, which calls it after every eviction, and for the benchmark
        tracer, which wraps it by name."""


class LRUPolicy(Policy):
    name = "lru"

    def choose_victim(self, ctx, rng):
        return min(ctx.candidates, key=ctx.last_used.__getitem__)


class MarkerPolicy(Policy):
    """Randomized marking: pages are marked on request; when a miss finds all
    cached pages marked, all marks drop (a new marking phase) and the victim
    is drawn uniformly from the unmarked candidates. A cached page is marked
    when its last request (its value in `ctx.last_used`, which holds only the
    cached pages) is at or after the request that last cleared the marks (0
    before the first), so no request hook is needed."""

    name = "marker"

    def begin_run(self, trace, k, bundle, rng):
        self._cleared = 0

    def choose_victim(self, ctx, rng):
        last_used, cleared, candidates = ctx.last_used, self._cleared, ctx.candidates
        unmarked = [p for p in candidates if last_used[p] < cleared]
        # no unmarked candidate: the marks drop (a new phase) when no cached
        # page is unmarked either; the draw is over all candidates either way
        if not unmarked and not any(t < cleared for t in last_used.values()):
            self._cleared = ctx.now
        pool = unmarked or list(candidates)
        pool.sort()
        return pool[rng.integers(len(pool))]


class _FurthestValuePolicy(Policy):
    """Evicts the candidate with the largest value in `victim_order`; ties
    break least-recently-used first."""

    def choose_victim(self, ctx, rng):
        return ctx.furthest()


class BeladyPolicy(_FurthestValuePolicy):
    """Offline baseline: evicts the true furthest-in-the-future candidate."""

    name = "belady"

    def victim_order(self, trace, bundle):
        return trace.next_occurrence


class BlindOraclePolicy(_FurthestValuePolicy):
    """Trusts next-request-time predictions outright: evicts the candidate
    whose prediction (attached at its most recent request) is largest.
    Ties break least-recently-used first."""

    name = "blind_oracle"
    requires = PredictionKind.NRT

    def victim_order(self, trace, bundle):
        return bundle.nrt


class LRBFollowerPolicy(Policy):
    """Follows binary eviction labels: evicts a uniformly random candidate
    whose attached label is 1, falling back to uniform over all candidates."""

    name = "lrb"
    requires = PredictionKind.BINARY

    def choose_victim(self, ctx, rng):
        labels, last_used, candidates = ctx.predictions.labels, ctx.last_used, ctx.candidates
        pool = [p for p in candidates if labels[last_used[p] - 1]] or list(candidates)
        pool.sort()
        return pool[rng.integers(len(pool))]


class FitFFollowerPolicy(Policy):
    """Delegates each eviction to a furthest-in-the-future choice function,
    which takes the true furthest page from `EvictionContext.furthest` over
    next request times."""

    name = "fitf"
    requires = PredictionKind.FITF

    def victim_order(self, trace, bundle):
        return trace.next_occurrence

    def choose_victim(self, ctx, rng):
        return ctx.predictions.fitf_choice(ctx)


class _CombinerBase(Policy):
    """Runs two sub-policies on private virtual caches over the same requests
    and mirrors the currently active one onto the real cache: on a real
    eviction the active lane's victim for this request is used when it is a
    candidate, otherwise the least-recently-used candidate."""

    needs_request_hook = True

    def __init__(self, a: Policy, b: Policy):
        kinds = {a.requires, b.requires} - {PredictionKind.NONE}
        if len(kinds) > 1:
            raise ValueError(
                f"sub-policies {a.name!r} and {b.name!r} need different prediction kinds"
            )
        self.requires = kinds.pop() if kinds else PredictionKind.NONE
        self.policies = (a, b)
        self.active = 0

    def begin_run(self, trace, k, bundle, rng):
        self.lanes = tuple(EvictionContext(p, trace, k, bundle, rng) for p in self.policies)
        self.active = 0

    def _advance(self, now: int) -> None:
        """Serve the lanes in lockstep up to request `now`. Every request
        reaches the combiner, so the lanes are at most one request behind."""
        a, b = self.lanes
        if a.served < now:
            a.advance(now)
            b.advance(now)
            self._after_step()

    def _after_step(self) -> None:
        """Hook invoked after the lanes serve a request."""

    def _select_active(self, rng) -> None:
        """Hook invoked at each real eviction before the victim is mapped."""

    def on_request(self, page, now, hit):
        self._advance(now)

    def choose_victim(self, ctx, rng):
        self._advance(ctx.now)
        self._select_active(rng)
        lane = self.lanes[self.active]
        victim = lane.last_evict_victim
        if lane.last_evict_t == ctx.now and victim in ctx.cached and victim not in ctx.excluded:
            return victim
        return min(ctx.candidates, key=ctx.last_used.__getitem__)


class SwitchDeterministicPolicy(_CombinerBase):
    """Deterministic switching: control moves to the passive sub-policy as
    soon as the active one's virtual miss count exceeds bound x the passive's."""

    def __init__(self, a: Policy, b: Policy, bound: float = 1.0):
        if not 0 < bound < math.inf:
            raise ValueError(f"bound must be finite and positive, got {bound!r}")
        super().__init__(a, b)
        self.bound = bound
        self.name = f"switch_det({a.name},{b.name},{bound:g})"

    def _after_step(self):
        active, passive = self.active, 1 - self.active
        if self.lanes[active].misses > self.bound * self.lanes[passive].misses:
            self.active = passive


class SwitchRandomizedPolicy(_CombinerBase):
    """Multiplicative-weights switching: each sub-policy's weight is beta to
    the power of its lane's virtual misses, and the active policy is resampled
    proportionally to the weights at every real eviction."""

    def __init__(self, a: Policy, b: Policy, beta: float = 0.99):
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must lie strictly between 0 and 1")
        super().__init__(a, b)
        self.beta = beta
        self.name = f"switch_rand({a.name},{b.name},{beta:g})"

    def lane0_probability(self, d: int) -> float:
        """w0 / (w0 + w1) for w = beta ** misses, where `d` is lane 1's misses
        minus lane 0's. It reads only beta ** |d|, so it cannot overflow, and
        it keeps the lanes apart where both weights would underflow."""
        r = self.beta ** abs(d)
        return 1 / (1 + r) if d >= 0 else r / (1 + r)

    def _select_active(self, rng):
        a, b = self.lanes
        self.active = 0 if rng.random() < self.lane0_probability(b.misses - a.misses) else 1


POLICY_FACTORIES: dict[str, type[Policy]] = {
    "lru": LRUPolicy,
    "marker": MarkerPolicy,
    "belady": BeladyPolicy,
    "blind_oracle": BlindOraclePolicy,
    "lrb": LRBFollowerPolicy,
    "fitf": FitFFollowerPolicy,
}


def _split_args(body: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {body!r}")
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    if depth:
        raise ValueError(f"unbalanced parentheses in {body!r}")
    parts.append(body[start:])
    return [p.strip() for p in parts]


def build_policy(spec: str) -> Policy:
    """Build a policy from its name string.

    Grammar: ``lru | marker | belady | blind_oracle | lrb | fitf |
    switch_det(a,b[,bound]) | switch_rand(a,b[,beta])``, each optionally
    prefixed with ``guard:`` to wrap it in the guarded robustification layer
    (but not one already prefixed: a guard cannot wrap a guard directly).
    """
    spec = spec.strip()
    if spec.startswith("guard:"):
        from .guard import GuardPolicy  # local import avoids a module cycle

        return GuardPolicy(build_policy(spec[len("guard:"):]))
    for prefix, cls, default in (
        ("switch_det(", SwitchDeterministicPolicy, 1.0),
        ("switch_rand(", SwitchRandomizedPolicy, 0.99),
    ):
        if spec.startswith(prefix):
            if not spec.endswith(")"):
                raise ValueError(f"malformed policy spec {spec!r}")
            args = _split_args(spec[len(prefix):-1])
            if len(args) not in (2, 3):
                raise ValueError(f"{prefix[:-1]} takes 2 or 3 arguments, got {len(args)}")
            param = float(args[2]) if len(args) == 3 else default
            return cls(build_policy(args[0]), build_policy(args[1]), param)
    cls = POLICY_FACTORIES.get(spec)
    if cls is None:
        raise ValueError(f"unknown policy spec {spec!r}")
    return cls()


@dataclass
class RunResult:
    """Outcome of one simulated run (one policy, one trace, one seed)."""

    policy: str
    misses: int
    opt_misses: int | None
    seed: int
    wall_ms: float
    phase_stats: list | None = None

    @property
    def ratio(self) -> float | None:
        if self.opt_misses is None or self.opt_misses == 0:
            return None
        return self.misses / self.opt_misses


def _check_bundle(policy: Policy, bundle: PredictionBundle | None, n: int) -> None:
    required = policy.requires
    if required is PredictionKind.NONE:
        return
    if bundle is None:
        raise ValueError(f"policy {policy.name!r} requires {required.value} predictions")
    if bundle.kind is not required:
        raise ValueError(
            f"policy {policy.name!r} requires {required.value} predictions, "
            f"got {bundle.kind.value}"
        )
    if required is PredictionKind.NRT and len(bundle.nrt) != n:
        raise ValueError("prediction stream length does not match trace")
    if required is PredictionKind.BINARY and len(bundle.labels) != n:
        raise ValueError("prediction stream length does not match trace")
    if required is PredictionKind.FITF and bundle.fitf_choice is None:
        raise ValueError("FITF bundle has no choice function")


def simulate(
    policy: Policy,
    trace: Trace,
    k: int,
    bundle: PredictionBundle | None = None,
    *,
    seed: int = 0,
    opt_misses: int | None = None,
    compute_opt: bool = True,
) -> RunResult:
    """Replay the trace against a policy on a k-slot cache.

    Predictions (when given) are attached to each page at its most recent
    request. `opt_misses` short-circuits the offline-optimum computation;
    with `compute_opt=False` the result carries no ratio.
    """
    check_k(k)
    _check_bundle(policy, bundle, len(trace))
    engine = EvictionContext(policy, trace, k, bundle, DrawStream(seed))
    start = time.perf_counter()
    engine.advance(len(trace))
    wall_ms = (time.perf_counter() - start) * 1e3

    opt = opt_misses
    if opt is None and compute_opt:
        opt = opt_cost(trace, k)
    return RunResult(
        policy=policy.name,
        misses=engine.misses,
        opt_misses=opt,
        seed=seed,
        wall_ms=wall_ms,
        phase_stats=getattr(policy, "phase_stats", None),
    )
