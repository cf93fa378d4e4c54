"""Phase-based robustification wrapper for eviction policies.

`GuardPolicy` wraps any base policy in a protection layer that detects when
the base is being misled: a page that gets re-requested after being evicted
earlier in the same phase is re-admitted, shielded from eviction for the rest
of the phase, and the eviction it would have caused is redirected to a
uniformly random cached page that has not been requested since the phase
began. Phases end when every such unrequested page has been touched or pushed
out, at which point all shields drop and the tracking set refills.

When the base policy never evicts a page that is about to come back, the
wrapper never intervenes, so a well-predicted run costs exactly what the base
alone would cost. Against arbitrary (even adversarial) eviction choices, the
redirected evictions keep the total cost within 2*harmonic(k) + 2 times the
offline optimum.

Cost: the guard does nothing on a hit and works only at evictions. The order
of the unrequested pages matters only to a redirect's draw, so until a run's
first redirect the guard keeps none: the unrequested list stays each phase's
reset list, a copy of the cache, and a cursor over it passes the pages
requested since the reset or evicted, each once, to tell when the phase ends.
At the first redirect it replays the phase once, in O(phase length), into the
order and index map that a hook on every hit would have kept, and from then on
it keeps them at each eviction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from .policy import Policy, RunResult
from .trace import PageId


class InvariantViolation(RuntimeError):
    """A structural property of the guarded wrapper failed to hold."""


def harmonic(k: int) -> float:
    """k-th harmonic number 1 + 1/2 + ... + 1/k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return math.fsum(1.0 / i for i in range(1, k + 1))


def robustness_bound(k: int) -> float:
    """Worst-case cost-ratio guarantee of the guarded wrapper at cache size k."""
    return 2.0 * harmonic(k) + 2.0


@dataclass
class PhaseStats:
    """Per-phase instrumentation counters.

    c_q counts distinct new pages (pages outside the cache snapshot taken at
    the phase start) requested during the phase. Among eviction-causing
    misses, n_q counts requests for new pages and o_q requests for old pages;
    n_q splits into n_q_new / n_q_old by whether the evicted page was new or
    old.
    """

    q: int
    c_q: int
    n_q: int
    o_q: int
    n_q_new: int
    n_q_old: int


class GuardPolicy(Policy):
    """Wraps a base policy with phase-based eviction protection.

    State per phase: `unrequested` (cached pages not yet touched this phase,
    a list whose indexes `_pos` maps, so a page leaves it in O(1) and a
    redirect draws from it uniformly), `guarded` (pages immune to eviction),
    `evicted_this_phase` (each page evicted this phase and not yet back, with
    the request that evicted it, in eviction order), and the `old_pages`
    cache snapshot taken when the phase began. Until the run's first
    redirect the guard is lazy (`_lazy`): `unrequested` stays the list the
    phase reset filled, `_pos` stays empty, and the pages of that list not
    yet touched are those still cached with a last request before the
    reset. On a miss with a full cache:

    (a) if `unrequested` is empty (lazy: a cursor over the reset list has
        passed every page requested since the reset or evicted), a new
        phase starts: shields drop, `unrequested` refills with the whole
        cache in load order (that of `ctx.cached`, so draws follow from the
        requests and seed alone), the snapshot is retaken (this reset
        happens before the re-request check);
    (b) if the missed page was evicted earlier this phase, the victim is a
        uniform draw from `unrequested` and the page becomes guarded;
    (c) otherwise the base policy picks the victim among unguarded pages:
        each phase reset binds a fresh guarded set, which only grows within
        the phase, and hands it over as `ctx.excluded`, so the engine may
        hold back the shielded keys it pops until the next reset.

    Structural invariants (checked at each eviction, violations raise):
    guarded pages are never evicted mid-phase, the guarded set stays disjoint
    from `unrequested`, every miss on a snapshot page in phases >= 1 takes
    branch (b), and no new page is loaded more than twice in one phase.

    Cost: nothing per hit. The guard takes no request hook of its own (it
    asks for one only when its base does, and passes it on). An eviction is
    one Python frame besides the base's choice. While lazy, it steps the
    cursor (each page of the reset list once, plus one look that stops it)
    and records the eviction in O(1), and a phase reset is one C-level copy
    of the cache and its snapshot. At the first redirect, the guard replays
    the phase so far once: it indexes the reset list and, in time order,
    takes out each gap's first touches (a C-level `filter` over the slice)
    and each victim, checks that what is left is what the cursor counts as
    unrequested, and is eager from then on. An eager eviction makes a
    C-level pass over the requests since the previous eviction, O(1) Python
    work per page it removes from `unrequested` (at most k per phase), and
    O(1) to record the eviction, and an eager phase reset is O(k). The
    switch is per run, not per phase: runs that redirect at all tend to do
    so in most phases, and would replay nearly every one.

    The guard records only the evictions it chooses, so its base must not be
    a guard itself: the inner guard would never learn of the outer one's
    redirects. A guard inside a combiner's lane is fine.

    `_loads` counts the loads this phase of each new page (one outside the
    snapshot). A new page is cached only after a miss this phase, so its
    keys are exactly the new pages requested this phase, and a phase's c_q
    is the number of its keys. Phase 0 keeps none: it ends at the first
    eviction, when every cached page has been loaded exactly once, so its
    c_q is the size of the cache then.
    """

    def __init__(self, base: Policy):
        if isinstance(base, GuardPolicy):
            raise ValueError(f"cannot guard {base.name!r}: it is already guarded")
        self.base = base
        self.name = f"guard:{base.name}"
        self.requires = base.requires

    @property
    def needs_request_hook(self) -> bool:
        """Only when the base takes the hook, which `on_request` passes on."""
        return self.base.needs_request_hook

    def victim_order(self, trace, bundle):
        return self.base.victim_order(trace, bundle)

    def begin_run(self, trace, k, bundle, rng):
        self.base.begin_run(trace, k, bundle, rng)
        self._pages = trace.pages
        self._universe = trace.universe_size  # c_q of a run that stays in phase 0
        self._seen = 0  # requests accounted for
        self.unrequested: list[PageId] = []
        self._pos: dict[PageId, int] = {}  # page -> its index in `unrequested`
        self._lazy = True  # until the run's first redirect
        self._cursor = 0  # lazy: no page before it in `unrequested` is unrequested
        self._start = 0  # lazy: the request that opened the phase
        self.guarded: set[PageId] = set()
        # page -> the request that evicted it, in eviction order
        self.evicted_this_phase: dict[PageId, int] = {}
        self.old_pages: set[PageId] = set()
        self.phase = 0
        self.max_guarded = 0
        self.guard_events = 0
        # closed phases as (q, c_q, n_q, o_q, n_q_new, n_q_old) tuples
        self._closed: list[tuple[int, int, int, int, int, int]] = []
        # loads this phase of each new page requested this phase
        self._loads: dict[PageId, int] = {}
        self._n = self._o = self._n_new = self._n_old = 0

    def choose_victim(self, ctx, rng):
        page, now = ctx.requested, ctx.now
        items, pos = self.unrequested, self._pos
        seen = self._seen
        if pos:  # eager, with unrequested pages left (a lazy guard indexes none)
            # Catch up with the hits since the previous eviction (none when
            # that was the previous request): each page touched for the first
            # time this phase leaves `unrequested` in request order, as on
            # its hit.
            if now - 1 > seen:
                for p in filter(pos.__contains__, self._pages[seen:now - 1]):
                    idx = pos.pop(p)
                    last = items.pop()
                    if idx < len(items):
                        items[idx] = last
                        pos[last] = idx
        elif self._lazy:
            # `unrequested` is still the list the phase reset filled. The
            # cursor passes each page requested since the reset or gone from
            # the cache; the phase is over once it has passed them all.
            last_used, start, c = ctx.last_used, self._start, self._cursor
            end = len(items)
            while c < end and last_used.get(items[c], start) >= start:
                c += 1
            self._cursor = c
            if c == end:
                items.clear()
            elif page in self.evicted_this_phase:
                items, pos = self._replay(ctx)
        if not items:  # a new phase; `pos` is as empty as `items`
            c_q = len(self._loads) if self.phase else len(ctx.cached)
            self._closed.append((self.phase, c_q, self._n, self._o,
                                 self._n_new, self._n_old))
            self.old_pages = set(ctx.cached)
            items.extend(ctx.cached)
            if self._lazy:
                self._cursor, self._start = 0, now
            else:
                i = 0
                for p in items:
                    pos[p] = i
                    i += 1
            # a fresh set, not the old one cleared: the engine holds back the
            # keys it popped of shielded pages while `excluded` is one object
            self.guarded = ctx.excluded = set()
            self.evicted_this_phase.clear()
            self._loads.clear()
            self._n = self._o = self._n_new = self._n_old = 0
            self.phase += 1
        old, guarded, evicted = self.old_pages, self.guarded, self.evicted_this_phase
        if page in evicted:
            if not items:
                raise InvariantViolation("sample from empty unrequested-page set")
            victim = items[rng.integers(len(items))]
            if page in pos:
                raise InvariantViolation(
                    f"page {page!r} is both missed and marked unrequested at t={now}"
                )
            if victim in guarded:
                raise InvariantViolation(f"guarded page {victim!r} evicted mid-phase")
            guarded.add(page)
            # re-admission: the page is back in the cache after this request
            del evicted[page]
            self.guard_events += 1
            if len(guarded) > self.max_guarded:
                self.max_guarded = len(guarded)
        else:
            if page in old and self.phase >= 1:
                raise InvariantViolation(
                    f"snapshot page {page!r} missed at t={now} in phase "
                    f"{self.phase} without having been evicted this phase"
                )
            victim = self.base.choose_victim(ctx, rng)
            if victim in guarded:
                raise InvariantViolation(
                    f"base policy {self.base.name!r} chose guarded page {victim!r}"
                )
        idx = pos.pop(victim, None)
        if idx is not None:
            last = items.pop()
            if idx < len(items):
                items[idx] = last
                pos[last] = idx
        evicted[victim] = now
        if page in old:
            self._o += 1
        else:
            self._n += 1
            if victim in old:
                self._n_old += 1
            else:
                self._n_new += 1
            loads = self._loads.get(page, 0) + 1
            if loads > 2:
                raise InvariantViolation(
                    f"new page {page!r} loaded {loads} times in phase {self.phase}"
                )
            self._loads[page] = loads
        self._seen = now
        return victim

    def _replayed(self, upto: int) -> tuple[list[PageId], dict[PageId, int]]:
        """`unrequested` and its index map as the eager guard holds them once
        caught up with request `upto` (at or after the phase's last
        eviction), read from the lazy state without changing it: the reset
        list indexed, then, in time order, each gap's first touches and each
        victim taken out, as the catch-ups and evictions would have."""
        items = list(self.unrequested)
        pos = dict(zip(items, range(len(items))))
        pages, prev = self._pages, self._start
        for victim, t in chain(self.evicted_this_phase.items(), ((None, upto + 1),)):
            if t - 1 > prev:
                for p in filter(pos.__contains__, pages[prev:t - 1]):
                    idx = pos.pop(p)
                    last = items.pop()
                    if idx < len(items):
                        items[idx] = last
                        pos[last] = idx
            idx = pos.pop(victim, None)
            if idx is not None:
                last = items.pop()
                if idx < len(items):
                    items[idx] = last
                    pos[last] = idx
            prev = t
        return items, pos

    def _replay(self, ctx):
        """Switch to the eager state at the run's first redirect: replay the
        phase so far into `unrequested` and its index map, and check that it
        holds exactly the pages the cursor still counts as unrequested."""
        last_used, start = ctx.last_used, self._start
        want = {p for p in self.unrequested[self._cursor:]
                if last_used.get(p, start) < start}
        items, pos = self._replayed(ctx.now - 1)
        if set(items) != want:
            raise InvariantViolation(
                f"replay at t={ctx.now} leaves {sorted(set(items) ^ want)!r} "
                "out of step with the pages not requested since the phase began"
            )
        self.unrequested, self._pos, self._lazy = items, pos, False
        return items, pos

    def on_request(self, page, now, hit):
        self.base.on_request(page, now, hit)

    @property
    def phase_stats(self) -> list[PhaseStats]:
        """All phases including the still-open final one. Read it once the
        whole trace has been served: a run still in phase 0 never evicted,
        so its c_q counts every distinct page of the trace."""
        c_q = len(self._loads) if self.phase else self._universe
        current = (self.phase, c_q, self._n, self._o, self._n_new, self._n_old)
        return [PhaseStats(*ph) for ph in self._closed + [current]]


@dataclass
class PhaseReport:
    """Aggregated per-phase checks for one guarded run.

    `violations` lists breaches of the counter inequalities that the wrapper
    mechanically guarantees (n_q = n_q_new + n_q_old, n_q <= 2*c_q and
    n_q_old <= c_q per phase) plus the global lower bound sum(c_q)/2 <= opt.
    The counters also account for the run's whole cost: with U distinct pages
    in the trace, misses == min(k, U) + sum(n_q + o_q), since only cold fills
    evict nothing and every other miss is counted once in n_q or o_q.
    """

    phases: list[PhaseStats]
    opt_misses: int | None
    violations: list[str]
    c_sum: int
    n_old_sum: int


def phase_report(run: RunResult) -> PhaseReport:
    """Check the per-phase counter inequalities recorded by a guarded run."""
    phases = run.phase_stats
    if not phases:
        raise ValueError("run carries no phase statistics; was the policy guard-wrapped?")
    violations: list[str] = []
    for ph in phases:
        if ph.n_q != ph.n_q_new + ph.n_q_old:
            violations.append(
                f"phase {ph.q}: n_q={ph.n_q} != n_q_new+n_q_old={ph.n_q_new + ph.n_q_old}"
            )
        if ph.n_q > 2 * ph.c_q:
            violations.append(f"phase {ph.q}: n_q={ph.n_q} > 2*c_q={2 * ph.c_q}")
        if ph.n_q_old > ph.c_q:
            violations.append(f"phase {ph.q}: n_q_old={ph.n_q_old} > c_q={ph.c_q}")
    c_sum = sum(ph.c_q for ph in phases)
    n_old_sum = sum(ph.n_q_old for ph in phases)
    opt = run.opt_misses
    if opt is not None and c_sum > 2 * opt:
        violations.append(f"global: sum(c_q)={c_sum} > 2*opt={2 * opt}")
    return PhaseReport(
        phases=phases,
        opt_misses=opt,
        violations=violations,
        c_sum=c_sum,
        n_old_sum=n_old_sum,
    )


def phase_stats_csv(phases: list[PhaseStats]) -> str:
    """Render phase counters as CSV with header `phase,c_q,n_q,o_q,n_q_new,n_q_old`."""
    lines = ["phase,c_q,n_q,o_q,n_q_new,n_q_old"]
    for ph in phases:
        lines.append(f"{ph.q},{ph.c_q},{ph.n_q},{ph.o_q},{ph.n_q_new},{ph.n_q_old}")
    return "\n".join(lines) + "\n"
