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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .policy import Policy, RunResult, uniform_index
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


class _RandomSet:
    """Set of page ids with O(1) add, discard, and uniform sampling."""

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
        return self._items[uniform_index(rng, len(self._items))]


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

    State per phase: `unrequested` (cached pages not yet touched this phase),
    `guarded` (pages immune to eviction), `evicted_this_phase`, and the
    `old_pages` cache snapshot taken when the phase began. On a miss with a
    full cache:

    (a) if `unrequested` is empty, a new phase starts: shields drop,
        `unrequested` refills with the whole cache, the snapshot is retaken
        (this reset happens before the re-request check below);
    (b) if the missed page was evicted earlier this phase, the victim is a
        uniform draw from `unrequested` and the page becomes guarded;
    (c) otherwise the base policy picks the victim among unguarded pages:
        the guarded set is handed to it as the context's `excluded` pages.

    Structural invariants (checked on every event, violations raise): guarded
    pages are never evicted mid-phase, the guarded set stays disjoint from
    `unrequested`, every miss on a snapshot page in phases >= 1 takes branch
    (b), and no new page is loaded more than twice in one phase.

    `_loads` counts the loads this phase of each new page (one outside the
    snapshot). A new page is cached only after a miss this phase, so its
    keys are exactly the new pages requested this phase, and a phase's c_q
    is the number of its keys.
    """

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
        # closed phases as (q, c_q, n_q, o_q, n_q_new, n_q_old) tuples
        self._closed: list[tuple[int, int, int, int, int, int]] = []
        # loads this phase of each new page requested this phase
        self._loads: dict[PageId, int] = {}
        self._n = self._o = self._n_new = self._n_old = 0

    def _current(self) -> tuple[int, int, int, int, int, int]:
        return (self.phase, len(self._loads), self._n, self._o, self._n_new, self._n_old)

    def _close_phase(self, cached) -> None:
        self._closed.append(self._current())
        self.guarded.clear()
        self.old_pages.clear()
        self.old_pages.update(cached)
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
            # re-admission: the page is back in the cache after this request
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
            # a missed page is not cached, so it cannot be unrequested; most
            # hits are for a page already touched this phase, so test
            # membership before paying for the call
            if page in self.unrequested._pos:
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

    def on_evict(self, page):
        if page in self.guarded:
            raise InvariantViolation(f"guarded page {page!r} evicted mid-phase")
        if page in self.unrequested._pos:
            self.unrequested.discard(page)
        self.evicted_this_phase.add(page)
        self.base.on_evict(page)

    @property
    def phase_stats(self) -> list[PhaseStats]:
        """All phases including the still-open final one."""
        return [PhaseStats(*ph) for ph in self._closed] + [PhaseStats(*self._current())]


@dataclass
class PhaseReport:
    """Aggregated per-phase checks for one guarded run.

    `violations` lists breaches of the counter inequalities that the wrapper
    mechanically guarantees (n_q = n_q_new + n_q_old, n_q <= 2*c_q and
    n_q_old <= c_q per phase) plus the global lower bound sum(c_q)/2 <= opt.
    The counters also account for the run's whole cost: with U distinct pages
    in the trace, misses == min(k, U) + sum(n_q + o_q), since only cold fills
    evict nothing and every other miss is counted once in n_q or o_q.

    The comparison of opt against sum(n_q_old) is reported separately as
    `literal_upper_ok` (opt <= sum(n_q_old)) and `reverse_lower_ok`
    (sum(n_q_old) <= opt). Neither direction is a guarantee, so both flags
    are diagnostics, not violations. The upper leg contradicts
    1-consistency: n_q_old counts a subset of the eviction-causing misses,
    so sum(n_q_old) <= misses - min(k, U), and a run that costs exactly opt
    has sum(n_q_old) < opt. The reverse leg fails on adversarial runs, where
    sum(n_q_old) is bounded only by sum(c_q) <= 2*opt. Both flags are None
    when the run never left phase 0 or opt is unknown.
    """

    phases: list[PhaseStats]
    opt_misses: int | None
    violations: list[str]
    c_sum: int
    n_old_sum: int
    literal_upper_ok: bool | None
    reverse_lower_ok: bool | None

    @property
    def ok(self) -> bool:
        return not self.violations


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
    literal_upper_ok = reverse_lower_ok = None
    if opt is not None:
        if c_sum > 2 * opt:
            violations.append(f"global: sum(c_q)={c_sum} > 2*opt={2 * opt}")
        if phases[-1].q >= 1:
            literal_upper_ok = opt <= n_old_sum
            reverse_lower_ok = n_old_sum <= opt
    return PhaseReport(
        phases=phases,
        opt_misses=opt,
        violations=violations,
        c_sum=c_sum,
        n_old_sum=n_old_sum,
        literal_upper_ok=literal_upper_ok,
        reverse_lower_ok=reverse_lower_ok,
    )


def phase_stats_csv(phases: list[PhaseStats]) -> str:
    """Render phase counters as CSV with header `phase,c_q,n_q,o_q,n_q_new,n_q_old`."""
    lines = ["phase,c_q,n_q,o_q,n_q_new,n_q_old"]
    for ph in phases:
        lines.append(f"{ph.q},{ph.c_q},{ph.n_q},{ph.o_q},{ph.n_q_new},{ph.n_q_old}")
    return "\n".join(lines) + "\n"
