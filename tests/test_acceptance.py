"""End-to-end acceptance checks, one numbered criterion per test.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``[criterion N] PASS/FAIL`` line per check. The heavy shared workloads
(consistency, separation, and robustness batches) live in module-scoped
fixtures so the phase-counter and invariant criteria can audit every guarded
run the earlier criteria produced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from cachesim import (
    ExperimentConfig,
    Trace,
    adversarial_pinning_trace,
    build_policy,
    flip_labels,
    ingest_brightkite,
    ingest_citibike,
    inverted_nrt,
    noisy_fitf,
    opt_cost,
    perfect_labels,
    perfect_nrt,
    phase_report,
    robustness_bound,
    run,
    simulate,
    synthetic_nrt,
)
from cachesim.guard import GuardPolicy
from cachesim.oracle import belady_simulate
from .reference_impls import (
    brute_force_opt,
    catch_up,
    opt_against_old_evictions,
    random_trace,
    rb_random_policy_cost,
)

DATA = Path(__file__).parent / "data"

WORST_REGIMES = ("guard:blind_oracle", "guard:lrb", "guard:fitf")


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


@dataclass
class GuardBatch:
    """Phase-report tallies accumulated over a batch of guarded runs."""

    runs: int = 0
    gate_violations: int = 0
    identity_failed: int = 0
    literal_checked: int = 0
    literal_failed: int = 0
    reverse_failed: int = 0

    def absorb(self, report, misses: int, k: int, universe: int) -> None:
        self.runs += 1
        self.gate_violations += len(report.violations)
        # Misses that evict nothing only fill the cache; every other miss
        # passes through the wrapper's victim choice once, as n_q or o_q.
        counted = sum(ph.n_q + ph.o_q for ph in report.phases)
        self.identity_failed += misses != min(k, universe) + counted
        literal_upper_ok, reverse_lower_ok = opt_against_old_evictions(
            report.phases, report.opt_misses)
        if literal_upper_ok is not None:
            self.literal_checked += 1
            self.literal_failed += not literal_upper_ok
            self.reverse_failed += not reverse_lower_ok


@pytest.fixture(scope="module")
def consistency_batch():
    """Guard-wrapped followers with exact predictions (criterion 2 workload)."""
    rng = np.random.default_rng(4202)
    cases = []
    for _ in range(500):
        k = int(rng.integers(2, 6))
        universe = int(rng.integers(k + 1, k + 9))
        n = int(rng.integers(20, 201))
        cases.append((random_trace(rng, n, universe), k))
    checkins = ingest_brightkite(
        (DATA / "brightkite_sample.tsv").read_text(), cache_size=10
    )
    cases.extend((tr, 10) for _, tr in checkins)
    cases.append((ingest_citibike((DATA / "citibike_sample.csv").read_text()), 100))

    makers = (
        ("guard:blind_oracle", lambda tr, k: perfect_nrt(tr)),
        ("guard:lrb", lambda tr, k: perfect_labels(tr, k)),
        ("guard:fitf", lambda tr, k: noisy_fitf(tr, k, 0.0)),
    )
    batch = GuardBatch()
    mismatches = occupancy = 0
    start = time.perf_counter()
    for tr, k in cases:
        opt = opt_cost(tr, k)
        for spec, make in makers:
            policy = build_policy(spec)
            res = simulate(policy, tr, k, make(tr, k), opt_misses=opt)
            mismatches += res.misses != opt
            occupancy += policy.max_guarded
            batch.absorb(phase_report(res), res.misses, k, tr.universe_size)
    return {
        "batch": batch,
        "mismatches": mismatches,
        "occupancy": occupancy,
        "cases": len(cases),
        "elapsed": time.perf_counter() - start,
    }


@pytest.fixture(scope="module")
def separation_batch():
    """Raw vs guarded follower on the pinning family (criterion 4 workload)."""
    batch = GuardBatch()
    raw_ratios, guard_means = [], []
    for n in (100, 1000, 10000):
        tr = adversarial_pinning_trace(n)
        opt = opt_cost(tr, 2)
        bundle = inverted_nrt(tr)
        raw = simulate(build_policy("blind_oracle"), tr, 2, bundle, opt_misses=opt)
        raw_ratios.append(raw.ratio)
        total = 0.0
        for seed in range(100):
            res = simulate(
                build_policy("guard:blind_oracle"), tr, 2, bundle,
                seed=seed, opt_misses=opt,
            )
            total += res.ratio
            batch.absorb(phase_report(res), res.misses, 2, tr.universe_size)
        guard_means.append(total / 100)
    return {"batch": batch, "raw": raw_ratios, "guard": guard_means}


@pytest.fixture(scope="module")
def envelope_batch():
    """Worst prediction regimes across cache sizes (criterion 5 workload)."""
    batch = GuardBatch()
    cells = []
    start = time.perf_counter()
    for k in (2, 5, 10):
        rng = np.random.default_rng(52000 + k)
        for t_idx in range(30):
            universe = int(rng.integers(k + 1, 2 * k + 1))
            tr = random_trace(rng, 5000, universe)
            opt = opt_cost(tr, k)
            shared = {
                "guard:blind_oracle": inverted_nrt(tr),
                "guard:lrb": flip_labels(tr, k, 1.0),
            }
            for spec in WORST_REGIMES:
                total = 0.0
                for seed in range(100):
                    bundle = shared.get(spec) or noisy_fitf(tr, k, 1.0, seed=seed)
                    res = simulate(
                        build_policy(spec), tr, k, bundle, seed=seed, opt_misses=opt
                    )
                    total += res.ratio
                    batch.absorb(phase_report(res), res.misses, k, tr.universe_size)
                cells.append((k, t_idx, spec, total / 100))
    return {"batch": batch, "cells": cells, "elapsed": time.perf_counter() - start}


def test_criterion_1_offline_optimum_is_exact():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(4, 15))
        universe = int(rng.integers(3, 6))
        tr = random_trace(rng, n, universe)
        k = int(rng.integers(2, 4))
        mismatches += belady_simulate(tr, k).misses != brute_force_opt(tr, k)
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60
    _verdict(1, ok, f"furthest-in-future vs exhaustive search: "
                    f"{mismatches} mismatches in 1000 instances ({elapsed:.1f}s)")
    assert mismatches == 0
    assert elapsed < 60


@pytest.mark.slow
def test_criterion_2_exact_predictions_cost_the_optimum(consistency_batch):
    mismatches = consistency_batch["mismatches"]
    occupancy = consistency_batch["occupancy"]
    elapsed = consistency_batch["elapsed"]
    ok = mismatches == 0 and occupancy == 0 and elapsed < 120
    _verdict(2, ok, f"{consistency_batch['cases']} cases x 3 guarded followers: "
                    f"{mismatches} cost mismatches, {occupancy} pages ever shielded "
                    f"({elapsed:.1f}s)")
    assert mismatches == 0
    assert occupancy == 0
    assert elapsed < 120


def test_criterion_3_randomized_compliant_evictions_match_opt():
    rng = np.random.default_rng(33)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(20, 200))
        universe = int(rng.integers(4, 10))
        tr = random_trace(rng, n, universe)
        k = int(rng.integers(2, min(6, universe)))
        opt = opt_cost(tr, k)
        mismatches += sum(
            rb_random_policy_cost(tr, k, seed=seed) != opt for seed in range(5)
        )
    ok = mismatches == 0
    _verdict(3, ok, f"soon-requested-page evictions vs opt: "
                    f"{mismatches} mismatches in 200 instances x 5 seeds")
    assert mismatches == 0


@pytest.mark.slow
def test_criterion_4_guard_bounds_an_unbounded_follower(separation_batch):
    raw = separation_batch["raw"]
    guard = separation_batch["guard"]
    bound = robustness_bound(2) + 0.25
    ok = raw[0] < raw[1] < raw[2] and all(g <= bound for g in guard)
    _verdict(4, ok, f"raw follower ratios {[round(r, 1) for r in raw]} grow with n; "
                    f"guarded means {[round(g, 3) for g in guard]} <= {bound}")
    assert raw[0] < raw[1] < raw[2]
    for g in guard:
        assert g <= bound


@pytest.mark.slow
def test_criterion_5_worst_case_ratio_envelope(envelope_batch):
    cells = envelope_batch["cells"]
    elapsed = envelope_batch["elapsed"]
    over = [(k, i, spec, m) for k, i, spec, m in cells
            if m > robustness_bound(k) + 0.25]
    worst = {k: max(m for kk, _, _, m in cells if kk == k) for k in (2, 5, 10)}
    ok = not over and elapsed < 600
    _verdict(5, ok, f"{len(cells)} (k, trace, regime) cells, worst means "
                    + ", ".join(f"k={k}: {worst[k]:.3f} <= {robustness_bound(k) + 0.25:.3f}"
                                for k in (2, 5, 10))
                    + f" ({elapsed:.0f}s)")
    assert not over, over[:5]
    assert elapsed < 600


@pytest.mark.slow
def test_criterion_6_phase_counter_inequalities(
    consistency_batch, separation_batch, envelope_batch
):
    batches = (
        consistency_batch["batch"],
        separation_batch["batch"],
        envelope_batch["batch"],
    )
    runs = sum(b.runs for b in batches)
    gate = sum(b.gate_violations for b in batches)
    identity_failed = sum(b.identity_failed for b in batches)
    literal_checked = sum(b.literal_checked for b in batches)
    literal_failed = sum(b.literal_failed for b in batches)
    reverse_failed = sum(b.reverse_failed for b in batches)
    ok = gate == 0 and identity_failed == 0
    _verdict(6, ok, f"{runs} guarded runs: n_q<=2c_q, n_q_old<=c_q and "
                    f"sum(c_q)/2<=opt held with {gate} violations; "
                    f"misses==min(k,U)+sum(n_q+o_q) failed in {identity_failed} runs; "
                    f"info: opt<=sum(n_q_old) failed in {literal_failed}/{literal_checked}, "
                    f"sum(n_q_old)<=opt in {reverse_failed}/{literal_checked}")
    assert gate == 0
    # With the gate, the identity certifies misses <= min(k,U) + sum(o_q) +
    # 4*opt per run. opt vs sum(n_q_old) is printed only: neither direction
    # is a guarantee (see `opt_against_old_evictions` in reference_impls.py).
    assert identity_failed == 0


class _AuditedGuard(GuardPolicy):
    """Guard wrapper that re-checks shielded/unrequested disjointness after
    every request, once the guard has caught up with it, and after every
    eviction (the wrapper itself only checks at decision points)."""

    needs_request_hook = True

    def begin_run(self, trace, k, bundle, rng):
        super().begin_run(trace, k, bundle, rng)
        self.audit_failures = 0

    def _audit(self):
        if any(page in self._pos for page in self.guarded):
            self.audit_failures += 1

    def on_request(self, page, now, hit):
        super().on_request(page, now, hit)
        catch_up(self, now)
        self._audit()

    def choose_victim(self, ctx, rng):
        victim = super().choose_victim(ctx, rng)
        self._audit()
        return victim


@pytest.mark.slow
def test_criterion_7_structural_invariants(
    consistency_batch, separation_batch, envelope_batch
):
    # Every guarded run in the batches above already self-checks: a shielded
    # page named for eviction, an unshielded snapshot-page miss in phases
    # >= 1, or a sampled page still marked unrequested all raise. Reaching
    # this test means those batches completed without a single violation.
    fixture_runs = (
        consistency_batch["batch"].runs
        + separation_batch["batch"].runs
        + envelope_batch["batch"].runs
    )
    rng = np.random.default_rng(777)
    regimes = (
        ("blind_oracle", lambda tr, k, s: inverted_nrt(tr)),
        ("blind_oracle", lambda tr, k, s: synthetic_nrt(tr, 2.0, seed=s)),
        ("lrb", lambda tr, k, s: flip_labels(tr, k, 0.5, seed=s)),
        ("fitf", lambda tr, k, s: noisy_fitf(tr, k, 0.5, seed=s)),
        ("marker", lambda tr, k, s: None),
    )
    audited = disjointness_failures = 0
    for seed in range(60):
        n = int(rng.integers(50, 301))
        k = int(rng.integers(2, 8))
        universe = int(rng.integers(k + 1, k + 8))
        tr = random_trace(rng, n, universe)
        for name, make in regimes:
            guard = _AuditedGuard(build_policy(name))
            simulate(guard, tr, k, make(tr, k, seed), seed=seed, compute_opt=False)
            audited += 1
            disjointness_failures += guard.audit_failures
    ok = disjointness_failures == 0 and fixture_runs > 0
    _verdict(7, ok, f"{fixture_runs} batch runs completed with in-run checks armed; "
                    f"{audited} audited runs found {disjointness_failures} "
                    f"shielded/unrequested overlaps")
    assert fixture_runs > 0
    assert disjointness_failures == 0


@pytest.mark.slow
def test_criterion_8_wrapper_overhead_and_scaling():
    rng = np.random.default_rng(2024)
    pages = rng.integers(0, 120, size=1_000_000).tolist()
    full = Trace(pages)
    half = Trace(pages[:500_000])
    bundle_full = inverted_nrt(full)
    bundle_half = inverted_nrt(half)

    def best_wall(spec, tr, bundle, repeats):
        return min(
            simulate(build_policy(spec), tr, 100, bundle, seed=r,
                     compute_opt=False).wall_ms
            for r in range(repeats)
        )

    raw = best_wall("blind_oracle", full, bundle_full, 2)
    guard_full = best_wall("guard:blind_oracle", full, bundle_full, 3)
    guard_half = best_wall("guard:blind_oracle", half, bundle_half, 3)
    overhead = guard_full / raw
    doubling = guard_full / guard_half
    ok = overhead <= 2.0 and doubling <= 2.2
    _verdict(8, ok, f"guard/raw wall-clock {overhead:.2f}x (<= 2.0); "
                    f"doubling n cost {doubling:.2f}x (<= 2.2) at n=1e6, k=100")
    assert overhead <= 2.0
    assert doubling <= 2.2


def test_criterion_9_noise_sweep_curve():
    sigmas = ("0", "0.5", "1", "2", "4", "8")
    table = run(ExperimentConfig(
        trace=DATA / "brightkite_sample.tsv", format="brightkite", k=10,
        policy="guard:blind_oracle", pred="nrt", sweep="sigma=" + ",".join(sigmas),
        seeds=list(range(10)),
    ))
    ratios = [table.mean_ratios()[s] for s in sigmas]
    bound = robustness_bound(10)
    rises = ratios[-1] > 1.05
    flattens = ratios[-1] - ratios[-2] < 0.1
    monotone = all(b >= a - 1e-9 for a, b in zip(ratios, ratios[1:]))
    ok = ratios[0] == 1.0 and monotone and rises and flattens and max(ratios) < bound
    _verdict(9, ok, "mean ratio vs noise: "
                    + ", ".join(f"{r:.3f}" for r in ratios)
                    + f" (bound {bound:.2f})")
    assert ratios[0] == 1.0
    assert monotone
    assert rises
    assert flattens
    assert max(ratios) < bound
