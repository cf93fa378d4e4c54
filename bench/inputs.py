"""Seeded input generators for the benchmark workloads.

Everything here uses only the standard library, so the same seed gives the
same inputs on every machine and the program under test receives nothing but
the files written below. Page tokens are numbered in order of first
appearance, which is also how the program's plain-format reader numbers them,
so the references in `reference.py` see the same page ids as the program.
"""

from __future__ import annotations

import random
from pathlib import Path

# Workload shapes; README.md explains each choice.
UNIFORM_PAGES = 120
K_LARGE = 100
# (traces, requests per trace). A pass replays several traces rather than one
# long one so that the host's speed is gauged between replays (see worker.py).
MATCHED_SHAPE = (4, 50_000)
ADVERSARIAL_SHAPE = (3, 10_000)
SIGMA_ADVERSARIAL = 1.0

ENVELOPE_KS = (2, 5, 10)
ENVELOPE_TRACES_PER_K = 4
ENVELOPE_N = 1_000
ENVELOPE_SEEDS = 10
ENVELOPE_BURST_PROB = 0.3

CLI_K = 10
CLI_USERS = 80
CLI_LOCATIONS = 3_000
CLI_SEEDS = 2
CLI_SWEEPS = (
    # (name, policy, predictor, sweep parameter, values)
    ("sigma", "guard:blind_oracle", "nrt", "sigma", ("0", "0.5", "2")),
    ("p_flip", "guard:lrb", "binary", "p_flip", ("0", "0.1", "0.5")),
    ("epsilon", "guard:fitf", "fitf", "epsilon", ("0", "0.5", "1")),
)


def _rng(seed: int, salt: int) -> random.Random:
    return random.Random(seed * 1_000_003 + salt)


def relabel(pages: list[int]) -> list[int]:
    """Renumber pages 0, 1, 2, ... in order of first appearance."""
    ids: dict[int, int] = {}
    return [ids.setdefault(p, len(ids)) for p in pages]


def uniform_trace(seed: int, n: int, universe: int = UNIFORM_PAGES, index: int = 0) -> list[int]:
    rng = _rng(seed, 10 + index)
    return relabel([rng.randrange(universe) for _ in range(n)])


def bursty_trace(rng: random.Random, n: int, universe: int) -> list[int]:
    """Uniform requests where each one repeats 1-3 times with probability 0.3."""
    pages: list[int] = []
    while len(pages) < n:
        p = rng.randrange(universe)
        reps = rng.randint(1, 3) if rng.random() < ENVELOPE_BURST_PROB else 1
        pages.extend([p] * reps)
    return relabel(pages[:n])


def envelope_ks() -> list[int]:
    """Cache size of each envelope trace, in file order."""
    return [k for k in ENVELOPE_KS for _ in range(ENVELOPE_TRACES_PER_K)]


def envelope_traces(seed: int) -> list[tuple[int, list[int]]]:
    """(k, pages) pairs: short bursty traces over k+1 .. 2k pages. The
    universe sizes are fixed; the seed only chooses the requests."""
    rng = _rng(seed, 2)
    last = ENVELOPE_TRACES_PER_K - 1
    out = []
    for j, k in enumerate(envelope_ks()):
        universe = k + 1 + round(j % ENVELOPE_TRACES_PER_K * (k - 1) / last)
        out.append((k, bursty_trace(rng, ENVELOPE_N, universe)))
    return out


def checkin_rows(seed: int) -> list[tuple[str, str, str]]:
    """(user, timestamp, location) check-ins with skewed location popularity.

    Each user visits each of 8-60 distinct locations, drawn from a
    heavy-tailed global popularity, and revisits them with a 1/rank
    preference. Users with fewer
    than 2*CLI_K distinct locations are dropped by the program's filter.
    Timestamps are distinct per user and sort lexicographically in time order.
    The users' check-in and location counts are fixed; the seed chooses the
    locations, the visits and their order.
    """
    rng = _rng(seed, 3)
    rows = []
    for u in range(CLI_USERS):
        count = 40 + u * 97 % 361  # 40 .. 400
        distinct = 8 + u * 31 % 53  # 8 .. 60
        picked: set[int] = set()
        while len(picked) < distinct:
            picked.add(int(rng.paretovariate(0.7)) % CLI_LOCATIONS)
        locs = [f"loc{x:05d}" for x in sorted(picked)]
        rng.shuffle(locs)
        weights = [1.0 / (r + 1) for r in range(distinct)]
        seq = locs + rng.choices(locs, weights=weights, k=count - distinct)
        rng.shuffle(seq)
        start = rng.randrange(10_000_000)
        for i, loc in enumerate(seq):
            rows.append((f"u{u:04d}", f"2010-{start + 97 * i:012d}Z", loc))
    rng.shuffle(rows)
    return rows


def write_plain(path: Path, pages: list[int]) -> None:
    path.write_text("".join(f"p{p}\n" for p in pages))


def write_checkins(path: Path, rows: list[tuple[str, str, str]]) -> None:
    path.write_text("".join(f"{u}\t{ts}\t39.7476\t-104.9925\t{loc}\n" for u, ts, loc in rows))


def user_traces(rows: list[tuple[str, str, str]], k: int) -> dict[str, list[int]]:
    """Per-user location sequences in time order, for the users the CLI keeps
    (at least 2k distinct locations)."""
    by_user: dict[str, list[tuple[str, str]]] = {}
    for u, ts, loc in rows:
        by_user.setdefault(u, []).append((ts, loc))
    out = {}
    for u, visits in by_user.items():
        locs = [loc for _, loc in sorted(visits)]
        if len(set(locs)) >= 2 * k:
            ids: dict[str, int] = {}
            out[u] = [ids.setdefault(loc, len(ids)) for loc in locs]
    return out


def uniform_lengths(workload: str) -> list[int]:
    count, n = MATCHED_SHAPE if workload == "matched-k100" else ADVERSARIAL_SHAPE
    return [n] * count


def ops_per_pass(workload: str) -> int:
    """Operations one pass attempts: replays, or CLI invocations."""
    return {"matched-k100": 2 * MATCHED_SHAPE[0], "adversarial-k100": 4 * ADVERSARIAL_SHAPE[0],
            "cli-checkins": len(CLI_SWEEPS),
            "envelope-small-k": len(envelope_ks()) * 3 * ENVELOPE_SEEDS}[workload]


def generate(workload: str, seed: int, indir: Path):
    """Write the workload's input files into `indir` and return what they hold:
    the page lists, the (k, pages) list, or the check-in rows."""
    if workload in ("matched-k100", "adversarial-k100"):
        traces = [uniform_trace(seed, n, index=i) for i, n in enumerate(uniform_lengths(workload))]
        for i, pages in enumerate(traces):
            write_plain(indir / f"uniform-{i}.txt", pages)
        return traces
    if workload == "envelope-small-k":
        traces = envelope_traces(seed)
        for i, (k, pages) in enumerate(traces):
            write_plain(indir / f"envelope-{i}-k{k}.txt", pages)
        return traces
    if workload == "cli-checkins":
        rows = checkin_rows(seed)
        write_checkins(indir / "checkins.tsv", rows)
        return rows
    raise ValueError(f"unknown workload {workload!r}")
