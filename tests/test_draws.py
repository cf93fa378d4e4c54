"""The run's draw stream against numpy's `Generator`, and decisions that do
not depend on how the stream reads its generator.

Every random choice of a run (the guard's redirects, `lrb` and `marker`
picks, `switch_rand`'s lane, the FITF bundle's noise) is a `DrawStream`
draw, so a seed reproduces a run only if the stream returns what
`Generator.integers(n)` and `Generator.random()` return for the same calls.
Each example replays one sequence of calls on a stream and on a numpy
generator seeded alike, with block lengths that make the stream refill
often.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cachesim
from cachesim import build_policy
from cachesim import draws
from cachesim.draws import DrawStream
from cachesim.policy import EvictionContext
from .reference_impls import random_trace
from .test_pinned_decisions import _bundle

# 1 draws nothing; 2**31 + 5 rejects almost half of its words; 2**32 - 1 is
# the largest bound mapped from one word, and 2**32 takes a word as it is
BOUNDS = [*range(1, 13), 1_000, 2**31 + 5, 2**32 - 1, 2**32]
OPS = st.one_of(st.sampled_from(BOUNDS), st.none())  # None: a random() call


def replay(stream: DrawStream, numpy: np.random.Generator, ops) -> None:
    for n in ops:
        if n is None:
            got = stream.random()
            assert type(got) is float
            assert got == numpy.random()
        else:
            got = stream.integers(n)
            assert type(got) is int
            assert got == int(numpy.integers(n))


@pytest.mark.parametrize("block", [1, 3, draws.BLOCK])
def test_stream_crosses_many_refills(block):
    # five default blocks of mixed draws, with a rejecting bound in every third
    ops = [None if i % 4 == 0 else BOUNDS[i % len(BOUNDS)] for i in range(5 * draws.BLOCK)]
    with mock.patch.object(draws, "BLOCK", block):
        stream = DrawStream(7)
    replay(stream, np.random.default_rng(7), ops)


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**64 - 1),
    block=st.sampled_from([1, 3, draws.BLOCK]),
    ops=st.lists(OPS, max_size=400),
)
def test_stream_from_a_seed_replays_default_rng(seed, block, ops):
    with mock.patch.object(draws, "BLOCK", block):
        stream = DrawStream(seed)
    replay(stream, np.random.default_rng(seed), ops)


@pytest.mark.parametrize("seed", [-1, 1.5, "3"])
def test_stream_from_a_seed_refuses_a_negative_seed(seed):
    with pytest.raises(ValueError, match=f"non-negative integer, got {seed!r}"):
        DrawStream(seed)


@pytest.mark.parametrize("bits", [np.random.PCG64, np.random.MT19937, np.random.Philox,
                                  np.random.SFC64])
def test_stream_refuses_a_generator(bits):
    # a stream reads only the generator it makes from a seed
    with pytest.raises(ValueError, match="non-negative integer, got Generator"):
        DrawStream(np.random.Generator(bits(0)))


@pytest.mark.parametrize("seed", [np.int64(3), np.uint64(2**64 - 1)])
def test_stream_from_a_numpy_integer_seed_replays_default_rng(seed):
    ops = [None if i % 3 == 0 else BOUNDS[i % len(BOUNDS)] for i in range(3 * draws.BLOCK)]
    replay(DrawStream(seed), np.random.default_rng(int(seed)), ops)


@pytest.mark.parametrize("spec, seed", [("marker", 1.5), ("lru", "3")])
def test_simulate_refuses_a_seed_that_is_not_a_whole_number(spec, seed):
    # the seed is checked before the run, whether or not the policy draws
    trace = random_trace(np.random.default_rng(1), 50, 6)
    with pytest.raises(ValueError, match=f"got {seed!r}"):
        cachesim.simulate(build_policy(spec), trace, 3, seed=seed)


def test_runs_that_never_draw_import_no_numpy_random():
    # `simulate` makes its generator at the first draw, and the package and
    # these runs touch nothing else of `numpy.random`
    code = ("import sys, cachesim, cachesim.cli as _\n"
            "tr = cachesim.Trace([0, 1, 2, 0, 3, 1, 2, 4] * 50)\n"
            "for spec in ('lru', 'belady', 'blind_oracle', 'guard:blind_oracle'):\n"
            "    cachesim.simulate(cachesim.build_policy(spec), tr, 3, cachesim.perfect_nrt(tr))\n"
            "assert 'numpy.random' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cachesim.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


@pytest.mark.parametrize("n", [0, -3])
def test_stream_rejects_what_numpy_rejects(n):
    with pytest.raises(ValueError) as want:
        np.random.default_rng(0).integers(n)
    with pytest.raises(ValueError) as got:
        DrawStream(0).integers(n)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n", [2**32 + 1, 2**40])
def test_stream_refuses_bounds_above_one_word(n):
    with pytest.raises(ValueError, match="above 2\\*\\*32"):
        DrawStream(0).integers(n)


# Decisions ----------------------------------------------------------------

SPECS = ["guard:lrb", "guard:marker", "guard:fitf", "switch_rand(lrb,marker)",
         "guard:switch_rand(guard:lrb,marker)"]


def logged_run(spec, trace, k, seed, stream=None):
    """The eviction log `(t, victim)` and FITF counts of one run, drawing
    from `stream`, or else from `DrawStream(seed)`."""
    policy = build_policy(spec)
    bundle = _bundle(policy.requires, trace, k, seed)
    log = []
    choose = policy.choose_victim

    def logged(ctx, rng):
        victim = choose(ctx, rng)
        log.append((ctx.now, victim))
        return victim

    policy.choose_victim = logged
    engine = EvictionContext(policy, trace, k, bundle, stream or DrawStream(seed))
    engine.advance(len(trace))
    counts = None if bundle is None else (bundle.fitf_queries, bundle.fitf_wrong)
    return log, counts, engine


@pytest.mark.parametrize("spec", SPECS)
def test_decisions_do_not_depend_on_block_length(spec):
    for t, (n, universe) in enumerate(((300, 8), (400, 13))):
        trace = random_trace(np.random.default_rng(200 + t), n, universe)
        for k in (2, 3, 5):
            for seed in (0, 1):
                runs = []
                for block in (1, 3, draws.BLOCK):
                    with mock.patch.object(draws, "BLOCK", block):
                        runs.append(logged_run(spec, trace, k, seed)[:2])
                assert runs[0][0], "the run evicts"
                assert all(run == runs[0] for run in runs), (spec, t, k, seed)


def _lanes(policy):
    """Every combiner lane engine inside `policy`, however nested."""
    policy = getattr(policy, "base", policy)
    for lane in getattr(policy, "lanes", ()):
        yield lane
        yield from _lanes(lane.policy)


@pytest.mark.parametrize("spec", ["switch_rand(lrb,marker)",
                                  "guard:switch_rand(guard:lrb,marker)",
                                  "switch_det(switch_rand(lrb,marker),lrb,1.5)"])
def test_combiner_lanes_hold_the_outer_stream(spec):
    trace = random_trace(np.random.default_rng(5), 120, 8)
    stream = DrawStream(0)
    _, _, engine = logged_run(spec, trace, 3, 0, stream)
    lanes = list(_lanes(engine.policy))
    assert engine.rng is stream and lanes
    assert all(lane.rng is stream for lane in lanes)


@pytest.mark.parametrize("spec", ["switch_rand(lrb,marker)",
                                  "guard:switch_rand(guard:lrb,marker)",
                                  "switch_det(switch_rand(lrb,marker),lrb,1.5)"])
def test_combiner_lanes_lag_at_most_one_request(spec):
    # `_advance` steps its lanes once per call, so each call must find them
    # no more than one request behind
    from cachesim.policy import _CombinerBase

    advance = _CombinerBase._advance
    lags = []

    def checked(self, now):
        lags.append(now - self.lanes[0].served)
        advance(self, now)

    trace = random_trace(np.random.default_rng(6), 300, 9)
    with mock.patch.object(_CombinerBase, "_advance", checked):
        log, _, _ = logged_run(spec, trace, 3, 0)
    assert log and lags
    assert max(lags) <= 1
