"""The run's draw stream against numpy's `Generator`, and decisions that do
not depend on how the stream reads its generator.

Every random choice of a run (the guard's redirects, `lrb` and `marker`
picks, `switch_rand`'s lane, the FITF bundle's noise) is a `DrawStream`
draw, so a seed reproduces a run only if the stream returns what
`Generator.integers(n)` and `Generator.random()` return for the same calls.
Each example replays one sequence of calls on a stream and on a numpy
generator seeded alike, with block lengths that make the stream refill
often, after the wrapped generator has already drawn some 32-bit words.
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


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 3, draws.BLOCK]),
    before=st.lists(st.sampled_from(BOUNDS), max_size=5),
    ops=st.lists(OPS, max_size=400),
)
def test_stream_replays_generator_draws(seed, block, before, ops):
    ours = np.random.Generator(np.random.PCG64(seed))
    numpy = np.random.Generator(np.random.PCG64(seed))
    for n in before:  # draws made before the stream takes over, maybe a half word
        assert ours.integers(n) == numpy.integers(n)
    with mock.patch.object(draws, "BLOCK", block):
        stream = DrawStream(ours)
    replay(stream, numpy, ops)


@pytest.mark.parametrize("block", [1, 3, draws.BLOCK])
def test_stream_crosses_many_refills(block):
    # five default blocks of mixed draws, with a rejecting bound in every third
    ops = [None if i % 4 == 0 else BOUNDS[i % len(BOUNDS)] for i in range(5 * draws.BLOCK)]
    with mock.patch.object(draws, "BLOCK", block):
        stream = DrawStream(np.random.default_rng(7))
    replay(stream, np.random.default_rng(7), ops)


def test_stream_picks_up_a_buffered_half_word():
    ours, numpy = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(3):  # three 32-bit words: the high half of the second output is held
        assert ours.integers(10) == numpy.integers(10)
    assert ours.bit_generator.state["has_uint32"] == 1
    replay(DrawStream(ours), numpy, [None, 6, None, 6, 6])


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**64 - 1), ops=st.lists(OPS, max_size=200))
def test_stream_from_a_seed_replays_default_rng(seed, ops):
    replay(DrawStream(seed), np.random.default_rng(seed), ops)


def test_stream_from_a_seed_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        DrawStream(-1)


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
        DrawStream(np.random.default_rng(0)).integers(n)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n", [2**32 + 1, 2**40])
def test_stream_refuses_bounds_above_one_word(n):
    with pytest.raises(ValueError, match="above 2\\*\\*32"):
        DrawStream(np.random.default_rng(0)).integers(n)


@pytest.mark.parametrize("bits", [np.random.MT19937, np.random.Philox, np.random.SFC64,
                                  np.random.PCG64DXSM])
def test_stream_refuses_other_bit_generators(bits):
    with pytest.raises(TypeError, match="PCG64"):
        DrawStream(np.random.Generator(bits(0)))


# Decisions ----------------------------------------------------------------

SPECS = ["guard:lrb", "guard:marker", "guard:fitf", "switch_rand(lrb,marker)",
         "guard:switch_rand(guard:lrb,marker)"]


def logged_run(spec, trace, k, seed, stream=None):
    """The eviction log `(t, victim)` and FITF counts of one run, with the
    engine wrapping `default_rng(seed)` itself, or drawing from `stream`."""
    policy = build_policy(spec)
    bundle = _bundle(policy.requires, trace, k, seed)
    log = []
    choose = policy.choose_victim

    def logged(ctx, rng):
        victim = choose(ctx, rng)
        log.append((ctx.now, victim))
        return victim

    policy.choose_victim = logged
    engine = EvictionContext(policy, trace, k, bundle,
                             stream or np.random.default_rng(seed))
    engine.advance(len(trace))
    counts = None if bundle is None else (bundle.fitf_queries, bundle.fitf_wrong)
    return log, counts, engine


@pytest.mark.parametrize("spec", SPECS)
def test_decisions_do_not_depend_on_block_length_or_wrapper(spec):
    for t, (n, universe) in enumerate(((300, 8), (400, 13))):
        trace = random_trace(np.random.default_rng(200 + t), n, universe)
        for k in (2, 3, 5):
            for seed in (0, 1):
                runs = []
                for block in (1, 3, draws.BLOCK):
                    with mock.patch.object(draws, "BLOCK", block):
                        runs.append(logged_run(spec, trace, k, seed)[:2])
                        stream = DrawStream(np.random.default_rng(seed))
                        runs.append(logged_run(spec, trace, k, seed, stream)[:2])
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
    stream = DrawStream(np.random.default_rng(0))
    _, _, engine = logged_run(spec, trace, 3, 0, stream)
    lanes = list(_lanes(engine.policy))
    assert engine.rng is stream and lanes
    assert all(lane.rng is stream for lane in lanes)
