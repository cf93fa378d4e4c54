"""`uniform_index` against the `Generator.integers` call it replaces.

Every bounded draw of a run (the guard's redirects, `lrb` and `marker`
picks) goes through `uniform_index`, so a seed reproduces a run only if the
helper returns what `int(rng.integers(n))` returns and leaves the bit
generator where that call leaves it. Each example replays one sequence of
draws, interleaved with `rng.random()` calls, on two generators seeded
alike: one through the helper and one through numpy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachesim.policy import uniform_index

BIT_GENERATORS = {
    "PCG64": np.random.PCG64,
    "MT19937": np.random.MT19937,
    "Philox": np.random.Philox,
    "SFC64": np.random.SFC64,
}
# 1 draws nothing; 2**31 + 5 rejects almost half of its words; 2**32 - 1 is
# the largest bound drawn from one word, and 2**32 the smallest deferred one
BOUNDS = [*range(1, 13), 1_000, 2**31 + 5, 2**32 - 1, 2**32]


def same_state(a, b) -> bool:
    """Equality of two `bit_generator.state` values, which hold arrays for
    MT19937."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[key], b[key]) for key in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@settings(deadline=None, max_examples=200)
@given(
    bit_generator=st.sampled_from(sorted(BIT_GENERATORS)),
    seed=st.integers(0, 2**32 - 1),
    ops=st.lists(st.one_of(st.sampled_from(BOUNDS), st.none()), max_size=60),
)
def test_uniform_index_replays_generator_integers(bit_generator, seed, ops):
    ours = np.random.Generator(BIT_GENERATORS[bit_generator](seed))
    numpy = np.random.Generator(BIT_GENERATORS[bit_generator](seed))
    for n in ops:
        if n is None:  # an unbounded draw between bounded ones
            assert ours.random() == numpy.random()
        else:
            got = uniform_index(ours, n)
            assert type(got) is int
            assert got == int(numpy.integers(n))
    assert same_state(ours.bit_generator.state, numpy.bit_generator.state)


@pytest.mark.parametrize("n", [0, -3])
def test_uniform_index_rejects_what_numpy_rejects(n):
    with pytest.raises(ValueError) as want:
        np.random.default_rng(0).integers(n)
    with pytest.raises(ValueError) as got:
        uniform_index(np.random.default_rng(0), n)
    assert str(got.value) == str(want.value)
