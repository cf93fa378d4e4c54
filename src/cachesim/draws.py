"""The random draws of a run, read from a PCG64 bit generator in blocks.

`DrawStream` answers `integers(n)` and `random()` with exactly the values
numpy's `Generator` would return for the same calls, in the same order, on
the generator it wraps. It reads the generator's 64-bit outputs `BLOCK` at a
time through the public `BitGenerator.random_raw`, so a draw costs a few
Python operations instead of a call into numpy. Once a generator is wrapped,
its stream owns its outputs: nothing may draw from the generator directly
again, since the stream has already read ahead of it.
"""

from __future__ import annotations

from itertools import chain
from numbers import Integral

import numpy as np

BLOCK = 64  # 64-bit outputs read per call into the bit generator


class DrawStream:
    """numpy's `Generator.integers(n)` and `Generator.random()` over a PCG64
    bit generator, starting from its current state.

    As in numpy, `random()` takes one 64-bit output w and returns
    `(w >> 11) * 2**-53`. `integers(n)` takes 32-bit words, each 64-bit
    output giving its low half first and keeping its high half for the next
    word (a half the generator already holds is used first), and maps a
    word to [0, n) with Lemire's multiply-and-reject method. n = 1 draws
    nothing. Bounds above 2**32, which numpy draws from 64-bit outputs, are
    refused; no cache holds that many pages.

    Given a seed instead of a generator, the stream draws from
    `default_rng(seed)`. Either way nothing is made or read before the first
    draw, so a stream that never draws costs no generator state (nor, from a
    seed, the import of `numpy.random`); the block length is the one `BLOCK`
    held when the stream was made.
    """

    __slots__ = ("_source", "_block", "_words", "_half")

    def __init__(self, generator: np.random.Generator | int):
        if isinstance(generator, Integral):
            if generator < 0:
                raise ValueError(f"a seed must be non-negative, got {generator}")
            source = generator
        else:
            source = generator.bit_generator
            if not isinstance(source, np.random.PCG64):
                raise TypeError(f"a draw stream needs a PCG64 bit generator, "
                                f"got {type(source).__name__}")
        self._source, self._block = source, BLOCK
        self.__class__ = _UnreadStream

    def random(self) -> float:
        return (next(self._words) >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        if 1 < n <= 0x100000000:
            while True:
                half = self._half
                if half is None:
                    word = next(self._words)
                    self._half = word >> 32
                    m = (word & 0xFFFFFFFF) * n
                else:
                    self._half = None
                    m = half * n
                # a word is kept unless its low product falls below
                # 2**32 % n (< n), numpy's rejection threshold
                low = m & 0xFFFFFFFF
                if low >= n or low >= 0x100000000 % n:
                    return m >> 32
        if n == 1:
            return 0
        if n <= 0:
            raise ValueError("high <= 0")
        raise ValueError(f"bound {n} is above 2**32, which a draw stream does not serve")


class _UnreadStream(DrawStream):
    """A `DrawStream` before its first draw. That draw reads the generator's
    state and makes the stream a plain `DrawStream`, whose own methods serve
    every later draw at no extra cost (a method bound before the first draw
    still works, one check slower)."""

    __slots__ = ()

    def _start(self) -> None:
        if type(self) is not _UnreadStream:  # started through another bound method
            return
        bits, block = self._source, self._block
        if isinstance(bits, Integral):
            bits = np.random.default_rng(bits).bit_generator
        state = bits.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        self._words = chain.from_iterable(
            iter(lambda: bits.random_raw(block).tolist(), None))
        self.__class__ = DrawStream

    def random(self) -> float:
        _UnreadStream._start(self)
        return DrawStream.random(self)

    def integers(self, n: int) -> int:
        _UnreadStream._start(self)
        return DrawStream.integers(self, n)
