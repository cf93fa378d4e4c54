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
    """

    __slots__ = ("_words", "_half")

    def __init__(self, generator: np.random.Generator):
        bits = generator.bit_generator
        if not isinstance(bits, np.random.PCG64):
            raise TypeError(f"a draw stream needs a PCG64 bit generator, "
                            f"got {type(bits).__name__}")
        state = bits.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        block = BLOCK
        self._words = chain.from_iterable(
            iter(lambda: bits.random_raw(block).tolist(), None))

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
