"""The random draws of a run, read from `default_rng(seed)` in blocks.

`DrawStream(seed)` answers `integers(n)` and `random()` with exactly the
values numpy's `default_rng(seed)` would return for the same calls, in the
same order. It reads the PCG64 generator's 64-bit outputs `BLOCK` at a time
through the public `BitGenerator.random_raw`, so a draw costs a few Python
operations instead of a call into numpy.
"""

from __future__ import annotations

from itertools import chain
from numbers import Integral

import numpy as np

BLOCK = 64  # 64-bit outputs read per call into the bit generator


class DrawStream:
    """numpy's `Generator.integers(n)` and `Generator.random()` over
    `default_rng(seed)`.

    As in numpy, `random()` takes one 64-bit output w and returns
    `(w >> 11) * 2**-53`. `integers(n)` takes 32-bit words, each 64-bit
    output giving its low half first and keeping its high half for the next
    word, and maps a word to [0, n) with Lemire's multiply-and-reject method.
    n = 1 draws nothing. Bounds above 2**32, which numpy draws from 64-bit
    outputs, are refused; no cache holds that many pages.

    The generator is made when the first block is read, so a stream that
    never draws costs no generator state nor the import of `numpy.random`;
    the block length is the one `BLOCK` held when the stream was made.
    """

    __slots__ = ("_words", "_half")

    def __init__(self, seed: int):
        if not isinstance(seed, Integral) or seed < 0:
            raise ValueError(f"a seed must be a non-negative integer, got {seed!r}")
        block = BLOCK

        def blocks():
            random_raw = np.random.default_rng(seed).bit_generator.random_raw
            while True:
                yield random_raw(block).tolist()

        self._words = chain.from_iterable(blocks())
        self._half = None  # a new generator holds no half word

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
