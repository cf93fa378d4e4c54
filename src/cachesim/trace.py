"""Request-sequence data model and trace ingestion.

A trace is an ordered sequence of page requests; request indices are 1-based
throughout the package. ``next_occurrence[i-1]`` holds the index of the next
request for the same page strictly after request ``i``, with the sentinel
``n + 1`` when the page is never requested again. The pages are a list of
ints and the next occurrences an int64 `array('q')`: 8 bytes a request, where
a list holds a separate int object for every value above 256.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from contextlib import suppress
from itertools import chain, count, filterfalse
from operator import methodcaller
from typing import Iterable, Iterator

import numpy as np

PageId = int


def _page_ids(pages: list[PageId]) -> np.ndarray:
    """The page ids as an array that compares like them: uint16 when every
    id fits, else int64, else (an id past int64) numbered in order of first
    appearance. Raises ValueError on a negative id."""
    try:
        ids = np.array(pages, dtype=np.int64)
    except OverflowError:
        ids = None
    if (min(pages) if ids is None else ids.min()) < 0:
        raise ValueError("page ids must be non-negative integers")
    if ids is None:
        return np.array(_intern(pages), dtype=np.int64)
    return ids.astype(np.uint16) if ids.max() < 1 << 16 else ids


def _next_occurrence(ids: np.ndarray) -> tuple[array, int]:
    """Next-occurrence index of every request (sentinel n+1) and the number of
    distinct pages, from the `_page_ids` of a trace.

    A stable sort groups each page's requests in request order, so a request's
    successor in the sorted order is its page's next request when both hold
    the same page. numpy sorts 16-bit ids with a radix sort.
    """
    n = len(ids)
    order = np.argsort(ids, kind="stable")
    # sorted positions whose page differs from the next one's: each page's
    # last request (the sorted ids never decrease, so no difference wraps)
    ends = np.flatnonzero(np.diff(ids[order]))
    out = array("q", [0]) * n
    nxt = np.frombuffer(out, dtype=np.int64)
    nxt[order[:-1]] = order[1:]
    nxt += 1  # 1-based
    nxt[order[ends]] = n + 1
    nxt[order[-1]] = n + 1
    return out, len(ends) + 1


def _whole_ints(values: list) -> list[int]:
    """`int` of every value, refusing one that `int` would truncate or cannot read.

    A string is read exactly or not at all, so it needs no comparison.
    """
    out = []
    for v in values:
        try:
            p = int(v)
        except (ValueError, OverflowError):
            p = None
        if p is None or (p != v and not isinstance(v, (str, bytes))):
            raise ValueError(f"page id {v!r} is not a whole number")
        out.append(p)
    return out


def whole_number(text: str) -> int:
    """The whole number `text` spells, read exactly (`205`, `205.0`, `2e2`);
    ValueError for a fraction, a value past float's range or no number."""
    try:
        return int(text)
    except ValueError:  # not plain digits: the slower exact reading below
        from decimal import Decimal, InvalidOperation  # here: it adds 0.35 MiB to peak memory

    with suppress(InvalidOperation):  # no number, or a signalling NaN
        value = Decimal(text)
        if value == value.to_integral_value() and math.isfinite(float(value)):
            return int(value)
    raise ValueError(f"{text!r} is not a whole number")


def _intern(tokens: list[str]) -> list[PageId]:
    """Consecutive PageIds in order of first appearance."""
    ids = dict(zip(dict.fromkeys(tokens), count()))
    return list(map(ids.__getitem__, tokens))


class Trace:
    """Immutable page-request sequence with precomputed next-occurrence times.

    `pages` is a list of int page ids, `next_occurrence` an `array('q')` of
    request indices (sentinel n+1), and `universe_size` the number of
    distinct pages. The offline optimum's miss count and labels at each
    cache size are kept on the trace once computed (see `oracle`), and so is
    the default boundary of `predict.binary_from_nrt`.
    """

    __slots__ = ("pages", "next_occurrence", "universe_size", "_optima", "_boundaries")

    def __init__(self, pages: Iterable[PageId]):
        given = pages if type(pages) is list else list(pages)
        try:
            pages = list(map(int, given))
            # ints, bools, numpy integers and 2.0 equal what `int` made of them
            exact = pages == given
        except (ValueError, OverflowError):
            exact = False
        if not exact:
            pages = _whole_ints(given)
        if not pages:
            raise ValueError("empty trace")
        nxt, universe = _next_occurrence(_page_ids(pages))
        self.pages: list[PageId] = pages
        self.next_occurrence: array = nxt
        self.universe_size: int = universe
        # cache size -> the optimum's (misses, labels), kept by `oracle._optimum`
        self._optima: dict[int, tuple[int, bytes]] = {}
        # cache size -> the boundary kept by `predict.binary_from_nrt`
        self._boundaries: dict[int, float] = {}

    def __len__(self) -> int:
        return len(self.pages)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Trace(n={len(self.pages)}, universe={self.universe_size})"


# Characters of text a line-oriented reader splits into lines at a time.
PLAIN_BLOCK = 1 << 14
# The characters `str.splitlines` ends a line at (CRLF is CR, then LF).
_LINE_BREAKS = frozenset("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def _line_blocks(text: str) -> Iterator[list[str]]:
    """The lines of `text`, as one list per `PLAIN_BLOCK` characters.

    The lists joined equal `text.splitlines()`, so no list holds every line.
    A block cut inside a line carries that line on to the next block, and so
    does a block that ends in CR, with the CR kept: the LF of a CRLF pair may
    begin the next block.
    """
    carry = ""
    for start in range(0, len(text), PLAIN_BLOCK):
        end = start + PLAIN_BLOCK
        lines = (carry + text[start:end]).splitlines()
        carry = ""
        if end < len(text):
            last = text[end - 1]
            if last not in _LINE_BREAKS:
                carry = lines.pop()
            elif last == "\r":
                carry = lines.pop() + "\r"
        yield lines


def parse_plain_trace(text: str) -> Trace:
    """Parse the plain format: one token per line; blank lines and ``#`` comments skipped.

    Tokens are interned to consecutive PageIds in order of first appearance.
    The text is read in `_line_blocks`, with C-level passes over each block.
    """
    ids: dict[str, PageId] = {}
    pages: list[PageId] = []
    comments = "#" in text
    for lines in _line_blocks(text):
        tokens = list(filter(None, map(str.strip, lines)))
        if comments:
            tokens = list(filterfalse(methodcaller("startswith", "#"), tokens))
        new = filterfalse(ids.__contains__, dict.fromkeys(tokens))
        ids.update(zip(new, count(len(ids))))
        pages.extend(map(ids.__getitem__, tokens))
    if not pages:
        raise ValueError("empty trace")
    del ids  # the token strings go before the trace is built: a lower peak
    return Trace(pages)


def ingest_brightkite(text: str, *, cache_size: int = 10) -> list[tuple[str, Trace]]:
    """Split a BrightKite-style check-in dump into per-user location traces.

    Expects five tab-separated columns per line: user, check-in time, latitude,
    longitude, location id. Check-ins are ordered chronologically per user
    (ties keep file order) and the location id becomes the page. Users with
    fewer than twice ``cache_size`` distinct locations are dropped.

    The text is read in `_line_blocks`. Each user keeps two columns, its
    stripped timestamps and its location strings, and each location string
    is held once per dump: no tuple per check-in, no list of every line.
    """
    columns: dict[str, tuple[list[str], list[str]]] = {}
    places: dict[str, str] = {}
    for lineno, raw in enumerate(chain.from_iterable(_line_blocks(text)), 1):
        cols = raw.split("\t")
        if len(cols) == 5:
            user, ts, _lat, _lon, loc = cols
            user, loc = user.strip(), loc.strip()
            if user and loc:
                try:
                    times, locs = columns[user]
                except KeyError:
                    times, locs = columns[user] = ([], [])
                times.append(ts.strip())
                locs.append(places.setdefault(loc, loc))
                continue
        if not raw.strip():
            continue
        if len(cols) != 5:
            raise ValueError(
                f"line {lineno}: expected 5 tab-separated fields, got {len(cols)}"
            )
        if not loc:
            raise ValueError(f"line {lineno}: missing location id")
        raise ValueError(f"line {lineno}: missing user id")
    if not columns:
        raise ValueError("empty trace")
    out: list[tuple[str, Trace]] = []
    for user, (times, locs) in columns.items():
        if len(set(locs)) < 2 * cache_size:
            continue
        # timestamps are ISO-like: lexicographic == chronological; sorted is stable
        order = sorted(range(len(times)), key=times.__getitem__)
        out.append((user, Trace(_intern(list(map(locs.__getitem__, order))))))
    return out


def ingest_citibike(text: str) -> Trace:
    """Read a bike-share ride CSV; each ride's start station id becomes one
    request, read exactly by `whole_number` (`205.0` is station 205)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise ValueError("empty trace")
    names = [h.strip().lower() for h in header]
    try:
        col = names.index("start station id")
    except ValueError:
        raise ValueError("column 'start station id' not found in header") from None
    pages: list[int] = []
    for rownum, row in enumerate(reader, 2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise ValueError(f"row {rownum}: expected {len(header)} fields, got {len(row)}")
        val = row[col].strip()
        if not val:
            raise ValueError(f"row {rownum}: missing station id")
        try:
            pages.append(whole_number(val))
        except ValueError:
            raise ValueError(f"row {rownum}: station id {val!r} is not a whole number") from None
    if not pages:
        raise ValueError("empty trace")
    return Trace(pages)


_ADDR_LINE_BYTES = 64
_ADDR_LINES = 2 * 1024 * 1024 // _ADDR_LINE_BYTES  # lines of a 2 MiB cache


def ingest_address_trace(text: str, ways: int) -> dict[int, Trace]:
    """Map raw memory addresses onto the sets of a 2 MiB, ``ways``-way cache
    with 64-byte lines; one independent trace per set, keyed in ascending
    set order.

    Addresses are hex (``0x`` prefix) or decimal, one per line. The page is the
    line address ``addr // 64``; its set is ``line_address % num_sets``, with
    ``num_sets = 32768 // ways``. Simulate each per-set trace with k = ``ways``.
    """
    if ways < 1 or _ADDR_LINES % ways:
        raise ValueError(f"ways must be a positive divisor of {_ADDR_LINES} lines, got {ways}")
    num_sets = _ADDR_LINES // ways
    per_set: dict[int, list[int]] = {}
    for lineno, raw in enumerate(chain.from_iterable(_line_blocks(text)), 1):
        tok = raw.strip()
        if not tok or tok.startswith("#"):
            continue
        try:
            addr = int(tok, 16) if tok.lower().startswith("0x") else int(tok)
        except ValueError:
            raise ValueError(f"line {lineno}: unparsable address {tok!r}") from None
        if addr < 0:
            raise ValueError(f"line {lineno}: negative address {tok!r}")
        line_addr = addr // _ADDR_LINE_BYTES
        per_set.setdefault(line_addr % num_sets, []).append(line_addr)
    if not per_set:
        raise ValueError("empty trace")
    return {s: Trace(pages) for s, pages in sorted(per_set.items())}


def adversarial_pinning_trace(n: int) -> Trace:
    """Family where one never-reused page tempts a misled policy to pin it.

    Requests page 0 once, then alternates pages 2 and 1 forever. The offline
    optimum evicts page 0 at the first miss and pays a constant 3 misses at
    k = 2 regardless of length, so any policy tricked into keeping page 0
    while cycling the other two has an unbounded cost ratio.
    """
    if n < 4:
        raise ValueError("adversarial family needs n >= 4")
    pages = [0, 1]
    for t in range(n - 2):
        pages.append(2 if t % 2 == 0 else 1)
    return Trace(pages)
