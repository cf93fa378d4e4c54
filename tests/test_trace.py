"""Trace data model and ingestion adapters."""

from __future__ import annotations

import re
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachesim import (
    Trace,
    adversarial_pinning_trace,
    ingest_address_trace,
    ingest_brightkite,
    ingest_citibike,
    parse_plain_trace,
)
from cachesim import trace as trace_module
from .reference_impls import (
    cyclic_trace,
    last_occurrence_at_or_before,
    loop_digest,
    loop_ingest_brightkite,
    loop_next_occurrence,
    loop_parse_plain_trace,
    next_occurrence_after,
    occurrences,
    quadratic_next_occurrence,
    random_trace,
    requests,
)

DATA = Path(__file__).parent / "data"


def test_next_occurrence_tiny():
    assert Trace([0, 1, 0]).next_occurrence == array("q", [3, 4, 4])


def test_next_occurrence_five_requests():
    # a b c b a: b recurs at 4, a at 5, everything else never again
    assert Trace([0, 1, 2, 1, 0]).next_occurrence == array("q", [5, 4, 6, 6, 6])


def test_next_occurrence_matches_quadratic_reference():
    rng = np.random.default_rng(0)
    for _ in range(200):
        pages = rng.integers(0, 8, size=int(rng.integers(1, 60))).tolist()
        assert Trace(pages).next_occurrence == array("q", quadratic_next_occurrence(pages))


def test_trace_basic_properties():
    tr = Trace([5, 3, 5, 7])
    assert len(tr) == 4
    assert tr.universe_size == 3
    assert tr.pages == [5, 3, 5, 7]
    assert [r.index for r in requests(tr)] == [1, 2, 3, 4]
    assert occurrences(tr)[5] == [1, 3]


def test_trace_rejects_bad_input():
    with pytest.raises(ValueError):
        Trace([])
    with pytest.raises(ValueError):
        Trace([1, -2])


@pytest.mark.parametrize("value", [1.5, 2.7, -0.5, float("inf"), float("nan"), np.float64(0.5)])
def test_trace_rejects_page_ids_that_are_not_whole_numbers(value):
    # before, 1.5 and 2.7 were truncated, -0.5 became page 0 and inf overflowed
    with pytest.raises(ValueError, match=rf"page id {re.escape(repr(value))} is not a whole"):
        Trace([3, value])


@pytest.mark.parametrize("pages", [
    [0, 2, 1], [False, 2.0, True], [np.int64(0), np.uint8(2), 1], ["0", "2", " 1 "],
    np.array([0, 2, 1]), (0, 2, 1), iter([0, 2, 1]),
])
def test_trace_reads_what_converts_exactly(pages):
    tr = Trace(pages)
    assert tr.pages == [0, 2, 1] and all(type(p) is int for p in tr.pages)


def test_trace_keeps_the_integer_error_messages():
    with pytest.raises(ValueError, match="^empty trace$"):
        Trace(iter([]))
    with pytest.raises(ValueError, match="^page ids must be non-negative integers$"):
        Trace([1, -2.0])
    with pytest.raises(ValueError, match="page id 'x' is not a whole number"):
        Trace(["1", "x"])


def test_trace_copies_its_input():
    given_pages = [0, 1, 0]
    tr = Trace(given_pages)
    given_pages.append(5)
    assert tr.pages == [0, 1, 0]


def test_digest_bytes_are_pinned():
    # the optimum cache's `v1:` keys are these digests
    assert Trace([0, 1, 2, 0, 3]).digest == (
        "ba6fdbb88131df4922ee557868876a751f96b9ac3b240d6e6bb82da201edadcf")


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 2**70), min_size=1, max_size=80))
def test_trace_matches_the_loops(pages):
    tr = Trace(pages)
    assert tr.pages == pages
    assert tr.next_occurrence == array("q", loop_next_occurrence(pages))
    assert tr.universe_size == len(set(pages))
    assert tr.digest == loop_digest(pages)


def test_occurrence_queries():
    tr = Trace([0, 1, 2, 1, 0])
    assert next_occurrence_after(tr, 1, 2) == 4
    assert next_occurrence_after(tr, 1, 4) == 6
    assert next_occurrence_after(tr, 9, 0) == 6
    assert last_occurrence_at_or_before(tr, 0, 5) == 5
    assert last_occurrence_at_or_before(tr, 0, 4) == 1
    assert last_occurrence_at_or_before(tr, 9, 4) is None


def test_trace_digest_is_content_addressed():
    a, b = Trace([1, 2, 3]), Trace([1, 2, 3])
    assert a.digest == b.digest
    assert a.digest != Trace([1, 2, 4]).digest


def test_parse_plain_trace_interns_and_skips_comments():
    tr = parse_plain_trace("# header\n\na\nb\n a \n# tail\nb\n")
    assert tr.pages == [0, 1, 0, 1]
    with pytest.raises(ValueError):
        parse_plain_trace("# only comments\n")


def _outcome(fn, *args, **kwargs):
    """What a reader gives: its result, or the text of its ValueError."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


# pieces of plain-format text: tokens (with `#` and non-ASCII characters
# inside), comments, whitespace-only runs and every kind of line break that
# `str.splitlines` knows
PLAIN_PIECES = ["a", "b", "ab", "7", "0x40", "x#y", "é", "漢字", "#", "# c", "#a",
                " ", "\t", "\x0c", "\u3000", "\n", "\r\n", "\r", "\v", "\x1c",
                "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@settings(deadline=None, max_examples=300)
@given(st.lists(st.sampled_from(PLAIN_PIECES), max_size=60).map("".join))
def test_plain_reader_matches_the_line_loop(text):
    expected = _outcome(loop_parse_plain_trace, text)
    got = _outcome(parse_plain_trace, text)
    if isinstance(expected, str):
        assert got == expected
        return
    assert got.pages == expected
    assert got.next_occurrence == array("q", loop_next_occurrence(expected))
    assert got.universe_size == len(set(expected))
    assert got.digest == loop_digest(expected)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.sampled_from(PLAIN_PIECES), max_size=80).map("".join), st.integers(1, 8))
def test_plain_reader_blocks_cut_lines_anywhere(text, block):
    # blocks of a few characters cut tokens, comments and CRLF pairs in two
    expected = _outcome(loop_parse_plain_trace, text)
    with mock.patch.object(trace_module, "PLAIN_BLOCK", block):
        got = _outcome(parse_plain_trace, text)
    if isinstance(expected, str):
        assert got == expected
        return
    assert got.pages == expected


# check-in fields: padded users and locations, timestamps that tie once
# stripped (so that file order must break the tie), and a few lines that are
# blank, short of a user or a location, or of the wrong width
checkin_line = st.tuples(
    st.sampled_from(["u1", "u2", " u1", "u2 "]),
    st.sampled_from(["2010-01", "2010-02", " 2010-01", "2010-01 ", ""]),
    st.just("0.0"), st.just("0.0"),
    st.sampled_from(["l1", "l2", "l3", "l4", " l1", "l2 "]),
).map("\t".join)
odd_line = st.one_of(
    st.sampled_from(["", " ", "\t\t\t\t", " \t \t\t\t ", "\tt\t0\t0\tl1", "u1\tt\t0\t0\t ",
                     " \tt\t0\t0\t", "u1\tt\t0\t0"]),
    st.lists(st.sampled_from(["u1", "l1", "2010-01", " "]), max_size=7).map("\t".join),
)


@settings(deadline=None, max_examples=300)
@given(st.lists(checkin_line, max_size=30),
       st.lists(st.tuples(st.integers(0, 30), odd_line), max_size=2),
       st.sampled_from(["\n", "\r\n", "\r", "\u2028"]), st.integers(0, 2))
def test_brightkite_reader_matches_the_line_loop(lines, odd, newline, cache_size):
    for at, line in odd:
        lines.insert(at, line)
    text = newline.join(lines)
    expected = _outcome(loop_ingest_brightkite, text, cache_size)
    got = _outcome(ingest_brightkite, text, cache_size=cache_size)
    if isinstance(expected, str):
        assert got == expected
        return
    assert [(user, tr.pages) for user, tr in got] == expected
    for _user, tr in got:
        assert tr.next_occurrence == array("q", loop_next_occurrence(tr.pages))


def test_brightkite_threshold_and_order():
    text = (DATA / "brightkite_sample.tsv").read_text()
    pairs = ingest_brightkite(text, cache_size=10)
    users = [u for u, _ in pairs]
    assert sorted(users) == ["101", "202", "404"]  # 303 has 12 < 20 distinct
    by_user = dict(pairs)
    assert by_user["404"].universe_size == 20  # boundary: exactly 2 * cache_size
    assert len(by_user["101"]) == 70 and by_user["101"].universe_size == 25


def test_brightkite_sorts_checkins_chronologically():
    text = (
        "7\t2010-03-01T00:00:00Z\t0.0\t0.0\tlater\n"
        "7\t2010-01-01T00:00:00Z\t0.0\t0.0\tfirst\n"
        "7\t2010-02-01T00:00:00Z\t0.0\t0.0\tmid\n"
    )
    pairs = ingest_brightkite(text, cache_size=1)  # keeps users with >= 2 places
    assert pairs[0][1].pages == [0, 1, 2]  # first, mid, later after sorting


def test_brightkite_malformed_rows():
    with pytest.raises(ValueError, match="line 1"):
        ingest_brightkite("too\tfew\tfields\n", cache_size=1)
    with pytest.raises(ValueError, match="line 2"):
        ingest_brightkite(
            "7\t2010-01-01T00:00:00Z\t0.0\t0.0\tx\n7\t2010-01-01T00:00:00Z\t0.0\t0.0\t\n",
            cache_size=1,
        )
    with pytest.raises(ValueError):
        ingest_brightkite("", cache_size=1)


def test_citibike_station_column_and_float_ids():
    text = (DATA / "citibike_sample.csv").read_text()
    tr = ingest_citibike(text)
    assert len(tr) == 1200
    assert all(100 <= p < 320 for p in set(tr.pages))


def test_citibike_errors_carry_row_numbers():
    header = "tripduration,start station id\n"
    with pytest.raises(ValueError, match="row 2"):
        ingest_citibike(header + "60,notanumber\n")
    with pytest.raises(ValueError, match="row 3"):
        ingest_citibike(header + "60,12\n61,\n")
    with pytest.raises(ValueError, match="column"):
        ingest_citibike("a,b\n1,2\n")


@pytest.mark.parametrize("station", ["inf", "-inf", "nan"])
def test_citibike_rejects_station_ids_that_are_not_finite(station):
    with pytest.raises(ValueError, match="row 3"):
        ingest_citibike(f"tripduration,start station id\n60,12\n61,{station}\n")


@pytest.mark.parametrize("station", ["12.7", "12.5", "-0.5", "1e-3"])
def test_citibike_rejects_fractional_station_ids(station):
    # truncating would merge 12.7 with station 12
    with pytest.raises(ValueError, match="row 3.*not a whole number"):
        ingest_citibike(f"tripduration,start station id\n60,12\n61,{station}\n")


def test_citibike_reads_whole_station_ids_written_as_floats():
    tr = ingest_citibike("tripduration,start station id\n60,205.0\n61,205\n62,1e2\n")
    assert tr.pages == [205, 205, 100]


def test_set_associative_geometry():
    # 2 MiB of 64-byte lines is 32768 lines: 2048 sets at 16 ways, 32768 at 1
    far = 32768 * 64  # byte address of line 32768
    assert set(ingest_address_trace(f"0\n{far // 16}\n", 16)) == {0}
    assert set(ingest_address_trace(f"0\n{far // 16}\n", 1)) == {0, 2048}
    assert set(ingest_address_trace(f"0\n{far}\n", 1)) == {0}
    for ways in (7, 0, -16, 65536):
        with pytest.raises(ValueError, match="ways"):
            ingest_address_trace("0x0\n", ways)


def test_address_trace_set_mapping():
    # bytes 0 and 131072 live 2048 lines apart: same set, different pages
    sets = ingest_address_trace("0x0\n131072\n0x40\n", 16)
    assert sets[0].pages == [0, 2048]
    assert sets[1].pages == [1]
    with pytest.raises(ValueError, match="line 2"):
        ingest_address_trace("0x0\nnothex\n", 16)
    with pytest.raises(ValueError, match="line 1"):
        ingest_address_trace("-4\n", 16)


def test_address_fixture_sets():
    sets = ingest_address_trace((DATA / "addr_sample.txt").read_text(), 16)
    assert set(sets) == {0, 1, 5}
    assert 0 in sets[0].pages and 2048 in sets[0].pages


def test_synthetic_generators():
    assert cyclic_trace(3, 7).pages == [0, 1, 2, 0, 1, 2, 0]
    adv = adversarial_pinning_trace(8)
    assert adv.pages == [0, 1, 2, 1, 2, 1, 2, 1]
    with pytest.raises(ValueError):
        adversarial_pinning_trace(3)
    with pytest.raises(ValueError):
        cyclic_trace(0, 5)


def test_random_trace_helper_respects_universe():
    rng = np.random.default_rng(3)
    tr = random_trace(rng, 100, 6)
    assert len(tr) == 100
    assert set(tr.pages) <= set(range(6))
