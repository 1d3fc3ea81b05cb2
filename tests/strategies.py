"""Hypothesis strategies for TIP values.

Times are drawn from a "safe" window (years ~1970-2030 by default) so
that NOW-relative grounding never clamps at the calendar bounds, which
keeps set-algebra properties exact.
"""

from __future__ import annotations

import struct

from hypothesis import strategies as st

from repro.codec import binary
from repro.core import interval_algebra as ia
from repro.core.chronon import Chronon
from repro.core.element import Element
from repro.core.instant import Instant
from repro.core.period import Period
from repro.core.span import Span

#: Safe chronon-second bounds (approx. 1970..2033).
SAFE_LO = 0
SAFE_HI = 2_000_000_000

safe_seconds = st.integers(min_value=SAFE_LO, max_value=SAFE_HI)

#: Small coordinates for brute-force comparisons against chronon sets.
tiny_seconds = st.integers(min_value=0, max_value=400)

#: Wider coordinates for work-bound properties: enough room that
#: canonical pair lists can actually reach the requested size instead
#: of coalescing away, without being brute-force-enumerable.
wide_seconds = st.integers(min_value=0, max_value=500_000)


@st.composite
def pairs_lists(draw, coords=tiny_seconds, max_size=12):
    """Arbitrary (possibly overlapping, unsorted) period pair lists."""
    raw = draw(
        st.lists(st.tuples(coords, coords), max_size=max_size)
    )
    return [(min(a, b), max(a, b)) for a, b in raw]


@st.composite
def canonical_pairs(draw, coords=tiny_seconds, max_size=12):
    """Canonical (sorted, disjoint, non-adjacent) pair lists."""
    return ia.normalize(draw(pairs_lists(coords, max_size)))


@st.composite
def chronons(draw, seconds=safe_seconds):
    return Chronon(draw(seconds))


@st.composite
def spans(draw, max_magnitude=10_000_000):
    return Span(draw(st.integers(min_value=-max_magnitude, max_value=max_magnitude)))


@st.composite
def instants(draw, seconds=safe_seconds, offset_magnitude=1_000_000):
    if draw(st.booleans()):
        return Instant.at(Chronon(draw(seconds)))
    offset = draw(st.integers(min_value=-offset_magnitude, max_value=offset_magnitude))
    return Instant.now_relative(Span(offset))


@st.composite
def determinate_periods(draw, seconds=safe_seconds):
    a = draw(seconds)
    b = draw(seconds)
    lo, hi = (a, b) if a <= b else (b, a)
    return Period(Chronon(lo), Chronon(hi))


@st.composite
def periods(draw, seconds=safe_seconds):
    """Periods that may have NOW-relative endpoints (kept orderable)."""
    if draw(st.booleans()):
        return draw(determinate_periods(seconds))
    start = draw(instants(seconds))
    # End at or after the start when both are the same flavor; mixing
    # flavors is allowed (emptiness then depends on NOW).
    end = draw(instants(seconds))
    try:
        return Period(start, end)
    except Exception:
        return Period(end, start)


@st.composite
def elements(draw, seconds=safe_seconds, max_periods=6):
    return Element(draw(st.lists(periods(seconds), max_size=max_periods)))


@st.composite
def determinate_elements(draw, seconds=safe_seconds, max_periods=8):
    return Element(draw(st.lists(determinate_periods(seconds), max_size=max_periods)))


@st.composite
def canonical_elements(draw, coords=wide_seconds, max_size=32):
    """Determinate elements built straight from canonical pair lists.

    Unlike :func:`determinate_elements`, the number of stored periods
    equals the number of drawn pairs (nothing coalesces), which is what
    the work-per-input properties need for sharp operand sizes.
    """
    return Element.from_pairs(draw(canonical_pairs(coords, max_size)))


def element_blob(pairs) -> bytes:
    """An ``ELEMENT`` blob holding *pairs* verbatim, in the given order:
    the encoder would normalize them, this writes what a foreign or
    older writer may have stored (unsorted, overlapping, adjacent)."""
    body = b"".join(struct.pack(">BQBQ", 0, lo + binary._BIAS_SECONDS,
                                0, hi + binary._BIAS_SECONDS) for lo, hi in pairs)
    return bytes((binary.MAGIC, binary.VERSION, 0x05)) \
        + struct.pack(">I", len(pairs)) + body


@st.composite
def element_blobs(draw):
    """What an ``ELEMENT`` column may hold: NULL, canonical determinate,
    NOW-relative and empty elements, non-canonical pair lists, and
    truncated, bad-magic or trailing-garbage bytes."""
    kind = draw(st.sampled_from(("null", "canonical", "now", "empty",
                                 "raw", "truncated", "magic", "trailing")))
    if kind == "null":
        return None
    if kind == "empty":
        return binary.encode(Element.empty())
    if kind == "raw":
        return element_blob(draw(pairs_lists(coords=safe_seconds, max_size=5)))
    blob = binary.encode(draw(elements(max_periods=4) if kind == "now"
                              else determinate_elements(max_periods=4)))
    if kind == "truncated":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "magic":
        return bytes([draw(st.integers(0, 255).filter(lambda b: b != blob[0]))]) + blob[1:]
    if kind == "trailing":
        return blob + draw(st.binary(min_size=1, max_size=9))
    return blob


def brute_set(pairs) -> set:
    """Reference model: a pair list as an explicit set of chronons."""
    covered = set()
    for start, end in pairs:
        covered.update(range(start, end + 1))
    return covered


# -- tSQL statements with placeholders --------------------------------

#: Dates safely inside the differential data window, for SNAPSHOT AT /
#: VALIDTIME PERIOD literals.
_TSQL_DATES = ("1999-02-01", "1999-06-15", "1999-11-30")

#: Bare ``a, b`` bodies — the preprocessor brackets them itself.
_TSQL_PERIODS = ("1999-01-01, 1999-06-30", "1999-04-01, 1999-12-31")


@st.composite
def tsql_statements(draw, table="Rx", columns=("patient", "drug")):
    """A TSQL2-modified SELECT plus its positional parameters.

    Returns ``(statement, params)``: the statement draws one of the
    preprocessor's modifier forms (or none), a column subset, optional
    ``column = ?`` placeholders in WHERE, and ragged whitespace — so a
    prepared/cached plan must survive every spelling the normalizer is
    supposed to collapse.
    """
    modifier = draw(st.sampled_from((
        "",
        "SNAPSHOT",
        "SNAPSHOT AT '{}'".format(draw(st.sampled_from(_TSQL_DATES))),
        "VALIDTIME",
        "VALIDTIME PERIOD '{}'".format(draw(st.sampled_from(_TSQL_PERIODS))),
        "NONSEQUENCED VALIDTIME",
    )))
    select_list = ", ".join(
        draw(st.sampled_from((columns, columns[:1], columns[1:]))),
    )
    placeholders = draw(st.lists(st.sampled_from(columns), max_size=2))
    values = st.sampled_from(("alice", "bob", "carol", "aspirin", "prozac"))
    params = tuple(draw(values) for _ in placeholders)
    where = ""
    if placeholders:
        where = " WHERE " + " AND ".join(f"{c} = ?" for c in placeholders)
    gap = draw(st.sampled_from((" ", "  ", "\n", "\t ")))
    statement = f"{modifier} SELECT {select_list} FROM {table}{where}"
    # Respell whitespace outside single-quoted literals only: the
    # normalizer keeps literal bodies verbatim, so spacing inside one
    # is (deliberately) a different statement.
    parts = statement.split("'")
    statement = "'".join(
        part if index % 2 else part.replace(" ", gap)
        for index, part in enumerate(parts)
    ).strip()
    if draw(st.booleans()):
        statement += ";"
    return statement, params
