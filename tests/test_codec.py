"""Tests for the binary storage codec."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codec, faults
from repro.codec.binary import MAGIC, VERSION, ground_elements
from repro.core.chronon import Chronon
from repro.core.element import Element
from repro.core.instant import NOW, Instant
from repro.core.nowctx import use_now
from repro.core.period import Period
from repro.core.span import Span
from repro.errors import CodecError, TipTypeError
from tests.conftest import C, E, S, sec
from tests.strategies import (
    chronons, determinate_periods, element_blob, element_blobs, elements, instants,
    safe_seconds, spans,
)


class TestRoundTrips:
    @given(chronons())
    def test_chronon(self, value):
        assert codec.decode(codec.encode(value)) == value

    @given(spans())
    def test_span(self, value):
        assert codec.decode(codec.encode(value)) == value

    @given(instants())
    def test_instant(self, value):
        assert codec.decode(codec.encode(value)).identical(value)

    @given(determinate_periods())
    def test_period(self, value):
        assert codec.decode(codec.encode(value)).identical(value)

    @given(elements())
    def test_element(self, value):
        assert codec.decode(codec.encode(value)).identical(value)

    def test_now_relative_values_survive_storage(self):
        """NOW must remain symbolic in storage — its interpretation
        happens at query time, not insert time."""
        stored = codec.decode(codec.encode(E("{[1999-10-01, NOW]}")))
        assert not stored.is_determinate
        with use_now("2000-01-01"):
            assert stored.end() == C("2000-01-01")
        with use_now("2005-01-01"):
            assert stored.end() == C("2005-01-01")

    def test_empty_element(self):
        stored = codec.decode(codec.encode(Element.empty()))
        assert stored.is_empty_at(0)


class TestHeader:
    def test_magic_and_version(self):
        blob = codec.encode(C("1999-09-01"))
        assert blob[0] == MAGIC
        assert blob[1] == VERSION

    def test_is_tip_blob(self):
        assert codec.is_tip_blob(codec.encode(S("7")))
        assert not codec.is_tip_blob(b"random bytes")
        assert not codec.is_tip_blob("not bytes")
        assert not codec.is_tip_blob(b"")

    def test_tip_type_of(self):
        assert codec.tip_type_of(codec.encode(C("1999-09-01"))) is Chronon
        assert codec.tip_type_of(codec.encode(E("{}"))) is Element
        with pytest.raises(CodecError):
            codec.tip_type_of(b"xxxx")

    def test_memoryview_and_bytearray_accepted(self):
        blob = codec.encode(C("1999-09-01"))
        assert codec.decode(bytearray(blob)) == C("1999-09-01")
        assert codec.decode(memoryview(blob)) == C("1999-09-01")

    def test_compactness(self):
        """The 'efficient binary format': a chronon is 11 bytes, far
        smaller than its text form."""
        assert len(codec.encode(C("1999-09-01"))) == 11
        two_periods = E("{[1999-01-01, 1999-04-30], [1999-07-01, 1999-10-31]}")
        assert len(codec.encode(two_periods)) == 3 + 4 + 4 * 9


class TestCorruption:
    def test_bad_magic(self):
        blob = bytearray(codec.encode(C("1999-09-01")))
        blob[0] = 0x00
        with pytest.raises(CodecError):
            codec.decode(bytes(blob))

    def test_bad_version(self):
        blob = bytearray(codec.encode(C("1999-09-01")))
        blob[1] = 99
        with pytest.raises(CodecError):
            codec.decode(bytes(blob))

    def test_bad_tag(self):
        blob = bytearray(codec.encode(C("1999-09-01")))
        blob[2] = 0x7F
        with pytest.raises(CodecError):
            codec.decode(bytes(blob))

    def test_truncated_payload(self):
        blob = codec.encode(C("1999-09-01"))
        with pytest.raises(CodecError):
            codec.decode(blob[:-3])

    def test_trailing_garbage(self):
        blob = codec.encode(C("1999-09-01")) + b"\x00"
        with pytest.raises(CodecError):
            codec.decode(blob)

    def test_too_short(self):
        with pytest.raises(CodecError):
            codec.decode(b"\x54")

    def test_not_bytes(self):
        with pytest.raises(CodecError):
            codec.decode("text")  # type: ignore[arg-type]

    def test_out_of_range_chronon_payload(self):
        import struct

        blob = bytes((MAGIC, VERSION, 0x01)) + struct.pack(">q", 2**62)
        with pytest.raises(CodecError):
            codec.decode(blob)

    def test_bad_instant_flavor(self):
        import struct

        blob = bytes((MAGIC, VERSION, 0x03)) + struct.pack(">Bq", 9, 0)
        with pytest.raises(CodecError):
            codec.decode(blob)

    def test_inverted_period_payload(self):
        import struct

        body = struct.pack(">Bq", 0, 100) + struct.pack(">Bq", 0, 50)
        blob = bytes((MAGIC, VERSION, 0x04)) + body
        with pytest.raises(CodecError):
            codec.decode(blob)

    def test_truncated_element_count(self):
        blob = bytes((MAGIC, VERSION, 0x05)) + b"\x00\x00"
        with pytest.raises(CodecError):
            codec.decode(blob)

    def test_encode_rejects_non_tip(self):
        with pytest.raises(CodecError):
            codec.encode("1999-09-01")  # type: ignore[arg-type]


class TestElementBlobPaths:
    """The two element decode paths: verified-canonical fast, general slow.

    A canonical all-determinate blob decodes straight to grounded pairs
    (no Period objects, blob stamped for free re-encode); anything else
    — NOW-relative, out-of-order, overlapping, adjacent — takes the
    normalizing object path and is never stamped with foreign bytes.
    """

    @staticmethod
    def _materialized(element: Element) -> bool:
        try:
            object.__getattribute__(element, "_periods")
        except AttributeError:
            return False
        return True

    @staticmethod
    def _splice(*elements: Element) -> bytes:
        """An element blob whose pair list concatenates *elements*'."""
        import struct

        bodies = [codec.encode(e)[7:] for e in elements]
        count = sum(len(e.ground_pairs(0)) for e in elements)
        return (bytes((MAGIC, VERSION, 0x05)) + struct.pack(">I", count)
                + b"".join(bodies))

    def test_canonical_blob_fast_path(self):
        from repro.codec import cache as marshal_cache

        element = Element.from_pairs([(0, 10), (20, 30)])
        blob = codec.encode(element)
        marshal_cache.clear_caches()
        decoded = codec.decode(blob)
        assert decoded is not element
        assert decoded.ground_pairs(0) == [(0, 10), (20, 30)]
        assert not self._materialized(decoded)  # pairs only, no Periods
        assert codec.encode(decoded) == blob  # stamped: byte-identical

    def test_out_of_order_blob_normalizes(self):
        blob = self._splice(
            Element.from_pairs([(50, 200)]), Element.from_pairs([(0, 100)])
        )
        decoded = codec.decode(blob)
        assert decoded.ground_pairs(0) == [(0, 200)]
        # Never stamped with the non-canonical input bytes.
        assert codec.encode(decoded) != blob
        assert codec.decode(codec.encode(decoded)).identical(decoded)

    def test_adjacent_pairs_blob_coalesces(self):
        blob = self._splice(
            Element.from_pairs([(0, 10)]), Element.from_pairs([(11, 20)])
        )
        assert codec.decode(blob).ground_pairs(0) == [(0, 20)]

    def test_now_relative_blob_round_trips(self):
        from repro.codec import cache as marshal_cache

        element = E("{[1999-10-01, NOW]}")
        blob = codec.encode(element)
        marshal_cache.clear_caches()
        decoded = codec.decode(blob)
        assert not decoded.is_determinate
        assert decoded.identical(element)
        assert codec.decode(codec.encode(decoded)).identical(element)

    def test_truncated_element_payload(self):
        import struct

        full = codec.encode(Element.from_pairs([(0, 10), (20, 30)]))
        truncated = full[:-8]
        assert truncated[3:7] == struct.pack(">I", 2)
        with pytest.raises(CodecError):
            codec.decode(truncated)


class TestGroundElements:
    """The kernels' one-pass grounding equals decoding each blob and
    grounding it, error for error; only canonical determinate blobs
    skip :func:`codec.decode` and its cache."""

    @staticmethod
    def _reference(blobs, now):
        """``decode(b).ground_pairs(now)`` per blob, or the first error."""
        grounded = []
        for blob in blobs:
            if blob is None:
                grounded.append(None)
                continue
            try:
                grounded.append(codec.decode(blob).ground_pairs(now))
            except CodecError as exc:
                return type(exc)
        return grounded

    @settings(max_examples=300)
    @given(blobs=st.lists(element_blobs(), max_size=8), now=safe_seconds)
    def test_equals_decode_then_ground(self, blobs, now):
        expected = self._reference(blobs, now)
        if isinstance(expected, type):
            with pytest.raises(expected):
                ground_elements(blobs, now)
        else:
            assert ground_elements(blobs, now)[0] == expected

    def test_canonical_blobs_bypass_the_decode_cache(self):
        from repro.codec import cache as marshal_cache

        blobs = [codec.encode(Element.from_pairs([(0, 10), (20, 30)])), None,
                 codec.encode(E("{[1999-10-01, NOW]}")),
                 element_blob([(20, 30), (0, 10)])]
        marshal_cache.clear_caches(reset_stats=True)
        grounded, slow = ground_elements(blobs, sec("2000-01-01"))
        assert grounded == [[(0, 10), (20, 30)], None,
                            [(sec("1999-10-01"), sec("2000-01-01"))],
                            [(0, 10), (20, 30)]]
        assert slow == 2  # the NOW-relative and the unsorted blob
        decoded = 2 if marshal_cache.state.enabled else 0
        assert marshal_cache.stats()["decode"]["misses"] == decoded

    def test_armed_fault_plan_decodes_every_blob(self):
        blobs = [codec.encode(Element.from_pairs([(0, 10)])), None,
                 codec.encode(Element.empty())]
        with faults.inject("codec.decode:delay:delay=0", seed=1):
            assert ground_elements(blobs, 0) == ([[(0, 10)], None, []], 2)
        with faults.inject("codec.decode:truncate", seed=1):
            with pytest.raises(CodecError):
                ground_elements(blobs, 0)

    def test_non_element_value_is_a_type_error(self):
        with pytest.raises(TipTypeError):
            ground_elements([codec.encode(C("1999-09-01"))], 0)
