"""Tagged, versioned binary encoding of the five TIP datatypes.

This is the on-disk / on-wire representation the blade stores in table
columns, the analog of the DataBlade's internal binary format.  Layout
(big-endian throughout):

====  =======================================================
byte  meaning
====  =======================================================
0     magic ``0x54`` (``'T'``)
1     format version (currently 1)
2     type tag (see below)
3..   type-specific payload
====  =======================================================

Payloads:

* ``Chronon`` — 64-bit *biased* unsigned seconds (value − calendar
  minimum).
* ``Span`` — 64-bit biased unsigned seconds (value − span minimum).
* ``Instant`` — 1 flavor byte (0 determinate / 1 NOW-relative) +
  64-bit biased seconds (absolute or offset).
* ``Period`` — two instant payloads (start, end).
* ``Element`` — unsigned 32-bit period count + period payloads.

The format is self-describing, so result values flowing out of engine
expressions (whose column type SQLite does not declare) can still be
recognized and decoded by the client's type map.  It is also
**order-preserving**: within one type, raw byte comparison of blobs
equals value comparison (biased payloads, big-endian, constant header),
so SQLite's native ``ORDER BY``, ``MIN``/``MAX``, and B-tree indexes
work directly on stored TIP columns.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple, Type, Union

from repro.codec import cache as _CACHE
from repro.core import granularity
from repro.obs import flight as _flight
from repro.core.chronon import Chronon
from repro.core.element import Element
from repro.core.instant import Instant
from repro.core.period import Period
from repro.core.span import Span
from repro.errors import CodecError, TipTypeError
from repro.faults import state as _FAULTS

__all__ = [
    "MAGIC",
    "VERSION",
    "encode",
    "decode",
    "ground_elements",
    "is_tip_blob",
    "tip_type_of",
    "TAG_BY_TYPE",
    "TYPE_BY_TAG",
]

MAGIC = 0x54
VERSION = 1

_TAG_CHRONON = 0x01
_TAG_SPAN = 0x02
_TAG_INSTANT = 0x03
_TAG_PERIOD = 0x04
_TAG_ELEMENT = 0x05

TAG_BY_TYPE = {
    Chronon: _TAG_CHRONON,
    Span: _TAG_SPAN,
    Instant: _TAG_INSTANT,
    Period: _TAG_PERIOD,
    Element: _TAG_ELEMENT,
}
TYPE_BY_TAG = {tag: tip_type for tip_type, tag in TAG_BY_TYPE.items()}

TipValue = Union[Chronon, Span, Instant, Period, Element]

# The parse cache may only retain immutable values; tell it which
# classes qualify (a lazy handshake — importing the core types inside
# repro.codec.cache would be circular).
_CACHE._register_immutable_types(tuple(TAG_BY_TYPE))

_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")
_INSTANT = struct.Struct(">BQ")

# Payload integers are stored *biased* (value - minimum, as unsigned
# big-endian), so raw byte order equals value order.  Within one type
# the 3-byte header is constant, hence plain blob comparison — SQLite's
# ORDER BY, MIN(), MAX(), B-tree indexes — sorts TIP columns
# chronologically with no collation support needed.
_BIAS_SECONDS = -granularity.MIN_SECONDS
_BIAS_SPAN = -granularity.MIN_SPAN_SECONDS


def _encode_instant_body(value: Instant) -> bytes:
    if value.is_determinate:
        return _INSTANT.pack(0, value.ground_seconds(0) + _BIAS_SECONDS)
    return _INSTANT.pack(1, value.offset.seconds + _BIAS_SPAN)  # type: ignore[union-attr]


def _decode_instant_body(data: bytes, offset: int) -> tuple[Instant, int]:
    try:
        flavor, biased = _INSTANT.unpack_from(data, offset)
    except struct.error as exc:
        raise CodecError(f"truncated instant payload at byte {offset}") from exc
    if flavor not in (0, 1):
        raise CodecError(f"unknown instant flavor {flavor}")
    try:
        if flavor == 0:
            instant = Instant(abs_seconds=biased - _BIAS_SECONDS)
        else:
            instant = Instant(offset_seconds=biased - _BIAS_SPAN)
    except Exception as exc:  # out-of-range payload in a corrupted blob
        raise CodecError(f"blob encodes an invalid Instant: {exc}") from exc
    return instant, offset + _INSTANT.size


def encode(value: TipValue) -> bytes:
    """Serialize a TIP value to its binary blob.

    Encoding is pure (``NOW``-relative instants serialize as offsets),
    so the canonical bytes are stamped onto the value's ``_tip_blob``
    slot on first encode: re-encoding the same immutable value — and
    ``encode(decode(b))`` through the decode cache, which hands back
    the same object — is a single attribute read.
    """
    tag = TAG_BY_TYPE.get(type(value))
    if tag is None:
        raise CodecError(f"not a TIP value: {type(value).__name__}")
    try:
        cached = value._tip_blob
    except AttributeError:
        cached = None
    if cached is not None:
        return cached
    header = bytes((MAGIC, VERSION, tag))
    if isinstance(value, (Chronon,)):
        blob = header + _U64.pack(value.seconds + _BIAS_SECONDS)
    elif isinstance(value, Span):
        blob = header + _U64.pack(value.seconds + _BIAS_SPAN)
    elif isinstance(value, Instant):
        blob = header + _encode_instant_body(value)
    elif isinstance(value, Period):
        blob = header + _encode_instant_body(value.start) + _encode_instant_body(value.end)
    else:  # Element
        pairs = value._pairs
        if pairs is not None:
            # Canonical element: pack straight from the grounded pairs
            # without materializing Period objects (identical bytes —
            # every pair is a determinate [lo, hi]).
            parts = [header, _U32.pack(len(pairs))]
            for lo, hi in pairs:
                parts.append(_INSTANT.pack(0, lo + _BIAS_SECONDS))
                parts.append(_INSTANT.pack(0, hi + _BIAS_SECONDS))
        else:
            parts = [header, _U32.pack(len(value.periods))]
            for period in value.periods:
                parts.append(_encode_instant_body(period.start))
                parts.append(_encode_instant_body(period.end))
        blob = b"".join(parts)
    if _CACHE.state.enabled:
        value._tip_blob = blob
    return blob


def is_tip_blob(data: object) -> bool:
    """True when *data* looks like an encoded TIP value."""
    return (
        isinstance(data, (bytes, bytearray, memoryview))
        and len(data) >= 3
        and data[0] == MAGIC
        and data[1] == VERSION
        and data[2] in TYPE_BY_TAG
    )


def tip_type_of(data: bytes) -> Type[TipValue]:
    """The TIP type encoded in *data* (header inspection only)."""
    if not is_tip_blob(data):
        raise CodecError("not a TIP blob")
    return TYPE_BY_TAG[data[2]]


def decode(data: bytes) -> TipValue:
    """Deserialize a binary blob back into a TIP value.

    Decoding is pure — ``NOW``-relative payloads decode to offset-based
    instants, never to a grounded time — so repeated decodes of the
    same blob are served from the process-wide LRU (all TIP values are
    immutable and therefore safe to share).  While a fault plan is
    armed the cache is bypassed entirely, so every injected corruption
    hits a real decode and chaos runs stay deterministic.
    """
    if type(data) is not bytes:
        if isinstance(data, (bytearray, memoryview)):
            data = bytes(data)
        else:
            raise CodecError(f"expected bytes, got {type(data).__name__}")
    if _FAULTS.plan is not None:
        # Chaos hook: a corrupted/truncated blob must fail as a typed
        # CodecError below, never crash the decoder.
        return _decode_bytes(_FAULTS.plan.apply("codec.decode", data), stamp=False)
    if not _CACHE.state.enabled:
        return _decode_bytes(data, stamp=False)
    cache = _CACHE.DECODE
    value = cache.get(data)
    if value is not None:
        return value
    value = _decode_bytes(data, stamp=True)
    cache.put(data, value)
    if _flight.state.enabled:
        # Misses only: hits are far too hot for a ring append per row
        # (the stats counters still count them); a miss marks the cold
        # moment a timeline cares about.
        _flight.record("cache.decode.miss", tag=data[2])
    return value


def _decode_bytes(data: bytes, *, stamp: bool) -> TipValue:
    """The actual decoder over exact ``bytes``.

    With *stamp* true, the input blob is recorded as the value's
    canonical encoding for every type whose codec is bijective —
    Chronon, Span, Instant, Period.  Element blobs are stamped only when
    :func:`_canonical_pairs` verifies them canonical: the Element
    constructor normalizes (sorts/coalesces) its periods, so a
    hand-crafted non-canonical blob decodes to a value whose canonical
    encoding differs from the input.
    """
    if len(data) < 3:
        raise CodecError("blob too short for a TIP header")
    if data[0] != MAGIC:
        raise CodecError(f"bad magic byte 0x{data[0]:02x}")
    if data[1] != VERSION:
        raise CodecError(f"unsupported format version {data[1]}")
    tag = data[2]
    body = 3
    if tag == _TAG_CHRONON:
        value = _build(Chronon, _unpack_u64(data, body, expected_end=True) - _BIAS_SECONDS)
    elif tag == _TAG_SPAN:
        value = _build(Span, _unpack_u64(data, body, expected_end=True) - _BIAS_SPAN)
    elif tag == _TAG_INSTANT:
        value, end = _decode_instant_body(data, body)
        _check_consumed(data, end)
    elif tag == _TAG_PERIOD:
        start, offset = _decode_instant_body(data, body)
        end_instant, offset = _decode_instant_body(data, offset)
        _check_consumed(data, offset)
        value = _build_period(start, end_instant)
    elif tag == _TAG_ELEMENT:
        try:
            (count,) = _U32.unpack_from(data, body)
        except struct.error as exc:
            raise CodecError("truncated element count") from exc
        offset = body + _U32.size
        pairs = _canonical_pairs(data, offset, count)
        if pairs is None:
            periods = []
            for _ in range(count):
                start, offset = _decode_instant_body(data, offset)
                end_instant, offset = _decode_instant_body(data, offset)
                periods.append(_build_period(start, end_instant))
            _check_consumed(data, offset)
            return Element(periods)  # normalized, so never blob-stamped here
        # Verified canonical: encoding the element reproduces the blob
        # byte-for-byte, so the stamp below is safe.
        value = Element._from_canonical_pairs(pairs)
    else:
        raise CodecError(f"unknown type tag 0x{tag:02x}")
    if stamp:
        value._tip_blob = data
    return value


def _canonical_pairs(data: bytes, offset: int, count: int):
    """The pairs of a canonical all-determinate element payload, or None.

    Unpacks every instant body in a single struct call and validates
    the pairs inline.  None means anything else — NOW-relative flavors,
    out-of-calendar bounds, inverted or non-canonical pair lists, short
    payloads or trailing bytes — which the per-period object path of
    :func:`decode` then handles (normalizing or raising).
    """
    if len(data) != offset + count * 2 * _INSTANT.size:
        return None
    fields = struct.unpack_from(">" + "BQ" * (2 * count), data, offset)
    lo_bound, hi_bound = granularity.MIN_SECONDS, granularity.MAX_SECONDS
    pairs = []
    prev_hi = None
    for at in range(0, 4 * count, 4):
        if fields[at] or fields[at + 2]:
            return None  # NOW-relative or unknown flavor
        lo = fields[at + 1] - _BIAS_SECONDS
        hi = fields[at + 3] - _BIAS_SECONDS
        if lo > hi or lo < lo_bound or hi > hi_bound:
            return None
        if prev_hi is not None and lo <= prev_hi + 1:
            return None  # out of order, overlapping, or adjacent
        prev_hi = hi
        pairs.append((lo, hi))
    return pairs


_ELEMENT_HEADER = bytes((MAGIC, VERSION, _TAG_ELEMENT))


def ground_elements(blobs: Sequence[Optional[bytes]], now_seconds: int
                    ) -> Tuple[List[Optional[List[Tuple[int, int]]]], int]:
    """``decode(blob).ground_pairs(now_seconds)`` for every element blob
    (None for NULL), plus how many blobs took :func:`decode`.

    The set-based kernels' one-pass grounding: a canonical
    all-determinate blob is read straight into its pairs, with no
    Element and no decode-cache traffic, so a bulk scan neither pays
    the per-value marshalling nor evicts other statements' cached
    values.  Anything else goes through :func:`decode` blob by blob, so
    results and :class:`CodecError` raises are exactly the decoder's — and
    while a fault plan is armed every blob does, so ``codec.decode``
    faults fire as they would on the naive path.
    """
    fast = _FAULTS.plan is None
    grounded: List[Optional[List[Tuple[int, int]]]] = []
    append = grounded.append
    slow = 0
    for blob in blobs:
        if blob is None:
            append(None)
            continue
        pairs = None
        if fast and blob[:3] == _ELEMENT_HEADER and len(blob) >= 7:
            pairs = _canonical_pairs(blob, 7, _U32.unpack_from(blob, 3)[0])
        if pairs is None:
            slow += 1
            value = decode(blob)
            if not isinstance(value, Element):
                raise TipTypeError(f"expected Element, got {type(value).__name__}")
            pairs = value.ground_pairs(now_seconds)
        append(pairs)
    return grounded, slow


def _build(tip_type: Type[TipValue], seconds: int) -> TipValue:
    try:
        return tip_type(seconds)
    except Exception as exc:  # out-of-range payload in a corrupted blob
        raise CodecError(f"blob encodes an invalid {tip_type.__name__}: {exc}") from exc


def _build_period(start: Instant, end: Instant) -> Period:
    try:
        return Period(start, end)
    except Exception as exc:  # inverted determinate endpoints
        raise CodecError(f"blob encodes an invalid period: {exc}") from exc


def _unpack_u64(data: bytes, offset: int, *, expected_end: bool = False) -> int:
    try:
        (value,) = _U64.unpack_from(data, offset)
    except struct.error as exc:
        raise CodecError(f"truncated payload at byte {offset}") from exc
    if expected_end:
        _check_consumed(data, offset + _U64.size)
    return value


def _check_consumed(data: bytes, end: int) -> None:
    if len(data) != end:
        raise CodecError(f"trailing garbage: blob is {len(data)} bytes, value ends at {end}")
