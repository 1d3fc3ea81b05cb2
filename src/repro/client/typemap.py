"""Customized type mapping for result sets.

The paper's TIP Browser "uses customized type mapping (a new feature in
JDBC 2.0) to retrieve values of TIP datatypes from the database and
convert them into Java objects".  :class:`TypeMap` is that mechanism:
a per-connection, user-extensible mapping applied to every value coming
out of a result set.

SQLite's declared-type converters only fire for plain column references;
values produced by *expressions* (``intersect(p1.valid, p2.valid)``)
reach the client as raw blobs.  The default map recognizes TIP blobs by
their tagged header and decodes them, so expression results surface as
proper :class:`~repro.core.element.Element` (etc.) objects too.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import codec

__all__ = ["TypeMap"]

Mapper = Callable[[object], object]


class TypeMap:
    """Maps raw result values to application objects.

    The default behaviour decodes TIP blobs; additional mappers can be
    registered either by *declared column type name* (as written in
    ``CREATE TABLE``) or as a blob fallback.
    """

    def __init__(self, *, decode_tip_blobs: bool = True) -> None:
        self._decode_tip_blobs = decode_tip_blobs
        self._by_decltype: Dict[str, Mapper] = {}

    def register(self, decltype: str, mapper: Mapper) -> None:
        """Map values of columns declared with type *decltype*."""
        self._by_decltype[decltype.upper()] = mapper

    def map_value(self, value: object, decltype: Optional[str] = None) -> object:
        """Convert one raw value."""
        if decltype:
            mapper = self._by_decltype.get(decltype.upper())
            if mapper is not None:
                return mapper(value)
        if self._decode_tip_blobs and codec.is_tip_blob(value):
            return codec.decode(bytes(value))  # type: ignore[arg-type]
        return value

    def map_row(
        self,
        row: Optional[Sequence],
        decltypes: Optional[Sequence[Optional[str]]] = None,
    ) -> Optional[Tuple]:
        """Convert one result row (None passes through, for fetchone)."""
        if row is None:
            return None
        if decltypes is None:
            return tuple(self.map_value(value) for value in row)
        return tuple(
            self.map_value(value, decltype)
            for value, decltype in zip(row, decltypes)
        )

    def map_rows(
        self,
        rows: Sequence[Sequence],
        decltypes: Optional[Sequence[Optional[str]]] = None,
        *,
        raw_tail: int = 0,
    ) -> List[Tuple]:
        """Convert a list of result rows.

        The last *raw_tail* columns of every row pass through as fetched
        (the set-based kernels ground validity blobs themselves).
        """
        if raw_tail:
            cut = -raw_tail
            heads = self.map_rows([row[:cut] for row in rows],
                                  None if decltypes is None else decltypes[:cut])
            return [head + tuple(row[cut:]) for head, row in zip(heads, rows)]
        if decltypes is None:
            # Without decltypes, map_value only ever transforms
            # bytes-like values (TIP blob detection); rows of plain
            # scalars — the overwhelming case — pass through with one
            # isinstance scan instead of a map_value call per value.
            mapped: List[Tuple] = []
            append = mapped.append
            for row in rows:
                for value in row:
                    if isinstance(value, (bytes, bytearray, memoryview)):
                        append(tuple(self.map_value(v) for v in row))
                        break
                else:
                    append(row if isinstance(row, tuple) else tuple(row))
            return mapped
        return [self.map_row(row, decltypes) for row in rows]  # type: ignore[misc]
