"""The TSQL2 statement-modifier preprocessor.

Supported statement forms (a documented, restricted subset — enough to
express TSQL2's three evaluation modes over select-from-where blocks):

* ``SNAPSHOT [AT '<instant>'] SELECT ... FROM ... [WHERE ...]`` —
  *snapshot* semantics: the query sees the database as of one time
  point (default ``NOW``); timestamps disappear from the result.
* ``VALIDTIME [PERIOD '[a, b]'] SELECT ... FROM ... [WHERE ...]`` —
  *sequenced* semantics: the result holds wherever **all** operand
  tuples hold simultaneously, and carries that time as a trailing
  ``valid`` column (optionally clipped to the stated period).
* ``NONSEQUENCED VALIDTIME SELECT ...`` — timestamps are ordinary
  attributes; the statement passes through unchanged.

Restrictions (violations raise :class:`TranslationError`, carrying the
offending clause text and its character offset): the FROM list must be
plain ``table [AS] alias`` items — optionally grouped in parentheses,
as the linq query compiler emits (``FROM (Prescription AS p, Patient
AS q)``) — with no subqueries or JOIN syntax, and sequenced
(``VALIDTIME``) statements cannot use GROUP BY — sequenced aggregation
needs instant-by-instant group semantics that plain SQL cannot express
(use TIP's ``group_union`` family directly).

Temporal tables are detected from the schema: any column declared with
type ``ELEMENT`` is a validity column (the first one per table is
used); non-temporal tables in the FROM list simply contribute no
validity.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.client.connection import TipConnection
from repro.errors import TranslationError
from repro.tsql import compiled, ir

__all__ = ["TsqlSession", "translate", "translate_tsql", "split_select", "strip_explain"]

_EXPLAIN_RE = re.compile(
    r"^\s*EXPLAIN\s+TEMPORAL\s+(?P<rest>\S.*)$",
    re.IGNORECASE | re.DOTALL,
)


def strip_explain(statement: str) -> Optional[str]:
    """The statement under an ``EXPLAIN TEMPORAL`` prefix, or None.

    ``EXPLAIN TEMPORAL <sql>`` is TIP's per-query cost surface: the
    wrapped statement (TSQL2 modifiers included) is run under both the
    integrated blade engine and a layered TimeDB-style mirror, and the
    two profiles are reported side by side
    (:mod:`repro.tsql.explain`).  This helper only recognizes and
    strips the prefix, so the shell and CLI can route the statement.
    """
    match = _EXPLAIN_RE.match(statement)
    return match["rest"].strip() if match else None


def split_select(sql: str) -> ir.Select:
    """*sql* (a plain SELECT) parsed; the clause texts are its
    ``select_list``, ``from_list``, ``where`` and ``tail``."""
    select = ir.parse(sql)
    if select.modifier:
        raise TranslationError("statement must start with SELECT")
    return select


def _table_pairs(items: Sequence[ir.Node]) -> List[Tuple[str, str]]:
    """``(table, alias)`` pairs of FROM items; the first item that is not
    ``table [AS] alias`` raises, with its text and offset."""
    for item in items:
        if item.kind != "table":
            raise TranslationError(
                f"unsupported FROM item {item.text!r} at offset {item.start} "
                "(plain 'table [AS] alias' items, optionally parenthesized)",
                clause=item.text,
                offset=item.start,
            )
    return [(item.name, item.alias) for item in items]


def _parse_from_items(from_list: str) -> List[Tuple[str, str]]:
    """``(table, alias)`` pairs of a FROM list (groups flattened)."""
    return _table_pairs(ir.from_items(from_list))


def _call(name: str, *args: ir.Node) -> ir.Node:
    """``name(args)`` as translation adds it (offset -1)."""
    return ir.Node("call", f"{name}({', '.join(arg.text for arg in args)})", -1,
                   name=name, args=args)


def translate(
    statement: str,
    valid_columns: Dict[str, str],
) -> Tuple[str, Optional[ir.Select]]:
    """:func:`translate_tsql` plus the translated statement's IR (None
    when the text passes through unparsed: no modifier, or NONSEQUENCED)."""
    modifier, period, select_at = ir.modifier(statement)
    if not modifier:
        return statement.strip(), None
    if modifier == "NONSEQUENCED VALIDTIME":
        return statement[select_at:].strip(), None

    select = ir.parse(statement)
    validities = [
        ir.Node("col", f"{alias}.{valid_columns[table.lower()]}", -1,
                name=valid_columns[table.lower()], qualifier=alias)
        for table, alias in _table_pairs(select.from_items)
        if table.lower() in valid_columns
    ]

    if modifier == "SNAPSHOT":
        at = period or "NOW"
        instant = _call("instant", ir.Node("lit", f"'{at}'", -1, value=at))
        translated = select.translated(
            conjuncts=[_call("contains_instant", v, instant) for v in validities])
        return translated.sql(), translated

    # VALIDTIME (sequenced).
    if "GROUP BY" in select.clauses or "HAVING" in select.clauses:
        raise TranslationError(
            "sequenced (VALIDTIME) aggregation is not expressible in this subset; "
            "use TIP's group_union/group_intersect aggregates directly",
            clause=select.tail,
            offset=select.offsets[1],
        )
    if not validities:
        raise TranslationError(
            "VALIDTIME requires at least one temporal table in FROM",
            clause=select.from_list,
            offset=select.offsets[0],
        )

    validity = validities[0]
    for v in validities[1:]:
        validity = _call("tintersect", validity, v)
    conjuncts = [
        _call("overlaps", a, b)
        for i, a in enumerate(validities)
        for b in validities[i + 1:]
    ]
    if period:
        window = _call("period", ir.Node("lit", f"'[{period}]'", -1, value=f"[{period}]"))
        validity = _call("restrict", validity, window)
        conjuncts.extend(
            _call("overlaps", v, _call("to_element", window)) for v in validities
        )
    translated = select.translated(items=[validity._replace(alias="valid")],
                                   conjuncts=conjuncts)
    return translated.sql(), translated


def translate_tsql(
    statement: str,
    valid_columns: Dict[str, str],
) -> str:
    """Rewrite one TSQL2-modified statement into TIP SQL.

    *valid_columns* maps (lower-cased) temporal table names to their
    validity column.  A statement without a modifier passes through
    unchanged.
    """
    return translate(statement, valid_columns)[0]


class TsqlSession:
    """Execute TSQL2-modified statements on a TIP connection.

    Validity columns are auto-discovered from the schema (first column
    declared ``ELEMENT`` per table); :meth:`register` overrides or adds
    mappings explicitly.  Discovered and registered mappings are kept
    apart so :meth:`rescan` can *drop* a mapping whose table lost its
    validity column (or was dropped outright) without clobbering
    explicit registrations — previously a stale discovery stuck forever
    and a re-created table kept its old validity column.

    Translation runs through the process-wide compiled-statement cache
    (:mod:`repro.tsql.compiled`): any change to the effective registry
    bumps the cache generation, so a plan compiled before a table
    gained (or lost) its valid-time column is never served after.
    """

    def __init__(self, connection: TipConnection) -> None:
        self._connection = connection
        self._discovered: Dict[str, str] = {}
        self._overrides: Dict[str, str] = {}
        self._merged: Dict[str, str] = {}
        self.rescan()

    def rescan(self) -> None:
        """Re-discover temporal tables from sqlite_master.

        Replaces (not merges) the discovered mapping; the compiled
        cache generation is bumped only when discovery actually
        changed, so sessions opening against an unchanged schema keep
        every cached plan warm.
        """
        discovered = compiled.discover_valid_columns(self._connection)
        if discovered != self._discovered:
            self._discovered = discovered
            self._merged = {**self._discovered, **self._overrides}
            compiled.bump_generation()

    def register(self, table: str, valid_column: str) -> None:
        """Explicitly declare *table*'s validity column."""
        key = table.lower()
        if self._overrides.get(key) != valid_column:
            self._overrides[key] = valid_column
            self._merged = {**self._discovered, **self._overrides}
            compiled.bump_generation()

    @property
    def temporal_tables(self) -> Dict[str, str]:
        return dict(self._merged)

    def compile(self, statement: str) -> "compiled.CompiledStatement":
        """The statement's compiled form, served from the LRU."""
        return compiled.compile_statement(statement, self._merged)

    def translate(self, statement: str) -> str:
        """Rewrite without executing (for inspection and tests)."""
        return self.compile(statement).sql

    def query(self, statement: str, parameters: Sequence = ()) -> List[Tuple]:
        """Translate and execute, returning type-mapped rows.

        A committed DDL statement triggers a :meth:`rescan`, so a table
        gaining or losing its valid-time column is picked up (and the
        compiled cache invalidated) without the caller remembering to.

        Translated statements the temporal planner fully understands
        run on its set-based kernels (:mod:`repro.plan`) instead of the
        UDF path; the planner returns None for anything else — same
        rows either way, so callers never see the difference except in
        ``EXPLAIN TEMPORAL`` and the ``plan.*`` counters.
        """
        plan = self.compile(statement)
        if plan.shape is not None and not parameters:
            # The shape was matched at compile time; statements without
            # one (the vast majority) skip the planner entirely here.
            from repro.plan import planner  # lazy: it pulls in the kernels

            result = planner.maybe_execute_kernel(
                self._connection, plan.sql, shape=plan.shape
            )
            if result is not None:
                return result.rows
        rows = self._connection.query(plan.sql, parameters)
        if plan.ddl:
            self.rescan()
        return rows
