"""The temporal query planner: route matched shapes to the kernels.

Sits between tSQL translation and SQLite execution.  For each
translated statement the planner decides — visibly, via ``EXPLAIN
TEMPORAL`` and the ``plan.*`` counters — whether to evaluate it with a
set-based kernel (:mod:`repro.plan.kernels`) or to leave it on the
naive UDF path.  The naive path is always correct, so every decision
here is allowed to say "no": unmatched shapes, TIP-typed comparison
columns, comparisons SQLite would run under a type conversion or a
non-BINARY collation, inputs below the row threshold, an active
profiler, or an armed fault plan that does not target ``plan.kernel``
all fall back.

Shape matching happens once per compiled statement: the statement
cache stamps the matched shape onto
:attr:`repro.tsql.compiled.CompiledStatement.shape`, and because that
cache is generation-keyed, any DDL or registry change that invalidates
prepared statements invalidates kernel plans with it; callers without
a compiled statement match per call.  Schema lookups (``PRAGMA
table_info`` and the table's ``CREATE TABLE`` text) are cached per
connection under the same generation key.

Knobs: ``TIP_KERNEL=0`` disables the planner process-wide,
``TIP_KERNEL_MIN_ROWS`` (default 256) sets the bigger-side row count
below which bulk fetching cannot beat SQLite's own loop; both are
adjustable at runtime via :func:`configure`.
"""

from __future__ import annotations

import gc
import os
import weakref
from typing import Dict, List, Optional, Tuple

from repro.core.nowctx import bind_now_seconds, reset_now
from repro.errors import TipError
from repro.faults import state as _FAULTS
from repro.obs import flight as _flight
from repro.obs.profile import state as _PROFILE
from repro.obs.registry import get_registry as _obs_registry
from repro.obs.registry import state as _obs_state
from repro.plan import kernels, shapes
from repro.plan.kernels import KernelResult
from repro.plan.shapes import Operand, is_candidate
from repro.tsql import compiled, ir

__all__ = [
    "state", "configure", "is_candidate", "maybe_execute_kernel",
    "describe", "clear_caches", "DEFAULT_MIN_ROWS",
]

DEFAULT_MIN_ROWS = 256

#: Declared types whose storage is TIP-encoded: comparing or grouping
#: on them in Python would diverge from the blade's semantics, so any
#: such column in a residual/key position vetoes the kernel.
TIP_DECLTYPES = frozenset(
    {"ELEMENT", "PERIOD", "CHRONON", "SPAN", "INSTANT"}
)


def _env_enabled() -> bool:
    return os.environ.get("TIP_KERNEL", "1").strip().lower() not in (
        "0", "false", "no", "off",
    )


def _env_min_rows() -> int:
    raw = os.environ.get("TIP_KERNEL_MIN_ROWS", "")
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_MIN_ROWS


class PlanState:
    """Process-wide planner switches, read per statement without a lock."""

    __slots__ = ("enabled", "min_rows")

    def __init__(self) -> None:
        self.enabled = _env_enabled()
        self.min_rows = _env_min_rows()


state = PlanState()

#: What ``EXPLAIN TEMPORAL`` says for each schema veto.
_VETO_REASONS = {
    "schema": "column types outside kernel support",
    "affinity": "compared column types differ in affinity",
    "collation": "non-BINARY collation on a compared column",
}

#: connection -> (generation, {table: {column: (decltype, collation)}}).
_SCHEMA_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def configure(
    *,
    enabled: Optional[bool] = None,
    min_rows: Optional[int] = None,
) -> None:
    """Adjust the planner knobs at runtime (used by benches and tests)."""
    if enabled is not None:
        state.enabled = enabled
    if min_rows is not None:
        state.min_rows = max(0, min_rows)


def clear_caches() -> None:
    """Drop the cached table schemas (tests and benchmark set-ups)."""
    _SCHEMA_CACHE.clear()


# -- decision pipeline --------------------------------------------------


def _count(value_name: str) -> None:
    if _obs_state.enabled:
        _obs_registry().counter(value_name).inc()


def _fallback(reason: str) -> None:
    _count(f"plan.fallback.{reason}")
    if _flight.state.enabled:
        _flight.record("plan.fallback", reason=reason)


#: SQLite's affinity rules (datatype3, 3.1): the first fragment found in
#: the declared type decides; no type at all is BLOB, no match NUMERIC.
_AFFINITY_RULES = (("INT", "INTEGER"), ("CHAR", "TEXT"), ("CLOB", "TEXT"),
                   ("TEXT", "TEXT"), ("BLOB", "BLOB"), ("REAL", "REAL"),
                   ("FLOA", "REAL"), ("DOUB", "REAL"))


def _affinity(decltype: str) -> str:
    return next((affinity for fragment, affinity in _AFFINITY_RULES
                 if fragment in decltype), "NUMERIC" if decltype else "BLOB")


def _table_schema(connection, table: str) -> Optional[Dict[str, Tuple[str, str]]]:
    """``{column: (DECLTYPE, collation)}`` for *table* (generation-cached),
    or None; the collation is "" for BINARY, SQLite's default."""
    generation = compiled.generation()
    cached = _SCHEMA_CACHE.get(connection)
    if cached is None or cached[0] != generation:
        cached = (generation, {})
        _SCHEMA_CACHE[connection] = cached
    tables = cached[1]
    if table not in tables:
        try:
            rows = connection.query(f"PRAGMA table_info({table})")
            ddl = connection.query_one(
                "SELECT sql FROM sqlite_master WHERE type = 'table' "
                "AND name = ? COLLATE NOCASE", (table,))
        except Exception:
            rows, ddl = [], None
        collations = {name.lower(): collation
                      for name, _decltype, collation in ir.columns(ddl[0] if ddl else "")}
        tables[table] = {
            str(row[1]): ((str(row[2]) if row[2] is not None else "").upper(),
                          collations.get(str(row[1]).lower(), ""))
            for row in rows
        }
    schema = tables[table]
    return schema or None


def _schema_veto(connection, shape) -> Optional[str]:
    """Why *shape* cannot run on a kernel over this schema, or None:
    ``schema`` (a column is missing, or a key, residual or GROUP BY
    column is TIP-typed), ``collation`` (such a column is not BINARY),
    or ``affinity`` (compared columns differ in affinity, or a literal's
    storage class differs from its column's: SQLite would convert one
    side first, the kernels compare values as stored)."""
    if shape.kind == "join":
        schemas = {shape.left_alias: _table_schema(connection, shape.left_table),
                   shape.right_alias: _table_schema(connection, shape.right_table)}
        validity = [(shape.left_alias, shape.left_valid),
                    (shape.right_alias, shape.right_valid)]
        pairs = [(Operand("col", shape.left_alias, left),
                  Operand("col", shape.right_alias, right))
                 for left, right in shape.equalities]
        conditions, grouped = shape.cross + shape.left_filters + shape.right_filters, []
        outputs = shape.outputs
    else:
        schema = _table_schema(connection, shape.table)
        schemas = {shape.alias: schema, "": schema}
        validity = [(shape.alias, shape.agg_column)]
        pairs, conditions = [], shape.filters
        grouped = [Operand("col", "", column) for column in shape.group_by]
        outputs = ()  # a subset of the GROUP BY columns
    if None in schemas.values() \
            or any(schemas[alias].get(column, ("",))[0] != "ELEMENT"
                   for alias, column in validity) \
            or any(output.column not in schemas[output.alias] for output in outputs):
        return "schema"
    pairs += [(condition.left, condition.right) for condition in conditions]
    columns = grouped + [op for pair in pairs for op in pair if op.kind == "col"]
    declared = [schemas[op.alias].get(op.column) for op in columns]
    if any(column is None or column[0] in TIP_DECLTYPES for column in declared):
        return "schema"
    if any(collation for _decltype, collation in declared):
        return "collation"
    for left, right in pairs:
        affinity = _affinity(schemas[left.alias][left.column][0])
        if right.kind == "col":
            if _affinity(schemas[right.alias][right.column][0]) != affinity:
                return "affinity"
        elif affinity != "BLOB" and isinstance(right.value, str) != (affinity == "TEXT"):
            return "affinity"
    return None


def _input_counts(connection, shape) -> List[int]:
    if shape.kind == "join":
        tables = [shape.left_table, shape.right_table]
    else:
        tables = [shape.table]
    counts = []
    for table in tables:
        row = connection.query_one(f"SELECT COUNT(*) FROM {table}")
        counts.append(int(row[0]) if row else 0)
    return counts


def maybe_execute_kernel(
    connection, sql: str, shape=None
) -> Optional[KernelResult]:
    """Evaluate *sql* with a kernel, or return None to run it naively.

    *connection* is the :class:`~repro.client.connection.TipConnection`
    the statement would otherwise run on (locally the session's own,
    on the server the checked-out pool reader), so reads stay inside
    the caller's transaction/snapshot scope.

    *shape* is the compile-time matched shape when the caller already
    carries it (:attr:`repro.tsql.compiled.CompiledStatement.shape` —
    the hot prepared path, where re-matching per call would cost more
    than the statement); left None, *sql* is matched here.  Runtime
    vetoes (armed faults, profiler, schema, row counts) apply either way.
    """
    if not state.enabled:
        return None
    if shape is None and not is_candidate(sql):
        return None
    armed = _FAULTS.plan
    if armed is not None and not any(
        rule.point == "plan.kernel" for rule in armed.rules
    ):
        # A chaos plan aimed elsewhere: keep the run on the exact same
        # code path it exercised before the planner existed.
        _fallback("faults")
        return None
    if _PROFILE.enabled or _PROFILE.forced:
        # The profiler reports blade-routine work; a kernel run would
        # show an empty profile for a query that did real work.
        _fallback("profiler")
        return None
    if shape is None:
        shape = shapes.match(sql)
    if shape is None:
        _fallback("shape")
        return None
    veto = _schema_veto(connection, shape)
    if veto is not None:
        _fallback(veto)
        return None
    if max(_input_counts(connection, shape)) < state.min_rows:
        _fallback("small")
        return None
    if armed is not None:
        # The dedicated injection point: fires before the bulk fetch,
        # so a raise leaves the connection with nothing to roll back.
        armed.apply("plan.kernel")
    now_seconds = connection.statement_now_seconds()
    token = bind_now_seconds(now_seconds)
    # Kernels allocate result rows in bulk and drop nothing cyclic;
    # pausing the collector keeps generation scans from re-walking the
    # growing result list (reference counting still frees everything).
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        if shape.kind == "join":
            result = kernels.execute_join(connection, shape, now_seconds)
            _count("plan.kernel.join")
            if _obs_state.enabled:
                _obs_registry().counter("plan.join.candidates").add(
                    result.stats.get("candidates", 0)
                )
        else:
            result = kernels.execute_coalesce(connection, shape, now_seconds)
            _count("plan.kernel.coalesce")
    finally:
        reset_now(token)
        if gc_was_enabled:
            gc.enable()
    if _flight.state.enabled:
        _flight.record(
            "plan.kernel", shape=shape.kind, strategy=result.strategy,
            rows=len(result.rows), **result.stats,
        )
    return result


def describe(connection, sql: str) -> Dict[str, object]:
    """The planner's decision for *sql*, without executing anything.

    Powers the ``temporal strategy:`` line of ``EXPLAIN TEMPORAL``.
    """
    if not state.enabled:
        return {"strategy": "naive", "reason": "planner disabled"}
    if not is_candidate(sql):
        return {"strategy": "naive", "reason": "no set-evaluable operator"}
    shape = shapes.match(sql)
    if shape is None:
        return {"strategy": "naive", "reason": "statement shape not matched"}
    veto = _schema_veto(connection, shape)
    if veto is not None:
        return {"strategy": "naive", "reason": _VETO_REASONS[veto]}
    try:
        counts = _input_counts(connection, shape)
    except TipError:
        counts = []
    if not counts or max(counts) < state.min_rows:
        return {
            "strategy": "naive",
            "reason": f"input below threshold ({state.min_rows} rows)",
        }
    if shape.kind == "join":
        kernel = "hash" if shape.equalities else "interval-sweep"
        tables = [shape.left_table, shape.right_table]
    else:
        kernel = "sweep"
        tables = [shape.table]
    return {
        "strategy": "kernel", "shape": shape.kind, "kernel": kernel,
        "tables": tables, "rows": counts,
    }
