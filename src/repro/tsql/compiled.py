"""The compiled-statement subsystem: normalize once, translate once.

TIP's performance argument (and ROADMAP open item 1) is that an
integrated engine beats re-translating layered SQL per call — yet until
this module the stack re-ran the tSQL preprocessor and the layered
clause rewriter from scratch on every textually-identical statement.
Here a statement is **compiled once** into a :class:`CompiledStatement`
(the translated TIP SQL plus its parameter count and DDL flag) and
served from a bounded, thread-safe LRU on every later execution, so a
hot query costs a fingerprint plus parameter substitution.

**Normalization** (:func:`normalize_statement`) produces the cache
fingerprint: whitespace outside single-quoted literals collapses to
single spaces and trailing semicolons drop, while literal bodies are
preserved byte-for-byte.  The normalized text is what gets compiled, so
the cached plan is a pure function of the fingerprint — no first-seen
representative can leak one caller's spelling into another's plan.
Statements whose meaning could hinge on the collapsed characters
(``--``/``/*`` comments, double-quoted or bracketed identifiers outside
literals) are deemed *uncacheable* and compile per call, exactly as
before this module existed.

**Keying and invalidation.**  The LRU key is ``(normalized text,
temporal-table registry, generation)``.  The registry component makes
two sessions with different ``register()`` overrides never share a
plan; the process-wide *generation* is bumped by
:meth:`~repro.tsql.preprocessor.TsqlSession.rescan` (when discovery
actually changes), by ``register()``, and by every DDL statement the
server commits — so schema motion orphans every stale key at once.
Arming a fault plan (:func:`repro.faults.arm`) clears the cache and the
armed path bypasses it entirely, mirroring the PR 5 codec caches:
chaos runs translate every statement afresh and stay deterministic.
The ``stmt.cache`` injection point fires on that path.

**Observability.**  :func:`stats` feeds the ``caches`` section of obs
snapshots; :func:`stats_counters` flattens the monotonic counts to
``tsql.cache.{hit,miss,evict,invalidate}`` for metrics tables, the
Prometheus exposition, and per-query profile deltas.  Both are inert
zeros while the cache is off.

Knobs (read once at import; adjustable via :func:`configure`):

* ``TIP_STATEMENT_CACHE=0`` — disable the cache (compile per call);
* ``TIP_STATEMENT_CACHE_SIZE`` — capacity (default 256 plans).
"""

from __future__ import annotations

import os
import re
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.codec.cache import LRUCache
from repro.faults import state as _FAULTS
from repro.obs import flight as _flight
from repro.tsql import ir, preprocessor  # it imports this module: use attributes late

__all__ = [
    "CompiledStatement", "StatementCompiler", "state", "CACHE",
    "normalize_statement", "compile_statement", "compile_normalized",
    "count_params", "discover_valid_columns",
    "generation", "bump_generation", "configure", "clear_cache",
    "stats", "stats_counters", "DEFAULT_CACHE_SIZE",
]

DEFAULT_CACHE_SIZE = 256

_FALSY = frozenset({"0", "false", "off", "no", ""})


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


def _env_enabled() -> bool:
    return os.environ.get("TIP_STATEMENT_CACHE", "1").strip().lower() not in _FALSY


class CacheState:
    """The process-wide switch, read on hot paths without a lock."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = _env_enabled()


state = CacheState()

#: normalized-statement -> CompiledStatement, keyed with the registry
#: fingerprint and generation (see module docstring).
CACHE = LRUCache("statement", _env_int("TIP_STATEMENT_CACHE_SIZE", DEFAULT_CACHE_SIZE))

_GEN_LOCK = threading.Lock()
_GENERATION = 0
_INVALIDATIONS = 0

_WS_RE = re.compile(r"\s+")
#: Outside literals these make whitespace or case semantically load-bearing
#: (line comments, quoted/bracketed identifiers) — such statements are
#: compiled per call rather than risk a wrong fingerprint collision.
_UNCACHEABLE_RE = re.compile(r'--|/\*|["\[`]')
_DDL_RE = re.compile(r"^\s*(CREATE|DROP|ALTER)\b", re.IGNORECASE)


@dataclass(frozen=True)
class CompiledStatement:
    """One statement compiled through the tSQL + layered translators.

    ``statement`` is the (normalized) source text, ``sql`` the
    translated TIP SQL actually executed, ``params`` the positional
    placeholder count, ``ddl`` whether committing it must bump the
    registry generation, and ``generation`` the generation it was
    compiled under — a prepared handle whose generation has moved is
    *stale* and must be re-prepared.
    """

    statement: str
    sql: str
    params: int
    ddl: bool
    generation: int
    #: The temporal planner's matched kernel shape for ``sql`` (or None
    #: when the statement is not kernel-evaluable).  Matched once at
    #: compile time so the hot prepared path pays a single attribute
    #: load, and invalidated exactly when the plan is: this cache is
    #: generation-keyed.  Runtime vetoes (schema types, row counts,
    #: armed faults) are still checked per execution by the planner.
    shape: Optional[object] = None
    #: The translated statement's IR (None when translation passed the
    #: text through unparsed).
    select: Optional[ir.Select] = None


def normalize_statement(statement: str) -> Optional[str]:
    """The cache fingerprint of *statement*, or None when uncacheable.

    Splits on single quotes: even segments are SQL text (whitespace
    collapsed), odd segments are literal bodies (kept verbatim — a
    doubled ``''`` escape yields an empty even segment, so literal
    content stays on odd segments).  Trailing semicolons drop.  SQL
    text containing comments or quoted identifiers disqualifies the
    statement from caching entirely — collapsing a newline inside a
    ``--`` comment would change its meaning.
    """
    parts = statement.split("'")
    pieces = []
    for index, part in enumerate(parts):
        if index % 2:
            pieces.append(part)
            continue
        if _UNCACHEABLE_RE.search(part):
            return None
        pieces.append(_WS_RE.sub(" ", part))
    text = "'".join(pieces).strip()
    while text.endswith(";"):
        text = text[:-1].rstrip()
    return text


def count_params(statement: str) -> int:
    """Positional ``?`` placeholders outside single-quoted literals.

    The same count a :class:`CompiledStatement` carries; exposed so
    code generators (the linq compiler's :class:`ParamSpec`) can
    cross-check their collected slots against the emitted text.
    """
    count = 0
    for index, part in enumerate(statement.split("'")):
        if index % 2 == 0:
            count += part.count("?")
    return count



def generation() -> int:
    """The current registry generation (monotonic, process-wide)."""
    with _GEN_LOCK:
        return _GENERATION


def bump_generation() -> int:
    """Invalidate every compiled plan: schema or registry moved.

    Returns the new generation.  Old-generation keys become
    unreachable immediately; the cache is also cleared so they don't
    linger as dead weight until eviction.
    """
    global _GENERATION, _INVALIDATIONS
    with _GEN_LOCK:
        _GENERATION += 1
        _INVALIDATIONS += 1
        new_generation = _GENERATION
    CACHE.clear()
    if _flight.state.enabled:
        _flight.record("cache.stmt.invalidate", generation=new_generation)
    return new_generation


def _compile(statement: str, valid_columns: Dict[str, str], gen: int) -> CompiledStatement:
    from repro.plan import shapes  # lazy: the plan package pulls in the kernels

    sql, select = preprocessor.translate(statement, valid_columns)
    ddl = bool(_DDL_RE.match(sql))
    shape = None
    if not ddl and shapes.is_candidate(sql):
        shape = shapes.match(sql if select is None else select)
    return CompiledStatement(
        statement=statement,
        sql=sql,
        params=count_params(statement),
        ddl=ddl,
        generation=gen,
        shape=shape,
        select=select,
    )


def _cached(text: str, valid_columns: Dict[str, str]) -> CompiledStatement:
    """The compiled form of fingerprint *text*, from the LRU when present."""
    gen = generation()
    key: Tuple = (text, tuple(sorted(valid_columns.items())), gen)
    plan = CACHE.get(key)
    hit = plan is not None
    if not hit:
        plan = _compile(text, valid_columns, gen)
        CACHE.put(key, plan)
    if _flight.state.enabled:
        _flight.record("cache.stmt.hit" if hit else "cache.stmt.miss", sql=text[:120])
    return plan


def compile_statement(statement: str, valid_columns: Dict[str, str]) -> CompiledStatement:
    """Compile *statement* under *valid_columns*, served from the LRU.

    With an armed fault plan the ``stmt.cache`` point fires and the
    cache is bypassed wholesale (like the codec decode cache), so chaos
    runs observe every translation afresh and stay deterministic.  With
    the cache disabled this is exactly a per-call translation.
    """
    if _FAULTS.plan is not None:
        _FAULTS.plan.apply("stmt.cache")
    elif state.enabled:
        normalized = normalize_statement(statement)
        if normalized is not None:
            return _cached(normalized, valid_columns)
    return _compile(statement.strip(), valid_columns, generation())


def compile_normalized(statement: str, valid_columns: Dict[str, str]) -> CompiledStatement:
    """:func:`compile_statement` for **already-normalized** text.

    The linq compiler emits statements that are their own fingerprint
    (``normalize_statement(s) == s`` by construction: single spaces,
    literals via constructor calls, no comments or quoted
    identifiers), so this fast path keys the cache on the text
    directly and skips the normalization scan.  Faults and the
    disabled switch behave exactly as in :func:`compile_statement`.
    """
    if _FAULTS.plan is not None:
        _FAULTS.plan.apply("stmt.cache")
    elif state.enabled:
        return _cached(statement, valid_columns)
    return _compile(statement, valid_columns, generation())


def discover_valid_columns(connection) -> Dict[str, str]:
    """Validity columns auto-discovered from sqlite_master.

    The first column declared ``ELEMENT`` per table, lower-cased table
    name as the key — the same rule :class:`TsqlSession` applies.
    """
    discovered: Dict[str, str] = {}
    rows = connection.query(
        "SELECT name, sql FROM sqlite_master WHERE type = 'table' AND sql IS NOT NULL"
    )
    for name, ddl in rows:
        valid = [column for column, decltype, _ in ir.columns(ddl or "")
                 if decltype.upper() == "ELEMENT"]
        if valid:
            discovered.setdefault(name.lower(), valid[0])
    return discovered


class StatementCompiler:
    """Schema-aware compile front for a server process (thread-safe).

    Owns the discovered validity-column registry for one database and
    re-discovers it lazily whenever the generation has moved (a DDL
    commit bumps it), so every handler thread compiles against the
    current schema without rescanning per statement.
    """

    def __init__(self, connection) -> None:
        self._connection = connection
        self._lock = threading.Lock()
        self._valid_columns: Dict[str, str] = {}
        self._scanned_generation = -1

    def valid_columns(self) -> Dict[str, str]:
        """The registry, rescanned iff the generation moved."""
        gen = generation()
        with self._lock:
            if self._scanned_generation != gen:
                self._valid_columns = discover_valid_columns(self._connection)
                self._scanned_generation = gen
            return dict(self._valid_columns)

    def compile(self, statement: str) -> CompiledStatement:
        return compile_statement(statement, self.valid_columns())


def configure(*, enabled: Optional[bool] = None, size: Optional[int] = None) -> None:
    """Adjust the statement-cache knobs at runtime.

    Disabling also clears the cache, so re-enabling starts cold and the
    inert-when-off guarantee ("a disabled cache stays empty") holds
    regardless of prior history.
    """
    if size is not None:
        CACHE.resize(size)
    if enabled is not None:
        state.enabled = enabled
        if not enabled:
            CACHE.clear()


def clear_cache(reset_stats: bool = False) -> None:
    """Drop every compiled plan; optionally zero the stats.

    Plans are pure translations, so clearing affects only future hit
    ratios, never results.  Called by :func:`repro.faults.arm`.
    """
    global _INVALIDATIONS
    CACHE.clear(reset_stats=reset_stats)
    if reset_stats:
        with _GEN_LOCK:
            _INVALIDATIONS = 0


def stats() -> Dict:
    """The cache stats plus switch and generation, as plain data."""
    snap = CACHE.stats()
    with _GEN_LOCK:
        snap["invalidations"] = _INVALIDATIONS
        snap["generation"] = _GENERATION
    snap["enabled"] = state.enabled
    return snap


def stats_counters() -> Dict[str, int]:
    """The monotonic stats as flat ``tsql.cache.*`` counter names.

    Merged into metrics snapshots, the Prometheus exposition, and
    :class:`~repro.obs.profile.QueryProfile` registry diffs, so
    statement-cache traffic is visible wherever codec cache traffic is.
    """
    snap = CACHE.stats()
    with _GEN_LOCK:
        invalidations = _INVALIDATIONS
    return {
        "tsql.cache.hit": snap["hits"],
        "tsql.cache.miss": snap["misses"],
        "tsql.cache.evict": snap["evictions"],
        "tsql.cache.invalidate": invalidations,
    }
