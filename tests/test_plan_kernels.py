"""The temporal query planner and its set-based kernels.

The naive UDF path is the semantics oracle: every kernel strategy
(hash / merge / tree joins, the vectorized hash emit, the sweep
coalesce) is held **differentially equal** to the same statement run
with the planner disabled, over hypothesis-generated tables that
include NOW-relative and multi-period elements.  The behavioural half
covers the planner's visible surface: fallback reasons and counters,
``EXPLAIN TEMPORAL``'s strategy line, flight events, generation-keyed
plan invalidation, and the kernel path on the server's reader pool.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import obs, plan
from repro.core.element import Element
from repro.obs import flight
from repro.obs.export import render_prometheus
from repro.plan import kernels
from repro.server import RemoteTipConnection, TipServer
from repro.tsql import TsqlSession
from repro.tsql import compiled as stmt_cache
from repro.tsql.explain import explain_temporal
from tests.conftest import DEMO_NOW, E
from tests.strategies import chronons, elements

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

HASH_Q = ("VALIDTIME SELECT l.k, r.k FROM L AS l, R AS r "
          "WHERE l.k = r.k")
MERGE_Q = ("VALIDTIME SELECT l.k, r.k FROM L AS l, R AS r "
           "WHERE l.k < r.k")
WINDOW_Q = ("VALIDTIME PERIOD '1999-02-01, 1999-10-31' "
            "SELECT l.k, r.k FROM L AS l, R AS r WHERE l.k = r.k")
COALESCE_Q = ("SELECT k, length_seconds(group_union(valid)) "
              "FROM L GROUP BY k")


@contextmanager
def _forced():
    """Planner on with no row threshold; restored afterwards."""
    min_rows_before = plan.state.min_rows
    enabled_before = plan.state.enabled
    plan.configure(enabled=True, min_rows=0)
    try:
        yield
    finally:
        plan.configure(enabled=enabled_before, min_rows=min_rows_before)


@pytest.fixture
def forced_planner():
    with _forced():
        yield


def _load(connection, table, rows):
    connection.execute(f"CREATE TABLE {table} (k INTEGER, valid ELEMENT)")
    connection.executemany(
        f"INSERT INTO {table} VALUES (?, ?)", rows
    )
    connection.commit()


def _canon(rows, elem_at=None):
    """Rows as a sortable multiset; elements grounded structurally."""
    out = []
    for row in rows:
        key = list(row)
        if elem_at is not None:
            element = key[elem_at]
            key[elem_at] = (
                tuple(element.ground_pairs(0)) if element is not None else None
            )
        out.append(tuple(key))
    return sorted(out)


def _both_ways(session, query):
    """(naive rows, kernel rows) for *query* on *session*."""
    plan.configure(enabled=False)
    try:
        naive = session.query(query)
    finally:
        plan.configure(enabled=True, min_rows=0)
    return naive, session.query(query)


small_tables = st.lists(
    st.tuples(st.integers(0, 4), elements(max_periods=3)),
    min_size=0, max_size=8,
)


#: The oracle over SQLite's own comparison semantics: declared types of
#: every affinity, explicit collations, numeric-looking text and NULLs.
DECLTYPES = ("INTEGER", "TEXT", "REAL", "NUMERIC", "")
COLLATIONS = ("", "", " COLLATE BINARY", " COLLATE NOCASE", " COLLATE RTRIM")
typed_keys = st.one_of(
    st.integers(0, 4),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.sampled_from(["1", "01", "1.0", " 1", "2", "a", "A", "a ", "b"]),
    st.none(),
)


@st.composite
def typed_table_pairs(draw, left_rows=(0, 8), right_rows=(0, 8)):
    """Two ``(column definition, rows)`` tables whose key columns share
    a declared type more often than chance, so kernels run too."""
    left_type = draw(st.sampled_from(DECLTYPES))
    right_type = draw(st.sampled_from((left_type,) * 3 + DECLTYPES))
    tables = []
    for decltype, (low, high) in ((left_type, left_rows), (right_type, right_rows)):
        column = f"k {decltype}{draw(st.sampled_from(COLLATIONS))}"
        rows = draw(st.lists(st.tuples(typed_keys, elements(max_periods=3)),
                             min_size=low, max_size=high))
        tables.append((column, rows))
    return tables


def _load_typed(connection, tables):
    for name, (column, rows) in zip(("L", "R"), tables):
        connection.execute(f"CREATE TABLE {name} ({column}, valid ELEMENT)")
        connection.executemany(f"INSERT INTO {name} VALUES (?, ?)", rows)
    connection.commit()


def _multiset(rows, elem_at=None):
    """Rows as a multiset, elements grounded; 1 and 1.0 count as one
    value, as they do in SQLite.  (Sorting would fail on mixed types.)"""
    return Counter(
        tuple(tuple(value.ground_pairs(0)) if at == elem_at and value is not None
              else value for at, value in enumerate(row))
        for row in rows
    )


TYPED_JOINS = {
    "hash": HASH_Q,
    "merge": MERGE_Q,
    "windowed": WINDOW_Q,
    "filtered": HASH_Q + " AND l.k <> '1' AND r.k < 3",
}
TYPED_COALESCE = ("SELECT k, length_seconds(group_union(valid)) FROM L "
                  "WHERE k >= 1 GROUP BY k")


class TestTypedDifferential:
    """Kernel results == naive results under mixed declared types,
    collations, numeric-looking text and NULL keys: the planner must
    veto whatever the kernels would compare differently from SQLite."""

    @pytest.mark.parametrize("query", sorted(TYPED_JOINS))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tables=typed_table_pairs())
    def test_joins(self, forced_planner, query, tables):
        with repro.connect(now=DEMO_NOW) as connection:
            _load_typed(connection, tables)
            naive, kernel = _both_ways(TsqlSession(connection), TYPED_JOINS[query])
            assert _multiset(naive, 2) == _multiset(kernel, 2)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tables=typed_table_pairs(left_rows=(1, 2),
                                    right_rows=(2 * kernels.TREE_SKEW, 24)))
    def test_skewed_join(self, forced_planner, tables):
        with repro.connect(now=DEMO_NOW) as connection:
            _load_typed(connection, tables)
            naive, kernel = _both_ways(TsqlSession(connection), MERGE_Q)
            assert _multiset(naive, 2) == _multiset(kernel, 2)

    @pytest.mark.parametrize("query", [COALESCE_Q, TYPED_COALESCE])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tables=typed_table_pairs())
    def test_coalesce(self, forced_planner, query, tables):
        with repro.connect(now=DEMO_NOW) as connection:
            _load_typed(connection, tables)
            naive, kernel = _both_ways(TsqlSession(connection), query)
            assert _multiset(naive) == _multiset(kernel)


SPAN = "{[1999-01-01, 1999-06-01]}"


@pytest.mark.parametrize("left, right, query, reason, expected", [
    ("k TEXT", "k INTEGER", HASH_Q, "affinity", 400),
    ("k TEXT COLLATE NOCASE", "k TEXT", HASH_Q, "collation", 400),
    ("k INTEGER", "k TEXT", MERGE_Q, "affinity", 400 * 399 // 2),
], ids=["text=integer", "nocase=text", "integer<text"])
def test_mixed_affinity_and_collation_keys_veto_the_kernel(
    forced_planner, left, right, query, reason, expected
):
    """The three wrong-answer cases at 400 rows per side: SQLite converts
    the TEXT side to a number (numeric affinity) or folds case (the left
    column's NOCASE) before comparing, so the planner must leave them on
    the naive path."""
    def keys(column):
        if "NOCASE" in left:
            return [f"{'KEY' if 'NOCASE' in column else 'key'}{at}" for at in range(400)]
        return [at if "INTEGER" in column else str(at) for at in range(400)]

    with repro.connect(now=DEMO_NOW) as connection:
        _load_typed(connection, [
            (column, [(key, E(SPAN)) for key in keys(column)])
            for column in (left, right)
        ])
        session = TsqlSession(connection)
        with obs.capture():
            naive, kernel = _both_ways(session, query)
            counters = obs.snapshot()["counters"]
        assert counters.get(f"plan.fallback.{reason}") == 1
        assert "plan.kernel.join" not in counters
        assert len(naive) == expected
        assert _multiset(naive, 2) == _multiset(kernel, 2)
        description = plan.describe(connection, session.translate(query))
        assert description["strategy"] == "naive"
        assert reason in description["reason"]


class TestDifferential:
    """Kernel results == naive results, as multisets, per strategy."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(left=small_tables, right=small_tables)
    def test_hash_join(self, forced_planner, left, right):
        with repro.connect(now=DEMO_NOW) as connection:
            _load(connection, "L", left)
            _load(connection, "R", right)
            session = TsqlSession(connection)
            naive, kernel = _both_ways(session, HASH_Q)
            assert _canon(naive, 2) == _canon(kernel, 2)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(left=small_tables, right=small_tables)
    def test_merge_join(self, forced_planner, left, right):
        with repro.connect(now=DEMO_NOW) as connection:
            _load(connection, "L", left)
            _load(connection, "R", right)
            session = TsqlSession(connection)
            naive, kernel = _both_ways(session, MERGE_Q)
            assert _canon(naive, 2) == _canon(kernel, 2)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(left=small_tables, right=small_tables)
    def test_windowed_join(self, forced_planner, left, right):
        with repro.connect(now=DEMO_NOW) as connection:
            _load(connection, "L", left)
            _load(connection, "R", right)
            session = TsqlSession(connection)
            naive, kernel = _both_ways(session, WINDOW_Q)
            assert _canon(naive, 2) == _canon(kernel, 2)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=small_tables)
    def test_coalesce(self, forced_planner, rows):
        with repro.connect(now=DEMO_NOW) as connection:
            _load(connection, "L", rows)
            session = TsqlSession(connection)
            naive, kernel = _both_ways(session, COALESCE_Q)
            assert sorted(naive) == sorted(kernel)

    def test_tree_join_skewed_sides(self, forced_planner):
        """A >=TREE_SKEW size skew takes the tree-probe strategy."""
        with repro.connect(now=DEMO_NOW) as connection:
            _load(connection, "L", [
                (k, E("{[1999-01-01, 1999-06-01]}")) for k in range(2)
            ])
            _load(connection, "R", [
                (k, E(f"{{[1999-0{1 + k % 6}-15, 1999-0{2 + k % 6}-15]}}"))
                for k in range(2 * kernels.TREE_SKEW)
            ])
            shape = plan.match(TsqlSession(connection).translate(MERGE_Q))
            result = kernels.execute_join(
                connection, shape, connection.statement_now_seconds()
            )
            assert result.strategy == "tree"
            session = TsqlSession(connection)
            naive, kernel = _both_ways(session, MERGE_Q)
            assert _canon(naive, 2) == _canon(kernel, 2)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(left=small_tables, right=small_tables)
    def test_vector_emit_equals_scalar_emit(
        self, forced_planner, left, right, monkeypatch
    ):
        """The numpy hash emit and the scalar loop agree row-for-row —
        same rows, same order — so vectorization is pure mechanism."""
        with repro.connect(now=DEMO_NOW) as connection:
            _load(connection, "L", left)
            _load(connection, "R", right)
            session = TsqlSession(connection)
            vectorized = session.query(HASH_Q)
            monkeypatch.setattr(kernels, "_np", None)
            scalar = session.query(HASH_Q)
            assert _canon(vectorized, 2) == _canon(scalar, 2)
            assert [row[:2] for row in vectorized] == [
                row[:2] for row in scalar
            ]

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(left=small_tables, right=small_tables, now=chronons(),
           override=chronons())
    def test_random_now_and_override(
        self, forced_planner, left, right, now, override
    ):
        """The kernels ground NOW-relative elements at the statement
        NOW — including a ``set_now`` override applied mid-session."""
        with repro.connect(now=now) as connection:
            _load(connection, "L", left)
            _load(connection, "R", right)
            session = TsqlSession(connection)
            naive, kernel = _both_ways(session, HASH_Q)
            assert _canon(naive, 2) == _canon(kernel, 2)
            connection.set_now(override)
            naive, kernel = _both_ways(session, HASH_Q)
            assert _canon(naive, 2) == _canon(kernel, 2)

    def test_empty_window_short_circuits(self, forced_planner):
        """A window that grounds empty yields no rows without a fetch."""
        with repro.connect(now=DEMO_NOW) as connection:
            _load(connection, "L", [(1, E("{[1999-01-01, 1999-06-01]}"))])
            _load(connection, "R", [(1, E("{[1999-01-01, 1999-06-01]}"))])
            # [NOW, 1998-01-01] is a legal period that grounds empty
            # once NOW (pinned to 1999 here) passes 1998.
            query = ("VALIDTIME PERIOD 'NOW, 1998-01-01' "
                     "SELECT l.k, r.k FROM L AS l, R AS r WHERE l.k = r.k")
            session = TsqlSession(connection)
            shape = plan.match(session.translate(query))
            result = kernels.execute_join(
                connection, shape, connection.statement_now_seconds()
            )
            assert result.strategy == "empty-window"
            assert result.rows == []


class TestPlannerDecisions:
    def test_small_inputs_fall_back(self, conn):
        """Below min_rows the planner declines and counts the reason."""
        _load(conn, "L", [(1, E("{[1999-01-01, 1999-06-01]}"))])
        _load(conn, "R", [(1, E("{[1999-03-01, 1999-09-01]}"))])
        session = TsqlSession(conn)
        plan.configure(enabled=True, min_rows=plan.planner.DEFAULT_MIN_ROWS)
        with obs.capture():
            rows = session.query(HASH_Q)
            counters = obs.snapshot()["counters"]
        assert len(rows) == 1
        assert counters.get("plan.fallback.small", 0) >= 1
        assert "plan.kernel.join" not in counters

    def test_unmatched_shape_returns_none(self, conn):
        _load(conn, "L", [(1, E("{[1999-01-01, 1999-06-01]}"))])
        # An OR between conjuncts is outside the matcher's repertoire.
        sql = ("SELECT l.k, tintersect(l.valid, l.valid) FROM L AS l "
               "WHERE l.k = 1 OR l.k = 2")
        assert plan.maybe_execute_kernel(conn, sql) is None
        assert plan.describe(conn, sql)["strategy"] == "naive"

    def test_tip_typed_key_vetoes_kernel(self, conn, forced_planner):
        """Equality on a TIP-encoded column must stay on the blade."""
        conn.execute("CREATE TABLE L (k INTEGER, t CHRONON, valid ELEMENT)")
        conn.execute("CREATE TABLE R (k INTEGER, t CHRONON, valid ELEMENT)")
        conn.commit()
        session = TsqlSession(conn)
        translated = session.translate(
            "VALIDTIME SELECT l.k, r.k FROM L AS l, R AS r WHERE l.t = r.t"
        )
        assert plan.maybe_execute_kernel(conn, translated) is None
        description = plan.describe(conn, translated)
        assert description["strategy"] == "naive"
        assert "types" in description["reason"]

    def test_disabled_planner_is_invisible(self, conn):
        plan.configure(enabled=False)
        try:
            assert plan.maybe_execute_kernel(conn, "SELECT 1") is None
            assert plan.describe(conn, "SELECT 1")["reason"] \
                == "planner disabled"
        finally:
            plan.configure(enabled=True)

    def test_generation_bump_invalidates_cached_plans(
        self, conn, forced_planner
    ):
        """Shapes live on generation-keyed compiled statements: DDL bumps
        the generation, and the recompiled statement carries the new
        generation and a re-matched shape instead of the stale plan."""
        _load(conn, "L", [(1, E("{[1999-01-01, 1999-06-01]}"))])
        _load(conn, "R", [(1, E("{[1999-03-01, 1999-09-01]}"))])
        session = TsqlSession(conn)
        before = session.compile(HASH_Q)
        assert before.shape is not None
        assert session.compile(HASH_Q) is before  # a statement-cache hit
        # DDL adding a temporal table: the session rescan bumps the
        # process-wide generation, orphaning every cached plan.
        session.query("CREATE TABLE bump (n INTEGER, valid ELEMENT)")
        after = session.compile(HASH_Q)
        assert after.generation == stmt_cache.generation() > before.generation
        assert after.shape == before.shape
        assert after.shape is not before.shape  # matched again
        assert len(session.query(HASH_Q)) == 1


class TestObservability:
    def test_kernel_counters_and_prometheus(self, conn, forced_planner):
        _load(conn, "L", [
            (k, E("{[1999-01-01, 1999-06-01]}")) for k in range(4)
        ])
        _load(conn, "R", [
            (k, E("{[1999-03-01, 1999-09-01]}")) for k in range(4)
        ])
        session = TsqlSession(conn)
        with obs.capture():
            session.query(HASH_Q)
            session.query(COALESCE_Q.replace("FROM L", "FROM L"))
            snapshot = obs.snapshot()
        counters = snapshot["counters"]
        assert counters.get("plan.kernel.join") == 1
        assert counters.get("plan.kernel.coalesce") == 1
        assert counters.get("plan.join.candidates", 0) >= 4
        exposition = render_prometheus(snapshot)
        assert "tip_plan_kernel_join_total 1" in exposition
        assert "tip_plan_kernel_coalesce_total 1" in exposition

    def test_flight_records_kernel_runs(self, conn, forced_planner):
        _load(conn, "L", [
            (k, E("{[1999-01-01, 1999-06-01]}")) for k in range(3)
        ])
        _load(conn, "R", [
            (k, E("{[1999-03-01, 1999-09-01]}")) for k in range(3)
        ])
        session = TsqlSession(conn)
        flight.clear()
        flight.enable()
        try:
            session.query(HASH_Q)
            plan.configure(min_rows=10_000)
            session.query(HASH_Q)
        finally:
            flight.disable()
        kernel_events = flight.snapshot(kind="plan.kernel")
        assert len(kernel_events) == 1
        assert kernel_events[0]["data"]["strategy"] == "hash"
        assert kernel_events[0]["data"]["rows"] == 3
        fallbacks = flight.snapshot(kind="plan.fallback")
        assert any(
            event["data"]["reason"] == "small" for event in fallbacks
        )

    def test_explain_reports_kernel_strategy(self, conn, forced_planner):
        _load(conn, "L", [
            (k, E("{[1999-01-01, 1999-06-01]}")) for k in range(3)
        ])
        _load(conn, "R", [
            (k, E("{[1999-03-01, 1999-09-01]}")) for k in range(3)
        ])
        report = explain_temporal(conn, HASH_Q)
        assert report.plan_strategy["strategy"] == "kernel"
        assert "temporal strategy: kernel (join via hash)" in report.render()

    def test_explain_reports_naive_with_reason(self, conn):
        _load(conn, "L", [(1, E("{[1999-01-01, 1999-06-01]}"))])
        _load(conn, "R", [(1, E("{[1999-03-01, 1999-09-01]}"))])
        plan.configure(enabled=True, min_rows=plan.planner.DEFAULT_MIN_ROWS)
        report = explain_temporal(conn, HASH_Q)
        assert report.plan_strategy["strategy"] == "naive"
        assert "temporal strategy: naive" in report.render()
        assert "threshold" in report.render()


class TestServerPath:
    def test_kernel_runs_on_the_reader_pool(self, forced_planner):
        """A remote VALIDTIME join routes through the kernel server-side
        and returns the same rows the naive path computes."""
        with obs.capture() as registry, \
                TipServer(":memory:", observability=True) as server:
            host, port = server.address
            with RemoteTipConnection(host, port) as connection:
                connection.execute(
                    "CREATE TABLE L (k INTEGER, valid ELEMENT)"
                )
                connection.execute(
                    "CREATE TABLE R (k INTEGER, valid ELEMENT)"
                )
                for k in range(4):
                    connection.execute(
                        "INSERT INTO L VALUES (?, element(?))",
                        (k, "{[1999-01-01, 1999-06-01]}"),
                    )
                    connection.execute(
                        "INSERT INTO R VALUES (?, element(?))",
                        (k, "{[1999-03-01, 1999-09-01]}"),
                    )
                connection.set_now(DEMO_NOW)
                kernel_rows = connection.query(HASH_Q)
                plan.configure(enabled=False)
                try:
                    naive_rows = connection.query(HASH_Q)
                finally:
                    plan.configure(enabled=True, min_rows=0)
                assert sorted(r[:2] for r in kernel_rows) \
                    == sorted(r[:2] for r in naive_rows)
                assert len(kernel_rows) == 4
                counters = registry.snapshot()["counters"]
                assert counters.get("plan.kernel.join", 0) >= 1
