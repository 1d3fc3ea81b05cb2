"""Tests for the TSQL2 statement-modifier preprocessor."""

from __future__ import annotations

import pytest

from repro.core.chronon import Chronon
from repro.core.element import Element
from repro.errors import TranslationError
from repro.tsql import TsqlSession, translate_tsql
from repro.tsql import compiled
from repro.tsql.preprocessor import split_select
from tests.conftest import C, E


@pytest.fixture
def session(demo_prescriptions):
    return TsqlSession(demo_prescriptions)


class TestClauseSplitting:
    def test_basic(self):
        parts = split_select("SELECT a, b FROM t WHERE x = 1 ORDER BY a")
        assert parts.select_list == "a, b"
        assert parts.from_list == "t"
        assert parts.where == "x = 1"
        assert parts.tail == "ORDER BY a"

    def test_no_where(self):
        parts = split_select("SELECT a FROM t GROUP BY a")
        assert parts.where is None
        assert parts.tail == "GROUP BY a"

    def test_keywords_inside_strings_ignored(self):
        parts = split_select("SELECT a FROM t WHERE name = 'WHERE FROM'")
        assert parts.where == "name = 'WHERE FROM'"

    def test_keywords_inside_parens_ignored(self):
        parts = split_select("SELECT length(group_union(v)) FROM t")
        assert parts.select_list == "length(group_union(v))"

    def test_requires_select_and_from(self):
        with pytest.raises(TranslationError):
            split_select("DELETE FROM t")
        with pytest.raises(TranslationError):
            split_select("SELECT 1")


class TestDiscovery:
    def test_element_columns_discovered(self, session):
        assert session.temporal_tables == {"prescription": "valid"}

    def test_register_override(self, session):
        session.register("Other", "vt")
        assert session.temporal_tables["other"] == "vt"


class TestSnapshot:
    def test_snapshot_at_filters_to_the_instant(self, session):
        rows = session.query(
            "SNAPSHOT AT '1999-08-10' SELECT patient, drug FROM Prescription"
        )
        assert sorted(rows) == [("Ms.Info", "Prozac"), ("Ms.Info", "Tylenol")]

    def test_snapshot_defaults_to_now(self, session):
        # Fixture NOW is 1999-09-01; only Prozac's 2nd period is active.
        rows = session.query("SNAPSHOT SELECT patient, drug FROM Prescription")
        assert rows == [("Ms.Info", "Prozac")]

    def test_snapshot_has_no_timestamp_column(self, session):
        sql = session.translate("SNAPSHOT SELECT patient FROM Prescription")
        assert "AS valid" not in sql

    def test_snapshot_preserves_user_where(self, session):
        rows = session.query(
            "SNAPSHOT AT '1999-08-10' SELECT patient FROM Prescription "
            "WHERE drug = 'Tylenol'"
        )
        assert rows == [("Ms.Info",)]

    def test_snapshot_alias(self, session):
        rows = session.query(
            "SNAPSHOT AT '1999-08-10' SELECT p.patient FROM Prescription p "
            "WHERE p.drug = 'Tylenol'"
        )
        assert rows == [("Ms.Info",)]


class TestValidtime:
    def test_single_table_carries_validity(self, session):
        rows = session.query(
            "VALIDTIME SELECT patient FROM Prescription WHERE drug = 'Prozac'"
        )
        assert len(rows) == 1
        patient, valid = rows[0]
        assert patient == "Ms.Info"
        assert isinstance(valid, Element)
        assert str(valid) == "{[1999-01-01, 1999-04-30], [1999-07-01, 1999-10-31]}"

    def test_sequenced_join_intersects_validities(self, session):
        """The paper's self-join, in TSQL2 clothing."""
        rows = session.query(
            "VALIDTIME SELECT p1.patient FROM Prescription p1, Prescription p2 "
            "WHERE p1.drug = 'Tylenol' AND p2.drug = 'Prozac' "
            "AND p1.patient = p2.patient"
        )
        assert len(rows) == 1
        _patient, valid = rows[0]
        # Tylenol [08-01, 08-20] inside Prozac's [07-01, 10-31].
        assert str(valid.ground(C("1999-09-01"))) == "{[1999-08-01, 1999-08-20]}"

    def test_sequenced_join_drops_non_overlapping_pairs(self, session):
        rows = session.query(
            "VALIDTIME SELECT p1.patient FROM Prescription p1, Prescription p2 "
            "WHERE p1.drug = 'Tylenol' AND p2.drug = 'Aspirin'"
        )
        assert rows == []  # Tylenol (Aug) and Aspirin (Nov-Dec) never co-hold

    def test_period_restriction_clips(self, session):
        rows = session.query(
            "VALIDTIME PERIOD '1999-08-05, 1999-08-10' SELECT patient "
            "FROM Prescription WHERE drug = 'Tylenol'"
        )
        assert len(rows) == 1
        assert str(rows[0][1].ground(C("1999-09-01"))) == "{[1999-08-05, 1999-08-10]}"

    def test_period_restriction_filters_disjoint_rows(self, session):
        rows = session.query(
            "VALIDTIME PERIOD '1999-03-01, 1999-03-10' SELECT patient, drug "
            "FROM Prescription"
        )
        assert [(row[0], row[1]) for row in rows] == [("Ms.Info", "Prozac")]

    def test_group_by_rejected(self, session):
        with pytest.raises(TranslationError):
            session.translate(
                "VALIDTIME SELECT patient FROM Prescription GROUP BY patient"
            )

    @pytest.mark.parametrize("cache", [True, False], ids=["cache-on", "cache-off"])
    @pytest.mark.parametrize("group_by", [
        "GROUP\nBY patient",
        "GROUP  BY patient",
        "GROUP BY patient -- per patient",
        "GROUP\nBY patient -- per patient",
        "GROUP /* sequenced? */ BY patient",
    ], ids=["newline", "double-space", "comment", "newline-comment", "inline-comment"])
    def test_group_by_rejected_across_any_whitespace(self, session, cache, group_by):
        """Sequenced aggregation is rejected however GROUP BY is spaced,
        whether or not the statement is normalized by the cache."""
        statement = (
            "VALIDTIME SELECT patient FROM Prescription WHERE dosage = 1 "
            + group_by
        )
        enabled = compiled.state.enabled
        compiled.configure(enabled=cache)
        try:
            with pytest.raises(TranslationError) as info:
                session.translate(statement)
            assert info.value.clause.startswith("GROUP")
            with pytest.raises(TranslationError):
                session.query(statement)
        finally:
            compiled.configure(enabled=enabled)

    def test_requires_a_temporal_table(self, session):
        session._connection.execute("CREATE TABLE plain (x INTEGER)")
        with pytest.raises(TranslationError):
            session.translate("VALIDTIME SELECT x FROM plain")

    def test_agrees_with_handwritten_tip_sql(self, session):
        tsql = session.query(
            "VALIDTIME SELECT p1.patient FROM Prescription p1, Prescription p2 "
            "WHERE p1.drug = 'Diabeta' AND p2.drug = 'Aspirin'"
        )
        session._connection.set_now("1999-12-01")
        tsql_later = session.query(
            "VALIDTIME SELECT p1.patient FROM Prescription p1, Prescription p2 "
            "WHERE p1.drug = 'Diabeta' AND p2.drug = 'Aspirin'"
        )
        manual = session._connection.query(
            "SELECT p1.patient, tintersect(p1.valid, p2.valid) "
            "FROM Prescription p1, Prescription p2 "
            "WHERE p1.drug = 'Diabeta' AND p2.drug = 'Aspirin' "
            "AND overlaps(p1.valid, p2.valid)"
        )
        assert tsql == []  # nothing overlaps at NOW=1999-09-01
        assert [(r[0], str(r[1])) for r in tsql_later] == [
            (r[0], str(r[1])) for r in manual
        ]


class TestNonsequencedAndPassthrough:
    def test_nonsequenced_passthrough(self, session):
        rows = session.query(
            "NONSEQUENCED VALIDTIME SELECT patient, valid FROM Prescription "
            "WHERE drug = 'Tylenol'"
        )
        assert len(rows) == 1
        assert isinstance(rows[0][1], Element)

    def test_plain_sql_untouched(self, session):
        sql = "SELECT COUNT(*) FROM Prescription"
        assert session.translate(sql) == sql
        assert session.query(sql) == [(4,)]

    def test_unsupported_from_item(self, session):
        with pytest.raises(TranslationError):
            session.translate(
                "SNAPSHOT SELECT x FROM (SELECT 1 AS x) sub"
            )


class TestTranslateFunction:
    def test_direct_translation_api(self):
        sql = translate_tsql(
            "SNAPSHOT AT '1999-01-01' SELECT a FROM t",
            {"t": "vt"},
        )
        assert sql == (
            "SELECT a FROM t WHERE contains_instant(t.vt, instant('1999-01-01'))"
        )

    def test_validtime_two_tables_translation(self):
        sql = translate_tsql(
            "VALIDTIME SELECT a.x FROM t a, t b WHERE a.k = b.k",
            {"t": "vt"},
        )
        assert "tintersect(a.vt, b.vt) AS valid" in sql
        assert "overlaps(a.vt, b.vt)" in sql
        assert "(a.k = b.k) AND" in sql


class TestParenthesizedFromLists:
    """The FROM-list grammar the linq compiler emits: items may be
    grouped in parentheses, arbitrarily nested."""

    def test_parenthesized_group_translates_like_flat_list(self):
        flat = translate_tsql(
            "VALIDTIME SELECT a.x FROM t a, t b WHERE a.k = b.k",
            {"t": "vt"},
        )
        grouped = translate_tsql(
            "VALIDTIME SELECT a.x FROM (t a, t b) WHERE a.k = b.k",
            {"t": "vt"},
        )
        assert grouped == flat.replace("FROM t a, t b", "FROM (t a, t b)")

    def test_nested_groups_flatten(self):
        sql = translate_tsql(
            "SNAPSHOT SELECT a.x FROM ((t AS a), (t AS b, t AS c))",
            {"t": "vt"},
        )
        for alias in ("a", "b", "c"):
            assert f"contains_instant({alias}.vt, instant('NOW'))" in sql

    def test_grouped_items_execute(self, session):
        rows = session.query(
            "SNAPSHOT SELECT p.drug FROM (Prescription AS p) "
            "WHERE p.patient = 'Ms.Info' ORDER BY p.drug"
        )
        assert rows == [("Prozac",)]  # Tylenol's validity ended before NOW


class TestTranslationErrorMetadata:
    """TranslationError carries the offending clause text and its
    character offset into the original statement."""

    def test_bad_from_item_reports_clause_and_offset(self):
        statement = "SNAPSHOT SELECT x FROM t a, 1bad"
        with pytest.raises(TranslationError) as info:
            translate_tsql(statement, {"t": "vt"})
        assert info.value.clause == "1bad"
        assert info.value.offset == statement.index("1bad")
        assert statement[info.value.offset:].startswith(info.value.clause)

    def test_offset_points_inside_parenthesized_group(self):
        statement = "SNAPSHOT SELECT x FROM (t a, se-lect) WHERE x = 1"
        with pytest.raises(TranslationError) as info:
            translate_tsql(statement, {"t": "vt"})
        assert info.value.clause == "se-lect"
        assert statement[info.value.offset:].startswith("se-lect")

    def test_validtime_group_by_reports_tail_clause(self):
        with pytest.raises(TranslationError) as info:
            translate_tsql(
                "VALIDTIME SELECT a FROM t GROUP BY a",
                {"t": "vt"},
            )
        assert info.value.clause is not None
        assert "GROUP BY" in info.value.clause

    def test_group_by_offset_points_into_the_statement(self):
        statement = "VALIDTIME SELECT a FROM t WHERE a = 1 GROUP\n BY a -- c"
        with pytest.raises(TranslationError) as info:
            translate_tsql(statement, {"t": "vt"})
        assert info.value.clause == "GROUP\n BY a"
        assert statement[info.value.offset:].startswith(info.value.clause)

    def test_validtime_without_temporal_table_reports_from_list(self):
        with pytest.raises(TranslationError) as info:
            translate_tsql("VALIDTIME SELECT a FROM plain", {"t": "vt"})
        assert info.value.clause == "plain"

    def test_metadata_defaults_to_none(self):
        error = TranslationError("boom")
        assert error.clause is None
        assert error.offset is None
