"""The statement IR (:mod:`repro.tsql.ir`) against a golden corpus.

``tests/golden_tsql_ir.json`` holds the tSQL translation and kernel
shape of every tSQL/TIP SQL statement in the tSQL and planner suites,
the linq goldens' emitted tSQL and the perfbench workload statements,
as the text-scanner implementation produced them before the IR
replaced it.  Translations must stay byte-identical and shapes equal;
the few entries marked ``quote_blind`` are statements the old scanners
misread because of a quote, and record the old result under ``parent``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.errors import TranslationError
from repro.plan import shapes
from repro.tsql import ir
from repro.tsql.preprocessor import translate

GOLDEN = json.loads((Path(__file__).parent / "golden_tsql_ir.json").read_text())
ENTRIES = GOLDEN["entries"]


def _shape_json(shape):
    if shape is None:
        return None
    return json.loads(json.dumps(
        {"class": type(shape).__name__, **dataclasses.asdict(shape)}
    ))


def _translate(entry):
    """``(translated sql, IR, error message)`` under the entry's registry."""
    try:
        sql, select = translate(entry["statement"],
                                GOLDEN["registries"][entry["registry"]])
    except TranslationError as exc:
        return None, None, str(exc)
    return sql, select, None


def test_corpus_is_large_enough():
    assert len(ENTRIES) >= 60


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e["statement"][:60])
def test_translation_is_byte_identical(entry):
    sql, _select, error = _translate(entry)
    assert sql == entry["translated"]
    assert error == entry.get("error")


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e["statement"][:60])
def test_shape_matches_from_text_and_from_ir(entry):
    sql, select, _error = _translate(entry)
    if sql is None:
        return
    assert _shape_json(shapes.match(sql)) == entry["shape"]
    if select is not None:
        assert _shape_json(shapes.match(select)) == entry["shape"]


def test_quote_blind_entries_are_the_only_differences():
    marked = [entry for entry in ENTRIES if "quote_blind" in entry]
    assert len(marked) == 4
    for entry in marked:
        parent = entry["parent"]
        assert (parent.get("translated"), parent.get("shape"), parent.get("error")) \
            != (entry["translated"], entry["shape"], entry.get("error"))


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e["statement"][:60])
def test_source_spans_point_into_the_statement(entry):
    """Every parsed node's offset locates its text in the source."""
    try:
        select = ir.parse(entry["statement"])
    except TranslationError:
        return
    source = entry["statement"]
    nodes = list(select.items) + list(select.from_items)
    nodes += list(select.conjuncts) + list(select.group_by)
    for node in nodes:
        assert source[node.start:node.start + len(node.text)] == node.text


class TestTokenizer:
    def test_comments_and_quotes_are_not_keywords(self):
        select = ir.parse(
            "SELECT a -- FROM x\n FROM t /* WHERE */ WHERE b = 'GROUP BY' "
            "AND \"FROM\" = 1"
        )
        assert select.from_list == "t"
        assert select.where == "b = 'GROUP BY' AND \"FROM\" = 1"
        assert select.tail == ""

    @pytest.mark.parametrize("spacing", [" ", "  ", "\n", "\t", " -- c\n", " /* c */ "])
    def test_group_by_matches_across_any_whitespace(self, spacing):
        select = ir.parse(f"SELECT k FROM t GROUP{spacing}BY k")
        assert select.clauses == ("GROUP BY",)
        assert [key.name for key in select.group_by] == ["k"]

    def test_conjuncts_flatten_parentheses(self):
        select = ir.parse("SELECT a FROM t WHERE ((a = 1) AND (b < 'x')) AND f(a, 2)")
        kinds = [(node.kind, node.name) for node in select.conjuncts]
        assert kinds == [("cmp", "="), ("cmp", "<"), ("call", "f")]
        assert [arg.value for arg in select.conjuncts[0].args[1:]] == [1]
        assert select.conjuncts[1].args[1].value == "x"

    def test_translated_nodes_are_marked_and_emitted(self):
        select = ir.parse("SELECT a FROM t WHERE b = 1").translated(
            items=[ir.Node("call", "f(t.v)", -1, name="f", alias="valid")],
            conjuncts=[ir.Node("call", "g(t.v)", -1, name="g")],
        )
        assert select.sql() == "SELECT a, f(t.v) AS valid FROM t WHERE (b = 1) AND g(t.v)"
        assert select.items[-1].start == -1
        assert select.items[-1].alias == "valid"
        assert select.conjuncts[-1].kind == "call"

    def test_columns_split_at_top_level_commas_only(self):
        ddl = ("CREATE TABLE t (a INTEGER, b TEXT DEFAULT 'x,y' COLLATE nocase, "
               '"c d" NUMERIC(5, 2), PRIMARY KEY (a, b))')
        assert ir.columns(ddl) == [
            ("a", "INTEGER", ""), ("b", "TEXT", "NOCASE"), ("c d", "NUMERIC", ""),
        ]
