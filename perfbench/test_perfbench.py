"""Tests of the benchmark's own checkers and span analysis.

    PYTHONPATH=src python3 -m pytest perfbench -q

The point is that a wrong answer cannot pass: every checker is fed the
right result once and a corrupted copy once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import graph  # noqa: E402
import rx  # noqa: E402
import tracer  # noqa: E402

import repro  # noqa: E402
from repro.core.element import Element  # noqa: E402
from repro.tsql.preprocessor import TsqlSession  # noqa: E402
from repro.workload.medical import load_tip  # noqa: E402


def _oltp_log(spec, client, count):
    """Run *count* ops of a client's stream on an embedded database."""
    connection = repro.connect(":memory:")
    load_tip(connection, spec.rows)
    session = TsqlSession(connection)
    statements = spec.prepared_sql()
    stream = spec.oltp_ops(client)
    log = []
    for _ in range(count):
        op = next(stream)
        cursor = connection.execute(session.translate(statements[(op.kind, op.variant)]),
                                    op.params)
        rows = cursor.fetchall() if cursor.description else []
        connection.commit()
        log.append((op, rows, cursor.rowcount, cursor.statement_now_text, None))
    connection.close()
    return log


def test_oltp_model_accepts_the_engine_and_rejects_corruption():
    spec = rx.RxSpec("rx-oltp", 3)
    log = _oltp_log(spec, 0, 300)
    owned = spec.owned(0)
    assert checks.check_log(checks.PrescriptionModel(spec.rows, owned), log) == 0
    assert any(op.kind in rx.WRITE_KINDS for op, *_ in log)
    at = next(i for i, entry in enumerate(log) if entry[0].kind == "point" and entry[1])
    op, rows, rowcount, now, error = log[at]
    drug, dosage, valid = rows[0]
    wrong = Element.from_pairs([(0, 1)])
    corrupted = list(log)
    corrupted[at] = (op, [(drug, dosage, wrong)] + rows[1:], rowcount, now, error)
    assert checks.check_log(checks.PrescriptionModel(spec.rows, owned), corrupted) == 1
    write = next(i for i, entry in enumerate(log) if entry[0].kind == "delete")
    op, rows, rowcount, now, error = log[write]
    corrupted = list(log)
    corrupted[write] = (op, rows, rowcount + 1, now, error)
    assert checks.check_log(checks.PrescriptionModel(spec.rows, owned), corrupted) >= 1
    errored = list(log)
    errored[0] = log[0][:4] + ("RemoteError: boom",)
    assert checks.check_log(checks.PrescriptionModel(spec.rows, owned), errored) == 1


def test_browse_mirror_rejects_a_corrupted_kernel_answer():
    spec = rx.RxSpec("rx-browse", 5)
    # Stand-in for the server: the same statements with the planner on.
    server = repro.connect(":memory:", now=spec.now_override)
    load_tip(server, spec.rows)
    session = TsqlSession(server)
    stream = spec.browse_ops()
    log = []
    while len(log) < 200 or not any(op.kind == "coalesce" for op, *_ in log):
        op = next(stream)
        if rx.op_class(op.kind) == "write":
            cursor = server.execute(session.translate(op.sql))
            server.commit()
            log.append((op, [], cursor.rowcount, None, None))
        else:
            log.append((op, session.query(op.sql), -1, None, None))
    server.close()
    instance = SimpleNamespace(clients=[SimpleNamespace(log=log)])
    assert rx.check_browse(spec, instance) == 0
    at = next(i for i, entry in enumerate(log) if entry[0].kind == "coalesce")
    op, rows, rowcount, now, error = log[at]
    log[at] = (op, [(rows[0][0], rows[0][1] + 1)], rowcount, now, error)
    assert rx.check_browse(spec, instance) == 1


def test_graph_checker_rejects_a_corrupted_join():
    spec = graph.GraphSpec(2)
    instance = graph.GraphInstance(spec)
    try:
        spec.fill_references()
        assert instance.counts["plan.strategy.hash"] == 3
        assert {"plan.strategy.tree", "plan.strategy.merge",
                "plan.strategy.sweep"} <= set(instance.counts)
        assert instance.check() == 0
        at = next(i for i, (statement, _) in enumerate(instance.log)
                  if statement.kind == "analytic")
        statement, (count, fingerprint) = instance.log[at]
        instance.log[at] = (statement, (count, fingerprint ^ 1))
        assert instance.check() == 1
        instance.log[at] = (statement, (count, fingerprint))
        instance.connection.execute("UPDATE node_stats SET visits = visits + 1 WHERE node = 0")
        assert instance.check() >= 1
    finally:
        instance.close()


def test_path_reference_matches_a_hand_computed_case():
    rows = checks.path_rows([
        SimpleNamespace(src=1, dst=2, label="a", valid=Element.from_pairs([(0, 10)])),
        SimpleNamespace(src=2, dst=3, label="a", valid=Element.from_pairs([(5, 20)])),
        SimpleNamespace(src=2, dst=4, label="b", valid=Element.from_pairs([(11, 20)])),
    ])
    assert rows == [(1, 2, 3, Element.from_pairs([(5, 10)]))]


def test_self_time_subtracts_direct_children():
    spans = [
        (1, 0, "op", 0, 100),
        (2, 1, "tsql.compile", 10, 30),
        (3, 1, "plan.planner", 30, 90),
        (4, 3, "plan.kernel", 40, 80),
        (5, 4, "engine.execute", 50, 60),
    ]
    summary = tracer.summarize(spans)
    assert summary["op"]["self_ns"] == 20
    assert summary["plan.planner"]["self_ns"] == 20
    assert summary["plan.kernel"]["self_ns"] == 30
    assert tracer.layer_self_ns(summary) == {
        "load": 20, "tsql": 20, "plan": 50, "engine": 10}
    assert tracer.top_level_ns(spans) == 100


def test_without_the_program_the_benchmark_fails_fast(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rx-oltp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
