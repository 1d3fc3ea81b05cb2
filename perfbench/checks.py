"""Reference answers for every benchmark operation.

Each checker recomputes an operation's answer independently of the
path that produced it -- from an in-memory model built with
:mod:`repro.core`, from the generated graph, or by re-running the
statement embedded on the planner's naive path -- and reports a
mismatch as a failed operation.  Checking happens after the timed
window, so it costs the measurement nothing.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence

from repro.codec import encode
from repro.codec.binary import TAG_BY_TYPE
from repro.core.aggregates import group_union
from repro.core.chronon import Chronon
from repro.core.element import Element
from repro.core.nowctx import use_now

TIP_TYPES = tuple(TAG_BY_TYPE)


def _key(value) -> object:
    # TIP values compare by their canonical binary encoding: exact, and
    # far cheaper than rendering them as text.
    if isinstance(value, TIP_TYPES):
        return encode(value)
    return repr(value)


def canon(rows: Iterable[Sequence]) -> List[tuple]:
    """Rows as a sorted list of comparable tuples: a multiset to compare."""
    return sorted(tuple(_key(value) for value in row) for row in rows)


def same_rows(got: Iterable[Sequence], expected: Iterable[Sequence]) -> bool:
    return canon(got) == canon(expected)


# -- rx: the Prescription model of one client --------------------------------


class PrescriptionModel:
    """The rows of a set of patients, updated as the client writes.

    Rows are ``[doctor, drug, dosage, valid]`` lists per patient; every
    evaluation binds NOW to the statement NOW the server reported, so
    NOW-relative elements ground exactly as they did in the engine.
    """

    def __init__(self, rows, patients: Iterable[str]) -> None:
        owned = set(patients)
        self.rows: Dict[str, List[list]] = {patient: [] for patient in owned}
        for row in rows:
            if row.patient in owned:
                self.rows[row.patient].append(
                    [row.doctor, row.drug, row.dosage, row.valid]
                )

    def expect(self, op, statement_now: str):
        """The rows (reads) or row count (writes) *op* must produce,
        applying a write to the model."""
        now = Chronon.parse(statement_now).seconds
        rows = self.rows[op.patient]
        with use_now(now):
            if op.kind == "point":
                window = op.params[1]
                return [(r[1], r[2], r[3]) for r in rows if r[3].overlaps(window)]
            if op.kind == "snapshot":
                return [(r[1], r[2]) for r in rows if r[3].contains(op.instant)]
            if op.kind == "validtime":
                return [(r[1], r[2], r[3].restrict(op.period))
                        for r in rows if r[3].overlaps(Element.of(op.period))]
            if op.kind == "coalesce":
                if not rows:
                    return []
                union = group_union([r[3] for r in rows], now)
                return [(op.patient, union.length().seconds)]
            if op.kind == "insert":
                doctor, _, _, drug, dosage, _, valid = op.params
                rows.append([doctor, drug, dosage, valid])
                return 1
            if op.kind == "delete":
                cut = op.params[0]
                hit = 0
                for row in rows:
                    if row[3].overlaps(cut):
                        row[3] = row[3].difference(cut)
                        hit += 1
                return hit
        raise ValueError(f"unknown operation kind {op.kind!r}")

    def final_rows(self) -> List[tuple]:
        return [(patient, r[1], r[2], r[3])
                for patient, rows in self.rows.items() for r in rows]


def check_log(model: PrescriptionModel, log) -> int:
    """Replay one client's log against its model; the number of failures.

    Each entry is ``(op, rows, rowcount, statement_now, error)``.
    """
    failures = 0
    for op, rows, rowcount, statement_now, error in log:
        if error is not None:
            failures += 1
            continue
        expected = model.expect(op, statement_now)
        if isinstance(expected, int):
            ok = rowcount == expected
        else:
            ok = same_rows(rows, expected)
        failures += not ok
    return failures


# -- graph: answers computed from the generated edges --------------------------


def path_rows(edges, window=None, label=None) -> List[tuple]:
    """The sequenced two-hop path join, straight from the edge list.

    Mirrors the translation of ``VALIDTIME [PERIOD w] SELECT e1.src,
    e1.dst, e2.dst ... WHERE e1.dst = e2.src [AND e1.label = l]``: pairs
    whose edges were never valid together drop out, and with a window
    both edges must touch it and the shared time is clipped to it.
    """
    by_src = defaultdict(list)
    for edge in edges:
        by_src[edge.src].append(edge)
    window_element = Element.of(window) if window is not None else None
    rows = []
    for first in edges:
        if label is not None and first.label != label:
            continue
        if window_element is not None and not first.valid.overlaps(window_element):
            continue
        for second in by_src.get(first.dst, ()):
            if not first.valid.overlaps(second.valid):
                continue
            if window_element is not None and not second.valid.overlaps(window_element):
                continue
            shared = first.valid.intersect(second.valid)
            if window is not None:
                shared = shared.restrict(window)
            rows.append((first.src, first.dst, second.dst, shared))
    return rows


def watch_rows(watch, edges, watch_ids=None, max_src=None) -> List[tuple]:
    """``VALIDTIME SELECT w.id, e.src, e.dst FROM watch AS w, edges AS e``
    with optional ``w.id < watch_ids`` / ``e.src < max_src`` filters."""
    rows = []
    for entry in watch:
        if watch_ids is not None and not entry.id < watch_ids:
            continue
        for edge in edges:
            if max_src is not None and not edge.src < max_src:
                continue
            if entry.valid.overlaps(edge.valid):
                rows.append((entry.id, edge.src, edge.dst,
                             entry.valid.intersect(edge.valid)))
    return rows


def uptime_rows(edges) -> List[tuple]:
    """Per-node coalesced out-edge time, ``length_seconds(group_union)``."""
    by_src = defaultdict(list)
    for edge in edges:
        by_src[edge.src].append(edge.valid)
    return [(src, group_union(valids).length().seconds)
            for src, valids in by_src.items()]


def lookup_rows(edges, src: int, window_element: Element) -> List[tuple]:
    return [(edge.dst, edge.label, edge.valid) for edge in edges
            if edge.src == src and edge.valid.overlaps(window_element)]
