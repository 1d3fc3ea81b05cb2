"""Kernel shapes: a structural match over the statement IR.

:func:`match` finds, in the :mod:`repro.tsql.ir` form of a statement,
the **sequenced overlap join** ``SELECT a.x, tintersect(a.valid,
b.valid) FROM L a, R b WHERE <residual> AND overlaps(a.valid, b.valid)``
(optionally clipped by ``restrict(.., period('[..]'))`` and one
``overlaps(v, to_element(period('[..]')))`` per side) and the
**coalesce** ``SELECT k, [length[_seconds](]group_union(valid)[)] FROM
T [WHERE <residual>] GROUP BY k``; a residual is an AND of ``col <op>
col|literal``.  Anything else yields None: the naive path stays.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import TranslationError
from repro.plan.kernels import (
    CoalesceShape, Condition, JoinShape, Operand, OutputColumn,
)
from repro.tsql import ir

__all__ = [
    "Operand", "Condition", "OutputColumn", "JoinShape", "CoalesceShape",
    "is_candidate", "match",
]


def is_candidate(sql: str) -> bool:
    """Cheap pre-filter: could *sql* be a shape at all?  Statements
    without a ``tintersect(`` or ``group_union(`` are never parsed."""
    lowered = sql.lower()
    return "tintersect(" in lowered or "group_union(" in lowered


_CANONICAL = {"==": "=", "<>": "!="}
_FLIPPED = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}


def _call(node: ir.Node, name: str, arity: int) -> bool:
    return node.kind == "call" and node.name == name and len(node.args) == arity


def _ref(node: ir.Node) -> Optional[Tuple[str, str]]:
    """``(alias, column)`` of a qualified column reference."""
    return (node.qualifier, node.name) if node.kind == "col" and node.qualifier else None


def _period(node: ir.Node) -> Optional[str]:
    """The body of ``period('[...]')``."""
    body = node.args[0].value if _call(node, "period", 1) else None
    framed = isinstance(body, str) and body[:1] == "[" and body[-1:] == "]"
    return body[1:-1] if framed and "'" not in body else None


def _operand(node: ir.Node, aliases: Sequence[str], allow_bare: bool,
             literal: bool = True) -> Optional[Operand]:
    """A column of one of *aliases* (or a bare one), or a literal."""
    if node.kind == "lit" and literal:
        return Operand("lit", value=node.value)
    if node.kind == "col" and (node.qualifier in aliases
                               or (allow_bare and not node.qualifier)):
        return Operand("col", alias=node.qualifier, column=node.name)
    return None


def _condition(node: ir.Node, aliases: Sequence[str],
               allow_bare: bool) -> Optional[Condition]:
    """One ``side <op> side`` comparison, column first, or None."""
    if node.kind != "cmp":
        return None
    left = _operand(node.args[0], aliases, allow_bare)
    right = _operand(node.args[1], aliases, allow_bare)
    op = _CANONICAL.get(node.name, node.name)
    if left is not None and right is not None and left.kind == "lit":
        left, right, op = right, left, _FLIPPED.get(op, op)
    if left is None or right is None or left.kind != "col":
        return None  # two literals: not worth modeling
    return Condition(left, op, right)


def match(statement: Union[str, ir.Select]) -> Optional[Union[JoinShape, CoalesceShape]]:
    """Recognize a statement (IR or SQL text) as a kernel-evaluable shape."""
    if isinstance(statement, str):
        try:
            statement = ir.parse(statement)
        except TranslationError:
            return None
    if statement.modifier or statement.params \
            or any(item.kind != "table" for item in statement.from_items):
        return None
    matcher = {1: _match_coalesce, 2: _match_join}.get(len(statement.from_items))
    return matcher(statement) if matcher else None


def _match_join(select: ir.Select) -> Optional[JoinShape]:
    left, right = select.from_items
    aliases = (left.alias, right.alias)
    if select.tail or left.alias == right.alias:
        return None
    outputs: List[OutputColumn] = []
    valid_at = valid_name = refs = window = None
    for index, item in enumerate(select.items):
        node, period = item, None
        if _call(item, "restrict", 2):
            node, period = item.args[0], _period(item.args[1])
        if _call(node, "tintersect", 2) and (period is not None or node is item):
            if valid_at is not None:
                return None  # two validity expressions: not our shape
            refs = (_ref(node.args[0]), _ref(node.args[1]))
            valid_at, valid_name, window = index, item.alias or item.text, period
        elif _operand(item, aliases, allow_bare=False, literal=False):
            outputs.append(OutputColumn(item.alias or item.name, item.qualifier, item.name))
        else:
            return None
    # The validity refs: exactly one per side.
    if valid_at is None or None in refs or {a for a, _ in refs} != set(aliases):
        return None

    pair_seen = False
    window_seen = set()
    equalities: List[Tuple[str, str]] = []
    cross: List[Condition] = []
    filters: Dict[str, List[Condition]] = {left.alias: [], right.alias: []}
    for node in select.conjuncts:
        if _call(node, "overlaps", 2):
            first, second = _ref(node.args[0]), _ref(node.args[1])
            clip = node.args[1]
            if first and second:
                if pair_seen or {first, second} != set(refs):
                    return None
                pair_seen = True
                continue
            if first and _call(clip, "to_element", 1) \
                    and _period(clip.args[0]) is not None:
                if _period(clip.args[0]) != window or first not in refs:
                    return None
                window_seen.add(first)
                continue
        condition = _condition(node, aliases, allow_bare=False)
        if condition is None:
            return None
        a, b = condition.left, condition.right
        sides = {op.alias for op in (a, b) if op.kind == "col"}
        if len(sides) == 2 and condition.op == "=":
            if a.alias != left.alias:
                a, b = b, a
            equalities.append((a.column, b.column))
        elif any(op.kind == "col" and (op.alias, op.column) in refs for op in (a, b)):
            return None  # ordering validity blobs is beyond the kernels
        elif len(sides) == 1:
            filters[sides.pop()].append(condition)
        elif a.alias == left.alias:
            cross.append(condition)
        else:  # cross-side comparisons put the left table's operand first
            cross.append(Condition(b, _FLIPPED.get(condition.op, condition.op), a))
    if not pair_seen or (window is not None and window_seen != set(refs)):
        return None
    valid = dict(refs)
    return JoinShape(
        left_table=left.name, left_alias=left.alias,
        right_table=right.name, right_alias=right.alias,
        outputs=tuple(outputs), valid_at=valid_at, valid_name=valid_name,
        left_valid=valid[left.alias], right_valid=valid[right.alias],
        window=window, equalities=tuple(equalities), cross=tuple(cross),
        left_filters=tuple(filters[left.alias]),
        right_filters=tuple(filters[right.alias]),
    )


def _match_coalesce(select: ir.Select) -> Optional[CoalesceShape]:
    table, aliases = select.from_items[0].name, (select.from_items[0].alias,)
    keys = [_operand(key, aliases, True, literal=False) for key in select.group_by]
    if select.clauses != ("GROUP BY",) or None in keys:
        return None
    group_by = [key.column for key in keys]
    outputs: List[OutputColumn] = []
    agg_at = agg_name = agg_column = None
    agg_wrapper = ""
    for index, item in enumerate(select.items):
        node, wrapper = item, ""
        if (_call(item, "length", 1) or _call(item, "length_seconds", 1)) \
                and _call(item.args[0], "group_union", 1):
            node, wrapper = item.args[0], item.name
        if _call(node, "group_union", 1):
            operand = _operand(node.args[0], aliases, True, literal=False)
            if agg_at is not None or operand is None:
                return None
            agg_at, agg_wrapper, agg_column = index, wrapper, operand.column
            agg_name = item.alias or item.text
            continue
        operand = _operand(item, aliases, True, literal=False)
        if operand is None or operand.column not in group_by:
            return None  # a bare value outside GROUP BY comes from any row
        outputs.append(OutputColumn(item.alias or item.name, item.qualifier, item.name))
    if agg_at is None or agg_column in group_by:
        return None
    filters = [_condition(node, aliases, allow_bare=True) for node in select.conjuncts]
    if None in filters or any(op.kind == "col" and op.column == agg_column
                              for f in filters for op in (f.left, f.right)):
        return None
    return CoalesceShape(
        table=table, alias=aliases[0], outputs=tuple(outputs), agg_at=agg_at,
        agg_name=agg_name, agg_wrapper=agg_wrapper, agg_column=agg_column,
        group_by=tuple(group_by), filters=tuple(filters),
    )
