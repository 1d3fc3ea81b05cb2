"""Set-based evaluation kernels for matched temporal shapes.

These are the paper's "integrated evaluation" made concrete: instead of
letting SQLite grind ``overlaps(a.valid, b.valid)`` over the full cross
product (one UDF call and two blob decodes per candidate tuple), the
planner bulk-fetches both sides once and joins them with interval
algorithms:

``hash``
    Cross-alias equality conjuncts become hash-join keys (the
    temporal-graph path query joins on ``e1.dst = e2.src``); the
    overlap test runs only within each hash bucket.
``merge``
    No equalities: both sides' grounded periods are swept in start
    order with an active set per side (sort-merge interval join).
``tree``
    Skewed sides: the smaller side's periods are bulk-loaded into an
    :meth:`IntervalTree.build` and the larger side probes it.
``sweep``
    Coalesce: one pass that groups rows, pools their periods, and
    normalizes each group once (exactly ``GroupUnion``'s cost model).

Each kernel fetches only what it needs: single-side literal filters
(``e1.label = 'cites'``, a coalesce's ``WHERE``) run in the fetch SQL
with bound parameters, and the validity column comes back as its
unconverted blob, grounded in one pass by
:func:`repro.codec.binary.ground_elements` without touching the decode
cache.  Every kernel grounds elements at one statement ``NOW`` and
produces rows value-identical to the naive path — the differential
suite (``tests/test_plan_kernels.py``) holds them equal as multisets.
Only cross-side residuals are compared in Python, through
:func:`sql_compare`, which mirrors SQLite's storage-class semantics
(NULL never matches; numeric < text < blob across classes;
``1 = 1.0``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

try:  # the hash strategy emits through numpy when it is available
    import numpy as _np
except ImportError:  # pragma: no cover - baked into the toolchain image
    _np = None

from repro.codec.binary import ground_elements
from repro.core import interval_algebra as ia
from repro.core.element import Element
from repro.index.interval_tree import IntervalTree

__all__ = [
    "Operand", "Condition", "OutputColumn", "JoinShape", "CoalesceShape",
    "KernelResult", "execute_join", "execute_coalesce", "sql_compare",
]

Pair = Tuple[int, int]

#: When one side has this many times more periods than the other, probe
#: an interval tree built over the small side instead of sweeping both.
TREE_SKEW = 8


# -- the plans the kernels evaluate (matched by repro.plan.shapes) ------


@dataclass(frozen=True)
class Operand:
    """One side of a comparison: a column reference or a literal."""

    kind: str                 # "col" | "lit"
    alias: str = ""           # "" for a bare (unqualified) column
    column: str = ""
    value: object = None


@dataclass(frozen=True)
class Condition:
    """``left <op> right`` with at least one column operand."""

    left: Operand
    op: str
    right: Operand


@dataclass(frozen=True)
class OutputColumn:
    """A plain column in the select list, with its result-column name."""

    name: str     # what sqlite3 would call the result column
    alias: str    # source table alias ("" when written bare)
    column: str   # source column name


@dataclass(frozen=True)
class JoinShape:
    """A sequenced two-table overlap join the kernels can evaluate."""

    left_table: str
    left_alias: str
    right_table: str
    right_alias: str
    outputs: Tuple[OutputColumn, ...]     # select list minus the validity slot
    valid_at: int                         # where the validity column goes
    valid_name: str
    left_valid: str                       # validity column on the left table
    right_valid: str
    window: Optional[str] = None          # VALIDTIME PERIOD text, sans brackets
    equalities: Tuple[Tuple[str, str], ...] = ()   # (left col, right col)
    cross: Tuple[Condition, ...] = ()     # non-equality cross-side residuals
    left_filters: Tuple[Condition, ...] = ()
    right_filters: Tuple[Condition, ...] = ()

    kind: str = field(default="join", init=False)


@dataclass(frozen=True)
class CoalesceShape:
    """A ``group_union`` coalescing aggregation over one table."""

    table: str
    alias: str
    outputs: Tuple[OutputColumn, ...]     # select list minus the aggregate
    agg_at: int                           # where the aggregate column goes
    agg_name: str
    agg_wrapper: str                      # "" | "length" | "length_seconds"
    agg_column: str
    group_by: Tuple[str, ...]             # column names, select-independent
    filters: Tuple[Condition, ...] = ()

    kind: str = field(default="coalesce", init=False)


@dataclass
class KernelResult:
    """What a kernel hands back to the planner."""

    rows: List[Tuple]
    columns: List[str]
    strategy: str                  # "hash" | "merge" | "tree" | "sweep"
    now_seconds: int
    stats: Dict[str, int] = field(default_factory=dict)


# -- SQLite comparison semantics ---------------------------------------


def _storage_class(value: object) -> int:
    if isinstance(value, (int, float)):
        return 0
    if isinstance(value, str):
        return 1
    return 2  # blob


def sql_compare(left: object, op: str, right: object) -> bool:
    """``left <op> right`` with SQLite's comparison rules.

    NULL comparisons are not true (the WHERE filter drops them); values
    of different storage classes never compare equal and order as
    numeric < text < blob; within a class, ordinary ordering applies
    (so ``1 = 1.0``, just like SQLite's numeric affinity).
    """
    if left is None or right is None:
        return False
    left_class = _storage_class(left)
    right_class = _storage_class(right)
    if left_class != right_class:
        if op == "=":
            return False
        if op == "!=":
            return True
        ordered = left_class < right_class
        return ordered if op in ("<", "<=") else not ordered
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


# -- side preparation ---------------------------------------------------


def _int64(value: object) -> object:
    """A literal as SQLite parsed it: integers past 64 bits are REAL."""
    return float(value) if isinstance(value, int) \
        and not -(1 << 63) <= value < 1 << 63 else value


def _fetch(connection, table: str, columns: List[str], valid: str,
           filters: Sequence[Condition], now_seconds: int):
    """``(rows, grounded, slow_decodes)``: *columns* of the rows passing
    *filters* with *valid*'s unconverted blob appended, that blob's
    grounded pairs per row, and how many blobs took ``codec.decode``.

    Single-side filters run in SQLite with their literals bound: the
    planner's affinity and collation vetoes already make SQLite's
    comparison the kernels' one.  The other columns come back exactly
    as :meth:`~repro.client.connection.TipConnection.query` maps them.
    """
    terms, params = [], []
    for condition in filters:
        sides = []
        for operand in (condition.left, condition.right):
            if operand.kind == "col":
                sides.append(operand.column)
            else:
                sides.append("?")
                params.append(_int64(operand.value))
        terms.append(f"{sides[0]} {condition.op} {sides[1]}")
    where = f" WHERE {' AND '.join(terms)}" if terms else ""
    select = ", ".join(columns + [f"CAST({valid} AS BLOB)"])
    rows = connection.execute(
        f"SELECT {select} FROM {table}{where}", params
    ).fetchall(raw_tail=1)
    return (rows,) + ground_elements([row[-1] for row in rows], now_seconds)


class _Side:
    """One fetched, filtered, grounded join input."""

    __slots__ = ("rows", "pairs", "positions", "fetched", "slow_decodes")

    def __init__(self, rows: List[Tuple], pairs: List[List[Pair]],
                 positions: Dict[str, int], fetched: int,
                 slow_decodes: int) -> None:
        self.rows = rows            # surviving rows, fetch order
        self.pairs = pairs          # grounded validity pairs per row
        self.positions = positions  # column name -> tuple position
        self.fetched = fetched      # rows the fetch returned
        self.slow_decodes = slow_decodes  # blobs grounded via codec.decode


def _columns_for_side(shape: JoinShape, alias: str) -> List[str]:
    """The columns a side's rows carry: outputs, keys and residuals
    (filters run in the fetch; the validity blob is appended)."""
    needed = set()
    for output in shape.outputs:
        if output.alias == alias:
            needed.add(output.column)
    for left_col, right_col in shape.equalities:
        needed.add(left_col if alias == shape.left_alias else right_col)
    for condition in shape.cross:
        for operand in (condition.left, condition.right):
            if operand.kind == "col" and operand.alias == alias:
                needed.add(operand.column)
    return sorted(needed)


def _prepare_side(connection, table: str, columns: List[str], valid: str,
                  filters: Sequence[Condition], now_seconds: int,
                  window_pair: Optional[Pair]) -> _Side:
    fetched, grounded, slow_decodes = _fetch(connection, table, columns,
                                             valid, filters, now_seconds)
    rows: List[Tuple] = []
    pairs: List[List[Pair]] = []
    for row, row_pairs in zip(fetched, grounded):
        if not row_pairs:
            continue  # NULL never joins; an empty element overlaps nothing
        if window_pair is not None and not ia.intersect(
            row_pairs, [window_pair]
        ):
            continue  # VALIDTIME PERIOD prefilter (full element kept)
        rows.append(row)
        pairs.append(row_pairs)
    positions = {name: at for at, name in enumerate(columns)}
    return _Side(rows, pairs, positions, len(fetched), slow_decodes)


# -- candidate generation ----------------------------------------------


def _hash_candidates(shape: JoinShape, left: _Side,
                     right: _Side) -> Tuple[List[int], List[int]]:
    """Equality-bucketed candidates as parallel ``(i, j)`` index lists.

    Each left row hits exactly one bucket and buckets hold ``j`` in
    fetch order, so the pairs come out unique and in (i, j) order with
    no dedup or sort — and the two flat lists feed numpy directly.
    """
    left_keys = [left.positions[col] for col, _ in shape.equalities]
    right_keys = [right.positions[col] for _, col in shape.equalities]
    buckets: Dict[Tuple, List[int]] = {}
    for j, row in enumerate(right.rows):
        key = tuple(row[at] for at in right_keys)
        if any(value is None for value in key):
            continue  # NULL = anything is never true
        # Python's dict groups 1 with 1.0 exactly as SQLite's `=` does;
        # text, blob, and numeric values never collide across classes.
        buckets.setdefault(key, []).append(j)
    i_list: List[int] = []
    j_list: List[int] = []
    for i, row in enumerate(left.rows):
        key = tuple(row[at] for at in left_keys)
        if any(value is None for value in key):
            continue
        bucket = buckets.get(key)
        if bucket:
            j_list.extend(bucket)
            i_list.extend(repeat(i, len(bucket)))
    return i_list, j_list


def _merge_candidates(left: _Side, right: _Side) -> Set[Tuple[int, int]]:
    """Sort-merge interval sweep: all row pairs with overlapping periods."""
    events: List[Tuple[int, int, int, int]] = []  # (start, side, end, row)
    for i, row_pairs in enumerate(left.pairs):
        events.extend((start, 0, end, i) for start, end in row_pairs)
    for j, row_pairs in enumerate(right.pairs):
        events.extend((start, 1, end, j) for start, end in row_pairs)
    events.sort()
    active: Tuple[List[Tuple[int, int]], List[Tuple[int, int]]] = ([], [])
    out: Set[Tuple[int, int]] = set()
    for start, side, end, index in events:
        other = active[1 - side]
        while other and other[0][0] < start:
            heapq.heappop(other)
        if side == 0:
            out.update((index, j) for _, j in other)
        else:
            out.update((i, index) for _, i in other)
        heapq.heappush(active[side], (end, index))
    return out


def _tree_candidates(left: _Side, right: _Side,
                     build_left: bool) -> Set[Tuple[int, int]]:
    """Bulk-build a tree over the small side, probe with the other."""
    small, big = (left, right) if build_left else (right, left)
    tree = IntervalTree.build(
        (start, end, i)
        for i, row_pairs in enumerate(small.pairs)
        for start, end in row_pairs
    )
    out: Set[Tuple[int, int]] = set()
    for j, row_pairs in enumerate(big.pairs):
        for start, end in row_pairs:
            for i in tree.search_overlap(start, end):
                out.add((i, j) if build_left else (j, i))
    return out


# -- vectorized emit (hash strategy, no residuals) ----------------------

#: Candidates per numpy batch; bounds peak array memory, not coverage.
_VECTOR_CHUNK = 1 << 18


def _row_builder(slots: Sequence[Tuple[int, int]]) -> Callable:
    """Compile ``(left_row, right_row, element) -> output tuple`` once.

    *slots* only contains trusted integers from the shape matcher, and
    a dedicated lambda beats a generic per-slot loop run per row.
    """
    parts = []
    for side, position in slots:
        if side == 2:
            parts.append("e")
        else:
            parts.append(f"{'l' if side == 0 else 'r'}[{position}]")
    spec = ", ".join(parts) + ("," if len(parts) == 1 else "")
    return eval(f"lambda l, r, e: ({spec})")  # noqa: S307


def _flatten_pairs(side: _Side):
    """Side validity pairs as flat arrays plus per-row offsets."""
    counts = _np.fromiter((len(p) for p in side.pairs), dtype=_np.int64,
                          count=len(side.pairs))
    offsets = _np.zeros(len(counts) + 1, dtype=_np.int64)
    _np.cumsum(counts, out=offsets[1:])
    flat = _np.fromiter(
        (bound for pairs in side.pairs for pair in pairs for bound in pair),
        dtype=_np.int64, count=int(offsets[-1]) * 2,
    )
    return counts, offsets, flat[0::2], flat[1::2]


def _vector_emit(left: _Side, right: _Side,
                 i_list: List[int], j_list: List[int],
                 window_pair: Optional[Pair],
                 build_row: Callable) -> List[Tuple]:
    """Array-evaluated emit: same rows, same order as the scalar loop.

    Every candidate row pair expands to its period×period combinations;
    one vectorized max/min pass intersects them all, and the surviving
    combinations — already grouped per candidate and in canonical
    order — become each output row's validity element.  Window
    clipping happens after the survival test, so a pair whose shared
    time misses the window still emits (with empty validity), exactly
    like ``restrict(tintersect(...), window)``.
    """
    rows: List[Tuple] = []
    if not i_list:
        return rows
    l_counts, l_offsets, l_starts, l_ends = _flatten_pairs(left)
    if right is left:
        r_counts, r_offsets = l_counts, l_offsets
        r_starts, r_ends = l_starts, l_ends
    else:
        r_counts, r_offsets, r_starts, r_ends = _flatten_pairs(right)
    all_lefts = _np.asarray(i_list, dtype=_np.int64)
    all_rights = _np.asarray(j_list, dtype=_np.int64)
    left_rows, right_rows = left.rows, right.rows
    empty_element = Element._from_canonical_pairs(())
    from_canonical = Element._from_canonical_pairs
    append = rows.append
    for chunk_at in range(0, len(all_lefts), _VECTOR_CHUNK):
        lefts = all_lefts[chunk_at:chunk_at + _VECTOR_CHUNK]
        rights = all_rights[chunk_at:chunk_at + _VECTOR_CHUNK]
        n_right = r_counts[rights]
        combos = l_counts[lefts] * n_right
        bounds = _np.zeros(len(lefts) + 1, dtype=_np.int64)
        _np.cumsum(combos, out=bounds[1:])
        total = int(bounds[-1])
        # which[t] = chunk-local candidate of combination t; k = its
        # combination ordinal, split p-major/q-minor below.
        which = _np.repeat(_np.arange(len(lefts)), combos)
        k = _np.arange(total, dtype=_np.int64) - bounds[:-1][which]
        nj = n_right[which]
        p_at = l_offsets[lefts][which] + k // nj
        q_at = r_offsets[rights][which] + k % nj
        lo = _np.maximum(l_starts[p_at], r_starts[q_at])
        hi = _np.minimum(l_ends[p_at], r_ends[q_at])
        keep = lo <= hi
        which_kept = which[keep]
        if not len(which_kept):
            continue
        lo_kept = lo[keep]
        hi_kept = hi[keep]
        # Candidates that survive, in emit order (which_kept is sorted).
        change = _np.empty(len(which_kept), dtype=bool)
        change[0] = True
        _np.not_equal(which_kept[1:], which_kept[:-1], out=change[1:])
        survivors = which_kept[change]
        if window_pair is not None:
            lo_kept = _np.maximum(lo_kept, window_pair[0])
            hi_kept = _np.minimum(hi_kept, window_pair[1])
            inside = lo_kept <= hi_kept
            which_kept = which_kept[inside]
            lo_kept = lo_kept[inside]
            hi_kept = hi_kept[inside]
        slice_from = _np.searchsorted(which_kept, survivors, "left").tolist()
        slice_to = _np.searchsorted(which_kept, survivors, "right").tolist()
        lo_list = lo_kept.tolist()
        hi_list = hi_kept.tolist()
        survivor_rows = zip(lefts[survivors].tolist(),
                            rights[survivors].tolist(),
                            slice_from, slice_to)
        if window_pair is None:
            # No clipping: every survivor kept at least one pair.
            for i, j, s, e in survivor_rows:
                if e - s == 1:  # by far the common case
                    pairs: Tuple[Pair, ...] = ((lo_list[s], hi_list[s]),)
                else:
                    pairs = tuple(zip(lo_list[s:e], hi_list[s:e]))
                append(build_row(left_rows[i], right_rows[j],
                                 from_canonical(pairs)))
        else:
            for i, j, s, e in survivor_rows:
                if e - s == 1:
                    pairs = ((lo_list[s], hi_list[s]),)
                elif e > s:
                    pairs = tuple(zip(lo_list[s:e], hi_list[s:e]))
                else:
                    pairs = ()  # the window emptied the row's validity
                append(build_row(left_rows[i], right_rows[j],
                                 from_canonical(pairs) if pairs
                                 else empty_element))
    return rows


# -- the kernels --------------------------------------------------------


def execute_join(connection, shape: JoinShape,
                 now_seconds: int) -> KernelResult:
    window_pair = None
    if shape.window is not None:
        from repro.core.parser import parse_period

        window_pair = parse_period(f"[{shape.window}]").ground_pair(
            now_seconds
        )
        if window_pair is None:
            # The window itself is empty: nothing can overlap it.
            return KernelResult([], _join_columns(shape), "empty-window",
                                now_seconds, {"candidates": 0, "fetched_rows": 0,
                                              "slow_decodes": 0})
    left_columns = _columns_for_side(shape, shape.left_alias)
    right_columns = _columns_for_side(shape, shape.right_alias)
    if (shape.left_table == shape.right_table
            and shape.left_valid == shape.right_valid
            and not shape.left_filters and not shape.right_filters):
        # Unfiltered self-join (the temporal-graph path query): fetch
        # and ground the table once, share it between both sides.
        shared_columns = sorted(set(left_columns) | set(right_columns))
        left = right = _prepare_side(
            connection, shape.left_table, shared_columns,
            shape.left_valid, (), now_seconds, window_pair,
        )
    else:
        left = _prepare_side(
            connection, shape.left_table, left_columns,
            shape.left_valid, shape.left_filters, now_seconds, window_pair,
        )
        right = _prepare_side(
            connection, shape.right_table, right_columns,
            shape.right_valid, shape.right_filters, now_seconds,
            window_pair,
        )

    n_left = sum(len(p) for p in left.pairs)
    n_right = sum(len(p) for p in right.pairs)
    pair_iter: Sequence[Tuple[int, int]]
    if shape.equalities:
        strategy = "hash"
        i_list, j_list = _hash_candidates(shape, left, right)
        n_candidates = len(i_list)
        pair_iter = zip(i_list, j_list)  # type: ignore[assignment]
    elif n_left * TREE_SKEW <= n_right or n_right * TREE_SKEW <= n_left:
        strategy = "tree"
        pair_iter = sorted(_tree_candidates(left, right,
                                            build_left=n_left <= n_right))
        n_candidates = len(pair_iter)
    else:
        strategy = "merge"
        pair_iter = sorted(_merge_candidates(left, right))
        n_candidates = len(pair_iter)

    # Assemble: resolve residuals, intersect full elements, clip last —
    # exactly restrict(tintersect(a, b), window)'s order of operations,
    # so a pair whose shared time misses the window still emits a row
    # (with an empty validity), as the naive path does.
    # slots: (side, position) per output slot; side 2 is the validity.
    slots: List[Tuple[int, int]] = []
    cursor = 0
    for at in range(len(shape.outputs) + 1):
        if at == shape.valid_at:
            slots.append((2, 0))
            continue
        output = shape.outputs[cursor]
        cursor += 1
        side = 0 if output.alias == shape.left_alias else 1
        positions = left.positions if side == 0 else right.positions
        slots.append((side, positions[output.column]))

    sides = (left,) if right is left else (left, right)
    stats = {"candidates": n_candidates,
             "left_rows": len(left.rows), "right_rows": len(right.rows),
             "fetched_rows": sum(side.fetched for side in sides),
             "slow_decodes": sum(side.slow_decodes for side in sides)}
    # match() puts a cross condition's left-table column first.
    cross = [(left.positions[condition.left.column], condition.op,
              right.positions[condition.right.column])
             for condition in shape.cross]
    build_row = _row_builder(slots)
    if strategy == "hash" and not cross and _np is not None:
        rows = _vector_emit(left, right, i_list, j_list, window_pair,
                            build_row)
        return KernelResult(rows, _join_columns(shape), strategy,
                            now_seconds, stats)
    rows: List[Tuple] = []
    # Identical intersections share one immutable Element — under a
    # common rush window most candidate pairs intersect to the same few
    # sets, and element construction dominates the emit loop otherwise.
    elements: Dict[Tuple[Pair, ...], Element] = {}
    left_rows, right_rows = left.rows, right.rows
    left_pairs, right_pairs = left.pairs, right.pairs
    intersect = ia.intersect
    for i, j in pair_iter:
        left_row = left_rows[i]
        right_row = right_rows[j]
        if cross and not all(sql_compare(left_row[at], op, right_row[other])
                             for at, op, other in cross):
            continue
        a, b = left_pairs[i], right_pairs[j]
        if len(a) == 1 and len(b) == 1:
            (a_lo, a_hi), (b_lo, b_hi) = a[0], b[0]
            lo = a_lo if a_lo > b_lo else b_lo
            hi = a_hi if a_hi < b_hi else b_hi
            if lo > hi:
                continue
            shared: Tuple[Pair, ...] = ((lo, hi),)
        else:
            shared = tuple(intersect(a, b))
            if not shared:
                continue
        if window_pair is not None:
            shared = tuple(
                ia.restrict(shared, window_pair[0], window_pair[1])
            )
        element = elements.get(shared)
        if element is None:
            element = elements[shared] = \
                Element._from_canonical_pairs(shared)
        rows.append(build_row(left_row, right_row, element))
    return KernelResult(rows, _join_columns(shape), strategy, now_seconds,
                        stats)


def _join_columns(shape: JoinShape) -> List[str]:
    names = [output.name for output in shape.outputs]
    names.insert(shape.valid_at, shape.valid_name)
    return names


def _order_key(value: object):
    """A total order over mixed-type values for deterministic output."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, float(value))
    if isinstance(value, (int, float)):
        return (1, float(value))
    if isinstance(value, str):
        return (2, value)
    if isinstance(value, bytes):
        return (3, value)
    return (4, repr(value))


def execute_coalesce(connection, shape: CoalesceShape,
                     now_seconds: int) -> KernelResult:
    columns = sorted(set(shape.group_by))
    positions = {name: at for at, name in enumerate(columns)}
    fetched, grounded, slow_decodes = _fetch(
        connection, shape.table, columns, shape.agg_column, shape.filters,
        now_seconds)

    group_positions = [positions[col] for col in shape.group_by]
    # A group's key hashes 1 and 1.0 together (dict semantics == SQLite
    # GROUP BY) and keeps NULLs in one group, also like SQLite.
    groups: Dict[Tuple, List[Pair]] = {}
    representative: Dict[Tuple, Tuple] = {}
    for row, row_pairs in zip(fetched, grounded):
        key = tuple(row[at] for at in group_positions)
        pool = groups.get(key)
        if pool is None:
            pool = groups[key] = []
            representative[key] = row
        if row_pairs:  # aggregates ignore NULL, the group still exists
            pool.extend(row_pairs)

    slots = [positions[output.column] for output in shape.outputs]
    rows: List[Tuple] = []
    for key in sorted(groups, key=lambda k: tuple(_order_key(v) for v in k)):
        element = Element.from_pairs(groups[key])
        if shape.agg_wrapper == "length":
            aggregate: object = element.length()
        elif shape.agg_wrapper == "length_seconds":
            aggregate = element.length().seconds
        else:
            aggregate = element
        row = representative[key]
        out: List[object] = []
        cursor = 0
        for at in range(len(shape.outputs) + 1):
            if at == shape.agg_at:
                out.append(aggregate)
            else:
                out.append(row[slots[cursor]])
                cursor += 1
        rows.append(tuple(out))
    columns_out = [output.name for output in shape.outputs]
    columns_out.insert(shape.agg_at, shape.agg_name)
    return KernelResult(
        rows, columns_out, "sweep", now_seconds,
        {"groups": len(groups), "fetched_rows": len(fetched),
         "slow_decodes": slow_decodes},
    )
