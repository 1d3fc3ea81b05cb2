"""Span recording around layer entry points, and self-time analysis.

The benchmark traces from its own files only: :class:`Tracer` replaces
a public function (or method) of the engine with a wrapper that records
one span per call -- name, start, end, parent -- into an in-memory
list.  Nothing inside the program changes; a boundary without a public
function to wrap (UDF marshalling versus the routine body, say) is not
split, and the report labels such figures as combined.

Spans use ``time.perf_counter_ns``, which is CLOCK_MONOTONIC on Linux,
so spans recorded in the server process and in the load process share
one clock.  Recording is off until :meth:`Tracer.start`, so set-up work
done through wrapped functions is not attributed to the timed window.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import Dict, Iterable, List, Tuple

#: span name prefix -> layer it is charged to.
LAYER_OF = {
    "op": "load",
    "client": "client",
    "server": "server",
    "pool": "pool",
    "tsql": "tsql",
    "plan": "plan",
    "engine": "engine",
}

Span = Tuple[int, int, str, int, int]  # (id, parent id, name, start ns, end ns)


class Tracer:
    """Per-thread span stacks feeding one shared span list."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.recording = False
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self) -> None:
        self.recording = True

    def stop(self) -> None:
        self.recording = False

    def open(self, name: str):
        """Begin a span by hand; returns the token :meth:`close` takes."""
        if not self.recording:
            return None
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return (span_id, parent, name, perf_counter_ns())

    def close(self, token) -> None:
        if token is None:
            return
        end = perf_counter_ns()
        span_id, parent, name, begin = token
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        self.spans.append((span_id, parent, name, begin, end))

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            token = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(token)

        traced.__wrapped__ = original
        setattr(owner, attribute, traced)

    def wrap_context(self, owner, attribute: str, enter_name: str,
                     exit_name: str) -> None:
        """Wrap a context-manager factory: span its enter and its exit.

        The body between them is not part of either span, so a pool
        checkout is charged to the pool and the statement it serves to
        the layers that run it.
        """
        original = getattr(owner, attribute)
        tracer = self

        class _Traced:
            __slots__ = ("_inner",)

            def __init__(self, inner) -> None:
                self._inner = inner

            def __enter__(self):
                token = tracer.open(enter_name)
                try:
                    return self._inner.__enter__()
                finally:
                    tracer.close(token)

            def __exit__(self, *exc):
                token = tracer.open(exit_name)
                try:
                    return self._inner.__exit__(*exc)
                finally:
                    tracer.close(token)

        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)
            return _Traced(inner) if tracer.recording else inner

        traced.__wrapped__ = original
        setattr(owner, attribute, traced)

    def dump(self, path: str) -> int:
        """Write the recorded spans as one JSON list; returns the count."""
        spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spans, handle, separators=(",", ":"))
        return len(spans)


def load_spans(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(entry) for entry in json.load(handle)]


def summarize(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive ns and self ns.

    A span's self time is its duration minus the time its direct
    children cover (children never outlive their parent: they are
    strictly nested calls on the same thread).
    """
    spans = list(spans)
    child_ns: Dict[int, int] = defaultdict(int)
    for _, parent, _, begin, end in spans:
        if parent:
            child_ns[parent] += end - begin
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_ns": 0, "self_ns": 0}
    )
    for span_id, _, name, begin, end in spans:
        row = table[name]
        row["calls"] += 1
        row["total_ns"] += end - begin
        row["self_ns"] += end - begin - child_ns.get(span_id, 0)
    return dict(table)


def top_level_ns(spans: Iterable[Span]) -> int:
    """Total duration of the spans that have no parent."""
    return sum(end - begin for _, parent, _, begin, end in spans if not parent)


def layer_self_ns(summary: Dict[str, Dict[str, float]]) -> Dict[str, int]:
    """Self time summed per layer (the first dotted part of a span name)."""
    layers: Dict[str, int] = defaultdict(int)
    for name, row in summary.items():
        layers[LAYER_OF.get(name.split(".", 1)[0], "other")] += row["self_ns"]
    return dict(layers)
