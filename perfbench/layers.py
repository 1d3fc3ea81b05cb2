"""Per-layer metrics of one traced window.

Inputs are the spans recorded around layer entry points (``tracer``),
the engine's own counters and histograms before and after the window
(``repro.obs`` snapshots, read over the METRICS frame for a server),
and the number of operations the window completed.  Times are reported
per operation, in milliseconds; counts per operation unless named as a
ratio.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import tracer as spans_mod

#: name -> (unit, which direction is better) of every per-layer metric
#: measured in the traced window, in report order.
PER_LAYER = {
    "op_ms": ("ms/op", "lower"),
    "self.client_ms": ("ms/op", "lower"),
    "self.wire_ms": ("ms/op", "lower"),
    "self.server_ms": ("ms/op", "lower"),
    "self.pool_ms": ("ms/op", "lower"),
    "self.tsql_ms": ("ms/op", "lower"),
    "self.plan_ms": ("ms/op", "lower"),
    "self.engine_ms": ("ms/op", "lower"),
    "self.blade_ms": ("ms/op", "lower"),
    "self.session_ms": ("ms/op", "lower"),
    "server.frame_ms": ("ms/op", "lower"),
    "server.wire_ms": ("ms/op", "lower"),
    "server.frame_decode_ms": ("ms/op", "lower"),
    "server.row_encode_ms": ("ms/op", "lower"),
    "client.frame_codec_ms": ("ms/op", "lower"),
    "pool.checkout_wait_ms": ("ms/op", "lower"),
    "pool.checkout_waits": ("count/op", "lower"),
    "pool.wal_checkpoints": ("count/op", "lower"),
    "tsql.compile_ms": ("ms/op", "lower"),
    "tsql.cache.hit_ratio": ("ratio", "higher"),
    "plan.shape_match_ms": ("ms/op", "lower"),
    "plan.overhead_ms": ("ms/op", "lower"),
    "plan.kernel_ms": ("ms/op", "lower"),
    "plan.kernel.join": ("count/op", "higher"),
    "plan.kernel.coalesce": ("count/op", "higher"),
    "plan.fallback": ("count/op", "lower"),
    "plan.join.yield": ("ratio", "higher"),
    "plan.coalesce.fetch_yield": ("ratio", "higher"),
    "engine.execute_ms": ("ms/op", "lower"),
    "blade.routine_ms": ("ms/op", "lower"),
    "blade.routine.calls": ("count/op", "lower"),
    "codec.decode.hit_ratio": ("ratio", "higher"),
    "codec.parse.hit_ratio": ("ratio", "higher"),
    "codec.decode.misses": ("count/op", "lower"),
    "element.periods_processed": ("count/op", "lower"),
    "tempagg.sweep.periods_processed": ("count/op", "lower"),
    "index.probes": ("count/op", "lower"),
    "obs.flight.events": ("count/op", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: Counters the count pass records exactly, reported as ``exact.<name>``
#: per-layer metrics, with which direction is better.
EXACT = {
    "tsql.cache.hit": "higher",
    "tsql.cache.miss": "lower",
    "tsql.cache.evict": "lower",
    "plan.kernel.join": "higher",
    "plan.kernel.coalesce": "higher",
    "plan.fallback.shape": "lower",
    "plan.fallback.small": "lower",
    "plan.fallback.schema": "lower",
    "plan.join.candidates": "lower",
    "plan.strategy.hash": "higher",
    "plan.strategy.tree": "higher",
    "plan.strategy.merge": "higher",
    "plan.strategy.sweep": "higher",
    "element.periods_processed": "lower",
    "tempagg.sweep.periods_processed": "lower",
    "index.probes": "lower",
    "codec.cache.decode.hits": "higher",
    "codec.cache.decode.misses": "lower",
    "codec.cache.decode.evictions": "lower",
    "codec.cache.parse.hits": "higher",
    "codec.cache.parse.misses": "lower",
    "codec.cache.parse.evictions": "lower",
    "server.rows_returned": "higher",
}


class Delta:
    """Counter and histogram differences between two obs snapshots."""

    def __init__(self, before: dict, after: dict) -> None:
        self.counters: Dict[str, float] = {}
        old = before.get("counters", {})
        for name, value in after.get("counters", {}).items():
            self.counters[name] = value - old.get(name, 0)
        self.sums: Dict[str, float] = {}
        old_h = before.get("histograms", {})
        for name, hist in after.get("histograms", {}).items():
            self.sums[name] = hist["sum"] - old_h.get(name, {}).get("sum", 0.0)

    def count(self, name: str) -> float:
        return self.counters.get(name, 0)

    def count_matching(self, prefix: str, suffix: str = "") -> float:
        return sum(value for name, value in self.counters.items()
                   if name.startswith(prefix) and name.endswith(suffix))

    def seconds_matching(self, prefix: str, suffix: str = ".seconds",
                         exclude=()) -> float:
        return sum(value for name, value in self.sums.items()
                   if name.startswith(prefix) and name.endswith(suffix)
                   and not any(name.startswith(skip) for skip in exclude))


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    ops: int,
    client_spans: List,
    server_spans: Optional[List],
    delta: Delta,
    *,
    flight_events: int,
    untraced_ops_s: float,
    traced_ops_s: float,
    join_rows: int,
    coalesce_passing: int,
    coalesce_fetched: int,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced window."""
    client = spans_mod.summarize(client_spans)
    server = spans_mod.summarize(server_spans or [])
    both = {}
    for table in (client, server):
        for name, row in table.items():
            merged = both.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            for key in merged:
                merged[key] += row[key]

    def total_ms(*names: str) -> float:
        return sum(both.get(name, {}).get("total_ns", 0) for name in names) / 1e6 / ops

    per_op = 1.0 / ops
    blade_s = (delta.seconds_matching("blade.routine.")
               + delta.seconds_matching("blade.aggregate."))
    layer_ns = spans_mod.layer_self_ns(client)
    for name, value in spans_mod.layer_self_ns(server).items():
        layer_ns[name] = layer_ns.get(name, 0) + value
    op_self_ns = layer_ns.pop("load", 0)
    if server_spans is not None:
        wire_ns = op_self_ns - spans_mod.top_level_ns(server_spans)
        session_ns = 0
    else:
        wire_ns, session_ns = 0, op_self_ns
    engine_ns = layer_ns.get("engine", 0) - blade_s * 1e9
    metrics = {
        "op_ms": total_ms("op"),
        "self.client_ms": layer_ns.get("client", 0) / 1e6 * per_op,
        "self.wire_ms": wire_ns / 1e6 * per_op,
        "self.server_ms": layer_ns.get("server", 0) / 1e6 * per_op,
        "self.pool_ms": layer_ns.get("pool", 0) / 1e6 * per_op,
        "self.tsql_ms": layer_ns.get("tsql", 0) / 1e6 * per_op,
        "self.plan_ms": layer_ns.get("plan", 0) / 1e6 * per_op,
        "self.engine_ms": engine_ns / 1e6 * per_op,
        "self.blade_ms": blade_s * 1e3 * per_op,
        "self.session_ms": session_ns / 1e6 * per_op,
        "server.frame_ms": delta.seconds_matching(
            "server.frame.", exclude=("server.frame.metrics", "server.frame.flight"))
        * 1e3 * per_op,
        "server.wire_ms": wire_ns / 1e6 * per_op,
        "server.frame_decode_ms": total_ms("server.frame_decode", "server.param_decode"),
        "server.row_encode_ms": total_ms("server.row_encode"),
        "client.frame_codec_ms": total_ms("client.frame_codec"),
        "pool.checkout_wait_ms": delta.seconds_matching(
            "server.pool.checkout.wait_seconds", suffix="") * 1e3 * per_op,
        "pool.checkout_waits": delta.count("server.pool.checkout.waits") * per_op,
        "pool.wal_checkpoints": delta.count("server.wal.checkpoints") * per_op,
        "tsql.compile_ms": total_ms("tsql.compile"),
        # Statements that skipped translation: cache hits and prepared
        # handles alike, so a workload that never compiles reads 1.
        "tsql.cache.hit_ratio": 1.0 - delta.count("tsql.cache.miss") * per_op,
        "plan.shape_match_ms": total_ms("plan.shape_match"),
        "plan.overhead_ms": total_ms("plan.planner") - total_ms("plan.kernel"),
        "plan.kernel_ms": total_ms("plan.kernel"),
        "plan.kernel.join": delta.count("plan.kernel.join") * per_op,
        "plan.kernel.coalesce": delta.count("plan.kernel.coalesce") * per_op,
        "plan.fallback": delta.count_matching("plan.fallback.") * per_op,
        "plan.join.yield": ratio(join_rows, delta.count("plan.join.candidates")),
        "plan.coalesce.fetch_yield": ratio(coalesce_passing, coalesce_fetched),
        "engine.execute_ms": total_ms("engine.execute", "engine.fetch"),
        "blade.routine_ms": blade_s * 1e3 * per_op,
        "blade.routine.calls": delta.count_matching("blade.routine.", ".calls") * per_op,
        "codec.decode.hit_ratio": ratio(
            delta.count("codec.cache.decode.hits"),
            delta.count("codec.cache.decode.hits") + delta.count("codec.cache.decode.misses")),
        "codec.parse.hit_ratio": ratio(
            delta.count("codec.cache.parse.hits"),
            delta.count("codec.cache.parse.hits") + delta.count("codec.cache.parse.misses")),
        "codec.decode.misses": delta.count("codec.cache.decode.misses") * per_op,
        "element.periods_processed": delta.count("element.periods_processed") * per_op,
        "tempagg.sweep.periods_processed":
            delta.count("tempagg.sweep.periods_processed") * per_op,
        "index.probes": delta.count("index.probes") * per_op,
        "obs.flight.events": flight_events * per_op,
        "trace.overhead_ratio": ratio(untraced_ops_s, traced_ops_s),
    }
    return metrics


def exact_metrics(counts: Dict[str, int]) -> Dict[str, int]:
    return {f"exact.{name}": counts.get(name, 0) for name in EXACT}


def per_layer_specs() -> Dict[str, tuple]:
    """name -> (unit, better) of every per-layer metric, in report order."""
    specs = dict(PER_LAYER)
    specs.update({f"exact.{name}": ("count", better) for name, better in EXACT.items()})
    return specs
