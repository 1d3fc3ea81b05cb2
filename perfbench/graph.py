"""``graph-analytics``: set-based temporal analytics, embedded.

One caller runs unparameterised tSQL through ``repro.connect`` plus a
``TsqlSession`` -- no server, no wire -- over a seeded temporal graph of
5,000 edges on 250 nodes and a 400-row ``watch`` table of short
intervals.  Each cycle runs six analytic statements once each: the
full path join, a windowed path join and a label-filtered path join
(hash strategy), a skewed watch x edges join (tree), an equality-free
one of balanced sides (merge) and the per-node coalesce (sweep).  Each
is followed by a drill-down into nodes: an ad hoc point read of the
node's edges in a fresh time window, which misses the statement cache
and pays tSQL translation, and a visit-counter write from a fixed set.
The analytic statements and the writes always hit the statement cache.
Every result is checked against answers computed from the generated
edges.
"""

from __future__ import annotations

import itertools
import random
import statistics
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Dict, List, Optional

import checks
import layers
from common import Window, peak_rss_mb, reset_peak_rss
from launcher import install_engine_spans
from tracer import Tracer

import repro
from repro import codec, obs
from repro.client.connection import TipCursor
from repro.core.chronon import Chronon
from repro.core.element import Element
from repro.core.period import Period
from repro.obs import flight
from repro.obs.registry import MetricsRegistry, set_registry
from repro.plan import kernels, planner, shapes
from repro.tsql import compiled
from repro.tsql.preprocessor import TsqlSession
from repro.workload.graphs import (
    GraphConfig, coalesce_query, generate_edges, load_graph, path_query,
    windowed_path_query,
)

N_NODES = 250
#: The drill-down after each analytic statement: the analyst opens
#: this many nodes (a point read of the node's edges in a time window)
#: and each open bumps the node's visit counter (a write).  Sixteen
#: gives each class over 3,000 samples in a 30-second window, enough
#: for its p99 to rest on 30 or more.
DRILL_DOWN = 16


@dataclass(frozen=True)
class WatchRow:
    id: int
    node: int
    valid: Element


@dataclass
class Statement:
    kind: str          # "analytic" | "read" | "write"
    sql: str
    reference: object = None   # analytic: filled in before the set-ups
    lookup: Optional[tuple] = None   # read: (src, window)


class GraphSpec:
    """Edges, watch rows and the statements of one seed."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.edges = generate_edges(GraphConfig(n_nodes=N_NODES, n_edges=5_000, seed=seed))
        rng = random.Random(f"graph-{seed}")
        low = Chronon.parse("1995-01-01").seconds
        high = Chronon.parse("1999-11-30").seconds
        # Ten-day observation windows on an even grid, jittered by the
        # seed; ids stride the grid, so any id prefix spans the years
        # and the joins' sizes barely move from seed to seed.
        slot = (high - low) // 400
        self.watch = []
        for at in range(400):
            start = low + (at * 53 % 400) * slot + rng.randrange(slot // 2)
            self.watch.append(WatchRow(at, rng.randrange(N_NODES),
                                       Element.from_pairs([(start, start + 10 * 86_400)])))
        self.window = "1997-01-01, 1997-06-30"
        self.label = "cites"
        self.analytic = [
            Statement("analytic", path_query()),
            Statement("analytic", windowed_path_query(self.window)),
            Statement("analytic", "VALIDTIME SELECT e1.src, e1.dst, e2.dst FROM edges AS e1, "
                                  f"edges AS e2 WHERE e1.dst = e2.src AND e1.label = '{self.label}'"),
            Statement("analytic", "VALIDTIME SELECT w.id, e.src, e.dst FROM watch AS w, "
                                  "edges AS e WHERE w.id < 8"),
            Statement("analytic", "VALIDTIME SELECT w.id, e.src, e.dst FROM watch AS w, "
                                  "edges AS e WHERE e.src < 10"),
            Statement("analytic", coalesce_query()),
        ]
        # 64 nodes a drill-down may open: each open reads the node's
        # edges in a window of its own, so the read's text is new every
        # time, and bumps the node's visit counter.
        self.low, self.high = low, high
        self.nodes = rng.sample(range(N_NODES), 64)
        self.writes = [Statement("write", "UPDATE node_stats SET visits = visits + 1 "
                                          f"WHERE node = {node}") for node in self.nodes]
        self.out_edges: Dict[int, list] = {}
        for edge in self.edges:
            self.out_edges.setdefault(edge.src, []).append(edge)

    def read(self, rng: random.Random, src: int) -> Statement:
        """An ad hoc point read: *src*'s edges overlapping a fresh window."""
        start = rng.randrange(self.low, self.high)
        window = Element.from_pairs([(start, start + rng.randrange(30, 365) * 86_400)])
        return Statement("read", f"SELECT dst, label, valid FROM edges WHERE src = {src} "
                                 f"AND overlaps(valid, element('{window}'))",
                         lookup=(src, window))

    def ops(self):
        """The seeded stream of ``(cycle, statement)``: the warm-up runs
        every fixed statement once and opens every node once, then come
        numbered cycles of the analytic statements, each followed by its
        drill-down."""
        rng = random.Random(f"graph-{self.seed}-ops")
        for statement in self.analytic + self.writes:
            yield None, statement
        for node in self.nodes:
            yield None, self.read(rng, node)
        for cycle in itertools.count():
            for statement in self.analytic:
                yield cycle, statement
                for _ in range(DRILL_DOWN):
                    at = rng.randrange(len(self.nodes))
                    yield cycle, self.read(rng, self.nodes[at])
                    yield cycle, self.writes[at]

    def warm_length(self) -> int:
        return len(self.analytic) + len(self.writes) + len(self.nodes)

    def fill_references(self) -> None:
        """Expected answers, computed from the generated rows."""
        edges, watch = self.edges, self.watch
        window = Period.parse(f"[{self.window}]")
        answers = [
            checks.path_rows(edges),
            checks.path_rows(edges, window=window),
            checks.path_rows(edges, label=self.label),
            checks.watch_rows(watch, edges, watch_ids=8),
            checks.watch_rows(watch, edges, max_src=10),
            checks.uptime_rows(edges),
        ]
        for statement, rows in zip(self.analytic, answers):
            statement.reference = (len(rows), digest(rows))

    def expected(self, statement: Statement) -> object:
        if statement.lookup is None:
            return statement.reference
        src, window = statement.lookup
        return digest(checks.lookup_rows(self.out_edges.get(src, []), src, window))


def digest(rows) -> int:
    """Order-independent fingerprint of a result multiset."""
    total = 0
    for row in rows:
        total += hash(tuple(tuple(value.ground_pairs(0)) if isinstance(value, Element)
                            else value for value in row))
    return total & 0xFFFF_FFFF_FFFF_FFFF


def reset_process_state() -> None:
    """Cold caches and a fresh registry: each set-up starts like a new
    process, so its count pass repeats exactly."""
    codec.clear_caches(reset_stats=True)
    compiled.clear_cache(reset_stats=True)
    planner.clear_caches()
    set_registry(MetricsRegistry())


def exact_counts() -> Dict[str, int]:
    counts = dict(obs.get_registry().snapshot()["counters"])
    counts.update(codec.cache.stats_counters())
    counts.update(compiled.stats_counters())
    return counts


class GraphInstance:
    """One embedded database, loaded, warmed and count-passed."""

    def __init__(self, spec: GraphSpec) -> None:
        self.spec = spec
        reset_process_state()
        started = perf_counter()
        self.connection = repro.connect(":memory:")
        load_graph(self.connection, spec.edges)
        self.connection.execute("CREATE TABLE watch (id INTEGER, node INTEGER, valid ELEMENT)")
        self.connection.executemany("INSERT INTO watch VALUES (?, ?, ?)",
                                    [(row.id, row.node, row.valid) for row in spec.watch])
        self.connection.execute("CREATE TABLE node_stats "
                                "(node INTEGER PRIMARY KEY, visits INTEGER)")
        self.connection.executemany("INSERT INTO node_stats VALUES (?, 0)",
                                    [(node,) for node in range(N_NODES)])
        self.connection.commit()
        self.session = TsqlSession(self.connection)
        self.stream = spec.ops()
        self.log: List[tuple] = []
        self.counts = self._count_pass()
        self.setup_seconds = perf_counter() - started

    def _count_pass(self) -> Dict[str, int]:
        """The warm-up, with the engine's counters and flight recorder on;
        kernel strategies are counted from the recorder's ``plan.kernel``
        events, in a ring large enough to hold every event of the pass."""
        recorder = flight.FlightRecorder(capacity=1 << 20)
        previous = flight.set_recorder(recorder)
        obs.enable()
        flight.enable()
        try:
            before = exact_counts()
            for _ in range(self.spec.warm_length()):
                self.run(next(self.stream)[1])
            after = exact_counts()
        finally:
            flight.disable()
            obs.disable()
            flight.set_recorder(previous)
        counts = {name: value - before.get(name, 0) for name, value in after.items()
                  if value != before.get(name, 0)}
        for event in recorder.events(kind="plan.kernel"):
            name = f"plan.strategy.{event.data.get('strategy')}"
            counts[name] = counts.get(name, 0) + 1
        return counts

    def run(self, statement: Statement) -> int:
        """Execute, fingerprint and log one statement; its row count."""
        rows = self.session.query(statement.sql)
        if statement.kind == "write":
            self.connection.commit()
            self.log.append((statement, None))
            return 0
        if statement.kind == "analytic":
            self.log.append((statement, (len(rows), digest(rows))))
        else:
            self.log.append((statement, digest(rows)))
        return len(rows)

    def timed(self, seconds: float, tracer: Optional[Tracer] = None) -> Window:
        """Whole cycles in a closed loop until *seconds* have passed, so
        every analytic statement runs equally often.

        Checker bookkeeping is excluded: samples and CPU readings sit on
        clocks that stop while the checker works.
        """
        window = Window()
        session, connection = self.session, self.connection
        log = self.log
        excluded_wall = excluded_cpu = 0.0
        reset_peak_rss()
        began = perf_counter()
        window.open(began, process_time())
        current = None
        while True:
            cycle, statement = next(self.stream)
            start = perf_counter()
            if cycle != current:
                busy = start - excluded_wall
                if current is not None and busy >= began + seconds:
                    window.close(busy, process_time() - excluded_cpu)
                    self.peak_rss_mb = peak_rss_mb()
                    return window
                current = cycle
            token = tracer.open("op") if tracer is not None else None
            rows = session.query(statement.sql)
            if statement.kind == "write":
                connection.commit()
            end = perf_counter()
            if tracer is not None:
                tracer.close(token)
            window.add(statement.kind, start - excluded_wall, end - excluded_wall, len(rows))
            cpu_mark = process_time()
            if statement.kind == "analytic":
                log.append((statement, (len(rows), digest(rows))))
            elif statement.kind == "read":
                log.append((statement, digest(rows)))
            else:
                log.append((statement, None))
            del rows
            excluded_cpu += process_time() - cpu_mark
            excluded_wall += perf_counter() - end

    def check(self) -> int:
        """Compare every logged answer with the reference; failures."""
        failures = 0
        writes: Dict[str, int] = {}
        for statement, answer in self.log:
            if statement.kind == "write":
                writes[statement.sql] = writes.get(statement.sql, 0) + 1
            else:
                failures += answer != self.spec.expected(statement)
        expected = {}
        for statement in self.spec.writes:
            node = int(statement.sql.rsplit("=", 1)[1])
            expected[node] = writes.get(statement.sql, 0)
        visits = dict(self.connection.query("SELECT node, visits FROM node_stats"))
        failures += any(visits[node] != count for node, count in expected.items())
        failures += sum(visits.values()) != sum(expected.values())
        return failures

    def close(self) -> None:
        self.connection.close()


def install_spans(tracer: Tracer) -> None:
    """The embedded statement path: compile, plan, kernels, SQLite."""
    tracer.wrap(compiled, "compile_statement", "tsql.compile")
    tracer.wrap(shapes, "match", "plan.shape_match")
    tracer.wrap(planner, "maybe_execute_kernel", "plan.planner")
    tracer.wrap(kernels, "execute_join", "plan.kernel")
    tracer.wrap(kernels, "execute_coalesce", "plan.kernel")
    install_engine_spans(tracer, TipCursor)


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Every set-up ends with its count pass.  Untraced: five set-ups
    (their median is ``setup_s``), the third of them timed; traced:
    three, the second timed untraced and the third traced, half the
    time each.  Each instance is checked and closed as soon as it is
    done with."""
    spec = GraphSpec(seed)
    spec.fill_references()
    setups: List[float] = []
    count_pass: Dict[str, Dict[str, int]] = {}
    tally = {"attempted": 0, "failed": 0}

    def launch(slot: str) -> GraphInstance:
        instance = GraphInstance(spec)
        setups.append(instance.setup_seconds)
        count_pass[slot] = instance.counts
        return instance

    def finish(instance: GraphInstance) -> None:
        tally["failed"] += instance.check()
        tally["attempted"] += len(instance.log)
        instance.close()

    meta: Dict[str, object] = {}
    if not trace:
        # Two set-ups before the timed one and two after it: the host's
        # speed shifts over tens of seconds, and set-ups spread over the
        # run give a median that one slow stretch cannot set.
        for slot in ("setup1", "setup2"):
            finish(launch(slot))
        instance = launch("timed")
        window = instance.timed(seconds)
        finish(instance)
        for slot in ("setup4", "setup5"):
            finish(launch(slot))
        metrics = window.end_to_end()
        metrics["peak_rss_mb"] = instance.peak_rss_mb
        metrics["setup_s"] = statistics.median(setups)
        meta["samples"] = window.sample_counts()
        meta["slices"] = window.slices()
        meta["host_steal_s"] = window.steal
    else:
        finish(launch("setup1"))
        instance = launch("untraced")
        untraced = instance.timed(seconds / 2)
        finish(instance)
        instance = launch("traced")
        tracer = Tracer()
        install_spans(tracer)
        obs.enable()
        before = obs.get_registry().snapshot()
        codec_before = {**codec.cache.stats_counters(), **compiled.stats_counters()}
        tracer.start()
        window = instance.timed(seconds / 2, tracer)
        tracer.stop()
        after = obs.get_registry().snapshot()
        obs.disable()
        codec_after = {**codec.cache.stats_counters(), **compiled.stats_counters()}
        before["counters"].update(codec_before)
        after["counters"].update(codec_after)
        timed_log = instance.log[-window.ops:]
        join_rows = sum(answer[0] for statement, answer in timed_log
                        if statement.sql.startswith("VALIDTIME"))
        # The coalesce has no WHERE: every fetched row passes.
        fetched = sum(len(spec.edges) for statement, _ in timed_log
                      if statement.sql == coalesce_query())
        finish(instance)
        metrics = layers.layer_metrics(
            window.ops, tracer.spans, None, layers.Delta(before, after),
            flight_events=0, untraced_ops_s=untraced.ops / untraced.seconds,
            traced_ops_s=window.ops / window.seconds, join_rows=join_rows,
            coalesce_passing=fetched, coalesce_fetched=fetched,
        )
        metrics.update(layers.exact_metrics(count_pass["setup1"]))
        meta["samples"] = {"untraced_ops": untraced.ops}
    first = count_pass["setup1"]
    repeatable = all(counts == first for counts in count_pass.values())
    meta.update(count_pass=count_pass, count_pass_repeatable=repeatable, setups_s=setups)
    return {"correct": repeatable, "attempted": tally["attempted"],
            "failed": tally["failed"] + (not repeatable), "metrics": metrics, "meta": meta}
