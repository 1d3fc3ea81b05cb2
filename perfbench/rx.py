"""The two server workloads over the Prescription table.

``rx-oltp``   2 connections, prepared statements only, reads next to
              writes over 20,000 rows (more element blobs than the
              decode cache holds).
``rx-browse`` 1 connection under a NOW override sending ad hoc
              statements whose literal text changes on every call, over
              2,000 rows (a working set every codec cache holds).

Both run a TipServer in its own process (``launcher.py``) and drive it
over the wire in closed loops: a client sends its next statement only
after the previous one has returned.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import threading
from collections import deque
from dataclasses import dataclass, field
from datetime import date, timedelta
from time import perf_counter
from typing import Dict, List, Optional

import checks
import layers
from common import ServerHandle, Window, fresh_dir
from tracer import Tracer, load_spans

from repro.core.element import Element
from repro.core.instant import Instant
from repro.core.period import Period
from repro.core.span import Span
from repro.errors import TipError
from repro.obs import flight
from repro.server import protocol
from repro.server.client import RemoteTipConnection
from repro.workload.medical import (
    DOCTORS, DRUGS, PRESCRIPTION_DDL, MedicalConfig, generate_prescriptions,
)

#: Counters the count pass records exactly (prefix match).
COUNTED = (
    "tsql.cache.", "plan.kernel.", "plan.fallback.", "plan.join.candidates",
    "element.periods_processed", "tempagg.sweep.periods_processed",
    "index.probes", "codec.cache.", "server.rows_returned",
)

READ_KINDS = ("point", "snapshot", "validtime")
WRITE_KINDS = ("insert", "delete")


def op_class(kind: str) -> str:
    if kind in READ_KINDS:
        return "read"
    if kind in WRITE_KINDS:
        return "write"
    return "analytic"


@dataclass
class Op:
    kind: str
    patient: str
    params: tuple = ()
    variant: int = 0
    sql: str = ""
    instant: Optional[Instant] = None
    period: Optional[Period] = None
    sampled: bool = False


@dataclass
class Client:
    """One connection, its operation stream and what it logged."""

    connection: RemoteTipConnection
    ops: object
    statements: Dict = field(default_factory=dict)
    log: list = field(default_factory=list)

    def run(self, op: Op):
        """Execute *op*; ``(rows, rowcount, statement_now, error)``."""
        try:
            if op.sql:
                result = self.connection.execute(op.sql)
            else:
                result = self.statements[(op.kind, op.variant)].execute(op.params)
        except (TipError, OSError) as exc:
            return [], -1, None, f"{type(exc).__name__}: {exc}"
        return result.rows, result.rowcount, result.statement_now, None


def day_text(day: date) -> str:
    return day.isoformat()


# -- operation streams -------------------------------------------------------


class RxSpec:
    """Everything generated from the seed for one rx workload."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        if name == "rx-oltp":
            config = MedicalConfig(n_prescriptions=20_000, n_patients=2_000, seed=seed)
            self.n_clients = 2
            self.now_override = None
            self.warm_ops = 150
        else:
            config = MedicalConfig(n_prescriptions=2_000, n_patients=200, seed=seed)
            self.n_clients = 1
            self.now_override = "1999-12-01"
            self.warm_ops = 200
        self.rows = generate_prescriptions(config)
        self.patients = sorted({row.patient for row in self.rows})
        self.dob = {row.patient: row.patient_dob for row in self.rows}
        self.rows_per_patient: Dict[str, int] = {}
        for row in self.rows:
            self.rows_per_patient[row.patient] = self.rows_per_patient.get(row.patient, 0) + 1
        rng = random.Random(f"{name}-{seed}-literals")
        base = date(1990, 1, 1)
        self.snapshot_days = [day_text(base + timedelta(days=rng.randrange(3600)))
                              for _ in range(4)]
        self.periods = []
        for _ in range(4):
            start = base + timedelta(days=rng.randrange(3400))
            self.periods.append((day_text(start),
                                 day_text(start + timedelta(days=rng.randrange(30, 200)))))
        # Parameter windows of the point read: few enough to stay decoded.
        self.windows = [self._window(rng, 30, 180) for _ in range(64)]

    @staticmethod
    def _window(rng: random.Random, low: int, high: int) -> Element:
        start = date(1990, 1, 1) + timedelta(days=rng.randrange(3500))
        end = start + timedelta(days=rng.randrange(low, high))
        return Element.parse(f"{{[{day_text(start)}, {day_text(end)}]}}")

    def owned(self, client: int) -> List[str]:
        return self.patients[client::self.n_clients]

    def prepared_sql(self) -> Dict:
        statements = {
            ("point", 0): "SELECT drug, dosage, valid FROM Prescription "
                          "WHERE patient = ? AND overlaps(valid, ?)",
            ("coalesce", 0): "SELECT patient, length_seconds(group_union(valid)) "
                             "FROM Prescription WHERE patient = ? GROUP BY patient",
            ("insert", 0): "INSERT INTO Prescription VALUES (?, ?, ?, ?, ?, ?, ?)",
            ("delete", 0): "UPDATE Prescription SET valid = tdifference(valid, ?) "
                           "WHERE patient = ? AND overlaps(valid, ?)",
        }
        for at, day in enumerate(self.snapshot_days):
            statements[("snapshot", at)] = (
                f"SNAPSHOT AT '{day}' SELECT drug, dosage FROM Prescription "
                f"WHERE patient = ?")
        for at, (start, end) in enumerate(self.periods):
            statements[("validtime", at)] = (
                f"VALIDTIME PERIOD '{start}, {end}' SELECT drug, dosage "
                f"FROM Prescription WHERE patient = ?")
        return statements

    def oltp_ops(self, client: int):
        """Prepared-statement mix: 79% reads, 19% writes, 2% coalesce."""
        rng = random.Random(f"{self.name}-{self.seed}-client{client}")
        patients = self.owned(client)
        for kind in blocks(rng, OLTP_MIX):
            patient = rng.choice(patients)
            if kind == "point":
                yield Op(kind, patient, (patient, rng.choice(self.windows)))
            elif kind == "snapshot":
                at = rng.randrange(4)
                yield Op(kind, patient, (patient,), at,
                         instant=Instant.parse(self.snapshot_days[at]))
            elif kind == "validtime":
                at = rng.randrange(4)
                yield Op(kind, patient, (patient,), at,
                         period=Period.parse("[{}, {}]".format(*self.periods[at])))
            elif kind == "coalesce":
                yield Op(kind, patient, (patient,))
            elif kind == "insert":
                start = date(1995, 1, 1) + timedelta(days=rng.randrange(1800))
                valid = Element.parse(f"{{[{day_text(start)}, NOW]}}")
                yield Op(kind, patient, (
                    rng.choice(DOCTORS), patient, self.dob[patient], rng.choice(DRUGS),
                    rng.choice((1, 2, 3, 4)), Span.of(hours=rng.choice((6, 8, 12))),
                    valid))
            else:
                cut = self._window(rng, 7, 60)
                yield Op(kind, patient, (cut, patient, cut))

    def browse_ops(self):
        """Ad hoc statements over a sliding window: 70% reads, 25% what-if
        edits, 5% per-patient coalesce; one read in four is checked.

        An edit inserts a hypothetical NOW-relative prescription or
        retracts the oldest one still in the table, so the table keeps
        its size instead of drifting over the window.
        """
        rng = random.Random(f"{self.name}-{self.seed}-browse")
        sample = random.Random(f"{self.name}-{self.seed}-sample")
        base = date(1990, 1, 1)
        pending = deque()
        for step, kind in enumerate(blocks(rng, BROWSE_MIX), 1):
            start = base + timedelta(days=(step * 3 + rng.randrange(3)) % 3500)
            end = start + timedelta(days=rng.randrange(20, 120))
            a, b = day_text(start), day_text(end)
            patient = rng.choice(self.patients)
            if kind == "validtime":
                sql = (f"VALIDTIME PERIOD '{a}, {b}' SELECT drug, dosage "
                       f"FROM Prescription WHERE patient = '{patient}'")
            elif kind == "point":
                sql = (f"SELECT drug, dosage, valid FROM Prescription "
                       f"WHERE patient = '{patient}' AND overlaps(valid, '{{[{a}, {b}]}}')")
            elif kind == "snapshot":
                sql = (f"SNAPSHOT AT '{a}' SELECT drug, dosage FROM Prescription "
                       f"WHERE patient = '{patient}'")
            elif kind == "coalesce":
                sql = (f"SELECT patient, length_seconds(group_union(valid)) "
                       f"FROM Prescription WHERE patient = '{patient}' GROUP BY patient")
            elif kind == "insert":
                pending.append(f"what-if-{step}")
                sql = (f"INSERT INTO Prescription VALUES ('{pending[-1]}', '{patient}', "
                       f"chronon('{self.dob[patient]}'), '{rng.choice(DRUGS)}', "
                       f"{rng.choice((1, 2, 3, 4))}, span('0 {rng.choice((6, 8, 12)):02d}:00:00'), "
                       f"element('{{[{a}, NOW]}}'))")
            else:
                doctor = pending.popleft() if pending else "what-if-none"
                sql = f"DELETE FROM Prescription WHERE doctor = '{doctor}'"
            op = Op(kind, patient, sql=sql)
            op.sampled = op_class(kind) != "read" or sample.random() < 0.25
            yield op


def blocks(rng: random.Random, mix: Dict[str, int]):
    """Operation kinds forever, in shuffled blocks holding exactly *mix*:
    every stretch of a few blocks has the workload's composition, so a
    slice of the timed window measures the same mix as the whole."""
    block = [kind for kind, count in mix.items() for _ in range(count)]
    while True:
        rng.shuffle(block)
        yield from block


#: Operations per block of 100 (rx-oltp) and of 40 (rx-browse).  The
#: write shares are set so that a 30-second window holds over 3,000
#: writes, and a write p99 rests on 30 samples or more.
OLTP_MIX = {"point": 40, "snapshot": 20, "validtime": 19, "coalesce": 2,
            "insert": 9, "delete": 10}
BROWSE_MIX = {"validtime": 9, "point": 10, "snapshot": 9, "coalesce": 2, "insert": 5,
              "delete": 5}


# -- one server instance -------------------------------------------------------


def counter_values(snapshot: dict) -> Dict[str, float]:
    return snapshot["metrics"].get("counters", {})


def counted(before: dict, after: dict) -> Dict[str, int]:
    """Exact counter deltas for the :data:`COUNTED` families."""
    old, new = counter_values(before), counter_values(after)
    return {name: int(new[name] - old.get(name, 0)) for name in sorted(new)
            if name.startswith(COUNTED) and new[name] != old.get(name, 0)}


class RxInstance:
    """One launched server, loaded, warmed and count-passed."""

    def __init__(self, spec: RxSpec, slot: str, traced: bool = False) -> None:
        self.spec = spec
        started = perf_counter()
        directory = fresh_dir(spec.name, slot)
        self.server = ServerHandle(os.path.join(directory, "rx.db"), traced=traced)
        try:
            self.admin = self.connect()
            self.admin.execute(PRESCRIPTION_DDL.format(table="Prescription"))
            self.admin.executemany(
                "INSERT INTO Prescription VALUES (?, ?, ?, ?, ?, ?, ?)",
                [row.as_params() for row in spec.rows],
            )
            self.admin.execute("CREATE INDEX rx_patient ON Prescription (patient)")
            self.clients = [self._client(at) for at in range(spec.n_clients)]
            self.counts = self._count_pass()
        except BaseException:
            self.close()
            raise
        self.setup_seconds = perf_counter() - started

    def connect(self) -> RemoteTipConnection:
        return RemoteTipConnection("127.0.0.1", self.server.port, timeout=60.0)

    def _client(self, at: int) -> Client:
        connection = self.connect()
        if self.spec.name == "rx-oltp":
            client = Client(connection, self.spec.oltp_ops(at))
            for key, sql in self.spec.prepared_sql().items():
                client.statements[key] = connection.prepare(sql)
        else:
            connection.set_now(self.spec.now_override)
            client = Client(connection, self.spec.browse_ops())
        return client

    def _count_pass(self) -> Dict[str, int]:
        """The warm-up: a fixed seeded prefix of every client's stream,
        run one client after the other, with exact counter deltas."""
        before = self.admin.metrics()
        seq_before = self.flight_seq()
        for client in self.clients:
            for _ in range(self.spec.warm_ops):
                op = next(client.ops)
                client.log.append((op,) + client.run(op))
        counts = counted(before, self.admin.metrics())
        if self.flight_seq() - seq_before > flight.DEFAULT_CAPACITY:
            raise RuntimeError("the count pass overflowed the server's flight ring")
        kernels = self.admin.flight(kind="plan.kernel")["events"]
        for event in kernels:
            if event["seq"] > seq_before:
                name = f"plan.strategy.{event['data'].get('strategy')}"
                counts[name] = counts.get(name, 0) + 1
        return counts

    def flight_seq(self) -> int:
        events = self.admin.flight(last=1)["events"]
        return events[-1]["seq"] if events else 0

    def timed(self, seconds: float, tracer: Optional[Tracer] = None) -> Window:
        """Every client in a closed loop for *seconds*."""
        windows = [Window() for _ in self.clients]
        barrier = threading.Barrier(len(self.clients) + 1)
        stop_at = [0.0]

        def loop(client: Client, window: Window) -> None:
            barrier.wait()
            deadline = stop_at[0]
            log = client.log
            while True:
                op = next(client.ops)
                token = tracer.open("op") if tracer is not None else None
                began = perf_counter()
                outcome = client.run(op)
                ended = perf_counter()
                if tracer is not None:
                    tracer.close(token)
                log.append((op,) + outcome)
                window.add(op_class(op.kind), began, ended, len(outcome[0]))
                if ended >= deadline:
                    return

        threads = [threading.Thread(target=loop, args=(client, window))
                   for client, window in zip(self.clients, windows)]
        for thread in threads:
            thread.start()
        total = Window()
        self.server.command("peak reset")
        began = perf_counter()
        stop_at[0] = began + seconds
        total.open(began, self.server.usage()["cpu_s"])
        # The clients' logs grow through the window; collector passes
        # over them would be pauses of the load generator, not the system.
        gc.disable()
        try:
            barrier.wait()
            for thread in threads:
                thread.join()
        finally:
            gc.enable()
        # The window ends when the clients have finished their last
        # operation.
        usage = self.server.usage()
        total.close(perf_counter(), usage["cpu_s"])
        self.peak_rss_mb = usage["peak_rss_mb"]
        for window in windows:
            total.merge(window)
        return total

    def final_rows(self) -> List[tuple]:
        return list(self.admin.stream(
            "SELECT patient, drug, dosage, valid FROM Prescription"))

    def close(self) -> None:
        for connection in [getattr(self, "admin", None)] + [
                client.connection for client in getattr(self, "clients", [])]:
            if connection is not None:
                try:
                    connection.close()
                except (TipError, OSError):
                    pass
        self.server.close()


# -- correctness ----------------------------------------------------------------


def check_oltp(spec: RxSpec, instance: RxInstance) -> int:
    """Replay each client's log on a model of its own patients, then
    compare each client's final partition of the table with its model."""
    final = instance.final_rows()
    failures = 0
    for at, client in enumerate(instance.clients):
        owned = spec.owned(at)
        model = checks.PrescriptionModel(spec.rows, owned)
        failures += checks.check_log(model, client.log)
        mine = set(owned)
        got = [row for row in final if row[0] in mine]
        if not checks.same_rows(got, model.final_rows()):
            failures += 1
    return failures


def check_browse(spec: RxSpec, instance: RxInstance) -> int:
    """Re-run the sampled statements embedded on the naive path, with
    every write replayed in order so the mirror matches the server."""
    import repro
    from repro.plan import planner
    from repro.tsql.preprocessor import TsqlSession
    from repro.workload.medical import load_tip

    planner.configure(enabled=False)
    mirror = repro.connect(":memory:", now=spec.now_override)
    try:
        load_tip(mirror, spec.rows)
        mirror.execute("CREATE INDEX rx_patient ON Prescription (patient)")
        session = TsqlSession(mirror)
        failures = 0
        for op, rows, rowcount, _, error in instance.clients[0].log:
            if error is not None:
                failures += 1
                continue
            if op_class(op.kind) == "write":
                cursor = mirror.execute(session.translate(op.sql))
                mirror.commit()
                failures += cursor.rowcount != rowcount
            elif op.sampled:
                failures += not checks.same_rows(rows, session.query(op.sql))
        return failures
    finally:
        mirror.close()
        planner.configure(enabled=True)


def check(spec: RxSpec, instance: RxInstance) -> int:
    if spec.name == "rx-oltp":
        return check_oltp(spec, instance)
    return check_browse(spec, instance)


def attempted(instance: RxInstance) -> int:
    return sum(len(client.log) for client in instance.clients)


def install_client_spans(tracer: Tracer) -> None:
    """Client-side frame codec: encoding requests, decoding replies."""
    for name in ("dump_frame", "load_frame", "dump_value", "load_row"):
        tracer.wrap(protocol, name, "client.frame_codec")


def coalesce_fetch(spec: RxSpec, instance: RxInstance, since: int) -> tuple:
    """(rows passing the coalesce filter, rows fetched) for the kernel
    coalesces among log entries from index *since* on (rx-browse)."""
    passing = fetched = 0
    for op, *_ in instance.clients[0].log[since:]:
        if op.kind == "coalesce" and op.sql:
            passing += spec.rows_per_patient.get(op.patient, 0)
            fetched += len(spec.rows)
    return passing, fetched


# -- one benchmark run -------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Every set-up ends with its count pass.  Untraced: five set-ups
    (their median is ``setup_s``), the third of them timed; traced:
    three, the second timed untraced and the third traced, half the
    time each."""
    spec = RxSpec(name, seed)
    setups: List[float] = []
    count_pass: Dict[str, Dict[str, int]] = {}
    tally = {"attempted": 0, "failed": 0}

    def launch(slot: str, traced: bool = False) -> RxInstance:
        instance = RxInstance(spec, slot, traced=traced)
        setups.append(instance.setup_seconds)
        count_pass[slot] = instance.counts
        return instance

    def finish(instance: RxInstance) -> None:
        try:
            tally["failed"] += check(spec, instance)
            tally["attempted"] += attempted(instance)
        finally:
            instance.close()

    meta: Dict[str, object] = {}
    if not trace:
        # Two set-ups before the timed one and two after it: the host's
        # speed shifts over tens of seconds, and set-ups spread over the
        # run give a median that one slow stretch cannot set.
        for slot in ("setup1", "setup2"):
            finish(launch(slot))
        instance = launch("timed")
        try:
            window = instance.timed(seconds)
        finally:
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
        try:
            untraced = instance.timed(seconds / 2)
        finally:
            finish(instance)
        metrics = traced_window(spec, launch("traced", traced=True), seconds / 2,
                                untraced, finish)
        metrics.update(layers.exact_metrics(count_pass["setup1"]))
        meta["samples"] = {"untraced_ops": untraced.ops}
    first = next(iter(count_pass.values()))
    repeatable = all(counts == first for counts in count_pass.values())
    meta.update(count_pass=count_pass, count_pass_repeatable=repeatable,
                setups_s=setups)
    return {"correct": repeatable, "attempted": tally["attempted"],
            "failed": tally["failed"] + (not repeatable), "metrics": metrics,
            "meta": meta}


def traced_window(spec: RxSpec, instance: RxInstance, seconds: float,
                  untraced: Window, finish) -> Dict[str, float]:
    tracer = Tracer()
    install_client_spans(tracer)
    span_file = os.path.join(fresh_dir(spec.name, "spans"), "server.json")
    try:
        before = instance.admin.metrics()["metrics"]
        seq_before = instance.flight_seq()
        since = len(instance.clients[0].log)
        instance.server.command("trace on")
        tracer.start()
        window = instance.timed(seconds, tracer)
        tracer.stop()
        instance.server.command(f"trace off {span_file}")
        after = instance.admin.metrics()["metrics"]
        flight_events = instance.flight_seq() - seq_before
        passing, fetched = coalesce_fetch(spec, instance, since)
    finally:
        finish(instance)
    untraced_ops_s = untraced.ops / untraced.seconds
    return layers.layer_metrics(
        window.ops, tracer.spans, load_spans(span_file), layers.Delta(before, after),
        flight_events=flight_events, untraced_ops_s=untraced_ops_s,
        traced_ops_s=window.ops / window.seconds, join_rows=0,
        coalesce_passing=passing, coalesce_fetched=fetched,
    )
