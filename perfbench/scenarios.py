"""The three MozillaBugs workloads: set-up, load loop, checks, metrics.

Every workload drives ``repro`` only through its public calls and times
each call from here.  All inputs come from ``generate_mozilla(seed=…)``
and from a ``random.Random`` seeded with the same seed, so one seed gives
one data set and one operation sequence.

* ``bugs-write`` — closed loop, synchronous session, write-heavy mix;
* ``bugs-dashboard`` — closed loop, one delivery worker, 16 subscribers
  over four plan shapes, one-shot paper queries beside the writes;
* ``bugs-durable-serve`` — open loop at a fixed offered rate against a
  durable database served by the background loop, with checkpoints,
  registry scrapes, and a timed reopen at the end.
"""

from __future__ import annotations

import bisect
import math
import random
import resource
import shutil
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.interval import OngoingInterval, until_now
from repro.core.timeline import PLUS_INF
from repro.core.timepoint import OngoingTimePoint, fixed
from repro.datasets import generate_mozilla
from repro.datasets.mozilla import HISTORY_END, HISTORY_START
from repro.datasets.workloads import ComplexJoinWorkload, last_tenth
from repro.engine import Database, current_delete, current_insert, current_update
from repro.obs import TraceRecorder
from repro.relational.predicates import col, lit
from repro.sqlish import compile_statement

import oracle
from spans import SpeedProbe, Timeline, Timings, calibrate, median, program_spans

#: Exact per-write counts are taken over this many leading writes, so
#: they do not depend on how many writes a timed run completes.
COUNT_WINDOW = 200

#: The load thread times the speed probe between operations once this
#: many seconds have passed since the last time; the open loop only when
#: the next write is not due for a while.
PROBE_INTERVAL_S = 0.05
PROBE_SLACK_S = 0.002

#: Operators whose ``apply_delta`` time is reported per refresh; any
#: other operator's time is reported as ``other``.
OPERATORS = (
    "AggregateOp",
    "FixedFilter",
    "HashJoin",
    "IntervalScan",
    "OngoingFilter",
    "SeqScan",
    "SortLimitOp",
)

#: Layers the traced run attributes each write's time to.
TRACE_LAYERS = (
    "engine.modifications",
    "live.manager",
    "engine.delta",
    "engine.maintenance",
    "live.subscription",
    "serve.bus",
    "serve.queues",
    "durable.snapshot",
    "obs.registry",
    "bench",
)

#: The window start of the wide ``VT OVERLAPS`` filters: two years before
#: the end of the history, open to the future so every write lands in it.
WIDE_FROM = HISTORY_END - 730

SEVERITIES = ("blocker", "critical", "major", "normal", "minor", "trivial", "enhancement")


@dataclass(frozen=True)
class SubSpec:
    """One subscription: its OSQL text, reference builder and delivery."""

    name: str
    statement: str
    reference: oracle.Reference
    reference_time: Optional[int] = None


def overlaps_from(start: int):
    """``VT OVERLAPS PERIOD '[start, inf)'`` as a reference predicate."""
    return col("VT").overlaps(
        lit(OngoingInterval(fixed(start), OngoingTimePoint(PLUS_INF, PLUS_INF)))
    )


def wide_filter(table: str, name: str, rt: Optional[int]) -> SubSpec:
    return SubSpec(
        name,
        f"SELECT * FROM {table} WHERE VT OVERLAPS PERIOD '[{WIDE_FROM}, inf)'",
        oracle.selection(table, overlaps_from(WIDE_FROM)),
        rt,
    )


def count_by(table: str, column: str, name: str, rt: Optional[int]) -> SubSpec:
    return SubSpec(
        name,
        f"SELECT {column}, COUNT(*) AS n FROM {table} "
        f"WHERE VT OVERLAPS PERIOD '[{WIDE_FROM}, inf)' GROUP BY {column}",
        oracle.grouped_count(table, overlaps_from(WIDE_FROM), column, "n"),
        rt,
    )


def newest_bugs(name: str, rt: Optional[int]) -> SubSpec:
    return SubSpec(
        name,
        "SELECT * FROM B ORDER BY ID DESC LIMIT 10",
        oracle.newest("B", "ID", 10),
        rt,
    )


def major_overlap_join(name: str, rt: Optional[int]) -> SubSpec:
    return SubSpec(
        name,
        "SELECT * FROM A, S WHERE A.ID = S.ID AND S.Severity = 'major' "
        "AND A.VT OVERLAPS S.VT",
        oracle.partitioned_join(
            "A",
            "S",
            "ID",
            col("A.VT").overlaps(col("S.VT")),
            right_filter=col("Severity") == lit("major"),
            left_name="A",
            right_name="S",
        ),
        rt,
    )


def developer_filter(email: str, name: str, rt: Optional[int]) -> SubSpec:
    return SubSpec(
        name,
        f"SELECT * FROM A WHERE Email = '{email}'",
        oracle.selection("A", col("Email") == lit(email)),
        rt,
    )


def row_key(values: tuple) -> tuple:
    """A written row's identity in delivered deltas: its values with the
    valid time cut to its start.  A later write that terminates the row
    before delivery changes only the valid-time end, and the coalesced
    delta then carries the terminated row instead of the written one."""
    return values[:-1] + (values[-1].start,)


class Subscriber:
    """The benchmark's side of one subscription: callback and checks."""

    def __init__(self, spec: SubSpec, bench: "Workload"):
        self.spec = spec
        self.bench = bench
        self.subscription = None
        self.replay: Optional[oracle.DeltaReplay] = None
        self.last_rows = None
        self.received = 0

    def attach(self, subscription) -> None:
        self.subscription = subscription
        if self.spec.reference_time is None:
            self.replay = oracle.DeltaReplay(subscription.result)

    def on_refresh(self, notification) -> None:
        started = time.perf_counter()
        self.received += 1
        if self.replay is not None:
            self.replay.apply(notification)
            self.bench.observe(notification, started)
        else:
            self.last_rows = notification.rows
        self.bench.callback_done(self, notification, started, time.perf_counter())


class Workload:
    """Shared machinery of the three workloads."""

    name = ""
    n_bugs = 0
    delivery_workers = 0
    #: Closed loops re-time each rows notification's instantiation in
    #: the traced run, to split notification build from the refresh.
    collect_builds = True

    def __init__(self, seed: int, *, scale: float = 1.0, work_dir: Path):
        self.seed = seed
        self.n_bugs = max(200, int(self.n_bugs * scale))
        self.work_dir = work_dir
        self.timings = Timings()
        self.probe = SpeedProbe()
        self.failures: List[str] = []
        self.attempted = 0
        #: Per-layer runs (``--trace 1``) also count predicate calls,
        #: sample instantiations and scrape the registry in closed loops.
        self.per_layer = False
        self.tracer: Optional[TraceRecorder] = None
        #: The benchmark's own spans, per thread (a negative id holds the
        #: writer's waits in ``drain()``).
        self.spans: Dict[int, List[Tuple[float, float, str]]] = defaultdict(list)
        self.tracing = False
        #: (thread, start, end) of callbacks since the last reset.
        self.callbacks: List[Tuple[int, float, float]] = []
        self.builds: List[Tuple[object, int]] = []
        self.examined = 0
        #: Deliver-window seconds per phase, for trace.overhead_ratio.
        self.phase: Dict[str, List[float]] = {"untraced": [], "traced": []}

    # -- set-up --------------------------------------------------------

    def specs(self) -> List[SubSpec]:
        raise NotImplementedError

    def setup(self, *, tracer: Optional[TraceRecorder] = None) -> None:
        """Generate the data, load it and subscribe (initial evaluation)."""
        self.tracer = tracer
        self.data = generate_mozilla(self.n_bugs, seed=self.seed)
        self.database = self.open_database()
        self.session = self.database.live_session(
            delivery_workers=self.delivery_workers, trace=self.tracer
        )
        self.subscribers: List[Subscriber] = []
        for spec in self.specs():
            subscriber = Subscriber(spec, self)
            subscription = self.session.subscribe_sql(
                spec.statement,
                name=spec.name,
                reference_time=spec.reference_time,
                on_refresh=subscriber.on_refresh,
            )
            subscriber.attach(subscription)
            self.subscribers.append(subscriber)
        self.after_subscribe()
        self.rng = random.Random(self.seed * 1_000_003 + len(self.name))
        self.ongoing = self._ongoing_rows()
        self.next_id = len(self.data.bug_info)
        self.now = HISTORY_END
        self.writes = 0

    def open_database(self) -> Database:
        return self.data.as_database()

    def after_subscribe(self) -> None:
        pass

    def teardown(self) -> None:
        self.database.close()  # closes the live session too

    def _ongoing_rows(self) -> Dict[str, List[tuple]]:
        ongoing: Dict[str, List[tuple]] = {}
        for name in ("A", "B", "S"):
            table = self.database.table(name)
            position = table.schema.index_of("VT")
            ongoing[name] = [
                row.values for row in table.rows() if not row.values[position].is_fixed
            ]
        return ongoing

    # -- operations ----------------------------------------------------

    def matcher(self, target: tuple):
        if self.per_layer:

            def match(row):
                self.examined += 1
                return row.values == target

            return match
        return lambda row: row.values == target

    def make_update(self, table: str) -> tuple:
        index = self.rng.randrange(len(self.ongoing[table]))
        target = self.ongoing[table][index]
        if table == "S":
            value = self.rng.choice([s for s in SEVERITIES if s != target[1]])
        else:
            value = f"dev{self.rng.randrange(2000):04d}@mozilla.org"
        return ("update", table, index, target, (target[0], value))

    def make_delete(self, table: str) -> tuple:
        index = self.rng.randrange(len(self.ongoing[table]))
        return ("delete", table, index, self.ongoing[table][index], None)

    def make_insert(self) -> tuple:
        bug_id = self.next_id
        self.next_id += 1
        rng = self.rng
        values = (
            bug_id,
            f"product-{rng.randrange(12):02d}",
            f"component-{rng.randrange(8):02d}",
            rng.choice(("Linux", "Windows", "macOS", "FreeBSD", "Android", "Solaris")),
            f"bug {bug_id} reported during the benchmark",
        )
        return ("insert", "B", None, None, values)

    def write(self, op: tuple) -> Optional[int]:
        """Run one modification at the next write time; returns the number
        of changed rows, or ``None`` when it raised (counted as failed)."""
        kind, table_name, index, target, values = op
        self.now += 1
        self.attempted += 1
        table = self.database.table(table_name)
        try:
            if kind == "insert":
                current_insert(table, values, at=self.now)
                changed = 1
            elif kind == "delete":
                changed = current_delete(table, self.matcher(target), at=self.now)
            else:
                changed = current_update(table, self.matcher(target), values, at=self.now)
        except Exception as exc:  # noqa: BLE001 — counted as a failure
            self.fail(f"{kind} on {table_name} raised {exc!r}")
            return None
        self.writes += 1
        return changed

    def book(self, op: tuple, changed: Optional[int]) -> None:
        """Check the write changed a row and track the ongoing rows."""
        kind, table_name, index, target, values = op
        if changed is None:
            return
        if changed < 1:
            self.fail(f"{kind} on {table_name} changed no row")
        self.timings.count("rows_changed", changed)
        pool = self.ongoing[table_name]
        if kind == "insert":
            pool.append(values + (until_now(self.now),))
        elif kind == "delete":
            pool[index] = pool[-1]
            pool.pop()
        else:
            pool[index] = values + (until_now(self.now),)

    # -- callbacks -----------------------------------------------------

    def observe(self, notification, when: float) -> None:
        """Hook for delta readers' notifications (the open loop's probe)."""

    def callback_done(self, subscriber: Subscriber, notification, started: float, ended: float) -> None:
        thread = threading.get_ident()
        self.callbacks.append((thread, started, ended))
        if self.tracing:
            self.spans[thread].append((started, ended, "bench"))
            if self.collect_builds and notification.rows is not None:
                self.builds.append((notification.result, subscriber.spec.reference_time))

    # -- one-shot paper queries ---------------------------------------

    def one_shot_query(self, kind: str) -> None:
        started = time.perf_counter()
        if kind == "selection":
            low, high = last_tenth(HISTORY_START, HISTORY_END)
            statement = f"SELECT * FROM B WHERE VT OVERLAPS PERIOD '[{low}, {high})'"
            plan = self.timings.time("sqlish.compile", compile_statement, statement, self.database)
        else:
            plan = ComplexJoinWorkload("overlaps").plan()
        relation = self.timings.time("engine.executor.query_eval", self.database.query, plan)
        rows = self.timings.time("relational.instantiate", relation.instantiate, self.now)
        self.timings.add(f"query.{kind}", time.perf_counter() - started)
        self.timings.count("relational.rows_out", len(rows))
        self.timings.count("queries")

    # -- counters ------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        stats = self.session.stats()
        data = {
            key: float(stats[key])
            for key in (
                "repro_live_flushes_total",
                "repro_live_delta_refreshes_total",
                "repro_live_full_refreshes_total",
                "repro_live_suppressed_notifications_total",
                "repro_live_notifications_total",
                "repro_store_snapshots_taken_total",
                "repro_store_snapshots_reused_total",
                "repro_serve_queued_notifications_total",
                "repro_serve_coalesced_notifications_total",
            )
        }
        snapshot = self.session.metrics.snapshot()
        for name in ("repro_wal_bytes_total", "repro_wal_fsyncs_total"):
            data[name] = registry_value(snapshot, name)
        data["examined"] = float(self.examined)
        data["writes"] = float(self.writes)
        data["rows_changed"] = self.timings.counts["rows_changed"]
        return data

    def operator_totals(self) -> Dict[str, Dict[str, float]]:
        """Cumulative node counters summed per operator over shared plans."""
        totals: Dict[str, Dict[str, float]] = {}
        seen = set()
        for subscriber in self.subscribers:
            subscription = subscriber.subscription
            if subscription.fingerprint in seen:
                continue
            seen.add(subscription.fingerprint)
            for node in subscription.node_report():
                entry = totals.setdefault(node["operator"], defaultdict(float))
                entry["apply_seconds"] += node["apply_seconds"]
                entry["applies"] += node["applies"]
                entry["rows_in"] += node["delta_rows_in"]
                entry["rows_out"] += node["delta_rows_out"]
                entry["fallbacks"] += node["fallbacks"]
                entry["state_bytes"] += node["state_bytes"]
        return totals

    def after_write(self) -> None:
        """Per-layer bookkeeping outside the timed window."""
        if not self.per_layer:
            return
        if self.writes == COUNT_WINDOW:
            self.window_counters = self.counters()
        if self.writes % 50 == 0:
            for subscriber in self.subscribers:
                rt = subscriber.spec.reference_time
                if rt is not None:
                    self.timings.time(
                        "live.subscription.instantiate", subscriber.subscription.instantiate, rt
                    )

    def scrape(self) -> None:
        self.timings.time("obs.registry.scrape", self.session.metrics.render_prometheus)

    # -- correctness ---------------------------------------------------

    def check_rts(self) -> List[int]:
        return [HISTORY_END - 400, HISTORY_END + max(1, (self.now - HISTORY_END) // 2), self.now + 30]

    def check_subscriptions(self, database: Database, subscriptions: Dict[str, object], label: str) -> List[str]:
        tables = oracle.snapshot_tables(database)
        problems = []
        for spec in self.specs():
            subscription = subscriptions.get(spec.name)
            if subscription is None:
                problems.append(f"{label}: subscription {spec.name} is missing")
                continue
            expected = spec.reference(tables)
            problems += oracle.mismatches(f"{label} {spec.name}", subscription.result, expected, self.check_rts())
        return problems

    def check_deliveries(self) -> List[str]:
        """Every change reached its subscriber (directly or coalesced)."""
        problems = []
        for subscriber in self.subscribers:
            subscription = subscriber.subscription
            if subscriber.replay is not None:
                if not subscriber.replay.matches(subscription.result):
                    problems.append(f"{subscriber.spec.name}: replayed deltas differ from the result")
            elif subscriber.received:
                expected = subscription.instantiate(subscriber.spec.reference_time)
                if subscriber.last_rows != expected:
                    problems.append(f"{subscriber.spec.name}: last delivered rows are stale")
        stats = self.session.stats()
        for key in ("repro_serve_dropped_notifications_total", "repro_live_refresh_errors_total"):
            if stats[key]:
                problems.append(f"{key} = {stats[key]}")
        return problems

    def check(self) -> List[str]:
        live = {s.spec.name: s.subscription for s in self.subscribers}
        return self.check_subscriptions(self.database, live, "live") + self.check_deliveries()

    def fail(self, message: str) -> None:
        self.failures.append(message)

    # -- the loop and its traced half -----------------------------------

    def run(self, seconds: float, traced_share: float) -> None:
        raise NotImplementedError

    def start_tracing(self) -> None:
        self.tracer.enabled = True
        self.calibration = calibrate(self.tracer)
        self.tracing = True

    def stop_tracing(self) -> None:
        if self.tracer is not None:
            self.tracer.enabled = False
        self.tracing = False

    def windows(self) -> List[Tuple[float, float, Optional[Callable], float]]:
        """The traced writes: (start, end, gap rule or ``None``, re-timed
        notification build seconds)."""
        raise NotImplementedError

    def timeline(self) -> Timeline:
        """Spans ranked: the writer, threads that flush (the serve loop),
        delivery workers, then the writer's waits in ``drain()``."""
        threads: Dict[int, List] = defaultdict(list)
        for source in (program_spans(self.tracer, self.calibration), self.spans):
            for thread, spans in source.items():
                threads[thread].extend(spans)
        waits = threads.pop(-self.writer, [])
        first = threads.pop(self.writer, [])
        flushing = [spans for spans in threads.values() if any(s[2] == "live.manager" for s in spans)]
        others = [spans for spans in threads.values() if not any(s[2] == "live.manager" for s in spans)]
        return Timeline([first, *flushing, *others, waits])

    def attribution(self) -> Dict[str, float]:
        """Per-layer self ms per traced write, unattributed share, and
        the tracing overhead (traced / untraced median deliver window)."""
        totals = {layer: 0.0 for layer in TRACE_LAYERS}
        unattributed = window = 0.0
        windows = self.windows() if getattr(self, "calibration", None) else []
        timeline = self.timeline() if windows else None
        for start, end, gap, build in windows:
            owned = timeline.attribute(start, end, gap)
            moved = min(build, owned.get("engine.maintenance", 0.0))
            owned["engine.maintenance"] = owned.get("engine.maintenance", 0.0) - moved
            owned["live.subscription"] = owned.get("live.subscription", 0.0) + moved
            for layer, seconds in owned.items():
                if layer is None:
                    unattributed += seconds
                else:
                    totals[layer] += seconds
            window += end - start
        count_ = max(1, len(windows))
        metrics = {
            f"trace.{layer}.self_ms_per_write": seconds * 1e3 / count_
            for layer, seconds in totals.items()
        }
        metrics["trace.unattributed_ratio"] = unattributed / window if window else 0.0
        untraced = median(self.phase["untraced"])
        metrics["trace.overhead_ratio"] = median(self.phase["traced"]) / untraced if untraced else 0.0
        return metrics


def registry_value(snapshot, name: str) -> float:
    entry = snapshot.get(name)
    if entry is None:
        return 0.0
    return float(sum(sample["value"] for sample in entry["samples"]))


class ClosedLoop(Workload):
    """One writer; each write is followed by ``flush()`` (and ``drain()``)."""

    query_every = 0

    def next_op(self) -> tuple:
        raise NotImplementedError

    def run(self, seconds: float, traced_share: float) -> None:
        started = time.perf_counter()
        untraced_until = started + seconds * (1.0 - traced_share)
        deadline = started + seconds
        drain = self.session.bus.drain if self.delivery_workers else None
        self.writer = threading.get_ident()
        self.traced_cycles: List[Tuple[float, float, None, float]] = []
        next_scrape = started + 1.0
        queries = 0
        index = 0
        while True:
            now = time.perf_counter()
            if now >= deadline:
                break
            if self.tracer is not None and not self.tracing and now >= untraced_until:
                self.untraced_seconds = now - started
                self.start_tracing()
            if self.per_layer and now >= next_scrape:
                self.scrape()
                next_scrape = now + 1.0
            index += 1
            if self.query_every and index % self.query_every == 0:
                self.one_shot_query("selection" if queries % 2 == 0 else "join")
                queries += 1
                continue
            op = self.next_op()
            self.callbacks = []
            self.builds = []
            t0 = time.perf_counter()
            changed = self.write(op)
            if changed is None:
                continue
            t1 = time.perf_counter()
            self.session.flush()
            t2 = time.perf_counter()
            if drain is not None and not drain(timeout=60.0):
                self.fail("drain timed out")
            t3 = time.perf_counter()
            self.book(op, changed)
            self.record_cycle(t0, t1, t2, t3)
            self.after_write()
            if time.perf_counter() - self.probe.last >= PROBE_INTERVAL_S:
                self.probe.sample()
        if not self.tracing:
            self.untraced_seconds = time.perf_counter() - started
        self.stop_tracing()
        self.final_counters = self.counters()

    def record_cycle(self, t0: float, t1: float, t2: float, t3: float) -> None:
        phase = "traced" if self.tracing else "untraced"
        self.phase[phase].append(t3 - t0)
        self.timings.add(f"{phase}.write", t1 - t0)
        self.timings.add(f"{phase}.deliver", t3 - t0)
        self.timings.add("engine.modifications.call", t1 - t0)
        inline = sum(e - s for thread, s, e in self.callbacks if thread == self.writer)
        self.timings.add("live.manager.flush", (t2 - t1) - inline)
        for thread, s, e in self.callbacks:
            self.timings.add("bench.callback", e - s)
            self.timings.add("serve.queues.wait", max(0.0, s - t2) if self.delivery_workers else 0.0)
        if not self.tracing:
            return
        self.spans[self.writer].append((t0, t1, "engine.modifications"))
        self.spans[self.writer].append((t1, t2, "live.manager"))
        if self.delivery_workers:
            self.spans[-self.writer].append((t2, t3, "serve.queues"))
        build = 0.0
        for result, rt in self.builds:
            started = time.perf_counter()
            result.instantiate(rt)
            build += time.perf_counter() - started
        self.traced_cycles.append((t0, t3, None, build))

    def windows(self):
        return self.traced_cycles


class BugsWrite(ClosedLoop):
    name = "bugs-write"
    n_bugs = 20_000

    def specs(self) -> List[SubSpec]:
        return [
            count_by("B", "Component", "write-components", HISTORY_END - 10),
            count_by("S", "Severity", "write-severities", HISTORY_END - 20),
            newest_bugs("write-newest", HISTORY_END - 30),
            developer_filter(self.developer, "write-developer", HISTORY_END - 40),
        ]

    def open_database(self) -> Database:
        # The one-developer filter follows the first ongoing assignment
        # of the generated data, so it sees updates.
        for row in self.data.bug_assignment:
            if not row.values[2].is_fixed:
                self.developer = row.values[1]
                break
        return super().open_database()

    def next_op(self) -> tuple:
        dice = self.rng.random()
        if dice < 0.45:
            return self.make_update("A" if self.rng.random() < 0.5 else "S")
        if dice < 0.90 and self.ongoing["B"]:
            return self.make_delete("B")
        return self.make_insert()


class BugsDashboard(ClosedLoop):
    name = "bugs-dashboard"
    n_bugs = 10_000
    delivery_workers = 1
    query_every = 20

    def specs(self) -> List[SubSpec]:
        specs = []
        for k in range(2):
            for reader, rt in (("rows", HISTORY_END - 5 - k), ("delta", None)):
                label = f"{reader}{k}"

                def at(offset: int, rt=rt) -> Optional[int]:
                    return None if rt is None else rt - offset

                specs += [
                    wide_filter("B", f"dash-wide-{label}", at(0)),
                    major_overlap_join(f"dash-join-{label}", at(100)),
                    count_by("S", "Severity", f"dash-severities-{label}", at(200)),
                    newest_bugs(f"dash-newest-{label}", at(300)),
                ]
        return specs

    def next_op(self) -> tuple:
        if self.rng.random() < 0.75:
            return self.make_insert()
        return self.make_update("S")


class BugsDurableServe(Workload):
    """Open loop: writes are due on a fixed schedule, whatever the system
    does; each write is timed from its due time."""

    name = "bugs-durable-serve"
    n_bugs = 10_000
    delivery_workers = 1
    collect_builds = False
    rate = 100.0
    checkpoint_every_s = 3.0
    fsync = "batch"

    def specs(self) -> List[SubSpec]:
        return [
            wide_filter("B", "durable-bugs", None),
            wide_filter("S", "durable-severity-rows", None),
            count_by("S", "Severity", "durable-severities", HISTORY_END - 15),
            newest_bugs("durable-newest", HISTORY_END - 25),
        ]

    def open_database(self) -> Database:
        self.db_dir = self.work_dir / f"db-{self.seed}-{time.monotonic_ns()}"
        database = Database.open(self.db_dir, fsync=self.fsync)
        database.register("B", self.data.bug_info)
        database.register("A", self.data.bug_assignment)
        database.register("S", self.data.bug_severity)
        return database

    def after_subscribe(self) -> None:
        # The first checkpoint carries the subscription manifest, so a
        # reopen resumes the subscriptions and replays only the run.
        self.database.checkpoint()
        self.session.serve()
        self.pending: Dict[tuple, int] = {}
        self.delivered: Dict[int, float] = {}

    def teardown(self) -> None:
        self.database.close()
        shutil.rmtree(self.db_dir, ignore_errors=True)

    def observe(self, notification, when: float) -> None:
        """Find the writes this delivery reflects by their row key."""
        delta = notification.delta
        rows = notification.result.tuples if delta is None else delta.inserted
        pending = self.pending
        for item in rows:
            index = pending.pop(row_key(item.values), None)
            if index is not None:
                self.delivered[index] = when

    def run(self, seconds: float, traced_share: float) -> None:
        rate = self.rate
        total = max(1, int(round(rate * seconds)))
        untraced = int(round(total * (1.0 - traced_share)))
        checkpoint_every = max(1, int(rate * self.checkpoint_every_s))
        scrape_every = max(1, int(rate))
        self.writer = threading.get_ident()
        self.issued: List[Tuple[float, float, float, bool]] = []
        self.backlog: List[float] = []
        start = time.perf_counter() + 0.05
        for index in range(total):
            if self.tracer is not None and index == untraced:
                self.start_tracing()
            if index and index % checkpoint_every == 0:
                self.generator_call("durable.snapshot", self.database.checkpoint)
            if index and index % scrape_every == 0:
                self.generator_call("obs.registry", self.scrape)
                self.backlog.append(self.session.stats()["repro_serve_delivery_backlog"])
            due = start + index / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            op = self.make_insert() if index % 2 == 0 else self.make_update("S")
            self.pending[op[4] + (fixed(self.now + 1),)] = index
            t0 = time.perf_counter()
            changed = self.write(op)
            t1 = time.perf_counter()
            self.book(op, changed)
            self.issued.append((due, t0, t1, self.tracing))
            self.timings.add("engine.modifications.call", t1 - t0)
            self.timings.add("bench.generator_late", max(0.0, t0 - due))
            if self.tracing:
                self.spans[self.writer].append((t0, t1, "engine.modifications"))
            self.after_write()
            now = time.perf_counter()
            if (
                now - self.probe.last >= PROBE_INTERVAL_S
                and start + (index + 1) / rate - now > PROBE_SLACK_S
            ):
                self.probe.sample()
        # Let the serve loop and the delivery worker finish the tail.
        give_up = time.perf_counter() + 60.0
        while self.pending and time.perf_counter() < give_up:
            time.sleep(0.002)
        self.session.bus.drain(timeout=60.0)
        self.stop_tracing()
        self.final_counters = self.counters()
        for index in sorted(self.pending.values()):
            self.fail(f"write {index} never reached its subscriber")
        for index, (due, t0, t1, traced) in enumerate(self.issued):
            when = self.delivered.get(index)
            if when is None:
                continue
            phase = "traced" if traced else "untraced"
            self.phase[phase].append(when - due)
            self.timings.add(f"{phase}.write", t1 - due)
            self.timings.add(f"{phase}.deliver", when - due)
        last = max(self.delivered.values(), default=time.perf_counter())
        untraced_ends = [
            self.delivered.get(index, last)
            for index, (_, _, _, traced) in enumerate(self.issued)
            if not traced
        ]
        self.untraced_seconds = max(untraced_ends, default=last) - start
        for thread, s, e in self.callbacks:
            self.timings.add("bench.callback", e - s)

    def generator_call(self, layer: str, fn) -> None:
        """A checkpoint or scrape on the generator thread: writes due
        meanwhile wait for it, so the traced run names it in their
        windows."""
        started = time.perf_counter()
        fn()
        ended = time.perf_counter()
        if layer == "durable.snapshot":
            self.timings.add("durable.snapshot.checkpoint", ended - started)
        if self.tracing:
            self.spans[self.writer].append((started, ended, layer))

    def windows(self):
        """Each traced write from its due time to its first delivery.

        Gaps no span covers are waits: before the write started, for the
        generator; until the serve loop's next flush began, for the
        debounce; after that, in the mailbox."""
        flush_starts = sorted(
            start
            for thread, spans in program_spans(self.tracer, self.calibration).items()
            if thread != self.writer
            for start, _, layer in spans
            if layer == "live.manager"
        )
        windows = []
        for index, (due, t0, t1, traced) in enumerate(self.issued):
            delivered = self.delivered.get(index)
            if not traced or delivered is None:
                continue
            position = bisect.bisect_left(flush_starts, t1)
            flushed = flush_starts[position] if position < len(flush_starts) else math.inf

            def gap(low: float, high: float, t0=t0, flushed=flushed) -> str:
                if high <= t0:
                    return "bench"
                if high <= flushed:
                    return "live.manager"
                return "serve.queues"

            windows.append((due, delivered, gap, 0.0))
        return windows

    def check(self) -> List[str]:
        problems = super().check()
        rts = self.check_rts()
        before = {s.spec.name: [s.subscription.result.instantiate(rt) for rt in rts] for s in self.subscribers}
        self.database.close()
        started = time.perf_counter()
        reopened = Database.open(self.db_dir, fsync=self.fsync, session={})
        self.recovery_s = time.perf_counter() - started
        try:
            session = reopened.live_session()
            recovered = {s.name: s for s in session.subscriptions}
            problems += self.check_subscriptions(reopened, recovered, "recovered")
            for name, rows in before.items():
                sub = recovered.get(name)
                if sub is not None and [sub.result.instantiate(rt) for rt in rts] != rows:
                    problems.append(f"recovered {name} differs from its pre-close result")
            snapshot = session.metrics.snapshot()
            self.replayed = registry_value(snapshot, "repro_recovery_replayed_records_total")
        finally:
            reopened.close()
        return problems


WORKLOADS = {cls.name: cls for cls in (BugsWrite, BugsDashboard, BugsDurableServe)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
