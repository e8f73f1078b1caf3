"""The subscription manager: modification-driven refresh orchestration.

:class:`SubscriptionManager` (aliased :class:`LiveSession`) is the facade
of the live engine.  It owns

* one :class:`~repro.engine.maintenance.IncrementalMaintainer` per
  distinct plan fingerprint (structurally equal plans share one
  materialization) and the subscriptions attached to each,
* the :class:`~repro.live.dependencies.DependencyIndex` mapping base
  tables to the fingerprints they invalidate,
* the :class:`~repro.live.events.EventBus` notifications travel on, and
* the dirty set that batches modifications between flushes.

There is one of each: one dependency index (guarded by the session
lock) and one bus class, whatever the serving configuration.

The control flow enforces the paper's property by construction: the only
path that re-evaluates a plan starts at a base-table change event.  There
is no timer, no polling loop, and no clock — advancing the reference time
is pure instantiation work on already-materialized ongoing results.

Batching: change events mark fingerprints dirty; :meth:`flush` refreshes
each dirty plan **once**, however many modifications accumulated, then
notifies every attached subscription.  ``auto_flush=True`` flushes after
every event (lowest latency); ``flush_every=N`` flushes once ``N`` events
accumulated (bounded staleness at 1/N the evaluation cost).

Incremental refresh: change events carry typed row deltas
(:class:`~repro.engine.delta.Delta`), accumulated per plan in
the plan's :class:`~repro.engine.maintenance.IncrementalMaintainer`; a flush
*propagates* them through the plan's cached operator state instead of
re-evaluating — work proportional to the modification, not the database.
Plans that cannot be maintained incrementally fall back to full
re-evaluation automatically; the fallback is logged and counted.  A
subscription whose result did not change in a flush is not notified
unless it opted into ``notify_on_no_change``.

Concurrent serving (:mod:`repro.serve`), all opt-in via constructor
arguments:

* ``delivery_workers=N`` builds the bus with N delivery workers
  (``EventBus(workers=N)``): notifications enqueue to per-subscriber
  bounded mailboxes (``backpressure`` policy: ``block`` /
  ``drop_oldest`` / ``coalesce``) and the workers deliver them — one
  slow callback no longer stalls the flush.  With ``0`` the same bus
  delivers inline on the flushing thread.  Either way every delivery
  attempt runs the bus's one delivery routine, whose ``on_delivered``
  hook is where write→deliver freshness is observed;
* ``flush_shards=N`` routes dirty fingerprints to N FIFO refresh
  workers (:class:`~repro.serve.scheduler.FlushScheduler`, routing by
  :func:`~repro.serve.scheduler.shard_index`) — independent plans
  refresh in parallel, each result serially consistent;
* :meth:`serve` starts the background auto-flush loop (debounced,
  woken **only** by modification events — still no clock), and
  :meth:`flush_async` schedules one non-blocking flush;
* :meth:`close` stops the loop, performs a final flush, drains every
  queue, and joins all workers.

Thread-safety: session state (dirty sets, stats, maintainers, registrations)
is guarded by one session lock; write intake runs under the database
write lock (modification hooks fire while it is held), and the lock
order is always ``database.lock → session lock → maintainer lock``.
Calling :meth:`flush` from inside an ``on_refresh`` callback remains
safe — it is detected as re-entrant and folded into the running flush.
"""

from __future__ import annotations

import base64
import logging
import pickle
import threading
import time
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Union

from repro.core.timeline import TimePoint
from repro.engine.database import CommitStamp, Database
from repro.engine.delta import FULL_DELTA, Delta
from repro.engine.maintenance import IncrementalMaintainer
from repro.engine.plan import PlanNode
from repro.engine.rewrite import push_down_selections
from repro.errors import QueryError
from repro.obs.explain import explain_renderer
from repro.obs.registry import FRESHNESS_BUCKETS, Registry, Sample
from repro.obs.slo import FreshnessSLO
from repro.obs.trace import TraceRecorder
from repro.serve.scheduler import FlushScheduler

from repro.live.dependencies import DependencyIndex, referenced_tables
from repro.live.events import ChangeEvent, EventBus, RefreshNotification
from repro.live.subscription import Subscription

__all__ = ["FlushHandle", "SubscriptionManager", "LiveSession"]

logger = logging.getLogger("repro.live.manager")


class FlushHandle:
    """Waitable result of :meth:`SubscriptionManager.flush_async`."""

    def __init__(self) -> None:
        self._done = threading.Event()
        self._refreshed = 0
        self._error: Optional[BaseException] = None

    def _finish(self, refreshed: int, error: Optional[BaseException]) -> None:
        self._refreshed = refreshed
        self._error = error
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> int:
        """Block until the flush finished; returns its refresh count."""
        if not self._done.wait(timeout=timeout):
            raise TimeoutError("flush did not complete in time")
        if self._error is not None:
            raise self._error
        return self._refreshed


class SubscriptionManager:
    """Registers ongoing queries and refreshes them on modifications only.

    Usage::

        session = SubscriptionManager(database)          # or LiveSession
        sub = session.subscribe_sql(
            "SELECT * FROM B WHERE VT OVERLAPS PERIOD '[08/01, 09/01)'",
            on_refresh=lambda event: push_to_client(event.rows),
            reference_time=today,
        )
        sub.instantiate(today + 30)   # cheap, no re-evaluation, still correct
        current_delete(db.table("B"), match, at=today)   # marks sub dirty
        session.flush()               # one re-evaluation, one notification

    For high-traffic serving, turn on the concurrent layer::

        session = LiveSession(db, delivery_workers=4, flush_shards=4)
        session.serve()               # background modification-driven flush
    """

    def __init__(
        self,
        database: Database,
        *,
        auto_flush: bool = False,
        flush_every: Optional[int] = None,
        delivery_workers: int = 0,
        flush_shards: int = 0,
        queue_capacity: int = 64,
        backpressure: str = "coalesce",
        state_budget_bytes: Optional[int] = None,
        registry: Optional["Registry"] = None,
        freshness_slo: Optional[FreshnessSLO] = None,
        trace: object = False,
    ):
        if flush_every is not None and flush_every < 1:
            raise QueryError("flush_every must be a positive event count")
        if delivery_workers < 0 or flush_shards < 0:
            raise QueryError(
                "delivery_workers and flush_shards must be non-negative"
            )
        if state_budget_bytes is not None and state_budget_bytes < 0:
            raise QueryError("state_budget_bytes must be non-negative")
        self.database = database
        self.auto_flush = auto_flush
        self.flush_every = flush_every
        #: Per-maintainer cap on evictable operator-state memory
        #: (storage-layout bytes).  Exceeding it evicts the plan's delta
        #: state after the refresh — the result keeps serving from the
        #: versioned store, and the next refresh rebuilds on miss
        #: (``state_evictions``/``state_rebuilds`` in :meth:`stats`).
        #: ``None`` = unbounded.
        self.state_budget_bytes = state_budget_bytes
        self.delivery_workers = delivery_workers
        self.flush_shards = flush_shards
        #: The session's metrics registry.  Counters are on by default:
        #: native hot-path families plus a pull-at-snapshot collector
        #: that maps the session/serve/store stats onto the canonical
        #: ``repro_<layer>_<what>_total`` names.  Pass a shared
        #: :class:`~repro.obs.registry.Registry` to aggregate several
        #: sessions onto one scrape surface.
        self.metrics = registry if registry is not None else Registry()
        #: Optional freshness objective (:class:`~repro.obs.slo.FreshnessSLO`).
        #: Every observed write→deliver latency feeds it, ``/health``
        #: reports its error-budget burn, and the adaptive serve-loop
        #: debounce tightens toward its floor while the budget burns.
        self.freshness_slo = freshness_slo
        #: Write→deliver latency per subscription: commit stamp of the
        #: oldest coalesced modification to the completed ``on_refresh``
        #: delivery attempt.  Observed by the bus's ``on_delivered`` hook
        #: (on the delivery worker, or inline on the flushing thread) —
        #: one observation per delivered refresh notification, failed
        #: callbacks included, as ``repro_serve_delivered_notifications_total``
        #: counts them.
        self._freshness = self.metrics.histogram(
            "repro_freshness_seconds",
            "Write-to-deliver latency per subscription",
            ("subscription",),
            buckets=FRESHNESS_BUCKETS,
        )
        #: Opt-in span recording (``trace=True`` / a capacity int / a
        #: :class:`~repro.obs.trace.TraceRecorder`).  ``None`` when off —
        #: the hot paths then skip even the clock reads for spans.
        if isinstance(trace, TraceRecorder):
            self.tracer: Optional[TraceRecorder] = trace
        elif trace:
            capacity = trace if isinstance(trace, int) and trace > 1 else 4096
            self.tracer = TraceRecorder(capacity=capacity)
        else:
            self.tracer = None
        #: Guards all session state below (never held while delivering).
        self._lock = threading.RLock()
        self.bus = EventBus(
            workers=delivery_workers,
            capacity=queue_capacity,
            policy=backpressure,
            tracer=self.tracer,
            on_delivered=self._on_delivered,
        )
        #: fingerprint → the plan's maintainer (its one materialization),
        #: and fingerprint → the subscriptions attached to it.
        self._maintainers: Dict[str, IncrementalMaintainer] = {}
        self._subscribers: Dict[str, List[Subscription]] = {}
        #: table → fingerprints; read and written under the session lock.
        self._dependencies = DependencyIndex()
        self._scheduler: Optional[FlushScheduler] = None
        if flush_shards > 0:
            self._scheduler = FlushScheduler(
                self._refresh_one,
                shards=flush_shards,
                on_error=self._on_shard_failure,
            )
        self._subscriptions: Dict[int, Subscription] = {}
        #: fingerprint → tables modified since that result's last refresh.
        self._dirty: Dict[str, Set[str]] = {}
        #: fingerprint → number of change events since last refresh.
        self._dirty_events: Dict[str, int] = {}
        #: fingerprint → commit stamp of the *oldest* unapplied
        #: modification (set once per dirty cycle via ``setdefault``,
        #: popped by the refresh).  The conservative base for both the
        #: freshness histogram and the staleness gauges.
        self._dirty_commits: Dict[str, CommitStamp] = {}
        #: Fingerprints of the flush round in progress: no longer dirty,
        #: not yet refreshed.
        self._refreshing: FrozenSet[str] = frozenset()
        self._events_since_flush = 0
        self._stats = {
            "repro_live_events_total": 0,
            "repro_live_flushes_total": 0,
            "repro_live_evaluations_total": 0,
            "repro_live_delta_refreshes_total": 0,
            "repro_live_full_refreshes_total": 0,
            "repro_live_suppressed_notifications_total": 0,
            "repro_live_notifications_total": 0,
            "repro_live_refresh_errors_total": 0,
            "repro_live_cache_hits_total": 0,
            "repro_live_cache_misses_total": 0,
            "repro_shard_worker_failures_total": 0,
        }
        #: Store/budget counters of plans whose last subscriber
        #: left — folded into stats() so the totals stay monotonic.
        self._retired_store_stats = {
            "snapshots_taken": 0,
            "snapshots_reused": 0,
            "state_evictions": 0,
            "state_rebuilds": 0,
            "cost_full_refreshes": 0,
            "cost_adaptations": 0,
        }
        self._unsubscribe_bus: Dict[int, Callable[[], None]] = {}
        self._listener = database.add_delta_listener(self._on_table_delta)
        self._closed = False
        self._flushing = False
        self._reentrant_flush_requested = False
        # Serve-loop state (started by serve(), stopped by close()).
        self._wakeup = threading.Event()
        self._serving = False
        self._serve_thread: Optional[threading.Thread] = None
        self._serve_debounce = 0.0
        # Adaptive debounce band (None = fixed window).  The depth at
        # which the window saturates scales with the session: at least
        # one full mailbox, stretched by fan-out (see _debounce_scale).
        self._serve_debounce_min: Optional[float] = None
        self._serve_debounce_max: Optional[float] = None
        self._debounce_capacity = max(1, queue_capacity)
        #: Unregister thunk for this session's stats collector — a shared
        #: registry must stop scraping a closed session.
        self._unregister_collector = self.metrics.register_collector(
            self._collect_samples
        )
        #: A durable database (``Database.open``) exposes its WAL and
        #: recovery counters through this session's registry too.
        durability = getattr(database, "_durability", None)
        self._unregister_durability: Optional[Callable[[], None]] = (
            self.metrics.register_collector(durability.collect_samples)
            if durability is not None
            else None
        )

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def subscribe(
        self,
        plan: PlanNode,
        *,
        on_refresh: Optional[Callable[[RefreshNotification], None]] = None,
        reference_time: Optional[TimePoint] = None,
        name: Optional[str] = None,
        notify_on_no_change: bool = False,
        backpressure: Optional[str] = None,
        queue_capacity: Optional[int] = None,
        statement: Optional[str] = None,
    ) -> Subscription:
        """Register an ongoing query plan as a live subscription.

        Structurally equal plans — same fingerprint — share one
        materialization: the first subscriber pays the evaluation, later
        ones attach for free (a cache hit).  *on_refresh* is invoked after
        every modification-driven refresh **that changed this result**;
        a flush whose propagated delta turns out empty (an irrelevant row
        was modified) stays silent unless *notify_on_no_change* is set.
        *reference_time* (the caller-chosen instantiation point, mutable
        on the returned handle) selects the fixed rows delivered with
        each notification.

        With ``delivery_workers`` enabled, *backpressure* and
        *queue_capacity* override the session-wide mailbox policy for
        this subscriber only (a must-not-miss audit consumer can
        ``block`` while dashboards ``coalesce``).

        *statement* records the OSQL source this plan came from
        (:meth:`subscribe_sql` fills it in) so a durable checkpoint can
        recompile the subscription on :meth:`resume`; plan-object
        subscriptions are checkpointed as a pickled plan instead.
        """
        self._require_open()
        # Rewrite before fingerprinting: pushed-down selections shrink the
        # cached operator state, and the fingerprint of the *rewritten*
        # plan is the canonical sharing key — two subscribers whose plans
        # normalize to the same shape share one materialization.
        plan = push_down_selections(plan, self.database)
        fingerprint = plan.fingerprint()
        # The database lock spans dependency registration and the first
        # evaluation: no modification can slip between them, so the
        # freshly built operator state is exactly as-of the registration.
        with self.database.lock:
            with self._lock:
                maintainer = self._maintainers.get(fingerprint)
                created = maintainer is None
                if created:
                    self._stats["repro_live_cache_misses_total"] += 1
                    maintainer = IncrementalMaintainer(
                        plan,
                        self.database,
                        label=f"plan {fingerprint[:12]}",
                        state_budget_bytes=self.state_budget_bytes,
                        fingerprint=fingerprint,
                        registry=self.metrics,
                        tracer=self.tracer,
                    )
                    self._maintainers[fingerprint] = maintainer
                    self._subscribers[fingerprint] = []
                    self._dependencies.add(
                        fingerprint, referenced_tables(plan)
                    )
                else:
                    self._stats["repro_live_cache_hits_total"] += 1
            if created:
                try:
                    maintainer.evaluate()
                except Exception:
                    # Roll the registration back: a dead plan must not be
                    # shared with a later subscribe of the same plan.
                    with self._lock:
                        self._drop_plan(fingerprint)
                    raise
                with self._lock:
                    self._stats["repro_live_evaluations_total"] += 1
            subscription = Subscription(
                self,
                maintainer,
                on_refresh=on_refresh,
                reference_time=reference_time,
                name=name,
                notify_on_no_change=notify_on_no_change,
                statement=statement,
                backpressure=backpressure,
                queue_capacity=queue_capacity,
            )
            # Register the bus listener *before* attaching the
            # subscription (and before releasing the write lock): once
            # attached, a flush on another thread may notify immediately,
            # and a topic with no listener yet would drop that delivery.
            unsubscribe = None
            if on_refresh is not None:
                topic = f"refresh:{subscription.id}"
                try:
                    unsubscribe = self.bus.subscribe(
                        topic,
                        on_refresh,
                        capacity=queue_capacity,
                        policy=backpressure,
                    )
                except Exception:
                    with self._lock:
                        if created and not self._subscribers[fingerprint]:
                            self._drop_plan(fingerprint)
                    raise
            with self._lock:
                self._subscribers[fingerprint].append(subscription)
                self._subscriptions[subscription.id] = subscription
                if unsubscribe is not None:
                    self._unsubscribe_bus[subscription.id] = unsubscribe
        return subscription

    def subscribe_sql(self, statement: str, **kwargs) -> Subscription:
        """Compile an OSQL statement and register it (see :meth:`subscribe`).

        Every statement compiles to a pure plan — including GROUP BY
        aggregates, whose refreshes re-aggregate only the groups a
        modification touched (:class:`~repro.engine.executor.AggregateOp`).
        """
        from repro.sqlish import compile_statement

        return self.subscribe(
            compile_statement(statement, self.database),
            statement=statement,
            **kwargs,
        )

    def resume(
        self,
        manifest: Optional[List[Dict[str, object]]] = None,
        *,
        on_refresh: Union[
            None,
            Callable[[RefreshNotification], None],
            Dict[str, Callable[[RefreshNotification], None]],
        ] = None,
    ) -> List[Subscription]:
        """Re-attach checkpointed subscriptions after ``Database.open``.

        *manifest* is the ``subscriptions`` list of a checkpoint manifest
        (see :func:`~repro.durable.snapshot.capture_subscriptions`);
        ``None`` consumes the one the durable open recovered — consuming
        it guarantees a second ``resume()`` (or a second session on the
        same database) cannot re-attach, and re-enqueue pending
        notifications for, the same subscribers twice.

        *on_refresh* supplies the callbacks a manifest cannot persist:
        either one callable for every resumed subscription or a dict
        keyed by subscription name.  Subscriptions resumed without a
        callback still refresh (their shared result is maintained); they
        just deliver nothing.

        Each entry re-subscribes through the ordinary :meth:`subscribe`
        path — statement entries recompile against the current catalog,
        plan entries unpickle — so recovery reuses every registration
        invariant instead of a parallel code path.  An entry whose plan
        cannot be rebuilt is logged and skipped, never fatal.  A captured
        undelivered notification is re-enqueued **exactly once**: into
        the subscriber's mailbox on a pooled bus, or delivered inline on
        an inline one.
        """
        self._require_open()
        durability = getattr(self.database, "_durability", None)
        if manifest is None:
            if durability is None:
                raise QueryError(
                    "resume() without a manifest requires a durable "
                    "database (Database.open)"
                )
            manifest = durability.recovered_manifest
            durability.recovered_manifest = []
        resumed: List[Subscription] = []
        for entry in manifest:
            name = entry.get("name")
            callback = (
                on_refresh.get(name)
                if isinstance(on_refresh, dict)
                else on_refresh
            )
            statement = entry.get("statement")
            plan = None
            try:
                if statement is not None:
                    from repro.sqlish import compile_statement

                    plan = compile_statement(statement, self.database)
                elif entry.get("plan_pickle"):
                    plan = pickle.loads(
                        base64.b64decode(entry["plan_pickle"])
                    )
            except Exception:  # noqa: BLE001 — one bad entry must not
                # abort the whole recovery; the subscriber can re-register.
                logger.exception(
                    "resume: subscription %r could not be rebuilt", name
                )
                continue
            if plan is None:
                logger.warning(
                    "resume: subscription %r carries neither a statement "
                    "nor a plan; skipped",
                    name,
                )
                continue
            subscription = self.subscribe(
                plan,
                on_refresh=callback,
                reference_time=entry.get("reference_time"),
                name=name,
                notify_on_no_change=bool(
                    entry.get("notify_on_no_change", False)
                ),
                backpressure=entry.get("backpressure"),
                queue_capacity=entry.get("queue_capacity"),
                statement=statement,
            )
            expected = entry.get("fingerprint")
            if expected and subscription.fingerprint != expected:
                logger.warning(
                    "resume: subscription %r fingerprint changed "
                    "(%s -> %s); resuming against the current plan",
                    subscription.name,
                    str(expected)[:12],
                    subscription.fingerprint[:12],
                )
            if durability is not None:
                durability.resumed_subscriptions += 1
            pending = entry.get("pending")
            if pending is not None and callback is not None:
                notification = self._rebuild_notification(
                    subscription, pending
                )
                self.bus.restore_pending(
                    f"refresh:{subscription.id}", (notification,)
                )
                with self._lock:
                    self._stats["repro_live_notifications_total"] += 1
                if durability is not None:
                    durability.reenqueued_notifications += 1
            resumed.append(subscription)
        return resumed

    def _rebuild_notification(
        self, subscription: Subscription, pending: Dict[str, object]
    ) -> RefreshNotification:
        """Deserialize one captured pending notification against the
        freshly resumed subscription (its just-evaluated result stands in
        for the pre-crash one)."""
        delta: Optional[Delta] = None
        if pending.get("delta_full"):
            delta = FULL_DELTA
        elif pending.get("delta") is not None:
            from repro.engine.storage import unpack_tagged_tuple

            def rows(encoded) -> tuple:
                decoded = []
                for blob in encoded:
                    row, _ = unpack_tagged_tuple(base64.b64decode(blob))
                    decoded.append(row)
                return tuple(decoded)

            payload = pending["delta"]
            delta = Delta(
                inserted=rows(payload.get("inserted", ())),
                deleted=rows(payload.get("deleted", ())),
            )
        commit = pending.get("commit")
        stamp = (
            CommitStamp(int(commit[0]), float(commit[1]))
            if commit
            else None
        )
        fixed_rows = None
        if subscription.reference_time is not None:
            fixed_rows = subscription.instantiate(
                subscription.reference_time
            )
        return RefreshNotification(
            subscription=subscription,
            result=subscription.result,
            rows=fixed_rows,
            changed_tables=tuple(pending.get("changed_tables") or ()),
            delta=delta,
            commit=stamp,
        )

    def unsubscribe(self, subscription: Subscription) -> None:
        """Detach *subscription*; the last subscriber of a plan drops its
        materialization, dependency links, and dirty state."""
        with self._lock:
            if self._subscriptions.pop(subscription.id, None) is None:
                return
            unsubscribe_bus = self._unsubscribe_bus.pop(subscription.id, None)
        if unsubscribe_bus is not None:
            unsubscribe_bus()
        maintainer = subscription._maintainer
        subscription._detach()
        if maintainer is None:
            return
        fingerprint = maintainer.fingerprint
        with self._lock:
            subscribers = self._subscribers.get(fingerprint, [])
            if subscription in subscribers:
                subscribers.remove(subscription)
            if (
                not subscribers
                and self._maintainers.get(fingerprint) is maintainer
            ):
                self._drop_plan(fingerprint)

    def _drop_plan(self, fingerprint: str) -> None:
        """Fully unregister one plan (caller holds the session lock).

        Drops its maintainer, its dependency links (so the table →
        fingerprint index drops tables no live plan reads anymore), and
        any accumulated dirty state.  Its store/budget counters retire
        into the session totals so stats() never goes backward.
        """
        maintainer = self._maintainers.pop(fingerprint)
        self._subscribers.pop(fingerprint, None)
        retired = self._retired_store_stats
        for key in retired:
            retired[key] += getattr(maintainer, key)
        self._dependencies.remove(fingerprint)
        self._dirty.pop(fingerprint, None)
        self._dirty_events.pop(fingerprint, None)
        self._dirty_commits.pop(fingerprint, None)

    def close(self) -> None:
        """Close every subscription, stop and join all serving workers.

        The shutdown is *clean*: the serve loop stops first, the database
        hook is removed (no new intake), one final flush refreshes
        whatever was owed, queued notifications drain to their
        subscribers, and only then do workers exit.
        """
        if self._closed:
            return
        self.stop_serving()
        self.database.remove_delta_listener(self._listener)
        try:
            self.flush()  # deliver what is owed before teardown
        except QueryError:  # pragma: no cover — close() raced close()
            pass
        self.bus.drain(timeout=10.0)
        for subscription in list(self._subscriptions.values()):
            self.unsubscribe(subscription)
        if self._scheduler is not None:
            self._scheduler.close()
        self.bus.close(drain=True)
        self._unregister_collector()
        if self._unregister_durability is not None:
            self._unregister_durability()
        self._closed = True

    def __enter__(self) -> "SubscriptionManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` ran."""
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise QueryError("this live session is closed")

    # ------------------------------------------------------------------
    # Modification intake
    # ------------------------------------------------------------------

    def _on_table_delta(self, table: str, version: int, delta: Delta) -> None:
        """Database modification hook: mark dependents dirty, accumulate
        the row delta per dirty plan, maybe flush.

        Runs with the database write lock held (hooks fire inside the
        write), so intake is serialized across writer threads and a
        snapshotting flush can never observe half-recorded events.
        """
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            with tracer.span("write", table=table, rows=len(delta)):
                self._intake(table, version, delta)
            return
        self._intake(table, version, delta)

    def _intake(self, table: str, version: int, delta: Delta) -> None:
        # The hook runs inside the write, after Table._bump stamped the
        # batch — database.last_commit IS this modification's stamp.
        commit = self.database.last_commit
        event = ChangeEvent(table, version, delta, commit=commit)
        with self._lock:
            self._stats["repro_live_events_total"] += 1
        self.bus.publish("change", event)
        with self._lock:
            affected = self._dependencies.affected(table)
            if not affected:
                return
            self._events_since_flush += 1
            for fingerprint in affected:
                self._dirty.setdefault(fingerprint, set()).add(table)
                self._dirty_events[fingerprint] = (
                    self._dirty_events.get(fingerprint, 0) + 1
                )
                if commit is not None:
                    # Keep the *oldest* pending stamp: a refresh answers
                    # for every coalesced write, so freshness must be
                    # measured against the first one still waiting.
                    self._dirty_commits.setdefault(fingerprint, commit)
                maintainer = self._maintainers.get(fingerprint)
                if maintainer is not None:
                    maintainer.note_change(table, delta)
                    for subscription in self._subscribers[fingerprint]:
                        subscription.stats.pending_events += 1
            serving = self._serving
            due = self.auto_flush or (
                self.flush_every is not None
                and self._events_since_flush >= self.flush_every
            )
        if serving:
            # The serve loop owns flushing: wake it (it debounces), never
            # flush inline under the database write lock.
            self._wakeup.set()
        elif due:
            if self._scheduler is not None:
                # A sharded flush must not run inline either: this hook
                # fires with the database write lock held, and a shard
                # worker falling back to full re-evaluation needs that
                # same lock — waiting for it here would deadlock.  A
                # running flush absorbs the request (no thread spawned);
                # otherwise one background flush preserves the staleness
                # bound for the whole burst.
                with self._lock:
                    folding = self._flushing
                    if folding:
                        self._reentrant_flush_requested = True
                if not folding:
                    self.flush_async()
            else:
                self.flush()

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of plans marked dirty or inside a running flush round —
        ``0`` means every modification so far is in the served results."""
        with self._lock:
            return len(self._dirty.keys() | self._refreshing)

    @property
    def _pending_deltas(self) -> Dict[str, Dict[str, Delta]]:
        """Accumulated-but-unapplied row deltas per dirty plan.

        Introspection only — the deltas live in each plan's
        :class:`~repro.engine.maintenance.IncrementalMaintainer` (the
        serve layer's single synchronization point), not in the manager.
        """
        with self._lock:
            snapshot: Dict[str, Dict[str, Delta]] = {}
            for fingerprint, maintainer in self._maintainers.items():
                pending = maintainer.pending_snapshot()
                if pending:
                    snapshot[fingerprint] = pending
            return snapshot

    def flush(self) -> int:
        """Refresh every dirty plan exactly once and notify.

        Coalesces however many modifications accumulated since the last
        flush into a single refresh per affected plan.  Each refresh
        first tries the incremental path — propagating the accumulated
        row deltas through the plan's cached operator state — and falls
        back to a full re-evaluation automatically (logged on the
        ``repro.engine.delta`` logger) when the plan or the delta is not
        incrementalizable.  Returns the number of refreshes performed.

        With ``flush_shards`` enabled the dirty plans are routed to their
        owning shard workers and refresh **in parallel** — each
        fingerprint still refreshes exactly once per round, in order,
        because its shard queue is FIFO and pinned to one worker.

        Subscriptions whose result did not change are not notified
        (unless they set ``notify_on_no_change``); on the incremental
        path that is decided by the propagated delta being empty, on the
        fallback path by comparing the re-evaluated relation with the
        previous one.

        Error isolation: a plan whose refresh raises (e.g. its base
        table was dropped) does not abort the flush — the remaining dirty
        plans still refresh, the failing plan keeps serving its last
        materialization, and the error is published on the bus's
        ``"error"`` topic as ``(fingerprint, exception)`` and recorded in
        :meth:`stats` under ``"refresh_errors"``.

        Re-entrant calls (an ``on_refresh`` callback modified tables and
        hit ``auto_flush``/``flush_every``, or called ``flush()``
        directly — from any thread) do not run a nested flush: the
        request is recorded and the running flush drains the new events
        in order before returning.
        """
        self._require_open()
        with self._lock:
            if self._flushing:
                self._reentrant_flush_requested = True
                return 0
            self._flushing = True
        refreshed = 0
        try:
            while True:
                with self._lock:
                    self._reentrant_flush_requested = False
                    dirty = self._dirty
                    dirty_events = self._dirty_events
                    self._dirty = {}
                    self._dirty_events = {}
                    self._events_since_flush = 0
                    self._refreshing = frozenset(dirty)
                if dirty:
                    tracer = self.tracer
                    if tracer is not None and tracer.enabled:
                        with tracer.span(
                            "flush",
                            plans=len(dirty),
                            events=sum(dirty_events.values()),
                        ):
                            refreshed += self._run_round(dirty, dirty_events)
                    else:
                        refreshed += self._run_round(dirty, dirty_events)
                    with self._lock:
                        self._stats["repro_live_flushes_total"] += 1
                with self._lock:
                    self._refreshing = frozenset()
                    # Decide and release atomically: a concurrent flush()
                    # either set the re-entrant flag before this check (we
                    # drain its events now) or will observe _flushing ==
                    # False and run its own flush — a request can never
                    # land in the gap and strand dirty events.
                    if bool(self._dirty) and (
                        self._should_reflush()
                        or self._reentrant_flush_requested
                    ):
                        continue
                    self._flushing = False
                    return refreshed
        except BaseException:
            with self._lock:
                self._flushing = False
                self._refreshing = frozenset()
            raise

    def flush_async(self) -> FlushHandle:
        """Schedule one :meth:`flush` on a background thread.

        Returns a :class:`FlushHandle`; ``handle.wait()`` yields the
        refresh count (0 when the flush folded into one already running).
        """
        self._require_open()
        handle = FlushHandle()

        def run() -> None:
            try:
                handle._finish(self.flush(), None)
            except BaseException as exc:  # noqa: BLE001 — handed to wait()
                handle._finish(0, exc)

        thread = threading.Thread(
            target=run, name="live-flush-async", daemon=True
        )
        thread.start()
        return handle

    def _should_reflush(self) -> bool:
        """Drain events produced by refresh callbacks mid-flush when the
        session's flush policy would have flushed them immediately."""
        if self.auto_flush:
            return True
        return (
            self.flush_every is not None
            and self._events_since_flush >= self.flush_every
        )

    def _run_round(
        self, dirty: Dict[str, Set[str]], dirty_events: Dict[str, int]
    ) -> int:
        """Refresh one snapshot of dirty fingerprints, serial or sharded."""
        if self._scheduler is not None:
            return self._scheduler.flush(
                {
                    fingerprint: frozenset(tables)
                    for fingerprint, tables in dirty.items()
                },
                dirty_events,
            )
        refreshed = 0
        for fingerprint, changed_tables in dirty.items():
            if self._refresh_one(
                fingerprint,
                frozenset(changed_tables),
                dirty_events.get(fingerprint, 0),
            ):
                refreshed += 1
        return refreshed

    def _refresh_one(
        self, fingerprint: str, changed_tables: FrozenSet[str], coalesced: int
    ) -> bool:
        """Refresh one plan and notify its subscriptions.

        The single refresh routine behind serial flushes and shard
        workers alike; returns ``True`` when a refresh was performed.
        """
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            with tracer.span(
                "refresh",
                fingerprint=fingerprint[:12],
                tables=sorted(changed_tables),
                coalesced=coalesced,
            ):
                return self._refresh_one_impl(
                    fingerprint, changed_tables, coalesced
                )
        return self._refresh_one_impl(fingerprint, changed_tables, coalesced)

    def _on_shard_failure(
        self, shard: int, fingerprint: str, exc: BaseException
    ) -> None:
        """Shard-worker escape hatch: :meth:`_refresh_one` isolates
        expected refresh errors itself, so an exception reaching the
        shard worker means the refresh *machinery* failed.  Count it and
        announce it on the listener-error topic — a silently dying shard
        would otherwise surface only as growing staleness."""
        with self._lock:
            self._stats["repro_shard_worker_failures_total"] += 1
        try:
            self.bus.publish(
                EventBus.LISTENER_ERROR_TOPIC,
                ("flush-shard", f"shard-{shard}:{fingerprint[:12]}", exc),
            )
        except Exception:  # noqa: BLE001 — reporting must never re-raise
            logger.exception("shard failure announcement failed")

    def _refresh_one_impl(
        self, fingerprint: str, changed_tables: FrozenSet[str], coalesced: int
    ) -> bool:
        with self._lock:
            maintainer = self._maintainers.get(fingerprint)
            # Claim the oldest pending stamp: writes landing *during* the
            # refresh setdefault a fresh stamp for the next cycle.
            commit = self._dirty_commits.pop(fingerprint, None)
        if maintainer is None:  # all subscribers left while dirty
            return False
        epoch = maintainer.changes
        try:
            outcome = maintainer.refresh()
        except Exception as exc:  # noqa: BLE001 — isolate per plan
            with self._lock:
                self._stats["repro_live_refresh_errors_total"] += 1
            self.bus.publish("error", (fingerprint, exc))
            return False
        result_delta = outcome.delta
        changed = outcome.changed
        if result_delta is None:
            with self._lock:
                # The full re-evaluation read the tables under the write
                # lock and subsumed every change event offered before it
                # ran; its dirty mark is only kept when a *new* event
                # arrived meanwhile (the change counter moved) — dropping
                # that one would lose an update, re-flushing an already
                # subsumed one would only waste a suppressed refresh.
                if maintainer.changes == epoch:
                    self._dirty.pop(fingerprint, None)
                    self._dirty_events.pop(fingerprint, None)
                self._stats["repro_live_full_refreshes_total"] += 1
                self._stats["repro_live_evaluations_total"] += 1
        else:
            with self._lock:
                self._stats["repro_live_delta_refreshes_total"] += 1
                self._stats["repro_live_evaluations_total"] += 1
        with self._lock:
            # A plan dropped (and maybe re-subscribed) meanwhile has no
            # subscribers left for this outcome.
            subscribers = (
                list(self._subscribers[fingerprint])
                if self._maintainers.get(fingerprint) is maintainer
                else []
            )
        for subscription in subscribers:
            if not changed and not subscription.notify_on_no_change:
                subscription._mark_unchanged(coalesced)
                with self._lock:
                    self._stats["repro_live_suppressed_notifications_total"] += 1
                continue
            delivered = subscription._notify(
                changed_tables, coalesced, delta=result_delta, commit=commit
            )
            with self._lock:
                self._stats["repro_live_notifications_total"] += delivered
        return True

    # ------------------------------------------------------------------
    # Freshness accounting
    # ------------------------------------------------------------------

    @property
    def freshness_histogram(self):
        """The ``repro_freshness_seconds`` histogram family — exposed so
        operators (and the ``/health`` endpoint) can read quantiles."""
        return self._freshness

    def _on_delivered(self, payload: object) -> None:
        """Bus hook: fires once per delivery attempt, on the thread that
        ran the callback.  Only commit-stamped refresh notifications
        count toward freshness — change events and error records pass
        through."""
        if (
            isinstance(payload, RefreshNotification)
            and payload.commit is not None
        ):
            seconds = max(0.0, time.monotonic() - payload.commit.at)
            self._freshness.labels(
                subscription=payload.subscription.name
            ).observe(seconds)
            slo = self.freshness_slo
            if slo is not None:
                slo.observe(seconds)

    def subscription_staleness(self) -> Dict[str, float]:
        """Age (seconds) of the oldest pending unapplied change, per
        subscription name.

        Covers both halves of the pipeline: a commit still dirty and
        awaiting its flush, and a commit-stamped notification already
        refreshed but still queued in the subscriber's delivery mailbox.
        ``0.0`` means fully caught up.  Computed entirely at call time
        (the scrape), so the write/flush hot paths pay nothing for it.
        """
        now = time.monotonic()
        with self._lock:
            entries = [
                (
                    subscription.name,
                    subscription.id,
                    subscription._maintainer.fingerprint
                    if subscription._maintainer is not None
                    else None,
                )
                for subscription in self._subscriptions.values()
            ]
            dirty_commits = dict(self._dirty_commits)
        ages: Dict[str, float] = {}
        for name, sub_id, fingerprint in entries:
            age = 0.0
            stamp = (
                dirty_commits.get(fingerprint)
                if fingerprint is not None
                else None
            )
            if stamp is not None:
                age = max(age, now - stamp.at)
            queued = self.bus.oldest_commit_age(f"refresh:{sub_id}", now)
            if queued is not None:
                age = max(age, queued)
            ages[name] = age
        return ages

    # ------------------------------------------------------------------
    # Background serving
    # ------------------------------------------------------------------

    def serve(
        self,
        *,
        debounce: float = 0.005,
        debounce_min: Optional[float] = None,
        debounce_max: Optional[float] = None,
    ) -> "SubscriptionManager":
        """Start the background auto-flush loop; returns ``self``.

        The loop sleeps until a modification event wakes it (there is no
        polling of data and no clock-driven refresh — an idle database
        costs nothing), waits the debounce window so a burst of writes
        coalesces into one flush round, then flushes.  Idempotent; a
        second call only updates the debounce configuration.

        **Adaptive debounce**: pass *debounce_min*/*debounce_max* to
        scale the window with load instead of fixing it.  Before each
        sleep the loop reads the queue depth — undelivered notifications
        in the delivery mailboxes plus dirty plans awaiting refresh — and
        interpolates linearly between the band edges, saturating at the
        larger of ``queue_capacity`` and the session's fan-out
        (subscriptions + live plans), so one write rippling to many
        subscribers does not count as a backlog: an idle system reacts
        at *debounce_min* latency, a genuinely backlogged one waits up
        to *debounce_max* so more writes coalesce into each flush round
        and the queues get room to drain.  The fixed *debounce* is
        ignored while a band is set.
        """
        if debounce_min is not None or debounce_max is not None:
            if debounce_min is None or debounce_max is None:
                raise QueryError(
                    "adaptive debounce needs both debounce_min and "
                    "debounce_max"
                )
            if debounce_min < 0 or debounce_max < debounce_min:
                raise QueryError(
                    "debounce band must satisfy 0 <= debounce_min <= "
                    "debounce_max"
                )
        with self._lock:
            self._require_open()
            self._serve_debounce = max(0.0, debounce)
            self._serve_debounce_min = debounce_min
            self._serve_debounce_max = debounce_max
            if self._serve_thread is not None:
                return self
            self._serving = True
            self._wakeup.clear()
            thread = threading.Thread(
                target=self._serve_loop, name="live-serve", daemon=True
            )
            self._serve_thread = thread
        thread.start()
        return self

    def _queue_depth(self) -> int:
        """Load signal for the adaptive debounce: undelivered
        notifications plus plans awaiting or inside a refresh."""
        return self.pending + self.bus.backlog()

    def _debounce_scale(self) -> int:
        """The depth at which the adaptive window saturates.

        One full mailbox at minimum, stretched by fan-out: the depth
        signal sums notifications across *all* mailboxes plus *all*
        dirty plans, so a session with many subscribers reaches large
        absolute depths from a single write — saturation must grow with
        the number of queues that can legitimately hold one item each,
        or every fanned-out flush round would sleep ``debounce_max``.
        """
        with self._lock:
            fanout = len(self._subscriptions) + len(self._maintainers)
        return max(self._debounce_capacity, fanout)

    def _debounce_for_depth(self, depth: int) -> float:
        """The sleep window for one observed queue *depth*.

        Linear between the band edges, saturating at
        :meth:`_debounce_scale`; returns the fixed window when no band
        is set.  A :attr:`freshness_slo` whose error budget is burning
        (burn > 1) shrinks the window toward the floor by the burn
        factor — the loop trades coalescing for freshness exactly when
        the objective says deliveries are arriving too late.
        """
        with self._lock:
            low = self._serve_debounce_min
            high = self._serve_debounce_max
            fixed = self._serve_debounce
        if low is None or high is None:
            return fixed
        if depth <= 0 or high <= low:
            window = low
        else:
            scale = self._debounce_scale()
            if depth >= scale:
                window = high
            else:
                window = low + (high - low) * (depth / scale)
        slo = self.freshness_slo
        if slo is not None and window > low:
            burn = slo.error_budget_burn()
            if burn > 1.0:
                window = low + (window - low) / burn
        return window

    def current_debounce(self) -> float:
        """The window the serve loop would sleep right now (adaptive
        debounce reads the live queue depth; fixed returns the constant
        without probing the queues at all)."""
        with self._lock:
            if self._serve_debounce_min is None:
                return self._serve_debounce
        return self._debounce_for_depth(self._queue_depth())

    def stop_serving(self) -> None:
        """Stop the background flush loop (idempotent); pending events
        stay queued for the next explicit :meth:`flush` or :meth:`close`."""
        with self._lock:
            thread = self._serve_thread
            self._serving = False
            self._serve_thread = None
        if thread is not None:
            self._wakeup.set()  # hasten the loop's exit check
            thread.join(timeout=10)

    @property
    def serving(self) -> bool:
        """``True`` while the background flush loop runs."""
        return self._serve_thread is not None

    def _serve_loop(self) -> None:
        while self._serving:
            # No timeout: an idle database costs nothing — the only
            # wakers are modification events and stop_serving() (which
            # sets the event after clearing the flag).
            self._wakeup.wait()
            if not self._serving:
                return
            window = self.current_debounce()
            if window:
                time.sleep(window)
            # Clear *before* flushing: an event that lands after the
            # clear re-sets the flag and the next iteration flushes it —
            # wakeups are never lost, at worst coalesced (which is the
            # point of the debounce).
            self._wakeup.clear()
            if not self._serving:
                # stop_serving() raced the debounce window and its wakeup
                # was just cleared — exit now rather than blocking on an
                # event nobody will ever set again.
                return
            try:
                self.flush()
            except QueryError:  # session closed under us
                return

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def subscriptions(self) -> List[Subscription]:
        with self._lock:
            return list(self._subscriptions.values())

    def shared_results(self) -> List[IncrementalMaintainer]:
        """The maintainer of every live plan, in fingerprint order."""
        with self._lock:
            return [
                self._maintainers[fingerprint]
                for fingerprint in sorted(self._maintainers)
            ]

    def explain_analyze(
        self, fingerprint: Optional[str] = None, *, format: str = "text"
    ):
        """EXPLAIN ANALYZE across the session's shared plans.

        *fingerprint* selects plans by prefix (the truncated form shown
        in stats and the ``/explain/<fingerprint>`` endpoint matches);
        ``None`` reports every materialized plan.  ``format="text"``
        joins the per-plan renderings with blank lines;
        ``format="json"`` returns a list of report dicts (see
        :func:`~repro.obs.explain.explain_analyze_data`).
        """
        explain_renderer(format)  # rejects an unknown format up front
        matches = [
            maintainer
            for maintainer in self.shared_results()
            if fingerprint is None
            or maintainer.fingerprint.startswith(fingerprint)
        ]
        if fingerprint is not None and not matches:
            raise QueryError(
                f"no shared result matches fingerprint prefix {fingerprint!r}"
            )
        reports = [
            maintainer.explain_analyze(format=format) for maintainer in matches
        ]
        return reports if format == "json" else "\n\n".join(reports)

    #: Canonical metric ``(name, kind, help)`` — the :meth:`stats` dict
    #: keys ARE these names (the flat pre-1.7 aliases are gone), so the
    #: collector publishes each sample straight from the stats snapshot.
    _CANONICAL_SAMPLES = (
        ("repro_live_events_total", "counter",
         "Change events observed by the session"),
        ("repro_live_flushes_total", "counter",
         "Flush rounds performed"),
        ("repro_live_evaluations_total", "counter",
         "Plan refreshes, incremental and full"),
        ("repro_live_delta_refreshes_total", "counter",
         "Refreshes served by incremental delta propagation"),
        ("repro_live_full_refreshes_total", "counter",
         "Refreshes that re-evaluated the plan in full"),
        ("repro_live_cost_full_refreshes_total", "counter",
         "Full refreshes deliberately chosen by the cost model"),
        ("repro_live_cost_adaptations_total", "counter",
         "Cost-model parameter changes driven by observed refresh costs"),
        ("repro_live_notifications_total", "counter",
         "Refresh notifications handed to the bus"),
        ("repro_live_suppressed_notifications_total", "counter",
         "No-change refreshes suppressed before delivery"),
        ("repro_live_refresh_errors_total", "counter",
         "Refreshes that raised and were isolated"),
        ("repro_live_cache_hits_total", "counter",
         "Subscriptions attached to an existing shared result"),
        ("repro_live_cache_misses_total", "counter",
         "Subscriptions that materialized a new shared result"),
        ("repro_live_subscriptions", "gauge",
         "Currently attached subscriptions"),
        ("repro_live_shared_results", "gauge",
         "Distinct plans currently materialized"),
        ("repro_live_dirty_plans", "gauge",
         "Shared results currently marked dirty"),
        ("repro_store_snapshots_taken_total", "counter",
         "Result-store snapshot copies materialized"),
        ("repro_store_snapshots_reused_total", "counter",
         "Reads served from an already-materialized snapshot"),
        ("repro_store_state_evictions_total", "counter",
         "Operator states evicted by the memory budget"),
        ("repro_store_state_rebuilds_total", "counter",
         "Refreshes that rebuilt budget-evicted operator state"),
        ("repro_serve_queued_notifications_total", "counter",
         "Notifications enqueued to delivery mailboxes"),
        ("repro_serve_delivered_notifications_total", "counter",
         "Notifications delivered to subscriber callbacks"),
        ("repro_serve_dropped_notifications_total", "counter",
         "Notifications dropped by the drop_oldest policy"),
        ("repro_serve_coalesced_notifications_total", "counter",
         "Notifications merged by the coalesce policy"),
        ("repro_serve_delivery_backlog", "gauge",
         "Undelivered notifications across all mailboxes"),
    )

    def _collect_samples(self) -> List[Sample]:
        """Pull-at-snapshot collector: the session's stats under the
        canonical names, plus per-shard flush counts and per-operator
        plan counters (labeled by fingerprint, operator, tree path)."""
        stats = self.stats()
        samples: List[Sample] = [
            Sample(name, {}, float(stats[name]), kind, help_text)
            for name, kind, help_text in self._CANONICAL_SAMPLES
        ]
        for table, fanout in sorted(stats["table_fanout"].items()):
            samples.append(
                Sample(
                    "repro_live_table_fanout",
                    {"table": table},
                    float(fanout),
                    "gauge",
                    "Live plans depending on each base table",
                )
            )
        for name, age in sorted(self.subscription_staleness().items()):
            samples.append(
                Sample(
                    "repro_subscription_staleness_seconds",
                    {"subscription": name},
                    age,
                    "gauge",
                    "Age of the oldest pending unapplied change per "
                    "subscription",
                )
            )
        for shard, count in enumerate(stats["shard_flushes"]):
            samples.append(
                Sample(
                    "repro_serve_shard_flushes_total",
                    {"shard": str(shard)},
                    float(count),
                    "counter",
                    "Flush rounds executed per shard worker",
                )
            )
        for shard, count in enumerate(stats["shard_failures"]):
            samples.append(
                Sample(
                    "repro_shard_worker_failures_total",
                    {"shard": str(shard)},
                    float(count),
                    "counter",
                    "Refresh exceptions that escaped to a shard worker",
                )
            )
        for maintainer in self.shared_results():
            fingerprint = maintainer.fingerprint[:12]
            for node in maintainer.node_report():
                labels = {
                    "fingerprint": fingerprint,
                    "operator": node["operator"],
                    "path": node["path"],
                }
                for name, key, kind, help_text in (
                    ("repro_delta_applies_total", "applies", "counter",
                     "Incremental delta applications per plan operator"),
                    ("repro_delta_apply_seconds_total", "apply_seconds",
                     "counter",
                     "Cumulative wall time in apply_delta per operator"),
                    ("repro_delta_rows_in_total", "delta_rows_in", "counter",
                     "Delta rows fed into each operator"),
                    ("repro_delta_rows_out_total", "delta_rows_out",
                     "counter", "Delta rows emitted by each operator"),
                    ("repro_operator_fallbacks_total", "fallbacks",
                     "counter",
                     "Non-incremental fallbacks raised at this operator"),
                    ("repro_operator_state_rows", "state_rows", "gauge",
                     "Rows held in the operator's derivation-count state"),
                    ("repro_operator_state_bytes", "state_bytes", "gauge",
                     "Estimated bytes of the operator's state"),
                ):
                    samples.append(
                        Sample(
                            name, labels, float(node[key]), kind, help_text
                        )
                    )
        return samples

    def stats(self) -> Dict[str, object]:
        """A snapshot of the session's counters (all modification-driven).

        The metric keys are the **canonical names** the session also
        publishes through :attr:`metrics`
        (``repro_<layer>_<what>[_total]`` — e.g.
        ``repro_live_events_total``, ``repro_serve_delivery_backlog``);
        the flat pre-1.7 aliases (``events``, ``queued_notifications``,
        …) were removed in 1.7.  Non-metric context keys keep their plain
        names: ``table_fanout``, ``shard_flushes``, ``serving``,
        ``delivery_workers``, ``flush_shards``.

        Beyond the PR-2 counters, the serving layer adds: queued /
        delivered / dropped / coalesced notification counts and the
        delivery backlog, read from the bus in both delivery modes (an
        inline bus queues nothing: queued equals delivered, dropped,
        coalesced and backlog stay 0), plus per-shard flush counts; the
        result-store layer adds snapshot copy/reuse and state
        evict/rebuild counters summed over all shared results; the cost
        model adds its deliberate full-refresh count
        (``repro_live_cost_full_refreshes_total``).
        """
        with self._lock:
            totals = dict(self._retired_store_stats)
            for maintainer in self._maintainers.values():
                for key in totals:
                    totals[key] += getattr(maintainer, key)
            data: Dict[str, object] = {
                **self._stats,
                "repro_live_subscriptions": len(self._subscriptions),
                "repro_live_shared_results": len(self._maintainers),
                "repro_live_dirty_plans": len(self._dirty),
                "repro_live_cost_full_refreshes_total": totals[
                    "cost_full_refreshes"
                ],
                "repro_live_cost_adaptations_total": totals["cost_adaptations"],
                "table_fanout": self._dependencies.table_fanout(),
                "repro_store_snapshots_taken_total": totals["snapshots_taken"],
                "repro_store_snapshots_reused_total": totals["snapshots_reused"],
                "repro_store_state_evictions_total": totals["state_evictions"],
                "repro_store_state_rebuilds_total": totals["state_rebuilds"],
            }
        data["delivery_workers"] = self.delivery_workers
        data["flush_shards"] = self.flush_shards
        data["serving"] = self.serving
        bus_stats = self.bus.stats()
        data["repro_serve_queued_notifications_total"] = bus_stats["queued"]
        data["repro_serve_delivered_notifications_total"] = bus_stats["delivered"]
        data["repro_serve_dropped_notifications_total"] = bus_stats["dropped"]
        data["repro_serve_coalesced_notifications_total"] = bus_stats["coalesced"]
        data["repro_serve_delivery_backlog"] = bus_stats["backlog"]
        data["shard_flushes"] = (
            self._scheduler.flush_counts() if self._scheduler is not None else ()
        )
        data["shard_failures"] = (
            self._scheduler.failure_counts()
            if self._scheduler is not None
            else ()
        )
        return data


#: The user-facing name of the facade: one live session over one database.
LiveSession = SubscriptionManager
