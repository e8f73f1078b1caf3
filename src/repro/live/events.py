"""Change events and the notification bus of the live engine.

The paper's invariant — ongoing results never go stale because time passes,
only because of explicit modifications — means the *only* signal the live
engine needs is the stream of base-table modifications.  This module gives
that stream a shape:

* :class:`ChangeEvent` — an immutable ``(table, version)`` record emitted
  by the :class:`~repro.engine.database.Database` modification hooks;
* :class:`RefreshNotification` — what subscribers receive after their
  shared result was re-evaluated;
* :class:`EventBus` — the one topic-based publish/subscribe fan-out,
  with error isolation (a failing listener never starves its peers).
  It delivers inline on the publishing thread (``workers=0``) or through
  the worker threads and bounded per-listener mailboxes of
  :mod:`repro.serve` (``workers >= 1``); both modes run the same
  delivery routine.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.durable import faults
from repro.engine.delta import Delta
from repro.serve.bus import DeliveryPool
from repro.serve.queues import REJECTED, Mailbox

__all__ = ["ChangeEvent", "RefreshNotification", "EventBus"]


@dataclass(frozen=True)
class ChangeEvent:
    """One explicit modification of a base table.

    ``version`` is the table's monotonic modification counter *after* the
    change; coalesced modifications (a :meth:`~repro.engine.database.Table.batch`
    block, a current update) produce exactly one event.  ``delta`` names
    the changed rows when the write path could type them (``None`` for
    events observed through the untyped change-listener channel); the
    delta is carried for consumers and does not participate in event
    identity.
    """

    table: str
    version: int
    delta: Optional[Delta] = field(default=None, compare=False)
    #: The :class:`~repro.engine.database.CommitStamp` of the
    #: modification batch (``None`` for events synthesized outside a
    #: stamped write path).  Carried for freshness accounting; excluded
    #: from identity like the delta.
    commit: Optional[Any] = field(default=None, compare=False)


@dataclass(frozen=True)
class RefreshNotification:
    """Delivered to a subscription after its result was re-evaluated.

    ``rows`` is the result instantiated at the subscription's chosen
    reference time, or ``None`` when the subscription did not pick one —
    subscribers can always instantiate later, at any reference time, via
    ``subscription.instantiate(rt)``; the ongoing result stays valid as
    time passes.

    ``delta`` is the *result-level* change this refresh applied — the
    ongoing tuples that entered and left the result — when the refresh
    ran on the incremental path; ``None`` means the result was fully
    re-evaluated and the precise change was not computed.
    """

    subscription: Any
    result: Any
    rows: Optional[FrozenSet] = None
    #: Tables whose modifications were coalesced into this refresh.
    changed_tables: Tuple[str, ...] = ()
    delta: Optional[Delta] = field(default=None, compare=False)
    #: The :class:`~repro.engine.database.CommitStamp` of the *oldest*
    #: modification batch this refresh carries — the conservative base
    #: for write→deliver freshness (``repro_freshness_seconds``).
    commit: Optional[Any] = field(default=None, compare=False)

    def coalesce_with(self, newer: "RefreshNotification") -> "RefreshNotification":
        """Merge a *newer* refresh of the same subscription into this one.

        Used by the serving layer's ``coalesce`` backpressure policy: a
        slow subscriber whose queue fills receives one notification that
        carries the latest result/rows and the **merged result-level
        delta** — applying it to the state the subscriber last saw yields
        exactly the latest result, so no information is lost by skipping
        the intermediate delivery.  A missing delta on either side means
        the precise change is unknown; the merged delta is then ``None``
        (subscribers fall back to reading ``result``).
        """
        if newer.subscription is not self.subscription:
            raise ValueError(
                "refresh notifications of different subscriptions "
                "cannot be coalesced"
            )
        merged_delta = (
            self.delta.merge(newer.delta)
            if self.delta is not None and newer.delta is not None
            else None
        )
        # Freshness is measured against the *oldest* write the delivery
        # answers: coalescing keeps the older stamp so a skipped
        # intermediate delivery cannot make the subscriber look fresher
        # than it is.
        if self.commit is not None and newer.commit is not None:
            older_commit = min(self.commit, newer.commit)
        else:
            older_commit = self.commit or newer.commit
        return RefreshNotification(
            subscription=newer.subscription,
            result=newer.result,
            rows=newer.rows,
            changed_tables=tuple(
                sorted({*self.changed_tables, *newer.changed_tables})
            ),
            delta=merged_delta,
            commit=older_commit,
        )


#: One subscription on a bus: the listener and, on a pooled bus, its
#: mailbox.
_Entry = Tuple[Callable[[Any], None], Optional[Mailbox]]


class EventBus:
    """Topic-based fan-out with listener error isolation, inline or pooled.

    ``workers=0`` delivers on the publishing thread: ``publish`` calls
    every listener before it returns.  ``workers >= 1`` hands delivery
    to a :class:`~repro.serve.bus.DeliveryPool`: each listener gets its
    own bounded :class:`~repro.serve.queues.Mailbox` (*capacity* and
    backpressure *policy*, overridable per :meth:`subscribe`) pinned to
    one worker thread, so delivery is in-order per listener and one slow
    callback cannot stall the publisher.

    Both modes run one delivery routine (:meth:`_deliver`): a
    ``deliver`` span when *tracer* records, the listener call, the
    ``delivery.pre_ack`` crashpoint, error isolation, the
    :attr:`delivered` count and the *on_delivered* hook, which fires
    once per delivery attempt with the payload.

    Listener exceptions are swallowed per delivery and recorded on
    :attr:`errors` (a bounded list of ``(topic, listener, exception)``
    triples) so one misbehaving subscriber cannot prevent the remaining
    subscribers from hearing about a refresh.  Each failure is also
    announced on the :attr:`LISTENER_ERROR_TOPIC` topic as
    ``(topic, listener, exception)`` so operators can watch subscriber
    health without polling :attr:`errors`.

    Failures raised *while delivering on the listener-error topic itself*
    are recorded but never re-announced: without that guard, a
    listener-error listener that raises would re-enter the error publish
    and recurse until the stack blows — starving every other subscriber
    of the original delivery.  Failures on every *other* topic —
    including the :attr:`ERROR_TOPIC` refresh-failure channel — are
    announced with their originating topic carried through, so operators
    can tell a failing error-listener from a failing refresh-listener.
    """

    #: How many delivery errors to keep for inspection.
    MAX_ERRORS = 100

    #: The topic refresh/flush failures are published on (by the manager).
    ERROR_TOPIC = "error"

    #: The topic listener delivery failures are announced on (by the bus).
    LISTENER_ERROR_TOPIC = "listener-error"

    def __init__(
        self,
        *,
        workers: int = 0,
        capacity: int = 64,
        policy: str = "coalesce",
        tracer=None,
        on_delivered: Optional[Callable[[Any], None]] = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be non-negative")
        self._listeners: Dict[str, List[_Entry]] = {}
        self._lock = threading.RLock()
        self.errors: List[Tuple[str, Callable, Exception]] = []
        #: Delivery attempts completed, failed ones included.
        self.delivered = 0
        self._failed = 0
        self.tracer = tracer
        self.on_delivered = on_delivered
        self.pool: Optional[DeliveryPool] = (
            DeliveryPool(workers=workers, capacity=capacity, policy=policy)
            if workers
            else None
        )

    def subscribe(
        self,
        topic: str,
        listener: Callable[[Any], None],
        *,
        capacity: Optional[int] = None,
        policy: Optional[str] = None,
    ) -> Callable[[], None]:
        """Register *listener* for *topic*; returns an unsubscribe thunk.

        On a pooled bus *capacity*/*policy* override the bus defaults
        for this listener's mailbox — a dashboard can coalesce while an
        audit log blocks.  An inline bus has no mailboxes and ignores
        them.
        """
        mailbox = None
        if self.pool is not None:
            mailbox = self.pool.register(
                functools.partial(self._deliver, topic, listener),
                capacity=capacity,
                policy=policy,
            )
        entry = (listener, mailbox)
        with self._lock:
            self._listeners.setdefault(topic, []).append(entry)

        def unsubscribe() -> None:
            with self._lock:
                group = self._listeners.get(topic, [])
                for index, candidate in enumerate(group):
                    if candidate is entry:
                        del group[index]
                        break
                else:
                    return
            if mailbox is not None:
                self.pool.unregister(mailbox)

        return unsubscribe

    def _group(self, topic: str) -> Tuple[_Entry, ...]:
        with self._lock:
            return tuple(self._listeners.get(topic, ()))

    def publish(self, topic: str, payload: Any) -> int:
        """Deliver *payload* to every listener of *topic*.

        Inline, returns the number of listeners that returned without
        raising.  Pooled, returns the number of mailboxes that accepted
        the payload (queued or coalesced into the one waiting).
        """
        group = self._group(topic)
        if self.pool is None:
            ok = 0
            for listener, _ in group:
                ok += self._deliver(topic, listener, payload)
            return ok
        accepted = 0
        for _, mailbox in group:
            if self.pool.post(mailbox, payload) != REJECTED:
                accepted += 1
        return accepted

    def _deliver(self, topic: str, listener: Callable, payload: Any) -> bool:
        """Run one delivery; ``True`` when the listener did not raise.

        Runs on the publishing thread (inline) or on the delivery worker
        that owns the listener's mailbox (pooled).
        """
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            with tracer.span(
                "deliver", listener=getattr(listener, "__name__", "?")
            ):
                ok = self._call(topic, listener, payload)
        else:
            ok = self._call(topic, listener, payload)
        hook = self.on_delivered
        if hook is not None:
            try:
                hook(payload)
            except Exception:  # noqa: BLE001 — never fail a delivery
                pass
        with self._lock:
            self.delivered += 1
        return ok

    def _call(self, topic: str, listener: Callable, payload: Any) -> bool:
        try:
            listener(payload)
            # Crashpoint: the listener ran but the delivery is not yet
            # acknowledged.  action="exit" models a crash in the ack
            # window (the durability tests' lost-notification probe);
            # action="raise" is isolated like any listener error.
            faults.fire("delivery.pre_ack")
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            self._record_failure(topic, listener, exc)
            return False
        return True

    def _record_failure(
        self, topic: str, listener: Callable, exc: Exception
    ) -> None:
        """Record one delivery failure; announce it unless that would
        recurse through the error channel.

        Only failures raised *on the listener-error topic itself* are
        suppressed — announcing those would re-enter this publish and
        recurse.  A failing listener on any other topic (the refresh
        topics, but also the ``"error"`` refresh-failure channel) is
        announced with its originating *topic* carried in the payload.
        """
        with self._lock:
            self._failed += 1
            if len(self.errors) < self.MAX_ERRORS:
                self.errors.append((topic, listener, exc))
        if topic != self.LISTENER_ERROR_TOPIC:
            self.publish(self.LISTENER_ERROR_TOPIC, (topic, listener, exc))

    def listener_count(self, topic: Optional[str] = None) -> int:
        with self._lock:
            if topic is not None:
                return len(self._listeners.get(topic, ()))
            return sum(len(group) for group in self._listeners.values())

    # ------------------------------------------------------------------
    # Queue introspection and lifecycle (trivial on an inline bus)
    # ------------------------------------------------------------------

    def backlog(self) -> int:
        """Undelivered payloads across all listener mailboxes."""
        return self.pool.backlog() if self.pool is not None else 0

    def oldest_commit_age(
        self, topic: str, now: Optional[float] = None
    ) -> Optional[float]:
        """Age of the oldest commit-stamped payload still queued for
        *topic*'s listeners, or ``None`` when nothing stamped waits.

        Snapshot-time introspection for the staleness gauges — walks the
        topic's mailboxes only when asked, so delivery pays nothing.
        """
        oldest: Optional[float] = None
        for _, mailbox in self._group(topic):
            if mailbox is None:
                continue
            age = mailbox.oldest_commit_age(now)
            if age is not None and (oldest is None or age > oldest):
                oldest = age
        return oldest

    def capture_pending(self, topic: str) -> List[Tuple[Any, ...]]:
        """Undelivered payloads per listener of *topic*, oldest first.

        The checkpoint capture path (non-destructive — items stay queued
        for delivery): one tuple per subscribed listener, in
        subscription order; always empty on an inline bus.
        """
        return [
            mailbox.capture() if mailbox is not None else ()
            for _, mailbox in self._group(topic)
        ]

    def restore_pending(self, topic: str, items: Tuple[Any, ...]) -> int:
        """Hand captured payloads to every listener of *topic* again.

        The recovery path.  Pooled, the items append behind anything
        already queued (bypassing backpressure) and the owning workers
        wake; inline, they are delivered before this returns.  Returns
        the number of accepted payload deliveries.
        """
        if self.pool is None:
            return sum(self.publish(topic, item) for item in items)
        accepted = 0
        for _, mailbox in self._group(topic):
            restored = mailbox.restore(items)
            if restored:
                accepted += restored
                mailbox._worker.schedule(mailbox)  # type: ignore[attr-defined]
        return accepted

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for every queued payload to finish delivering; ``False``
        when *timeout* elapsed first."""
        return self.pool.drain(timeout=timeout) if self.pool is not None else True

    def close(self, *, drain: bool = True) -> None:
        """Stop the delivery workers, by default after delivering
        everything queued."""
        if self.pool is not None:
            self.pool.close(drain=drain)

    def stats(self) -> Dict[str, int]:
        """Delivery counters; an inline bus queues nothing, so its
        ``queued`` equals ``delivered`` and its backlog is 0."""
        with self._lock:
            delivered, failed = self.delivered, self._failed
        if self.pool is not None:
            data = self.pool.stats()
        else:
            data = {
                "workers": 0,
                "queued": delivered,
                "delivered": delivered,
                "dropped": 0,
                "coalesced": 0,
                "backlog": 0,
            }
        data["delivery_errors"] = failed
        data["topics"] = self.listener_count()
        return data
