"""repro.live — push-based ongoing queries: results that stay valid, clients
that stay subscribed.

The paper proves that an ongoing query result remains valid as the
reference time passes and only goes stale on *explicit* modifications.
That is precisely the contract a continuous-query/subscription service
needs, and this package is that service:

* :mod:`repro.live.events` — :class:`ChangeEvent` / :class:`RefreshNotification`
  records and the one :class:`EventBus` notifications travel on, which
  delivers inline (``workers=0``) or through the worker threads of
  :mod:`repro.serve` (``workers >= 1``) with the same delivery routine;
* :mod:`repro.live.dependencies` — the :class:`DependencyIndex` mapping
  base tables to the plan fingerprints they invalidate (one per
  session, serial or sharded);
* :mod:`repro.live.subscription` — the client-side :class:`Subscription`
  handle (cheap :meth:`~Subscription.instantiate` at any reference time,
  per-subscription statistics);
* :mod:`repro.live.manager` — the :class:`SubscriptionManager` /
  :class:`LiveSession` facade: one
  :class:`~repro.engine.maintenance.IncrementalMaintainer` per
  :meth:`~repro.engine.plan.PlanNode.fingerprint` (structurally equal
  plans from different clients share one evaluation), typed-delta
  intake from the database hooks, batched coalescing flushes that *propagate* row deltas through
  cached operator state (:mod:`repro.engine.delta`) instead of
  re-evaluating, notification fan-out with empty-delta suppression.

Design invariant: **no clock**.  Nothing in this package reads or
advances time; the only trigger for work is a base-table modification
event, and serving a subscriber at a new reference time is a pure
instantiation of an already-materialized ongoing result.

Quickstart::

    from repro.engine.database import Database
    from repro.live import LiveSession

    session = LiveSession(database)
    sub = session.subscribe_sql(
        "SELECT * FROM B WHERE VT OVERLAPS PERIOD '[08/01, 09/01)'",
        on_refresh=lambda event: print("refreshed:", len(event.result.tuples)),
    )
    sub.instantiate(rt)        # any rt, never re-evaluates
    ...                        # current_delete / insert on base tables
    session.flush()            # one coalesced delta propagation + notification
"""

from repro.live.dependencies import DependencyIndex, referenced_tables
from repro.live.events import ChangeEvent, EventBus, RefreshNotification
from repro.live.manager import FlushHandle, LiveSession, SubscriptionManager
from repro.live.subscription import Subscription, SubscriptionStats

__all__ = [
    "ChangeEvent",
    "DependencyIndex",
    "EventBus",
    "FlushHandle",
    "LiveSession",
    "RefreshNotification",
    "Subscription",
    "SubscriptionManager",
    "SubscriptionStats",
    "referenced_tables",
]
