"""repro.serve — the concurrent serving layer over the live engine.

The paper's validity property makes ongoing results *servable at scale*:
once materialized, a result refreshes only on explicit modifications, so
the expensive part of serving millions of subscribers is fan-out and
refresh scheduling — not recomputation.  This package is that serving
machinery, layered on :mod:`repro.live`:

* :mod:`repro.serve.queues` — per-subscriber bounded
  :class:`Mailbox` queues with ``block`` / ``drop_oldest`` / ``coalesce``
  backpressure policies (coalescing merges the notifications'
  result-level deltas, so skipped deliveries lose no information);
* :mod:`repro.serve.bus` — the :class:`DeliveryPool` of worker threads
  that a :class:`~repro.live.events.EventBus` built with ``workers >= 1``
  delivers through: ``publish`` enqueues, so one slow subscriber can no
  longer stall a flush;
* :mod:`repro.serve.scheduler` — :func:`shard_index` (stable CRC-32
  routing of plan fingerprints) and the :class:`FlushScheduler`: one
  FIFO worker per shard, so independent shared results refresh in
  parallel while each result stays serially consistent.

There is one bus class and one dependency index: the session always
resolves a table change to fingerprints through its one
:class:`~repro.live.dependencies.DependencyIndex`, and the scheduler
routes each fingerprint to its shard.  Everything is opt-in through the
:class:`~repro.live.manager.SubscriptionManager` constructor::

    session = LiveSession(
        db,
        delivery_workers=4,   # threaded notification fan-out
        flush_shards=4,       # parallel refresh of independent plans
        backpressure="coalesce",
    )
    session.serve(debounce=0.005)   # background modification-driven flushing
    ...
    session.close()                 # drains queues, joins all workers

Concurrency invariants (tested in ``tests/serve/``):

* **exactly-once, in-order per subscription** — a subscription's
  notifications are produced by the one shard worker owning its
  fingerprint and delivered by the one delivery worker owning its
  mailbox, both FIFO;
* **no torn reads** — results are immutable relations swapped
  atomically; full re-evaluations hold the database write lock
  (:attr:`~repro.engine.database.Database.lock`), so concurrently
  written rows are either in the re-read tables or in the pending
  deltas, never both, and never lost;
* **no clock** — the serve loop's debounce only *coalesces* wakeups
  caused by modifications; nothing refreshes because time passed.
"""

from repro.serve.bus import DeliveryPool
from repro.serve.queues import BACKPRESSURE_POLICIES, Mailbox
from repro.serve.scheduler import FlushRound, FlushScheduler, shard_index

__all__ = [
    "BACKPRESSURE_POLICIES",
    "DeliveryPool",
    "FlushRound",
    "FlushScheduler",
    "Mailbox",
    "shard_index",
]
