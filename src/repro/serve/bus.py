"""Threaded notification fan-out: the delivery pool.

:class:`DeliveryPool` is N worker threads servicing per-subscriber
bounded :class:`~repro.serve.queues.Mailbox` queues.  A mailbox is
pinned to exactly one worker, which yields **in-order, exactly-once
delivery per subscription** (modulo the subscriber's own ``coalesce``
policy) with zero global coordination; workers round-robin across their
mailboxes so no subscriber starves another.

A worker calls the mailbox's listener and nothing else.  The
:class:`~repro.live.events.EventBus` built with ``workers >= 1``
registers its delivery routine as that listener, so spans, the
``delivery.pre_ack`` crashpoint, error isolation and the
``on_delivered`` hook are the same code as on the inline bus.  A
listener registered on a bare pool that raises is counted on its
mailbox's ``errors`` and never kills the worker.

Call :meth:`DeliveryPool.drain` to wait until every queue is empty and
every in-flight callback returned — the flush/benchmark barrier.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.serve.queues import Mailbox

__all__ = ["DeliveryPool"]


class _DeliveryWorker:
    """One delivery thread plus the mailboxes pinned to it."""

    def __init__(self, name: str):
        self.condition = threading.Condition()
        #: Mailboxes with queued items, FIFO for round-robin fairness.
        self.ready: Deque[Mailbox] = deque()
        self.mailboxes: List[Mailbox] = []
        self.open = True
        self.active = 0  # callbacks currently running
        self.delivered = 0
        self.thread = threading.Thread(target=self._run, name=name, daemon=True)

    def start(self) -> None:
        self.thread.start()

    def schedule(self, mailbox: Mailbox) -> None:
        """Mark *mailbox* ready (condition held by the caller via put)."""
        with self.condition:
            if not mailbox.scheduled and len(mailbox):
                mailbox.scheduled = True
                self.ready.append(mailbox)
                self.condition.notify_all()

    def _run(self) -> None:
        while True:
            with self.condition:
                while self.open and not self.ready:
                    self.condition.wait()
                if not self.open and not self.ready:
                    return
                mailbox = self.ready.popleft()
                item = mailbox._pop()
                if len(mailbox._items):
                    self.ready.append(mailbox)  # round-robin: go to the back
                else:
                    mailbox.scheduled = False
                self.active += 1
            try:
                mailbox.listener(item)
            except Exception:  # noqa: BLE001 — never kill the worker
                with self.condition:
                    mailbox.errors += 1
            finally:
                with self.condition:
                    self.active -= 1
                    self.delivered += 1
                    mailbox.delivered += 1
                    self.condition.notify_all()

    def idle(self) -> bool:
        """No ready mailboxes and no callback in flight (condition held)."""
        return not self.ready and self.active == 0

    def stop(self, *, drain: bool, timeout: float = 10.0) -> None:
        with self.condition:
            if drain:
                # Bounded: one subscriber callback stuck in I/O must not
                # hang shutdown forever — after the grace period the
                # remaining queue is abandoned (the thread is a daemon).
                self.condition.wait_for(self.idle, timeout=timeout)
            if not self.idle():
                for mailbox in self.ready:
                    mailbox.scheduled = False
                self.ready.clear()
            self.open = False
            self.condition.notify_all()
        self.thread.join(timeout=timeout)


class DeliveryPool:
    """N delivery workers fanning payloads out to pinned mailboxes."""

    #: How long a ``block``-policy post may wait before degrading to
    #: ``drop_oldest`` (liveness bound: a dead subscriber must not wedge
    #: the flush pipeline forever; the degrade is counted as dropped).
    BLOCK_TIMEOUT = 30.0

    def __init__(
        self,
        *,
        workers: int = 4,
        capacity: int = 64,
        policy: str = "coalesce",
        name: str = "delivery",
        block_timeout: float = BLOCK_TIMEOUT,
    ):
        if workers < 1:
            raise ValueError("a delivery pool needs at least one worker")
        self.capacity = capacity
        self.policy = policy
        self.block_timeout = block_timeout
        self._workers = [
            _DeliveryWorker(f"{name}-{index}") for index in range(workers)
        ]
        self._next_worker = itertools.count()
        self._closed = False
        for worker in self._workers:
            worker.start()
        self._worker_idents = {
            worker.thread.ident for worker in self._workers
        }

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(
        self,
        listener: Callable[[Any], None],
        *,
        capacity: Optional[int] = None,
        policy: Optional[str] = None,
    ) -> Mailbox:
        """Create a bounded mailbox for *listener*, pinned to one worker."""
        if self._closed:
            raise RuntimeError("delivery pool is closed")
        worker = self._workers[next(self._next_worker) % len(self._workers)]
        mailbox = Mailbox(
            listener,
            condition=worker.condition,
            capacity=capacity if capacity is not None else self.capacity,
            policy=policy if policy is not None else self.policy,
        )
        mailbox._worker = worker  # type: ignore[attr-defined]
        with worker.condition:
            worker.mailboxes.append(mailbox)
        return mailbox

    def unregister(self, mailbox: Mailbox) -> None:
        worker = mailbox._worker  # type: ignore[attr-defined]
        with worker.condition:
            mailbox._close()
            if mailbox.scheduled:
                try:
                    worker.ready.remove(mailbox)
                except ValueError:
                    pass
                mailbox.scheduled = False
            try:
                worker.mailboxes.remove(mailbox)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # Posting
    # ------------------------------------------------------------------

    def post(
        self, mailbox: Mailbox, payload: Any, *, timeout: Optional[float] = None
    ) -> str:
        """Admit *payload* and wake the owning worker; returns the outcome.

        ``block``-policy waits are always bounded: *timeout* defaults to
        :attr:`block_timeout`, and a post issued **from a delivery worker
        thread** (a callback publishing, an error announcement) never
        waits at all — a worker blocking on a mailbox only it can drain
        would deadlock itself and starve every subscriber pinned to it.
        """
        if timeout is None:
            timeout = (
                0.0
                if threading.get_ident() in self._worker_idents
                else self.block_timeout
            )
        outcome = mailbox.put(payload, timeout=timeout)
        mailbox._worker.schedule(mailbox)  # type: ignore[attr-defined]
        return outcome

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every queue is empty and no callback is in flight.

        Returns ``False`` when *timeout* elapsed first.  New payloads
        posted while draining extend the wait — drain is a barrier for
        "everything accepted so far", meant to be called once producers
        paused (end of a flush round, shutdown, benchmark edges).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            # One pass must observe every worker idle without waiting:
            # a delivery on worker B may post to a mailbox on already
            # checked worker A (error announcements, chained publishes),
            # so any wait invalidates the passes before it.
            settled = True
            for worker in self._workers:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    remaining = 0
                with worker.condition:
                    if worker.idle():
                        continue
                    settled = False
                    if not worker.condition.wait_for(
                        worker.idle, timeout=remaining
                    ):
                        return False
            if settled:
                return True

    def backlog(self) -> int:
        """Undelivered payloads across all mailboxes — the load signal
        the adaptive serve-loop debounce reads (cheaper than
        :meth:`stats`, which also walks the counter fields)."""
        total = 0
        for worker in self._workers:
            with worker.condition:
                for mailbox in worker.mailboxes:
                    total += len(mailbox._items)
        return total

    def close(self, *, drain: bool = True) -> None:
        """Stop all workers; by default deliver everything queued first."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.stop(drain=drain)

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> Dict[str, int]:
        queued = delivered = dropped = coalesced = errors = backlog = 0
        for worker in self._workers:
            with worker.condition:
                delivered_w = worker.delivered
                for mailbox in worker.mailboxes:
                    queued += mailbox.queued
                    dropped += mailbox.dropped
                    coalesced += mailbox.coalesced
                    errors += mailbox.errors
                    backlog += len(mailbox._items)
            delivered += delivered_w
        return {
            "workers": len(self._workers),
            "queued": queued,
            "delivered": delivered,
            "dropped": dropped,
            "coalesced": coalesced,
            "delivery_errors": errors,
            "backlog": backlog,
        }
