"""The flush scheduler: stable shard routing, and the shard-worker crash
path — an exception escaping the refresh callable must be counted,
announced, and must never kill the shard thread."""

import hashlib
import threading

import pytest

from repro.core.interval import until_now
from repro.engine.database import Database
from repro.live import LiveSession
from repro.live.events import EventBus
from repro.live.manager import SubscriptionManager
from repro.relational.schema import Schema
from repro.serve.scheduler import FlushScheduler, shard_index


def _database():
    db = Database("failures")
    table = db.create_table("R", Schema.of("K", ("VT", "interval")))
    table.insert(1, until_now(10))
    return db


class TestShardIndex:
    def test_deterministic_and_in_range(self):
        keys = [f"fingerprint-{i:04x}" for i in range(256)]
        for shards in (1, 2, 4, 7):
            owners = [shard_index(key, shards) for key in keys]
            assert owners == [shard_index(key, shards) for key in keys]
            assert all(0 <= owner < shards for owner in owners)

    def test_single_shard_short_circuits(self):
        assert shard_index("anything", 1) == 0

    def test_distribution_is_roughly_uniform(self):
        # SHA-256-hex-like keys spread evenly: no shard may end up with
        # more than twice its fair share over 4 shards and 400 keys.
        keys = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(400)]
        counts = [0, 0, 0, 0]
        for key in keys:
            counts[shard_index(key, 4)] += 1
        assert max(counts) <= 200

    def test_scheduler_needs_a_shard(self):
        with pytest.raises(ValueError):
            FlushScheduler(lambda *job: True, shards=0)

    def test_jobs_run_on_their_owning_shard(self):
        threads = {}

        def refresh(fingerprint, tables, coalesced):
            threads.setdefault(fingerprint, set()).add(
                threading.current_thread().name
            )
            return True

        scheduler = FlushScheduler(refresh, shards=4, name="route")
        try:
            keys = [f"key-{i}" for i in range(32)]
            for _ in range(3):
                assert scheduler.flush({key: frozenset({"R"}) for key in keys}) == 32
            for key in keys:
                # Every round ran the key on one thread: its owning shard.
                assert threads[key] == {f"route-{shard_index(key, 4)}"}
            assert sum(scheduler.flush_counts()) == 3 * len(keys)
        finally:
            scheduler.close()


class TestSchedulerFailurePath:
    def test_escaped_exception_counted_and_reported(self):
        seen = []
        boom = RuntimeError("refresh machinery broke")

        def refresh(fingerprint, tables, coalesced):
            if fingerprint == "doomed":
                raise boom
            return True

        scheduler = FlushScheduler(
            refresh, shards=2, on_error=lambda *args: seen.append(args)
        )
        try:
            scheduler.flush(
                {"doomed": frozenset({"R"}), "fine": frozenset({"R"})},
                timeout=10,
            )
            assert sum(scheduler.failure_counts()) == 1
            assert seen == [(scheduler.shard_of("doomed"), "doomed", boom)]
            stats = scheduler.stats()
            assert stats["repro_shard_worker_failures_total"] == 1
            assert sum(stats["repro_serve_shard_failures"]) == 1
        finally:
            scheduler.close()

    def test_shard_keeps_draining_after_a_failure(self):
        calls = []

        def refresh(fingerprint, tables, coalesced):
            calls.append(fingerprint)
            if len(calls) == 1:
                raise RuntimeError("first job dies")
            return True

        scheduler = FlushScheduler(refresh, shards=1)
        try:
            scheduler.flush({"a": frozenset({"R"})}, timeout=10)
            refreshed = scheduler.flush({"b": frozenset({"R"})}, timeout=10)
            assert refreshed == 1
            assert calls == ["a", "b"]
            assert scheduler.failure_counts() == (1,)
        finally:
            scheduler.close()

    def test_broken_error_hook_does_not_kill_the_shard(self):
        def refresh(fingerprint, tables, coalesced):
            raise RuntimeError("boom")

        def hook(shard, fingerprint, exc):
            raise ValueError("the hook itself is broken")

        scheduler = FlushScheduler(refresh, shards=1, on_error=hook)
        try:
            scheduler.flush({"a": frozenset({"R"})}, timeout=10)
            assert scheduler.failure_counts() == (1,)
            assert not scheduler.backlog()
        finally:
            scheduler.close()


class TestManagerIntegration:
    def test_failure_bumps_stat_and_announces(self, monkeypatch):
        db = _database()
        session = LiveSession(db, flush_shards=2)
        announced = []
        delivered = threading.Event()

        def on_listener_error(event):
            announced.append(event)
            delivered.set()

        session.bus.subscribe(
            EventBus.LISTENER_ERROR_TOPIC, on_listener_error
        )
        sub = session.subscribe_sql(
            "SELECT * FROM R", on_refresh=lambda event: None, name="s1"
        )

        def broken(self, fingerprint, changed_tables, coalesced):
            raise RuntimeError("machinery failure past the isolation layer")

        monkeypatch.setattr(SubscriptionManager, "_refresh_one_impl", broken)
        db.table("R").insert(2, until_now(20))
        session.flush()
        assert delivered.wait(timeout=10)
        assert session.stats()["repro_shard_worker_failures_total"] == 1
        assert sum(session.stats()["shard_failures"]) == 1
        source, detail, exc = announced[0]
        assert source == "flush-shard"
        assert detail.startswith("shard-")
        assert sub.fingerprint[:12] in detail
        assert isinstance(exc, RuntimeError)
        monkeypatch.undo()
        session.close()

    def test_failure_sample_rendered_with_shard_label(self, monkeypatch):
        db = _database()
        session = LiveSession(db, flush_shards=2)
        session.subscribe_sql(
            "SELECT * FROM R", on_refresh=lambda event: None, name="s1"
        )

        def broken(self, fingerprint, changed_tables, coalesced):
            raise RuntimeError("boom")

        monkeypatch.setattr(SubscriptionManager, "_refresh_one_impl", broken)
        db.table("R").insert(2, until_now(20))
        session.flush()
        monkeypatch.undo()
        rendered = session.metrics.render_prometheus()
        assert 'repro_shard_worker_failures_total{shard="' in rendered
        session.close()
