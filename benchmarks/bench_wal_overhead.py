"""WAL overhead gates: the flush tail stays flat, recovery beats re-running.

PR 10 makes every committed modification batch append one CRC-framed
record to the write-ahead log *on the commit path* — the flush tail
(delta propagation + notification) must not feel it.  Two gates against
the durability design goals:

* **flush tail** — the ``bench_result_store`` scenario (single-row
  current update against a subscribed wide-pass filter at 10k rows,
  flush only, best of N) re-timed on a durable database with the
  default ``fsync="batch"`` policy; gated to **10%** over the recorded
  ``BENCH_result_store.json`` ``delta_seconds`` baseline.  The full
  write path (modify + flush, where the WAL append actually lands) is
  measured against a same-run plain database and *reported* alongside.
* **recovery by replay** — a checkpointed 10k-row database with two
  live SQL subscriptions and a 300-record WAL suffix.  Recovery
  (``Database.open`` → load checkpoint, resume subscriptions warm,
  replay the suffix as deltas, one batched flush) is gated **≥ 10×**
  faster than the cold alternative: re-running the same suffix against
  the same subscriptions with a full re-evaluation per batch, which is
  what a restart without delta-maintained recovery state amounts to.

Run styles mirror ``bench_result_store``:

* ``pytest benchmarks/bench_wal_overhead.py`` — correctness smoke plus
  the flush-tail gate (skipped when no baseline has been recorded);
  CI runs this with ``--benchmark-disable``;
* ``python benchmarks/bench_wal_overhead.py`` — standalone driver that
  asserts both gates and records ``BENCH_wal.json``.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path
from typing import Dict

import pytest

from repro.core.interval import until_now
from repro.engine.database import Database
from repro.engine.modifications import current_update
from repro.relational.relation import OngoingRelation
from repro.sqlish import compile_statement

from bench_result_store import (
    _BENCH_ROWS,
    _HISTORY,
    _Workbench,
    _build_database,
    _plan,
    _time,
)

_REPO_ROOT = Path(__file__).resolve().parent.parent
_BASELINE_PATH = _REPO_ROOT / "BENCH_result_store.json"
_MAX_TAIL_OVERHEAD = 1.10  # durable flush tail <= baseline * 1.10
_MIN_RECOVERY_SPEEDUP = 10.0

_RECOVERY_ROWS = 10_000
_RECOVERY_SUFFIX = 300
_SUBSCRIPTIONS = (
    ("wide", "SELECT * FROM L WHERE FLAG = 1"),
    ("narrow", "SELECT * FROM L WHERE ID >= 9000"),
)


class _DurableWorkbench(_Workbench):
    """The ``bench_result_store`` workbench on a WAL-backed database."""

    def __init__(self, n_rows: int, fsync: str = "batch"):
        self.n_rows = n_rows
        self._root = Path(tempfile.mkdtemp(prefix="bench-wal-"))
        self.db = Database.open(self._root / "db", fsync=fsync)
        reference = _build_database(n_rows)
        table = self.db.create_table("L", reference.table("L").schema)
        table.insert_many(row.values for row in reference.table("L").rows())
        reference.close()
        self.session = self.db.live_session()
        self.subscription = self.session.subscribe(_plan())
        self._keys = iter(range(n_rows))

    def close(self) -> None:
        self.db.close()
        shutil.rmtree(self._root, ignore_errors=True)


def _subscribe_all(session, sink=lambda event: None):
    for name, statement in _SUBSCRIPTIONS:
        session.subscribe_sql(statement, on_refresh=sink, name=name)


def _build_recovery_root(root: Path, *, n_rows: int, suffix: int) -> None:
    """A checkpointed durable database with a *suffix*-record WAL tail."""
    db = Database.open(root, fsync="batch")
    reference = _build_database(n_rows)
    table = db.create_table("L", reference.table("L").schema)
    table.insert_many(row.values for row in reference.table("L").rows())
    reference.close()
    session = db.live_session()
    _subscribe_all(session)
    session.flush()
    db.checkpoint()
    for k in range(suffix):
        table.insert(n_rows + 10 + k, 1, until_now(5))
    db.close()


def _cold_replay(n_rows: int, suffix: int) -> Dict[str, OngoingRelation]:
    """The no-recovery restart: full re-evaluation per suffix batch.

    Every batch re-runs each subscribed statement and compares the
    result with the previous one — the work a full refresh does.
    Returns the final result per subscription name.
    """
    db = _build_database(n_rows)
    plans = {
        name: compile_statement(statement, db)
        for name, statement in _SUBSCRIPTIONS
    }
    results = {name: db.query(plan) for name, plan in plans.items()}
    table = db.table("L")
    changed = 0
    for k in range(suffix):
        table.insert(n_rows + 10 + k, 1, until_now(5))
        for name, plan in plans.items():
            result = db.query(plan)
            changed += result != results[name]
            results[name] = result
    assert changed > 0
    return results


def _packed_results(results: Dict[str, OngoingRelation]):
    return {
        name: sorted(map(repr, result.tuples))
        for name, result in results.items()
    }


def _session_results(session) -> Dict[str, OngoingRelation]:
    return {sub.name: sub.result for sub in session.subscriptions}


# ----------------------------------------------------------------------
# pytest entry points (small sizes: CI smoke friendliness)
# ----------------------------------------------------------------------


def test_wal_on_results_stay_exact():
    """Correctness anchor: the durable workbench maintains the same
    result as re-querying, while every modification reached the WAL."""
    bench = _DurableWorkbench(1_000)
    try:
        for _ in range(5):
            bench.modify()
            bench.flush()
        assert frozenset(bench.read().tuples) == frozenset(
            bench.db.query(_plan()).tuples
        )
        stats = bench.db._durability.stats()
        assert stats["wal_appends"] >= 6  # bulk load + five updates
    finally:
        bench.close()


def test_recovery_beats_cold_replay_smoke(tmp_path):
    """Small-scale shape check: recovery replays incrementally and
    lands on exactly the state the cold path re-computes."""
    n_rows, suffix = 2_000, 25
    root = tmp_path / "db"
    _build_recovery_root(root, n_rows=n_rows, suffix=suffix)
    recovered = Database.open(
        root,
        session={},
        on_refresh={name: (lambda event: None) for name, _ in _SUBSCRIPTIONS},
    )
    try:
        report = recovered._durability.last_recovery
        assert report.replayed_records == suffix
        assert report.resumed_subscriptions == len(_SUBSCRIPTIONS)
        cold = _cold_replay(n_rows, suffix)
        assert _packed_results(
            _session_results(recovered._live_session)
        ) == _packed_results(cold)
    finally:
        recovered.close()


def test_flush_tail_gate():
    """The recorded-baseline gate, runnable without the full driver."""
    if not _BASELINE_PATH.exists():
        pytest.skip("no BENCH_result_store.json baseline recorded")
    baseline = _load_baseline()
    bench = _DurableWorkbench(_BENCH_ROWS)
    try:
        tail = _time(bench.flush, setup=bench.modify, repeats=7)
    finally:
        bench.close()
    assert tail <= baseline * _MAX_TAIL_OVERHEAD, (
        f"durable flush tail {tail * 1e6:.1f}µs exceeds "
        f"{_MAX_TAIL_OVERHEAD:.2f}x the recorded {baseline * 1e6:.1f}µs"
    )


def test_wal_write_step(benchmark):
    """pytest-benchmark grouping for the full write path (modify+flush)."""
    bench = _DurableWorkbench(_BENCH_ROWS)
    benchmark.group = "wal-write-10k"

    def step():
        bench.modify()
        bench.flush()

    try:
        benchmark.pedantic(step, rounds=5, iterations=1)
    finally:
        bench.close()


# ----------------------------------------------------------------------
# Standalone driver: record BENCH_wal.json
# ----------------------------------------------------------------------


def _load_baseline() -> float:
    report = json.loads(_BASELINE_PATH.read_text())
    for entry in report["results"]:
        if entry["rows"] == _BENCH_ROWS:
            return entry["delta_seconds"]
    raise KeyError(f"no {_BENCH_ROWS}-row entry in {_BASELINE_PATH}")


def _measure_write(report: dict) -> None:
    baseline = _load_baseline()
    plain = _Workbench(_BENCH_ROWS)
    durable = _DurableWorkbench(_BENCH_ROWS)
    try:
        tail_off = _time(plain.flush, setup=plain.modify, repeats=15)
        tail_on = _time(durable.flush, setup=durable.modify, repeats=15)

        def step(bench):
            def run():
                bench.modify()
                bench.flush()

            return run

        noop = lambda: None  # noqa: E731 — setup slot for _time
        write_off = _time(step(plain), setup=noop, repeats=15)
        write_on = _time(step(durable), setup=noop, repeats=15)
    finally:
        durable.close()
        plain.session.close()
        plain.db.close()
    report["results"]["write"] = {
        "rows": _BENCH_ROWS,
        "baseline_delta_seconds": baseline,
        "flush_tail_wal_off_seconds": tail_off,
        "flush_tail_wal_on_seconds": tail_on,
        "write_path_wal_off_seconds": write_off,
        "write_path_wal_on_seconds": write_on,
        "write_path_ratio": write_on / write_off,
    }
    report["write_overhead_ratio"] = tail_on / baseline
    print(
        f"flush tail: off {tail_off * 1e6:8.1f} µs   on {tail_on * 1e6:8.1f} µs"
        f"   vs baseline {baseline * 1e6:8.1f} µs "
        f"({report['write_overhead_ratio']:.2f}x)"
    )
    print(
        f"write path: off {write_off * 1e6:8.1f} µs   on {write_on * 1e6:8.1f}"
        f" µs  ({write_on / write_off:.2f}x, reported, not gated)"
    )


def _measure_recovery(report: dict) -> None:
    import time

    root = Path(tempfile.mkdtemp(prefix="bench-wal-rec-")) / "db"
    try:
        _build_recovery_root(
            root, n_rows=_RECOVERY_ROWS, suffix=_RECOVERY_SUFFIX
        )
        started = time.perf_counter()
        recovered = Database.open(
            root,
            session={},
            on_refresh={
                name: (lambda event: None) for name, _ in _SUBSCRIPTIONS
            },
        )
        recovery_s = time.perf_counter() - started
        recovery_report = recovered._durability.last_recovery
        assert recovery_report.replayed_records == _RECOVERY_SUFFIX
        assert recovery_report.resumed_subscriptions == len(_SUBSCRIPTIONS)

        started = time.perf_counter()
        cold = _cold_replay(_RECOVERY_ROWS, _RECOVERY_SUFFIX)
        cold_s = time.perf_counter() - started
        assert _packed_results(
            _session_results(recovered._live_session)
        ) == _packed_results(cold)
        recovered.close()
    finally:
        shutil.rmtree(root.parent, ignore_errors=True)
    report["results"]["recovery"] = {
        "rows": _RECOVERY_ROWS,
        "suffix_records": _RECOVERY_SUFFIX,
        "subscriptions": len(_SUBSCRIPTIONS),
        "recovery_seconds": recovery_s,
        "cold_reevaluation_seconds": cold_s,
    }
    report["recovery_speedup"] = cold_s / recovery_s
    print(
        f"recovery: {recovery_s:6.3f} s   cold re-evaluation: {cold_s:6.3f} s"
        f"   ({report['recovery_speedup']:.1f}x)"
    )


def run() -> dict:
    report = {
        "benchmark": "wal",
        "description": (
            "durability overhead and payoff.  write: the "
            "bench_result_store 10k-row flush tail re-timed on a durable "
            "database (fsync=batch), plus the full modify+flush write "
            "path vs a same-run plain database.  recovery: checkpoint + "
            f"{_RECOVERY_SUFFIX}-record WAL suffix replayed warm vs a "
            "full re-evaluation per batch of the same subscriptions"
        ),
        "gates": {
            "write_overhead": (
                f"durable flush tail <= {_MAX_TAIL_OVERHEAD:.2f}x the "
                "recorded BENCH_result_store delta_seconds"
            ),
            "recovery_speedup": f">= {_MIN_RECOVERY_SPEEDUP:.1f}",
        },
        "results": {},
    }
    _measure_write(report)
    _measure_recovery(report)
    assert report["write_overhead_ratio"] <= _MAX_TAIL_OVERHEAD, (
        f"flush-tail gate failed: {report['write_overhead_ratio']:.2f}x"
    )
    assert report["recovery_speedup"] >= _MIN_RECOVERY_SPEEDUP, (
        f"recovery gate failed: {report['recovery_speedup']:.1f}x"
    )
    return report


def main() -> None:
    report = run()
    out_path = _REPO_ROOT / "BENCH_wal.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
