"""Aggregate-flush benchmark: per-group delta refresh vs. full re-aggregation.

The tentpole claim of the subscribable GROUP BY: a single-row modification
against a large grouped subscription re-aggregates only the touched
group's member set — work proportional to ``|group|``, not ``|relation|``.
Three strategies are measured for a one-row insert against a
``SELECT G, COUNT(*) ... GROUP BY G`` subscription at 10k and 100k rows:

* **delta** — the incremental path: the typed row delta routes to its
  group's maintained member set (``LiveSession(db)``, the default);
* **full**  — after every modification the whole plan re-runs
  (``db.query``) and the result is compared with the previous one — the
  work a full refresh does;
* **rerun** — the pre-plan-node baseline: call the relational
  ``group_by`` on a fresh table snapshot per modification, as the old
  ``sqlish.run()`` aggregate path had to.

Run styles:

* ``pytest benchmarks/bench_aggregate_flush.py`` — pytest-benchmark
  groups (``--benchmark-disable`` for a correctness-only smoke pass);
* ``python benchmarks/bench_aggregate_flush.py`` — standalone driver
  that times all strategies and records ``BENCH_aggregate.json`` at the
  repository root (the acceptance gate: delta ≥ 10× faster than full
  re-aggregation at 100k rows).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.core.interval import until_now
from repro.engine.database import Database
from repro.engine.plan import scan
from repro.live import LiveSession
from repro.relational.aggregate import group_by
from repro.relational.schema import Schema

_SIZES = (10_000, 100_000)
_GROUPS = 1_000  # rows per group = size / 1000
_HISTORY = 1_000


def _build_database(n_rows: int) -> Database:
    db = Database(f"aggregate-{n_rows}")
    table = db.create_table("E", Schema.of("ID", "G", ("VT", "interval")))
    table.insert_many(
        (i, i % _GROUPS, until_now(i % _HISTORY)) for i in range(n_rows)
    )
    return db


def _group_plan():
    return scan("E").group_by(("G",), "count", output_name="n")


def _insert_row(db: Database, row_id: int) -> None:
    """The measured modification: one row into one group."""
    db.table("E").insert(
        row_id, row_id % _GROUPS, until_now(row_id % _HISTORY)
    )


class _Workbench:
    """One grouped subscription plus a cycling single-row insert."""

    def __init__(self, n_rows: int):
        self.db = _build_database(n_rows)
        self.session = LiveSession(self.db)
        self.subscription = self.session.subscribe(_group_plan())
        self._next_id = n_rows

    def modify_and_flush(self):
        """The measured step: insert one row into one group, flush."""
        _insert_row(self.db, self._next_id)
        self._next_id += 1
        self.session.flush()
        return self.subscription.result


class _RequeryWorkbench:
    """The full baseline: re-run the plan after every modification and
    compare with the previous result, keeping no operator state."""

    def __init__(self, n_rows: int):
        self.db = _build_database(n_rows)
        self.result = self.db.query(_group_plan())
        self.changed = 0
        self._next_id = n_rows

    def modify_and_flush(self):
        """The measured step: insert one row, re-run the plan."""
        _insert_row(self.db, self._next_id)
        self._next_id += 1
        result = self.db.query(_group_plan())
        self.changed += result != self.result
        self.result = result
        return result


def _rerun_once(db: Database):
    """The pre-plan-node baseline: full relational group_by per change."""
    return group_by(db.relation("E"), ["G"], "count", output_name="n")


# ----------------------------------------------------------------------
# pytest-benchmark entry points (small size only: CI smoke friendliness)
# ----------------------------------------------------------------------

_BENCH_ROWS = 10_000


@pytest.fixture(scope="module")
def delta_bench():
    return _Workbench(_BENCH_ROWS)


@pytest.fixture(scope="module")
def full_bench():
    return _RequeryWorkbench(_BENCH_ROWS)


def test_delta_flush(benchmark, delta_bench):
    benchmark.group = "aggregate-flush-10k"
    benchmark.name = "per_group_delta"
    result = benchmark.pedantic(
        delta_bench.modify_and_flush, rounds=5, iterations=1
    )
    assert len(result) == _GROUPS
    stats = delta_bench.session.stats()
    assert stats["repro_live_delta_refreshes_total"] > 0
    assert stats["repro_live_full_refreshes_total"] == 0


def test_full_flush(benchmark, full_bench):
    benchmark.group = "aggregate-flush-10k"
    benchmark.name = "full_reaggregation"
    result = benchmark.pedantic(
        full_bench.modify_and_flush, rounds=3, iterations=1
    )
    assert len(result) == _GROUPS
    assert full_bench.changed > 0


def test_group_by_rerun(benchmark):
    db = _build_database(_BENCH_ROWS)
    next_id = iter(range(_BENCH_ROWS, 2 * _BENCH_ROWS))

    def modify_and_rerun():
        row_id = next(next_id)
        db.table("E").insert(row_id, row_id % _GROUPS, until_now(1))
        return _rerun_once(db)

    benchmark.group = "aggregate-flush-10k"
    benchmark.name = "relational_rerun"
    result = benchmark.pedantic(modify_and_rerun, rounds=3, iterations=1)
    assert len(result) == _GROUPS


def test_delta_and_full_agree():
    """Correctness anchor for the benchmark scenario itself."""
    delta_side = _Workbench(2_000)
    full_side = _RequeryWorkbench(2_000)
    for _ in range(5):
        left = delta_side.modify_and_flush()
        right = full_side.modify_and_flush()
        assert left == right
    assert delta_side.session.stats()["repro_live_full_refreshes_total"] == 0


# ----------------------------------------------------------------------
# Standalone driver: record BENCH_aggregate.json
# ----------------------------------------------------------------------


def _time(callable_, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def run(sizes=_SIZES) -> dict:
    report = {
        "benchmark": "aggregate_flush",
        "description": (
            "single-row insert against a COUNT(*) GROUP BY subscription "
            "with 1000 groups; seconds per modification+refresh (best of N)"
        ),
        "groups": _GROUPS,
        "results": [],
    }
    for n_rows in sizes:
        delta_side = _Workbench(n_rows)
        full_side = _RequeryWorkbench(n_rows)
        rerun_db = _build_database(n_rows)
        rerun_ids = iter(range(n_rows, 2 * n_rows))

        def rerun_step():
            _insert_row(rerun_db, next(rerun_ids))
            _rerun_once(rerun_db)

        delta_s = _time(delta_side.modify_and_flush, repeats=7)
        full_s = _time(full_side.modify_and_flush, repeats=3)
        rerun_s = _time(rerun_step, repeats=3)
        stats = delta_side.session.stats()
        assert stats["repro_live_full_refreshes_total"] == 0
        assert stats["repro_live_delta_refreshes_total"] > 0
        entry = {
            "rows": n_rows,
            "rows_per_group": n_rows // _GROUPS,
            "delta_seconds": delta_s,
            "full_seconds": full_s,
            "rerun_seconds": rerun_s,
            "speedup_vs_full": full_s / delta_s,
            "speedup_vs_rerun": rerun_s / delta_s,
        }
        report["results"].append(entry)
        print(
            f"rows={n_rows:>7}: delta {delta_s * 1e3:8.3f} ms   "
            f"full {full_s * 1e3:9.2f} ms ({entry['speedup_vs_full']:.1f}x)   "
            f"rerun {rerun_s * 1e3:9.2f} ms "
            f"({entry['speedup_vs_rerun']:.1f}x)"
        )
    return report


def main() -> None:
    report = run()
    out_path = Path(__file__).resolve().parent.parent / "BENCH_aggregate.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    largest = report["results"][-1]
    assert largest["speedup_vs_full"] >= 10.0, (
        f"per-group delta refresh must be ≥10x faster than full "
        f"re-aggregation at {largest['rows']} rows, got "
        f"{largest['speedup_vs_full']:.1f}x"
    )


if __name__ == "__main__":
    main()
