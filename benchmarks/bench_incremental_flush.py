"""Incremental-flush benchmark: delta propagation vs. re-evaluation.

The tentpole claim of the delta engine: a single-row modification against
a large joined subscription costs work proportional to the *modification*,
not the base tables.  Three strategies are measured for a one-row current
update against an ``L ⋈ R`` subscription at 10k and 100k rows of ``L``:

* **delta** — the incremental path: the typed row delta probes the join's
  cached hash state (``LiveSession(db)``, the default);
* **full**  — re-evaluation: after every modification the whole plan
  re-runs (``db.query``) and the result is compared with the previous
  one — the work a full refresh does;
* **clifford** — the instantiate-when-accessed baseline: the query runs
  on data bound at a fixed reference time and must re-run per
  modification *and* per reference time.

Run styles:

* ``pytest benchmarks/bench_incremental_flush.py`` — pytest-benchmark
  groups (``--benchmark-disable`` for a correctness-only smoke pass);
* ``python benchmarks/bench_incremental_flush.py`` — standalone driver
  that times all strategies and records ``BENCH_incremental.json`` at the
  repository root (the acceptance gate: delta ≥ 5× faster than full
  re-evaluation at 100k rows).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.baselines import clifford
from repro.baselines.fixed_algebra import FIXED_PREDICATES
from repro.core.interval import until_now
from repro.engine.database import Database
from repro.engine.modifications import current_update
from repro.engine.plan import scan
from repro.engine.storage import sizeof_delta, sizeof_tuple
from repro.live import LiveSession
from repro.relational.predicates import col
from repro.relational.schema import Schema

_SIZES = (10_000, 100_000)
_FANOUT = 100  # |R|; every L row joins exactly one R row
_HISTORY = 1_000


def _build_database(n_rows: int) -> Database:
    db = Database(f"incremental-{n_rows}")
    left = db.create_table(
        "L", Schema.of("ID", "FK", ("VT", "interval"))
    )
    right = db.create_table("R", Schema.of("RID", "G", ("VT", "interval")))
    left.insert_many(
        (i, i % _FANOUT, until_now(i % _HISTORY)) for i in range(n_rows)
    )
    right.insert_many(
        (i, i % 10, until_now(i % _HISTORY)) for i in range(_FANOUT)
    )
    return db


def _join_plan():
    return scan("L").join(
        scan("R"),
        on=(col("L.FK") == col("R.RID")) & col("L.VT").overlaps(col("R.VT")),
        left_name="L",
        right_name="R",
    )


def _one_row_update(db: Database, key: int) -> None:
    """The measured modification: one current update of L row *key*."""
    current_update(
        db.table("L"),
        lambda row: row.values[0] == key,
        (key, key % _FANOUT),
        at=_HISTORY + key + 1,
    )


class _Workbench:
    """One subscription session plus a cycling modification key."""

    def __init__(self, n_rows: int):
        self.db = _build_database(n_rows)
        self.session = LiveSession(self.db)
        self.subscription = self.session.subscribe(_join_plan())
        self._next_key = iter(range(n_rows))

    def modify_and_flush(self):
        _one_row_update(self.db, next(self._next_key))
        self.session.flush()
        return self.subscription.result


class _RequeryWorkbench:
    """The full baseline: re-run the plan after every modification and
    compare with the previous result, keeping no operator state."""

    def __init__(self, n_rows: int):
        self.db = _build_database(n_rows)
        self.result = self.db.query(_join_plan())
        self.refreshes = 0
        self.changed = 0
        self._next_key = iter(range(n_rows))

    def modify_and_flush(self):
        _one_row_update(self.db, next(self._next_key))
        result = self.db.query(_join_plan())
        self.refreshes += 1
        self.changed += result != self.result
        self.result = result
        return result


def _clifford_once(db: Database, rt: int):
    """Clifford baseline: bind both tables at *rt*, join fixed data."""
    left = clifford.bind_relation(db.relation("L"), rt)
    right = clifford.bind_relation(db.relation("R"), rt)
    overlaps = FIXED_PREDICATES["overlaps"]
    return clifford.hash_join(
        left,
        right,
        left_keys=(1,),
        right_keys=(0,),
        residual=lambda l, r: overlaps(l[2], r[2]),
    )


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
    benchmark.group = "incremental-flush-10k"
    benchmark.name = "delta_propagation"
    result = benchmark.pedantic(
        delta_bench.modify_and_flush, rounds=5, iterations=1
    )
    assert len(result) == _BENCH_ROWS + delta_bench.session.stats()["repro_live_flushes_total"]
    assert delta_bench.session.stats()["repro_live_full_refreshes_total"] == 0


def test_full_flush(benchmark, full_bench):
    benchmark.group = "incremental-flush-10k"
    benchmark.name = "full_reevaluation"
    result = benchmark.pedantic(
        full_bench.modify_and_flush, rounds=3, iterations=1
    )
    assert len(result) == _BENCH_ROWS + full_bench.refreshes
    assert full_bench.changed == full_bench.refreshes


def test_clifford_rerun(benchmark):
    db = _build_database(_BENCH_ROWS)
    keys = iter(range(_BENCH_ROWS))

    def modify_and_rerun():
        _one_row_update(db, next(keys))
        return _clifford_once(db, _HISTORY // 2)

    benchmark.group = "incremental-flush-10k"
    benchmark.name = "clifford_rerun"
    result = benchmark.pedantic(modify_and_rerun, rounds=3, iterations=1)
    assert result


def test_delta_and_full_agree():
    """Correctness anchor for the benchmark scenario itself."""
    delta_side = _Workbench(1_000)
    full_side = _RequeryWorkbench(1_000)
    for _ in range(5):
        left = delta_side.modify_and_flush()
        right = full_side.modify_and_flush()
        assert frozenset(left.tuples) == frozenset(right.tuples)
    assert delta_side.session.stats()["repro_live_full_refreshes_total"] == 0


# ----------------------------------------------------------------------
# Standalone driver: record BENCH_incremental.json
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
        "benchmark": "incremental_flush",
        "description": (
            "single-row current update against an L ⋈ R subscription; "
            "seconds per modification+refresh (best of N)"
        ),
        "fanout": _FANOUT,
        "results": [],
    }
    for n_rows in sizes:
        delta_side = _Workbench(n_rows)
        full_side = _RequeryWorkbench(n_rows)
        clifford_db = _build_database(n_rows)
        clifford_keys = iter(range(n_rows))

        def clifford_step():
            _one_row_update(clifford_db, next(clifford_keys))
            _clifford_once(clifford_db, _HISTORY // 2)

        delta_s = _time(delta_side.modify_and_flush, repeats=7)
        full_s = _time(full_side.modify_and_flush, repeats=3)
        clifford_s = _time(clifford_step, repeats=3)
        assert delta_side.session.stats()["repro_live_full_refreshes_total"] == 0
        # Storage view of the same asymmetry: bytes shipped by one typed
        # change event vs. bytes of the materialization it keeps fresh.
        captured = []
        delta_side.db.add_delta_listener(
            lambda name, version, delta: captured.append(delta)
        )
        delta_side.modify_and_flush()
        delta_bytes = sum(sizeof_delta(delta) for delta in captured)
        result_bytes = sum(
            sizeof_tuple(item)
            for item in delta_side.subscription.result.tuples
        )
        entry = {
            "rows": n_rows,
            "delta_seconds": delta_s,
            "full_seconds": full_s,
            "clifford_seconds": clifford_s,
            "speedup_vs_full": full_s / delta_s,
            "speedup_vs_clifford": clifford_s / delta_s,
            "delta_bytes_per_modification": delta_bytes,
            "result_bytes": result_bytes,
        }
        report["results"].append(entry)
        print(
            f"L={n_rows:>7}: delta {delta_s * 1e3:8.2f} ms   "
            f"full {full_s * 1e3:9.2f} ms ({entry['speedup_vs_full']:.1f}x)   "
            f"clifford {clifford_s * 1e3:9.2f} ms "
            f"({entry['speedup_vs_clifford']:.1f}x)"
        )
    return report


def main() -> None:
    report = run()
    out_path = Path(__file__).resolve().parent.parent / "BENCH_incremental.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    worst = min(entry["speedup_vs_full"] for entry in report["results"])
    assert worst >= 5.0, (
        f"delta path must be ≥5x faster than full re-evaluation, got {worst:.1f}x"
    )


if __name__ == "__main__":
    main()
