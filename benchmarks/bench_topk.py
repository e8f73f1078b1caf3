"""Top-k flush benchmark: maintained window vs. full re-sort.

The tentpole claim of the subscribable ``ORDER BY ... LIMIT k``: a
single-row write against a large ordered subscription touches only the
k-row window — an O(log k) bisect — never the relation.  Two strategies
are measured for a one-row insert that lands *inside* the window (a new
leader arrives; the boundary row is evicted into the overflow count)
against a ``SELECT ... ORDER BY S DESC LIMIT 10`` subscription at 10k
and 100k rows:

* **delta** — the incremental path: the typed row delta bisects into the
  maintained window (``LiveSession(db)``, the default);
* **full**  — after every modification the whole plan re-runs, i.e.
  re-sorts the relation (``db.query``), and the result is compared with
  the previous one — the work a full refresh does.

Run styles:

* ``pytest benchmarks/bench_topk.py`` — pytest-benchmark groups
  (``--benchmark-disable`` for a correctness-only smoke pass);
* ``python benchmarks/bench_topk.py`` — standalone driver that times
  both strategies and records ``BENCH_topk.json`` at the repository
  root (the acceptance gate: delta ≥ 10× faster than the full re-sort
  at 100k rows).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.engine.database import Database
from repro.engine.plan import scan
from repro.live import LiveSession
from repro.relational.schema import Schema

_SIZES = (10_000, 100_000)
_K = 10


def _build_database(n_rows: int) -> Database:
    db = Database(f"topk-{n_rows}")
    table = db.create_table("R", Schema.of("ID", "S"))
    table.insert_many((i, i) for i in range(n_rows))
    return db


def _topk_plan():
    return scan("R").order_by(("S", True), limit=_K)


class _Workbench:
    """One top-k subscription plus a cycling new-leader insert."""

    def __init__(self, n_rows: int):
        self.db = _build_database(n_rows)
        self.session = LiveSession(self.db)
        self.subscription = self.session.subscribe(_topk_plan())
        self._next_score = n_rows  # strictly above every existing score

    def modify_and_flush(self):
        """The measured step: one new top row, flush."""
        score = self._next_score
        self._next_score += 1
        self.db.table("R").insert(score, score)
        self.session.flush()
        return self.subscription.result


class _RequeryWorkbench:
    """The full baseline: re-run the plan after every modification and
    compare with the previous result, keeping no operator state."""

    def __init__(self, n_rows: int):
        self.db = _build_database(n_rows)
        self.result = self.db.query(_topk_plan())
        self.changed = 0
        self._next_score = n_rows

    def modify_and_flush(self):
        """The measured step: one new top row, re-sort."""
        score = self._next_score
        self._next_score += 1
        self.db.table("R").insert(score, score)
        result = self.db.query(_topk_plan())
        self.changed += result != self.result
        self.result = result
        return result


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
    benchmark.group = "topk-flush-10k"
    benchmark.name = "window_delta"
    result = benchmark.pedantic(
        delta_bench.modify_and_flush, rounds=5, iterations=1
    )
    assert len(result) == _K
    stats = delta_bench.session.stats()
    assert stats["repro_live_delta_refreshes_total"] > 0
    assert stats["repro_live_full_refreshes_total"] == 0


def test_full_flush(benchmark, full_bench):
    benchmark.group = "topk-flush-10k"
    benchmark.name = "full_resort"
    result = benchmark.pedantic(
        full_bench.modify_and_flush, rounds=3, iterations=1
    )
    assert len(result) == _K
    assert full_bench.changed > 0


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
# Standalone driver: record BENCH_topk.json
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
        "benchmark": "topk_flush",
        "description": (
            f"new-leader insert against an ORDER BY DESC LIMIT {_K} "
            "subscription; seconds per modification+refresh (best of N)"
        ),
        "k": _K,
        "results": [],
    }
    for n_rows in sizes:
        delta_side = _Workbench(n_rows)
        full_side = _RequeryWorkbench(n_rows)

        delta_s = _time(delta_side.modify_and_flush, repeats=7)
        full_s = _time(full_side.modify_and_flush, repeats=3)
        stats = delta_side.session.stats()
        assert stats["repro_live_full_refreshes_total"] == 0
        assert stats["repro_live_delta_refreshes_total"] > 0
        entry = {
            "rows": n_rows,
            "k": _K,
            "delta_seconds": delta_s,
            "full_seconds": full_s,
            "speedup_vs_full": full_s / delta_s,
        }
        report["results"].append(entry)
        print(
            f"rows={n_rows:>7}: delta {delta_s * 1e3:8.3f} ms   "
            f"full {full_s * 1e3:9.2f} ms ({entry['speedup_vs_full']:.1f}x)"
        )
    return report


def main() -> None:
    report = run()
    out_path = Path(__file__).resolve().parent.parent / "BENCH_topk.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    largest = report["results"][-1]
    assert largest["speedup_vs_full"] >= 10.0, (
        f"maintained top-k must be ≥10x faster than a full re-sort at "
        f"{largest['rows']} rows, got {largest['speedup_vs_full']:.1f}x"
    )


if __name__ == "__main__":
    main()
