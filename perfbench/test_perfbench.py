"""Tests of the benchmark itself: smoke run, metric catalogue, attribution
and the correctness oracle.

Run with ``python -m pytest perfbench`` from the root of the repository.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import oracle  # noqa: E402
import run  # noqa: E402
from spans import Timeline, flatten, percentile  # noqa: E402


def _last_json(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_runs_every_workload_and_its_checks():
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    lines = [json.loads(line) for line in completed.stdout.strip().splitlines()]
    summary = lines[-1]
    assert summary["correct"] is True
    assert summary["failed"] == 0
    per_workload = {line["workload"]: line for line in lines[:-1]}
    assert set(per_workload) == {"bugs-write", "bugs-dashboard", "bugs-durable-serve"}
    for name, result in per_workload.items():
        metrics = result["metrics"]
        assert set(metrics) == set(run.per_layer_units()), name
        assert metrics["trace.unattributed_ratio"]["value"] <= 0.10, name
    durable = per_workload["bugs-durable-serve"]["metrics"]
    assert durable["durable.recovery.replayed_records"]["value"] > 0
    assert durable["durable.wal.bytes_per_write"]["value"] > 0


def test_manifest_lists_exactly_the_printed_metrics():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.per_layer_units()
    details = json.loads((HERE / "workloads.json").read_text())
    assert {w["name"] for w in manifest["workloads"]} == set(details["workloads"])


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bugs-write", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_flatten_gives_the_innermost_span_each_instant():
    segments = flatten([(0.0, 10.0, "outer"), (2.0, 4.0, "inner"), (6.0, 7.0, "inner")])
    assert segments == [
        (0.0, 2.0, "outer"),
        (2.0, 4.0, "inner"),
        (4.0, 6.0, "outer"),
        (6.0, 7.0, "inner"),
        (7.0, 10.0, "outer"),
    ]


def test_timeline_ranks_threads_and_names_gaps():
    writer = [(0.0, 2.0, "engine.modifications"), (2.0, 5.0, "live.manager")]
    worker = [(4.0, 8.0, "serve.bus"), (5.0, 6.0, "bench")]
    waits = [(5.0, 9.0, "serve.queues")]
    owned = Timeline([writer, worker, waits]).attribute(0.0, 10.0)
    assert owned == {
        "engine.modifications": 2.0,
        "live.manager": 3.0,
        "serve.bus": 2.0,
        "bench": 1.0,
        "serve.queues": 1.0,
        None: 1.0,
    }


def test_percentile_interpolates():
    assert percentile([], 0.5) == 0.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert percentile(list(range(101)), 0.99) == 99.0


def test_end_to_end_times_are_scaled_to_the_reference_speed():
    from types import SimpleNamespace

    from spans import REFERENCE_PROBE_MS, SpeedProbe, Timings

    timings = Timings()
    for seconds in (0.001, 0.002, 0.003):
        timings.add("untraced.write", seconds)
        timings.add("untraced.deliver", 2 * seconds)
    probe = SpeedProbe()
    probe.samples = [REFERENCE_PROBE_MS / 2e3]  # the machine ran twice as fast
    workload = SimpleNamespace(timings=timings, probe=probe)
    metrics = run.end_to_end_metrics(workload, [1.0, 3.0, 2.0], log=lambda message: None)
    assert set(metrics) == set(run.END_TO_END)
    assert abs(metrics["write_ms.p50"] - 4.0) < 1e-9
    assert abs(metrics["deliver_ms.p50"] - 8.0) < 1e-9
    assert metrics["setup_s"] == 2.0  # set-up time is not scaled


def test_oracle_reports_a_result_that_differs_from_the_reference():
    from repro.core.interval import fixed_interval, until_now
    from repro.relational.relation import OngoingRelation
    from repro.relational.schema import Schema

    schema = Schema.of("ID", ("VT", "interval"))
    reference = OngoingRelation.from_rows(schema, [(1, until_now(0)), (2, fixed_interval(0, 5))])
    stale = OngoingRelation.from_rows(schema, [(1, until_now(0)), (2, fixed_interval(0, 9))])
    assert oracle.mismatches("q", reference, reference, [1, 7]) == []
    problems = oracle.mismatches("q", stale, reference, [1, 7])
    assert len(problems) == 2 and problems[0].startswith("q: rt=1")

    class Notification:
        def __init__(self, delta, result):
            self.delta = delta
            self.result = result

    from repro.engine.delta import Delta

    replay = oracle.DeltaReplay(OngoingRelation(schema, reference.tuples[:1]))
    assert not replay.matches(reference)
    replay.apply(Notification(Delta.insert(reference.tuples[1:]), reference))
    assert replay.matches(reference)
