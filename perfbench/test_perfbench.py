"""Tests of the benchmark itself.

Run from the repository root (they take about two minutes)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from perfbench import harness  # noqa: E402
from perfbench import run as runner  # noqa: E402
from perfbench import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)

#: Per-layer metrics that are counts, not times: they must repeat exactly.
EXACT = sorted(
    name for name, (unit, _better) in runner.PER_LAYER.items()
    if unit in ("count", "bytes", "ratio") and name != "trace.overhead_share")


def cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", WORKLOADS)
def test_exact_layer_counts_repeat_across_runs(name):
    runs = [result_of(cli("--workload", name, "--seed", "3",
                          "--seconds", "1", "--trace", "1"))
            for _ in range(2)]
    first, second = (
        {k: v["value"] for k, v in r["metrics"].items() if k in EXACT}
        for r in runs)
    assert first, "no exact counters reported"
    assert first == second
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(runner.PER_LAYER)


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_workload_reports_every_end_to_end_metric(name):
    result = result_of(cli("--workload", name, "--seed", "4",
                           "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(runner.END_TO_END)
    for metric in result["metrics"].values():
        assert metric["value"] > 0


def comparable(ops):
    """Ops with compiled predicates replaced by their names (compiled
    queries hold closures, which never compare equal)."""
    return [(cls, (arg[0], arg[1], [getattr(p, "name", p) for p in arg[2]]))
            if cls == "relation" else (cls, arg) for cls, arg in ops]


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_changes_the_inputs(name):
    cls = workloads.WORKLOADS[name]
    one, again, other = (cls(ROOT, seed) for seed in (1, 1, 2))
    assert one.records == again.records
    assert comparable(one.ops) == comparable(again.ops)
    assert one.records != other.records
    assert comparable(one.ops) != comparable(other.ops)


class _DropsOneId(workloads.PaperD1Disk):
    """A small D1 workload whose store loses one id from every window."""

    n = 3_000

    def build(self):
        from repro.bench.harness import paper_database
        from repro.core.ritree import RITree

        class Lossy(RITree):
            def intersection(self, lower, upper):
                return super().intersection(lower, upper)[1:]

        tree = Lossy(paper_database())
        tree.bulk_load(self.records)
        tree.db.flush()
        return tree


def test_store_that_drops_an_id_fails_the_oracle():
    report = runner.run(_DropsOneId(ROOT, 5), 0.5, trace=False)
    result = report["result"]
    assert result["failed"] > 0
    assert not result["correct"]


def test_intact_small_run_is_correct():
    class Small(workloads.PaperD1Disk):
        n = 3_000

    result = runner.run(Small(ROOT, 5), 0.5, trace=False)["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == set(runner.END_TO_END)


def test_every_pass_after_the_warm_up_does_the_same_io():
    """The best-of-passes timing rests on this: from the second pass on,
    the LRU cache and the index start every pass in the same state,
    writes included."""

    class Medium(workloads.PaperD1Disk):
        n = 20_000
        n_ops = 300

    workload = Medium(ROOT, 7)
    tree = workload.build()
    journal = harness.Journal()
    io = []
    for _ in range(3):
        before = tree.db.stats.snapshot()
        harness.replay(journal, workload.execute, tree, workload.ops)
        delta = tree.db.stats.snapshot() - before
        io.append((delta.logical_reads, delta.physical_reads))
    assert io[1] == io[2]
    assert io[1][1] > 0, "the index must not fit in the cache"
    assert journal.rounds[0] == journal.rounds[1] == journal.rounds[2]


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == runner.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = cli("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
