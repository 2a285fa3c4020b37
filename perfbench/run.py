"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-d1-disk --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (and writes the spans under ``.bench_out/``); every workload
prints every metric of its table.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(name -> value and unit).  The line before it is a JSON ``detail``
object (sizes, op counts, the read p99, the times of layers only one
workload has, a calibration-loop time as a drift diagnostic, oracle
notes).
"""

from __future__ import annotations

import argparse
import gc
import json
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # run as a script: make the package importable
    sys.path.insert(0, str(ROOT))

from perfbench import harness  # noqa: E402
from perfbench.workloads import (READ_CLASSES, WORKLOADS,  # noqa: E402
                                 written_records)

#: End-to-end metrics: name -> (unit, better, bound).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "stab_p50_us": ("us", "lower", 0.25),
    "window_p50_us": ("us", "lower", 0.25),
    "count_p50_us": ("us", "lower", 0.25),
    "relation_p50_us": ("us", "lower", 0.25),
    "join_p50_us": ("us", "lower", 0.25),
    "read_ops_s": ("1/s", "higher", 0.25),
    "write_p50_us": ("us", "lower", 0.25),
    "ingest_rec_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

#: Per-layer metrics: name -> (unit, better).  Every workload reports
#: every one; a layer a workload's path does not pass through reports
#: the counts of no work there (see ``workloads.NO_ENGINE`` and its
#: neighbours).
PER_LAYER = {
    "engine.logical_reads_per_read": ("count", "lower"),
    "engine.physical_reads_per_read": ("count", "lower"),
    "engine.hit_ratio": ("ratio", "higher"),
    "engine.bytes_per_interval": ("bytes", "lower"),
    "engine.wal_blocks_per_batch": ("count", "lower"),
    "store.stab_self_us": ("us", "lower"),
    "store.window_self_us": ("us", "lower"),
    "store.count_self_us": ("us", "lower"),
    "store.relation_self_us": ("us", "lower"),
    "store.results_per_read": ("count", "higher"),
    "store.reads_per_result": ("count", "lower"),
    "hint.read_us": ("us", "lower"),
    "join.pairs_per_probe": ("count", "higher"),
    "join.self_us": ("us", "lower"),
    "router.shards_per_read": ("count", "lower"),
    "router.replica_ratio": ("ratio", "lower"),
    "service.request_bytes": ("bytes", "lower"),
    "service.response_bytes": ("bytes", "lower"),
    "ingest.stalls": ("count", "lower"),
    "frames.engine_per_read": ("count", "lower"),
    "frames.core_per_read": ("count", "lower"),
    "frames.service_per_request": ("count", "lower"),
    "frames.json_per_request": ("count", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}

#: Per-layer metrics of a layer only one workload has: name -> unit.
#: A time of a layer that is not there would read 0 on every run, so
#: these go to the ``detail`` line of the workloads they apply to.
LAYER_DETAIL = {
    "engine.force_us": "us",
    "engine.checkpoint_us": "us",
    "temporal.advance_us": "us",
    "ingest.batch_us": "us",
    "ingest.records_per_force": "count",
    "router.self_us": "us",
    "router.write_us": "us",
    "service.overhead_us": "us",
    **{f"service.{cls}_overhead_us": "us" for cls in READ_CLASSES},
    "service.encode_us": "us",
    "service.decode_us": "us",
    "service.dispatch_us": "us",
    "service.transport_us": "us",
}


def end_to_end(workload, best, sut) -> dict:
    """Every end-to-end metric but ``setup_s`` (see :func:`run`)."""
    ops = workload.ops
    classes = by_class(ops, best)
    metrics = {f"{cls}_p50_us": harness.p50_us(classes[cls])
               for cls in READ_CLASSES}
    metrics["read_ops_s"] = read_ops_s(ops, best)
    writes = [(op, ns) for op, ns in zip(ops, best) if op[0] not in READ_CLASSES]
    metrics["write_p50_us"] = harness.p50_us([ns for _, ns in writes])
    metrics["ingest_rec_s"] = (sum(written_records(op) for op, _ in writes)
                               / (sum(ns for _, ns in writes) / 1e9))
    metrics["peak_rss_mb"] = workload.rss_mb(sut)
    return metrics


def by_class(ops, best) -> dict[str, list]:
    out: dict[str, list] = {}
    for op, ns in zip(ops, best):
        out.setdefault(op[0], []).append(ns)
    return out


def reads(ops, best) -> list:
    return [ns for op, ns in zip(ops, best) if op[0] in READ_CLASSES]


def read_p99_us(ops, best):
    return harness.p99_us(reads(ops, best))


def read_ops_s(ops, best) -> float:
    """Reads completed per second of time spent in read calls."""
    times = reads(ops, best)
    return len(times) / (sum(times) / 1e9)


def run(workload, seconds: float, trace: bool) -> dict:
    """Set up, warm up, measure and check one workload; see module doc."""
    calibration = [harness.calibration_us()]
    name, seed, ops = workload.name, workload.seed, workload.ops
    tracer = harness.Tracer() if trace else None
    if tracer is not None:
        workload.instrument(tracer)
    journal = harness.Journal()
    setup_times: list[float] = []
    sut = None

    def build():
        nonlocal sut
        if sut is not None:
            workload.discard(sut)
            sut = None
        gc.collect()
        began = time.perf_counter()
        sut = workload.build()
        setup_times.append(time.perf_counter() - began)

    # Each cycle runs one pass per entry: (label, traced, factory of a
    # side target, or None for the system under test).
    cycle = [("plain", False, None)]
    if trace:
        cycle.append(("traced", True, None))
        cycle.extend((label, False, make)
                     for label, make in workload.side_targets().items())
    #: Side targets built once; a workload rebuilt every pass builds
    #: them afresh for every pass too.
    side: dict = {}
    best = harness.Best(len(ops), [label for label, _, _ in cycle])
    pass_s: list[float] = []
    try:
        # Half the builds run now and half after the timed passes, so the
        # median of their times spans the run rather than its first
        # seconds.
        before = 1 if workload.rebuild_each_pass else -(-workload.setups // 2)
        for _ in range(before):
            build()
        if not workload.rebuild_each_pass:
            side = {label: make() for label, _, make in cycle if make}
        gc.collect()
        harness.replay(journal, workload.execute, workload.target(sut), ops)
        metrics = {}
        if trace:
            if workload.rebuild_each_pass:
                build()
            metrics = workload.count_pass(journal, sut)
        if workload.rebuild_each_pass:
            # Timed passes build their own; this one must not be frozen.
            workload.discard(sut)
            sut = None
        gc.collect()
        # Everything alive now -- inputs, the op list, the built system --
        # is moved out of the cyclic collector's reach, so collection
        # pauses in the timed passes scale with what they allocate.
        gc.freeze()
        deadline = time.perf_counter() + seconds
        while not pass_s or time.perf_counter() < deadline:
            for label, traced, make in cycle:
                if make is None:
                    if workload.rebuild_each_pass:
                        build()
                    target = workload.target(sut)
                else:
                    target = side[label] if label in side else make()
                gc.collect()
                if tracer is not None:
                    tracer.active = traced
                began = time.perf_counter()
                harness.replay(journal, workload.execute, target, ops,
                               best.times[label], tracer if traced else None)
                pass_s.append(time.perf_counter() - began)
                if tracer is not None:
                    tracer.active = False
        if tracer is None:
            metrics = end_to_end(workload, best.times["plain"], sut)
        else:
            best.fold(tracer)
            metrics.update(workload.traced_metrics(best, sut))
            metrics["trace.overhead_share"] = (
                read_ops_s(ops, best.times["plain"])
                / read_ops_s(ops, best.times["traced"]) - 1)
        sizes = workload.sizes(sut)
        if tracer is None:
            gc.unfreeze()
            for _ in range(workload.setups - len(setup_times)):
                build()
            metrics["setup_s"] = statistics.median(setup_times)
    finally:
        gc.unfreeze()
        if sut is not None:
            workload.discard(sut)
        if tracer is not None:
            tracer.unwrap()
    calibration.append(harness.calibration_us())
    if tracer is not None:
        tracer.dump(ROOT / ".bench_out" / f"spans-{name}-seed{seed}.jsonl.gz")

    expected = workload.oracle()
    failed, notes = harness.check_journal(journal, ops, expected)
    attempted = len(journal)
    table = PER_LAYER if trace else END_TO_END
    layers = {key: metrics.pop(key) for key in list(metrics)
              if key in LAYER_DETAIL}
    if set(metrics) != set(table):
        raise RuntimeError(
            f"metrics not in the table: {sorted(set(metrics) - set(table))}; "
            f"table metrics not measured: {sorted(set(table) - set(metrics))}")
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "sizes": sizes,
        "ops_by_class": {cls: len(v) for cls, v in by_class(ops, ops).items()},
        "timed_passes": len(pass_s),
        "pass_s": [round(t, 3) for t in pass_s],
        "setup_times_s": setup_times,
        # Not a metric: over ten seeds its spread reached 0.31 (see
        # README.md).
        "read_p99_us": read_p99_us(ops, best.times["plain"]),
        "layers": {key: {"value": value, "unit": LAYER_DETAIL[key]}
                   for key, value in layers.items()},
        "calibration_us_before_after": calibration,
        "notes": notes,
    }
    return {
        "detail": detail,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": value, "unit": table[key][0]}
                        for key, value in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # A terminated run still stops the processes it started (the
    # ``finally`` of :func:`run`).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    report = run(workload, args.seconds, bool(args.trace))
    print(json.dumps({"detail": report["detail"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
