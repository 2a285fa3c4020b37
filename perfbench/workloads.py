"""The three benchmark workloads.

Each workload generates one fixed op list from the seed, builds the
system under test (the timed set-up), and knows its oracle.
``README.md`` records why each one exists and where its op mix comes
from.

Operations are tuples ``(class, argument)``.  Read classes are ``stab``,
``window``, ``count``, ``relation`` and ``join``; ``write`` (an insert or
delete) and ``ingest`` (one stream batch) are the write classes.  Every
workload runs every read class and one write class, so every metric of
``BENCHMARK.json`` is measured on every workload.  Every op list leaves
the system as it found it (paper-d1-disk and genomic-served delete every
interval they insert) or runs on a fresh build (stream-temporal-wal), so
each replay of the list does the same work and gets the same answers.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from statistics import fmean

from . import harness

READ_CLASSES = ("stab", "window", "count", "relation", "join")

#: ``repro.service.loadgen.DEFAULT_MIX`` folded onto the benchmark's read
#: classes: its ``now`` windows are windows, its ``query`` ops relation
#: ops, and both of its join classes ``join_pairs`` batches.
FOLD = {"stab": "stab", "intersection": "window", "now": "window",
        "count": "count", "query": "relation",
        "join_count": "join", "join_pairs": "join"}

#: The relation op asks one reference window under each of these Allen
#: relations plus one range-duration band (appended per workload), timed
#: as one op: every relation op then has the same composition, so its
#: p50 sits in one dense mode instead of between the cheap bound-equality
#: relations and the expensive candidate-refining ones.
RELATION_NAMES = ("overlaps", "meets")


def read_mix() -> dict[str, float]:
    from repro.service.loadgen import DEFAULT_MIX

    mix: dict[str, float] = {}
    for cls, weight in DEFAULT_MIX.items():
        mix[FOLD[cls]] = mix.get(FOLD[cls], 0.0) + weight
    return mix


def dealt(rng, mix: dict[str, float], count: int) -> list[str]:
    """``count`` classes in the proportions of ``mix``, shuffled.

    The counts are exact rather than drawn, so two seeds differ in which
    ops they ask but not in how many of each class: a pooled metric then
    does not move with the seed's class composition.
    """
    total = sum(mix.values())
    classes: list[str] = []
    for cls, weight in mix.items():
        classes += [cls] * round(count * weight / total)
    rng.shuffle(classes)
    return classes


def execute_store(store, op):
    """Run one read or write op against any ``IntervalStore``."""
    cls, arg = op
    if cls == "stab":
        return store.stab(arg)
    if cls == "window":
        return store.intersection(*arg)
    if cls == "count":
        return store.intersection_count(*arg)
    if cls == "relation":
        lower, upper, predicates = arg
        return [store.query(lower, upper, predicate=p) for p in predicates]
    if cls == "join":
        return store.join_pairs(arg)
    if cls == "write":
        kind, lower, upper, interval_id = arg
        getattr(store, kind)(lower, upper, interval_id)
        return None
    raise ValueError(f"unknown op class {cls!r}")


def execute_stream(ingestor, op):
    """Run one stream op: an ingest batch or a read at the clock."""
    if op[0] == "ingest":
        ingestor.submit(op[1])
        return None
    return execute_store(ingestor.store, op)


def written_records(op) -> int:
    """Records one write op commits: one per insert or delete, and the
    appends and closures of an ingest batch."""
    if op[0] == "ingest":
        return len(op[1].records) + len(op[1].closes)
    return 1


#: Per-layer counts of a layer a workload's path does not pass through:
#: no work is done there.  An unsharded store answers every read from
#: its one store and holds every record once; a main-memory store reads
#: no blocks, so none of its block reads miss.
UNSHARDED = {"router.shards_per_read": 1.0, "router.replica_ratio": 1.0}
NO_WIRE = {"service.request_bytes": 0, "service.response_bytes": 0}
NO_INGESTOR = {"ingest.stalls": 0}
NO_ENGINE = {
    "engine.logical_reads_per_read": 0,
    "engine.physical_reads_per_read": 0,
    "engine.hit_ratio": 1.0,
    "engine.bytes_per_interval": 0,
    "engine.wal_blocks_per_batch": 0,
    "store.reads_per_result": 0,
}


def result_size(op, digest) -> int:
    """Ids (or pairs) an answer carried, from its journal digest."""
    if op[0] == "count":
        return digest
    if op[0] == "relation":
        return sum(part[0] for part in digest)
    return digest[0]


def mean_us(ops, times, classes) -> float:
    """Mean over the ops of ``classes`` of their times, in µs."""
    return fmean(t for op, t in zip(ops, times) if op[0] in classes) / 1e3


def p50_of_class(ops, times, cls) -> float:
    return harness.p50_us([t for op, t in zip(ops, times) if op[0] == cls])


class Counts:
    """Totals of one counted pass (see :meth:`Workload.counted_pass`)."""

    def __init__(self) -> None:
        #: Block reads of read ops, WAL blocks of write ops.
        self.logical = self.physical = self.wal_blocks = 0
        #: Read ops, the service requests they make, write ops.
        self.reads = self.requests = self.writes = 0
        #: Ids (or pairs) returned, join pairs and join probes.
        self.results = self.pairs = self.probes = 0
        #: Frame activations of read ops by package.
        self.frames: dict[str, int] = {}


class Workload:
    """Shared skeleton; subclasses fill in the inputs and the system."""

    name = ""
    #: Builds before the timed passes; ``setup_s`` is their median.
    setups = 3
    #: Whether every pass runs on a fresh build (then every pass's build
    #: is a timed set-up too).
    rebuild_each_pass = False
    execute = staticmethod(execute_store)
    #: Ops in the list that every pass replays.
    n_ops = 1_000
    #: Share of the op list that is writes (each an insert of a fresh
    #: interval or the delete of one inserted earlier).
    write_share = 0.05
    #: Fresh intervals alive at once (inserted, not yet deleted), their
    #: ids (above every id of the data) and their lengths.
    pending = 8
    fresh_base = 10_000_000
    write_range = (0, 4_000)
    #: Window and relation-window lengths, join batch size and probe
    #: lengths.
    window_range = (0, 4_000)
    relation_range = (200, 1_000)
    probes = 8
    probe_range = (0, 4_000)

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.rng = random.Random(seed)
        self.next_id = self.fresh_base

    # hooks every workload provides
    def instrument(self, tracer):  # pragma: no cover - abstract
        """Wrap the entry points whose spans a traced run records."""
        raise NotImplementedError

    def build(self):  # pragma: no cover - abstract
        """Build the system under test (the timed set-up)."""
        raise NotImplementedError

    def count_pass(self, journal, sut) -> dict:  # pragma: no cover
        """Exact per-layer counts over one untimed pass (traced runs)."""
        raise NotImplementedError

    def discard(self, sut) -> None:
        """Release one built system."""

    def target(self, sut):
        return sut

    def rss_mb(self, sut) -> float:
        return harness.vm_hwm_mb("self")

    def sizes(self, sut) -> dict:
        """Sizes for the ``detail`` line."""
        return {}

    # -- side targets and the oracle -----------------------------------------
    def side_targets(self) -> dict:
        """Factories of the in-process stores a traced run also replays
        the list on.  Every workload has a ``HintStore`` over the same
        records, whose times give ``hint.read_us``."""
        return {"hint": self.hint_store}

    def hint_store(self):
        """A main-memory ``HintStore`` over the records: the oracle's
        store and the ``hint`` side target."""
        from repro.core.hint import HintStore

        store = HintStore()
        store.bulk_load(self.records)
        return store

    def oracle(self) -> list:
        """Expected digest of every op of the list: a local single
        ``HintStore`` over the same records runs the same ops."""
        store = self.hint_store()
        return [harness.digest(op[0], self.execute(store, op))
                for op in self.ops]

    # -- the op list -------------------------------------------------------
    def make_ops(self) -> list[tuple]:
        """The seeded list: reads in the folded loadgen mix, plus writes."""
        rng = self.rng
        mix = read_mix()
        scale = (1 - self.write_share) / sum(mix.values())
        mix = {cls: w * scale for cls, w in mix.items()}
        mix["write"] = self.write_share
        live: deque = deque()
        ops = []
        for cls in dealt(rng, mix, self.n_ops):
            if cls == "write":
                ops.append((cls, self.write_arg(rng, live)))
            else:
                ops.append(self.read_op(rng, cls, 0, self.domain))
        # Delete what is still inserted, so a pass leaves the store as
        # it found it.
        while live:
            ops.append(("write", ("delete", *live.popleft())))
        return ops

    def read_op(self, rng, cls: str, low: int, high: int) -> tuple:
        """One read of class ``cls`` with every bound in ``[low, high]``."""
        if cls == "stab":
            return (cls, rng.randint(low, high))
        if cls in ("window", "count"):
            length = self.window_length(rng)
            lower = rng.randint(low, high - length)
            return (cls, (lower, lower + length))
        if cls == "relation":
            lower = rng.randint(low, high - self.relation_range[1])
            return (cls, (lower, lower + rng.randint(*self.relation_range),
                          self.relations))
        batch = []
        for probe_id in range(self.probes):
            lower = rng.randint(low, high - self.probe_range[1])
            batch.append((lower, lower + rng.randint(*self.probe_range), probe_id))
        return (cls, batch)

    def window_length(self, rng) -> int:
        return rng.randint(*self.window_range)

    def write_arg(self, rng, live):
        """Delete a pending fresh interval, or insert a new one."""
        if live and (len(live) >= self.pending or rng.random() < 0.5):
            return ("delete", *live.popleft())
        lower, upper = self.fresh_bounds(rng)
        feature = (lower, upper, self.next_id)
        self.next_id += 1
        live.append(feature)
        return ("insert", *feature)

    def fresh_bounds(self, rng) -> tuple[int, int]:
        lower = rng.randint(0, self.domain - self.write_range[1])
        return lower, lower + rng.randint(*self.write_range)

    # -- traced runs -----------------------------------------------------
    def counted_pass(self, journal, target, db=None) -> Counts:
        """One untimed pass counting, per op, the block I/O of ``db``
        (reads for read ops, WAL blocks for write ops), the frame
        activations of read ops, and the sizes of the answers."""
        counts = Counts()
        frames = harness.FrameCounter()
        journal.new_round()
        for op in self.ops:
            before = db.stats.snapshot() if db is not None else None
            is_read = op[0] in READ_CLASSES
            if is_read:
                with frames.counting():
                    journal.run(self.execute, target, op)
            else:
                journal.run(self.execute, target, op)
            if db is not None:
                delta = db.stats.snapshot() - before
                if is_read:
                    counts.logical += delta.logical_reads
                    counts.physical += delta.physical_reads
                else:
                    counts.wal_blocks += delta.wal_writes
            if not is_read:
                counts.writes += 1
                continue
            counts.reads += 1
            counts.requests += _calls(op)
            dig = journal.rounds[-1][-1]
            if dig is harness.FAILED:
                continue
            counts.results += result_size(op, dig)
            if op[0] == "join":
                counts.pairs += dig[0]
                counts.probes += len(op[1])
        counts.frames = frames.counts
        return counts

    def read_counts(self, counts: Counts) -> dict:
        """Per-layer counts every workload has: answers and frames."""
        frames = counts.frames
        return {
            "store.results_per_read": counts.results / counts.reads,
            "join.pairs_per_probe": counts.pairs / counts.probes,
            "frames.engine_per_read": frames.get("engine", 0) / counts.reads,
            "frames.core_per_read": frames.get("core", 0) / counts.reads,
            "frames.service_per_request":
                frames.get("service", 0) / counts.requests,
            "frames.json_per_request": frames.get("json", 0) / counts.requests,
        }

    def engine_counts(self, counts: Counts, db, intervals: int) -> dict:
        """Per-layer counts of the block engine under the store."""
        return {
            "engine.logical_reads_per_read": counts.logical / counts.reads,
            "engine.physical_reads_per_read": counts.physical / counts.reads,
            "engine.hit_ratio": 1 - counts.physical / counts.logical,
            "engine.bytes_per_interval":
                db.blocks_in_use * db.disk.block_size / intervals,
            "engine.wal_blocks_per_batch": counts.wal_blocks / counts.writes,
            "store.reads_per_result": counts.logical / counts.results,
        }

    def traced_metrics(self, best, sut) -> dict:
        """Per-layer times from the best per-op times of a traced run:
        each read class's store self time (store spans minus the engine
        spans under them) and the ``HintStore`` floor."""
        per_class: dict[str, list[int]] = {}
        for op, layers in zip(self.ops, best.layers):
            per_class.setdefault(op[0], []).append(layers.get("store", 0))
        out = {f"store.{cls}_self_us": harness.p50_us(per_class[cls])
               for cls in STORE_CLASSES}
        out["join.self_us"] = harness.p50_us(per_class["join"])
        out["hint.read_us"] = mean_us(self.ops, best.times["hint"], READ_CLASSES)
        return out


#: Read classes with a ``store.<class>_self_us`` metric (joins have
#: ``join.self_us``).
STORE_CLASSES = ("stab", "window", "count", "relation")


def _relations(records):
    from repro.core.predicates import range_duration
    from repro.workloads import duration_band

    return (*RELATION_NAMES,
            range_duration(*duration_band(records, 0.25, 0.75)))


def _calls(op) -> int:
    """Service requests one op makes (a relation op asks several)."""
    return len(op[1][2]) if op[0] == "relation" else 1


# ----------------------------------------------------------------------
# paper-d1-disk: the paper's Figure 13 setting
# ----------------------------------------------------------------------
class PaperD1Disk(Workload):
    """``RITree`` on the paper's 200 x 2 KB cache, D1(100k, 2k)."""

    name = "paper-d1-disk"
    #: Builds are short here (under a second), so more of them steady
    #: the median.
    setups = 5
    n = 100_000
    duration = 2_000
    n_ops = 1_200
    #: Fresh intervals as long as D1's on average.
    write_range = (0, 2 * duration)

    def __init__(self, root, seed):
        super().__init__(root, seed)
        from repro.workloads import DOMAIN_MAX, d1

        self.domain = DOMAIN_MAX
        self.records = d1(self.n, self.duration, seed=seed).records
        self.mean_length = fmean(u - l for l, u, _ in self.records)
        self.relations = _relations(self.records)
        self.ops = self.make_ops()

    def window_length(self, rng) -> int:
        from repro.workloads import window_length_for_selectivity

        # Figure 13's selectivity range, drawn continuously so the class
        # cost is one smooth distribution.
        return window_length_for_selectivity(
            rng.uniform(0.005, 0.03), self.mean_length)

    def instrument(self, tracer):
        from repro.core.access import IntervalStore
        from repro.core.ritree import RITree
        from repro.engine.storage import DiskManager

        for attr in ("intersection", "intersection_count", "join_pairs",
                     "insert", "delete"):
            tracer.wrap(RITree, attr, "store")
        for attr in ("stab", "query"):
            tracer.wrap(IntervalStore, attr, "store")
        for attr in ("read", "write"):
            tracer.wrap(DiskManager, attr, "engine")

    def build(self):
        from repro.bench.harness import paper_database
        from repro.core.ritree import RITree

        tree = RITree(paper_database())
        tree.bulk_load(self.records)
        tree.db.flush()
        return tree

    def sizes(self, tree):
        return {"records": self.n, "ops": len(self.ops),
                "index_blocks": tree.db.blocks_in_use,
                "cache_blocks": tree.db.pool.capacity,
                "block_size": tree.db.disk.block_size}

    def count_pass(self, journal, tree) -> dict:
        """Exact counters over one pass.  Every pass starts from the
        cache and index state the previous pass left: the LRU cache's
        state after a pass depends only on the pass's block accesses,
        and every pass inserts and deletes the same intervals, so every
        pass after the warm-up does the same physical I/O."""
        counts = self.counted_pass(journal, tree, tree.db)
        return {**self.engine_counts(counts, tree.db, tree.interval_count),
                **self.read_counts(counts),
                **UNSHARDED, **NO_WIRE, **NO_INGESTOR}


# ----------------------------------------------------------------------
# genomic-served: the service topology over HINT shards
# ----------------------------------------------------------------------
class ServedTopology:
    """One ``python -m repro.service --shards 2`` router and its client."""

    def __init__(self, proc, store) -> None:
        self.proc = proc
        self.store = store

    def pids(self) -> list[int]:
        return [self.proc.pid, *harness.child_pids(self.proc.pid)]

    def stop(self) -> None:
        children = harness.child_pids(self.proc.pid)
        try:
            self.store.shutdown()
        except Exception:  # noqa: BLE001 - fall through to kill
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        for pid in children:
            _kill_and_reap(pid)


def _kill_and_reap(pid: int) -> None:
    """Make sure a grandchild is gone (the router normally reaps it)."""
    deadline = time.monotonic() + 10
    while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as stat:
                if stat.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return
        except OSError:
            return
        time.sleep(0.05)
    if os.path.exists(f"/proc/{pid}"):
        try:
            os.kill(pid, 9)
        except ProcessLookupError:
            pass


class GenomicServed(Workload):
    """Genomic features behind the served two-shard HINT router."""

    name = "genomic-served"
    setups = 4
    n = 100_000
    shards = 2
    n_ops = 1_400
    probes = 4
    probe_range = (200, 2_000)
    window_range = (1_000, 8_000)

    def __init__(self, root, seed):
        super().__init__(root, seed)
        from repro.workloads import (DOMAIN_MAX, chromosome_cuts,
                                     chromosome_slices, genomic)

        self.domain = DOMAIN_MAX
        self.records = genomic(self.n, seed=seed).records
        self.cuts = chromosome_cuts(self.shards)
        self.slices = chromosome_slices()
        self.relations = _relations(self.records)
        self.ops = self.make_ops()
        self.env = dict(os.environ)
        extra = [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), *extra])

    def fresh_bounds(self, rng):
        # A fresh feature inside one chromosome, like the data.
        _name, lo, hi = rng.choice(self.slices)
        lower = rng.randint(lo, hi)
        return lower, min(hi, lower + rng.randint(10, 2_000))

    def instrument(self, tracer):
        from repro.service import protocol
        from repro.service.client import ServiceClient

        self.tracer = tracer
        tracer.wrap(ServiceClient, "call", "client")
        tracer.wrap(protocol, "encode_frame", "wire", "encode_frame",
                    size=lambda args, frame: len(frame))
        tracer.wrap(protocol, "decode_payload", "wire", "decode_payload",
                    size=lambda args, _msg: len(args[0]) + protocol.HEADER.size)

    def spawn(self):
        """Start the router topology; return it once it can serve."""
        from repro.service.client import RemoteStore

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service",
             "--shards", str(self.shards), "--backend", "hint",
             "--cuts", ",".join(str(c) for c in self.cuts)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=self.env, cwd=self.root)
        line = proc.stdout.readline().split()
        if len(line) != 3 or line[0] != "LISTENING":
            proc.kill()
            proc.wait(timeout=30)
            raise RuntimeError(f"router did not start: {line}")
        return proc, RemoteStore.connect(line[1], int(line[2]))

    def build(self):
        proc, store = self.spawn()
        topology = ServedTopology(proc, store)
        try:
            store.bulk_load(self.records)
        except BaseException:
            topology.stop()
            raise
        return topology

    def discard(self, topology):
        topology.stop()

    def target(self, topology):
        return topology.store

    def rss_mb(self, topology):
        return sum(harness.vm_hwm_mb(pid) for pid in topology.pids())

    def sizes(self, topology):
        routing = topology.store.stats()["routing"]
        return {"records": self.n, "ops": len(self.ops), "cuts": self.cuts,
                "shard_records": [s["records"] for s in routing["shards"]]}

    # -- the stacked replay ------------------------------------------------
    def side_targets(self) -> dict:
        """The same list on one ``HintStore`` and on an in-process
        ``ShardedStore`` over the same cuts; the differences of the best
        per-op times give router and service time."""
        return {"hint": self.hint_store, "router": self.sharded_store}

    def sharded_store(self):
        from repro.core.hint import HintStore
        from repro.core.router import ShardedStore

        self.router = ShardedStore([HintStore() for _ in range(self.shards)],
                                   self.cuts)
        self.router.bulk_load(self.records)
        return self.router

    def count_pass(self, journal, topology) -> dict:
        """One served pass counting wire bytes and client frames, and one
        in-process router pass counting shard queries.  The HINT shards
        read no blocks: the engine counts are those of no engine."""
        remote = topology.store
        tracer = self.tracer
        tracer.counting = True
        try:
            counts = self.counted_pass(journal, remote)
        finally:
            tracer.counting = False
        before = self.router.routing_stats()
        harness.replay(journal, execute_store, self.router, self.ops)
        after = self.router.routing_stats()
        read_calls = sum(_calls(op) for op in self.ops
                         if op[0] in STORE_CLASSES)
        requests = sum(_calls(op) for op in self.ops)
        routing = remote.stats()["routing"]
        self.stats_before = remote.stats()
        return {
            **self.read_counts(counts), **NO_ENGINE, **NO_INGESTOR,
            "router.shards_per_read": sum(
                a["queries"] - b["queries"]
                for a, b in zip(after["shards"], before["shards"])) / read_calls,
            "router.replica_ratio": (
                sum(s["records"] for s in routing["shards"]) / routing["records"]),
            "service.request_bytes": tracer.bytes["encode_frame"] / requests,
            "service.response_bytes": tracer.bytes["decode_payload"] / requests,
        }

    def traced_metrics(self, best, topology) -> dict:
        ops = self.ops
        served, router, hint = (best.times[label]
                                for label in ("plain", "router", "hint"))
        # The store is HINT inside the shard processes; in process it
        # has no layer under it, so its whole call is store self time.
        out = {f"store.{cls}_self_us": p50_of_class(ops, hint, cls)
               for cls in STORE_CLASSES}
        out["join.self_us"] = p50_of_class(ops, hint, "join")
        out["hint.read_us"] = mean_us(ops, hint, READ_CLASSES)
        for cls in READ_CLASSES:
            out[f"service.{cls}_overhead_us"] = (
                mean_us(ops, served, (cls,)) - mean_us(ops, router, (cls,)))
        out["service.overhead_us"] = (
            mean_us(ops, served, READ_CLASSES) - mean_us(ops, router, READ_CLASSES))
        out["router.self_us"] = (
            mean_us(ops, router, READ_CLASSES) - out["hint.read_us"])
        out["router.write_us"] = mean_us(ops, router, ("write",))
        dispatch = _dispatch_us(self.stats_before, topology.store.stats())
        out["service.dispatch_us"] = dispatch
        call = encode = decode = 0
        requests = 0
        for op, names in zip(ops, best.names):
            if op[0] not in READ_CLASSES:
                continue
            requests += _calls(op)
            call += names.get("ServiceClient.call", 0)
            encode += names.get("encode_frame", 0)
            decode += names.get("decode_payload", 0)
        out["service.encode_us"] = encode / requests / 1e3
        out["service.decode_us"] = decode / requests / 1e3
        out["service.transport_us"] = (
            (call - encode - decode) / requests / 1e3 - dispatch)
        return out


def _dispatch_us(before: dict, after: dict) -> float:
    """Mean router dispatch time of read requests between two ``stats``."""
    total = count = 0
    for name in ("stab", "intersection", "intersection_count", "query",
                 "join_pairs"):
        a = after["ops"].get(name, {"count": 0, "total_us": 0})
        b = before["ops"].get(name, {"count": 0, "total_us": 0})
        total += a["total_us"] - b["total_us"]
        count += a["count"] - b["count"]
    return total / count


# ----------------------------------------------------------------------
# stream-temporal-wal: ingest beside reads on one WAL engine
# ----------------------------------------------------------------------
class StreamTemporalWal(Workload):
    """``TemporalRITree`` on a WAL database fed by ``StreamIngestor``.

    The list is a fixed stream: each batch followed by
    ``reads_per_batch`` reads at the clock.  Every pass replays it on a
    fresh build of the closed history, so every pass ingests the same
    batches, runs the same reads and ends with the same store.
    """

    name = "stream-temporal-wal"
    execute = staticmethod(execute_stream)
    rebuild_each_pass = True
    history = 50_000
    #: Holds the whole index (about 4 200 blocks at the end of a pass).
    cache_blocks = 8_192
    batch_size = 64
    open_fraction = 0.1
    checkpoint_batches = 64
    batches = 256
    reads_per_batch = 16
    #: Reads at the clock look back at most this far.
    lookback = 4_000
    window_range = (200, 2_000)
    probes = 4
    probe_range = (200, 2_000)
    history_id_base = 1 << 40

    def __init__(self, root, seed):
        super().__init__(root, seed)
        from repro.core.temporal import UPPER_INF, UPPER_NOW
        from repro.ingest import StreamWorkload

        past = StreamWorkload(seed=seed, batches=self.history // 256,
                              batch_size=256)
        self.records = [(lower, upper, self.history_id_base + interval_id)
                        for batch in past
                        for lower, upper, interval_id in batch.records]
        self.clock0 = max(max(u for _, u, _ in self.records),
                          past.start_clock + past.batches * past.ticks_per_batch)
        self.relations = _relations(
            [r for r in self.records if r[1] not in (UPPER_INF, UPPER_NOW)])
        classes = dealt(self.rng, read_mix(),
                        self.batches * self.reads_per_batch)
        self.ops = []
        for batch in StreamWorkload(
                seed=seed + 1, batches=self.batches,
                batch_size=self.batch_size, open_fraction=self.open_fraction,
                start_clock=self.clock0):
            self.ops.append(("ingest", batch))
            now = batch.timestamp
            self.ops.extend(self.read_op(self.rng, cls, now - self.lookback, now)
                            for cls in classes[:self.reads_per_batch])
            del classes[:self.reads_per_batch]

    def read_op(self, rng, cls, low, high):
        """Windows and counts are now-windows ``[now - d, now]``; the
        other reads fall within ``lookback`` of the clock."""
        if cls in ("window", "count"):
            return (cls, (high - self.window_length(rng), high))
        return super().read_op(rng, cls, low, high)

    def instrument(self, tracer):
        from repro.core.access import IntervalStore
        from repro.core.ritree import RITree
        from repro.core.temporal import TemporalRITree
        from repro.engine.database import Database
        from repro.engine.storage import DiskManager
        from repro.engine.wal import WriteAheadLog
        from repro.ingest.ingestor import StreamIngestor

        tracer.wrap(StreamIngestor, "submit", "ingest")
        tracer.wrap(StreamIngestor, "drain", "ingest")
        tracer.wrap(TemporalRITree, "advance_to", "temporal")
        for attr in ("append_batch", "close_now_interval"):
            tracer.wrap(TemporalRITree, attr, "store")
        for attr in ("intersection", "intersection_count", "join_pairs"):
            tracer.wrap(RITree, attr, "store")
        for attr in ("stab", "query"):
            tracer.wrap(IntervalStore, attr, "store")
        tracer.wrap_context(Database, "atomic", "engine")
        tracer.wrap(Database, "checkpoint", "engine")
        tracer.wrap(WriteAheadLog, "force", "engine")
        for attr in ("read", "write"):
            tracer.wrap(DiskManager, attr, "engine")

    def build(self):
        from repro.core.temporal import TemporalRITree
        from repro.engine import Database
        from repro.ingest import StreamIngestor

        db = Database(wal=True, cache_blocks=self.cache_blocks)
        tree = TemporalRITree(db, now=self.clock0)
        tree.bulk_load(self.records)
        db.flush()
        return StreamIngestor(tree, flush_records=self.batch_size,
                              checkpoint_batches=self.checkpoint_batches)

    def hint_store(self):
        """A ``HintStore`` fed by its own ``StreamIngestor``."""
        from repro.core.hint import HintStore
        from repro.ingest import StreamIngestor

        store = HintStore(now=self.clock0)
        store.bulk_load(self.records)
        return StreamIngestor(store, flush_records=self.batch_size)

    def sizes(self, ingestor):
        db = ingestor.store.db
        return {"history_records": len(self.records), "ops": len(self.ops),
                "records_end": ingestor.store.interval_count,
                "index_blocks_end": db.blocks_in_use,
                "cache_blocks": db.pool.capacity,
                "batches": self.batches, "batch_size": self.batch_size,
                "checkpoint_batches": self.checkpoint_batches}

    def count_pass(self, journal, ingestor) -> dict:
        """The whole stream on a fresh build, counted."""
        db = ingestor.store.db
        forces = db.wal.forces
        before = ingestor.stats.as_dict()
        counts = self.counted_pass(journal, ingestor, db)
        forces = db.wal.forces - forces
        after = ingestor.stats.as_dict()
        return {
            **self.engine_counts(counts, db, ingestor.store.interval_count),
            **self.read_counts(counts), **UNSHARDED, **NO_WIRE,
            "ingest.stalls": after["stalls"] - before["stalls"],
            "ingest.records_per_force":
                (after["records"] - before["records"]) / forces,
        }

    def traced_metrics(self, best, ingestor) -> dict:
        """The shared store metrics, plus the mean per call of each
        write-side span's best per-op total."""
        totals: dict[str, int] = {}
        for names in best.names:
            for name, total in names.items():
                totals[name] = totals.get(name, 0) + total
        calls = best.calls

        def span_us(name):
            return totals[name] / calls[name] / 1e3

        return {
            **super().traced_metrics(best, ingestor),
            "engine.force_us": span_us("WriteAheadLog.force"),
            "engine.checkpoint_us": span_us("Database.checkpoint"),
            "temporal.advance_us": span_us("TemporalRITree.advance_to"),
            "ingest.batch_us": span_us("StreamIngestor.submit"),
        }

    def oracle(self) -> list:
        """HINT replay of the same stream for every answer, cross-checked
        against ``IngestOracle`` counts over the committed prefix for
        stabs, windows and counts."""
        from repro.core.temporal import UPPER_INF, UPPER_NOW
        from repro.ingest import IngestOracle

        model = self.hint_store()
        finite = [(l, u) for l, u, _ in self.records
                  if u not in (UPPER_INF, UPPER_NOW)]
        counts = IngestOracle(
            now=self.clock0, lowers=sorted(l for l, _ in finite),
            uppers=sorted(u for _, u in finite), count=len(self.records))
        expected = []
        for op in self.ops:
            dig = harness.digest(op[0], execute_stream(model, op))
            if op[0] == "ingest":
                counts.observe(op[1])
            elif op[0] in ("stab", "window", "count"):
                lower, upper = (op[1], op[1]) if op[0] == "stab" else op[1]
                if result_size(op, dig) != counts.expected_count(lower, upper):
                    dig = ("oracles disagree",)
            expected.append(dig)
        return expected


WORKLOADS = {cls.name: cls for cls in (PaperD1Disk, GenomicServed,
                                       StreamTemporalWal)}
