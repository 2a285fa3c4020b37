"""The Relational Interval Tree over the storage engine.

This is the paper's primary contribution assembled from its parts: the
relational schema of Figure 2, the insertion procedure of Figure 6, and the
two-branch intersection query of Figure 9 executed with the access plan of
Figure 10 (nested loop over the transient node collections, one index range
scan per node entry, no duplicate elimination).

Storage layout (Figure 2, with ``id`` included in the indexes as in
Section 4.3's execution plan)::

    CREATE TABLE Intervals (node int, lower int, upper int, id int);
    CREATE INDEX lowerIndex ON Intervals (node, lower, id);
    CREATE INDEX upperIndex ON Intervals (node, upper, id);

Complexities (Sections 3.3 and 4.4): O(n/b) space, O(log_b n) insert and
delete, O(h * log_b n + r/b) intersection query where ``h`` is the virtual
backbone height -- independent of ``n``.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

from ..engine.bptree import coalesce_ranges
from ..engine.database import Database
from ..engine.errors import SchemaError
from ..engine.serial import pad_high, pad_low
from .access import AccessMethod, IntervalRecord
from .backbone import MAX_ABS_BOUND, VirtualBackbone
from .interval import validate_interval
from .predicates import resolve_join_predicate
from .transient import QueryNodes, collect_query_nodes
from .verify import VerificationReport, verify_engine_tree

#: A compiled scan range: (lo, hi) bounds padded to full index arity.
ScanRange = tuple[tuple[int, ...], tuple[int, ...]]


class RITree(AccessMethod):
    """Relational Interval Tree: dynamic interval index on two B+-trees.

    Queries compile the transient node collections into a *scan plan* (a
    list of index ranges per branch) and execute it through the engine's
    batched scan pipeline: each index leaf arrives as one entry slice, so
    per-result Python work is O(r/b) instead of O(r) while the sequence of
    page requests -- and therefore the logical/physical I/O accounting the
    Section 6 experiments rest on -- is exactly that of the paper's
    range-scan-per-node plan of Figure 10.

    Parameters
    ----------
    db:
        Storage engine instance to create the relation in; a private one
        (2 KB blocks, 200-block cache -- the paper's setup) when omitted.
    name:
        Relation name, so several trees can share one database.
    coalesce_scans:
        When true, scan ranges that touch in index key space are merged
        before execution, saving one B+-tree descent per merged range
        (and collapsing duplicate ranges injected by extension hooks).
        Off by default because fewer descents means fewer logical reads
        than the Figure 10 plan the paper measures -- enable it for
        throughput, disable it to reproduce the paper's I/O counts.

    Example
    -------
    >>> tree = RITree()
    >>> tree.insert(3, 9, interval_id=1)
    >>> tree.insert(5, 15, interval_id=2)
    >>> sorted(tree.intersection(8, 12))
    [1, 2]
    >>> tree.intersection_count(8, 12)
    2
    """

    method_name = "RI-tree"

    def __init__(
        self,
        db: Optional[Database] = None,
        name: str = "Intervals",
        backbone: Optional[VirtualBackbone] = None,
        coalesce_scans: bool = False,
    ) -> None:
        super().__init__(db)
        self.backbone = backbone if backbone is not None else VirtualBackbone()
        self.coalesce_scans = coalesce_scans
        self.name = name
        # The DDL is one atomic WAL batch: a crash between the table and
        # its indexes can never leave a half-created relation on recovery.
        with self.db.atomic():
            self.table = self.db.create_table(
                name, ["node", "lower", "upper", "id"]
            )
            self.table.create_index("lowerIndex", ["node", "lower", "id"])
            self.table.create_index("upperIndex", ["node", "upper", "id"])
        self._bind_runtime_state()

    def _bind_runtime_state(self) -> None:
        """Volatile (non-schema) state shared by ``__init__`` and attach."""
        # Direct B+-tree handles for the query executor: the scan plan is
        # executed against the trees, bypassing the per-scan catalog lookup.
        self._lower_tree = self.table.index("lowerIndex").tree
        self._upper_tree = self.table.index("upperIndex").tree
        # Extension hook (Section 4.6): extra fork nodes whose entries are
        # injected into the rightNodes scan list at query time.
        self._extra_right_nodes: list[Callable[[int, int], Optional[int]]] = []
        # Conservative data-space envelope (never shrunk by deletions);
        # used by the before/after topological queries.
        self._min_lower: Optional[int] = None
        self._max_upper: Optional[int] = None
        # Lazily built optimizer statistics (see cost_model()).
        self._cost_model = None

    # ------------------------------------------------------------------
    # durability (attach after recovery, metadata logging)
    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, db: Database, name: str = "Intervals") -> "RITree":
        """Bind a store object to an existing relation (post-recovery).

        :meth:`~repro.engine.database.Database.recover` rebuilds tables
        and indexes from the WAL, but the store-level state -- backbone
        parameters, data-space envelope, the temporal clock -- lives in
        the ``meta`` records the mutators log.  ``attach`` restores that
        state from :meth:`~repro.engine.database.Database.store_meta` and
        returns a fully operational store over the recovered relation.
        """
        if not db.has_table(name):
            raise SchemaError(f"cannot attach {cls.__name__}: no table {name}")
        store = cls.__new__(cls)
        store._init_attached(db, name, db.store_meta(name))
        return store

    def _init_attached(
        self, db: Database, name: str, meta: Optional[dict]
    ) -> None:
        AccessMethod.__init__(self, db)
        self.backbone = VirtualBackbone()
        self.coalesce_scans = False
        self.name = name
        self.table = db.table(name)
        self._bind_runtime_state()
        if meta:
            self._restore_meta(meta)

    def _restore_meta(self, meta: dict) -> None:
        self.backbone.offset = meta.get("offset")
        self.backbone.left_root = meta.get("left_root", 0)
        self.backbone.right_root = meta.get("right_root", 0)
        self.backbone.minstep = meta.get("minstep")
        self._min_lower = meta.get("min_lower")
        self._max_upper = meta.get("max_upper")
        self.coalesce_scans = bool(meta.get("coalesce_scans", False))

    def _durable_meta(self) -> dict:
        """The store state a WAL ``meta`` record must carry to reattach."""
        return {
            "kind": "ritree",
            "offset": self.backbone.offset,
            "left_root": self.backbone.left_root,
            "right_root": self.backbone.right_root,
            "minstep": self.backbone.minstep,
            "min_lower": self._min_lower,
            "max_upper": self._max_upper,
            "coalesce_scans": self.coalesce_scans,
        }

    def _log_meta(self) -> None:
        self.db.log_meta(self.name, self._durable_meta())

    # ------------------------------------------------------------------
    # updates (Section 3.3 / Figure 6)
    # ------------------------------------------------------------------
    def insert(self, lower: int, upper: int, interval_id: int) -> None:
        """Insert ``[lower, upper]`` with ``interval_id`` (O(log_b n) I/Os).

        The fork node is computed arithmetically (no I/O); the relational
        insert maintains both composite indexes.
        """
        node = self.backbone.register(lower, upper)
        with self.db.atomic():
            self.table.insert((node, lower, upper, interval_id))
            self._note_bounds(lower, upper)
            self._log_meta()

    def delete(self, lower: int, upper: int, interval_id: int) -> None:
        """Delete the exact record ``(lower, upper, interval_id)``.

        The fork node is recomputed -- it is a structural property of the
        interval, stable under the monotonic root expansion -- and the row
        is located by an exact scan of the lowerIndex.
        """
        validate_interval(lower, upper)
        if self.backbone.is_empty:
            raise KeyError((lower, upper, interval_id))
        node = self.backbone.fork_node(lower, upper)
        key = (node, lower, interval_id)
        for entry in self.table.index_scan("lowerIndex", key, key):
            rowid = entry[3]
            # The lowerIndex key omits the upper bound; confirm it on the
            # base row so deleting (l, u, id) cannot remove (l, u', id).
            if self.table.fetch(rowid)[2] == upper:
                with self.db.atomic():
                    self.table.delete(rowid)
                    self._log_meta()
                return
        raise KeyError((lower, upper, interval_id))

    def bulk_load(self, intervals: Sequence[IntervalRecord]) -> None:
        """Bottom-up load: register all fork nodes, then build the indexes."""
        rows = []
        for lower, upper, interval_id in intervals:
            node = self.backbone.register(lower, upper)
            rows.append((node, lower, upper, interval_id))
            self._note_bounds(lower, upper)
        with self.db.atomic():
            self.table.bulk_load(rows)
            self._log_meta()

    def extend(self, intervals) -> None:
        """Insert many intervals as *one* atomic batch (one group commit).

        A crash anywhere inside the batch rolls the whole extension back:
        recovery restores the pre-batch store, never a partial one.
        """
        with self.db.atomic():
            for lower, upper, interval_id in intervals:
                self.insert(lower, upper, interval_id)

    def append_batch(self, intervals) -> None:
        """Streaming append: one group commit, one meta record per batch.

        The write-optimised ingest path.  Fork nodes are registered up
        front -- under the increasing-ending-time regime each arrival
        lands on the backbone's rightmost descent, and a failed
        registration leaves table and WAL untouched (root growth and
        minstep refinement are conservative) -- then every row rides in
        a single ``db.atomic()`` batch closed by *one* ``_log_meta()``.
        Compared to :meth:`extend` this defers the metadata persistence
        across the batch: one WAL force and one ``meta`` record per
        batch instead of one ``meta`` record per inserted row.
        """
        rows = []
        for lower, upper, interval_id in intervals:
            node = self.backbone.register(lower, upper)
            rows.append((node, lower, upper, interval_id))
        if not rows:
            return
        with self.db.atomic():
            for node, lower, upper, interval_id in rows:
                self.table.insert((node, lower, upper, interval_id))
                self._note_bounds(lower, upper)
            self._log_meta()

    # ------------------------------------------------------------------
    # queries (Section 4 / Figures 9 and 10)
    # ------------------------------------------------------------------
    def intersection(self, lower: int, upper: int) -> list[int]:
        """Ids of all intervals intersecting ``[lower, upper]``.

        Executes the final two-branch query of Figure 9:

        * for each ``(min, max)`` in the transient ``leftNodes``: an index
          range scan of the upperIndex restricted to ``upper >= lower``;
        * for each node in ``rightNodes``: an index range scan of the
          lowerIndex restricted to ``lower <= upper``.

        The result is duplicate-free by construction (Section 4.2).
        """
        validate_interval(lower, upper)
        results: list[int] = []
        for batch in self._query_batches(lower, upper):
            results.extend([entry[2] for entry in batch])
        return results

    def intersection_count(self, lower: int, upper: int) -> int:
        """Result count of :meth:`intersection` without building id lists.

        Every scan of the Figure 9 plan is pure (no residual predicate
        survives the Section 4.3 transformation), so the count is the sum
        of the scanned leaf-slice lengths: O(1) Python work per leaf, zero
        per result id.  Identical scans, identical I/O trace.
        """
        validate_interval(lower, upper)
        plan = self._plan(lower, upper)
        if plan is None:
            return 0
        upper_ranges, lower_ranges = plan
        count_upper = self._upper_tree.count_range_padded
        total = 0
        for lo, hi in upper_ranges:
            total += count_upper(lo, hi)
        count_lower = self._lower_tree.count_range_padded
        for lo, hi in lower_ranges:
            total += count_lower(lo, hi)
        return total

    def query_nodes(self, lower: int, upper: int) -> QueryNodes:
        """The transient node collections for a query (exposed for tests)."""
        validate_interval(lower, upper)
        return collect_query_nodes(self.backbone, lower, upper)

    # -- plan construction ---------------------------------------------
    def _collect_nodes(self, lower: int, upper: int) -> Optional[QueryNodes]:
        """Transient collections plus hook-injected right nodes."""
        if self.backbone.is_empty:
            if not self._extra_right_nodes:
                return None
            query_nodes = QueryNodes()
        else:
            query_nodes = collect_query_nodes(self.backbone, lower, upper)
        query_nodes.right.extend(
            self._collect_extra_right_nodes(lower, upper))
        return query_nodes

    def _plan(
        self, lower: int, upper: int
    ) -> Optional[tuple[list[ScanRange], list[ScanRange]]]:
        """Compile the transient collections into per-index scan ranges.

        Returns ``(upperIndex ranges, lowerIndex ranges)`` -- branches 1
        and 2 of the Figure 9 query -- with bounds padded to full index
        arity once, at plan time; or ``None`` for a no-op query.  With
        ``coalesce_scans`` enabled, ranges of one index that touch in key
        space are merged into single scans.
        """
        query_nodes = self._collect_nodes(lower, upper)
        if query_nodes is None:
            return None
        arity = self._upper_tree.arity
        upper_ranges: list[ScanRange] = []
        for node_min, node_max in query_nodes.left:
            if node_min == node_max:
                upper_ranges.append((pad_low((node_min, lower), arity),
                                     pad_high((node_max,), arity)))
            else:
                # Covered node range: the Section 4.3 lemma makes the
                # residual predicate implicit, so the scan is pure.
                upper_ranges.append((pad_low((node_min,), arity),
                                     pad_high((node_max,), arity)))
        lower_ranges: list[ScanRange] = [
            (pad_low((node,), arity), pad_high((node, upper), arity))
            for node in query_nodes.right]
        if self.coalesce_scans:
            upper_ranges = coalesce_ranges(upper_ranges, arity)
            lower_ranges = coalesce_ranges(lower_ranges, arity)
        return upper_ranges, lower_ranges

    def _query_batches(
        self, lower: int, upper: int
    ) -> Iterator[list[tuple[int, ...]]]:
        """Execute the scan plan, yielding index-entry batches (leaf slices).

        Both indexes store ``(node, bound, id, rowid)`` entries, so every
        batch exposes the interval id at position 2 and the heap rowid at
        position 3 regardless of the branch it came from.
        """
        plan = self._plan(lower, upper)
        if plan is None:
            return
        upper_ranges, lower_ranges = plan
        scan_upper = self._upper_tree.scan_batches_padded
        for lo, hi in upper_ranges:
            yield from scan_upper(lo, hi)
        scan_lower = self._lower_tree.scan_batches_padded
        for lo, hi in lower_ranges:
            yield from scan_lower(lo, hi)

    # -- reference execution (pre-batching) ----------------------------
    def intersection_per_entry(self, lower: int, upper: int) -> list[int]:
        """The pre-batching reference execution of :meth:`intersection`.

        One index-scan generator per transient node, one generator hop and
        one comparison per returned entry -- the execution the batched
        pipeline replaced.  Retained (and exercised by tests and by
        ``benchmarks/bench_scan_throughput.py``) to keep the pipeline's
        claims falsifiable: identical results, identical logical and
        physical I/O, strictly less Python-level work per id.
        """
        validate_interval(lower, upper)
        return list(self._run_query_per_entry(lower, upper))

    def _run_query_per_entry(self, lower: int, upper: int) -> Iterator[int]:
        query_nodes = self._collect_nodes(lower, upper)
        if query_nodes is None:
            return
        # Branch 1: leftNodes JOIN upperIndex (node range, upper >= :lower).
        for node_min, node_max in query_nodes.left:
            if node_min == node_max:
                scan = self.table.index_scan_unbatched(
                    "upperIndex", (node_min, lower), (node_max,))
            else:
                scan = self.table.index_scan_unbatched(
                    "upperIndex", (node_min,), (node_max,))
            for entry in scan:
                yield entry[2]
        # Branch 2: rightNodes JOIN lowerIndex (node equality, lower <= :upper).
        for node in query_nodes.right:
            for entry in self.table.index_scan_unbatched(
                    "lowerIndex", (node,), (node, upper)):
                yield entry[2]

    def join_pairs(
        self, probes: Sequence[IntervalRecord], *, predicate=None
    ) -> list[tuple[int, int]]:
        """Batched index-nested-loop join probe (overrides the base loop).

        Each intersection probe compiles to the same Figure 10 scan plan
        as a Figure 13 query -- identical page requests, identical I/O
        accounting -- but pairs are emitted per leaf slice in one pass
        instead of going through an intermediate id list per probe.
        ``join_count`` (the count-only analogue) dispatches to the
        batched :meth:`intersection_count`.  Predicate joins take the
        base class's candidate-then-refine plan over
        :meth:`_record_batches`, so they consume the same leaf slices.
        """
        if resolve_join_predicate(predicate) is not None:
            return super().join_pairs(probes, predicate=predicate)
        pairs: list[tuple[int, int]] = []
        extend = pairs.extend
        for lower, upper, probe_id in probes:
            validate_interval(lower, upper)
            for batch in self._query_batches(lower, upper):
                extend((probe_id, entry[2]) for entry in batch)
        return pairs

    def _candidate_extent(self) -> tuple[Optional[int], Optional[int]]:
        """``(floor, ceiling)`` for before/after candidate ranges.

        The ceiling is clamped to the legal data space around the offset
        so a sentinel upper bound (Section 4.6's ``UPPER_INF``) cannot
        push the BETWEEN fold of a candidate scan plan across the
        reserved fork-node values.
        """
        floor, ceiling = self._min_lower, self._max_upper
        if ceiling is not None and self.backbone.offset is not None:
            ceiling = min(ceiling, self.backbone.offset + MAX_ABS_BOUND)
        return floor, ceiling

    def _record_batches(
        self, lower: int, upper: int
    ) -> Iterator[list[tuple[int, int, int]]]:
        """Leaf-slice batches materialised to ``(lower, upper, id)``.

        Each index entry carries only one interval bound, so the other
        one is fetched from the base table by rowid -- the classical
        "table access by index rowid" step, batched per leaf slice
        through :meth:`~repro.engine.table.Table.fetch_many` (rowids
        within one slice are page-clustered, so same-page runs share one
        page request).  :class:`~repro.core.temporal.TemporalRITree`
        overrides this to materialise effective now-relative bounds.
        """
        fetch_many = self.table.fetch_many
        for batch in self._query_batches(lower, upper):
            rows = fetch_many([entry[3] for entry in batch])
            yield [(row[1], row[2], row[3]) for row in rows]

    def intersection_records(
        self, lower: int, upper: int
    ) -> Iterator[tuple[int, int, int]]:
        """Like :meth:`intersection`, but yields ``(lower, upper, id)``.

        One :meth:`_record_batches` pass flattened to records; used by
        the topological queries of Section 4.5, which refine on both
        bounds.
        """
        validate_interval(lower, upper)
        if self.backbone.is_empty:
            return
        for batch in self._record_batches(lower, upper):
            yield from batch

    # ------------------------------------------------------------------
    # planning (Section 5)
    # ------------------------------------------------------------------
    def cost_model(self, refresh: bool = False):
        """The tree's optimizer cost model, built lazily and cached.

        Histograms are read from the already-loaded composite indexes
        (``source="indexes"`` -- the bound columns are right there in
        lowerIndex/upperIndex, no base-table scan needed).  The cached
        model goes stale under updates; pass ``refresh=True`` to re-run
        the ANALYZE pass, the engine equivalent of refreshed optimizer
        statistics.
        """
        from .costmodel import RITreeCostModel
        if self._cost_model is None:
            self._cost_model = RITreeCostModel(self, source="indexes")
        elif refresh:
            self._cost_model.refresh()
        return self._cost_model

    def stored_records(self) -> list[IntervalRecord]:
        """The stored relation as ``(lower, upper, id)`` records.

        One heap scan, consumed in whole page slices
        (:meth:`~repro.engine.table.Table.scan_batches`); lets a planner
        hand the inner relation to an index-free strategy (the sweep)
        after pricing this index out without paying a per-row generator
        hop for the handoff.
        """
        return [(row[1], row[2], row[3])
                for batch in self.table.scan_batches()
                for _rowid, row in batch]

    def _query_relation(self, pred, lower: int, upper: int) -> list[int]:
        """The classic relations on the Section 4.5 scan-plan transforms.

        The fifteen classic relations dispatch to
        :mod:`repro.core.topology` (O(h) path scans for the
        bound-equality relations, candidate-range refinement for the
        rest).  Any other compiled query -- a parameterized family such
        as ``range_duration`` -- takes the base class's plan: its
        candidate range through :meth:`_record_batches`, refined with
        ``holds``.
        """
        from . import topology

        if pred.name in topology.RELATION_QUERIES:
            return topology.query_relation(self, pred.name, lower, upper)
        return super()._query_relation(pred, lower, upper)

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def _verify_into(self, report: VerificationReport) -> None:
        """Structural validators for the engine-backed RI-tree.

        Checks, in order: both composite B+-trees' structural invariants
        (key order, fill factors, leaf chain), index/heap entry counts,
        per-row index membership and Figure 6 fork-node consistency, and
        the sanity of the Section 3.4 backbone parameters.
        """
        super()._verify_into(report)
        verify_engine_tree(report, self._lower_tree, "lowerIndex")
        verify_engine_tree(report, self._upper_tree, "upperIndex")
        rows = list(self.table.scan())
        report.add_check("index-entry-count")
        for label, tree in (
            ("lowerIndex", self._lower_tree),
            ("upperIndex", self._upper_tree),
        ):
            if len(tree) != len(rows):
                report.add_issue(
                    "index-entry-count",
                    f"{label} holds {len(tree)} entries for "
                    f"{len(rows)} heap rows",
                    {"index": label},
                )
        report.add_check("index-heap-consistency")
        report.add_check("fork-node")
        for rowid, (node, lower, upper, interval_id) in rows:
            if not self._lower_tree.contains((node, lower, interval_id, rowid)):
                report.add_issue(
                    "missing-index-entry",
                    f"heap row {rowid} has no lowerIndex entry",
                    {"index": "lowerIndex", "rowid": rowid},
                )
            if not self._upper_tree.contains((node, upper, interval_id, rowid)):
                report.add_issue(
                    "missing-index-entry",
                    f"heap row {rowid} has no upperIndex entry",
                    {"index": "upperIndex", "rowid": rowid},
                )
            self._verify_row(report, rowid, node, lower, upper, interval_id)
        report.add_check("backbone-params")
        backbone = self.backbone
        if backbone.left_root > 0 or backbone.right_root < 0:
            report.add_issue(
                "backbone-roots",
                f"roots ({backbone.left_root}, {backbone.right_root}) are "
                "not on their sides of the global root",
            )
        for root in (backbone.left_root, backbone.right_root):
            if root and abs(root) & (abs(root) - 1):
                report.add_issue(
                    "backbone-roots",
                    f"root {root} is not a power of two",
                )
        if rows and backbone.offset is None:
            report.add_issue(
                "missing-offset",
                f"{len(rows)} stored rows but the backbone has no offset",
            )

    def _verify_row(
        self,
        report: VerificationReport,
        rowid: int,
        node: int,
        lower: int,
        upper: int,
        interval_id: int,
    ) -> None:
        """Per-row validator; the temporal subclass allows reserved rows."""
        if self.backbone.is_empty:
            return  # missing-offset already reported
        try:
            expected = self.backbone.fork_node(lower, upper)
        except ValueError as exc:
            report.add_issue(
                "fork-node-unreachable",
                f"heap row {rowid}: {exc}",
                {"rowid": rowid},
            )
            return
        if node != expected:
            report.add_issue(
                "fork-node-mismatch",
                f"heap row {rowid} stored at node {node}, Figure 6 "
                f"computes {expected} for ({lower}, {upper})",
                {"rowid": rowid, "node": node, "expected": expected},
            )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def min_lower(self) -> Optional[int]:
        """Smallest lower bound ever inserted (conservative under deletes)."""
        return self._min_lower

    @property
    def max_upper(self) -> Optional[int]:
        """Largest upper bound ever inserted (conservative under deletes)."""
        return self._max_upper

    def _note_bounds(self, lower: int, upper: int) -> None:
        if self._min_lower is None or lower < self._min_lower:
            self._min_lower = lower
        if self._max_upper is None or upper > self._max_upper:
            self._max_upper = upper

    @property
    def interval_count(self) -> int:
        """Number of stored intervals."""
        return self.table.row_count

    @property
    def index_entry_count(self) -> int:
        """Two index entries per interval (Figure 12: ``2n``)."""
        return sum(len(index.tree) for index in self.table.indexes.values())

    @property
    def height(self) -> int:
        """Current virtual backbone height (Section 3.5)."""
        return self.backbone.height()

    # ------------------------------------------------------------------
    # extension hook (used by repro.core.temporal)
    # ------------------------------------------------------------------
    def add_right_node_hook(
        self, hook: Callable[[int, int], Optional[int]]
    ) -> None:
        """Register a query-time hook returning an extra rightNodes entry.

        The hook receives the raw query bounds and returns a *shifted* node
        value to scan, or ``None``.  Section 4.6 uses this for the reserved
        ``infinity`` and ``now`` fork nodes.
        """
        self._extra_right_nodes.append(hook)

    def _collect_extra_right_nodes(
        self, lower: int, upper: int
    ) -> Iterator[int]:
        for hook in self._extra_right_nodes:
            node = hook(lower, upper)
            if node is not None:
                yield node

    def _store_at_node(
        self, node: int, lower: int, upper: int, interval_id: int
    ) -> None:
        """Store a row at an explicit (reserved) fork node -- Section 4.6."""
        self.table.insert((node, lower, upper, interval_id))

    def _delete_at_node(
        self, node: int, lower: int, interval_id: int
    ) -> None:
        """Delete a row stored at an explicit fork node."""
        key = (node, lower, interval_id)
        for entry in self.table.index_scan("lowerIndex", key, key):
            self.table.delete(entry[3])
            return
        raise KeyError((node, lower, interval_id))
