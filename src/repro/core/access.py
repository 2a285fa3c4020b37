"""The interval-store interface shared by every backend in this repo.

Two layers live here:

* :class:`IntervalStore` -- the backend-neutral protocol.  Everything a
  client (the benchmark harness, the join subsystem, the planner, the
  predicate layer) may ask of an interval collection is declared on this
  class: updates, the intersection query family, predicate queries,
  interval joins, planning hooks, and accounting.  It says nothing about
  *where* the intervals live; the simulated storage engine, the sqlite3
  backend of :mod:`repro.sql` and the main-memory
  :class:`~repro.core.hint.HintStore` all implement it, mirroring the
  paper's Section 5 claim that the RI-tree "may be easily implemented on
  top of any relational DBMS".  ``docs/writing-a-backend.md`` walks the
  contract method by method for backend authors; the shared conformance
  suite (``tests/core/test_store_conformance.py``) is its executable
  form.
* :class:`AccessMethod` -- the simulated-engine base.  Every access
  method over :mod:`repro.engine` -- the RI-tree itself and the
  competitors of Section 2 (Tile Index, IST, MAP21, Window-List) --
  extends this class, which owns the :class:`~repro.engine.database.
  Database` instance so the harness can swap methods freely and account
  their I/O on identical counters.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator, Optional, Sequence

from ..engine.database import Database
from .interval import validate_interval
from .verify import VerificationReport

#: An interval record handed to interval stores: (lower, upper, id).
IntervalRecord = tuple[int, int, int]


class IntervalStore(ABC):
    """Backend-neutral store of closed integer intervals.

    Subclasses persist ``(lower, upper, id)`` records somewhere -- heap
    tables and B+-trees of the simulated engine, a sqlite3 relation, or
    anything else -- and answer intersection queries over them.  The
    default implementations express every richer operation (counting,
    batching, joins, predicate queries) in terms of the abstract core,
    so a minimal backend is immediately a complete one; backends with a
    cheaper native evaluation override the defaults without changing
    the contract.  Predicate queries and predicate joins share one plan
    (candidate range, record batches, refinement), for which a backend
    supplies two primitives: :meth:`_candidate_extent` and
    :meth:`_record_batches`.
    """

    #: Short name used in benchmark output rows.
    method_name: str = "abstract"

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    @abstractmethod
    def insert(self, lower: int, upper: int, interval_id: int) -> None:
        """Register the closed interval ``[lower, upper]`` under ``interval_id``.

        Implementations must reject malformed input through
        :func:`~repro.core.interval.validate_interval` (``lower <=
        upper``, bounds within the engine's domain) *before* touching
        any structure, so a failed insert leaves the store unchanged.
        ``interval_id`` is opaque to the store and need not be unique;
        the same exact record may be stored more than once and queries
        then report it with its multiplicity.

        The sentinel uppers :data:`~repro.core.temporal.UPPER_INF` and
        :data:`~repro.core.temporal.UPPER_NOW` are reserved for temporal
        rows.  Backends with temporal support store such records through
        their dedicated ``insert_infinite`` / ``insert_until_now`` entry
        points; the main-memory :class:`~repro.core.hint.HintStore`
        additionally routes the sentinels from plain ``insert``, so
        sentinel-bearing records load through its uniform ``bulk_load``.
        Stores without temporal rows have no special case -- the
        sentinels are merely huge uppers, which the plain RI-tree's
        backbone rejects as out of domain.
        """

    @abstractmethod
    def delete(self, lower: int, upper: int, interval_id: int) -> None:
        """Remove one previously inserted copy of the exact record.

        All three fields must match an existing record; when the record
        was inserted more than once, a single copy is removed.  Raises
        :class:`KeyError` (and leaves the store unchanged) when the
        exact record is absent -- deletion is never fuzzy.  Temporal
        rows are removed through the dedicated ``delete_infinite`` /
        ``delete_until_now`` entry points; the
        :class:`~repro.core.hint.HintStore` also routes the sentinel
        uppers from here, mirroring its :meth:`insert`.
        """

    def bulk_load(self, intervals: Sequence[IntervalRecord]) -> None:
        """Load many intervals at once.

        The default implementation is an insert loop; backends with a
        bottom-up build or a transactional batch path override it.
        """
        for lower, upper, interval_id in intervals:
            self.insert(lower, upper, interval_id)

    def extend(self, intervals: Iterable[IntervalRecord]) -> None:
        """Insert many intervals one by one (dynamic workload)."""
        for lower, upper, interval_id in intervals:
            self.insert(lower, upper, interval_id)

    def append_batch(self, intervals: Sequence[IntervalRecord]) -> None:
        """Ingest one streaming append batch (opt-in fast path).

        The contract is :meth:`extend` with batch-level atomicity left
        to the backend: after the call the store holds every record of
        the batch, with the sentinel uppers
        :data:`~repro.core.temporal.UPPER_INF` /
        :data:`~repro.core.temporal.UPPER_NOW` routed through the
        temporal entry points on backends that have them.  Backends with
        a cheaper batched write path -- one group commit per batch on
        the WAL engines, one deferred re-sort per touched partition on
        the main-memory store, one transaction on sqlite -- override
        this default insert loop without changing observable query
        results.  Streaming callers go through
        :class:`repro.ingest.ingestor.StreamIngestor`, which adds
        buffering, backpressure and periodic checkpoints on top.
        """
        from .temporal import UPPER_INF, UPPER_NOW

        for lower, upper, interval_id in intervals:
            if upper == UPPER_INF and hasattr(self, "insert_infinite"):
                self.insert_infinite(lower, interval_id)
            elif upper == UPPER_NOW and hasattr(self, "insert_until_now"):
                self.insert_until_now(lower, interval_id)
            else:
                self.insert(lower, upper, interval_id)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @abstractmethod
    def intersection(self, lower: int, upper: int) -> list[int]:
        """Ids of all stored intervals intersecting ``[lower, upper]``.

        A stored ``[s, e]`` matches iff ``s <= upper and lower <= e``
        (closed-interval overlap, so touching endpoints count).  The
        result contains one entry per matching stored *record* --
        records inserted twice appear twice -- in unspecified order;
        callers that need determinism sort.  On temporal backends the
        effective upper of a ``now``-relative record is the current
        clock and infinite records match every query window that reaches
        their lower bound.
        """

    def intersection_count(self, lower: int, upper: int) -> int:
        """Number of intervals intersecting ``[lower, upper]``.

        Same scans, same I/O as :meth:`intersection`; backends with a
        batched execution pipeline (or a set-oriented engine) override
        this to aggregate without materialising an id list.  The
        benchmark harness runs its query batches through this entry
        point.
        """
        return len(self.intersection(lower, upper))

    def intersection_many(
        self, queries: Sequence[tuple[int, int]]
    ) -> list[list[int]]:
        """Answer a batch of intersection queries in one call.

        A per-query loop over :meth:`intersection`; exists so batch
        drivers (the bench harness, bulk clients) have a single entry
        point that backends may specialise -- the sqlite backend answers
        the whole batch with one set-at-a-time SQL statement.
        """
        return [self.intersection(lower, upper) for lower, upper in queries]

    def stab(self, point: int) -> list[int]:
        """Stabbing query: intervals containing ``point``."""
        return self.intersection(point, point)

    def query(
        self, lower: int, upper: Optional[int] = None, *, predicate="intersects"
    ) -> list[int]:
        """Ids of stored intervals standing in ``predicate`` to the query.

        ``predicate`` is a name or :class:`~repro.core.predicates.
        IntervalPredicate` -- ``"intersects"`` (the default),
        ``"stab"``, one of Allen's thirteen relations, or a compiled
        query family such as :func:`~repro.core.predicates.
        range_duration` -- evaluated with the stored interval as the
        subject: ``query(l, u, predicate="before")`` returns intervals
        that lie *before* ``[l, u]``; omitting ``upper`` makes it a
        point query.  ``intersects`` and ``stab`` run every backend's
        native intersection machinery directly; relational predicates
        and parameterized families go through :meth:`_query_relation`.
        """
        from .predicates import compile_query

        pred = compile_query(predicate)
        if upper is None:
            upper = lower
        if pred.name == "intersects":
            return self.intersection(lower, upper)
        if pred.name == "stab":
            return self.stab(lower)
        return self._query_relation(pred, lower, upper)

    def _query_relation(self, pred, lower: int, upper: int) -> list[int]:
        """The Section 4.5 plan: one candidate range, then refinement.

        The predicate maps the query to an intersection range that
        provably contains every match (:meth:`_extent_for` supplies the
        store's extent to ``before``/``after``); the records of that
        range arrive through :meth:`_record_batches` and are refined
        with the direct formula ``pred.holds``.  Backends with a
        different algorithm (the RI-tree's path scans, the sqlite
        one-statement rewrite, the router's fan-out) override this.
        """
        validate_interval(lower, upper)
        floor, ceiling = self._extent_for(pred)
        candidate = pred.candidates(lower, upper, floor, ceiling)
        if candidate is None:
            return []
        holds = pred.holds
        return [
            interval_id
            for batch in self._record_batches(*candidate)
            for s, e, interval_id in batch
            if holds(s, e, lower, upper)
        ]

    # ------------------------------------------------------------------
    # candidate scans (the two primitives of the predicate plan)
    # ------------------------------------------------------------------
    def _candidate_extent(self) -> tuple[Optional[int], Optional[int]]:
        """``(floor, ceiling)``: smallest lower and largest upper bound.

        Consulted only by predicates whose candidate range reaches to
        the edge of the data (``before``/``after``); ``(None, None)``
        on an empty store.  Backends return a conservative envelope
        from their own bookkeeping; this default takes the min and max
        over :meth:`stored_records`, which is sound because the default
        :meth:`_record_batches` does not prune by the range at all.
        """
        records = self._enumerated_records()
        if not records:
            return None, None
        return (
            min(lower for lower, _, _ in records),
            max(upper for _, upper, _ in records),
        )

    def _record_batches(
        self, lower: int, upper: int
    ) -> Iterator[list[IntervalRecord]]:
        """Lists of ``(lower, upper, id)`` covering ``[lower, upper]``.

        Every stored record intersecting the range must appear exactly
        once, with *effective* bounds (now-relative rows carry the
        clock, infinite rows the ``UPPER_INF`` sentinel); records
        outside it may appear too, since callers refine with the
        predicate.  Backends yield their index's native batches (leaf
        slices on the RI-tree, one partition walk on HINT); the
        default yields :meth:`stored_records` as one batch.
        """
        yield self._enumerated_records()

    def _enumerated_records(self) -> list[IntervalRecord]:
        records = self.stored_records()
        if records is None:
            raise NotImplementedError(
                f"{type(self).__name__} can neither scan candidate ranges "
                f"nor enumerate its records"
            )
        return records

    def _extent_for(self, pred) -> tuple[Optional[int], Optional[int]]:
        """The extent ``pred.candidates`` needs: resolved only if it does."""
        if pred.needs_extent:
            return self._candidate_extent()
        return None, None

    # ------------------------------------------------------------------
    # planning (the Section 5 cost model, where a backend provides one)
    # ------------------------------------------------------------------
    def cost_model(self):
        """This store's optimizer cost model, or ``None``.

        Backends that keep optimizer statistics (the RI-tree's bound
        histograms of :mod:`repro.core.costmodel`, on either engine)
        override this so planners -- the ``auto`` join strategy, the
        harness's ``plan`` mode -- can price plans without executing
        them.  The base class has no statistics and returns ``None``,
        which planners treat as "fall back to record-level estimation".
        """
        return None

    def stored_records(self) -> Optional[list[IntervalRecord]]:
        """All stored intervals as ``(lower, upper, id)``, or ``None``.

        Enables plan switches that abandon this index entirely (the
        planner choosing a sweep over a pre-built inner index needs the
        raw inner relation back).  ``None`` -- the base default -- means
        the store cannot enumerate its intervals cheaply and callers
        must keep probing through it.
        """
        return None

    # ------------------------------------------------------------------
    # joins (probe side of the index-nested-loop interval join)
    # ------------------------------------------------------------------
    def join_pairs(
        self, probes: Sequence[IntervalRecord], *, predicate=None
    ) -> list[tuple[int, int]]:
        """``(probe_id, stored_id)`` pairs standing in the join predicate.

        The index-nested-loop interval join: one probe per outer record
        against this store's (inner) relation, with the *probe* as the
        predicate subject (``predicate="before"`` pairs probes with the
        stored intervals they lie before; the default is the overlap
        join).  The overlap join loops :meth:`intersection`; backends
        with a batched pipeline override it -- the RI-tree emits pairs
        straight from leaf slices, the sqlite backend evaluates the
        whole probe relation in one set-at-a-time SQL statement.  Pairs
        are duplicate-free because each probe's result is.

        Predicate probes ask the *stored-subject* question, so each
        probe scans the candidate range of the predicate's
        :attr:`~repro.core.predicates.IntervalPredicate.inverse`
        (:meth:`_join_candidates`) and refines with the direct formula,
        which pins the boundary conventions of degenerate (point)
        intervals to the nested-loop oracle's.
        """
        from .predicates import resolve_join_predicate

        pred = resolve_join_predicate(predicate)
        pairs: list[tuple[int, int]] = []
        if pred is None:
            for lower, upper, probe_id in probes:
                pairs.extend(
                    (probe_id, interval_id)
                    for interval_id in self.intersection(lower, upper)
                )
            return pairs
        holds = pred.holds
        for lower, upper, probe_id, batch in self._join_candidates(pred, probes):
            pairs.extend(
                [
                    (probe_id, interval_id)
                    for s, e, interval_id in batch
                    if holds(lower, upper, s, e)
                ]
            )
        return pairs

    def join_count(self, probes: Sequence[IntervalRecord], *, predicate=None) -> int:
        """Size of :meth:`join_pairs` without materialising the pair list.

        The default (intersection) join runs the same per-probe
        evaluation through :meth:`intersection_count`, so the I/O trace
        is identical to :meth:`join_pairs` while batched backends skip
        building id lists -- the join analogue of the harness's
        count-only query path.  Predicate joins count through the same
        candidate scans as :meth:`join_pairs`.
        """
        from .predicates import resolve_join_predicate

        pred = resolve_join_predicate(predicate)
        if pred is None:
            return sum(
                self.intersection_count(lower, upper)
                for lower, upper, _probe_id in probes
            )
        holds = pred.holds
        total = 0
        for lower, upper, _probe_id, batch in self._join_candidates(pred, probes):
            total += sum(1 for s, e, _ in batch if holds(lower, upper, s, e))
        return total

    def _join_candidates(
        self, pred, probes: Sequence[IntervalRecord]
    ) -> Iterator[tuple[int, int, int, list[IntervalRecord]]]:
        """Per probe, the record batches of the inverse's candidate range.

        Yields ``(lower, upper, probe_id, batch)``.  The candidate range
        provably contains every stored interval standing in the inverse
        relation to the probe -- and therefore every stored interval the
        probe stands in ``pred`` to; the store's extent is resolved once
        for the whole call.
        """
        inverse = pred.inverse
        candidates = inverse.candidates
        floor, ceiling = self._extent_for(inverse)
        for lower, upper, probe_id in probes:
            validate_interval(lower, upper)
            window = candidates(lower, upper, floor, ceiling)
            if window is None:
                continue
            for batch in self._record_batches(*window):
                yield lower, upper, probe_id, batch

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def verify(self) -> VerificationReport:
        """Check this store's structural invariants.

        Returns a :class:`~repro.core.verify.VerificationReport` listing
        every check that ran and every violation found -- backends extend
        :meth:`_verify_into` with their structural validators (B+-tree
        invariants and fork-node consistency on the simulated engine,
        ``PRAGMA integrity_check`` and index presence on sqlite).  The
        report is truthy when the store is intact.
        """
        report = VerificationReport(
            store=getattr(self, "name", type(self).__name__),
            backend=self.method_name,
        )
        self._verify_into(report)
        return report

    def _verify_into(self, report: VerificationReport) -> None:
        """Backend-neutral checks; subclasses extend and call ``super()``."""
        report.add_check("interval-count")
        if self.interval_count < 0:
            report.add_issue(
                "negative-count",
                f"interval_count is {self.interval_count}",
            )
        records = self.stored_records()
        if records is not None:
            report.add_check("record-count")
            if len(records) != self.interval_count:
                report.add_issue(
                    "record-count-mismatch",
                    f"stored_records() returned {len(records)} records "
                    f"but interval_count is {self.interval_count}",
                )
            report.add_check("record-bounds")
            for lower, upper, interval_id in records:
                if lower > upper:
                    report.add_issue(
                        "inverted-interval",
                        f"record ({lower}, {upper}, {interval_id}) has "
                        "lower > upper",
                        {"id": interval_id},
                    )

    # ------------------------------------------------------------------
    # accounting (Figure 12's storage metric and general bookkeeping)
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def interval_count(self) -> int:
        """Number of stored interval records, temporal rows included.

        Counts records (with multiplicity), not distinct ids, and must
        track :meth:`insert`/:meth:`delete` exactly -- the base
        :meth:`_verify_into` cross-checks it against
        :meth:`stored_records` on every ``verify()``.
        """

    @property
    @abstractmethod
    def index_entry_count(self) -> int:
        """Total index entries -- the y-axis of the paper's Figure 12.

        The physical storage metric: the RI-tree stores two entries per
        interval (lowerIndex + upperIndex), the T-index one per covering
        tile, the HINT store one per partition replica.  A backend's
        :attr:`redundancy` is this divided by :attr:`interval_count`.
        """

    @property
    def redundancy(self) -> float:
        """Index entries per stored interval (T-index's problem metric)."""
        if self.interval_count == 0:
            return 0.0
        return self.index_entry_count / self.interval_count


class AccessMethod(IntervalStore):
    """Abstract interval access method over the simulated storage engine.

    Subclasses own one or more tables/indexes inside ``self.db`` and
    implement intersection queries over closed integer intervals; all
    I/O flows through the engine's :class:`~repro.engine.stats.IoStats`
    counters, which is what makes the Section 6 measurements
    comparable across methods.
    """

    def __init__(self, db: Database | None = None) -> None:
        self.db = db if db is not None else Database()
