"""Optimizer cost model for RI-tree queries and joins (paper Section 5).

"With a cost model registered at the optimizer, the server is able to
generate efficient execution plans for queries on interval data types."
This module supplies that component: selectivity estimation from bound
histograms plus an I/O model of the Figure 10 access plan, so a query
optimizer can decide between the RI-tree plan and alternatives (full scan,
other predicates first) without executing anything.

Estimation model
----------------
An interval intersects ``[l, u]`` iff ``lower <= u`` and ``upper >= l``, so

    r(l, u)  =  n - #{lower > u} - #{upper < l}

which needs only the two marginal cumulative distributions of the bounds.
The model keeps equi-depth histograms of both, refreshed either from the
base relation or from the leftmost bound columns of the two composite
indexes (:meth:`RITreeCostModel.refresh` with ``source="indexes"``).

The I/O model follows Section 4.4: each of the O(h) transient entries costs
one index descent of ``ceil(log_b n)`` block reads, and the result blocks
add ``r / entries_per_leaf``; a buffer-cache residency factor discounts the
repeated upper-level reads, matching the warm-cache behaviour of the
benchmark harness.

Join estimation
---------------
:class:`JoinEstimate` extends the model to the interval equi-overlap join
``R JOIN S``: the expected pair count convolves both sides' bound
histograms,

    E[pairs] = n_R * n_S * ( E_{u ~ R.upper}[F_S.lower(u)]
                             - E_{l ~ R.lower}[F_S.upper(l - 1)] )

(the per-probe identity above, averaged over the outer side's bound
distributions), and per-strategy cost formulas predict logical reads,
physical reads, and Python-frame work for the index-nested-loop join
against an RI-tree versus the sort-based plane sweep.  The planner entry
points -- :meth:`RITreeCostModel.estimate_join` on a loaded tree and the
engine-free :func:`choose_join_strategy` on raw record sequences -- feed
the ``auto`` strategy of :mod:`repro.core.join`, which dispatches to the
predicted-cheaper strategy.  The physical model for repeated index probes
is a two-regime LRU approximation in the spirit of Mackert & Lohman's
buffer model: leaf sets that fit the cache are read at most once, larger
leaf sets pay a steady-state miss rate damped by a calibrated locality
factor (probe locality on bulk-loaded indexes is far better than uniform).
"""

from __future__ import annotations

import math
import sqlite3
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..engine.buffer import DEFAULT_CACHE_BLOCKS
from ..engine.serial import PAGE_HEADER_SIZE
from ..engine.storage import DEFAULT_BLOCK_SIZE
from .access import IntervalRecord
from .backbone import VirtualBackbone
from .interval import validate_interval
from .predicates import compile_query, resolve_join_predicate
from .ritree import RITree
from .temporal import UPPER_NOW
from .transient import collect_query_nodes

#: Default number of histogram buckets (equi-depth boundaries kept).
DEFAULT_BUCKETS = 128

#: How many outer records are probed against the virtual backbone (pure
#: arithmetic, no I/O) to estimate the average transient-entry count.
TRANSIENT_SAMPLE = 64

#: Bytes per serialised integer column (engine-wide fixed width).
_INT_BYTES = 8

#: Leaf-miss damping for the over-cache LRU regime: probe streams against
#: a bulk-loaded index are strongly clustered (consecutive transient
#: entries of one probe land on neighbouring leaves), so the steady-state
#: uniform miss rate overshoots.  Calibrated against the measured
#: crossover grid of ``benchmarks/bench_join_crossover.py``.
LEAF_MISS_LOCALITY = 0.1

#: Fraction of transient-entry scans that land on a *new* leaf block:
#: within one probe the scan plan walks node ranges in key order, so many
#: of its O(h) range scans hit the leaf the previous range ended on (or
#: an empty gap inside it).  Feeds the Yao distinct-block estimate below;
#: calibrated alongside :data:`LEAF_MISS_LOCALITY`.
SCAN_LEAF_DISTINCT = 0.25

# Python-frame cost constants, calibrated with the profile-hook counter of
# benchmarks/benchlib.py on the crossover grid (least-squares fit over
# count-path runs; the planner only compares strategies with them, so
# order-of-magnitude fidelity is what matters).
SWEEP_FRAMES_PER_INPUT = 1.0
SWEEP_FRAMES_PER_PAIR = 1.0
INDEX_FRAMES_PER_PROBE = 8.0
INDEX_FRAMES_PER_SCAN = 4.8
INDEX_FRAMES_PER_LEAF = 40.0

#: Python frames per fetched candidate record in a predicate join's
#: leaf-slice refinement: one ``holds`` activation per record (the
#: listcomp itself runs at C speed).
INDEX_FRAMES_PER_CANDIDATE = 1.2

#: Fraction of predicate-join candidate scans landing on a new leaf
#: block.  Candidate ranges are stabs/prefixes at *per-probe* positions
#: scattered across the data space, so consecutive scans cluster far
#: less than one intersection probe's node ranges do
#: (:data:`SCAN_LEAF_DISTINCT`); calibrated against the measured
#: predicate-join grid of ``benchmarks/bench_predicate_join.py``.
PREDICATE_SCAN_LEAF_DISTINCT = 0.4


def heap_scan_blocks(
    rows: int, columns: int, block_size: int = DEFAULT_BLOCK_SIZE
) -> int:
    """Blocks of a heap file holding ``rows`` fixed-width integer rows.

    Mirrors :class:`repro.engine.heap.HeapFile`'s layout: one live flag
    plus ``columns`` integers per slot, ``PAGE_HEADER_SIZE`` bytes of page
    header -- the cost of one sequential relation scan.
    """
    if rows <= 0:
        return 0
    slot_bytes = _INT_BYTES * (columns + 1)
    per_page = max(1, (block_size - PAGE_HEADER_SIZE) // slot_bytes)
    return -(-rows // per_page)


def index_geometry(
    entries: int, key_columns: int, block_size: int = DEFAULT_BLOCK_SIZE
) -> tuple[int, int]:
    """``(height, leaf_capacity)`` of a B+-tree index without building it.

    Mirrors :class:`repro.engine.bptree.BPlusTree`'s page layout (key
    columns plus rowid per entry, internal pages with 8-byte child
    pointers), so the engine-free planner prices descents with the same
    geometry the engine would realise.
    """
    entry_bytes = _INT_BYTES * (key_columns + 1)
    leaf_capacity = max(4, (block_size - PAGE_HEADER_SIZE) // entry_bytes)
    internal_capacity = max(
        4, (block_size - PAGE_HEADER_SIZE - 8) // (entry_bytes + 8))
    height = 1
    pages = -(-max(entries, 1) // leaf_capacity)
    while pages > 1:
        height += 1
        pages = -(-pages // internal_capacity)
    return height, leaf_capacity


def index_internal_blocks(
    entries: int, leaf_capacity: int, internal_capacity: int
) -> int:
    """Non-leaf block count of one B+-tree with ``entries`` entries."""
    pages = -(-max(entries, 1) // max(1, leaf_capacity))
    internal = 0
    while pages > 1:
        pages = -(-pages // max(4, internal_capacity))
        internal += pages
    return internal


class BoundSummary:
    """Equi-depth histograms of one relation's lower and upper bounds.

    The reusable statistics object behind both the single-query and the
    join estimators: ``count`` intervals summarised by quantile boundaries
    of each bound, with interpolated CDF lookups and bucket-weighted means
    over either bound distribution.
    """

    __slots__ = ("count", "buckets", "lower_bounds", "upper_bounds",
                 "duration_bounds")

    def __init__(
        self,
        sorted_lowers: Sequence[int],
        sorted_uppers: Sequence[int],
        buckets: int = DEFAULT_BUCKETS,
        sorted_durations: Optional[Sequence[int]] = None,
    ) -> None:
        if buckets < 2:
            raise ValueError(f"need at least 2 buckets, got {buckets}")
        if len(sorted_lowers) != len(sorted_uppers):
            raise ValueError("bound lists must have equal lengths")
        self.count = len(sorted_lowers)
        self.buckets = buckets
        self.lower_bounds = self._equi_depth(sorted_lowers)
        self.upper_bounds = self._equi_depth(sorted_uppers)
        # The derived-column histogram behind range-duration pricing:
        # equi-depth over ``upper - lower``.  Durations need *paired*
        # bounds, which the two sorted marginals cannot recover, so
        # sources hand them in explicitly; ``None`` (a boundary-only
        # source) degrades duration_fraction() to 1.0.
        if sorted_durations is None:
            self.duration_bounds = None
        else:
            self.duration_bounds = self._equi_depth(sorted_durations)

    @classmethod
    def from_records(
        cls, records: Sequence[IntervalRecord],
        buckets: int = DEFAULT_BUCKETS,
    ) -> "BoundSummary":
        """Summarise ``(lower, upper, id)`` records (one sorting pass)."""
        lowers = sorted(r[0] for r in records)
        uppers = sorted(r[1] for r in records)
        durations = sorted(r[1] - r[0] for r in records)
        return cls(lowers, uppers, buckets, sorted_durations=durations)

    @classmethod
    def from_boundaries(
        cls,
        count: int,
        lower_bounds: Sequence[int],
        upper_bounds: Sequence[int],
        buckets: int = DEFAULT_BUCKETS,
        duration_bounds: Optional[Sequence[int]] = None,
    ) -> "BoundSummary":
        """Build a summary from precomputed quantile boundaries.

        For statistics sources that compute the equi-depth boundaries
        themselves (the sqlite backend's ``NTILE`` aggregation) instead
        of handing over full sorted value lists.
        """
        if buckets < 2:
            raise ValueError(f"need at least 2 buckets, got {buckets}")
        summary = cls.__new__(cls)
        summary.count = count
        summary.buckets = buckets
        summary.lower_bounds = list(lower_bounds)
        summary.upper_bounds = list(upper_bounds)
        if duration_bounds is None:
            summary.duration_bounds = None
        else:
            summary.duration_bounds = list(duration_bounds)
        return summary

    def _equi_depth(self, values: Sequence[int]) -> list[int]:
        """Quantile boundaries q_0..q_B of a sorted value list."""
        if not values:
            return []
        if len(values) <= self.buckets:
            return list(values)
        last = len(values) - 1
        return [values[(i * last) // self.buckets]
                for i in range(self.buckets + 1)]

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @staticmethod
    def _cdf(boundaries: list[int], value: int) -> float:
        """P(X <= value) from quantile boundaries, linearly interpolated."""
        if not boundaries:
            return 0.0
        if value < boundaries[0]:
            return 0.0
        if value >= boundaries[-1]:
            return 1.0
        bucket_count = len(boundaries) - 1
        index = bisect_right(boundaries, value) - 1
        left = boundaries[index]
        right = boundaries[index + 1]
        within = (value - left) / (right - left) if right > left else 1.0
        return (index + within) / bucket_count

    def cdf_lower(self, value: int) -> float:
        """P(lower <= value)."""
        return self._cdf(self.lower_bounds, value)

    def cdf_upper(self, value: int) -> float:
        """P(upper <= value)."""
        return self._cdf(self.upper_bounds, value)

    def intersecting(self, lower: int, upper: int) -> float:
        """Expected number of summarised intervals meeting ``[lower, upper]``.

        The exact identity for l <= u (the two exclusions cannot overlap):
        ``r = n - #{lower > u} - #{upper < l}``.
        """
        if self.count == 0:
            return 0.0
        lower_gt_u = self.count * (1.0 - self.cdf_lower(upper))
        upper_lt_l = self.count * self.cdf_upper(lower - 1)
        return max(0.0, self.count - lower_gt_u - upper_lt_l)

    def duration_fraction(self, dmin: int, dmax: int) -> float:
        """P(dmin <= upper - lower <= dmax) from the duration histogram.

        The selectivity factor behind range-duration pricing.  A summary
        built without durations (boundary-only sources that predate the
        histogram) returns 1.0 -- the band is priced as non-selective,
        never under-estimated to zero.
        """
        if not self.duration_bounds:
            return 1.0
        return max(0.0, self._cdf(self.duration_bounds, dmax)
                   - self._cdf(self.duration_bounds, dmin - 1))

    def point_lower(self, value: int) -> float:
        """Estimated mass of ``lower == value`` (one quantile-width step)."""
        return max(0.0, self.cdf_lower(value) - self.cdf_lower(value - 1))

    def point_upper(self, value: int) -> float:
        """Estimated mass of ``upper == value`` (one quantile-width step)."""
        return max(0.0, self.cdf_upper(value) - self.cdf_upper(value - 1))

    def relation_count(self, relation: str, lower: int, upper: int) -> float:
        """Expected intervals standing in ``relation`` to ``[lower, upper]``.

        Per-relation selectivity from the two bound marginals alone:

        * ``before``/``after`` are CDF prefix masses (``#{upper < l}`` /
          ``#{lower > u}``) -- exact up to histogram resolution;
        * the equality-pinning relations (``meets``, ``starts``,
          ``equals``, ...) get quantile-width point masses of the pinned
          bound.  Their strict side conditions are dropped: on proper
          intervals they are implied at the pinned bound, and the
          planner needs order-of-magnitude fidelity, not unbiasedness;
        * the containment/overlap relations multiply the two marginal
          masses (an independence approximation) clamped by their
          candidate-range intersection count, which is an upper bound
          by construction.
        """
        n = self.count
        if n == 0:
            return 0.0
        if relation == "intersects":
            return self.intersecting(lower, upper)
        if relation == "stab":
            return self.intersecting(lower, lower)
        if relation == "before":
            return n * self.cdf_upper(lower - 1)
        if relation == "after":
            return n * (1.0 - self.cdf_lower(upper))
        if relation == "meets":
            return n * self.point_upper(lower)
        if relation == "met_by":
            return n * self.point_lower(upper)
        if relation in ("starts", "started_by"):
            return n * self.point_lower(lower)
        if relation in ("finishes", "finished_by"):
            return n * self.point_upper(upper)
        if relation == "equals":
            return n * min(self.point_lower(lower), self.point_upper(upper))
        if relation == "during":
            mass = (1.0 - self.cdf_lower(lower)) * self.cdf_upper(upper - 1)
            return min(n * mass, self.intersecting(lower, upper))
        if relation == "contains":
            mass = self.cdf_lower(lower - 1) * (1.0 - self.cdf_upper(upper))
            return min(n * mass, self.intersecting(lower, lower))
        if relation == "overlaps":
            ends_inside = max(
                0.0, self.cdf_upper(upper - 1) - self.cdf_upper(lower))
            mass = self.cdf_lower(lower - 1) * ends_inside
            return min(n * mass, self.intersecting(lower, lower))
        if relation == "overlapped_by":
            starts_inside = max(
                0.0, self.cdf_lower(upper - 1) - self.cdf_lower(lower))
            mass = starts_inside * (1.0 - self.cdf_upper(upper))
            return min(n * mass, self.intersecting(upper, upper))
        raise ValueError(f"unknown relation {relation!r}")

    def extent(self) -> tuple[Optional[int], Optional[int]]:
        """``(floor, ceiling)``: smallest lower / largest upper boundary."""
        floor = self.lower_bounds[0] if self.lower_bounds else None
        ceiling = self.upper_bounds[-1] if self.upper_bounds else None
        return floor, ceiling

    def _mean(
        self, boundaries: list[int], func: Callable[[int], float]
    ) -> float:
        """Bucket-weighted mean of ``func`` over one bound distribution.

        Equi-depth boundaries carry equal probability mass per bucket, so
        the trapezoid over consecutive boundaries integrates ``func``
        against the empirical distribution; small relations keep every
        value, making the mean exact.
        """
        if not boundaries:
            return 0.0
        if len(boundaries) == 1:
            return func(boundaries[0])
        if self.count <= self.buckets:
            return sum(func(v) for v in boundaries) / len(boundaries)
        samples = [func(v) for v in boundaries]
        bucket_count = len(boundaries) - 1
        return sum((samples[i] + samples[i + 1]) / 2.0
                   for i in range(bucket_count)) / bucket_count

    def mean_over_lowers(self, func: Callable[[int], float]) -> float:
        """E[func(X)] with X drawn from the lower-bound distribution."""
        return self._mean(self.lower_bounds, func)

    def mean_over_uppers(self, func: Callable[[int], float]) -> float:
        """E[func(X)] with X drawn from the upper-bound distribution."""
        return self._mean(self.upper_bounds, func)


def expected_join_pairs(outer: BoundSummary, inner: BoundSummary) -> float:
    """Expected equi-overlap pair count by histogram convolution.

    Averages the per-probe intersection identity over the outer side's
    bound distributions: a pair ``(r, s)`` exists iff ``s.lower <= r.upper``
    and ``s.upper >= r.lower``, so the expected count is ``n_R * n_S``
    times the mean started-by-``r.upper`` probability minus the mean
    ended-before-``r.lower`` probability.
    """
    if outer.count == 0 or inner.count == 0:
        return 0.0
    started = outer.mean_over_uppers(inner.cdf_lower)
    ended = outer.mean_over_lowers(lambda l: inner.cdf_upper(l - 1))
    return max(0.0, outer.count * inner.count * (started - ended))


def expected_predicate_pairs(
    outer: Sequence[IntervalRecord],
    inner: BoundSummary,
    pred,
    sample: int = TRANSIENT_SAMPLE,
) -> float:
    """Expected predicate-join pair count from the inner marginals.

    Samples the outer side and averages the inner side's per-relation
    selectivity of the predicate's *inverse* (the stored record is the
    subject of each probe's question): before/after reduce to CDF prefix
    masses, the equality-pinning relations to quantile-width masses --
    exactly :meth:`BoundSummary.relation_count` per sampled probe.
    """
    if not outer or inner.count == 0:
        return 0.0
    inverse = pred.inverse
    estimator = inverse.estimator
    step = max(1, len(outer) // sample)
    chosen = outer[::step]
    if estimator is not None:
        # Compiled families price each sampled probe through their own
        # hook (range_duration: a probe outside the duration band
        # contributes exactly zero pairs).
        total = sum(max(0.0, estimator(inner, lower, upper))
                    for lower, upper, _ in chosen)
    else:
        total = sum(inner.relation_count(inverse.name, lower, upper)
                    for lower, upper, _ in chosen)
    return total / len(chosen) * len(outer)


def predicate_probe_statistics(
    outer: Sequence[IntervalRecord],
    inner: BoundSummary,
    backbone: VirtualBackbone,
    inverse,
    sample: int = TRANSIENT_SAMPLE,
) -> tuple[float, float]:
    """``(avg transient entries, total candidate rows)`` of predicate probes.

    The index path of a predicate join scans the *inverse* relation's
    candidate range per probe; this prices those scans by sampling the
    probes: the backbone is walked (pure arithmetic) over each sampled
    candidate range, and the candidate row count comes from the inner
    side's intersection identity over the same range.
    """
    if not outer or inner.count == 0:
        return 0.0, 0.0
    floor, ceiling = inner.extent()
    step = max(1, len(outer) // sample)
    chosen = outer[::step]
    transient = 0.0
    rows = 0.0
    for lower, upper, _ in chosen:
        candidate = inverse.candidates(lower, upper, floor, ceiling)
        if candidate is None:
            continue
        rows += inner.intersecting(candidate[0], candidate[1])
        if not backbone.is_empty:
            transient += collect_query_nodes(
                backbone, candidate[0], candidate[1]).total_entries
    scale = len(outer) / len(chosen)
    return transient / len(chosen), rows * scale


@dataclass
class QueryEstimate:
    """The optimizer-facing prediction for one intersection query."""

    result_count: float
    selectivity: float
    transient_entries: int
    index_probes: int
    logical_reads: float
    physical_reads: float

    def cheaper_than_full_scan(self, table_blocks: int) -> bool:
        """The plan-choice predicate: index plan vs full relation scan."""
        return self.logical_reads < table_blocks


@dataclass
class JoinStrategyCost:
    """Predicted cost of evaluating the join with one strategy."""

    strategy: str
    logical_reads: float
    physical_reads: float
    frame_cost: float

    def as_dict(self) -> dict:
        """Flat dict for benchmark reports."""
        return {
            "strategy": self.strategy,
            "logical_reads": round(self.logical_reads, 1),
            "physical_reads": round(self.physical_reads, 1),
            "frame_cost": round(self.frame_cost, 1),
        }


@dataclass
class JoinEstimate:
    """The planner-facing prediction for one interval equi-overlap join.

    ``result_count`` is the convolved pair-count estimate; ``index`` and
    ``sweep`` price the two executable strategies.  :attr:`choice` is the
    planner's verdict: the strategy with fewer predicted physical reads,
    Python-frame cost breaking ties -- physical block accesses are the
    paper's figure of merit, frames the substrate's.
    """

    outer_n: int
    inner_n: int
    result_count: float
    index: JoinStrategyCost
    sweep: JoinStrategyCost

    @property
    def choice(self) -> str:
        """Name of the predicted-cheaper strategy."""
        if self.index.physical_reads != self.sweep.physical_reads:
            if self.index.physical_reads < self.sweep.physical_reads:
                return self.index.strategy
            return self.sweep.strategy
        if self.index.frame_cost <= self.sweep.frame_cost:
            return self.index.strategy
        return self.sweep.strategy

    @property
    def chosen(self) -> JoinStrategyCost:
        """The cost row of the predicted-cheaper strategy."""
        if self.choice == self.index.strategy:
            return self.index
        return self.sweep

    def as_dict(self) -> dict:
        """Nested dict for benchmark reports and harness rows."""
        return {
            "choice": self.choice,
            "outer_n": self.outer_n,
            "inner_n": self.inner_n,
            "result_count": round(self.result_count, 1),
            "index": self.index.as_dict(),
            "sweep": self.sweep.as_dict(),
        }


def _index_join_cost(
    probes: int,
    avg_transient: float,
    pairs: float,
    height: int,
    leaf_capacity: int,
    leaf_blocks: float,
    internal_blocks: float,
    cache_blocks: int,
    cache_residency: float,
) -> JoinStrategyCost:
    """Price the index-nested-loop join against an RI-tree.

    Logical reads follow Section 4.4 per probe; physical reads split the
    index into its upper levels (shared across probes, discounted by the
    cache-residency factor and capped at the internal block count -- the
    handful of non-leaf pages is LRU-resident for the whole batch) and
    its leaves (two-regime LRU: leaf sets within the cache are read at
    most once, larger ones pay a locality-damped steady-state miss rate).
    """
    descent = max(1, height)
    per_leaf = max(1, leaf_capacity)
    scans = probes * avg_transient
    result_leaves = pairs / per_leaf
    logical = scans * descent + result_leaves
    cold_fraction = 1.0 - cache_residency
    internal = min(scans * (descent - 1) * cold_fraction, internal_blocks)
    leaf_misses = _lru_block_misses(
        touches=scans + result_leaves,
        yao_accesses=scans * SCAN_LEAF_DISTINCT + result_leaves,
        blocks=leaf_blocks,
        cache_blocks=cache_blocks,
    )
    frames = (probes * INDEX_FRAMES_PER_PROBE
              + scans * INDEX_FRAMES_PER_SCAN
              + result_leaves * INDEX_FRAMES_PER_LEAF)
    return JoinStrategyCost(
        strategy="index-nested-loop",
        logical_reads=logical,
        physical_reads=internal + leaf_misses,
        frame_cost=frames,
    )


def _lru_block_misses(
    touches: float, yao_accesses: float, blocks: float, cache_blocks: int
) -> float:
    """Two-regime LRU miss estimate over one block set.

    The physical model of :func:`_index_join_cost`, factored for reuse
    by the predicate join's heap accesses: a Yao distinct-block estimate
    for the cold phase (``yao_accesses`` clustered accesses over
    ``blocks``), then -- only when the set outgrows the cache -- a
    locality-damped steady-state miss rate on the remaining touches.
    """
    blocks = max(1.0, blocks)
    distinct = blocks * (1.0 - (1.0 - 1.0 / blocks) ** max(yao_accesses, 0.0))
    if blocks <= cache_blocks:
        return min(touches, distinct)
    miss_rate = (blocks - cache_blocks) / blocks
    steady = max(0.0, touches - distinct) * miss_rate * LEAF_MISS_LOCALITY
    return min(touches, distinct + steady)


def _index_predicate_join_cost(
    probes: int,
    avg_transient: float,
    candidate_rows: float,
    height: int,
    leaf_capacity: int,
    leaf_blocks: float,
    internal_blocks: float,
    cache_blocks: int,
    cache_residency: float,
    table_blocks: int,
) -> JoinStrategyCost:
    """Price the index path of a predicate join against an RI-tree.

    The same descent/leaf model as :func:`_index_join_cost`, applied to
    the *inverse* relation's candidate ranges, plus the refinement's
    table access by rowid: the candidate rows of one probe are few and
    scattered (sparse candidate sets pay roughly one heap page per row)
    or span whole ranges (dense sets saturate the heap) -- a Yao
    distinct-block estimate over the base relation covers both regimes.
    """
    descent = max(1, height)
    per_leaf = max(1, leaf_capacity)
    scans = probes * avg_transient
    candidate_leaves = candidate_rows / per_leaf
    blocks_t = float(max(table_blocks, 1))
    heap_touches = blocks_t * (
        1.0 - (1.0 - 1.0 / blocks_t) ** max(candidate_rows, 0.0))
    logical = scans * descent + candidate_leaves + heap_touches
    cold_fraction = 1.0 - cache_residency
    internal = min(scans * (descent - 1) * cold_fraction, internal_blocks)
    leaf_misses = _lru_block_misses(
        touches=scans + candidate_leaves,
        yao_accesses=scans * PREDICATE_SCAN_LEAF_DISTINCT + candidate_leaves,
        blocks=leaf_blocks,
        cache_blocks=cache_blocks,
    )
    heap_misses = _lru_block_misses(
        touches=heap_touches,
        yao_accesses=heap_touches,
        blocks=blocks_t,
        cache_blocks=cache_blocks,
    )
    frames = (probes * INDEX_FRAMES_PER_PROBE
              + scans * INDEX_FRAMES_PER_SCAN
              + candidate_leaves * INDEX_FRAMES_PER_LEAF
              + candidate_rows * INDEX_FRAMES_PER_CANDIDATE)
    return JoinStrategyCost(
        strategy="index-nested-loop",
        logical_reads=logical,
        physical_reads=internal + leaf_misses + heap_misses,
        frame_cost=frames,
    )


def _sweep_join_cost(
    outer_n: int, inner_n: int, pairs: float, block_size: int
) -> JoinStrategyCost:
    """Price the plane sweep: two sequential input scans plus merge work.

    The sweep is index-free; its engine I/O is exactly one heap scan per
    relation (each block read once, cold), and its Python work is the
    endpoint merge -- a few frames per input record plus one per emitted
    pair.
    """
    scan_blocks = (heap_scan_blocks(outer_n, 3, block_size)
                   + heap_scan_blocks(inner_n, 3, block_size))
    frames = (SWEEP_FRAMES_PER_INPUT * (outer_n + inner_n)
              + SWEEP_FRAMES_PER_PAIR * pairs)
    return JoinStrategyCost(
        strategy="sweep",
        logical_reads=float(scan_blocks),
        physical_reads=float(scan_blocks),
        frame_cost=frames,
    )


def average_transient_entries(
    backbone: VirtualBackbone,
    probes: Sequence[IntervalRecord],
    sample: int = TRANSIENT_SAMPLE,
) -> float:
    """Mean transient-entry count of a probe workload, by sampling.

    Walks the virtual backbone (pure arithmetic, Section 4.2: "causing no
    I/O effort") for up to ``sample`` evenly spaced probes.
    """
    if backbone.is_empty or not probes:
        return 0.0
    step = max(1, len(probes) // sample)
    chosen = probes[::step]
    total = sum(collect_query_nodes(backbone, lower, upper).total_entries
                for lower, upper, _ in chosen)
    return total / len(chosen)


@dataclass
class StoreGeometry:
    """Physical shape of one backend's indexes, as the planner sees it.

    The strategy cost formulas above are engine-generic in these inputs;
    a statistics provider realises them either from the live B+-trees of
    the simulated engine or from sqlite's page counts, so the identical
    :class:`RITreeCostModel` plans over either backend.
    """

    height: int
    leaf_capacity: int
    leaf_blocks: float
    internal_blocks: float
    cache_blocks: int
    block_size: int
    table_blocks: int


#: Cache size handed to fully memory-resident geometries: larger than
#: any block count the model will ever see, so the LRU terms stay in the
#: everything-fits regime.
MEMORY_CACHE_BLOCKS = 1 << 30


def memory_resident_geometry(
    count: int, partitions: int, block_size: int = DEFAULT_BLOCK_SIZE
) -> StoreGeometry:
    """The planner-side shape of a main-memory store (no real blocks).

    Partitions stand in for leaves (one "descent" reaches them -- there
    is no tree to walk), the cache is effectively unbounded, and the
    virtual table-block count only feeds relative refinement terms.  A
    memory store's cost model still zeroes the resulting physical reads
    (see :class:`repro.core.hint.HintCostModel`); this geometry merely
    keeps the shared formulas well-defined and comparable.
    """
    per_partition = max(1, -(-max(count, 1) // max(1, partitions)))
    return StoreGeometry(
        height=1,
        leaf_capacity=per_partition,
        leaf_blocks=float(max(1, partitions)),
        internal_blocks=0.0,
        cache_blocks=MEMORY_CACHE_BLOCKS,
        block_size=block_size,
        table_blocks=heap_scan_blocks(count, 3, block_size),
    )


class _EngineTreeStatistics:
    """Statistics source over an engine-backed :class:`RITree`."""

    sources = ("table", "indexes")

    def __init__(self, tree: RITree) -> None:
        self.tree = tree

    @property
    def backbone(self) -> VirtualBackbone:
        return self.tree.backbone

    def summarize(self, source: str, buckets: int) -> BoundSummary:
        """Collect both bound distributions from the chosen source.

        ``"table"`` scans the stored relation once; ``"indexes"`` scans
        the two composite indexes instead and collects their bound
        columns (entries are ``(node, bound, id)``, so the bound sits at
        position 1).
        """
        now = getattr(self.tree, "_now", None)

        def effective(upper: int) -> int:
            # Now-relative sentinel rows contribute their *effective*
            # duration; infinite rows keep the sentinel (open-ended).
            if now is not None and upper == UPPER_NOW:
                return now
            return upper

        if source == "indexes" and self.tree.table.indexes:
            # Index entries arrive in (node, bound, id) order; the bound
            # columns re-sort into the two global distributions, and the
            # id column pairs them back up for the duration histogram.
            lower_entries = list(
                self.tree.table.index("lowerIndex").tree.scan_all())
            upper_entries = list(
                self.tree.table.index("upperIndex").tree.scan_all())
            lowers = [entry[1] for entry in lower_entries]
            uppers = [entry[1] for entry in upper_entries]
            lower_of = {entry[2]: entry[1] for entry in lower_entries}
            durations = sorted(
                effective(entry[1]) - lower_of[entry[2]]
                for entry in upper_entries if entry[2] in lower_of)
        else:
            lowers = []
            uppers = []
            durations = []
            for _rowid, row in self.tree.table.scan():
                lowers.append(row[1])
                uppers.append(row[2])
                durations.append(effective(row[2]) - row[1])
            durations.sort()
        lowers.sort()
        uppers.sort()
        return BoundSummary(lowers, uppers, buckets,
                            sorted_durations=durations)

    def geometry(self, count: int) -> StoreGeometry:
        """Read the realised index shape off the live B+-trees."""
        index = self.tree.table.indexes["lowerIndex"].tree
        db = self.tree.db
        return StoreGeometry(
            height=index.height,
            leaf_capacity=index.leaf_capacity,
            leaf_blocks=2.0 * math.ceil(
                max(count, 1) / max(1, index.leaf_capacity)),
            internal_blocks=2.0 * index_internal_blocks(
                count, index.leaf_capacity, index.internal_capacity),
            cache_blocks=db.pool.capacity,
            block_size=db.disk.block_size,
            table_blocks=self.tree.table.heap.page_count,
        )


class _SQLStoreStatistics:
    """Statistics source over a sqlite3-backed RI-tree.

    Histograms come from SQL aggregation (one ``NTILE`` window pass per
    bound column -- the quantile computation runs inside the engine, not
    in Python), geometry from sqlite's page counts: ``PRAGMA page_size``
    and ``PRAGMA cache_size`` fix the block model, and the ``dbstat``
    virtual table supplies real per-index page counts where the build
    ships it (falling back to the analytic B+-tree layout otherwise).
    Reserved Section 4.6 fork rows carry sentinel bounds and are
    excluded from the statistics.
    """

    sources = ("table", "indexes")

    def __init__(self, store) -> None:
        self.store = store

    @property
    def backbone(self) -> VirtualBackbone:
        return self.store.backbone

    @property
    def _where(self) -> str:
        from .temporal import FORK_INF, FORK_NOW
        return f'"node" NOT IN ({FORK_INF}, {FORK_NOW})'

    def summarize(self, source: str, buckets: int) -> BoundSummary:
        # Both sources read the same persistent rows on this backend
        # (sqlite's indexes are covering); the distinction only matters
        # on the simulated engine.
        conn, name = self.store.conn, self.store.name
        count = conn.execute(
            f'SELECT COUNT(*) FROM {name} WHERE {self._where}'
        ).fetchone()[0]
        if count == 0:
            return BoundSummary([], [], buckets)
        if count <= buckets:
            lowers = [row[0] for row in conn.execute(
                f'SELECT "lower" FROM {name} WHERE {self._where} '
                f'ORDER BY "lower"')]
            uppers = [row[0] for row in conn.execute(
                f'SELECT "upper" FROM {name} WHERE {self._where} '
                f'ORDER BY "upper"')]
            durations = [row[0] for row in conn.execute(
                f'SELECT "upper" - "lower" FROM {name} WHERE {self._where} '
                f'ORDER BY "upper" - "lower"')]
            return BoundSummary(lowers, uppers, buckets,
                                sorted_durations=durations)
        return BoundSummary.from_boundaries(
            count,
            self._quantiles(conn, name, '"lower"', buckets),
            self._quantiles(conn, name, '"upper"', buckets),
            buckets,
            duration_bounds=self._quantiles(
                conn, name, '"upper" - "lower"', buckets),
        )

    def _quantiles(
        self, conn, name: str, expr: str, buckets: int
    ) -> list[int]:
        """Equi-depth boundaries q_0..q_B of one bound expression, in SQL.

        ``expr`` is a quoted column or an arithmetic expression over the
        bound columns (the duration histogram passes
        ``'"upper" - "lower"'``); one NTILE window pass either way.
        """
        floor = conn.execute(
            f'SELECT MIN({expr}) FROM {name} WHERE {self._where}'
        ).fetchone()[0]
        tiles = conn.execute(
            f'SELECT MAX("b") FROM (SELECT {expr} AS "b", '
            f'NTILE(?) OVER (ORDER BY {expr}) AS "t" '
            f'FROM {name} WHERE {self._where}) GROUP BY "t" ORDER BY "t"',
            (buckets,))
        return [floor] + [row[0] for row in tiles]

    def geometry(self, count: int) -> StoreGeometry:
        conn, name = self.store.conn, self.store.name
        page_size = conn.execute("PRAGMA page_size").fetchone()[0]
        height, leaf_capacity = index_geometry(count, 3, page_size)
        entry_bytes = _INT_BYTES * 4
        internal_capacity = max(
            4, (page_size - PAGE_HEADER_SIZE - 8) // (entry_bytes + 8))
        internal_blocks = 2.0 * index_internal_blocks(
            count, leaf_capacity, internal_capacity)
        leaf_blocks = 2.0 * math.ceil(max(count, 1) / leaf_capacity)
        table_blocks = heap_scan_blocks(count, 4, page_size)
        try:
            pages = dict(conn.execute(
                "SELECT name, COUNT(*) FROM dbstat "
                "WHERE name IN (?, ?, ?) GROUP BY name",
                (name, f"{name}_lowerIndex", f"{name}_upperIndex")))
        except sqlite3.Error:
            pages = {}
        index_pages = (pages.get(f"{name}_lowerIndex", 0)
                       + pages.get(f"{name}_upperIndex", 0))
        if index_pages:
            leaf_blocks = max(float(index_pages) - internal_blocks, 2.0)
        if pages.get(name):
            table_blocks = pages[name]
        cache = conn.execute("PRAGMA cache_size").fetchone()[0]
        if cache >= 0:
            cache_blocks = cache
        else:
            cache_blocks = max(1, (-cache * 1024) // page_size)
        return StoreGeometry(
            height=height,
            leaf_capacity=leaf_capacity,
            leaf_blocks=leaf_blocks,
            internal_blocks=internal_blocks,
            cache_blocks=cache_blocks,
            block_size=page_size,
            table_blocks=table_blocks,
        )


class RITreeCostModel:
    """Bound-histogram cost model over a loaded :class:`RITree`.

    Parameters
    ----------
    tree:
        The tree to model.  Histograms are built by :meth:`refresh`.
    buckets:
        Histogram resolution; estimation error is O(n / buckets) counts.
    cache_residency:
        Fraction of non-leaf index reads expected to hit the buffer cache
        (0 = cold, 1 = fully cached upper levels).  The harness's
        batch-with-warm-cache protocol sits near 0.9.
    source:
        Where :meth:`refresh` reads the bounds from: ``"table"`` scans the
        base relation, ``"indexes"`` reads the bound columns out of the
        already-loaded composite indexes (lowerIndex/upperIndex) -- the
        planner's choice, since a served tree always has them in place.
    """

    def __init__(
        self,
        tree: Optional[RITree] = None,
        buckets: int = DEFAULT_BUCKETS,
        cache_residency: float = 0.9,
        source: str = "table",
        statistics=None,
    ) -> None:
        if statistics is None:
            if tree is None:
                raise ValueError("need a tree or an explicit statistics "
                                 "source")
            statistics = _EngineTreeStatistics(tree)
        if buckets < 2:
            raise ValueError(f"need at least 2 buckets, got {buckets}")
        if not 0.0 <= cache_residency <= 1.0:
            raise ValueError(f"cache residency {cache_residency} not in [0,1]")
        if source not in statistics.sources:
            raise ValueError(f"unknown statistics source {source!r}")
        self.stats = statistics
        self.tree = getattr(statistics, "tree", None)
        #: The modelled store, whichever backend it lives on.
        if self.tree is not None:
            self.store = self.tree
        else:
            self.store = getattr(statistics, "store", None)
        self.buckets = buckets
        self.cache_residency = cache_residency
        self.source = source
        self.summary: BoundSummary = BoundSummary([], [], buckets)
        self.refresh()

    @classmethod
    def from_sql_tree(
        cls, store, buckets: int = DEFAULT_BUCKETS,
        cache_residency: float = 0.9,
    ) -> "RITreeCostModel":
        """Model a :class:`~repro.sql.SQLRITree` -- the planner port.

        The cost model is engine-generic in its inputs; this constructor
        realises them from sqlite: bound histograms through SQL
        aggregation (``NTILE`` equi-depth quantiles), index geometry and
        cache size from sqlite's page counts (``dbstat`` /
        ``PRAGMA``).  The returned model exposes the identical planning
        surface (:meth:`estimate`, :meth:`estimate_join`,
        :meth:`choose_join_strategy`), so the ``auto`` join strategy
        plans on the sqlite backend exactly as it does on the simulated
        engine.
        """
        return cls(buckets=buckets, cache_residency=cache_residency,
                   statistics=_SQLStoreStatistics(store))

    # ------------------------------------------------------------------
    # statistics maintenance (ANALYZE)
    # ------------------------------------------------------------------
    def refresh(self, source: Optional[str] = None) -> None:
        """Rebuild both bound histograms -- the engine's ``ANALYZE`` pass.

        On the simulated engine, ``source="table"`` scans the stored
        relation once while ``source="indexes"`` reads the bound columns
        out of the two composite indexes; the sqlite backend aggregates
        in SQL either way.  Run after bulk loads or heavy update
        batches; omitting ``source`` keeps the constructor's.
        """
        chosen = source or self.source
        if chosen not in self.stats.sources:
            raise ValueError(f"unknown statistics source {chosen!r}")
        self.summary = self.stats.summarize(chosen, self.buckets)

    @property
    def _count(self) -> int:
        """Summarised interval count (kept for extension-hook stability)."""
        return self.summary.count

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------
    def estimate_result_count(self, lower: int, upper: int) -> float:
        """Expected number of intersecting intervals for ``[lower, upper]``."""
        validate_interval(lower, upper)
        return self.summary.intersecting(lower, upper)

    def estimate(self, lower: int, upper: int) -> QueryEstimate:
        """Full plan estimate for one intersection query."""
        validate_interval(lower, upper)
        result_count = self.estimate_result_count(lower, upper)
        backbone = self.stats.backbone
        if backbone.is_empty:
            transient = 0
        else:
            transient = collect_query_nodes(
                backbone, lower, upper).total_entries
        geometry = self.stats.geometry(self.summary.count)
        descent = max(1, geometry.height)
        per_leaf = max(1, geometry.leaf_capacity)
        probes = transient
        logical = probes * descent + result_count / per_leaf
        # Upper index levels are shared across probes and mostly cached.
        cold_fraction = 1.0 - self.cache_residency
        physical = (probes * (1 + (descent - 1) * cold_fraction)
                    + result_count / per_leaf)
        count = self.summary.count
        return QueryEstimate(
            result_count=result_count,
            selectivity=result_count / count if count else 0.0,
            transient_entries=transient,
            index_probes=probes,
            logical_reads=logical,
            physical_reads=physical,
        )

    def estimate_query(
        self, predicate, lower: int, upper: Optional[int] = None
    ) -> QueryEstimate:
        """Plan estimate for one *predicate* query (Section 4.5 pricing).

        ``intersects`` reduces exactly to :meth:`estimate`; ``stab`` is
        the degenerate point query.  The relational predicates are
        priced over their *candidate* intersection range -- that is what
        the compiled plan scans, plus the table access by rowid for the
        refinement -- while ``result_count``/``selectivity`` report the
        per-relation selectivity from the bound marginals
        (:meth:`BoundSummary.relation_count`).
        """
        pred = compile_query(predicate)
        if upper is None:
            upper = lower
        validate_interval(lower, upper)
        if pred.name == "intersects":
            return self.estimate(lower, upper)
        if pred.name == "stab":
            return self.estimate(lower, lower)
        estimator = pred.estimator
        if estimator is not None:
            # A compiled family prices its own parameter selectivity
            # (range_duration: intersection mass times the duration
            # histogram's band fraction).
            result_count = max(0.0, estimator(self.summary, lower, upper))
        else:
            result_count = self.summary.relation_count(
                pred.name, lower, upper)
        count = self.summary.count
        floor, ceiling = self.summary.extent()
        candidate = pred.candidates(lower, upper, floor, ceiling)
        if candidate is None or count == 0:
            return QueryEstimate(
                result_count=0.0, selectivity=0.0, transient_entries=0,
                index_probes=0, logical_reads=0.0, physical_reads=0.0,
            )
        candidate_rows = self.summary.intersecting(candidate[0], candidate[1])
        backbone = self.stats.backbone
        if backbone.is_empty:
            transient = 0
        else:
            transient = collect_query_nodes(
                backbone, candidate[0], candidate[1]).total_entries
        geometry = self.stats.geometry(count)
        descent = max(1, geometry.height)
        per_leaf = max(1, geometry.leaf_capacity)
        rows_per_block = max(1.0, count / max(geometry.table_blocks, 1))
        heap_touches = candidate_rows / rows_per_block
        logical = (transient * descent + candidate_rows / per_leaf
                   + heap_touches)
        cold_fraction = 1.0 - self.cache_residency
        physical = (transient * (1 + (descent - 1) * cold_fraction)
                    + candidate_rows / per_leaf + heap_touches)
        return QueryEstimate(
            result_count=result_count,
            selectivity=result_count / count,
            transient_entries=transient,
            index_probes=transient,
            logical_reads=logical,
            physical_reads=physical,
        )

    # ------------------------------------------------------------------
    # join estimation (the planner path)
    # ------------------------------------------------------------------
    def estimate_join(
        self, outer: Sequence[IntervalRecord], predicate=None
    ) -> JoinEstimate:
        """Predict the join of ``outer`` probes against the modelled tree.

        The tree's stored relation is the inner side; its histograms (and
        virtual backbone) are already in place, so only the outer side is
        summarised here.  Returns a :class:`JoinEstimate` whose
        :attr:`~JoinEstimate.choice` names the predicted-cheaper strategy.

        A join ``predicate`` prices the predicate join instead: the pair
        count comes from the per-relation marginals
        (:func:`expected_predicate_pairs`) and the index strategy is
        priced over the inverse relation's candidate ranges plus the
        refinement's table accesses (:func:`predicate_probe_statistics`).
        """
        pred = resolve_join_predicate(predicate)
        geometry = self.stats.geometry(self.summary.count)
        if pred is None:
            outer_summary = BoundSummary.from_records(outer, self.buckets)
            pairs = expected_join_pairs(outer_summary, self.summary)
            avg_transient = average_transient_entries(
                self.stats.backbone, outer)
            index_cost = _index_join_cost(
                probes=len(outer),
                avg_transient=avg_transient,
                pairs=pairs,
                height=geometry.height,
                leaf_capacity=geometry.leaf_capacity,
                leaf_blocks=geometry.leaf_blocks,
                internal_blocks=geometry.internal_blocks,
                cache_blocks=geometry.cache_blocks,
                cache_residency=self.cache_residency,
            )
        else:
            pairs = expected_predicate_pairs(outer, self.summary, pred)
            avg_transient, candidate_rows = predicate_probe_statistics(
                outer, self.summary, self.stats.backbone, pred.inverse)
            index_cost = _index_predicate_join_cost(
                probes=len(outer),
                avg_transient=avg_transient,
                candidate_rows=candidate_rows,
                height=geometry.height,
                leaf_capacity=geometry.leaf_capacity,
                leaf_blocks=geometry.leaf_blocks,
                internal_blocks=geometry.internal_blocks,
                cache_blocks=geometry.cache_blocks,
                cache_residency=self.cache_residency,
                table_blocks=geometry.table_blocks,
            )
        sweep_cost = _sweep_join_cost(
            outer_n=len(outer),
            inner_n=self.summary.count,
            pairs=pairs,
            block_size=geometry.block_size,
        )
        return JoinEstimate(
            outer_n=len(outer),
            inner_n=self.summary.count,
            result_count=pairs,
            index=index_cost,
            sweep=sweep_cost,
        )

    def choose_join_strategy(
        self,
        outer: Sequence[IntervalRecord],
        inner: Optional[Sequence[IntervalRecord]] = None,
        predicate=None,
    ) -> JoinEstimate:
        """Plan the join of ``outer`` against ``inner`` (or the tree).

        With ``inner`` omitted the modelled tree's stored relation is the
        inner side (:meth:`estimate_join`); passing explicit ``inner``
        records plans an ad-hoc join with the engine-free estimator
        instead, sharing this model's resolution and residency settings.
        """
        if inner is None:
            return self.estimate_join(outer, predicate=predicate)
        geometry = self.stats.geometry(self.summary.count)
        return choose_join_strategy(
            outer, inner, buckets=self.buckets,
            cache_residency=self.cache_residency,
            block_size=geometry.block_size,
            cache_blocks=geometry.cache_blocks,
            predicate=predicate,
        )

    @property
    def table_blocks(self) -> int:
        """Base-relation size in blocks (the full-scan alternative cost)."""
        return self.stats.geometry(self.summary.count).table_blocks


def choose_join_strategy(
    outer: Sequence[IntervalRecord],
    inner: Sequence[IntervalRecord],
    buckets: int = DEFAULT_BUCKETS,
    cache_residency: float = 0.9,
    block_size: int = DEFAULT_BLOCK_SIZE,
    cache_blocks: int = DEFAULT_CACHE_BLOCKS,
    predicate=None,
) -> JoinEstimate:
    """Plan an interval join from raw records, without touching an engine.

    The engine-free planner: both sides are summarised into bound
    histograms, a virtual backbone is populated by registering the inner
    records (pure arithmetic -- no relation, no I/O), and the index
    geometry an RI-tree *would* realise under the given block size is
    computed analytically.  Used by the ``auto`` join strategy before it
    decides whether building/probing an index is worth it at all.  A
    join ``predicate`` plans the predicate join per relation, exactly as
    :meth:`RITreeCostModel.estimate_join` does on a loaded tree.
    """
    pred = resolve_join_predicate(predicate)
    for lower, upper, _ in outer:
        validate_interval(lower, upper)
    for lower, upper, _ in inner:
        validate_interval(lower, upper)
    outer_summary = BoundSummary.from_records(outer, buckets)
    inner_summary = BoundSummary.from_records(inner, buckets)
    backbone = VirtualBackbone()
    for lower, upper, _ in inner:
        backbone.register(lower, upper)
    height, leaf_capacity = index_geometry(len(inner), 3, block_size)
    entry_bytes = _INT_BYTES * 4
    internal_capacity = max(
        4, (block_size - PAGE_HEADER_SIZE - 8) // (entry_bytes + 8))
    leaf_blocks = 2.0 * math.ceil(max(len(inner), 1) / leaf_capacity)
    internal_blocks = 2.0 * index_internal_blocks(
        len(inner), leaf_capacity, internal_capacity)
    if pred is None:
        pairs = expected_join_pairs(outer_summary, inner_summary)
        avg_transient = average_transient_entries(backbone, outer)
        index_cost = _index_join_cost(
            probes=len(outer),
            avg_transient=avg_transient,
            pairs=pairs,
            height=height,
            leaf_capacity=leaf_capacity,
            leaf_blocks=leaf_blocks,
            internal_blocks=internal_blocks,
            cache_blocks=cache_blocks,
            cache_residency=cache_residency,
        )
    else:
        pairs = expected_predicate_pairs(outer, inner_summary, pred)
        avg_transient, candidate_rows = predicate_probe_statistics(
            outer, inner_summary, backbone, pred.inverse)
        index_cost = _index_predicate_join_cost(
            probes=len(outer),
            avg_transient=avg_transient,
            candidate_rows=candidate_rows,
            height=height,
            leaf_capacity=leaf_capacity,
            leaf_blocks=leaf_blocks,
            internal_blocks=internal_blocks,
            cache_blocks=cache_blocks,
            cache_residency=cache_residency,
            table_blocks=heap_scan_blocks(len(inner), 4, block_size),
        )
    sweep_cost = _sweep_join_cost(
        outer_n=len(outer),
        inner_n=len(inner),
        pairs=pairs,
        block_size=block_size,
    )
    return JoinEstimate(
        outer_n=len(outer),
        inner_n=len(inner),
        result_count=pairs,
        index=index_cost,
        sweep=sweep_cost,
    )
