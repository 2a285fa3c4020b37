"""The RI-tree on a real SQL engine (paper Section 5).

"The Relational Interval Tree may be easily implemented on top of any
relational DBMS featuring a procedural query language."  This module proves
the claim on stdlib :mod:`sqlite3`:

* the relation and indexes are the literal Figure 2 DDL;
* insertion executes the single SQL statement of Figure 5 after the
  arithmetic-only fork computation of Figure 6;
* an intersection query fills the two transient (TEMP) tables and runs the
  literal two-branch ``UNION ALL`` statement of Figure 9;
* the O(1) parameter set persists in a data-dictionary table and survives
  re-opening the database;
* optionally, an updatable *view* with an ``INSTEAD OF`` trigger and a
  user-defined ``fork_node`` function wraps the whole maintenance machinery
  behind plain ``INSERT`` statements -- the object-relational encapsulation
  the paper describes for Oracle8i's extensible indexing framework.

Beyond the single-query statements, the class implements the full
backend-neutral :class:`~repro.core.access.IntervalStore` contract, so
every client of the simulated-engine RI-tree -- the join subsystem, the
``auto`` planner, the predicate layer, the benchmark harness -- runs
unchanged on sqlite:

* ``intersection_many`` and the interval-join entry points
  (``join_pairs`` / ``join_count``) evaluate *set-at-a-time*: the probe
  relation is loaded into a TEMP table once per batch and joined against
  the literal Figure 9 form in ONE statement, so sqlite's own optimizer
  drives the nested-loop plan over the whole batch;
* ``cost_model`` exposes :meth:`repro.core.costmodel.RITreeCostModel.
  from_sql_tree` statistics (NTILE histograms, page-count geometry), so
  the ``auto`` join strategy plans here exactly as on the simulated
  engine;
* :meth:`query` compiles the shared interval predicates (``intersects``,
  ``stab``, Allen's thirteen relations) to a WHERE-clause rewrite of the
  Figure 9 statement over the predicate's candidate range.

The ``now``/``infinity`` handling of Section 4.6 rides along: reserved fork
node values are injected into ``rightNodes`` at query time, with *no
modification of the SQL statement*.
"""

from __future__ import annotations

import sqlite3
from typing import Iterable, Optional, Sequence

from ..core.access import IntervalRecord, IntervalStore
from ..core.backbone import VirtualBackbone
from ..core.interval import validate_interval
from ..core.predicates import resolve_join_predicate
from ..core.temporal import FORK_INF, FORK_NOW, UPPER_INF, UPPER_NOW
from ..core.verify import VerificationReport
from ..engine.retry import RetryPolicy
from . import schema

_PARAM_KEYS = ("offset", "left_root", "right_root", "minstep")
#: Sentinel stored for "no value yet" parameters in the data dictionary.
_NULL = None

#: The batch transient tables one fill cycle populates (and must clear).
_BATCH_TABLES = ("batchProbes", "batchLeftNodes", "batchRightNodes")


def sqlite_transient_classify(exc: BaseException) -> bool:
    """Retry test for sqlite: ``busy`` / ``locked`` operational errors.

    The sqlite analogue of the engine's
    :func:`~repro.engine.retry.default_classify` -- contention errors are
    transient (another connection holds the lock and will release it);
    everything else propagates untouched.
    """
    if not isinstance(exc, sqlite3.OperationalError):
        return False
    text = str(exc).lower()
    return "locked" in text or "busy" in text


class SQLRITree(IntervalStore):
    """RI-tree over a DB-API connection (tested on sqlite3).

    Parameters
    ----------
    connection:
        An open sqlite3 connection; ``:memory:`` when omitted.
    name:
        Relation name; several trees may share a connection.
    attach:
        When true, attach to an existing relation of this name (re-opening a
        persistent database): the schema must exist and the parameters are
        loaded from the data dictionary instead of being created.

    Example
    -------
    >>> tree = SQLRITree()
    >>> tree.insert(3, 9, interval_id=1)
    >>> tree.insert(5, 15, interval_id=2)
    >>> sorted(tree.intersection(8, 12))
    [1, 2]
    >>> tree.intersection_count(8, 12)
    2
    >>> sorted(tree.join_pairs([(4, 6, 77)]))
    [(77, 1), (77, 2)]
    """

    method_name = "SQL-RI-tree"

    def __init__(
        self,
        connection: Optional[sqlite3.Connection] = None,
        name: str = "Intervals",
        attach: bool = False,
        now: int = 0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.conn = (
            connection if connection is not None else sqlite3.connect(":memory:")
        )
        self.name = name
        self.backbone = VirtualBackbone()
        self.retry = retry if retry is not None else RetryPolicy()
        self._now = now
        self._has_infinite = False
        self._has_now = False
        #: Last persisted parameter tuple (the dirty flag: ``_save_params``
        #: writes the dictionary only when this snapshot goes stale).
        self._persisted: Optional[tuple] = None
        self._cost_model = None
        if attach:
            self._load_params()
        else:
            for statement in schema.create_interval_table(name):
                self.conn.execute(statement)
            for statement in schema.create_params_table(name):
                self.conn.execute(statement)
            self._save_params()
        for statement in schema.create_transient_tables():
            self.conn.execute(statement)
        for statement in schema.create_batch_transient_tables():
            self.conn.execute(statement)
        self._register_udf()
        # Leave the connection at a transaction boundary: the initial
        # dictionary write opened an implicit transaction that a later
        # cycle's rollback must not be able to revert.
        self.conn.commit()

    # ------------------------------------------------------------------
    # data dictionary (Section 5)
    # ------------------------------------------------------------------
    def _param_values(self) -> tuple:
        return (
            self.backbone.offset,
            self.backbone.left_root,
            self.backbone.right_root,
            self.backbone.minstep,
            int(self._has_infinite),
            int(self._has_now),
        )

    def _save_params(self) -> None:
        """Persist the O(1) parameter set -- only when it changed.

        Insertions rarely move the backbone parameters (the roots double
        logarithmically, ``minstep`` only ever shrinks), so writing the
        dictionary per row would be almost-always-wasted I/O; the dirty
        check makes parameter persistence O(changes), not O(rows).
        """
        values = self._param_values()
        if values == self._persisted:
            return
        keys = _PARAM_KEYS + ("has_infinite", "has_now")
        self.conn.executemany(
            f'INSERT OR REPLACE INTO {self.name}_params ("key", "value") '
            f"VALUES (?, ?)",
            list(zip(keys, values)),
        )
        self._persisted = values

    def _load_params(self) -> None:
        rows = dict(
            self.conn.execute(f'SELECT "key", "value" FROM {self.name}_params')
        )
        if not rows:
            raise ValueError(f"no persisted parameters for RI-tree {self.name!r}")
        self.backbone.offset = rows.get("offset")
        self.backbone.left_root = rows.get("left_root") or 0
        self.backbone.right_root = rows.get("right_root") or 0
        self.backbone.minstep = rows.get("minstep")
        self._has_infinite = bool(rows.get("has_infinite"))
        self._has_now = bool(rows.get("has_now"))
        self._persisted = self._param_values()

    # ------------------------------------------------------------------
    # updates (Figures 5 and 6)
    # ------------------------------------------------------------------
    def insert(self, lower: int, upper: int, interval_id: int) -> None:
        """Fork computation (no I/O) + the single INSERT of Figure 5."""
        node = self.backbone.register(lower, upper)
        self.conn.execute(
            schema.INSERT_SQL.format(name=self.name),
            {"node": node, "lower": lower, "upper": upper, "id": interval_id},
        )
        self._save_params()

    def delete(self, lower: int, upper: int, interval_id: int) -> None:
        """Recompute the fork, delete with one statement."""
        validate_interval(lower, upper)
        if self.backbone.is_empty:
            raise KeyError((lower, upper, interval_id))
        node = self.backbone.fork_node(lower, upper)
        cursor = self.conn.execute(
            schema.DELETE_SQL.format(name=self.name),
            {"node": node, "lower": lower, "upper": upper, "id": interval_id},
        )
        if cursor.rowcount != 1:
            raise KeyError((lower, upper, interval_id))

    def bulk_load(self, intervals: Iterable[IntervalRecord]) -> None:
        """Register and insert many intervals inside one transaction.

        A ``busy`` / ``locked`` failure rolls the transaction back and
        retries the whole batch under the bounded backoff policy.
        """
        rows = []
        for lower, upper, interval_id in intervals:
            node = self.backbone.register(lower, upper)
            rows.append(
                {"node": node, "lower": lower, "upper": upper, "id": interval_id}
            )

        def body() -> None:
            self.conn.executemany(schema.INSERT_SQL.format(name=self.name), rows)
            self._save_params()

        self._transact(body)

    def extend(self, intervals: Iterable[IntervalRecord]) -> None:
        """Insert many intervals one by one, inside one transaction."""
        records = list(intervals)

        def body() -> None:
            for lower, upper, interval_id in records:
                self.insert(lower, upper, interval_id)

        self._transact(body)

    def append_batch(self, intervals: Iterable[IntervalRecord]) -> None:
        """Streaming append: one ``executemany`` + dictionary write.

        Unlike :meth:`bulk_load` this is valid on a non-empty relation,
        and unlike :meth:`extend` it issues one multi-row statement and
        at most one parameter-dictionary write per batch.  Sentinel
        uppers fold into the same statement as reserved fork-node rows
        (Section 4.6), so a mixed batch still commits atomically.
        """
        rows = []
        has_infinite = self._has_infinite
        has_now = self._has_now
        for lower, upper, interval_id in intervals:
            if upper == UPPER_INF:
                validate_interval(lower, lower)
                if self.backbone.offset is None:
                    self.backbone.offset = lower
                rows.append(
                    {"node": FORK_INF, "lower": lower,
                     "upper": UPPER_INF, "id": interval_id}
                )
                has_infinite = True
            elif upper == UPPER_NOW:
                validate_interval(lower, lower)
                if lower > self._now:
                    raise ValueError(
                        f"now-relative interval starts after now={self._now}"
                    )
                if self.backbone.offset is None:
                    self.backbone.offset = lower
                rows.append(
                    {"node": FORK_NOW, "lower": lower,
                     "upper": UPPER_NOW, "id": interval_id}
                )
                has_now = True
            else:
                node = self.backbone.register(lower, upper)
                rows.append(
                    {"node": node, "lower": lower,
                     "upper": upper, "id": interval_id}
                )
        if not rows:
            return
        self._has_infinite = has_infinite
        self._has_now = has_now

        def body() -> None:
            self.conn.executemany(schema.INSERT_SQL.format(name=self.name), rows)
            self._save_params()

        self._transact(body)

    def _transact(self, body):
        """Run ``body`` in one transaction, retrying ``busy``/``locked``.

        On any failure the transaction rolls back, so the parameter
        dirty-flag snapshot must not claim the dictionary writes stuck;
        resetting it forces the next :meth:`_save_params` to re-persist.
        Pending single-statement work (``insert`` leaves its implicit
        transaction open) is committed first, so the rollback is scoped
        to this transaction alone.
        """

        def attempt():
            self.conn.commit()
            with self.conn:
                return body()

        def rolled_back(_exc: BaseException) -> None:
            self._persisted = None

        try:
            return self.retry.call(
                attempt, classify=sqlite_transient_classify, on_retry=rolled_back
            )
        except BaseException:
            self._persisted = None
            raise

    # ------------------------------------------------------------------
    # temporal records (Section 4.6)
    # ------------------------------------------------------------------
    def insert_infinite(self, lower: int, interval_id: int) -> None:
        """Insert ``[lower, infinity)`` under the reserved fork node."""
        if self.backbone.offset is None:
            self.backbone.offset = lower
        self.conn.execute(
            schema.INSERT_SQL.format(name=self.name),
            {"node": FORK_INF, "lower": lower, "upper": UPPER_INF, "id": interval_id},
        )
        self._has_infinite = True
        self._save_params()

    def insert_until_now(self, lower: int, interval_id: int) -> None:
        """Insert ``[lower, now]`` under the reserved fork node."""
        if lower > self._now:
            raise ValueError(f"now-relative interval starts after now={self._now}")
        if self.backbone.offset is None:
            self.backbone.offset = lower
        self.conn.execute(
            schema.INSERT_SQL.format(name=self.name),
            {"node": FORK_NOW, "lower": lower, "upper": UPPER_NOW, "id": interval_id},
        )
        self._has_now = True
        self._save_params()

    @property
    def now(self) -> int:
        """The clock for now-relative semantics."""
        return self._now

    def advance_to(self, now: int) -> None:
        """Move the clock forward."""
        if now < self._now:
            raise ValueError("clock moves forward only")
        self._now = now

    # ------------------------------------------------------------------
    # queries (Figures 8 and 9)
    # ------------------------------------------------------------------
    def intersection(self, lower: int, upper: int) -> list[int]:
        """Fill the transient tables, run the Figure 9 statement.

        When the transient collections are provably empty -- an empty
        backbone with no reserved fork rows -- the result is ``[]``
        without any transient-table round-trip, not even the ``DELETE``
        statements.
        """
        validate_interval(lower, upper)
        left, right = self._transient_rows(lower, upper)
        if not left and not right:
            return []
        self._write_transient(left, right)
        cursor = self.conn.execute(
            schema.INTERSECTION_SQL.format(name=self.name),
            {"lower": lower, "upper": upper},
        )
        return [row[0] for row in cursor]

    def intersection_count(self, lower: int, upper: int) -> int:
        """Result count of :meth:`intersection`, aggregated in-engine.

        Same transient fill, same two-branch statement, wrapped in
        ``COUNT(*)`` so no id list crosses the DB-API boundary.
        """
        validate_interval(lower, upper)
        left, right = self._transient_rows(lower, upper)
        if not left and not right:
            return 0
        self._write_transient(left, right)
        cursor = self.conn.execute(
            schema.INTERSECTION_COUNT_SQL.format(name=self.name),
            {"lower": lower, "upper": upper},
        )
        return cursor.fetchone()[0]

    def intersection_many(self, queries: Sequence[tuple[int, int]]) -> list[list[int]]:
        """Answer a whole query batch with one set-at-a-time statement.

        All transient node collections are computed and loaded in ONE
        fill cycle of the batch TEMP tables, then a single Figure 9 form
        joined against the probe relation returns ``(qid, id)`` rows for
        every query at once.
        """
        results: list[list[int]] = [[] for _ in queries]
        if not queries:
            return results
        rows = self._batch_cycle(
            lambda: self._fill_batch_tables(queries),
            lambda: list(
                self.conn.execute(
                    schema.BATCH_INTERSECTION_SQL.format(name=self.name)
                )
            ),
            empty=[],
        )
        for qid, interval_id in rows:
            results[qid].append(interval_id)
        return results

    def intersection_preliminary(self, lower: int, upper: int) -> list[int]:
        """The unsimplified three-branch OR query of Figure 8.

        Kept for the query-form ablation benchmark; results are identical
        to :meth:`intersection`.
        """
        validate_interval(lower, upper)
        if self.backbone.is_empty:
            return []
        # Note: unlike the final form, the BETWEEN branch lives in the SQL
        # itself, so the query must run even with empty transient tables.
        left, right = self._transient_rows(lower, upper, fold_between=False)
        self._write_transient(left, right)
        cursor = self.conn.execute(
            schema.PRELIMINARY_INTERSECTION_SQL.format(name=self.name),
            {
                "lower": lower,
                "upper": upper,
                "lowshift": self.backbone.shift(lower),
                "upshift": self.backbone.shift(upper),
            },
        )
        return [row[0] for row in cursor]

    def _transient_rows(
        self,
        lower: int,
        upper: int,
        fold_between: bool = True,
        include_reserved: bool = True,
    ) -> tuple[list[tuple[int, int]], list[int]]:
        """Descend the backbone, compute the leftNodes/rightNodes rows.

        Pure arithmetic -- no SQL is issued; the caller decides whether
        the collections are worth materialising.  For the final query
        form, both empty means the result is provably empty and every
        round-trip can be skipped.
        """
        left: list[tuple[int, int]] = []
        right: list[int] = []
        if not self.backbone.is_empty:
            l = self.backbone.shift(lower)
            u = self.backbone.shift(upper)
            for node in self.backbone.walk_toward(l):
                if node < l:
                    left.append((node, node))
            for node in self.backbone.walk_toward(u):
                if node > u:
                    right.append(node)
            if fold_between:
                left.append((l, u))
        # Section 4.6: reserved fork nodes ride along rightNodes.
        if include_reserved:
            if self._has_infinite:
                right.append(FORK_INF)
            if self._has_now and lower <= self._now:
                right.append(FORK_NOW)
        return left, right

    def _write_transient(
        self, left: list[tuple[int, int]], right: list[int]
    ) -> None:
        """(Re)populate the single-query transient tables."""
        self.conn.execute("DELETE FROM leftNodes")
        self.conn.execute("DELETE FROM rightNodes")
        self.conn.executemany(
            'INSERT INTO leftNodes ("min", "max") VALUES (?, ?)', left
        )
        self.conn.executemany(
            'INSERT INTO rightNodes ("node") VALUES (?)',
            [(node,) for node in right],
        )

    def _fill_batch_tables(self, queries: Sequence[tuple[int, int]]) -> int:
        """One fill cycle of the batch transient tables for a probe batch.

        Returns the total number of transient node rows; zero means every
        probe's result is provably empty and the batch statement can be
        skipped entirely.
        """
        probe_rows: list[tuple[int, int, int]] = []
        left_rows: list[tuple[int, int, int]] = []
        right_rows: list[tuple[int, int]] = []
        for qid, (lower, upper) in enumerate(queries):
            validate_interval(lower, upper)
            probe_rows.append((qid, lower, upper))
            left, right = self._transient_rows(lower, upper)
            left_rows.extend((qid, mn, mx) for mn, mx in left)
            right_rows.extend((qid, node) for node in right)
        if not left_rows and not right_rows:
            return 0
        self.conn.execute("DELETE FROM batchProbes")
        self.conn.execute("DELETE FROM batchLeftNodes")
        self.conn.execute("DELETE FROM batchRightNodes")
        self.conn.executemany(
            'INSERT INTO batchProbes ("qid", "lower", "upper") VALUES (?, ?, ?)',
            probe_rows,
        )
        self.conn.executemany(
            'INSERT INTO batchLeftNodes ("qid", "min", "max") VALUES (?, ?, ?)',
            left_rows,
        )
        self.conn.executemany(
            'INSERT INTO batchRightNodes ("qid", "node") VALUES (?, ?)',
            right_rows,
        )
        return len(left_rows) + len(right_rows)

    def _clear_batch_tables(self) -> None:
        """Empty every batch transient table (end of one fill cycle)."""
        for table in _BATCH_TABLES:
            self.conn.execute(f"DELETE FROM {table}")

    def _batch_cycle(self, fill, run, empty):
        """One transaction-scoped batch fill cycle with bounded retry.

        ``fill`` populates the batch transient tables and returns the
        transient row count; when it returns zero the result is provably
        ``empty``, ``run`` is skipped and -- preserving the empty-backbone
        fast path -- not a single statement reaches the connection.  Fill,
        query and cleanup execute inside ONE transaction: a mid-cycle
        failure rolls the fill back (no stray TEMP rows can outlive the
        cycle), and a ``busy`` / ``locked`` error additionally
        re-attempts the whole cycle under the bounded backoff policy.
        Pending single-statement work is committed up front, so the
        mid-cycle rollback can only ever revert the cycle itself.
        """

        def attempt():
            self.conn.commit()
            try:
                if not fill():
                    return empty
                result = run()
                self._clear_batch_tables()
                self.conn.commit()
                return result
            except BaseException:
                self.conn.rollback()
                raise

        return self.retry.call(attempt, classify=sqlite_transient_classify)

    def _fill_predicate_batch_tables(
        self, probes: Sequence[IntervalRecord], inverse
    ) -> int:
        """Fill cycle for a predicate-join probe batch.

        Per probe, the transient node collections are computed for the
        *inverse* relation's candidate range (probing asks the
        stored-subject question) and the probe row carries both the
        candidate bounds (scanned by the Figure 9 branches) and the
        original probe bounds (consumed by the refinement fragment).
        Reserved Section 4.6 fork rows ride along their rightNodes
        entries and are refined on *effective* bounds, exactly as in the
        single-query predicate path.  Returns the total transient row
        count; zero means every probe's result is provably empty.
        """
        floor, ceiling = self._extent_for(inverse)
        probe_rows: list[tuple] = []
        left_rows: list[tuple[int, int, int]] = []
        right_rows: list[tuple[int, int]] = []
        for qid, (lower, upper, _probe_id) in enumerate(probes):
            validate_interval(lower, upper)
            candidate = inverse.candidates(lower, upper, floor, ceiling)
            if candidate is None:
                continue
            clower, cupper = candidate
            probe_rows.append((qid, clower, cupper, lower, upper))
            left, right = self._transient_rows(clower, cupper)
            left_rows.extend((qid, mn, mx) for mn, mx in left)
            right_rows.extend((qid, node) for node in right)
        if not left_rows and not right_rows:
            return 0
        self.conn.execute("DELETE FROM batchProbes")
        self.conn.execute("DELETE FROM batchLeftNodes")
        self.conn.execute("DELETE FROM batchRightNodes")
        self.conn.executemany(
            'INSERT INTO batchProbes ("qid", "lower", "upper", "plower", '
            '"pupper") VALUES (?, ?, ?, ?, ?)',
            probe_rows,
        )
        self.conn.executemany(
            'INSERT INTO batchLeftNodes ("qid", "min", "max") VALUES (?, ?, ?)',
            left_rows,
        )
        self.conn.executemany(
            'INSERT INTO batchRightNodes ("qid", "node") VALUES (?, ?)',
            right_rows,
        )
        return len(left_rows) + len(right_rows)

    # ------------------------------------------------------------------
    # joins (set-at-a-time, Section 5 meets the join subsystem)
    # ------------------------------------------------------------------
    def join_pairs(
        self, probes: Sequence[IntervalRecord], *, predicate=None
    ) -> list[tuple[int, int]]:
        """The index-nested-loop interval join as ONE SQL statement.

        The probe relation is loaded into a TEMP table and joined against
        the literal Figure 9 form; sqlite's optimizer drives the
        nested-loop plan (probe relation outer, the two Figure 2 indexes
        inner), so the join is evaluated set-at-a-time instead of one
        statement per probe.

        A join ``predicate`` keeps the one-statement shape: the per-probe
        candidate ranges of the *inverse* relation fill the transient
        tables and the subject-swapped refinement fragment rides along in
        both branches (:func:`repro.sql.schema.
        predicate_batch_intersection_sql`).  Reserved Section 4.6 rows
        participate with their effective bounds, as in predicate
        queries.
        """
        pred = resolve_join_predicate(predicate)
        if not probes:
            return []
        ids = [probe_id for _lower, _upper, probe_id in probes]
        if pred is None:
            rows = self._batch_cycle(
                lambda: self._fill_batch_tables([(l, u) for l, u, _ in probes]),
                lambda: list(
                    self.conn.execute(
                        schema.BATCH_INTERSECTION_SQL.format(name=self.name)
                    )
                ),
                empty=[],
            )
        else:
            statement = schema.predicate_batch_intersection_sql(
                self.name, pred.sql_refine
            )
            binds = {"now": self._now, **pred.sql_binds}
            rows = self._batch_cycle(
                lambda: self._fill_predicate_batch_tables(probes, pred.inverse),
                lambda: list(self.conn.execute(statement, binds)),
                empty=[],
            )
        return [(ids[qid], interval_id) for qid, interval_id in rows]

    def join_count(
        self, probes: Sequence[IntervalRecord], *, predicate=None
    ) -> int:
        """Size of :meth:`join_pairs`, aggregated by the engine.

        Identical fill cycle and statement, wrapped in ``COUNT(*)`` --
        the pair list never leaves sqlite.
        """
        pred = resolve_join_predicate(predicate)
        if not probes:
            return 0
        if pred is None:
            return self._batch_cycle(
                lambda: self._fill_batch_tables([(l, u) for l, u, _ in probes]),
                lambda: self.conn.execute(
                    schema.BATCH_COUNT_SQL.format(name=self.name)
                ).fetchone()[0],
                empty=0,
            )
        statement = schema.predicate_batch_count_sql(self.name, pred.sql_refine)
        binds = {"now": self._now, **pred.sql_binds}
        return self._batch_cycle(
            lambda: self._fill_predicate_batch_tables(probes, pred.inverse),
            lambda: self.conn.execute(statement, binds).fetchone()[0],
            empty=0,
        )

    def explain_join(
        self, probes: Sequence[IntervalRecord], predicate=None
    ) -> list[str]:
        """The engine's query plan for the set-at-a-time join statement."""
        pred = resolve_join_predicate(predicate)
        try:
            if pred is None:
                self._fill_batch_tables([(l, u) for l, u, _ in probes])
                statement = schema.BATCH_INTERSECTION_SQL.format(name=self.name)
                params = {}
            else:
                self._fill_predicate_batch_tables(probes, pred.inverse)
                statement = schema.predicate_batch_intersection_sql(
                    self.name, pred.sql_refine
                )
                params = {"now": self._now, **pred.sql_binds}
            cursor = self.conn.execute("EXPLAIN QUERY PLAN " + statement, params)
            return [row[-1] for row in cursor]
        finally:
            self._clear_batch_tables()

    # ------------------------------------------------------------------
    # predicate queries (WHERE-clause rewrite of Figure 9)
    # ------------------------------------------------------------------
    def _query_relation(self, pred, lower: int, upper: int) -> list[int]:
        """Predicates and families as ONE rewritten Figure 9 statement.

        The transient tables are filled for the predicate's *candidate
        range* and the predicate's defining endpoint formula is appended
        to the WHERE clause of both branches -- the sqlite compilation of
        the shared predicate layer of :mod:`repro.core.predicates`.
        Parameterized query families ride the same statement: their
        extra named binds (``CompiledQuery.sql_binds``, e.g. the
        ``:dmin``/``:dmax`` duration band of ``range_duration``) merge
        into the bind set, so the duration fragment in both branches
        stays one statement with the same two-index plan.
        Reserved Section 4.6 fork rows participate with their
        *effective* bounds: the refinement reads the stored upper
        through :data:`repro.sql.schema.EFFECTIVE_UPPER` (now-relative
        rows against the clock, infinite rows via the ``UPPER_INF``
        sentinel), exactly as the simulated engine materialises them.
        """
        validate_interval(lower, upper)
        floor, ceiling = self._extent_for(pred)
        candidate = pred.candidates(lower, upper, floor, ceiling)
        if candidate is None:
            return []
        clower, cupper = candidate
        left, right = self._transient_rows(clower, cupper)
        if not left and not right:
            return []
        self._write_transient(left, right)
        cursor = self.conn.execute(
            schema.predicate_intersection_sql(self.name, pred.sql_refine),
            {
                "lower": lower,
                "upper": upper,
                "clower": clower,
                "cupper": cupper,
                "now": self._now,
                **pred.sql_binds,
            },
        )
        return [row[0] for row in cursor]

    def _candidate_extent(self) -> tuple[Optional[int], Optional[int]]:
        """``(floor, ceiling)`` for before/after candidate ranges.

        The floor is the smallest stored lower bound (reserved rows
        carry real lowers); the ceiling must cover every coordinate the
        candidate scans have to reach -- the largest finite upper, the
        largest reserved-row lower, and the clock for now-relative
        rows.  Sentinel uppers never enter, so the scan plan's BETWEEN
        fold stays clear of the reserved fork-node values.
        """
        floor, ceiling = self.conn.execute(
            f'SELECT MIN("lower"), '
            f'MAX(CASE WHEN "node" IN ({FORK_INF}, {FORK_NOW}) '
            f'THEN "lower" ELSE "upper" END) FROM {self.name}'
        ).fetchone()
        if self._has_now and ceiling is not None:
            ceiling = max(ceiling, self._now)
        return floor, ceiling

    # ------------------------------------------------------------------
    # planning (Section 5: the cost model registered at the optimizer)
    # ------------------------------------------------------------------
    def cost_model(self, refresh: bool = False):
        """Optimizer statistics over this relation, built lazily and cached.

        A :meth:`~repro.core.costmodel.RITreeCostModel.from_sql_tree`
        model: histograms by SQL aggregation, geometry from sqlite page
        counts.  The cached model goes stale under updates; pass
        ``refresh=True`` to re-run the ANALYZE pass.
        """
        from ..core.costmodel import RITreeCostModel

        if self._cost_model is None:
            self._cost_model = RITreeCostModel.from_sql_tree(self)
        elif refresh:
            self._cost_model.refresh()
        return self._cost_model

    def stored_records(self) -> list[IntervalRecord]:
        """The stored relation as ``(lower, upper, id)`` records.

        Sentinel uppers are materialised as in
        :meth:`repro.core.temporal.TemporalRITree.intersection_records`:
        now-relative rows report the *effective* upper bound (the current
        clock), so an index-free consumer (the planner's sweep dispatch)
        joins the same pair set as the reserved-node scans; infinite rows
        keep the ``UPPER_INF`` sentinel, which behaves as +infinity under
        every overlap test inside the supported data space.
        """
        cursor = self.conn.execute(
            f'SELECT "node", "lower", "upper", "id" FROM {self.name}'
        )
        return [
            (lower, self._now if node == FORK_NOW else upper, interval_id)
            for node, lower, upper, interval_id in cursor
        ]

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def _verify_into(self, report: VerificationReport) -> None:
        """Structural validators for the sqlite backend.

        Checks, in order: sqlite's own ``PRAGMA integrity_check``,
        presence and column order of the Figure 2 covering indexes, the
        persisted parameter dictionary against the in-memory backbone,
        Figure 6 fork-node consistency, the reserved Section 4.6 rows
        against their sentinel uppers and flags, and that no batch fill
        cycle left stray TEMP rows behind.
        """
        super()._verify_into(report)
        report.add_check("sqlite-integrity")
        for (line,) in self.conn.execute("PRAGMA integrity_check"):
            if line != "ok":
                report.add_issue("sqlite-integrity", line)
        report.add_check("figure2-indexes")
        expected_indexes = {
            f"{self.name}_lowerIndex": ["node", "lower", "id"],
            f"{self.name}_upperIndex": ["node", "upper", "id"],
        }
        present = {
            row[1] for row in self.conn.execute(f"PRAGMA index_list({self.name})")
        }
        for index_name, key_columns in expected_indexes.items():
            if index_name not in present:
                report.add_issue(
                    "missing-index",
                    f"covering index {index_name} is absent",
                    {"index": index_name},
                )
                continue
            columns = [
                row[2]
                for row in self.conn.execute(f"PRAGMA index_info({index_name})")
            ]
            if columns != key_columns:
                report.add_issue(
                    "index-columns",
                    f"{index_name} covers {columns}, Figure 2 expects "
                    f"{key_columns}",
                    {"index": index_name},
                )
        report.add_check("params-dictionary")
        stored = dict(
            self.conn.execute(f'SELECT "key", "value" FROM {self.name}_params')
        )
        expected_params = dict(
            zip(_PARAM_KEYS + ("has_infinite", "has_now"), self._param_values())
        )
        for key, value in expected_params.items():
            if stored.get(key) != value:
                report.add_issue(
                    "params-dictionary",
                    f"dictionary stores {key}={stored.get(key)!r}, "
                    f"in-memory value is {value!r}",
                    {"key": key},
                )
        report.add_check("fork-node")
        report.add_check("reserved-rows")
        inf_rows = now_rows = 0
        for node, lower, upper, interval_id in self.conn.execute(
            f'SELECT "node", "lower", "upper", "id" FROM {self.name}'
        ):
            if node == FORK_INF:
                inf_rows += 1
                if upper != UPPER_INF:
                    report.add_issue(
                        "reserved-row-upper",
                        f"row id {interval_id} at FORK_INF stores upper "
                        f"{upper}, expected the UPPER_INF sentinel",
                        {"id": interval_id},
                    )
                continue
            if node == FORK_NOW:
                now_rows += 1
                if upper != UPPER_NOW:
                    report.add_issue(
                        "reserved-row-upper",
                        f"row id {interval_id} at FORK_NOW stores upper "
                        f"{upper}, expected the UPPER_NOW sentinel",
                        {"id": interval_id},
                    )
                if lower > self._now:
                    report.add_issue(
                        "now-row-after-clock",
                        f"now-relative row id {interval_id} starts at "
                        f"{lower}, after now={self._now}",
                        {"id": interval_id},
                    )
                continue
            if self.backbone.is_empty:
                report.add_issue(
                    "missing-offset",
                    f"row id {interval_id} stored but the backbone has "
                    "no offset",
                    {"id": interval_id},
                )
                continue
            try:
                expected = self.backbone.fork_node(lower, upper)
            except ValueError as exc:
                report.add_issue(
                    "fork-node-unreachable",
                    f"row id {interval_id}: {exc}",
                    {"id": interval_id},
                )
                continue
            if node != expected:
                report.add_issue(
                    "fork-node-mismatch",
                    f"row id {interval_id} stored at node {node}, Figure 6 "
                    f"computes {expected} for ({lower}, {upper})",
                    {"id": interval_id, "node": node, "expected": expected},
                )
        if inf_rows and not self._has_infinite:
            report.add_issue(
                "reserved-flag",
                f"{inf_rows} rows at FORK_INF but has_infinite is unset "
                "(queries would miss them)",
            )
        if now_rows and not self._has_now:
            report.add_issue(
                "reserved-flag",
                f"{now_rows} rows at FORK_NOW but has_now is unset "
                "(queries would miss them)",
            )
        report.add_check("batch-tables-empty")
        for table in _BATCH_TABLES:
            count = self.conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            if count:
                report.add_issue(
                    "stray-batch-rows",
                    f"{count} rows left in {table} outside a fill cycle",
                    {"table": table},
                )

    # ------------------------------------------------------------------
    # object-relational wrapping: view + trigger + UDF (Section 5)
    # ------------------------------------------------------------------
    def _register_udf(self) -> None:
        def fork_node(lower: int, upper: int) -> int:
            return self.backbone.register(lower, upper)

        self.conn.create_function(f"ritree_fork_{self.name}", 2, fork_node)

    def create_view(self) -> str:
        """Create an updatable view hiding all index maintenance.

        ``INSERT INTO <name>_iv ("lower", "upper", "id") VALUES (...)``
        then behaves like inserting into a table with a built-in interval
        index: the trigger computes the fork node through the registered
        user-defined function -- "the complete index maintenance therefore
        may be managed by a trigger mechanism" (Section 5).  Call
        :meth:`sync_params` when done inserting to persist the dictionary.
        """
        view = f"{self.name}_iv"
        self.conn.execute(
            f"CREATE VIEW IF NOT EXISTS {view} AS "
            f'SELECT "lower", "upper", "id" FROM {self.name}'
        )
        self.conn.execute(
            f"CREATE TRIGGER IF NOT EXISTS {view}_insert "
            f"INSTEAD OF INSERT ON {view} BEGIN "
            f'INSERT INTO {self.name} ("node", "lower", "upper", "id") '
            f'VALUES (ritree_fork_{self.name}(NEW."lower", NEW."upper"), '
            f'NEW."lower", NEW."upper", NEW."id"); END'
        )
        return view

    def sync_params(self) -> None:
        """Persist the parameter dictionary after view-based inserts."""
        self._save_params()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def interval_count(self) -> int:
        """Number of stored intervals."""
        cursor = self.conn.execute(f"SELECT COUNT(*) FROM {self.name}")
        return cursor.fetchone()[0]

    @property
    def index_entry_count(self) -> int:
        """Two index entries per interval (Figure 12: ``2n``)."""
        return 2 * self.interval_count

    def explain_intersection(self, lower: int, upper: int) -> list[str]:
        """The engine's query plan for Figure 9 (cf. the paper's Figure 10)."""
        left, right = self._transient_rows(lower, upper)
        self._write_transient(left, right)
        cursor = self.conn.execute(
            "EXPLAIN QUERY PLAN " + schema.INTERSECTION_SQL.format(name=self.name),
            {"lower": lower, "upper": upper},
        )
        return [row[-1] for row in cursor]

    def explain_query(self, lower: int, upper: int,
                      predicate="intersects") -> list[str]:
        """The engine's plan for one predicate/family query statement.

        The EXPLAIN twin of :meth:`_query_relation`: the same transient
        fill, the same rewritten Figure 9 statement, the same bind set
        (family binds such as ``range_duration``'s ``:dmin``/``:dmax``
        included), so the reported plan is exactly what the query path
        executes.  An empty candidate range explains nothing and
        returns ``[]``.
        """
        from ..core.predicates import compile_query

        pred = compile_query(predicate)
        if pred.name in ("intersects", "stab"):
            return self.explain_intersection(lower, upper)
        validate_interval(lower, upper)
        floor, ceiling = self._extent_for(pred)
        candidate = pred.candidates(lower, upper, floor, ceiling)
        if candidate is None:
            return []
        clower, cupper = candidate
        left, right = self._transient_rows(clower, cupper)
        self._write_transient(left, right)
        cursor = self.conn.execute(
            "EXPLAIN QUERY PLAN "
            + schema.predicate_intersection_sql(self.name, pred.sql_refine),
            {
                "lower": lower,
                "upper": upper,
                "clower": clower,
                "cupper": cupper,
                "now": self._now,
                **pred.sql_binds,
            },
        )
        return [row[-1] for row in cursor]
