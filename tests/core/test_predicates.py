"""The predicate layer: one definition, three evaluations, one answer.

Every predicate must produce the identical id (or pair) set through

* the pure endpoint formula over raw records (the oracle),
* the simulated engine's scan-plan compilation (``RITree.query`` via
  :mod:`repro.core.topology`),
* the sqlite backend's WHERE-clause rewrite (``SQLRITree.query``),
* the HINT store's partition walk + direct-formula refinement
  (``HintStore.query``),

and -- for joins -- through the sweep and nested-loop strategies.
"""

import pytest

from repro.core import (
    JOIN_PREDICATES,
    PREDICATES,
    HintStore,
    RITree,
    TemporalRITree,
    create_store,
    get_predicate,
)
from repro.core.join import SweepJoin, interval_join
from repro.core.topology import ALLEN_RELATIONS, relate
from repro.methods.windowlist import WindowList
from repro.sql import SQLRITree


def shared_endpoint_records(rng, count=400, points=80, domain=300):
    """Records clustered on few endpoints, so equality relations fire."""
    anchors = [rng.randrange(0, domain) for _ in range(points)]
    records = []
    for i in range(count):
        start = rng.choice(anchors)
        length = rng.choice([1, 2, 5, rng.randrange(1, 60)])
        records.append((start, start + length, i))
    return anchors, records


def every_backend():
    """One empty store per backend; the router's cuts sit inside the
    domain of :func:`shared_endpoint_records`."""
    sharded = create_store("sharded", backend="hint", cuts=[100, 200])
    return [RITree(), TemporalRITree(), SQLRITree(), HintStore(), sharded]


def test_registry_is_complete():
    assert set(PREDICATES) == {"intersects", "stab"} | set(ALLEN_RELATIONS)
    assert set(JOIN_PREDICATES) == {"intersects"} | set(ALLEN_RELATIONS)


#: The pinned inverse table of the tentpole: subject-swap per relation.
EXPECTED_INVERSES = {
    "intersects": "intersects",
    "before": "after",
    "after": "before",
    "meets": "met_by",
    "met_by": "meets",
    "overlaps": "overlapped_by",
    "overlapped_by": "overlaps",
    "during": "contains",
    "contains": "during",
    "starts": "started_by",
    "started_by": "starts",
    "finishes": "finished_by",
    "finished_by": "finishes",
    "equals": "equals",
}


def test_inverse_table_is_pinned_and_involutive():
    for name, inverse_name in EXPECTED_INVERSES.items():
        pred = PREDICATES[name]
        assert pred.inverse_name == inverse_name
        assert pred.inverse is PREDICATES[inverse_name]
        assert pred.inverse.inverse is pred
    with pytest.raises(ValueError, match="no inverse"):
        PREDICATES["stab"].inverse


def test_inverse_identity_exhaustive_on_proper_intervals():
    """p.holds(a, b, c, d) == p.inverse.holds(c, d, a, b), exhaustively.

    Exact for every proper-interval pair over a small domain -- Allen's
    algebra.  Degenerate (point) intervals may break the symmetry at
    shared endpoints, which is why the compiled join plans refine with
    the direct formula; pin one such asymmetry so the caveat stays real.
    """
    domain = range(7)
    for name in JOIN_PREDICATES:
        pred = PREDICATES[name]
        inverse = pred.inverse
        for a in domain:
            for b in domain:
                if a >= b:
                    continue
                for c in domain:
                    for d in domain:
                        if c >= d:
                            continue
                        assert pred.holds(a, b, c, d) == \
                            inverse.holds(c, d, a, b), (name, a, b, c, d)
    # The documented degenerate asymmetry: a point meeting an interval.
    meets, met_by = PREDICATES["meets"], PREDICATES["met_by"]
    assert not meets.holds(5, 5, 5, 9)
    assert met_by.holds(5, 9, 5, 5)


def test_get_predicate_resolves_names_and_objects():
    pred = get_predicate("during")
    assert pred.name == "during"
    assert get_predicate(pred) is pred
    with pytest.raises(ValueError):
        get_predicate("sideways")
    with pytest.raises(ValueError):
        get_predicate(None)


def test_holds_agrees_with_the_relate_partition(rng):
    """On proper intervals the 13 formulas partition exactly as relate()."""
    for _ in range(2000):
        s = rng.randrange(0, 100)
        e = s + rng.randrange(1, 30)
        l = rng.randrange(0, 100)
        u = l + rng.randrange(1, 30)
        relation = relate(s, e, l, u)
        for name in ALLEN_RELATIONS:
            assert PREDICATES[name].holds(s, e, l, u) == (relation == name)


def test_matches_and_filter():
    before = get_predicate("before")
    assert before.matches((0, 5), (6, 10))
    assert not before.matches((0, 6), (6, 10))
    records = [(0, 5, 1), (0, 6, 2), (7, 9, 3)]
    assert before.filter(records, 6, 10) == [1]


@pytest.mark.parametrize("name", sorted(PREDICATES))
def test_backends_match_the_oracle(name, rng):
    anchors, records = shared_endpoint_records(rng)
    backends = every_backend()
    for backend in backends:
        backend.bulk_load(records)
    pred = PREDICATES[name]
    for _ in range(40):
        lower = rng.choice(anchors)
        upper = lower + rng.choice([1, 2, 5, rng.randrange(1, 60)])
        if name == "stab":
            expected = sorted(pred.filter(records, lower, lower))
            for backend in backends:
                assert sorted(backend.query(lower, predicate=name)) == expected
        else:
            expected = sorted(pred.filter(records, lower, upper))
            for backend in backends:
                assert sorted(backend.query(lower, upper, predicate=name)) == expected


def test_query_intersects_delegates_to_intersection(rng):
    _anchors, records = shared_endpoint_records(rng, count=120)
    for store in (RITree(), SQLRITree(), HintStore()):
        store.bulk_load(records)
        assert sorted(store.query(50, 90, predicate="intersects")) == sorted(
            store.intersection(50, 90)
        )
        assert sorted(store.query(70, predicate="stab")) == sorted(store.stab(70))


def test_generic_store_falls_back_to_stored_records(rng):
    """A store without a native compile still answers via enumeration."""
    _anchors, records = shared_endpoint_records(rng, count=100)
    store = WindowList()
    store.bulk_load(records)
    if store.stored_records() is None:
        with pytest.raises(NotImplementedError):
            store.query(10, 80, predicate="during")
    else:
        expected = sorted(PREDICATES["during"].filter(records, 10, 80))
        assert sorted(store.query(10, 80, predicate="during")) == expected
    # intersects/stab always work through the intersection machinery.
    assert sorted(store.query(10, 80, predicate="intersects")) == sorted(
        store.intersection(10, 80)
    )


def test_minimal_store_gets_predicates_for_free(rng):
    """A bare-bones IntervalStore inherits a working predicate compile."""
    from repro.core import IntervalStore

    class ListStore(IntervalStore):
        def __init__(self):
            self.records = []

        def insert(self, lower, upper, interval_id):
            self.records.append((lower, upper, interval_id))

        def delete(self, lower, upper, interval_id):
            self.records.remove((lower, upper, interval_id))

        def intersection(self, lower, upper):
            return [i for s, e, i in self.records if s <= upper and e >= lower]

        def stored_records(self):
            return list(self.records)

        @property
        def interval_count(self):
            return len(self.records)

        @property
        def index_entry_count(self):
            return len(self.records)

    _anchors, records = shared_endpoint_records(rng, count=120)
    store = ListStore()
    store.bulk_load(records)
    reference = RITree()
    reference.bulk_load(records)
    for name in ("before", "during", "meets", "equals"):
        assert sorted(store.query(40, 90, predicate=name)) == sorted(
            reference.query(40, 90, predicate=name)
        )


@pytest.mark.parametrize("name", sorted(JOIN_PREDICATES))
def test_join_strategies_match_the_oracle(name, rng):
    """All FOUR strategies emit the pure-formula pair set per predicate."""
    _anchors, records = shared_endpoint_records(rng, count=260)
    outer = records[:120]
    inner = [(s, e, 10_000 + i) for s, e, i in records[120:]]
    pred = PREDICATES[name]
    expected = sorted(
        (r[2], s[2])
        for r in outer
        for s in inner
        if pred.holds(r[0], r[1], s[0], s[1])
    )
    for strategy in ("sweep", "nested-loop", "index", "auto"):
        got = sorted(interval_join(outer, inner, strategy=strategy, predicate=name))
        assert got == expected, (strategy, name)


@pytest.mark.parametrize("name", sorted(JOIN_PREDICATES))
def test_store_join_hooks_take_predicates(name, rng):
    """join_pairs/join_count accept predicates on every backend."""
    _anchors, records = shared_endpoint_records(rng, count=220)
    inner = records[:140]
    probes = [(s, e, 20_000 + i) for s, e, i in records[140:]]
    pred = PREDICATES[name]
    expected = sorted(
        (r[2], s[2])
        for r in probes
        for s in inner
        if pred.holds(r[0], r[1], s[0], s[1])
    )
    for store in every_backend():
        store.bulk_load(inner)
        assert sorted(store.join_pairs(probes, predicate=name)) == expected
        assert store.join_count(probes, predicate=name) == len(expected)


class _ListStore:
    """Minimal enumerable IntervalStore for default-path tests."""

    def __new__(cls):
        from repro.core import IntervalStore

        class ListStore(IntervalStore):
            def __init__(self):
                self.records = []

            def insert(self, lower, upper, interval_id):
                self.records.append((lower, upper, interval_id))

            def delete(self, lower, upper, interval_id):
                self.records.remove((lower, upper, interval_id))

            def intersection(self, lower, upper):
                return [i for s, e, i in self.records
                        if s <= upper and e >= lower]

            def stored_records(self):
                return list(self.records)

            @property
            def interval_count(self):
                return len(self.records)

            @property
            def index_entry_count(self):
                return len(self.records)

        return ListStore()


def test_generic_store_predicate_join_refines_enumerated_records(rng):
    """The IntervalStore default: enumeration + direct-formula refine.

    Exact also on degenerate (point) intervals, because the enumerable
    branch applies the predicate's direct formula.
    """
    _anchors, records = shared_endpoint_records(rng, count=160)
    inner = records[:100] + [(7, 7, 900), (50, 50, 901)]
    probes = [(s, e, 30_000 + i) for s, e, i in records[100:]]
    probes += [(0, 7, 31_000), (50, 50, 31_001)]
    store = _ListStore()
    store.bulk_load(inner)
    for name in ("before", "during", "meets", "equals", "met_by"):
        pred = PREDICATES[name]
        expected = sorted(
            (r[2], s[2])
            for r in probes
            for s in inner
            if pred.holds(r[0], r[1], s[0], s[1])
        )
        assert sorted(store.join_pairs(probes, predicate=name)) == expected
        assert store.join_count(probes, predicate=name) == len(expected)


@pytest.mark.parametrize(
    "name", ["before", "after", "during", "meets", "equals"]
)
def test_sweep_count_matches_pairs(name, rng):
    _anchors, records = shared_endpoint_records(rng, count=200)
    outer = records[:90]
    inner = [(s, e, 5_000 + i) for s, e, i in records[90:]]
    strategy = SweepJoin(predicate=name)
    assert strategy.count(outer, inner) == len(strategy.pairs(outer, inner))


def test_predicate_joins_run_on_every_strategy():
    """The index strategies take predicates too (inverse through
    join_pairs); only 'stab' is rejected -- it is not a join predicate."""
    outer = [(0, 10, 1)]
    inner = [(20, 30, 2)]
    for strategy in ("sweep", "nested-loop", "index", "auto"):
        assert interval_join(outer, inner, strategy=strategy,
                             predicate="before") == [(1, 2)]
        assert interval_join(outer, inner, strategy=strategy,
                             predicate="during") == []
        with pytest.raises(ValueError, match="stab"):
            interval_join(outer, inner, strategy=strategy,
                          predicate="stab")
    # The default predicate is the intersection join on every strategy.
    assert interval_join(outer, inner, strategy="index", predicate="intersects") == []
