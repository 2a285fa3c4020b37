"""Store-conformance suite: one contract, every backend.

Every :class:`~repro.core.access.IntervalStore` implementation must be
interchangeable behind the shared API: identical intersection results,
identical counts, identical batch answers, identical join pair sets --
whatever engine the intervals live on.  The suite is parameterized over
the simulated-engine RI-tree, the sqlite3-backed RI-tree, the
main-memory HINT store, and the domain-sharding router (HINT shards
behind replication/dedup), and checks each against the brute-force
oracle.  Construction goes through :func:`repro.core.stores.
create_store`, so adding a backend means registering it and adding one
name (plus options) here.
"""

from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    HintStore,
    IntervalStore,
    RITree,
    ShardedStore,
    TemporalRITree,
    create_store,
)
from repro.core.costmodel import JoinEstimate
from repro.core.predicates import (
    DURATION_UNBOUNDED,
    compile_query,
    range_duration,
)
from repro.core.temporal import UPPER_INF, UPPER_NOW
from repro.engine import Database, FaultInjector, SimulatedCrash
from repro.methods.memory import BruteForceIntervals
from repro.workloads import join_workload
from repro.workloads.genomic import chromosome_cuts, duration_band, genomic

from ..conftest import make_intervals

STORE_FACTORIES = {
    "ritree": partial(create_store, "ritree"),
    "sql-ritree": partial(create_store, "sql-ritree"),
    "hint": partial(create_store, "hint"),
    # The router must be a conforming store in its own right; cuts sit
    # inside the suite's data domain so records and queries cross them.
    "sharded-hint": partial(
        create_store, "sharded", backend="hint", cuts=[16_000, 40_000]
    ),
}

STORE_NAMES = sorted(STORE_FACTORIES)


@pytest.fixture(params=STORE_NAMES)
def store_factory(request):
    return STORE_FACTORIES[request.param]


@pytest.fixture
def store(store_factory):
    return store_factory()


def queries_for(rng, count=60, domain=66_000, span=3000):
    out = []
    for _ in range(count):
        lower = rng.randrange(0, domain)
        out.append((lower, lower + rng.randrange(0, span)))
    return out


def test_both_backends_implement_the_protocol(store):
    assert isinstance(store, IntervalStore)


def test_protocol_requires_core_methods():
    with pytest.raises(TypeError):
        IntervalStore()


def test_insert_and_intersection_match_oracle(store, rng):
    records = make_intervals(rng, 400, domain=60_000, mean_length=500)
    oracle = BruteForceIntervals(records)
    store.extend(records)
    assert store.interval_count == len(records)
    for lower, upper in queries_for(rng):
        assert sorted(store.intersection(lower, upper)) == sorted(
            oracle.intersection(lower, upper)
        )


def test_bulk_load_equals_inserts(store, store_factory, rng):
    records = make_intervals(rng, 300, domain=40_000, mean_length=400)
    loaded = store_factory()
    loaded.bulk_load(records)
    store.extend(records)
    for lower, upper in queries_for(rng, count=30, domain=44_000):
        assert sorted(loaded.intersection(lower, upper)) == sorted(
            store.intersection(lower, upper)
        )


# ----------------------------------------------------------------------
# append_batch: the streaming fast path
# ----------------------------------------------------------------------
def test_append_batch_equals_insert_loop(store, store_factory, rng):
    records = make_intervals(rng, 240, domain=50_000, mean_length=400)
    looped = store_factory()
    for start in range(0, len(records), 40):
        batch = records[start : start + 40]
        store.append_batch(batch)
        for row in batch:
            looped.insert(*row)
        report = store.verify()
        assert report.ok, [i.as_dict() for i in report.issues]
    assert store.interval_count == looped.interval_count
    assert sorted(store.stored_records()) == sorted(records)
    for lower, upper in queries_for(rng, count=30, domain=55_000):
        assert sorted(store.intersection(lower, upper)) == sorted(
            looped.intersection(lower, upper)
        )


def test_append_batch_empty_is_noop(store):
    store.append_batch([])
    assert store.interval_count == 0
    assert store.verify().ok


def test_append_batch_temporal_rows_and_closes(store):
    if not hasattr(store, "insert_until_now"):
        pytest.skip("backend has no temporal entry points")
    store.advance_to(100)
    store.append_batch([(5, 50, 1), (10, UPPER_NOW, 2), (20, UPPER_INF, 3)])
    report = store.verify()
    assert report.ok, [i.as_dict() for i in report.issues]
    assert store.interval_count == 3
    # The now-relative row reads as [10, 100], the infinite row never ends.
    assert sorted(store.intersection(60, 200)) == [2, 3]
    store.advance_to(300)
    if not hasattr(store, "close_now_interval"):
        # sqlite backend: now-relative appends, no closure op yet.
        assert sorted(store.stab(240)) == [2, 3]
        return
    store.close_now_interval(10, 2, 250)
    report = store.verify()
    assert report.ok, [i.as_dict() for i in report.issues]
    assert sorted(store.stab(240)) == [2, 3]
    assert sorted(store.intersection(260, 400)) == [3]


def test_append_batch_temporal_equals_explicit_inserts(store, store_factory):
    if not hasattr(store, "insert_until_now"):
        pytest.skip("backend has no temporal entry points")
    explicit = store_factory()
    for target in (store, explicit):
        target.advance_to(200)
    rows = [(i * 13 % 900, i * 13 % 900 + 40 + i, i) for i in range(40)]
    open_rows = [(i * 7 % 200, 100 + i) for i in range(6)]
    inf_rows = [(i * 11 % 900, 200 + i) for i in range(4)]
    store.append_batch(
        rows
        + [(lower, UPPER_NOW, interval_id) for lower, interval_id in open_rows]
        + [(lower, UPPER_INF, interval_id) for lower, interval_id in inf_rows]
    )
    explicit.bulk_load(rows)
    for lower, interval_id in open_rows:
        explicit.insert_until_now(lower, interval_id)
    for lower, interval_id in inf_rows:
        explicit.insert_infinite(lower, interval_id)
    assert store.verify().ok
    assert store.interval_count == explicit.interval_count
    for lower in range(0, 1200, 150):
        assert sorted(store.intersection(lower, lower + 120)) == sorted(
            explicit.intersection(lower, lower + 120)
        )
    assert sorted(store.stored_records()) == sorted(explicit.stored_records())


def test_delete_removes_and_raises(store):
    store.insert(1, 10, 1)
    store.insert(1, 10, 2)
    store.delete(1, 10, 1)
    assert store.intersection(5, 5) == [2]
    with pytest.raises(KeyError):
        store.delete(1, 10, 1)
    with pytest.raises(KeyError):
        store.delete(99, 100, 5)


def test_count_and_many_are_consistent(store, rng):
    records = make_intervals(rng, 350, domain=50_000, mean_length=600)
    store.bulk_load(records)
    queries = queries_for(rng, count=40, domain=55_000)
    batched = store.intersection_many(queries)
    assert len(batched) == len(queries)
    for (lower, upper), ids in zip(queries, batched):
        single = store.intersection(lower, upper)
        assert sorted(ids) == sorted(single)
        assert store.intersection_count(lower, upper) == len(single)


def test_stab_is_degenerate_intersection(store, rng):
    records = make_intervals(rng, 200, domain=20_000, mean_length=300)
    store.bulk_load(records)
    for _ in range(25):
        point = rng.randrange(0, 22_000)
        assert sorted(store.stab(point)) == sorted(
            store.intersection(point, point)
        )


def test_join_pairs_and_count_match_oracle(store, rng):
    workload = join_workload(
        outer_n=80, inner_n=500, outer_d=3000, inner_d=600, seed=9
    )
    outer, inner = workload.outer.records, workload.inner.records
    store.bulk_load(inner)
    expected = sorted(
        (r_id, s_id)
        for r_lower, r_upper, r_id in outer
        for s_lower, s_upper, s_id in inner
        if r_lower <= s_upper and s_lower <= r_upper
    )
    pairs = store.join_pairs(outer)
    assert sorted(pairs) == expected
    assert len(pairs) == len(set(pairs))
    assert store.join_count(outer) == len(expected)


def test_stored_records_roundtrip(store, rng):
    records = make_intervals(rng, 150, domain=10_000, mean_length=200)
    store.bulk_load(records)
    assert sorted(store.stored_records()) == sorted(records)


def test_accounting(store, rng):
    records = make_intervals(rng, 120, domain=8_000, mean_length=150)
    store.bulk_load(records)
    assert store.interval_count == 120
    if isinstance(store, (HintStore, ShardedStore)):
        # HINT replicates per level instead of double-indexing (and the
        # router replicates across cuts on top): the entry count depends
        # on the partition geometry, but redundancy must still be the
        # entries-per-interval ratio.
        assert store.index_entry_count >= 120
        assert store.redundancy == pytest.approx(
            store.index_entry_count / 120
        )
    else:
        assert store.index_entry_count == 240
        assert store.redundancy == pytest.approx(2.0)


def test_empty_store(store):
    assert store.intersection(0, 100) == []
    assert store.intersection_count(0, 100) == 0
    assert store.intersection_many([(0, 10), (5, 20)]) == [[], []]
    assert store.join_pairs([(0, 10, 1)]) == []
    assert store.join_count([(0, 10, 1)]) == 0
    for name in ("before", "after"):
        assert store.query(0, 10, predicate=name) == []
        assert store.join_pairs([(0, 10, 1)], predicate=name) == []
        assert store.join_count([(0, 10, 1)], predicate=name) == 0
    assert store.interval_count == 0
    assert store.redundancy == 0.0


def test_cost_model_plans_on_every_backend(store, rng):
    records = make_intervals(rng, 600, domain=50_000, mean_length=400)
    store.bulk_load(records)
    model = store.cost_model()
    assert model is not None
    probes = make_intervals(rng, 50, domain=50_000, mean_length=800)
    estimate = model.estimate_join(probes)
    assert isinstance(estimate, JoinEstimate)
    assert estimate.choice in ("index-nested-loop", "sweep")
    assert estimate.inner_n == len(records)


record = st.tuples(
    st.integers(0, 2**20 - 1), st.integers(0, 5000), st.integers(0, 10_000)
).map(lambda t: (t[0], min(t[0] + t[1], 2**20 - 1), t[2]))
query = st.tuples(st.integers(0, 2**20 - 1), st.integers(0, 10_000)).map(
    lambda t: (t[0], t[0] + t[1])
)


def unique_ids(records):
    seen = set()
    out = []
    for lower, upper, interval_id in records:
        if interval_id not in seen:
            seen.add(interval_id)
            out.append((lower, upper, interval_id))
    return out


@pytest.mark.parametrize("store_name", STORE_NAMES)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(record, max_size=60), st.lists(query, max_size=5))
def test_property_store_matches_oracle(store_name, records, queries):
    records = unique_ids(records)
    store = STORE_FACTORIES[store_name]()
    store.bulk_load(records)
    oracle = BruteForceIntervals(records)
    batched = store.intersection_many(queries)
    for (lower, upper), ids in zip(queries, batched):
        expected = sorted(oracle.intersection(lower, upper))
        assert sorted(store.intersection(lower, upper)) == expected
        assert sorted(ids) == expected
        assert store.intersection_count(lower, upper) == len(expected)


# ----------------------------------------------------------------------
# verify() after every mutation
# ----------------------------------------------------------------------
def test_verify_after_every_mutation(store, rng):
    assert store.verify().ok
    records = make_intervals(rng, 60, domain=10_000, mean_length=200)
    store.bulk_load(records[:30])
    assert store.verify().ok
    store.extend(records[30:40])
    assert store.verify().ok
    for lower, upper, interval_id in records[40:]:
        store.insert(lower, upper, interval_id)
        report = store.verify()
        assert report.ok, [i.as_dict() for i in report.issues]
    for lower, upper, interval_id in records[:10]:
        store.delete(lower, upper, interval_id)
        report = store.verify()
        assert report.ok, [i.as_dict() for i in report.issues]


def test_verify_after_every_temporal_mutation():
    tree = TemporalRITree(now=100)
    tree.bulk_load([(1, 5, 1), (3, 9, 2)])
    assert tree.verify().ok
    tree.insert_infinite(40, 3)
    assert tree.verify().ok
    tree.insert_until_now(10, 4)
    assert tree.verify().ok
    tree.advance_to(500)
    assert tree.verify().ok
    tree.close_now_interval(10, 4, 450)
    assert tree.verify().ok
    tree.delete_infinite(40, 3)
    report = tree.verify()
    assert report.ok, [i.as_dict() for i in report.issues]


# ----------------------------------------------------------------------
# crash at every write point, then recover, verify and match the oracle
# ----------------------------------------------------------------------
CRASH_ROWS = [(i * 17 % 400, i * 17 % 400 + 25, i) for i in range(30)]
CRASH_EXTEND = [(500 + 10 * i, 540 + 10 * i, 100 + i) for i in range(4)]
CRASH_QUERIES = [(0, 60), (200, 260), (420, 455), (520, 540), (0, 1000)]
CRASH_PROBES = [(0, 50, 1), (100, 400, 2), (430, 600, 3)]


def _ritree_steps(tree):
    return [
        lambda: tree.bulk_load(CRASH_ROWS),
        lambda: tree.extend(CRASH_EXTEND),
        lambda: tree.insert(3, 900, 200),
        lambda: tree.delete(*CRASH_ROWS[0]),
    ]


def _temporal_steps(tree):
    return [
        lambda: tree.bulk_load(CRASH_ROWS),
        lambda: tree.insert_infinite(40, 300),
        lambda: tree.insert_until_now(10, 301),
        lambda: tree.advance_to(500),
        lambda: tree.delete(*CRASH_ROWS[1]),
        lambda: tree.close_now_interval(10, 301, 450),
    ]


CRASH_CASES = {
    "ritree": (lambda db: RITree(db), RITree, _ritree_steps),
    "temporal": (
        lambda db: TemporalRITree(db, now=100),
        TemporalRITree,
        _temporal_steps,
    ),
}


def _oracle_parity(recovered):
    oracle = BruteForceIntervals(recovered.stored_records())
    for lower, upper in CRASH_QUERIES:
        assert sorted(recovered.intersection(lower, upper)) == sorted(
            oracle.intersection(lower, upper)
        )
    expected_pairs = sorted(
        (probe_id, interval_id)
        for p_lower, p_upper, probe_id in CRASH_PROBES
        for lower, upper, interval_id in recovered.stored_records()
        if p_lower <= upper and lower <= p_upper
    )
    assert sorted(recovered.join_pairs(CRASH_PROBES)) == expected_pairs


@pytest.mark.parametrize("kind", sorted(CRASH_CASES))
def test_crash_at_every_write_point_recovers_consistent(kind):
    factory, store_cls, steps_for = CRASH_CASES[kind]

    # Passive run: count the crash points and snapshot the state after
    # every atomic step -- the only states recovery may land on.
    passive = FaultInjector()
    db = Database(wal=True, injector=passive)
    tree = factory(db)
    allowed_states = [sorted(tree.stored_records())]
    for step in steps_for(tree):
        step()
        allowed_states.append(sorted(tree.stored_records()))
    db.flush()
    points = passive.write_points
    assert points > 0

    for n in range(1, points + 1):
        injector = FaultInjector().crash_at_write_point(n)
        db = Database(wal=True, injector=injector)
        crashed = False
        try:
            tree = factory(db)
            for step in steps_for(tree):
                step()
            db.flush()
        except SimulatedCrash:
            crashed = True
        recovered_db = db.recover()
        if not recovered_db.has_table("Intervals"):
            # The crash hit the DDL batch: nothing durable yet.
            assert crashed, f"point {n}: no table but no crash either"
            continue
        recovered = store_cls.attach(recovered_db)
        report = recovered.verify()
        assert report.ok, (n, [i.as_dict() for i in report.issues])
        state = sorted(recovered.stored_records())
        assert state in allowed_states, f"point {n}: not a committed prefix"
        if not crashed:
            assert state == allowed_states[-1]
        _oracle_parity(recovered)


@pytest.mark.parametrize("store_name", STORE_NAMES)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(record, max_size=50), st.lists(record, max_size=25))
def test_property_join_matches_oracle(store_name, inner, outer):
    inner = unique_ids(inner)
    outer = unique_ids(outer)
    store = STORE_FACTORIES[store_name]()
    store.bulk_load(inner)
    expected = sorted(
        (r_id, s_id)
        for r_lower, r_upper, r_id in outer
        for s_lower, s_upper, s_id in inner
        if r_lower <= s_upper and s_lower <= r_upper
    )
    assert sorted(store.join_pairs(outer)) == expected
    assert store.join_count(outer) == len(expected)


# ----------------------------------------------------------------------
# parameterized query families: the range-duration leg
# ----------------------------------------------------------------------
DURATION_BANDS = [(0, 150), (100, 800), (400, None), (0, None)]


def _duration_oracle(records, lower, upper, dmin, dmax):
    top = DURATION_UNBOUNDED if dmax is None else dmax
    return sorted(
        interval_id
        for s, e, interval_id in records
        if s <= upper and e >= lower and dmin <= e - s <= top
    )


def test_range_duration_matches_oracle(store, rng):
    records = make_intervals(rng, 400, domain=60_000, mean_length=500)
    store.bulk_load(records)
    for dmin, dmax in DURATION_BANDS:
        pred = range_duration(dmin, dmax)
        for lower, upper in queries_for(rng, count=12):
            expected = _duration_oracle(records, lower, upper, dmin, dmax)
            assert sorted(store.query(lower, upper, predicate=pred)) == expected


def test_range_duration_by_name_with_params(store, rng):
    records = make_intervals(rng, 200, domain=30_000, mean_length=400)
    store.bulk_load(records)
    pred = compile_query("range_duration", {"dmin": 50, "dmax": 600})
    for lower, upper in queries_for(rng, count=10, domain=33_000):
        assert sorted(store.query(lower, upper, predicate=pred)) == (
            _duration_oracle(records, lower, upper, 50, 600)
        )


def test_range_duration_temporal_sentinel_rows(store):
    if not hasattr(store, "insert_until_now"):
        pytest.skip("backend has no temporal entry points")
    store.advance_to(1000)
    store.bulk_load([(10, 110, 1), (50, 900, 2)])
    store.insert_until_now(400, 3)  # effective [400, 1000], duration 600
    store.insert_infinite(700, 4)  # duration stays the UPPER_INF sentinel
    # Effective durations: 100, 850, 600, "infinite".
    assert sorted(store.query(0, 2000, predicate=range_duration(0, 200))) == [1]
    assert sorted(store.query(0, 2000, predicate=range_duration(500, 900))) == [
        2,
        3,
    ]
    # Only the unbounded band admits the still-open row.
    assert sorted(store.query(0, 2000, predicate=range_duration(500))) == [2, 3, 4]
    # The clock moves: the now-relative duration grows with it.
    store.advance_to(1600)
    assert sorted(store.query(0, 2000, predicate=range_duration(900, 2000))) == [3]


def test_range_duration_verify_after_mutation(store, rng):
    records = make_intervals(rng, 80, domain=10_000, mean_length=300)
    store.bulk_load(records)
    pred = range_duration(100, 900)
    before = sorted(store.query(0, 11_000, predicate=pred))
    assert before == _duration_oracle(records, 0, 11_000, 100, 900)
    store.insert(2_000, 2_500, 999)
    report = store.verify()
    assert report.ok, [i.as_dict() for i in report.issues]
    after = sorted(store.query(0, 11_000, predicate=pred))
    assert after == sorted(before + [999])
    store.delete(2_000, 2_500, 999)
    report = store.verify()
    assert report.ok, [i.as_dict() for i in report.issues]
    assert sorted(store.query(0, 11_000, predicate=pred)) == before


@pytest.mark.parametrize("shard_count", [1, 2, 4])
def test_range_duration_sharded_matches_unsharded(shard_count):
    workload = genomic(500, seed=7)
    records = workload.records
    flat = create_store("hint")
    flat.bulk_load(records)
    sharded = create_store(
        "sharded", backend="hint", cuts=chromosome_cuts(shard_count)
    )
    sharded.bulk_load(records)
    dmin, dmax = duration_band(records, 0.2, 0.8)
    pred = range_duration(dmin, dmax)
    for lower, upper in [(0, 2**20 - 1), (100_000, 400_000), (900_000, 950_000)]:
        assert sorted(sharded.query(lower, upper, predicate=pred)) == sorted(
            flat.query(lower, upper, predicate=pred)
        )


@pytest.mark.parametrize("store_name", STORE_NAMES)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(record, max_size=50),
    st.lists(query, max_size=4),
    st.integers(0, 4000),
    st.integers(0, 4000),
)
def test_property_range_duration_matches_oracle(
    store_name, records, queries, dmin, extent
):
    records = unique_ids(records)
    store = STORE_FACTORIES[store_name]()
    store.bulk_load(records)
    pred = range_duration(dmin, dmin + extent)
    for lower, upper in queries:
        expected = _duration_oracle(records, lower, upper, dmin, dmin + extent)
        assert sorted(store.query(lower, upper, predicate=pred)) == expected
