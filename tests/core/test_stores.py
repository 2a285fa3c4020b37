"""The store factory/registry and the keyword-only store signatures."""

from contextlib import contextmanager

import pytest

from repro.core import (
    HintStore,
    IntervalStore,
    RITree,
    ShardedStore,
    TemporalRITree,
    available_backends,
    create_store,
)
from repro.core.join import interval_join
from repro.core.stores import backend_description, register_backend
from repro.bench.harness import run_join_batch

from ..service.test_service import remote


def test_registry_lists_every_builtin_backend():
    names = available_backends()
    for expected in ("hint", "ritree", "sharded", "sql-ritree",
                     "temporal-ritree"):
        assert expected in names


@pytest.mark.parametrize("name, cls", [
    ("ritree", RITree),
    ("temporal-ritree", TemporalRITree),
    ("hint", HintStore),
])
def test_create_store_builds_the_registered_class(name, cls):
    store = create_store(name)
    assert isinstance(store, cls)
    assert isinstance(store, IntervalStore)


def test_create_store_normalises_names():
    assert type(create_store("SQL_RITREE")) is type(create_store("sql-ritree"))
    assert isinstance(create_store("  Hint "), HintStore)


def test_create_store_forwards_options():
    store = create_store("hint", now=25)
    assert store.now == 25
    sharded = create_store("sharded", backend="hint", cuts=[100])
    assert isinstance(sharded, ShardedStore)
    assert sharded.shard_count == 2
    assert all(isinstance(s, HintStore) for s in sharded.shards)


def test_unknown_backend_is_a_value_error():
    with pytest.raises(ValueError, match="unknown backend"):
        create_store("btree")
    with pytest.raises(ValueError, match="non-empty string"):
        create_store("   ")


def test_register_backend_guards_and_replace():
    marker = object()
    register_backend("stores-test-dummy", lambda: marker,
                     description="a test dummy")
    try:
        assert create_store("stores_test_dummy") is marker
        assert backend_description("stores-test-dummy") == "a test dummy"
        with pytest.raises(ValueError, match="already registered"):
            register_backend("stores-test-dummy", lambda: None)
        other = object()
        register_backend("stores-test-dummy", lambda: other, replace=True)
        assert create_store("stores-test-dummy") is other
    finally:
        from repro.core.stores import _REGISTRY

        _REGISTRY.pop("stores-test-dummy", None)


def test_sql_backends_get_fresh_connections_per_store():
    first = create_store("sql-ritree")
    second = create_store("sql-ritree")
    first.insert(1, 5, interval_id=1)
    assert second.intersection(0, 10) == []


# ----------------------------------------------------------------------
# the harness consumes backends by name
# ----------------------------------------------------------------------
def make_records():
    return [(i * 10, i * 10 + 25, i) for i in range(1, 40)]


def test_run_join_batch_accepts_a_backend_name():
    probes = [(5, 60, 1), (200, 260, 2)]
    by_name = run_join_batch("hint", make_records(), probes)
    by_store = run_join_batch(create_store("hint"), make_records(), probes)
    assert by_name.pairs == by_store.pairs


def test_run_join_batch_forwards_store_opts():
    probes = [(5, 60, 1)]
    result = run_join_batch("sharded", make_records(), probes,
                            store_opts={"backend": "hint", "cuts": [180]})
    assert result.pairs == run_join_batch("hint", make_records(),
                                          probes).pairs


# ----------------------------------------------------------------------
# keyword-only signatures: the pre-v8 positional spellings are gone
# ----------------------------------------------------------------------
@contextmanager
def loaded_store(name):
    """A store holding ``make_records()``; "remote" serves a HINT store."""
    store = create_store("hint" if name == "remote" else name)
    store.bulk_load(make_records())
    if name != "remote":
        yield store
        return
    with remote(store) as proxy:
        yield proxy


@pytest.mark.parametrize("name", available_backends() + ["remote"])
def test_removed_positional_spellings_raise_type_error(name):
    probes = [(100, 200, 7)]
    with loaded_store(name) as store:
        assert store.query(100, 200, predicate="during")
        with pytest.raises(TypeError):
            store.query("during", 100, 200)
        with pytest.raises(TypeError):
            store.query("during", 100)
        with pytest.raises(TypeError):
            store.join_pairs(probes, "overlaps")
        with pytest.raises(TypeError):
            store.join_count(probes, "overlaps")
        with pytest.raises(TypeError):
            interval_join(make_records(), probes, "index")
        if hasattr(store, "advance_to"):
            with pytest.raises(TypeError):
                store.advance_to(timestamp=40)
            store.advance_to(now=40)
