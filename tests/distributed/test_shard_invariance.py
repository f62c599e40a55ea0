"""Shard-count invariance of ``sqlite`` placed on a fleet.

The acceptance property: coverage results are **byte-identical** for every
``shards`` count, and identical to the single-process backends — sharding
only moves work, never answers.
"""

from __future__ import annotations

import pickle

import pytest

from repro.distributed import ShardedSQLiteBackend
from repro.learning.coverage import (
    BatchCoverageEngine,
    QueryCoverageEngine,
    SubsumptionCoverageEngine,
)


def result_bytes(batch_lists):
    """Canonical serialized form of a batch result, for byte-level equality."""
    return pickle.dumps(
        [tuple(e.values for e in per_clause) for per_clause in batch_lists]
    )


@pytest.fixture(scope="module")
def workload(small_uwcse):
    """Reference results plus one sharded instance per shard count."""
    _bundle, instance, examples, clauses = small_uwcse
    reference = {
        "query": result_bytes(
            BatchCoverageEngine(
                QueryCoverageEngine(instance)
            ).covered_examples_batch(clauses, examples)
        ),
        "subsumption": result_bytes(
            BatchCoverageEngine(
                SubsumptionCoverageEngine(instance)
            ).covered_examples_batch(clauses, examples)
        ),
    }
    sharded = {}
    for shards in (1, 2, 4):
        sharded[shards] = instance.with_backend(ShardedSQLiteBackend(shards=shards))
    yield reference, sharded, examples, clauses
    for converted in sharded.values():
        converted.backend.close()


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_query_coverage_is_shard_invariant(workload, shards):
    reference, sharded, examples, clauses = workload
    engine = BatchCoverageEngine(QueryCoverageEngine(sharded[shards]))
    got = engine.covered_examples_batch(clauses, examples)
    assert result_bytes(got) == reference["query"]


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_subsumption_coverage_is_shard_invariant(workload, shards):
    reference, sharded, examples, clauses = workload
    engine = BatchCoverageEngine(SubsumptionCoverageEngine(sharded[shards]))
    got = engine.covered_examples_batch(clauses, examples)
    assert result_bytes(got) == reference["subsumption"]


def test_a_fleet_built_from_a_fleet_gives_identical_results(workload):
    reference, sharded, examples, clauses = workload
    instance = sharded[2].with_backend(ShardedSQLiteBackend(shards=2))
    try:
        got = BatchCoverageEngine(
            SubsumptionCoverageEngine(instance)
        ).covered_examples_batch(clauses, examples)
    finally:
        instance.backend.close()
    assert result_bytes(got) == reference["subsumption"]


def test_sharded_backend_reports_sqlite_storage():
    """Placement is the backend's type, not a registry name: a fleet-placed
    backend reports its storage, so ``DatabaseInstance.copy()`` resolves."""
    from repro.database.backend import backend_names

    assert backend_names() == ("memory", "sqlite")
    backend = ShardedSQLiteBackend(shards=1)
    assert backend.name == "sqlite"
    assert backend.supports_compiled_queries
    backend.close()


def test_fleet_payload_is_schema_and_rows():
    """A worker always rebuilds on ``sqlite``: the payload carries only the
    schema and the rows."""
    from repro.database import RelationSchema, Schema
    from repro.database.instance import DatabaseInstance

    schema = Schema([RelationSchema("r", ["a", "b"])], name="payload")
    instance = DatabaseInstance(schema, backend=ShardedSQLiteBackend(shards=1))
    instance.add_tuples("r", [(1, 2), (3, 4)])
    try:
        payload = instance.backend._payload()
        assert payload.__slots__ == ("schema", "rows")
        assert payload.schema is schema
        assert sorted(payload.rows["r"]) == [(1, 2), (3, 4)]
    finally:
        instance.backend.close()


def test_dropped_backend_releases_its_workers(small_uwcse):
    """A garbage-collected sharded instance must not leak its fleet: the
    finalizer has to be able to fire (no strong service->backend cycle)."""
    import gc
    import weakref

    _bundle, instance, examples, clauses = small_uwcse
    converted = instance.with_backend(ShardedSQLiteBackend(shards=1))
    BatchCoverageEngine(QueryCoverageEngine(converted)).covered_examples_batch(
        clauses[:1], examples
    )
    service = converted.backend.coverage_service()
    assert service._started
    backend_ref = weakref.ref(converted.backend)
    del converted
    gc.collect()
    assert backend_ref() is None, "service callbacks pinned the backend"
    assert not service._started, "finalizer did not close the service"
    assert service.worker_pids() == []
