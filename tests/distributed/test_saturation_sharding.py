"""Sharded saturation materialization: parity, store contents, diff reloads.

The acceptance properties of the ``materialize_saturations`` request:

* bottom clauses built by the worker fleet are byte-identical to in-process
  construction for every shard count;
* a ``SaturationStore`` fed through the sharded path holds identical
  contents to one fed in-process;
* instance mutations reach live workers as **incremental diffs** when the
  diff is smaller than the payload, with a full-reload fallback otherwise.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.castor.bottom_clause import CastorBottomClauseBuilder, CastorBottomClauseConfig
from repro.database.sqlite_backend import SaturationStore
from repro.distributed import ShardedSQLiteBackend
from repro.learning.bottom_clause import BatchSaturationEngine, BottomClauseBuilder, BottomClauseConfig
from repro.learning.coverage import SubsumptionCoverageEngine


def clause_strings(clauses):
    return [str(clause) for clause in clauses]


@pytest.fixture
def sharded_instance(small_uwcse):
    _bundle, instance, _examples, _clauses = small_uwcse
    converted = instance.with_backend(ShardedSQLiteBackend(shards=2))
    yield converted
    converted.backend.close()


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_saturation_matches_in_process(small_uwcse, shards):
    bundle, instance, _examples, _clauses = small_uwcse
    examples = bundle.examples.positives
    config = CastorBottomClauseConfig()
    reference = clause_strings(
        CastorBottomClauseBuilder(instance, config=config).build_ground_many(examples)
    )
    converted = instance.with_backend(ShardedSQLiteBackend(shards=shards))
    try:
        builder = CastorBottomClauseBuilder(converted, config=config)
        engine = BatchSaturationEngine(builder)
        assert clause_strings(engine.build_ground_batch(examples)) == reference
        assert engine.sharded_batches == 1
        # Variablized bottom clauses ride the same request.
        variablized = clause_strings(engine.build_batch(examples, variablize=True))
        assert variablized == clause_strings(
            CastorBottomClauseBuilder(instance, config=config).build_many(examples)
        )
    finally:
        converted.backend.close()


def test_killed_worker_is_respawned_mid_materialization(small_uwcse):
    """Saturation batches share the respawn-once policy: a shard whose
    worker died is rebuilt from the payload and its slice retried."""
    bundle, instance, _examples, _clauses = small_uwcse
    examples = bundle.examples.positives
    config = CastorBottomClauseConfig()
    reference = clause_strings(
        CastorBottomClauseBuilder(instance, config=config).build_ground_many(examples)
    )
    converted = instance.with_backend(ShardedSQLiteBackend(shards=2))
    try:
        engine = BatchSaturationEngine(
            CastorBottomClauseBuilder(converted, config=config)
        )
        assert clause_strings(engine.build_ground_batch(examples)) == reference
        service = converted.backend.coverage_service()
        victim = service._handles[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.process.join(timeout=5)
        assert not victim.process.is_alive()
        assert clause_strings(engine.build_ground_batch(examples)) == reference
        assert victim.respawns == 1
    finally:
        converted.backend.close()


def test_sharded_saturation_store_contents_identical(small_uwcse, sharded_instance):
    bundle, instance, _examples, _clauses = small_uwcse
    examples = bundle.examples.all_examples()
    config = BottomClauseConfig(max_depth=2)

    local_store = SaturationStore()
    local = SubsumptionCoverageEngine(
        instance, config, saturation_store=local_store, compiled=True
    )
    local.materialize(examples)

    sharded_store = SaturationStore()
    sharded = SubsumptionCoverageEngine(
        sharded_instance, config, saturation_store=sharded_store, compiled=True
    )
    sharded.materialize(examples)

    assert sharded.saturator.sharded_batches >= 1
    assert sharded_store.contents() == local_store.contents()
    assert len(sharded_store) == len(local_store)


def test_unknown_saturation_spec_kind_rejected_at_coordinator(sharded_instance):
    service = sharded_instance.backend.coverage_service()
    with pytest.raises(ValueError, match="no-such-builder"):
        service.materialize_saturations(("no-such-builder",), [object()])


def test_mutation_ships_as_incremental_diff(small_uwcse, sharded_instance):
    bundle, _instance, _examples, _clauses = small_uwcse
    examples = bundle.examples.positives
    builder = BottomClauseBuilder(sharded_instance, BottomClauseConfig(max_depth=2))
    engine = BatchSaturationEngine(builder)
    engine.build_ground_batch(examples)

    service = sharded_instance.backend.coverage_service()
    baseline_full = service.reloads_full
    # Join a fresh tuple onto every example's seed constant so the change is
    # visible in the rebuilt saturations.
    target = examples[0]
    sharded_instance.add_tuple(
        "publication", ("pub_diff_reload", target.values[0])
    )
    rebuilt = engine.build_ground_batch(examples)
    assert service.reloads_incremental == 1
    assert service.reloads_full == baseline_full

    reference_builder = BottomClauseBuilder(
        sharded_instance.with_backend("sqlite"), BottomClauseConfig(max_depth=2)
    )
    assert clause_strings(rebuilt) == clause_strings(
        reference_builder.build_ground_many(examples)
    )
    assert any("pub_diff_reload" in clause for clause in clause_strings(rebuilt))


def test_oversized_diff_falls_back_to_full_reload(small_uwcse, sharded_instance):
    bundle, _instance, _examples, _clauses = small_uwcse
    examples = bundle.examples.positives
    builder = BottomClauseBuilder(sharded_instance, BottomClauseConfig(max_depth=2))
    engine = BatchSaturationEngine(builder)
    engine.build_ground_batch(examples)

    service = sharded_instance.backend.coverage_service()
    # Adding then removing as many rows as the instance holds makes the diff
    # at least as large as the payload, so shipping it would be a loss.
    churn = sharded_instance.total_tuples()
    rows = [(f"churn_{i}", f"churn_person_{i}") for i in range(churn)]
    sharded_instance.add_tuples("publication", rows)
    relation = sharded_instance.relation("publication")
    for row in rows:
        relation.remove(row)
    engine.build_ground_batch(examples)
    assert service.reloads_full == 1
    assert service.reloads_incremental == 0

    # A small follow-up mutation diffs incrementally again.
    sharded_instance.add_tuple("publication", ("churn_tail", "churn_person_tail"))
    engine.build_ground_batch(examples)
    assert service.reloads_incremental == 1


def test_interrupted_diff_sync_replays_idempotently(small_uwcse, sharded_instance):
    """A sync that dies mid-fleet re-sends the same diff from the stale
    token; workers that already applied it (including removes) must
    converge, not error."""
    bundle, _instance, _examples, _clauses = small_uwcse
    examples = bundle.examples.positives
    builder = BottomClauseBuilder(sharded_instance, BottomClauseConfig(max_depth=2))
    engine = BatchSaturationEngine(builder)
    engine.build_ground_batch(examples)

    service = sharded_instance.backend.coverage_service()
    old_token = service._synced_token
    victim = next(iter(sharded_instance.relation("publication").rows))
    sharded_instance.add_tuple("publication", ("pub_replay", examples[0].values[0]))
    sharded_instance.relation("publication").remove(victim)
    engine.build_ground_batch(examples)
    assert service.reloads_incremental == 1

    # Simulate the interrupted broadcast: the token never advanced, so the
    # next batch re-sends the same add+remove diff to already-synced workers.
    service._synced_token = old_token
    rebuilt = engine.build_ground_batch(examples)
    assert service.reloads_incremental == 2

    reference = BottomClauseBuilder(
        sharded_instance.with_backend("sqlite"), BottomClauseConfig(max_depth=2)
    ).build_ground_many(examples)
    assert clause_strings(rebuilt) == clause_strings(reference)


def test_python_pinned_builder_stays_local_on_sharded_backend(sharded_instance, small_uwcse):
    """use_compiled_lookups=False is a measurement knob (the Table 13
    client baseline); the sharded route must not silently override it."""
    bundle, instance, _examples, _clauses = small_uwcse
    examples = bundle.examples.positives
    pinned = BottomClauseBuilder(
        sharded_instance, BottomClauseConfig(max_depth=2), use_compiled_lookups=False
    )
    engine = BatchSaturationEngine(pinned)
    got = engine.build_ground_batch(examples)
    assert engine.sharded_batches == 0
    reference = BottomClauseBuilder(
        instance, BottomClauseConfig(max_depth=2)
    ).build_ground_many(examples)
    assert clause_strings(got) == clause_strings(reference)
