"""Lifecycle and failure-semantics tests for the evaluation service.

These spawn real worker processes (spawn context), so workloads are tiny.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.distributed import (
    EvaluationService,
    ShardFailedError,
    TransportError,
    WorkerError,
)
from repro.learning.coverage import BatchCoverageEngine, QueryCoverageEngine

from .conftest import make_payload_fn


SPEC_QUERY = ("query",)


def batch_values(service, clauses, examples):
    covered = service.covered_examples_batch(SPEC_QUERY, clauses, examples)
    return [tuple(e.values for e in per_clause) for per_clause in covered]


def reference_values(instance, clauses, examples):
    batch = BatchCoverageEngine(QueryCoverageEngine(instance))
    return [
        tuple(e.values for e in per_clause)
        for per_clause in batch.covered_examples_batch(clauses, examples)
    ]


def test_pipe_service_matches_in_process_results(small_uwcse, pipe_service):
    _bundle, instance, examples, clauses = small_uwcse
    assert batch_values(pipe_service, clauses, examples) == reference_values(
        instance, clauses, examples
    )


def test_killed_worker_is_respawned_and_batch_retried(small_uwcse, pipe_service):
    """Satellite: a shard dying mid-flight is respawned from its snapshot
    and the batch is transparently retried once."""
    _bundle, instance, examples, clauses = small_uwcse
    expected = reference_values(instance, clauses, examples)
    assert batch_values(pipe_service, clauses, examples) == expected

    victim_pid = pipe_service.worker_pids()[0]
    os.kill(victim_pid, signal.SIGKILL)
    # Wait for the process to actually die so the next request hits the
    # broken transport rather than a half-dead worker.
    for _ in range(100):
        if not pipe_service._handles[0].process.is_alive():
            break
        time.sleep(0.05)

    assert batch_values(pipe_service, clauses, examples) == expected
    assert pipe_service._handles[0].respawns == 1
    assert pipe_service.worker_pids()[0] != victim_pid


def test_killing_every_worker_respawns_the_whole_fleet(small_uwcse, pipe_service):
    """Both shards lose their worker at once: the fan-out threads respawn
    them concurrently (one spawn at a time) and the batch still answers."""
    _bundle, instance, examples, clauses = small_uwcse
    expected = reference_values(instance, clauses, examples)
    assert batch_values(pipe_service, clauses, examples) == expected

    victims = pipe_service.worker_pids()
    for pid in victims:
        os.kill(pid, signal.SIGKILL)
    for handle in pipe_service._handles:
        handle.process.join(timeout=5)
        assert not handle.process.is_alive()

    assert batch_values(pipe_service, clauses, examples) == expected
    assert [h.respawns for h in pipe_service._handles] == [1, 1]
    assert not set(pipe_service.worker_pids()) & set(victims)


def test_shard_failed_error_when_respawn_cannot_recover(
    small_uwcse, pipe_service, monkeypatch
):
    """Satellite: after the one respawn-and-retry cycle fails, a clear
    ShardFailedError surfaces (no infinite retry loops)."""
    _bundle, _instance, examples, clauses = small_uwcse
    batch_values(pipe_service, clauses, examples)  # shards warmed up

    def broken_respawn(handle):
        handle._c_respawns.inc()
        raise TransportError("simulated unrecoverable shard host")

    monkeypatch.setattr(pipe_service, "_respawn", broken_respawn)
    os.kill(pipe_service.worker_pids()[1], signal.SIGKILL)
    time.sleep(0.2)
    with pytest.raises(ShardFailedError) as excinfo:
        batch_values(pipe_service, clauses, examples)
    assert excinfo.value.shard == 1
    assert "shard 1" in str(excinfo.value)


def test_unknown_spec_kind_is_rejected_at_the_coordinator(
    small_uwcse, pipe_service
):
    """Spec validation happens before any payload is shipped to a shard."""
    _bundle, _instance, examples, clauses = small_uwcse
    with pytest.raises(ValueError, match="no-such-engine-kind"):
        pipe_service.covered_examples_batch(
            ("no-such-engine-kind",), clauses, examples
        )


def test_worker_exception_surfaces_as_worker_error_without_retry(
    small_uwcse, pipe_service
):
    _bundle, instance, examples, clauses = small_uwcse
    # A valid spec kind whose config explodes only inside the worker when
    # the engine first builds a saturation (deterministic, not a crash).
    bad_spec = ("subsumption", 42, False)
    with pytest.raises(WorkerError) as excinfo:
        pipe_service.covered_examples_batch(bad_spec, clauses, examples)
    assert excinfo.value.kind == "AttributeError"
    assert excinfo.value.shard in (0, 1)
    # Deterministic worker errors must not burn the respawn budget …
    assert all(h.respawns == 0 for h in pipe_service._handles)
    # … and the workers stay healthy for the next request.
    assert batch_values(pipe_service, clauses, examples) == reference_values(
        instance, clauses, examples
    )


def test_mutations_are_visible_after_worker_reload(simple_schema):
    """The staleness token reloads workers when the source data changes."""
    from repro.database.instance import DatabaseInstance
    from repro.learning.examples import ExampleSet
    from repro.logic.parser import parse_clause

    instance = DatabaseInstance(simple_schema, backend="sqlite")
    instance.add_tuples("r1", [("a1", "b1"), ("a2", "b2")])
    instance.add_tuples("r2", [("a1", "c1")])
    clause = parse_clause("t(x) :- r2(x, y).")
    examples = ExampleSet("t", positives=[("a1",), ("a2",)]).all_examples()

    backend = instance.backend
    service = EvaluationService(
        make_payload_fn(instance),
        shards=2,
        state_token_fn=lambda: backend._data_version,
    )
    with service:
        before = batch_values(service, [clause], examples)
        assert before == [(("a1",),)]
        instance.add_tuple("r2", ("a2", "c9"))
        after = batch_values(service, [clause], examples)
        assert after == [(("a1",), ("a2",))]


@pytest.mark.parametrize("failing_shard", [0, 1])
def test_failed_start_leaves_no_worker_and_a_retry_serves(
    small_uwcse, monkeypatch, failing_shard
):
    """A spawn failure mid-fleet tears down every worker already started
    (the failing shard's own half-spawned one included); the service stays
    cold, and a retried ``start()`` builds a whole fleet from scratch."""
    _bundle, instance, examples, clauses = small_uwcse
    service = EvaluationService(make_payload_fn(instance), shards=2)
    real_spawn = service._spawn_into
    spawned = []

    def failing_spawn(handle, payload):
        real_spawn(handle, payload)
        spawned.append(handle.process)
        if handle.index == failing_shard:
            raise TransportError(f"simulated spawn failure on shard {handle.index}")

    monkeypatch.setattr(service, "_spawn_into", failing_spawn)
    with pytest.raises(TransportError, match=f"shard {failing_shard}"):
        service.start()
    assert len(spawned) == failing_shard + 1
    assert not any(process.is_alive() for process in spawned)
    assert service._handles == [] and not service._started
    assert service.worker_pids() == []

    monkeypatch.setattr(service, "_spawn_into", real_spawn)
    with service:
        pids = service.worker_pids()
        assert len(pids) == 2 and all(pid is not None for pid in pids)
        assert batch_values(service, clauses, examples) == reference_values(
            instance, clauses, examples
        )
