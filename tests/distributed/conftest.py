"""Shared fixtures for the sharded evaluation-service tests.

Workers are real spawned processes, so the fixtures keep instances tiny and
module-scoped where the tests allow it.
"""

from __future__ import annotations

import pytest

from repro.castor.bottom_clause import (
    CastorBottomClauseBuilder,
    CastorBottomClauseConfig,
)
from repro.datasets import uwcse
from repro.distributed import EvaluationService, InstancePayload, partition_keys


def make_payload_fn(instance):
    """Payload factory reading the instance's current relations."""

    def payload_fn() -> InstancePayload:
        rows = {
            relation.schema.name: list(relation.rows)
            for relation in instance.relations()
        }
        return InstancePayload(instance.schema, rows)

    return payload_fn


@pytest.fixture(scope="module")
def small_uwcse():
    """A small UW-CSE workload: (instance, examples, candidate clauses)."""
    bundle = uwcse.load(
        uwcse.UwCseConfig(num_students=10, num_professors=3, num_courses=5), seed=11
    )
    instance = bundle.instance(bundle.variant_names[0]).with_backend("sqlite")
    examples = bundle.examples.all_examples()
    builder = CastorBottomClauseBuilder(
        instance,
        config=CastorBottomClauseConfig(
            max_depth=2, max_distinct_variables=10, max_total_literals=20
        ),
    )
    clauses = [builder.build(e) for e in bundle.examples.positives[:6]]
    clauses = [c for c in clauses if c.body]
    assert clauses, "workload generator produced no usable candidate clauses"
    return bundle, instance, examples, clauses


@pytest.fixture
def pipe_service(small_uwcse):
    """A started two-shard service over the small instance.

    Every shard owns at least one example, so the failure tests that kill
    a given shard always send it work.
    """
    _bundle, instance, examples, _clauses = small_uwcse
    keys = [(e.target, e.values, e.positive) for e in examples]
    assert all(partition_keys(keys, 2))
    service = EvaluationService(make_payload_fn(instance), shards=2)
    with service:
        yield service
