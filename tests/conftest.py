"""Shared fixtures: small schemas, instances, and datasets used across tests."""

from __future__ import annotations

import pytest

from repro.database import backend as backend_registry
from repro.database import (
    DatabaseInstance,
    FunctionalDependency,
    InclusionDependency,
    RelationSchema,
    Schema,
)
from repro.datasets import hiv, imdb, uwcse
from repro.distributed import ShardedSQLiteBackend
from repro.transform import DecomposeOperation, SchemaTransformation
from tests.backends import BACKENDS


@pytest.fixture(params=(*BACKENDS, "sqlite-sharded"))
def backend(request, monkeypatch):
    """Storage/evaluation backend under test; parametrizes the shared
    instance fixtures so every database/learning coverage test runs against
    the dict-indexed memory backend and SQLite, in process and placed on a
    fleet.  ``sqlite-sharded`` builds every ``"sqlite"`` backend of the test
    on a two-worker fleet, so batched coverage runs in worker processes and
    merges their bitsets."""
    if request.param != "sqlite-sharded":
        yield request.param
        return
    fleets = []

    def placed() -> ShardedSQLiteBackend:
        fleets.append(ShardedSQLiteBackend(shards=2))
        return fleets[-1]

    monkeypatch.setitem(backend_registry._REGISTRY, "sqlite", placed)
    yield "sqlite"
    for fleet in fleets:
        fleet.close()


@pytest.fixture
def relation_factory(backend):
    """Build a single backend-specific relation store (for RelationInstance
    interface tests that should hold for every backend)."""

    def make(relation_schema: RelationSchema, rows=()):
        instance = DatabaseInstance(
            Schema([relation_schema], name="single"), backend=backend
        )
        relation = instance.relation(relation_schema.name)
        relation.add_all(rows)
        return relation

    return make


@pytest.fixture
def simple_schema() -> Schema:
    """A two-relation schema R1(A,B), R2(A,C) with an IND with equality on A."""
    return Schema(
        [RelationSchema("r1", ["a", "b"]), RelationSchema("r2", ["a", "c"])],
        [FunctionalDependency("r1", ["a"], ["b"])],
        [InclusionDependency("r1", ["a"], "r2", ["a"], with_equality=True)],
        name="simple",
    )


@pytest.fixture
def simple_instance(simple_schema: Schema, backend: str) -> DatabaseInstance:
    """A small instance of the simple schema satisfying its constraints."""
    instance = DatabaseInstance(simple_schema, backend=backend)
    instance.add_tuples("r1", [("a1", "b1"), ("a2", "b2"), ("a3", "b3")])
    instance.add_tuples("r2", [("a1", "c1"), ("a2", "c2"), ("a3", "c3"), ("a3", "c4")])
    return instance


@pytest.fixture
def composed_schema() -> Schema:
    """A single wide relation wide(A,B,C) to decompose in tests."""
    return Schema(
        [RelationSchema("wide", ["a", "b", "c"])],
        [FunctionalDependency("wide", ["a"], ["b", "c"])],
        [],
        name="composed",
    )


@pytest.fixture
def composed_instance(composed_schema: Schema) -> DatabaseInstance:
    instance = DatabaseInstance(composed_schema)
    instance.add_tuples(
        "wide",
        [("a1", "b1", "c1"), ("a2", "b2", "c2"), ("a3", "b3", "c3")],
    )
    return instance


@pytest.fixture
def wide_decomposition(composed_schema: Schema) -> SchemaTransformation:
    """Decompose wide(A,B,C) into left(A,B) and right(A,C)."""
    return SchemaTransformation(
        composed_schema,
        [DecomposeOperation("wide", [("left", ["a", "b"]), ("right", ["a", "c"])])],
        target_name="decomposed",
    )


@pytest.fixture(scope="session")
def uwcse_bundle():
    """A small seeded UW-CSE bundle shared across learner tests."""
    return uwcse.load(uwcse.UwCseConfig(num_students=25, num_professors=8, num_courses=12), seed=7)


@pytest.fixture(scope="session")
def hiv_bundle():
    """A small seeded HIV bundle."""
    return hiv.load(hiv.HivConfig(num_compounds=40, min_atoms=3, max_atoms=5), seed=7)


@pytest.fixture(scope="session")
def imdb_bundle():
    """A small seeded IMDb bundle."""
    return imdb.load(imdb.ImdbConfig(num_movies=40, num_directors=15, num_producers=10), seed=7)
