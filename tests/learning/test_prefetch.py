"""Saturation prefetch: capability gating, failure fallback, result parity.

The prefetcher only moves :meth:`materialize` onto a worker thread — it must
never change what gets learned, must refuse to run on backends that cannot
tolerate concurrent reads (single-connection SQLite), and must fall back to
a synchronous materialization when the background thread fails.
"""

import threading

import pytest

from repro.database import DatabaseInstance, RelationSchema, Schema
from repro.distributed import ShardedSQLiteBackend
from repro.learning.coverage import SubsumptionCoverageEngine
from repro.learning.examples import ExampleSet
from repro.learning.prefetch import SaturationPrefetcher, backend_supports_prefetch
from repro.progolem.progolem import (
    ProGolemClauseLearner,
    ProGolemLearner,
    ProGolemParameters,
)


@pytest.fixture(scope="module")
def advised_problem():
    """The miniature UW-CSE problem every learner solves in seconds."""
    schema = Schema(
        [
            RelationSchema("student", ["stud"]),
            RelationSchema("professor", ["prof", "position"]),
            RelationSchema("publication", ["title", "person"]),
        ],
        [],
        [],
        name="tiny",
    )
    instance = DatabaseInstance(schema)
    for index in range(6):
        instance.add_tuple("student", (f"s{index}",))
    for index in range(4):
        position = "faculty" if index < 3 else "emeritus"
        instance.add_tuple("professor", (f"p{index}", position))
    for title, student, professor in [
        ("t0", "s0", "p0"),
        ("t1", "s1", "p1"),
        ("t2", "s2", "p2"),
        ("t3", "s3", "p0"),
    ]:
        instance.add_tuple("publication", (title, student))
        instance.add_tuple("publication", (title, professor))
    instance.add_tuple("publication", ("t4", "s4"))
    instance.add_tuple("publication", ("t5", "p3"))
    examples = ExampleSet(
        "advised",
        [("s0", "p0"), ("s1", "p1"), ("s2", "p2"), ("s3", "p0")],
        [
            ("s4", "p0"), ("s5", "p1"), ("s0", "p1"), ("s1", "p0"),
            ("s2", "p3"), ("s3", "p1"), ("s4", "p2"), ("s5", "p3"),
        ],
    )
    return schema, instance, examples


class TestCapabilityGating:
    def test_backend_flags(self, advised_problem):
        _, instance, _ = advised_problem
        assert backend_supports_prefetch(instance)  # memory
        assert not backend_supports_prefetch(instance.with_backend("sqlite"))
        fleet = ShardedSQLiteBackend(shards=1)
        try:
            assert backend_supports_prefetch(instance.with_backend(fleet))
        finally:
            fleet.close()

    def test_prefetch_never_forced_onto_unsafe_backend(self, advised_problem):
        schema, instance, _ = advised_problem
        sqlite_instance = instance.with_backend("sqlite")

        def learner_with(prefetch):
            parameters = ProGolemParameters(prefetch=prefetch)
            coverage = SubsumptionCoverageEngine(sqlite_instance)
            return ProGolemClauseLearner(schema, parameters, coverage)

        # Auto (None) and even an explicit True must not override the
        # backend's capability flag; False always wins.
        assert not learner_with(None)._prefetch_enabled(sqlite_instance)
        assert not learner_with(True)._prefetch_enabled(sqlite_instance)
        assert not learner_with(False)._prefetch_enabled(sqlite_instance)

    def test_prefetch_auto_on_safe_backend(self, advised_problem):
        schema, instance, _ = advised_problem
        coverage = SubsumptionCoverageEngine(instance)
        learner = ProGolemClauseLearner(schema, ProGolemParameters(), coverage)
        assert learner._prefetch_enabled(instance)
        off = ProGolemClauseLearner(
            schema, ProGolemParameters(prefetch=False), coverage
        )
        assert not off._prefetch_enabled(instance)


class TestSaturationPrefetcher:
    def test_background_materialization_fills_caches(self, advised_problem):
        _, instance, examples = advised_problem
        coverage = SubsumptionCoverageEngine(instance)
        generation = examples.all_examples()
        prefetcher = SaturationPrefetcher(coverage, generation).start()
        prefetcher.wait()
        assert prefetcher.error is None
        for example in generation:
            assert example in coverage._saturation_cache

    def test_wait_retries_synchronously_after_background_failure(
        self, advised_problem
    ):
        _, instance, examples = advised_problem
        generation = examples.all_examples()

        class FlakyCoverage:
            """materialize fails on the prefetch thread, succeeds on retry."""

            def __init__(self):
                self.calls = []

            def materialize(self, batch):
                self.calls.append(threading.current_thread().name)
                if len(self.calls) == 1:
                    raise RuntimeError("simulated backend hiccup")

        coverage = FlakyCoverage()
        prefetcher = SaturationPrefetcher(coverage, generation).start()
        prefetcher.wait()  # must not raise: the retry ran inline
        assert len(coverage.calls) == 2
        assert coverage.calls[0] == "saturation-prefetch"
        assert coverage.calls[1] != "saturation-prefetch"
        assert prefetcher.error is None

    def test_persistent_failure_surfaces_to_caller(self, advised_problem):
        _, _, examples = advised_problem

        class BrokenCoverage:
            def materialize(self, batch):
                raise RuntimeError("permanently broken")

        prefetcher = SaturationPrefetcher(
            BrokenCoverage(), examples.all_examples()
        ).start()
        with pytest.raises(RuntimeError, match="permanently broken"):
            prefetcher.wait()


class TestLearnerParity:
    @pytest.mark.parametrize("placement", ["memory", "sqlite-sharded"])
    def test_prefetch_on_off_learn_identical_definitions(
        self, advised_problem, placement
    ):
        """Prefetch is auto-on for both placements: in memory, and on a
        fleet, where the prefetch thread's saturation batches go to the
        workers while the learner builds its seed clause."""
        schema, instance, examples = advised_problem
        fleet = None
        if placement == "sqlite-sharded":
            fleet = ShardedSQLiteBackend(shards=1)
            instance = instance.with_backend(fleet)
        assert backend_supports_prefetch(instance)

        def learn(prefetch):
            learner = ProGolemLearner(
                schema,
                ProGolemParameters(seed=0, max_clauses=5, prefetch=prefetch),
            )
            return learner.learn(instance, examples)

        try:
            overlapped = learn(None)  # auto → on
            sequential = learn(False)
        finally:
            if fleet is not None:
                fleet.close()
        assert list(overlapped) == list(sequential)
        assert list(overlapped), "the tiny problem must be learnable"
