"""Batched candidate scoring: order, determinism, and compiled-path parity.

The batch API's contract is that results come back in input order and are
identical on every backend to scoring the clauses one at a time.
"""

import pytest

from repro.castor.bottom_clause import CastorBottomClauseBuilder, CastorBottomClauseConfig
from repro.database.sqlite_backend import SaturationStore
from repro.learning.coverage import (
    BatchCoverageEngine,
    CoverageBatch,
    QueryCoverageEngine,
    SubsumptionCoverageEngine,
)
from repro.learning.examples import Example
from tests.backends import BACKENDS


@pytest.fixture(scope="module")
def workload(uwcse_bundle):
    """Candidate clauses + examples shared by the batch tests."""
    variant = uwcse_bundle.variant_names[0]
    instance = uwcse_bundle.instance(variant)
    builder = CastorBottomClauseBuilder(
        instance,
        config=CastorBottomClauseConfig(
            max_depth=2, max_distinct_variables=10, max_total_literals=20
        ),
    )
    clauses = [builder.build(e) for e in uwcse_bundle.examples.positives[:6]]
    clauses = [c for c in clauses if c.body]
    assert clauses, "workload produced no candidate clauses"
    return instance, clauses, uwcse_bundle.examples


def _value_sets(per_clause_lists):
    return [frozenset(e.values for e in covered) for covered in per_clause_lists]


class TestBatchDeterminism:
    def test_results_in_input_order(self, workload):
        """Batched scoring is input-ordered and matches per-clause scoring."""
        instance, clauses, examples = workload
        all_examples = examples.all_examples()
        for backend in BACKENDS:
            converted = instance.with_backend(backend)
            engine = QueryCoverageEngine(converted)
            sequential = [
                frozenset(e.values for e in engine.covered_examples(c, all_examples))
                for c in clauses
            ]
            batch = BatchCoverageEngine(QueryCoverageEngine(converted))
            got = _value_sets(batch.covered_examples_batch(clauses, all_examples))
            assert got == sequential, backend

    def test_evaluate_batch_matches_per_clause_evaluate(self, workload):
        instance, clauses, examples = workload
        engine = QueryCoverageEngine(instance.with_backend("sqlite"))
        batch = BatchCoverageEngine(engine)
        results = batch.evaluate_batch(clauses, examples.positives, examples.negatives)
        assert len(results) == len(clauses)
        for clause, result in zip(clauses, results):
            single = engine.evaluate(clause, examples.positives, examples.negatives)
            assert result.positives_covered == single.positives_covered
            assert result.negatives_covered == single.negatives_covered

    def test_compiled_subsumption_batch_matches_per_clause(self, workload):
        instance, clauses, examples = workload
        all_examples = examples.all_examples()
        engine = SubsumptionCoverageEngine(instance, compiled=True)
        batched = _value_sets(
            BatchCoverageEngine(engine).covered_examples_batch(clauses, all_examples)
        )
        single = SubsumptionCoverageEngine(instance, compiled=True)
        assert batched == _value_sets(
            [single.covered_examples(c, all_examples) for c in clauses]
        )

    def test_coverage_batch_run(self, workload):
        instance, clauses, examples = workload
        batch = CoverageBatch(clauses, examples.positives, examples.negatives)
        assert len(batch) == len(clauses)
        engine = BatchCoverageEngine(QueryCoverageEngine(instance))
        via_run = engine.run(batch)
        via_evaluate = engine.evaluate_batch(
            clauses, examples.positives, examples.negatives
        )
        assert [(r.positives_covered, r.negatives_covered) for r in via_run] == [
            (r.positives_covered, r.negatives_covered) for r in via_evaluate
        ]

    def test_duplicate_clauses_get_duplicate_results(self, workload):
        instance, clauses, examples = workload
        all_examples = examples.all_examples()
        batch = BatchCoverageEngine(QueryCoverageEngine(instance.with_backend("sqlite")))
        doubled = [clauses[0], clauses[0], clauses[0]]
        results = _value_sets(batch.covered_examples_batch(doubled, all_examples))
        assert results[0] == results[1] == results[2]


class TestCompiledSubsumptionParity:
    def test_compiled_agrees_with_python_engine(self, workload):
        instance, clauses, examples = workload
        all_examples = examples.all_examples()
        python_engine = SubsumptionCoverageEngine(instance, compiled=False)
        compiled_engine = SubsumptionCoverageEngine(instance, compiled=True)
        for clause in clauses:
            python_covered = {
                e.values for e in python_engine.covered_examples(clause, all_examples)
            }
            compiled_covered = {
                e.values for e in compiled_engine.covered_examples(clause, all_examples)
            }
            assert python_covered == compiled_covered
        # One store query per *distinct* clause: a repeated clause is served
        # wholly from the coverage cache without touching SQL.
        assert compiled_engine.compiled_statements >= len(set(clauses))

    def test_compiled_default_follows_backend(self, workload):
        instance, _, _ = workload
        assert not SubsumptionCoverageEngine(instance).compiled_enabled  # memory
        assert SubsumptionCoverageEngine(
            instance.with_backend("sqlite")
        ).compiled_enabled

    def test_shared_store_deduplicates_examples(self, workload):
        instance, clauses, examples = workload
        all_examples = examples.all_examples()
        store = SaturationStore()
        first = SubsumptionCoverageEngine(
            instance, compiled=True, saturation_store=store
        )
        first.covered_examples(clauses[0], all_examples)
        size_after_first = len(store)
        assert size_after_first == len(set(all_examples))
        second = SubsumptionCoverageEngine(
            instance, compiled=True, saturation_store=store
        )
        covered = second.covered_examples(clauses[0], all_examples)
        assert len(store) == size_after_first  # re-added examples deduplicate
        assert {e.values for e in covered} == {
            e.values for e in first.covered_examples(clauses[0], all_examples)
        }

    def test_unstorable_examples_fall_back_to_python(self, simple_instance):
        """Examples the store rejects are still answered (via the Python path)."""
        engine = SubsumptionCoverageEngine(simple_instance, compiled=True)
        examples = [
            Example("r1", ("a1", "b1"), True),
            Example("r1", (("tuple", "value"), "b1"), False),  # unstorable head
            Example("r1", ("a2", "b2"), True),
            Example("r1", ("a3", "b3"), True),
        ]
        from repro.logic.parser import parse_clause

        clause = parse_clause("r1(x, y) :- r1(x, y).")
        covered = engine.covered_examples(clause, examples)
        assert [e.values for e in covered] == [
            ("a1", "b1"),
            ("a2", "b2"),
            ("a3", "b3"),
        ]
        assert examples[1] in engine._compiled_failed

    def test_explicit_compiled_overrides_the_backend_default(self, workload):
        instance, _, _ = workload
        assert SubsumptionCoverageEngine(instance, compiled=True).compiled_enabled
        assert not SubsumptionCoverageEngine(
            instance.with_backend("sqlite"), compiled=False
        ).compiled_enabled
