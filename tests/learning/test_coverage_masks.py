"""Bitset coverage vectors: masks must agree with the example-list API.

Coverage masks are *positional* — bit ``i`` of a mask is the coverage of
``examples[i]`` — so they must round-trip through
:func:`~repro.learning.coverage.mask_to_examples`, agree with
``covered_examples`` on every engine, and survive batching unchanged.
"""

import pytest

from repro.castor.bottom_clause import (
    CastorBottomClauseBuilder,
    CastorBottomClauseConfig,
)
from repro.learning.coverage import (
    BatchCoverageEngine,
    QueryCoverageEngine,
    SubsumptionCoverageEngine,
    examples_mask,
    mask_to_examples,
)
from repro.learning.evaluation import evaluate_definition
from repro.learning.examples import Example, ExampleSet
from repro.logic.clauses import HornDefinition
from repro.logic.parser import parse_clause


@pytest.fixture(scope="module")
def workload(uwcse_bundle):
    variant = uwcse_bundle.variant_names[0]
    instance = uwcse_bundle.instance(variant)
    builder = CastorBottomClauseBuilder(
        instance,
        instance.schema,
        CastorBottomClauseConfig(max_depth=2, max_total_literals=20),
    )
    clauses = [builder.build(e) for e in uwcse_bundle.examples.positives[:5]]
    clauses = [c for c in clauses if c.body]
    assert clauses
    return instance, clauses, uwcse_bundle.examples


class TestMaskPrimitives:
    def test_round_trip(self):
        examples = [Example("t", (f"v{i}",), True) for i in range(8)]
        covered = [examples[1], examples[3], examples[7]]
        mask = examples_mask(covered, examples)
        assert mask == (1 << 1) | (1 << 3) | (1 << 7)
        assert mask_to_examples(mask, examples) == covered

    def test_duplicate_examples_share_coverage(self):
        """A repeated example sets EVERY position it occupies."""
        example = Example("t", ("v",), True)
        other = Example("t", ("w",), True)
        examples = [example, other, example]
        mask = examples_mask([example], examples)
        assert mask == 0b101
        assert mask_to_examples(mask, examples) == [example, example]

    def test_empty_inputs(self):
        assert examples_mask([], []) == 0
        assert mask_to_examples(0, []) == []
        example = Example("t", ("v",), True)
        assert examples_mask([], [example]) == 0
        assert mask_to_examples(0b1, [example]) == [example]

    def test_masks_compose_with_int_operations(self):
        examples = [Example("t", (f"v{i}",), True) for i in range(6)]
        left = examples_mask(examples[:3], examples)
        right = examples_mask(examples[2:5], examples)
        assert mask_to_examples(left | right, examples) == examples[:5]
        assert mask_to_examples(left & right, examples) == [examples[2]]
        assert (left | right).bit_count() == 5


class TestEngineMaskParity:
    def test_subsumption_mask_matches_examples(self, workload):
        instance, clauses, examples = workload
        engine = SubsumptionCoverageEngine(instance)
        all_examples = examples.all_examples()
        for clause in clauses:
            covered = engine.covered_examples(clause, all_examples)
            mask = engine.covered_mask(clause, all_examples)
            assert mask == examples_mask(covered, all_examples)
            assert mask_to_examples(mask, all_examples) == covered

    def test_query_engine_mask_matches_examples(self, workload):
        instance, clauses, examples = workload
        all_examples = examples.all_examples()
        for backend in ("memory", "sqlite"):
            engine = QueryCoverageEngine(instance.with_backend(backend))
            for clause in clauses[:2]:
                covered = engine.covered_examples(clause, all_examples)
                assert engine.covered_mask(clause, all_examples) == examples_mask(
                    covered, all_examples
                )

    def test_batch_masks_match_per_clause_coverage(self, workload):
        instance, clauses, examples = workload
        all_examples = examples.all_examples()
        batch = BatchCoverageEngine(SubsumptionCoverageEngine(instance))
        sequential = SubsumptionCoverageEngine(instance)
        expected = [
            examples_mask(sequential.covered_examples(c, all_examples), all_examples)
            for c in clauses
        ]
        assert batch.covered_masks_batch(clauses, all_examples) == expected

    def test_evaluate_batch_carries_consistent_masks(self, workload):
        instance, clauses, examples = workload
        batch = BatchCoverageEngine(SubsumptionCoverageEngine(instance))
        results = batch.evaluate_batch(clauses, examples.positives, examples.negatives)
        assert len(results) == len(clauses)
        for result in results:
            assert result.positive_mask is not None
            assert result.negative_mask is not None
            assert result.positive_mask.bit_count() == result.positives_covered
            assert result.negative_mask.bit_count() == result.negatives_covered
            assert (
                mask_to_examples(result.positive_mask, examples.positives)
                == result.covered_positive_examples
            )


class TestEvaluateDefinitionBatched:
    def _definition_and_examples(self, simple_instance):
        clause = parse_clause("target(x) :- r1(x, y), r2(x, z).")
        definition = HornDefinition("target", [clause])
        examples = ExampleSet(
            "target",
            [("a1",), ("a2",)],
            [("zz",), ("a3",)],  # a3 IS derivable: false positive
        )
        return definition, examples

    def test_batched_matches_per_example_fallback(self, simple_instance):
        definition, examples = self._definition_and_examples(simple_instance)
        engine = QueryCoverageEngine(simple_instance)
        assert hasattr(engine, "covered_masks_batch")
        batched = evaluate_definition(definition, simple_instance, examples, engine)

        class NoBatchEngine:
            """Same decisions, no batch surface → per-example fallback path."""

            def covers(self, clause, example):
                return engine.covers(clause, example)

        fallback = evaluate_definition(
            definition, simple_instance, examples, NoBatchEngine()
        )
        for attribute in (
            "true_positives",
            "false_positives",
            "false_negatives",
            "precision",
            "recall",
        ):
            assert getattr(batched, attribute) == getattr(fallback, attribute)

    def test_definition_coverage_is_clause_union(self, simple_instance):
        definition, examples = self._definition_and_examples(simple_instance)
        two_clause = HornDefinition(
            "target",
            [parse_clause("target(x) :- r1(x, y)."), parse_clause("target(x) :- r2(x, z).")],
        )
        result = evaluate_definition(two_clause, simple_instance, examples)
        # Both positives derivable through either clause; a3 still a false positive.
        assert result.true_positives == 2
        assert result.false_positives == 1

    def test_empty_definition_covers_nothing(self, simple_instance):
        _, examples = self._definition_and_examples(simple_instance)
        result = evaluate_definition(
            HornDefinition("target", []), simple_instance, examples
        )
        assert result.true_positives == 0
        assert result.false_positives == 0
        assert result.precision == 0.0
        assert result.recall == 0.0
