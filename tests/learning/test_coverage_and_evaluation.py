"""Tests for coverage engines, metrics, and cross-validation."""

import pytest

from repro.database.instance import DatabaseInstance
from repro.database.schema import RelationSchema, Schema
from repro.learning.bottom_clause import BottomClauseConfig
from repro.learning.coverage import QueryCoverageEngine, SubsumptionCoverageEngine
from repro.learning.evaluation import (
    CrossValidationReport,
    EvaluationResult,
    cross_validate,
    evaluate_definition,
)
from repro.learning.examples import Example, ExampleSet
from repro.logic.clauses import HornDefinition
from repro.logic.parser import parse_clause


@pytest.fixture
def coauthor_instance(backend: str) -> DatabaseInstance:
    """The Example 1.1-style co-authorship instance, on every backend."""
    schema = Schema(
        [
            RelationSchema("publication", ["title", "person"]),
            RelationSchema("professor", ["person"]),
        ],
        name="coauthors",
    )
    instance = DatabaseInstance(schema, backend=backend)
    instance.add_tuples(
        "publication",
        [
            ("t1", "s1"), ("t1", "p1"),
            ("t2", "s2"), ("t2", "p2"),
            ("t3", "p1"), ("t3", "p2"),
            ("t4", "s3"),
        ],
    )
    instance.add_tuples("professor", [("p1",), ("p2",)])
    return instance


ADVISED_CLAUSE = parse_clause(
    "advisedBy(x, y) :- publication(t, x), publication(t, y), professor(y)."
)


def example_set() -> ExampleSet:
    return ExampleSet(
        "advisedBy",
        [("s1", "p1"), ("s2", "p2")],
        [("s3", "p1"), ("s1", "p2"), ("s2", "p1")],
    )


class TestQueryCoverageEngine:
    def test_covers_positive_examples(self, coauthor_instance):
        engine = QueryCoverageEngine(coauthor_instance)
        assert engine.covers(ADVISED_CLAUSE, Example("advisedBy", ("s1", "p1"), True))
        assert not engine.covers(ADVISED_CLAUSE, Example("advisedBy", ("s3", "p1"), False))

    def test_evaluate_counts(self, coauthor_instance):
        engine = QueryCoverageEngine(coauthor_instance)
        examples = example_set()
        result = engine.evaluate(ADVISED_CLAUSE, examples.positives, examples.negatives)
        assert result.positives_covered == 2
        assert result.negatives_covered == 0
        assert result.precision() == 1.0
        assert result.coverage_score() == 2


class TestSubsumptionCoverageEngine:
    def test_agrees_with_query_engine_on_positives(self, coauthor_instance):
        engine = SubsumptionCoverageEngine(
            coauthor_instance, BottomClauseConfig(max_depth=2)
        )
        assert engine.covers(ADVISED_CLAUSE, Example("advisedBy", ("s1", "p1"), True))
        assert not engine.covers(ADVISED_CLAUSE, Example("advisedBy", ("s3", "p1"), False))

    def test_coverage_cache_hits(self, coauthor_instance):
        engine = SubsumptionCoverageEngine(coauthor_instance)
        example = Example("advisedBy", ("s1", "p1"), True)
        engine.covers(ADVISED_CLAUSE, example)
        performed = engine.coverage_tests_performed
        engine.covers(ADVISED_CLAUSE, example)
        assert engine.coverage_tests_performed == performed
        assert engine.cache_hits >= 1

    def test_saturations_are_cached(self, coauthor_instance):
        engine = SubsumptionCoverageEngine(coauthor_instance)
        example = Example("advisedBy", ("s1", "p1"), True)
        assert engine.saturation(example) is engine.saturation(example)
        assert engine.saturation_index(example) is engine.saturation_index(example)

    def test_mark_generalization_covers_seeds_cache(self, coauthor_instance):
        engine = SubsumptionCoverageEngine(coauthor_instance)
        example = Example("advisedBy", ("s1", "p1"), True)
        general = parse_clause("advisedBy(x, y) :- publication(t, x).")
        engine.mark_generalization_covers(general, [example])
        performed = engine.coverage_tests_performed
        assert engine.covers(general, example)
        assert engine.coverage_tests_performed == performed


class TestEvaluation:
    def test_evaluate_definition_metrics(self, coauthor_instance):
        definition = HornDefinition("advisedBy", [ADVISED_CLAUSE])
        result = evaluate_definition(definition, coauthor_instance, example_set())
        assert result.precision == 1.0
        assert result.recall == 1.0
        assert result.f1 == 1.0

    def test_empty_definition_scores_zero(self, coauthor_instance):
        result = evaluate_definition(
            HornDefinition("advisedBy"), coauthor_instance, example_set()
        )
        assert result.precision == 0.0
        assert result.recall == 0.0
        assert result.f1 == 0.0

    def test_partial_coverage(self, coauthor_instance):
        overly_general = HornDefinition(
            "advisedBy", [parse_clause("advisedBy(x, y) :- publication(t, x), professor(y).")]
        )
        result = evaluate_definition(overly_general, coauthor_instance, example_set())
        assert result.recall == 1.0
        assert result.precision < 1.0

    def test_evaluation_result_counts(self):
        result = EvaluationResult(true_positives=3, false_positives=1, false_negatives=2)
        assert result.precision == pytest.approx(0.75)
        assert result.recall == pytest.approx(0.6)
        assert 0 < result.f1 < 1


class _ConstantLearner:
    """A fake learner returning a fixed definition, for cross_validate tests."""

    def __init__(self, definition: HornDefinition):
        self.definition = definition

    def learn(self, instance, examples) -> HornDefinition:
        return self.definition


class TestCrossValidation:
    def test_cross_validate_averages_folds(self, coauthor_instance):
        definition = HornDefinition("advisedBy", [ADVISED_CLAUSE])
        report = cross_validate(
            lambda: _ConstantLearner(definition),
            coauthor_instance,
            example_set(),
            folds=2,
            seed=0,
        )
        assert isinstance(report, CrossValidationReport)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert len(report.outcomes) == 2
        assert report.mean_learn_seconds >= 0.0
