"""Regression tests for the covering loop's ``max_seconds`` soft deadline.

A timed-out run must return the clauses accepted so far — never raise, and
never discard already-accepted clauses.  The deadline also has to actually
reach the covering loop from the learner-level parameter objects.
"""

import time

from repro.foil.foil import FoilLearner, FoilParameters
from repro.learning.covering import CoveringLearner, CoveringParameters
from repro.learning.examples import Example, ExampleSet
from repro.logic.parser import parse_clause
from repro.progolem.progolem import ProGolemParameters


class _SlowClauseLearner:
    """Learns one fixed clause per call, burning wall-clock time each round."""

    def __init__(self, clause, delay_seconds):
        self.clause = clause
        self.delay_seconds = delay_seconds
        self.calls = 0

    def learn_clause(self, instance, uncovered_positives, negatives):
        self.calls += 1
        time.sleep(self.delay_seconds)
        return self.clause


def _example_set():
    examples = ExampleSet("q")
    examples.positives = [Example("q", (f"a{i}",), True) for i in range(6)]
    examples.negatives = []
    return examples


def _covering(clause_learner, covered_per_round, max_seconds):
    # Each accepted clause "covers" a fixed chunk of the uncovered positives,
    # so the loop would need several rounds to finish without a deadline.
    def coverage_fn(clause, uncovered):
        return list(uncovered[:covered_per_round])

    return CoveringLearner(
        clause_learner,
        coverage_fn=coverage_fn,
        precision_fn=lambda clause, pos, neg: 1.0,
        parameters=CoveringParameters(min_positives=1, max_seconds=max_seconds),
    )


class TestCoveringDeadline:
    def test_timed_out_run_returns_accepted_clauses(self, simple_instance):
        clause = parse_clause("q(x) :- r1(x, y).")
        learner = _SlowClauseLearner(clause, delay_seconds=0.05)
        covering = _covering(learner, covered_per_round=2, max_seconds=0.01)
        definition = covering.learn(simple_instance, _example_set())
        # The first round always runs (the deadline is checked at the top of
        # each iteration); the timeout then stops the loop with the clauses
        # accepted so far instead of raising or discarding them.
        assert learner.calls == 1
        assert len(definition) == 1
        assert list(definition) == [clause]

    def test_zero_deadline_returns_empty_definition(self, simple_instance):
        clause = parse_clause("q(x) :- r1(x, y).")
        learner = _SlowClauseLearner(clause, delay_seconds=0.0)
        covering = _covering(learner, covered_per_round=2, max_seconds=0.0)
        definition = covering.learn(simple_instance, _example_set())
        assert learner.calls == 0
        assert len(definition) == 0

    def test_no_deadline_runs_to_completion(self, simple_instance):
        clause = parse_clause("q(x) :- r1(x, y).")
        learner = _SlowClauseLearner(clause, delay_seconds=0.0)
        covering = _covering(learner, covered_per_round=2, max_seconds=None)
        covering.learn(simple_instance, _example_set())
        assert learner.calls == 3  # 6 positives / 2 covered per round

    def test_learner_parameters_thread_max_seconds(self):
        assert FoilParameters(max_seconds=1.5).max_seconds == 1.5
        assert ProGolemParameters(max_seconds=2.0).max_seconds == 2.0
        assert FoilParameters().max_seconds is None

    def test_foil_with_zero_deadline_does_not_raise(self, uwcse_bundle):
        variant = uwcse_bundle.variant_names[0]
        schema = uwcse_bundle.schema(variant)
        instance = uwcse_bundle.instance(variant)
        learner = FoilLearner(schema, FoilParameters(max_seconds=0.0))
        definition = learner.learn(instance, uwcse_bundle.examples)
        assert len(definition) == 0
