"""Golem: bottom-up learning via relative least general generalization (Section 6.3).

Golem's ``LearnClause`` (Algorithm 2) samples ``K`` positive examples,
computes the rlgg of every pair of their saturations, keeps the candidates
that meet the minimum-precision condition, and then greedily folds further
examples into the best candidate until no improvement is possible.

The rlgg operator itself is schema independent (Theorem 6.4), but the clause
sizes it produces grow as the product of the saturations' sizes, so Golem is
only practical on small databases — the implementation exposes a literal cap
to keep runs bounded, exactly the kind of assumption the paper notes Golem
needs.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..database.instance import DatabaseInstance
from ..database.schema import Schema
from ..foil.gain import precision
from ..learning.bottom_clause import BottomClauseConfig
from ..learning.coverage import SubsumptionCoverageEngine
from ..learning.covering import CoveringLearner, CoveringParameters
from ..learning.knobs import EvaluationKnobs
from ..learning.examples import Example, ExampleSet
from ..logic.clauses import HornClause, HornDefinition
from ..logic.lgg import lgg_clauses, rlgg
from ..logic.minimize import minimize_clause
from ..obs import span as obs_span


class GolemParameters:
    """Golem's knobs: pair-sample size K, minimum precision, and size caps."""

    def __init__(
        self,
        sample_size: int = 5,
        min_precision: float = 0.67,
        min_positives: int = 2,
        max_clauses: int = 25,
        max_clause_literals: int = 60,
        bottom_clause: Optional[BottomClauseConfig] = None,
        seed: int = 0,
    ):
        self.sample_size = int(sample_size)
        self.min_precision = float(min_precision)
        self.min_positives = int(min_positives)
        self.max_clauses = int(max_clauses)
        self.max_clause_literals = int(max_clause_literals)
        self.bottom_clause = bottom_clause or BottomClauseConfig(max_depth=2)
        self.seed = int(seed)


class _GolemClauseLearner:
    """LearnClause: pairwise rlgg of sampled saturations, then greedy extension."""

    learner_label = "Golem"

    def __init__(self, parameters: GolemParameters, coverage: SubsumptionCoverageEngine):
        self.parameters = parameters
        self.coverage = coverage
        self._rng = random.Random(parameters.seed)

    def learn_clause(
        self,
        instance: DatabaseInstance,
        uncovered_positives: Sequence[Example],
        negatives: Sequence[Example],
    ) -> Optional[HornClause]:
        if not uncovered_positives:
            return None
        sample = list(uncovered_positives)
        self._rng.shuffle(sample)
        sample = sample[: max(2, self.parameters.sample_size)]
        # The sampled saturations feed every pairwise rlgg below; build them
        # as one batch instead of a per-example loop.
        with obs_span(
            "learn.saturate", learner=self.learner_label, examples=len(sample)
        ):
            self.coverage.prepare(sample)

        candidates: List[HornClause] = []
        for i in range(len(sample)):
            for j in range(i + 1, len(sample)):
                candidate = self._pair_rlgg(sample[i], sample[j])
                if candidate is not None:
                    candidates.append(candidate)
        if not candidates and sample:
            # Fall back to the (variablized) saturation of a single example so
            # that at least a most-specific clause can be returned.
            single = self.coverage.saturation(sample[0])
            candidates.append(single)

        with obs_span(
            "learn.score", learner=self.learner_label, candidates=len(candidates)
        ):
            acceptable = [
                c
                for c in candidates
                if self._acceptable(c, uncovered_positives, negatives)
            ]
            if not acceptable:
                return None

            best = max(
                acceptable,
                key=lambda c: self.coverage.evaluate(
                    c, list(uncovered_positives), list(negatives)
                ).coverage_score(),
            )
        remaining = [e for e in sample if not self.coverage.covers(best, e)]

        improved = True
        while improved and remaining:
            improved = False
            for example in list(remaining):
                extended = lgg_clauses(
                    best,
                    self.coverage.saturation(example),
                    max_body_literals=self.parameters.max_clause_literals,
                )
                if extended is None:
                    continue
                extended = HornClause(extended.head, extended.head_connected_body())
                if not self._acceptable(extended, uncovered_positives, negatives):
                    continue
                old_score = self.coverage.evaluate(
                    best, list(uncovered_positives), list(negatives)
                ).coverage_score()
                new_score = self.coverage.evaluate(
                    extended, list(uncovered_positives), list(negatives)
                ).coverage_score()
                if new_score > old_score:
                    best = extended
                    remaining.remove(example)
                    improved = True
        with obs_span("learn.reduce", learner=self.learner_label):
            return minimize_clause(best)

    # ------------------------------------------------------------------ #
    def _pair_rlgg(self, first: Example, second: Example) -> Optional[HornClause]:
        saturation_first = self.coverage.saturation(first)
        saturation_second = self.coverage.saturation(second)
        return rlgg(
            saturation_first,
            saturation_second,
            max_body_literals=self.parameters.max_clause_literals,
        )

    def _acceptable(
        self,
        clause: HornClause,
        positives: Sequence[Example],
        negatives: Sequence[Example],
    ) -> bool:
        if not clause.body or not clause.is_safe():
            return False
        result = self.coverage.evaluate(clause, list(positives), list(negatives))
        if result.positives_covered < self.parameters.min_positives:
            return False
        return result.precision() >= self.parameters.min_precision


class GolemLearner(EvaluationKnobs):
    """Public Golem learner: rlgg-based bottom-up induction."""

    name = "Golem"

    def __init__(
        self,
        schema: Schema,
        parameters: Optional[GolemParameters] = None,
    ):
        self.schema = schema
        self.parameters = parameters or GolemParameters()

    def learn(self, instance: DatabaseInstance, examples: ExampleSet) -> HornDefinition:
        coverage = SubsumptionCoverageEngine(
            instance,
            self.parameters.bottom_clause,
            saturation_store=self.saturation_store,
        )
        clause_learner = _GolemClauseLearner(self.parameters, coverage)
        covering = CoveringLearner(
            clause_learner,
            coverage_fn=coverage.covered_examples,
            coverage_mask_fn=coverage.covered_mask,
            precision_fn=lambda clause, pos, neg: precision(
                len(coverage.covered_examples(clause, pos)),
                len(coverage.covered_examples(clause, neg)),
            ),
            parameters=CoveringParameters(
                min_precision=self.parameters.min_precision,
                min_positives=self.parameters.min_positives,
                max_clauses=self.parameters.max_clauses,
            ),
        )
        return covering.learn(instance, examples)
