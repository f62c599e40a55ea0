"""Harness on session configs: session-only configuration, sharded
sessions, and cross-validation saturation-store reuse."""

from __future__ import annotations

import inspect

import pytest

from repro import LearningSession, SessionConfig
from repro.datasets import uwcse
from repro.experiments.harness import (
    LearnerSpec,
    check_schema_independence,
    run_schema_sweep,
    run_variant,
)
from repro.progolem.progolem import ProGolemLearner, ProGolemParameters
from repro.learning.bottom_clause import BottomClauseConfig


@pytest.fixture(scope="module")
def tiny_bundle():
    return uwcse.load(
        uwcse.UwCseConfig(num_students=10, num_professors=3, num_courses=5), seed=5
    )


def progolem_spec() -> LearnerSpec:
    def factory(schema):
        return ProGolemLearner(
            schema,
            ProGolemParameters(
                sample_size=2,
                beam_width=2,
                max_armg_rounds=2,
                max_clauses=4,
                bottom_clause=BottomClauseConfig(max_depth=2, max_total_literals=20),
            ),
        )

    return LearnerSpec("ProGolem", factory)


# --------------------------------------------------------------------- #
# The session is the only way to configure a harness run
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "entry_point", [run_variant, run_schema_sweep, check_schema_independence]
)
def test_harness_entry_points_take_no_evaluation_kwargs(entry_point):
    parameters = inspect.signature(entry_point).parameters
    knobs = {
        "backend", "parallelism", "shards", "reuse_saturation_store",
        "presaturate",
    }
    assert not set(parameters) & knobs
    if entry_point is check_schema_independence:
        # Learning is seeded by the learners' parameters, not the harness.
        assert "seed" not in parameters
    assert "session" in parameters


def test_run_variant_without_session_opens_a_default_session(tiny_bundle):
    variant = tiny_bundle.variant_names[0]
    alone = run_variant(tiny_bundle, variant, progolem_spec(), folds=2)
    with LearningSession() as session:
        default = run_variant(
            tiny_bundle, variant, progolem_spec(), folds=2, session=session
        )
    assert as_key(alone) == as_key(default)


# --------------------------------------------------------------------- #
# Sharded sessions through the harness entry points
# --------------------------------------------------------------------- #
def test_run_variant_on_sharded_backend(tiny_bundle):
    variant = tiny_bundle.variant_names[0]
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        baseline = run_variant(
            tiny_bundle, variant, progolem_spec(), folds=2, session=session
        )
    sharded_config = SessionConfig(backend="sqlite", shards=2)
    with LearningSession(sharded_config) as session:
        sharded = run_variant(
            tiny_bundle, variant, progolem_spec(), folds=2, session=session
        )
    assert sharded.precision == baseline.precision
    assert sharded.recall == baseline.recall
    assert sharded.f1 == baseline.f1


def test_check_schema_independence_on_sharded_backend(tiny_bundle):
    variants = tiny_bundle.variant_names[:2]
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        baseline = check_schema_independence(
            tiny_bundle, progolem_spec(), variants=variants, session=session
        )
    with LearningSession(SessionConfig(backend="sqlite", shards=2)) as session:
        sharded = check_schema_independence(
            tiny_bundle, progolem_spec(), variants=variants, session=session
        )
    assert sharded.result_sizes == baseline.result_sizes
    assert sharded.pairwise_equivalent == baseline.pairwise_equivalent


# --------------------------------------------------------------------- #
# Saturation-store reuse across folds
# --------------------------------------------------------------------- #
def run_on_sqlite(bundle, spec, folds, **config):
    """``run_variant`` on the first variant through a sqlite session."""
    with LearningSession(SessionConfig(backend="sqlite", **config)) as session:
        return run_variant(
            bundle, bundle.variant_names[0], spec, folds=folds, session=session
        )


def as_key(result):
    definition = result.definition
    clauses = sorted(str(c) for c in definition) if definition else []
    return (
        round(result.precision, 9),
        round(result.recall, 9),
        round(result.f1, 9),
        result.folds,
        clauses,
    )


def test_fold_results_identical_with_and_without_store_reuse(tiny_bundle):
    """Satellite: reusing one SaturationStore across folds changes timing
    only — metrics and learned definitions are identical."""
    fresh = run_on_sqlite(
        tiny_bundle, progolem_spec(), 3, reuse_saturation_store=False
    )
    reused = run_on_sqlite(
        tiny_bundle, progolem_spec(), 3, reuse_saturation_store=True
    )
    assert as_key(fresh) == as_key(reused)


def test_store_is_shared_across_fold_learners(tiny_bundle):
    """The factory hands every fold learner the same store object."""
    from repro.database.sqlite_backend import SaturationStore

    spec = progolem_spec()
    seen = []
    original_factory = spec.factory

    def spying_factory(schema_arg):
        learner = original_factory(schema_arg)
        seen.append(learner)
        return learner

    spec.factory = spying_factory
    run_on_sqlite(tiny_bundle, spec, 2, reuse_saturation_store=True)
    stores = {id(learner.saturation_store) for learner in seen}
    assert len(seen) >= 2, "cross-validation should build one learner per fold"
    assert len(stores) == 1
    assert isinstance(seen[0].saturation_store, SaturationStore)
