"""Regression: budget exhaustion must be observable, not silent.

Exhausting the backtrack budget conservatively reports "does not subsume";
before the ``subsumption.budget_exhausted`` counter existed that outcome was
indistinguishable from a genuine negative verdict.  These tests pin the
counter (and the warn-once) for both engines on a pathological clause pair
that a tiny budget cannot decide.
"""

import warnings

import pytest

from repro.logic.atoms import Atom
from repro.logic.clauses import HornClause
from repro.logic.subsumption import SubsumptionEngine, budget_exhausted_count
from repro.logic.terms import Constant, Variable
from repro.obs import registry
from tests.logic.reference_subsumption import ReferenceSubsumptionEngine


def pathological_pair():
    """A variable-chain pattern against a 12-tuple ground cycle.

    The true verdict is positive (a 6-edge path maps into the cycle), but
    every literal after the first costs candidate trials, so a
    single-backtrack budget exhausts immediately.
    """
    variables = [Variable(f"X{i}") for i in range(7)]
    general = HornClause(
        Atom("t", [variables[0]]),
        [Atom("edge", [variables[i], variables[i + 1]]) for i in range(6)],
    )
    body = [
        Atom("edge", [Constant(f"n{i}"), Constant(f"n{(i + 1) % 12}")])
        for i in range(12)
    ]
    specific = HornClause(Atom("t", [Constant("n0")]), body)
    return general, specific


@pytest.mark.parametrize(
    "engine_class", [SubsumptionEngine, ReferenceSubsumptionEngine]
)
def test_exhaustion_increments_counter(engine_class):
    general, specific = pathological_pair()
    # Sanity: with a generous budget the pair IS decidable (positively).
    assert engine_class(max_backtracks=1_000_000).subsumes(general, specific)

    engine = engine_class(max_backtracks=1)
    before = budget_exhausted_count()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert engine.subsumes(general, specific) is False
    assert budget_exhausted_count() == before + 1

    # Counter reads through the registry too (one series, no labels).
    assert (
        registry().counter("subsumption.budget_exhausted").value
        == budget_exhausted_count()
    )


def test_no_count_when_budget_suffices():
    general, specific = pathological_pair()
    before = budget_exhausted_count()
    assert SubsumptionEngine(max_backtracks=1_000_000).subsumes(general, specific)
    assert budget_exhausted_count() == before
