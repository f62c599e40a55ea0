"""Kernel-vs-reference parity for the θ-subsumption engines.

The interned, explicit-stack :class:`~repro.logic.subsumption.SubsumptionEngine`
must be an observationally identical drop-in for the original recursive
``ReferenceSubsumptionEngine`` (``tests/logic/reference_subsumption.py``):
same verdicts
on random clause pairs (hypothesis) and on realistic UW-CSE saturation
workloads, and every positive verdict must come with a *valid* witness
substitution (applying it maps the general clause into the specific one).
Generous backtrack budgets keep both engines inside exact territory, where
decisions are uniquely determined.
"""

from hypothesis import given, settings, strategies as st
import pytest

from repro.datasets import uwcse
from repro.learning.bottom_clause import BottomClauseBuilder, BottomClauseConfig
from repro.logic.atoms import Atom
from repro.logic.clauses import HornClause
from repro.logic.lgg import lgg_clauses
from repro.logic.subsumption import GroundClauseIndex, SubsumptionEngine
from repro.logic.terms import Constant, Variable
from tests.logic.reference_subsumption import (
    ReferenceClauseIndex,
    ReferenceSubsumptionEngine,
)

BUDGET = 2_000_000
KERNEL = SubsumptionEngine(max_backtracks=BUDGET)
REFERENCE = ReferenceSubsumptionEngine(max_backtracks=BUDGET)

predicates = st.sampled_from(["p", "q", "r"])
constants = st.integers(min_value=0, max_value=5).map(lambda i: Constant(f"c{i}"))
variables = st.integers(min_value=0, max_value=4).map(lambda i: Variable(f"x{i}"))
terms = st.one_of(constants, variables)


def atom_strategy(term_strategy):
    return st.builds(
        lambda predicate, args: Atom(predicate, args),
        predicates,
        st.lists(term_strategy, min_size=1, max_size=2),
    )


general_clauses = st.builds(
    lambda head_terms, body: HornClause(Atom("t", head_terms), body),
    st.lists(terms, min_size=1, max_size=2),
    st.lists(atom_strategy(terms), min_size=0, max_size=5),
)
specific_clauses = st.builds(
    lambda head_terms, body: HornClause(Atom("t", head_terms), body),
    st.lists(constants, min_size=1, max_size=2),
    st.lists(atom_strategy(constants), min_size=0, max_size=6),
)


def assert_witness_valid(theta, general, specific):
    """θ must map the general clause inside the specific one."""
    mapped_head = general.head.apply(theta)
    assert mapped_head == specific.head, (mapped_head, specific.head)
    specific_body = set(specific.body)
    for literal in general.body:
        mapped = literal.apply(theta)
        assert mapped in specific_body, (literal, mapped)


class TestKernelMatchesReferenceRandom:
    @settings(max_examples=300, deadline=None)
    @given(general_clauses, specific_clauses)
    def test_identical_verdicts_and_valid_witnesses(self, general, specific):
        reference_verdict = REFERENCE.subsumes(general, specific)
        witness = KERNEL.subsumption_substitution(general, specific)
        assert (witness is not None) == reference_verdict
        if witness is not None:
            assert_witness_valid(witness, general, specific)

    @settings(max_examples=120, deadline=None)
    @given(general_clauses, general_clauses)
    def test_identical_verdicts_on_non_ground_pairs(self, first, second):
        assert KERNEL.subsumes(first, second) == REFERENCE.subsumes(first, second)
        assert KERNEL.equivalent(first, second) == REFERENCE.equivalent(first, second)

    @settings(max_examples=120, deadline=None)
    @given(general_clauses)
    def test_kernel_is_reflexive(self, clause):
        witness = KERNEL.subsumption_substitution(clause, clause)
        assert witness is not None


@pytest.fixture(scope="module")
def uwcse_workload():
    """Recorded saturations + LGG candidates from a quick UW-CSE instance."""
    config = uwcse.UwCseConfig(num_students=14, num_professors=6, num_courses=9)
    bundle = uwcse.load(config, seed=3)
    instance = bundle.instance(bundle.variant_names[0])
    builder = BottomClauseBuilder(
        instance, BottomClauseConfig(max_depth=2, max_total_literals=18)
    )
    saturations = [
        clause
        for clause in (
            builder.build(e) for e in bundle.examples.all_examples()[:10]
        )
        if clause.body
    ]
    assert len(saturations) >= 4, "workload must produce usable saturations"
    candidates = []
    for i in range(min(5, len(saturations))):
        for j in range(i + 1, min(5, len(saturations))):
            generalized = lgg_clauses(saturations[i], saturations[j])
            if generalized is not None and generalized.body:
                candidates.append(generalized)
    assert candidates, "workload must produce LGG candidates"
    return saturations, candidates


class TestKernelMatchesReferenceOnUwCse:
    def test_identical_verdicts_on_saturation_pairs(self, uwcse_workload):
        saturations, candidates = uwcse_workload
        indexes = [GroundClauseIndex(s) for s in saturations]
        reference_indexes = [ReferenceClauseIndex(s) for s in saturations]
        checked = positive = 0
        for candidate in candidates:
            for saturation, index, reference_index in zip(
                saturations, indexes, reference_indexes
            ):
                reference_verdict = REFERENCE.subsumes(
                    candidate, saturation, reference_index
                )
                witness = KERNEL.subsumption_substitution(
                    candidate, saturation, index
                )
                assert (witness is not None) == reference_verdict, (
                    candidate,
                    saturation,
                )
                if witness is not None:
                    positive += 1
                    assert_witness_valid(witness, candidate, saturation)
                checked += 1
        assert checked >= 16
        # The workload must exercise BOTH verdicts or the parity is vacuous.
        assert 0 < positive < checked

    def test_shared_index_matches_fresh_index(self, uwcse_workload):
        saturations, candidates = uwcse_workload
        candidate = candidates[0]
        for saturation in saturations:
            shared = GroundClauseIndex(saturation)
            first = KERNEL.subsumes(candidate, saturation, shared)
            second = KERNEL.subsumes(candidate, saturation, shared)
            fresh = KERNEL.subsumes(candidate, saturation)
            assert first == second == fresh
