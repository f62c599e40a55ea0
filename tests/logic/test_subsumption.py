"""Tests for repro.logic.subsumption (θ-subsumption engine).

Parser convention reminder: single lowercase letters (``x``, ``y``, ``p``) are
variables; multi-letter lowercase words (``alice``, ``paper1``) are constants.
"""

from repro.logic.parser import parse_clause
from repro.logic.subsumption import (
    GroundClauseIndex,
    SubsumptionEngine,
    clauses_equivalent,
    theta_subsumes,
)
from tests.logic.reference_subsumption import ReferenceClauseIndex


ENGINE = SubsumptionEngine()


class TestSubsumption:
    def test_clause_subsumes_itself(self):
        clause = parse_clause("t(x, y) :- r(x, z), s(z, y).")
        assert ENGINE.subsumes(clause, clause)

    def test_more_general_subsumes_specific(self):
        general = parse_clause("t(x) :- r(x, y).")
        specific = parse_clause("t(x) :- r(x, y), s(y).")
        assert ENGINE.subsumes(general, specific)
        assert not ENGINE.subsumes(specific, general)

    def test_variable_subsumes_constant(self):
        general = parse_clause("t(x) :- r(x, y).")
        specific = parse_clause("t(alice) :- r(alice, bob).")
        assert ENGINE.subsumes(general, specific)
        assert not ENGINE.subsumes(specific, general)

    def test_repeated_variable_constrains_match(self):
        general = parse_clause("t(x) :- r(x, x).")
        specific_match = parse_clause("t(alice) :- r(alice, alice).")
        specific_mismatch = parse_clause("t(alice) :- r(alice, bob).")
        assert ENGINE.subsumes(general, specific_match)
        assert not ENGINE.subsumes(general, specific_mismatch)

    def test_head_predicate_must_match(self):
        general = parse_clause("t(x) :- r(x).")
        other = parse_clause("u(alice) :- r(alice).")
        assert not ENGINE.subsumes(general, other)

    def test_different_body_predicate_blocks_subsumption(self):
        general = parse_clause("t(x) :- q(x).")
        specific = parse_clause("t(alice) :- r(alice).")
        assert not ENGINE.subsumes(general, specific)

    def test_coverage_of_ground_bottom_clause(self):
        candidate = parse_clause("advisedBy(x, y) :- publication(p, x), publication(p, y).")
        ground = parse_clause(
            "advisedBy(stud1, prof1) :- student(stud1), professor(prof1), "
            "publication(paper1, stud1), publication(paper1, prof1), publication(paper2, prof1)."
        )
        assert ENGINE.covers_example(candidate, ground)

    def test_non_covering_candidate(self):
        candidate = parse_clause("advisedBy(x, y) :- taughtBy(c, y, t), ta(c, x, t).")
        ground = parse_clause(
            "advisedBy(stud1, prof1) :- publication(paper1, stud1), publication(paper1, prof1)."
        )
        assert not ENGINE.covers_example(candidate, ground)

    def test_empty_body_subsumes_anything_with_matching_head(self):
        general = parse_clause("t(x).")
        specific = parse_clause("t(alice) :- r(alice), s(alice).")
        assert ENGINE.subsumes(general, specific)

    def test_substitution_witness_is_consistent(self):
        general = parse_clause("t(x) :- r(x, y), s(y).")
        specific = parse_clause("t(alice) :- r(alice, bob), s(bob), r(alice, carol).")
        theta = ENGINE.subsumption_substitution(general, specific)
        assert theta is not None
        applied = general.apply(theta)
        assert set(applied.body) <= set(specific.body)

    def test_backtracking_finds_consistent_assignment(self):
        # The candidate match r(alice, bob) does not extend to s; the engine
        # must backtrack and choose r(alice, carol).
        general = parse_clause("t(x) :- r(x, y), s(y).")
        specific = parse_clause("t(alice) :- r(alice, bob), r(alice, carol), s(carol).")
        assert ENGINE.subsumes(general, specific)

    def test_budget_exhaustion_is_conservative(self):
        tiny = SubsumptionEngine(max_backtracks=1)
        general = parse_clause("t(x) :- r(x, y), s(y).")
        specific = parse_clause("t(alice) :- r(alice, bob), r(alice, carol), s(carol).")
        # With an absurdly small budget the engine may miss the match, but it
        # must not crash and must return a boolean.
        assert tiny.subsumes(general, specific) in (True, False)

    def test_reusing_prebuilt_index(self):
        general = parse_clause("t(x) :- r(x, y), s(y).")
        specific = parse_clause("t(alice) :- r(alice, bob), s(bob).")
        index = GroundClauseIndex(specific)
        assert ENGINE.subsumes(general, specific, index)
        assert ENGINE.subsumes(general, specific, index)

    def test_index_candidates_filter_by_bound_positions(self):
        specific = parse_clause("t(alice) :- r(alice, bob), r(carol, dave).")
        index = ReferenceClauseIndex(specific)
        pattern = parse_clause("t(x) :- r(x, y).").body[0]
        from repro.logic.terms import Constant, Variable

        theta = {Variable("x"): Constant("carol")}
        candidates = index.candidates(pattern, theta)
        assert len(candidates) == 1
        assert candidates[0].terms[0] == Constant("carol")


class TestEquivalence:
    def test_variants_are_equivalent(self):
        first = parse_clause("t(x, y) :- r(x, z), r(y, z).")
        second = parse_clause("t(a, b) :- r(b, w), r(a, w).")
        assert clauses_equivalent(first, second)

    def test_clause_with_redundant_literal_is_equivalent(self):
        minimal = parse_clause("t(x) :- r(x, y).")
        redundant = parse_clause("t(x) :- r(x, y), r(x, z).")
        assert clauses_equivalent(minimal, redundant)

    def test_non_equivalent_clauses(self):
        first = parse_clause("t(x) :- r(x, y).")
        second = parse_clause("t(x) :- r(y, x).")
        assert not clauses_equivalent(first, second)

    def test_module_level_wrapper(self):
        general = parse_clause("t(x) :- r(x, y).")
        specific = parse_clause("t(alice) :- r(alice, bob).")
        assert theta_subsumes(general, specific)
