"""The reference θ-subsumption engine: the executable specification.

:class:`ReferenceSubsumptionEngine` is the original recursive,
Term-at-a-time engine.  The production kernel
(:class:`~repro.logic.subsumption.SubsumptionEngine`) is validated against
it pair by pair by the property suite, and the subsumption microbench
(``benchmarks/bench_subsumption.py``) times the two side by side.  Nothing in
the library uses it, so it lives with the tests.

:class:`ReferenceClauseIndex` holds the Term-level views the reference engine
searches: the specific clause's body literals keyed by predicate and by
``(predicate, arity, position, term)``.  Both views are built lazily on the
first candidate lookup, so a sweep over prebuilt indexes still pays for them
inside the timed region, as the engine did when they were views of the
interned index.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.logic.atoms import Atom
from repro.logic.clauses import HornClause
from repro.logic.substitution import Substitution, match_atom_to_ground
from repro.logic.subsumption import _note_budget_exhausted
from repro.logic.terms import Term, Variable


class ReferenceClauseIndex:
    """Term-level hash index over the body literals of a (ground) clause."""

    __slots__ = ("clause", "_by_predicate", "_by_position")

    def __init__(self, clause: HornClause):
        self.clause = clause
        self._by_predicate: Optional[Dict[Tuple[str, int], List[Atom]]] = None
        self._by_position: Optional[Dict[Tuple[str, int, int, Term], List[Atom]]] = None

    def _build(self) -> None:
        by_predicate: Dict[Tuple[str, int], List[Atom]] = {}
        by_position: Dict[Tuple[str, int, int, Term], List[Atom]] = {}
        for atom in self.clause.body:
            key = (atom.predicate, atom.arity)
            by_predicate.setdefault(key, []).append(atom)
            for position, term in enumerate(atom.terms):
                by_position.setdefault(
                    (atom.predicate, atom.arity, position, term), []
                ).append(atom)
        self._by_predicate = by_predicate
        self._by_position = by_position

    @property
    def by_predicate(self) -> Dict[Tuple[str, int], List[Atom]]:
        if self._by_predicate is None:
            self._build()
        return self._by_predicate  # type: ignore[return-value]

    @property
    def by_position(self) -> Dict[Tuple[str, int, int, Term], List[Atom]]:
        if self._by_position is None:
            self._build()
        return self._by_position  # type: ignore[return-value]

    def candidates(self, pattern: Atom, theta: Substitution) -> List[Atom]:
        """Literals that could match ``pattern`` under the current bindings.

        Every pattern argument that is a constant or an already-bound variable
        narrows the candidate set through the positional index; the smallest
        such set is returned (unfiltered arguments are checked later by the
        full match).
        """
        key = (pattern.predicate, pattern.arity)
        best = self.by_predicate.get(key)
        if best is None:
            return []
        for position, term in enumerate(pattern.terms):
            if isinstance(term, Variable):
                term = theta.get(term)
                if term is None:
                    continue
            narrowed = self.by_position.get(
                (pattern.predicate, pattern.arity, position, term)
            )
            if narrowed is None:
                return []
            if len(narrowed) < len(best):
                best = narrowed
        return best


class ReferenceSubsumptionEngine:
    """The original recursive, Term-at-a-time engine (executable spec).

    Kept verbatim as the baseline the fast kernel is validated and benched
    against: identical public API, identical verdicts (modulo backtrack
    budget accounting, which both engines report conservatively).
    """

    def __init__(self, max_backtracks: int = 5_000):
        self.max_backtracks = int(max_backtracks)

    def subsumes(
        self,
        general: HornClause,
        specific: HornClause,
        index: Optional[ReferenceClauseIndex] = None,
    ) -> bool:
        """Return True when ``general`` θ-subsumes ``specific``."""
        return self.subsumption_substitution(general, specific, index) is not None

    def subsumption_substitution(
        self,
        general: HornClause,
        specific: HornClause,
        index: Optional[ReferenceClauseIndex] = None,
    ) -> Optional[Substitution]:
        """Return a witnessing substitution θ with ``general·θ ⊆ specific``."""
        theta = match_atom_to_ground(general.head, specific.head)
        if theta is None:
            return None
        body = list(general.body)
        if not body:
            return theta
        if index is None or index.clause is not specific:
            index = ReferenceClauseIndex(specific)
        budget = [self.max_backtracks]
        result = self._search(body, index, theta, budget)
        if result is None and budget[0] <= 0:
            _note_budget_exhausted(self.max_backtracks)
        return result

    def covers_example(
        self,
        clause: HornClause,
        ground_bottom: HornClause,
        index: Optional[ReferenceClauseIndex] = None,
    ) -> bool:
        """Coverage test used by bottom-up learners (Section 7.5.3)."""
        return self.subsumes(clause, ground_bottom, index)

    def equivalent(self, a: HornClause, b: HornClause) -> bool:
        """Clause equivalence under θ-subsumption (both directions)."""
        return self.subsumes(a, b) and self.subsumes(b, a)

    # ------------------------------------------------------------------ #
    # Search internals
    # ------------------------------------------------------------------ #
    def _search(
        self,
        remaining: List[Atom],
        index: ReferenceClauseIndex,
        theta: Substitution,
        budget: List[int],
    ) -> Optional[Substitution]:
        if not remaining:
            return theta

        # Dynamic most-constrained-first selection: the literal with the
        # fewest candidates under the current bindings is matched next, which
        # both detects dead ends early and keeps the branching factor small.
        best_position = 0
        best_candidates: Optional[List[Atom]] = None
        for position, pattern in enumerate(remaining):
            candidates = index.candidates(pattern, theta)
            if not candidates:
                return None
            if best_candidates is None or len(candidates) < len(best_candidates):
                best_candidates = candidates
                best_position = position
                if len(candidates) == 1:
                    break

        pattern = remaining[best_position]
        rest = remaining[:best_position] + remaining[best_position + 1 :]
        for candidate in best_candidates or []:
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            extended = match_atom_to_ground(pattern, candidate, theta)
            if extended is None:
                continue
            result = self._search(rest, index, extended, budget)
            if result is not None:
                return result
        return None
