"""Conjunctive-query (Horn clause) evaluation over database instances.

``evaluate_clause`` computes the result of applying a Horn clause to a
database instance: the set of head-tuple instantiations whose body is
satisfied by the instance (the paper's ``h_R(I)``, Section 3.2.2).  The
evaluator is a backtracking index-nested-loop join that consults the relation
hash indexes for every bound position, so selective constants and join
variables prune early.

The same machinery powers:
* labeling examples from a hidden ground-truth definition (datasets),
* definition-equivalence checks across schema transformations,
* FOIL's coverage counts over the extensional database.

When the instance's backend supports compiled queries (the SQLite backend),
the evaluator delegates to single set-at-a-time SQL statements instead of
the Python backtracking join; bodies the backend cannot compile fall back
to the generic path transparently.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..logic.atoms import Atom
from ..logic.clauses import HornClause, HornDefinition
from ..logic.terms import Constant, Term, Variable
from .instance import DatabaseInstance
from .sqlite_backend import CompilationNotSupported

Binding = Dict[Variable, object]


class QueryEvaluator:
    """Evaluate Horn clauses / definitions against a :class:`DatabaseInstance`."""

    def __init__(self, instance: DatabaseInstance, max_results: Optional[int] = None):
        self.instance = instance
        self.max_results = max_results
        backend = getattr(instance, "backend", None)
        self._compiled = (
            backend
            if backend is not None
            and getattr(backend, "supports_compiled_queries", False)
            else None
        )

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def evaluate_clause(self, clause: HornClause) -> Set[Tuple[object, ...]]:
        """All head tuples produced by ``clause`` on the instance.

        Unsafe clauses (head variables not bound by the body) raise
        ``ValueError`` because their result would be infinite (Section 7.3).
        """
        if not clause.is_safe():
            raise ValueError(f"cannot evaluate unsafe clause: {clause}")
        if self._compiled is not None and clause.body:
            try:
                return self._compiled.head_tuples(clause, self.max_results)
            except CompilationNotSupported:
                pass
        results: Set[Tuple[object, ...]] = set()
        for binding in self.bindings_for_body(clause.body):
            head_tuple = tuple(
                self._term_value(term, binding) for term in clause.head.terms
            )
            results.add(head_tuple)
            if self.max_results is not None and len(results) >= self.max_results:
                break
        return results

    def evaluate_definition(self, definition: HornDefinition) -> Set[Tuple[object, ...]]:
        """Union of the results of every clause in the definition."""
        results: Set[Tuple[object, ...]] = set()
        for clause in definition:
            results |= self.evaluate_clause(clause)
        return results

    def body_is_satisfiable(self, body: Sequence[Atom], binding: Optional[Binding] = None) -> bool:
        """True when the body has at least one satisfying assignment."""
        if self._compiled is not None:
            try:
                return self._compiled.satisfiable(body, binding)
            except CompilationNotSupported:
                pass
        for _ in self.bindings_for_body(body, binding):
            return True
        return False

    def clause_covers_tuple(
        self, clause: HornClause, head_values: Sequence[object]
    ) -> bool:
        """True when ``clause`` derives the given head tuple on the instance.

        Head variables are bound to the given values; head constants must
        match.  This is the "does clause C cover example e" question answered
        extensionally (as opposed to via θ-subsumption of saturations).
        """
        if len(head_values) != clause.head.arity:
            return False
        binding: Binding = {}
        for term, value in zip(clause.head.terms, head_values):
            if isinstance(term, Constant):
                if term.value != value:
                    return False
            else:
                existing = binding.get(term)
                if existing is not None and existing != value:
                    return False
                binding[term] = value
        return self.body_is_satisfiable(clause.body, binding)

    def definition_covers_tuple(
        self, definition: HornDefinition, head_values: Sequence[object]
    ) -> bool:
        """True when any clause of the definition derives the head tuple."""
        return any(
            self.clause_covers_tuple(clause, head_values) for clause in definition
        )

    def covered_tuples(
        self, clause: HornClause, candidates: Sequence[Sequence[object]]
    ) -> Set[Tuple[object, ...]]:
        """The subset of candidate head tuples the clause derives.

        On backends with compiled queries this is **one** set-at-a-time
        statement for the whole candidate list (the stored-procedure analogue
        of Section 7.5.2); otherwise it loops ``clause_covers_tuple``.
        """
        if self._compiled is not None:
            try:
                return self._compiled.covered_head_tuples(clause, candidates)
            except CompilationNotSupported:
                pass
        return {
            tuple(candidate)
            for candidate in candidates
            if self.clause_covers_tuple(clause, candidate)
        }

    def covered_tuples_batch(
        self,
        clauses: Sequence[HornClause],
        candidates: Sequence[Sequence[object]],
    ) -> List[Set[Tuple[object, ...]]]:
        """Per-clause covered candidate sets for a whole batch of clauses.

        Backends exposing ``covered_head_tuples_batch`` (the SQLite family)
        answer the batch with one shared candidate temp table per head
        signature.  Clauses the backend
        cannot compile fall back to :meth:`covered_tuples` individually.
        Results are returned in input order.
        """
        clause_list = list(clauses)
        batch = getattr(self._compiled, "covered_head_tuples_batch", None)
        if batch is not None:
            try:
                partial = batch(clause_list, candidates)
            except CompilationNotSupported:
                partial = [None] * len(clause_list)
        else:
            partial = [None] * len(clause_list)
        return [
            covered if covered is not None else self.covered_tuples(clause, candidates)
            for clause, covered in zip(clause_list, partial)
        ]

    def count_bindings(self, body: Sequence[Atom], limit: Optional[int] = None) -> int:
        """Number of satisfying assignments of the body (used by FOIL's gain)."""
        if self._compiled is not None:
            try:
                return self._compiled.count_bindings(body, limit)
            except CompilationNotSupported:
                pass
        count = 0
        for _ in self.bindings_for_body(body):
            count += 1
            if limit is not None and count >= limit:
                break
        return count

    # ------------------------------------------------------------------ #
    # Core join
    # ------------------------------------------------------------------ #
    def bindings_for_body(
        self, body: Sequence[Atom], initial: Optional[Binding] = None
    ) -> Iterator[Binding]:
        """Generate all variable bindings satisfying every body atom.

        Atoms are evaluated in an order chosen greedily: at each step the atom
        with the most bound arguments (and smallest relation as tie-break) is
        evaluated next, which keeps intermediate result sizes small.  On
        compiled backends the enumeration runs as a single SQL statement.
        """
        if self._compiled is not None:
            try:
                yield from self._compiled.iter_bindings(body, initial)
                return
            except CompilationNotSupported:
                pass
        remaining = list(body)
        order = self._plan(remaining, set((initial or {}).keys()))
        yield from self._join(order, 0, dict(initial or {}))

    def _plan(self, body: List[Atom], bound: Set[Variable]) -> List[Atom]:
        """Greedy join ordering: most-bound, smallest-relation atom first."""
        remaining = list(body)
        ordered: List[Atom] = []
        bound_vars = set(bound)
        while remaining:
            def score(atom: Atom) -> Tuple[int, int]:
                atom_vars = atom.variables()
                unbound = sum(1 for v in atom_vars if v not in bound_vars)
                try:
                    relation_size = len(self.instance.relation(atom.predicate))
                except KeyError:
                    relation_size = 0
                return (unbound, relation_size)

            best = min(remaining, key=score)
            remaining.remove(best)
            ordered.append(best)
            bound_vars |= set(best.variables())
        return ordered

    def _join(
        self, body: List[Atom], position: int, binding: Binding
    ) -> Iterator[Binding]:
        if position == len(body):
            yield dict(binding)
            return
        atom = body[position]
        try:
            relation = self.instance.relation(atom.predicate)
        except KeyError:
            return
        if relation.schema.arity != atom.arity:
            return
        positional_constraints: Dict[int, object] = {}
        for index, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                positional_constraints[index] = term.value
            elif term in binding:
                positional_constraints[index] = binding[term]
        for row in relation.tuples_matching(positional_constraints):
            extended = dict(binding)
            consistent = True
            for index, term in enumerate(atom.terms):
                if isinstance(term, Variable):
                    existing = extended.get(term)
                    if existing is None:
                        extended[term] = row[index]
                    elif existing != row[index]:
                        consistent = False
                        break
            if consistent:
                yield from self._join(body, position + 1, extended)

    @staticmethod
    def _term_value(term: Term, binding: Binding) -> object:
        if isinstance(term, Constant):
            return term.value
        value = binding.get(term)
        if value is None and term not in binding:
            raise KeyError(f"unbound head variable {term}")
        return value


def evaluate_definition(
    instance: DatabaseInstance, definition: HornDefinition
) -> Set[Tuple[object, ...]]:
    """Convenience wrapper: result of a definition on an instance."""
    return QueryEvaluator(instance).evaluate_definition(definition)


def evaluate_clause(
    instance: DatabaseInstance, clause: HornClause
) -> Set[Tuple[object, ...]]:
    """Convenience wrapper: result of a single clause on an instance."""
    return QueryEvaluator(instance).evaluate_clause(clause)
