"""θ-subsumption engine (the role played by Resumer2 in the paper).

Clause ``C`` θ-subsumes clause ``D`` iff there is a substitution θ such that
``Cθ ⊆ D`` (comparing head to head and body literals to body literals as
sets).  Coverage testing in bottom-up learners reduces to θ-subsumption
between a candidate clause and the *ground bottom clause* of an example
(Section 7.5.3), so this module is the hottest path of the whole library.

:class:`SubsumptionEngine` is the production kernel.  Terms and predicates
of the specific clause are **interned to integer ids** once per
:class:`GroundClauseIndex`, so the inner matching loop compares plain ints
instead of hashing :class:`~repro.logic.terms.Term` objects; bindings live
in a flat slot array with trail-based undo (no per-candidate substitution
dict copies); the backtracking search runs on an **explicit stack** (no
recursion, no ``remaining[:i] + remaining[i+1:]`` list churn); the general
clause's body is decomposed into **variable-connected components** solved
independently (a product of small searches instead of one big one); and
candidate lists are **memoized per (pattern, bound-profile)** within a
search.  Decisions are identical to the original recursive engine (kept
with the tests as the executable specification) whenever the backtrack
budget is not exhausted.

The kernel searches a :class:`GroundClauseIndex` — a hash index over the
specific clause's literals keyed by predicate and by ``(predicate, position,
term)`` — so that once some variables are bound, the remaining candidates
are retrieved by index lookup instead of scanning (this mirrors how the
paper's VoltDB-backed coverage tests exploit RDBMS indexes).  It uses
dynamic most-constrained-first literal selection and a backtrack budget so
pathological clauses cannot stall a learning run; exhausting the budget
conservatively reports "does not subsume", increments the
``subsumption.budget_exhausted`` registry counter, and warns once per
process.
"""

from __future__ import annotations

import threading
import warnings
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import registry as obs_registry
from .atoms import Atom
from .clauses import HornClause
from .substitution import Substitution, match_atom_to_ground
from .terms import Term, Variable


class _EncodedClause:
    """A general clause compiled against one index's intern tables.

    ``patterns[i]`` is ``(pred_id, codes, var_slots)`` for the i-th body
    literal: ``codes`` holds one int per argument — a non-negative interned
    term id for constants, ``-(slot + 1)`` for variables — and ``var_slots``
    the distinct variable slots the literal mentions (the memo profile).
    ``components`` groups body-literal positions into variable-connected
    components; literals in different components share no free variable, so
    the search solves each independently.
    """

    __slots__ = (
        "satisfiable",
        "var_count",
        "head_slot_items",
        "slot_items",
        "patterns",
        "components",
    )

    def __init__(
        self,
        satisfiable: bool,
        var_count: int = 0,
        head_slot_items: Tuple[Tuple[Variable, int], ...] = (),
        slot_items: Tuple[Tuple[Variable, int], ...] = (),
        patterns: Tuple[Tuple[int, Tuple[int, ...], Tuple[int, ...]], ...] = (),
        components: Tuple[Tuple[int, ...], ...] = (),
    ):
        self.satisfiable = satisfiable
        self.var_count = var_count
        self.head_slot_items = head_slot_items
        self.slot_items = slot_items
        self.patterns = patterns
        self.components = components


_UNSATISFIABLE = _EncodedClause(False)


class _ClauseShape:
    """The index-independent part of a general clause's encoding.

    Variable slot numbering, literal patterns, and the variable-connected
    components depend only on the clause itself, so they are computed once
    per clause (module-level LRU) and shared by every index the clause is
    tested against; :meth:`GroundClauseIndex._build_encoding` only has to
    translate predicate keys and constants into that index's intern ids.
    ``patterns[i]`` is ``(pred_key, codes, var_slots)`` with variables coded
    as ``-(slot + 1)`` and constants as non-negative positions into
    ``constants``.
    """

    __slots__ = (
        "var_count",
        "head_slot_count",
        "slot_items",
        "constants",
        "patterns",
        "components",
    )

    def __init__(self, general: HornClause):
        slot_of: Dict[Variable, int] = {}
        for term in general.head.terms:
            if isinstance(term, Variable) and term not in slot_of:
                slot_of[term] = len(slot_of)
        head_slot_count = len(slot_of)
        constant_of: Dict[Term, int] = {}
        constants: List[Term] = []
        patterns: List[Tuple[Tuple[str, int], Tuple[int, ...], Tuple[int, ...]]] = []
        for atom in general.body:
            codes: List[int] = []
            var_slots: List[int] = []
            for term in atom.terms:
                if isinstance(term, Variable):
                    slot = slot_of.get(term)
                    if slot is None:
                        slot = slot_of[term] = len(slot_of)
                    codes.append(-(slot + 1))
                    if slot not in var_slots:
                        var_slots.append(slot)
                else:
                    position = constant_of.get(term)
                    if position is None:
                        position = constant_of[term] = len(constants)
                        constants.append(term)
                    codes.append(position)
            patterns.append(
                ((atom.predicate, len(atom.terms)), tuple(codes), tuple(var_slots))
            )

        # Variable-connected components over *free* (non-head) slots: head
        # slots are bound before the search starts, so sharing one does not
        # couple two literals.
        parent = list(range(len(patterns)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        slot_owner: Dict[int, int] = {}
        for i, (_, _, var_slots) in enumerate(patterns):
            for slot in var_slots:
                if slot < head_slot_count:
                    continue
                owner = slot_owner.get(slot)
                if owner is None:
                    slot_owner[slot] = i
                else:
                    root_a, root_b = find(i), find(owner)
                    if root_a != root_b:
                        parent[root_a] = root_b
        grouped: Dict[int, List[int]] = {}
        for i in range(len(patterns)):
            grouped.setdefault(find(i), []).append(i)
        self.var_count = len(slot_of)
        self.head_slot_count = head_slot_count
        self.slot_items = tuple(slot_of.items())
        self.constants = tuple(constants)
        self.patterns = tuple(patterns)
        self.components = tuple(
            tuple(group) for group in sorted(grouped.values(), key=lambda g: g[0])
        )


@lru_cache(maxsize=4096)
def _clause_shape(general: HornClause) -> _ClauseShape:
    return _ClauseShape(general)


class GroundClauseIndex:
    """Interned hash index over the body literals of a (typically ground) clause.

    Every term and predicate of the clause is interned to an integer id at
    construction; the positional index maps ``(pred_id, position, term_id)``
    to the literals whose ``position``-th argument is that term, so candidate
    retrieval and matching run entirely on ints.  Building the index once per
    saturation and reusing it across the many coverage tests of a learning
    run is the optimization that Castor's in-memory-RDBMS design point
    corresponds to.

    General clauses are compiled against the index's intern tables by
    :meth:`encode` (cached per clause — repeated tests of the same candidate
    against the same saturation skip re-encoding).
    """

    __slots__ = (
        "clause",
        "_term_ids",
        "_terms",
        "_pred_ids",
        "_atoms",
        "_atom_args",
        "_atoms_by_pred",
        "_pos_index",
        "_encoded",
        "_encode_lock",
    )

    def __init__(self, clause: HornClause):
        self.clause = clause
        term_ids: Dict[Term, int] = {}
        terms: List[Term] = []
        pred_ids: Dict[Tuple[str, int], int] = {}
        atoms: List[Atom] = []
        atom_args: List[Tuple[int, ...]] = []
        atoms_by_pred: Dict[int, List[int]] = {}
        pos_index: Dict[Tuple[int, int, int], List[int]] = {}
        for atom in clause.body:
            pred_key = (atom.predicate, len(atom.terms))
            pred_id = pred_ids.get(pred_key)
            if pred_id is None:
                pred_id = pred_ids[pred_key] = len(pred_ids)
            atom_index = len(atoms)
            atoms.append(atom)
            args = []
            for term in atom.terms:
                term_id = term_ids.get(term)
                if term_id is None:
                    term_id = len(terms)
                    terms.append(term)
                    term_ids[term] = term_id
                args.append(term_id)
            args_tuple = tuple(args)
            atom_args.append(args_tuple)
            atoms_by_pred.setdefault(pred_id, []).append(atom_index)
            for position, term_id in enumerate(args_tuple):
                pos_index.setdefault((pred_id, position, term_id), []).append(
                    atom_index
                )
        # Head terms are interned too: head matching binds general-clause
        # variables to them, and those bindings need stable ids even when the
        # term never occurs in the body (searches through such a binding then
        # fail via a positional-index miss, as they must).
        for term in clause.head.terms:
            if term not in term_ids:
                terms.append(term)
                term_ids[term] = len(terms) - 1
        self._term_ids = term_ids
        self._terms = terms
        self._pred_ids = pred_ids
        self._atoms = atoms
        self._atom_args = atom_args
        self._atoms_by_pred = atoms_by_pred
        self._pos_index = pos_index
        self._encoded: Dict[HornClause, _EncodedClause] = {}
        self._encode_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Interned representation
    # ------------------------------------------------------------------ #
    def intern_id(self, term: Term) -> int:
        """Stable integer id of ``term``, interning it on first sight.

        Terms absent from the indexed clause get fresh ids with no positional
        entries, so lookups through them fail exactly as Term-level matching
        would.
        """
        term_id = self._term_ids.get(term)
        if term_id is None:
            with self._encode_lock:
                term_id = self._term_ids.get(term)
                if term_id is None:
                    self._terms.append(term)
                    term_id = len(self._terms) - 1
                    self._term_ids[term] = term_id
        return term_id

    def encode(self, general: HornClause) -> _EncodedClause:
        """Compile ``general`` against this index's intern tables (cached)."""
        encoded = self._encoded.get(general)
        if encoded is None:
            with self._encode_lock:
                encoded = self._encoded.get(general)
                if encoded is None:
                    encoded = self._build_encoding(general)
                    self._encoded[general] = encoded
        return encoded

    def _build_encoding(self, general: HornClause) -> _EncodedClause:
        """Translate the clause's (cached) shape into this index's ids.

        Runs under ``_encode_lock`` (see :meth:`encode`), which also covers
        the interning of constants absent from the specific clause.
        """
        shape = _clause_shape(general)
        pred_ids = self._pred_ids
        term_ids = self._term_ids
        constant_ids: List[int] = []
        for term in shape.constants:
            term_id = term_ids.get(term)
            if term_id is None:
                # Constant absent from the specific clause; interning keeps
                # the code well-defined while positional lookups through it
                # miss, failing the literal as they must.
                self._terms.append(term)
                term_id = len(self._terms) - 1
                term_ids[term] = term_id
            constant_ids.append(term_id)
        patterns: List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = []
        for pred_key, codes, var_slots in shape.patterns:
            pred_id = pred_ids.get(pred_key)
            if pred_id is None:
                # No body literal of the specific clause has this predicate:
                # the general clause can never map onto it.
                return _UNSATISFIABLE
            patterns.append(
                (
                    pred_id,
                    tuple(
                        code if code < 0 else constant_ids[code] for code in codes
                    ),
                    var_slots,
                )
            )
        return _EncodedClause(
            True,
            var_count=shape.var_count,
            head_slot_items=shape.slot_items[: shape.head_slot_count],
            slot_items=shape.slot_items,
            patterns=tuple(patterns),
            components=shape.components,
        )


# --------------------------------------------------------------------- #
# Budget-exhaustion accounting (shared with the reference engine in tests)
# --------------------------------------------------------------------- #
_budget_lock = threading.Lock()
_budget_warned = False


def _note_budget_exhausted(max_backtracks: int) -> None:
    """Count (and warn once about) a conservatively-failed search.

    Budget exhaustion silently reporting "does not subsume" is a
    correctness-adjacent event: a learner may discard a clause it should
    have kept.  The ``subsumption.budget_exhausted`` registry series makes
    the silence observable, and the first occurrence per process warns.
    The counter is looked up per event (exhaustion is rare) so test-only
    registry resets never orphan a cached series.
    """
    global _budget_warned
    obs_registry().counter("subsumption.budget_exhausted").inc()
    if not _budget_warned:
        with _budget_lock:
            if not _budget_warned:
                _budget_warned = True
                warnings.warn(
                    "θ-subsumption backtrack budget exhausted "
                    f"(max_backtracks={max_backtracks}); conservatively "
                    "reporting 'does not subsume'.  Further exhaustions are "
                    "counted on the 'subsumption.budget_exhausted' registry "
                    "series without warning again.",
                    RuntimeWarning,
                    stacklevel=4,
                )


def budget_exhausted_count() -> int:
    """Process-wide number of searches that hit the backtrack budget."""
    return obs_registry().counter("subsumption.budget_exhausted").value


class SubsumptionEngine:
    """Decide θ-subsumption between Horn clauses (interned fast kernel).

    The engine is stateless with respect to clauses; a single shared instance
    can be used from multiple threads.  ``max_backtracks`` bounds the search:
    exhausting it conservatively reports "does not subsume" (and bumps the
    ``subsumption.budget_exhausted`` registry counter).
    """

    def __init__(self, max_backtracks: int = 5_000):
        self.max_backtracks = int(max_backtracks)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def subsumes(
        self,
        general: HornClause,
        specific: HornClause,
        index: Optional[GroundClauseIndex] = None,
    ) -> bool:
        """Return True when ``general`` θ-subsumes ``specific``."""
        return self.subsumption_substitution(general, specific, index) is not None

    def subsumption_substitution(
        self,
        general: HornClause,
        specific: HornClause,
        index: Optional[GroundClauseIndex] = None,
    ) -> Optional[Substitution]:
        """Return a witnessing substitution θ with ``general·θ ⊆ specific``.

        The heads must unify by one-way matching (variables of ``general``
        bind to terms of ``specific``); every body literal of ``general`` must
        then map onto some body literal of ``specific``.  A pre-built
        ``index`` of the specific clause may be supplied to amortize indexing
        across repeated tests against the same saturation.
        """
        theta = match_atom_to_ground(general.head, specific.head)
        if theta is None:
            return None
        if not general.body:
            return theta
        if index is None or index.clause is not specific:
            index = GroundClauseIndex(specific)
        encoded = index.encode(general)
        if not encoded.satisfiable:
            return None

        bindings = [-1] * encoded.var_count
        for variable, slot in encoded.head_slot_items:
            bindings[slot] = index.intern_id(theta[variable])

        budget = self.max_backtracks
        memo: Dict[Tuple[int, Tuple[int, ...]], Sequence[int]] = {}
        for component in encoded.components:
            matched, budget = _solve_component(
                index, encoded, component, bindings, memo, budget
            )
            if budget < 0:
                _note_budget_exhausted(self.max_backtracks)
                return None
            if not matched:
                return None

        terms = index._terms
        for variable, slot in encoded.slot_items:
            bound = bindings[slot]
            if bound >= 0 and variable not in theta:
                theta[variable] = terms[bound]
        return theta

    def covers_example(
        self,
        clause: HornClause,
        ground_bottom: HornClause,
        index: Optional[GroundClauseIndex] = None,
    ) -> bool:
        """Coverage test used by bottom-up learners (Section 7.5.3).

        A candidate clause covers example ``e`` iff it θ-subsumes the ground
        bottom clause of ``e``.
        """
        return self.subsumes(clause, ground_bottom, index)

    def equivalent(self, a: HornClause, b: HornClause) -> bool:
        """Clause equivalence under θ-subsumption (both directions)."""
        return self.subsumes(a, b) and self.subsumes(b, a)


def _solve_component(
    index: GroundClauseIndex,
    encoded: _EncodedClause,
    component: Tuple[int, ...],
    bindings: List[int],
    memo: Dict[Tuple[int, Tuple[int, ...]], Sequence[int]],
    budget: int,
) -> Tuple[bool, int]:
    """Match one variable-connected component of the general clause's body.

    Explicit-stack backtracking with dynamic most-constrained-first literal
    selection; ``bindings`` is mutated in place (successful matches leave
    their bindings for the witness, failures are rolled back via per-frame
    trails).  Returns ``(matched, remaining_budget)``; a negative remaining
    budget signals exhaustion (the caller reports "does not subsume").
    """
    patterns = encoded.patterns
    atom_args = index._atom_args
    pos_index = index._pos_index
    atoms_by_pred = index._atoms_by_pred

    remaining = list(component)
    # Frames: [atom_position, insert_position, candidates, next_candidate, trail]
    stack: List[list] = []

    # Hot closure: captured values are passed as default args so the loop
    # body runs on fast local loads instead of cell dereferences.
    def select_and_push(
        remaining=remaining,
        stack=stack,
        patterns=patterns,
        bindings=bindings,
        memo=memo,
        memo_get=memo.get,
        atoms_by_pred=atoms_by_pred,
        pos_index_get=pos_index.get,
    ) -> bool:
        """Pick the most-constrained remaining literal; False on a dead end."""
        best_i = 0
        best: Optional[Sequence[int]] = None
        best_len = 0
        for i, atom_position in enumerate(remaining):
            pred_id, codes, var_slots = patterns[atom_position]
            key = (atom_position, tuple([bindings[slot] for slot in var_slots]))
            cands = memo_get(key)
            if cands is None:
                cands = atoms_by_pred[pred_id]
                for position, code in enumerate(codes):
                    if code < 0:
                        value = bindings[-1 - code]
                        if value < 0:
                            continue
                    else:
                        value = code
                    narrowed = pos_index_get((pred_id, position, value))
                    if narrowed is None:
                        cands = ()
                        break
                    if len(narrowed) < len(cands):
                        cands = narrowed
                memo[key] = cands
            if not cands:
                return False
            if best is None or len(cands) < best_len:
                best = cands
                best_len = len(cands)
                best_i = i
                if best_len == 1:
                    break
        stack.append([remaining.pop(best_i), best_i, best, 0, None])
        return True

    if not remaining:
        return True, budget
    if not select_and_push():
        return False, budget

    while stack:
        frame = stack[-1]
        trail = frame[4]
        if trail is not None:
            for slot in trail:
                bindings[slot] = -1
            frame[4] = None
        cands = frame[2]
        next_candidate = frame[3]
        if next_candidate >= len(cands):
            stack.pop()
            remaining.insert(frame[1], frame[0])
            continue
        if budget <= 0:
            return False, -1
        budget -= 1
        frame[3] = next_candidate + 1

        codes = patterns[frame[0]][1]
        args = atom_args[cands[next_candidate]]
        trail = []
        matched = True
        for code, value in zip(codes, args):
            if code < 0:
                slot = -1 - code
                bound = bindings[slot]
                if bound < 0:
                    bindings[slot] = value
                    trail.append(slot)
                elif bound != value:
                    matched = False
                    break
            elif code != value:
                matched = False
                break
        if not matched:
            for slot in trail:
                bindings[slot] = -1
            continue
        if not remaining:
            return True, budget
        frame[4] = trail
        if not select_and_push():
            continue
    return False, budget


_DEFAULT_ENGINE = SubsumptionEngine()


def theta_subsumes(general: HornClause, specific: HornClause) -> bool:
    """Module-level convenience wrapper around a shared engine."""
    return _DEFAULT_ENGINE.subsumes(general, specific)


def clauses_equivalent(a: HornClause, b: HornClause) -> bool:
    """True when the clauses θ-subsume each other."""
    return _DEFAULT_ENGINE.equivalent(a, b)
