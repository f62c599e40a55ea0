"""Castor's IND-aware ARMG (Section 7.2.1).

Castor runs the standard ARMG loop (drop blocking atoms, drop
head-disconnected literals) but, immediately after each blocking-atom
removal, it restores IND consistency of the clause's canonical database
instance: any remaining literal ``R1(u1)`` that participates in an IND with
equality ``R1[X] = R2[X]`` must be witnessed by some literal ``R2(u2)`` with
``π_X(u1) = π_X(u2)``; literals with no witness are removed, cascading until
a fixpoint.  This is what makes the generalizations over a composed schema
and its decomposition equivalent (Lemma 7.7): dropping one part of a
decomposed tuple drags the sibling parts with it, exactly as dropping the
single composed literal would.
"""

from __future__ import annotations

from typing import List, Sequence

from ..database.constraints import InclusionDependency
from ..database.schema import Schema
from ..learning.coverage import SubsumptionCoverageEngine
from ..learning.examples import Example
from ..logic.atoms import Atom
from ..logic.clauses import HornClause
from ..progolem.armg import armg
from .inclusion_instances import _terms_at


class IndConsistencyEnforcer:
    """Remove clause literals whose IND witnesses have disappeared."""

    def __init__(self, schema: Schema, include_subset_inds: bool = False):
        self.schema = schema
        self.include_subset_inds = include_subset_inds
        self._inds_by_relation = {}
        relevant = schema.inclusion_dependencies if include_subset_inds else schema.equality_inds()
        for ind in relevant:
            self._inds_by_relation.setdefault(ind.left, []).append(ind)
            self._inds_by_relation.setdefault(ind.right, []).append(ind)

    def inds_for(self, relation: str) -> List[InclusionDependency]:
        return self._inds_by_relation.get(relation, [])

    # ------------------------------------------------------------------ #
    def enforce(self, clause: HornClause) -> HornClause:
        """Drop literals violating their INDs until a fixpoint is reached."""
        body = list(clause.body)
        changed = True
        while changed:
            changed = False
            surviving: List[Atom] = []
            for literal in body:
                if self._has_all_witnesses(literal, body):
                    surviving.append(literal)
                else:
                    changed = True
            body = surviving
        return HornClause(clause.head, body)

    def _has_all_witnesses(self, literal: Atom, body: Sequence[Atom]) -> bool:
        """True when every IND of the literal's relation is witnessed in ``body``."""
        if not self.schema.has_relation(literal.predicate):
            return True
        for ind in self.inds_for(literal.predicate):
            other_name, own_attrs, other_attrs = ind.other_side(literal.predicate)
            own_terms = _terms_at(self.schema, literal, own_attrs)
            if own_terms is None:
                continue
            witnessed = False
            for candidate in body:
                if candidate is literal or candidate.predicate != other_name:
                    continue
                candidate_terms = _terms_at(self.schema, candidate, other_attrs)
                if candidate_terms is not None and candidate_terms == own_terms:
                    witnessed = True
                    break
            if not witnessed:
                return False
        return True


def castor_armg(
    bottom_clause: HornClause,
    example: Example,
    coverage: SubsumptionCoverageEngine,
    schema: Schema,
    include_subset_inds: bool = False,
    batch=None,
) -> HornClause:
    """Castor's ARMG: standard ARMG with IND-consistency enforcement after each removal.

    ``batch`` forwards to the blocking-atom search's batched prefix probes
    (see :func:`repro.progolem.armg.find_blocking_atom`).
    """
    enforcer = IndConsistencyEnforcer(schema, include_subset_inds)

    def hook(clause: HornClause, _removed: Atom) -> HornClause:
        return enforcer.enforce(clause)

    return armg(
        bottom_clause,
        example,
        coverage,
        post_removal_hook=hook,
        batch=batch,
    )
