"""Standard bottom-clause construction (Section 6.1).

Given a positive example ``T(a1, ..., an)`` and a database instance, the
bottom clause is the most specific clause covering the example relative to
the instance.  The classic algorithm (Muggleton's inverse entailment, as
described in the paper) starts from the example's constants, repeatedly finds
database tuples mentioning known constants, and adds one literal per tuple,
replacing constants by variables consistently.

Two stopping conditions are supported:

* ``max_depth`` — the classic per-iteration depth bound (schema *dependent*,
  Lemma 6.3);
* ``max_distinct_variables`` — Castor's stopping condition (Section 7.1),
  which is invariant under (de)composition because equivalent clauses over
  composed/decomposed schemas have the same number of distinct variables.

The builder can also produce *ground* bottom clauses (saturations), which the
coverage engine θ-subsumes candidate clauses against (Section 7.5.3).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..database.instance import DatabaseInstance
from ..obs import registry as obs_registry
from ..logic.atoms import Atom
from ..logic.clauses import HornClause
from ..logic.terms import Constant, Term, Variable
from .examples import Example


class BottomClauseConfig:
    """Tunable limits for bottom-clause construction.

    Attributes
    ----------
    max_depth:
        Maximum iteration depth (new constants found in iteration ``i`` are
        expanded in iteration ``i+1``).  ``None`` disables the depth bound.
    max_distinct_variables:
        Castor's stopping condition: stop iterating once the clause has at
        least this many distinct variables.  ``None`` disables it.
    max_literals_per_relation_per_tuple:
        Cap on how many tuples of one relation may be added for a single
        lookup constant in one iteration (the paper uses 10 for IMDb).
    max_total_literals:
        Hard cap on the body size, as a safety net for dense databases.
    """

    def __init__(
        self,
        max_depth: Optional[int] = 2,
        max_distinct_variables: Optional[int] = None,
        max_literals_per_relation_per_tuple: int = 5,
        max_total_literals: int = 100,
        theory_constant_threshold: int = 12,
    ):
        self.max_depth = max_depth
        self.max_distinct_variables = max_distinct_variables
        self.max_literals_per_relation_per_tuple = max_literals_per_relation_per_tuple
        self.max_total_literals = max_total_literals
        self.theory_constant_threshold = theory_constant_threshold


def compute_theory_constants(
    instance: DatabaseInstance, threshold: int, schema=None
) -> Set[object]:
    """Values of small-domain, non-key columns, kept as constants in clauses.

    Classic ILP systems declare such values with ``#``-mode declarations
    (``drama``, ``post_generals``, ``7``).  Without mode declarations the
    builders infer them from the data.  A column qualifies when:

    * it has at most ``threshold`` distinct values,
    * it is not key-like (more than half of the rows carrying distinct values),
    * and its attribute does not participate in any inclusion dependency —
      IND columns are identifiers used for joins, and turning identifiers into
      constants would pin clauses to individual entities.

    Values of qualifying columns stay constants during variablization, so
    learned clauses can express literals like ``genre(g, drama)`` or
    ``student(x, post_generals, 5)``.
    """
    if threshold <= 0:
        return set()
    schema = schema if schema is not None else instance.schema
    join_attributes: Set[Tuple[str, str]] = set()
    for ind in getattr(schema, "inclusion_dependencies", []):
        for attribute in ind.left_attrs:
            join_attributes.add((ind.left, attribute))
        for attribute in ind.right_attrs:
            join_attributes.add((ind.right, attribute))
    fd_lhs_attributes: Set[Tuple[str, str]] = set()
    fd_rhs_attributes: Set[Tuple[str, str]] = set()
    for fd in getattr(schema, "functional_dependencies", []):
        for attribute in fd.lhs:
            fd_lhs_attributes.add((fd.relation, attribute))
        for attribute in fd.rhs:
            fd_rhs_attributes.add((fd.relation, attribute))

    theory_constants: Set[object] = set()
    for relation in instance.relations():
        row_count = len(relation)
        if row_count == 0:
            continue
        for attribute in relation.schema.attributes:
            key = (relation.schema.name, attribute)
            # Join and key attributes are identifiers, never theory constants.
            if key in join_attributes or key in fd_lhs_attributes:
                continue
            values = relation.distinct_values(attribute)
            if not values or len(values) > threshold:
                continue
            # Near-unique columns are identifier-like unless the schema says
            # they are dependent attributes (FD right-hand sides) — the latter
            # covers small lookup tables such as genre(genreid, genre).
            if len(values) > row_count / 2 and key not in fd_rhs_attributes:
                continue
            theory_constants.update(values)
    return theory_constants


class _ConstructionState:
    """Per-example construction state for (batched) bottom-clause building.

    One state is the classic algorithm's working set — the partial body, the
    constant→variable map, the seen-tuple set, and the current frontier —
    factored out of the loop so that many examples can advance depth levels
    in lockstep while sharing one frontier lookup per level.
    """

    __slots__ = (
        "example",
        "variablize",
        "example_values",
        "variable_of",
        "head",
        "body",
        "seen_rows",
        "known_constants",
        "frontier",
        "depth",
        "join_cache",
    )

    def __init__(self, example: Example, variablize: bool):
        self.example = example
        self.variablize = variablize
        self.example_values = set(example.values)
        self.variable_of: Dict[object, Variable] = {}
        self.head: Optional[Atom] = None
        self.body: List[Atom] = []
        self.seen_rows: Set[Tuple[str, Tuple[object, ...]]] = set()
        self.known_constants: Set[object] = set(example.values)
        self.frontier: Set[object] = set(example.values)
        self.depth = 0
        # Shared by every state of one batch: pure-lookup results (Castor's
        # IND-chase joins) memoized for the duration of the construction
        # call — entities appearing in many examples' saturations are
        # fetched once per generation instead of once per example.
        self.join_cache: Optional[Dict[object, List[Tuple[object, ...]]]] = None


class BottomClauseBuilder:
    """Construct bottom clauses / saturations relative to a database instance.

    Frontier expansion — "which tuples mention any of this depth level's new
    constants" — goes through the backend's saturation capability when the
    instance has one (``use_compiled_lookups=None``, the default): one
    set-at-a-time :meth:`~repro.database.instance.DatabaseInstance.neighbors_of_batch`
    call per depth level, the stored-procedure analogue of Section 7.5.2.
    ``use_compiled_lookups=False`` forces the per-constant client path (one
    ``tuples_containing`` round-trip per frontier value), which Table 13
    compares against.  The constructed clauses are identical either way.

    :meth:`build_many` / :meth:`build_ground_many` construct a whole example
    generation **level-synchronously**: all examples advance one depth at a
    time and each level issues ONE frontier lookup for the union of every
    example's frontier, so the per-statement cost is amortized across the
    generation.  Per-example construction order is untouched (each state
    consumes its own frontier's neighbors in its own sorted order), so the
    clauses are byte-identical to one-at-a-time construction.
    """

    def __init__(
        self,
        instance: DatabaseInstance,
        config: Optional[BottomClauseConfig] = None,
        use_compiled_lookups: Optional[bool] = None,
        theory_constants: Optional[Set[object]] = None,
    ):
        self.instance = instance
        self.config = config or BottomClauseConfig()
        if use_compiled_lookups is None:
            use_compiled_lookups = getattr(
                instance.backend, "supports_saturation_queries", False
            )
        self.use_compiled_lookups = bool(use_compiled_lookups)
        # ``theory_constants`` skips inference entirely — shard workers pass
        # the coordinator's pinned set instead of re-scanning the database.
        if theory_constants is not None:
            self.theory_constants = set(theory_constants)
        else:
            self.theory_constants = compute_theory_constants(
                instance,
                getattr(self.config, "theory_constant_threshold", 12),
                self._theory_schema(),
            )

    def _theory_schema(self):
        """Schema handed to theory-constant inference (Castor passes its
        working schema; the standard builder uses the instance's)."""
        return None

    def saturation_spec(self) -> Optional[Tuple[object, ...]]:
        """Picklable recipe a shard worker rebuilds this builder from.

        Pins everything result-relevant: the construction config AND this
        builder's theory constants — shipping the constants (rather than
        letting workers re-infer them from their copy of the data) keeps
        worker-built clauses identical to this builder's even when the
        instance mutated after the builder was constructed.  ``None`` for
        subclasses workers cannot rebuild.
        """
        if type(self) is not BottomClauseBuilder:
            return None
        return ("bottom", self.config, frozenset(self.theory_constants))

    def _frontier_neighbors(
        self, constants: Sequence[object]
    ) -> Dict[object, List[Tuple[str, Tuple[object, ...]]]]:
        """Sorted ``constant -> [(relation, tuple)]`` for one depth level.

        The per-constant lists are sorted exactly as the construction loop
        consumes them, so the clause is identical whichever lookup path
        produced the neighbors.
        """
        if self.use_compiled_lookups:
            neighbors = self.instance.neighbors_of_batch(constants)
        else:
            neighbors = {
                constant: self.instance.tuples_containing(constant)
                for constant in constants
            }
        return {
            constant: sorted(
                found, key=lambda pair: (pair[0], tuple(map(str, pair[1])))
            )
            for constant, found in neighbors.items()
        }

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def build(self, example: Example) -> HornClause:
        """Variablized bottom clause for ``example`` (used as the search seed)."""
        return self._construct_many([example], variablize=True)[0]

    def build_ground(self, example: Example) -> HornClause:
        """Ground bottom clause (saturation) for ``example`` (used for coverage)."""
        return self._construct_many([example], variablize=False)[0]

    def build_many(self, examples: Sequence[Example]) -> List[HornClause]:
        """Variablized bottom clauses for a whole generation, in input order."""
        return self._construct_many(list(examples), variablize=True)

    def build_ground_many(self, examples: Sequence[Example]) -> List[HornClause]:
        """Ground saturations for a whole generation, in input order."""
        return self._construct_many(list(examples), variablize=False)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _term_for(self, state: _ConstructionState, value: object) -> Term:
        # Example values are always variablized so the clause generalizes
        # over the target's arguments; other theory constants stay ground.
        if not state.variablize or (
            value in self.theory_constants and value not in state.example_values
        ):
            return Constant(value)
        existing = state.variable_of.get(value)
        if existing is None:
            existing = Variable(f"v{len(state.variable_of)}")
            state.variable_of[value] = existing
        return existing

    def _state_active(self, state: _ConstructionState) -> bool:
        if not state.frontier:
            return False
        if (
            self.config.max_depth is not None
            and state.depth >= self.config.max_depth
        ):
            return False
        # A full body can never admit another literal; dropping the state
        # here is output-identical and keeps its (possibly large) leftover
        # frontier out of the next level's batched lookup.
        if len(state.body) >= self.config.max_total_literals:
            return False
        return not self._reached_variable_budget(
            state.variable_of, state.known_constants, state.variablize
        )

    def _add_neighbor(
        self,
        state: _ConstructionState,
        relation_name: str,
        row: Tuple[object, ...],
        next_frontier: Set[object],
    ) -> None:
        """Admit one tuple: literal, bookkeeping, frontier growth.

        Castor overrides this to additionally chase the tuple's inclusion
        class (Section 7.1) through the same indexed lookups.
        """
        state.seen_rows.add((relation_name, row))
        state.body.append(
            Atom(relation_name, [self._term_for(state, v) for v in row])
        )
        for value in row:
            if value not in state.known_constants:
                state.known_constants.add(value)
                next_frontier.add(value)

    def _expand_state(
        self,
        state: _ConstructionState,
        neighbors: Dict[object, List[Tuple[str, Tuple[object, ...]]]],
    ) -> None:
        """Advance one example one depth level using pre-fetched neighbors."""
        next_frontier: Set[object] = set()
        for constant in sorted(state.frontier, key=str):
            per_relation_counts: Dict[str, int] = {}
            for relation_name, row in neighbors.get(constant, ()):
                if len(state.body) >= self.config.max_total_literals:
                    break
                if (relation_name, row) in state.seen_rows:
                    continue
                count = per_relation_counts.get(relation_name, 0)
                if count >= self.config.max_literals_per_relation_per_tuple:
                    continue
                per_relation_counts[relation_name] = count + 1
                self._add_neighbor(state, relation_name, row, next_frontier)
            if len(state.body) >= self.config.max_total_literals:
                break
        state.frontier = next_frontier
        state.depth += 1

    def _construct_many(
        self, examples: Sequence[Example], variablize: bool
    ) -> List[HornClause]:
        states = [_ConstructionState(example, variablize) for example in examples]
        join_cache: Dict[object, List[Tuple[object, ...]]] = {}
        for state in states:
            state.join_cache = join_cache
            state.head = Atom(
                state.example.target,
                [self._term_for(state, v) for v in state.example.values],
            )
        # Batch-scoped: a constant reaching several examples' frontiers (or
        # the same frontier at different depths) is fetched and sorted once
        # per generation, like the chase results in ``join_cache``.
        neighbor_cache: Dict[object, List[Tuple[str, Tuple[object, ...]]]] = {}
        while True:
            active = [state for state in states if self._state_active(state)]
            if not active:
                break
            # ONE set-at-a-time lookup expands this depth level for every
            # example still running — the frontier union shares the
            # statement cost across the whole generation.
            missing = sorted(
                {
                    value
                    for state in active
                    for value in state.frontier
                    if value not in neighbor_cache
                },
                key=str,
            )
            if missing:
                neighbor_cache.update(self._frontier_neighbors(missing))
            for state in active:
                self._expand_state(state, neighbor_cache)
        return [HornClause(state.head, state.body) for state in states]

    def _reached_variable_budget(
        self,
        variable_of: Dict[object, Variable],
        known_constants: Set[object],
        variablize: bool,
    ) -> bool:
        budget = self.config.max_distinct_variables
        if budget is None:
            return False
        count = len(variable_of) if variablize else len(known_constants)
        return count >= budget


class SaturationBatch:
    """One generation of examples to saturate against a shared instance.

    The saturation analogue of
    :class:`~repro.learning.coverage.CoverageBatch`: a value object callers
    assemble before handing the whole generation to
    :class:`BatchSaturationEngine` in one call.
    """

    __slots__ = ("examples", "variablize")

    def __init__(self, examples: Sequence[Example], variablize: bool = False):
        self.examples: List[Example] = list(examples)
        self.variablize = bool(variablize)

    def __len__(self) -> int:
        return len(self.examples)

    def __repr__(self) -> str:
        kind = "bottom clauses" if self.variablize else "saturations"
        return f"SaturationBatch({len(self.examples)} examples, {kind})"


#: Per-engine label for registry series: each BatchSaturationEngine gets its
#: own ``saturation.sharded_batches`` series so a fresh engine reads zero.
_SATURATION_ENGINE_SEQ = itertools.count(1)


class BatchSaturationEngine:
    """Materialize bottom clauses / saturations for whole example sets.

    Wraps a builder (:class:`BottomClauseBuilder` or Castor's IND-aware
    subclass) and answers batch requests:

    * when the builder's instance lives on a backend exposing a sharded
      evaluation service (``sqlite`` placed on ``shards``) and the builder publishes a
      ``saturation_spec``, the batch is fanned out across the shard workers
      along the example axis (the same sticky assignment coverage uses, so
      each example is saturated on the worker that owns it) and the
      constructed clauses are shipped back in input order;
    * otherwise the builder runs locally.

    Results are identical for every route — construction order inside one
    example's clause never depends on it.
    """

    def __init__(self, builder: BottomClauseBuilder):
        self.builder = builder
        # Registry-backed counter (per-engine series so a fresh engine reads
        # zero); the plain-attribute read below is the stable public surface.
        self._c_sharded_batches = obs_registry().counter(
            "saturation.sharded_batches", engine=next(_SATURATION_ENGINE_SEQ)
        )

    @property
    def sharded_batches(self) -> int:
        return self._c_sharded_batches.value

    def _sharded_batch(
        self, examples: Sequence[Example], variablize: bool
    ) -> Optional[List[HornClause]]:
        """Route through the instance backend's evaluation service, if any."""
        if not getattr(self.builder, "use_compiled_lookups", True):
            # A builder explicitly pinned to the per-value Python baseline
            # (Table 13's client path) must stay local — workers would
            # rebuild it with compiled lookups and silently override the
            # knob being measured.
            return None
        spec_fn = getattr(self.builder, "saturation_spec", None)
        if spec_fn is None:
            return None
        backend = getattr(self.builder.instance, "backend", None)
        service_fn = getattr(backend, "coverage_service", None)
        if service_fn is None:
            return None
        spec = spec_fn()
        if spec is None:
            return None
        clauses = service_fn().materialize_saturations(
            spec, examples, variablize=variablize
        )
        self._c_sharded_batches.inc()
        return clauses

    def build_batch(
        self, examples: Sequence[Example], variablize: bool = False
    ) -> List[HornClause]:
        """One clause per example, in input order.

        Locally the builder constructs the generation level-synchronously
        (one frontier lookup per depth level for all examples).
        """
        example_list = list(examples)
        if not example_list:
            return []
        if len(example_list) > 1:
            sharded = self._sharded_batch(example_list, variablize)
            if sharded is not None:
                return sharded
        if variablize:
            return self.builder.build_many(example_list)
        return self.builder.build_ground_many(example_list)

    def build_ground_batch(self, examples: Sequence[Example]) -> List[HornClause]:
        """Ground saturations for a whole example generation, in input order."""
        return self.build_batch(examples, variablize=False)

    def run(self, batch: SaturationBatch) -> List[HornClause]:
        """Evaluate a pre-assembled :class:`SaturationBatch`."""
        return self.build_batch(batch.examples, variablize=batch.variablize)

    def apply_delta(
        self,
        store,
        delta,
        examples: Sequence[Example] = (),
    ) -> List[Example]:
        """Retract-and-repair a saturation store after a data delta.

        Drops every stored saturation whose footprint (head values plus
        ground-body constants) intersects the delta's touched values — the
        only saturations whose frontier expansion the delta can reach — and
        rebuilds the dropped ones found in ``examples`` through the normal
        batch construction path.  Because untouched saturations are provably
        unaffected and touched ones are reconstructed from scratch against
        the updated instance, the store ends byte-identical to a cold
        rebuild.  Returns the examples that were rebuilt.
        """
        touched = delta.touched_values()
        if not touched:
            return []
        dropped = set(store.invalidate_touching(touched))
        if not dropped:
            return []
        rebuilt = [
            example
            for example in dict.fromkeys(examples)
            if store.stored_key(example.target, example.values) in dropped
        ]
        if rebuilt:
            self.materialize_into(store, rebuilt)
        return rebuilt

    def materialize_into(
        self,
        store,
        examples: Sequence[Example],
        saturation_fn=None,
    ) -> Dict[Example, int]:
        """Saturate a generation and feed a
        :class:`~repro.database.sqlite_backend.SaturationStore` — one batch
        call, no per-example Python construction loop.  Returns the store id
        per example; examples the store rejects (unstorable values) are
        silently skipped, mirroring the coverage engine's fallback.

        ``saturation_fn`` lets a caller with an already-warm saturation
        cache (the coverage engine) supply the clauses instead of
        rebuilding them.
        """
        from ..database.sqlite_backend import BackendValueError

        example_list = list(dict.fromkeys(examples))
        if saturation_fn is None:
            clauses = self.build_ground_batch(example_list)
        else:
            clauses = [saturation_fn(example) for example in example_list]
        ids: Dict[Example, int] = {}
        for example, clause in zip(example_list, clauses):
            try:
                ids[example] = store.add_example(
                    example.target, example.values, clause.body
                )
            except BackendValueError:
                continue
        return ids


def build_bottom_clause(
    instance: DatabaseInstance,
    example: Example,
    config: Optional[BottomClauseConfig] = None,
) -> HornClause:
    """Convenience wrapper: variablized bottom clause for one example."""
    return BottomClauseBuilder(instance, config).build(example)


def build_saturation(
    instance: DatabaseInstance,
    example: Example,
    config: Optional[BottomClauseConfig] = None,
) -> HornClause:
    """Convenience wrapper: ground bottom clause (saturation) for one example."""
    return BottomClauseBuilder(instance, config).build_ground(example)
