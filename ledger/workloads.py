"""The workloads: inputs, set-up, the timed operation, output checks.

Every workload is built from the workload seed alone.  The seed renames
every string constant of the generated instance into a seed-specific
namespace (``w<seed>_``): inputs differ from seed to seed, so no run can
reuse another's results, while the rename preserves the sort order of
constants, so a learner does exactly the same work on every seed (its
per-layer work counts are identical across seeds).  Drawing a fresh
generator seed per workload seed instead would move ``learn()`` time by
10x between seeds at the default size (0.1 s to 3.4 s on UW-CSE), far
outside any useful regression bound.  ``delta-uwcse`` additionally draws
its update stream from the seed.

Operations are closed-loop: one client issues the next ``learn()`` or
update only after the previous one returned.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import LearningSession, SessionConfig
from repro.castor.bottom_clause import CastorBottomClauseConfig
from repro.castor.castor import CastorCoverageEngine
from repro.database import DatabaseInstance, Delta, Schema
from repro.database.sqlite_backend import SaturationStore
from repro.datasets import uwcse
from repro.datasets.base import DatasetBundle
from repro.learning.evaluation import evaluate_definition
from repro.learning.examples import Example, ExampleSet
from repro.logic.clauses import HornDefinition
from repro.transform.equivalence import definition_results

#: A learn or update slower than this counts as failed.
OP_LIMIT_S = 60.0
#: ``delta-uwcse``: rows changed per update, as a share of the instance.
CHURN = 0.01
#: ``delta-uwcse``: updates in the traced pass (a fixed prefix of the stream).
TRACED_UPDATES = 40
#: Held-out share of the examples (the split itself is fixed, seed 0).
TEST_FRACTION = 0.3
SPLIT_SEED = 0


class CheckFailed(Exception):
    """An output check failed; the run counts it and exits non-zero."""


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #
def namespaced(bundle: DatasetBundle, seed: int) -> DatasetBundle:
    """``bundle`` with every string constant moved into namespace ``w<seed>_``."""
    prefix = f"w{seed}_"

    def rename(row: Sequence[object]) -> Tuple[object, ...]:
        return tuple(prefix + v if isinstance(v, str) else v for v in row)

    base = bundle.base_instance
    instance = DatabaseInstance(base.schema)
    with instance.transaction():
        for relation in base.relations():
            rows = sorted((rename(row) for row in relation.rows), key=repr)
            instance.add_tuples(relation.schema.name, rows)
    examples = bundle.examples
    renamed = ExampleSet(
        examples.target,
        [rename(e.values) for e in examples.positives],
        [rename(e.values) for e in examples.negatives],
    )
    return DatasetBundle(
        bundle.name, instance, renamed, uwcse.schema_variants(), bundle.target
    )


def generate(config: uwcse.UwCseConfig, generator_seed: int, seed: int) -> DatasetBundle:
    return namespaced(uwcse.load(config, seed=generator_seed), seed)


def f1(definition: HornDefinition, instance: DatabaseInstance, test: ExampleSet) -> float:
    return evaluate_definition(definition, instance, test).f1


# --------------------------------------------------------------------- #
# Learn workloads
# --------------------------------------------------------------------- #
@dataclass
class LearnState:
    bundle: DatasetBundle
    train: ExampleSet
    test: ExampleSet
    instances: Dict[str, DatabaseInstance]
    definitions: Dict[str, str] = field(default_factory=dict)
    learned: Dict[str, HornDefinition] = field(default_factory=dict)
    holdout_f1: Optional[float] = None


@dataclass(frozen=True)
class LearnWorkload:
    """One learner on some UW-CSE schema variants in ``memory``, one
    ``learn()`` per op."""

    name: str
    why: str
    learner: str
    variants: Tuple[str, ...]
    generator_seed: int
    config: uwcse.UwCseConfig = field(default_factory=uwcse.UwCseConfig)
    op_name: ClassVar[str] = "learn_s"

    def setup(self, seed: int) -> LearnState:
        bundle = generate(self.config, self.generator_seed, seed)
        train, test = bundle.examples.train_test_split(TEST_FRACTION, seed=SPLIT_SEED)
        instances = {v: bundle.instance(v) for v in self.variants}
        with LearningSession(SessionConfig(backend="memory")) as session:
            for instance in instances.values():
                session.prepare(instance)
        return LearnState(bundle, train, test, instances)

    def schedule(self, state: LearnState) -> Iterator[Callable[[], Any]]:
        """One round: a fresh-session ``learn()`` on every variant."""
        for variant in self.variants:
            yield self._op(state, variant)

    round = schedule

    def _op(self, state: LearnState, variant: str) -> Callable[[], Any]:
        def learn() -> Tuple[float, Callable[[], None]]:
            definition, elapsed = self.learn_once(
                state, variant, "memory", state.bundle.examples
            )
            return elapsed, lambda: self._check_learn(state, variant, definition)

        learn.__name__ = f"learn[{variant}]"
        return learn

    def learn_once(
        self, state: LearnState, variant: str, backend: str, examples: ExampleSet
    ) -> Tuple[HornDefinition, float]:
        instance = state.instances[variant]
        with LearningSession(SessionConfig(backend=backend)) as session:
            session.prepare(instance)
            learner = session.learner(self.learner, state.bundle.schema(variant))
            # Start every learn from a collected heap, so no learn pays for
            # the garbage of the one before it.
            gc.collect()
            start = time.perf_counter()
            definition = learner.learn(instance, examples)
            elapsed = time.perf_counter() - start
        return definition, elapsed

    def _check_learn(self, state: LearnState, variant: str, definition: HornDefinition) -> None:
        text = str(definition)
        if not definition.clauses:
            raise CheckFailed(f"{self.name}[{variant}]: learned an empty definition")
        previous = state.definitions.setdefault(variant, text)
        if previous != text:
            raise CheckFailed(f"{self.name}[{variant}]: definition changed between rounds")
        state.learned[variant] = definition

    def check(self, state: LearnState) -> None:
        """Every variant must have yielded a definition."""
        missing = [v for v in self.variants if v not in state.learned]
        if missing:
            raise CheckFailed(f"{self.name}: no definition learned for {missing}")

    def warm(self, state: LearnState) -> None:
        """The untimed held-out learns, one per variant, run before the timed
        ones: they also absorb the process's cold first learns."""
        scores = []
        for variant in self.variants:
            held_out, _ = self.learn_once(state, variant, "memory", state.train)
            scores.append(f1(held_out, state.instances[variant], state.test))
        state.holdout_f1 = sum(scores) / len(scores)

    def finish(self, state: LearnState) -> Dict[str, Any]:
        """Output checks and quality metrics over the learned definitions."""
        self.check(state)
        quality: Dict[str, Any] = {}
        if state.holdout_f1 is not None:
            quality["holdout_f1"] = state.holdout_f1
        if len(self.variants) > 1:
            results = {
                v: definition_results(state.learned[v], state.instances[v])
                for v in self.variants
            }
            pairs = [
                (a, b) for i, a in enumerate(self.variants) for b in self.variants[i + 1:]
            ]
            agree = sum(results[a] == results[b] for a, b in pairs)
            quality["variant_agreement"] = agree / len(pairs)
            quality["variant_rows"] = {v: len(r) for v, r in results.items()}
        return quality

    def verify(self, state: LearnState) -> None:
        """Evaluate every learned definition (the traced pass's
        ``transform.verify``)."""
        for variant, definition in state.learned.items():
            definition_results(definition, state.instances[variant])

    def close(self, state: LearnState) -> None:
        state.bundle.close()


# --------------------------------------------------------------------- #
# delta-uwcse: streaming updates on a warm sqlite session
# --------------------------------------------------------------------- #
@dataclass
class DeltaState:
    variant: str
    source: DatabaseInstance
    session: LearningSession
    engine: CastorCoverageEngine
    store: SaturationStore
    schema: Schema
    examples: List[Example]
    definition: HornDefinition
    holdout_f1: float
    stream: Iterator[Delta]
    masks: List[int] = field(default_factory=list)

    @property
    def definitions(self) -> Dict[str, str]:
        """The maintained clause set, keyed like a learn workload's."""
        return {self.variant: str(self.definition)}


@dataclass(frozen=True)
class DeltaWorkload:
    """Castor's clause set re-scored on every example after each ``Delta``."""

    name: str
    why: str
    generator_seed: int
    config: uwcse.UwCseConfig
    op_name: ClassVar[str] = "update_s"

    def setup(self, seed: int) -> DeltaState:
        bundle = generate(self.config, self.generator_seed, seed)
        variant = bundle.variant_names[0]
        source = bundle.instance(variant)
        schema = bundle.schema(variant)
        train, test = bundle.examples.train_test_split(TEST_FRACTION, seed=SPLIT_SEED)
        with LearningSession(SessionConfig(backend="memory")) as learning:
            definition = learning.learner("castor", schema).learn(source, train)
        if not definition.clauses:
            raise CheckFailed(f"{self.name}: learned an empty clause set")
        session = LearningSession(SessionConfig(backend="sqlite"))
        prepared = session.prepare(source)
        store = session.saturation_store_for(prepared)
        engine = _castor_engine(prepared, schema, store)
        examples = bundle.examples.all_examples()
        engine.materialize(examples)
        state = DeltaState(
            variant=variant,
            source=source,
            session=session,
            engine=engine,
            store=store,
            schema=schema,
            examples=examples,
            definition=definition,
            holdout_f1=f1(definition, source, test),
            stream=_stream(source, seed),
        )
        state.masks = engine.covered_masks_batch(list(definition), examples)
        if not any(state.masks):
            raise CheckFailed(f"{self.name}: the clause set covers no example")
        return state

    def schedule(self, state: DeltaState) -> Iterator[Callable[[], Any]]:
        """The traced pass: a fixed prefix of the stream."""
        for _ in range(TRACED_UPDATES):
            yield self._op(state)

    def round(self, state: DeltaState) -> Iterator[Callable[[], Any]]:
        yield self._op(state)

    def warm(self, state: DeltaState) -> None:
        """One untimed update: the process's first pays for cold caches."""
        self._op(state)()

    def _op(self, state: DeltaState) -> Callable[[], Any]:
        delta = next(state.stream)

        def update() -> Tuple[float, Callable[[], None]]:
            start = time.perf_counter()
            state.session.update(state.source, delta)
            state.engine.apply_delta(delta)
            state.engine.materialize(state.examples)
            state.masks = state.engine.covered_masks_batch(
                list(state.definition), state.examples
            )
            return time.perf_counter() - start, _no_check

        return update

    def finish(self, state: DeltaState) -> Dict[str, Any]:
        self.check(state)
        return {"holdout_f1": state.holdout_f1}

    def verify(self, state: DeltaState) -> None:
        """Evaluate the clause set (the traced pass's ``transform.verify``)."""
        definition_results(state.definition, state.source)

    def check(self, state: DeltaState) -> None:
        """The maintained state must equal a cold rebuild of the same data."""
        cold_store = SaturationStore()
        engine = _castor_engine(
            state.source.with_backend("sqlite"), state.schema, cold_store
        )
        engine.materialize(state.examples)
        masks = engine.covered_masks_batch(list(state.definition), state.examples)
        if masks != state.masks:
            raise CheckFailed(f"{self.name}: coverage bits differ from a cold rebuild")
        if cold_store.contents() != state.store.contents():
            raise CheckFailed(
                f"{self.name}: SaturationStore contents differ from a cold rebuild"
            )

    def close(self, state: DeltaState) -> None:
        state.session.close()


def _stream(instance: DatabaseInstance, seed: int) -> Iterator[Delta]:
    """Endless ~``CHURN`` deltas: half fresh publications by live authors
    (any author of a publication in the generated instance), half
    retractions of earlier inserts."""
    rng = random.Random(seed)
    authors = sorted({row[1] for row in instance.relation("publication").rows}, key=repr)
    budget = max(2, int(instance.total_tuples() * CHURN))
    minted: List[Tuple[object, ...]] = []
    counter = 0
    while True:
        ops = []
        for _ in range(min(budget // 2, len(minted))):
            row = minted.pop(rng.randrange(len(minted)))
            ops.append(("remove", "publication", (row,)))
        while len(ops) < budget:
            row = (f"ledger_paper{counter}", rng.choice(authors))
            counter += 1
            minted.append(row)
            ops.append(("add", "publication", (row,)))
        yield Delta(ops).coalesced()


def _castor_engine(
    instance: DatabaseInstance, schema: Schema, store: SaturationStore
) -> CastorCoverageEngine:
    return CastorCoverageEngine(
        instance,
        schema,
        CastorBottomClauseConfig(),
        compiled=True,
        saturation_store=store,
    )


def _no_check() -> None:
    return None


UWCSE_VARIANTS = ("original", "4nf", "denormalized1", "denormalized2")

WORKLOADS: Dict[str, Any] = {
    w.name: w
    for w in (
        LearnWorkload(
            name="castor-uwcse",
            why="Castor on the 4 UW-CSE variants in memory: IND enforcement, ARMG, "
            "subsumption and reduction in Python, no SQL (paper Table 10)",
            learner="castor",
            variants=UWCSE_VARIANTS,
            generator_seed=0,
        ),
        LearnWorkload(
            name="foil-uwcse",
            why="FOIL on the same variants in memory: query joins only, the bypass "
            "workload for every Castor, saturation and subsumption layer",
            learner="foil",
            variants=UWCSE_VARIANTS,
            generator_seed=0,
        ),
        DeltaWorkload(
            name="delta-uwcse",
            why="1%-churn Delta stream on a warm sqlite session: store writes and "
            "invalidation beside scoped coverage reads",
            generator_seed=5,
            config=uwcse.UwCseConfig(
                num_students=120, num_professors=30, num_courses=40
            ),
        ),
    )
}
