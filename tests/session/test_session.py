"""LearningSession: uniform learner construction, warm reuse, lifecycle."""

from __future__ import annotations

import inspect

import pytest

from repro import LearningSession, SessionConfig
from repro.castor.armg import castor_armg
from repro.castor.castor import CastorCoverageEngine, CastorParameters
from repro.castor.reduction import NegativeReducer
from repro.castor.stored_procedures import (
    StoredProcedureRunner,
    compare_stored_procedure_modes,
)
from repro.database.sqlite_backend import SaturationStore, SQLiteBackend
from repro.datasets import hiv, imdb, uwcse
from repro.datasets.base import DatasetBundle
from repro.distributed import RemoteBackend, ShardedSQLiteBackend
from repro.experiments.harness import LearnerSpec, run_variant
from repro.foil.foil import FoilParameters
from repro.learning.bottom_clause import BatchSaturationEngine, BottomClauseConfig
from repro.learning.coverage import BatchCoverageEngine, SubsumptionCoverageEngine
from repro.learning.covering import CoveringParameters
from repro.progolem.armg import armg, find_blocking_atom
from repro.progolem.progolem import ProGolemLearner, ProGolemParameters
from repro.session.session import SessionLearner, _learner_kinds


@pytest.fixture(scope="module")
def tiny_bundle():
    return uwcse.load(
        uwcse.UwCseConfig(num_students=10, num_professors=3, num_courses=5), seed=5
    )


def progolem_parameters() -> ProGolemParameters:
    return ProGolemParameters(
        sample_size=2,
        beam_width=2,
        max_armg_rounds=2,
        max_clauses=4,
        bottom_clause=BottomClauseConfig(max_depth=2, max_total_literals=20),
    )


def progolem_spec() -> LearnerSpec:
    return LearnerSpec(
        "ProGolem", lambda schema: ProGolemLearner(schema, progolem_parameters())
    )


def as_key(result):
    clauses = [str(c) for c in result.definition] if result.definition else []
    return (
        round(result.precision, 9),
        round(result.recall, 9),
        round(result.f1, 9),
        result.folds,
        clauses,
    )


# --------------------------------------------------------------------- #
# Learners take algorithm inputs only; the session configures them
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", sorted(_learner_kinds()))
def test_no_learner_takes_evaluation_kwargs(kind):
    """Backend, shards, store and context live on the session only, and
    no learner takes a thread count."""
    parameters = inspect.signature(_learner_kinds()[kind]).parameters
    knobs = {
        "backend", "parallelism", "threads", "shards", "saturation_store",
        "context",
    }
    assert not set(parameters) & knobs
    assert all(
        p.kind is not inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )


@pytest.mark.parametrize(
    "layer",
    [
        ProGolemParameters,
        CastorParameters,
        FoilParameters,
        CoveringParameters,
        SubsumptionCoverageEngine,
        CastorCoverageEngine,
        BatchCoverageEngine,
        BatchSaturationEngine,
        NegativeReducer,
        armg,
        castor_armg,
        find_blocking_atom,
        StoredProcedureRunner,
        compare_stored_procedure_modes,
        SQLiteBackend,
        ShardedSQLiteBackend,
        RemoteBackend,
    ],
    ids=lambda f: f.__qualname__,
)
def test_no_layer_takes_a_thread_fan_out_knob(layer):
    """Parallel evaluation is worker processes (``shards=N`` or the server)
    only: no parameters object, engine, prefix search or backend takes a
    thread count, a probe width or a read-pool size."""
    parameters = inspect.signature(layer).parameters
    assert not set(parameters) & {"parallelism", "threads", "probe_width", "pool_size"}


@pytest.mark.parametrize(
    "converter",
    [
        uwcse.load,
        hiv.load,
        hiv.load_small,
        hiv.load_large,
        imdb.load,
        DatasetBundle,
        StoredProcedureRunner,
        compare_stored_procedure_modes,
    ],
    ids=lambda f: f.__qualname__,
)
def test_only_the_session_converts_instances(converter):
    """Bundles, loaders and the stored-procedure runner take no backend:
    ``session.prepare`` is the one place an instance changes backend."""
    assert "backend" not in inspect.signature(converter).parameters
    assert not hasattr(DatasetBundle, "with_backend")


def test_session_apply_configures_a_learner(tiny_bundle):
    store = SaturationStore()
    with LearningSession(SessionConfig()) as session:
        learner = session.apply(
            ProGolemLearner(tiny_bundle.schema(tiny_bundle.variant_names[0])),
            saturation_store=store,
        )
        assert learner.saturation_store is store


def test_every_registry_kind_constructs(tiny_bundle):
    """Every advertised kind — including progol/aleph-foil — is built and
    configured by the session."""
    schema = tiny_bundle.schema(tiny_bundle.variant_names[0])
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        for kind in ("castor", "foil", "golem", "progolem", "progol", "aleph-foil"):
            learner = session.learner(kind, schema)
            assert isinstance(learner, SessionLearner), kind
            assert learner.wrapped.schema is schema, kind


def test_registry_kinds_take_parameters(tiny_bundle):
    """parameters= reaches the right slot on every kind (aleph-foil's
    leading clause_length positional is the trap)."""
    from repro.progol.progol import ProgolParameters

    schema = tiny_bundle.schema(tiny_bundle.variant_names[0])
    params = ProgolParameters(clause_length=4)
    with LearningSession(SessionConfig()) as session:
        learner = session.learner("aleph-foil", schema, params)
        assert learner.parameters is params
        spec = session._as_spec("aleph-foil", params)
        assert spec.build(schema).parameters is params


def test_repeat_sweeps_stay_warm(tiny_bundle):
    """A second sweep on one session reuses the prepared instances and the
    saturation stores (no cache growth)."""
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        session.sweep(
            tiny_bundle, [progolem_spec()],
            variants=tiny_bundle.variant_names[:1], folds=2,
        )
        instances_after_first = dict(session._instances)
        stores_after_first = dict(session._stores)
        session.sweep(
            tiny_bundle, [progolem_spec()],
            variants=tiny_bundle.variant_names[:1], folds=2,
        )
        assert session._instances == instances_after_first
        assert session._stores == stores_after_first


def test_session_learner_learns_on_the_prepared_instance(tiny_bundle):
    """``learn()`` hands the learner the session's prepared instance (here
    in-process ``sqlite``); the learner converts nothing."""
    variant = tiny_bundle.variant_names[0]
    source = tiny_bundle.instance(variant)
    seen = []
    config = SessionConfig(backend="sqlite")
    with LearningSession(config) as session:
        learner = session.learner("progolem", source.schema, progolem_parameters())
        learner.wrapped.learn = lambda instance, examples: seen.append(instance)
        learner.learn(source, tiny_bundle.examples)
        assert seen == [session.prepare(source)]
        assert seen[0] is not source and source.backend_name == "memory"
        assert type(seen[0].backend) is SQLiteBackend


def test_session_learner_registry(tiny_bundle):
    schema = tiny_bundle.schema(tiny_bundle.variant_names[0])
    with LearningSession(SessionConfig()) as session:
        learner = session.learner("progolem", schema, progolem_parameters())
        assert isinstance(learner, SessionLearner)
        assert isinstance(learner.wrapped, ProGolemLearner)
        with pytest.raises(ValueError, match="castor"):
            session.learner("no-such-learner", schema)


# --------------------------------------------------------------------- #
# session.run / session.learner parity with the per-run path
# --------------------------------------------------------------------- #
def run_alone(bundle, variant, spec, **config):
    """``run_variant`` through a fresh session of its own."""
    with LearningSession(SessionConfig(**config)) as session:
        return run_variant(bundle, variant, spec, folds=2, session=session)


def test_session_run_matches_run_variant(tiny_bundle):
    variant = tiny_bundle.variant_names[0]
    legacy = run_alone(tiny_bundle, variant, progolem_spec(), backend="sqlite")
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        through_session = session.run(tiny_bundle, variant, progolem_spec(), folds=2)
        repeat = session.run(tiny_bundle, variant, progolem_spec(), folds=2)
    assert as_key(through_session) == as_key(legacy)
    assert as_key(repeat) == as_key(legacy)


def test_session_learner_learn_matches_direct_learner(tiny_bundle):
    variant = tiny_bundle.variant_names[0]
    schema = tiny_bundle.schema(variant)
    instance = tiny_bundle.instance(variant)
    direct = ProGolemLearner(schema, progolem_parameters()).learn(
        instance.with_backend("sqlite"), tiny_bundle.examples
    )
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        learner = session.learner("progolem", schema, progolem_parameters())
        through_session = learner.learn(instance, tiny_bundle.examples)
    assert sorted(map(str, through_session)) == sorted(map(str, direct))


def test_repeated_runs_share_one_store_and_instance(tiny_bundle):
    variant = tiny_bundle.variant_names[0]
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        prepared_first = session.prepare(tiny_bundle.instance(variant))
        store_first = session.saturation_store_for(prepared_first)
        session.run(tiny_bundle, variant, progolem_spec(), folds=2)
        prepared_second = session.prepare(tiny_bundle.instance(variant))
        store_second = session.saturation_store_for(prepared_second)
        assert prepared_first is prepared_second
        assert store_first is store_second


def test_constructed_learner_follows_the_variant_schema(tiny_bundle):
    """A pre-built learner passed to sweep/check is rebound to each
    variant's schema instead of silently learning with the wrong one."""
    variants = tiny_bundle.variant_names[:2]
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        by_factory = session.sweep(
            tiny_bundle, [progolem_spec()], variants=variants, folds=2
        )
    constructed = ProGolemLearner(
        tiny_bundle.schema(variants[0]), progolem_parameters()
    )
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        by_object = session.sweep(
            tiny_bundle, [constructed], variants=variants, folds=2
        )
        # Other variants learn on a per-variant clone; the caller's object
        # is never left mutated.
        assert constructed.schema is tiny_bundle.schema(variants[0])
    assert [as_key(r) for r in by_object] == [as_key(r) for r in by_factory]


def test_stores_are_keyed_per_saturation_config(tiny_bundle):
    """Same-configured learners share a warm store; learners whose builders
    construct different saturations never do (the store dedups by example,
    so sharing across configs would answer coverage from foreign clauses)."""
    variant = tiny_bundle.variant_names[0]
    schema = tiny_bundle.schema(variant)
    shallow = progolem_parameters()
    deep = ProGolemParameters(
        sample_size=2,
        beam_width=2,
        max_armg_rounds=2,
        max_clauses=4,
        bottom_clause=BottomClauseConfig(max_depth=3, max_total_literals=40),
    )
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        prepared = session.prepare(tiny_bundle.instance(variant))
        store_a = session.saturation_store_for(
            prepared, ProGolemLearner(schema, shallow)
        )
        store_a_again = session.saturation_store_for(
            prepared, ProGolemLearner(schema, shallow)
        )
        store_b = session.saturation_store_for(
            prepared, ProGolemLearner(schema, deep)
        )
        assert store_a is store_a_again, "same config must share the store"
        assert store_a is not store_b, "different configs must not"


def test_multi_spec_sweep_matches_per_run_path(tiny_bundle):
    """A sweep mixing differently-configured specs produces the same
    definitions as running each spec in isolation."""
    variant = tiny_bundle.variant_names[0]
    deep_spec = LearnerSpec(
        "ProGolem-deep",
        lambda schema: ProGolemLearner(
            schema,
            ProGolemParameters(
                sample_size=2,
                beam_width=2,
                max_armg_rounds=2,
                max_clauses=4,
                bottom_clause=BottomClauseConfig(
                    max_depth=3, max_total_literals=40
                ),
            ),
        ),
    )
    isolated = [
        run_alone(tiny_bundle, variant, spec, backend="sqlite")
        for spec in (progolem_spec(), deep_spec)
    ]
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        swept = session.sweep(
            tiny_bundle, [progolem_spec(), deep_spec],
            variants=[variant], folds=2,
        )
    assert [as_key(r) for r in swept] == [as_key(r) for r in isolated]


# --------------------------------------------------------------------- #
# Storage × placement: shards= puts sqlite on a local fleet
# --------------------------------------------------------------------- #
def test_shards_place_sqlite_on_a_fleet_with_the_default_topology(tiny_bundle):
    with LearningSession(SessionConfig(shards=2)) as session:
        prepared = session.prepare(tiny_bundle.instance(tiny_bundle.variant_names[0]))
        backend = prepared.backend
        assert type(backend) is ShardedSQLiteBackend
        assert prepared.backend_name == "sqlite"
        assert backend.shards == 2
        assert backend.supports_concurrent_reads


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("kind", ["castor", "progolem", "golem", "foil"])
def test_sharded_placement_learns_the_memory_definitions(tiny_bundle, kind, shards):
    """Placement only moves work: every learner learns a byte-identical
    definition on a fleet and in memory."""
    variant = tiny_bundle.variant_names[0]
    schema = tiny_bundle.schema(variant)
    # A private copy: the memory session prepares (and so manages) it.
    instance = tiny_bundle.instance(variant).copy()

    def learn(config):
        with LearningSession(config) as session:
            definition = str(
                session.learner(kind, schema).learn(instance, tiny_bundle.examples)
            )
            stats = session.evaluation_stats()
            return definition, session.prepare(instance).backend, stats

    expected, _, _ = learn(SessionConfig(backend="memory"))
    sharded, backend, stats = learn(SessionConfig(backend="sqlite", shards=shards))
    assert sharded == expected
    assert isinstance(backend, ShardedSQLiteBackend)
    assert backend.shards == shards and backend.name == "sqlite"
    assert stats["batches_served"] > 0


def test_repeat_runs_reuse_one_fleet(tiny_bundle):
    """The fleet is built once per prepared instance: a second
    ``session.run`` lands on the same warm workers."""
    variant = tiny_bundle.variant_names[0]
    with LearningSession(SessionConfig(backend="sqlite", shards=2)) as session:
        first = session.run(tiny_bundle, variant, progolem_spec(), folds=2)
        prepared = session.prepare(tiny_bundle.instance(variant))
        service = prepared.backend.coverage_service()
        pids = service.worker_pids()
        assert any(pid is not None for pid in pids)
        second = session.run(tiny_bundle, variant, progolem_spec(), folds=2)
        assert session.prepare(tiny_bundle.instance(variant)) is prepared
        assert prepared.backend.coverage_service() is service
        assert service.worker_pids() == pids
    assert as_key(first) == as_key(second)


def test_prepare_converts_across_placements(tiny_bundle):
    """A fleet-placed source is reused by a session with the same shard
    count and moved in process by a plain ``sqlite`` session, although both
    report the storage name ``sqlite``."""
    source = tiny_bundle.instance(tiny_bundle.variant_names[0]).with_backend(
        ShardedSQLiteBackend(shards=2)
    )
    try:
        with LearningSession(SessionConfig(shards=2)) as session:
            assert session.prepare(source) is source
        with LearningSession(SessionConfig(shards=1)) as session:
            assert session.prepare(source).backend.shards == 1
        with LearningSession(SessionConfig(backend="sqlite")) as session:
            prepared = session.prepare(source)
            assert type(prepared.backend) is SQLiteBackend
            assert prepared.same_contents(source)
    finally:
        source.backend.close()


@pytest.mark.parametrize(
    "source_backend",
    ["memory", "sqlite", lambda: ShardedSQLiteBackend(shards=1)],
    ids=["memory", "sqlite", "sqlite-sharded"],
)
def test_data_token_moves_on_mutation(tiny_bundle, source_backend):
    """Every backend exposes a contents-version token; on a fleet it is
    what tells the workers to reload."""
    if callable(source_backend):
        source_backend = source_backend()
    instance = tiny_bundle.instance(tiny_bundle.variant_names[0]).with_backend(
        source_backend
    )
    relation = instance.schema.relations[0]
    before = instance.data_token()
    assert before is not None
    instance.add_tuples(
        relation.name, [("token-witness",) * len(relation.attributes)]
    )
    assert instance.data_token() != before


def test_source_mutations_invalidate_the_prepared_cache(tiny_bundle):
    """Mutating the source instance between runs re-converts and drops the
    stale saturation stores (legacy per-learn() conversion semantics)."""
    source = tiny_bundle.instance(tiny_bundle.variant_names[0])
    relation = source.schema.relations[0]
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        first = session.prepare(source)
        store = session.saturation_store_for(first)
        assert store is not None and session._stores
        source.add_tuples(relation.name, [("mutation-witness",) * len(relation.attributes)])
        second = session.prepare(source)
        assert second is not first, "stale conversion must be replaced"
        assert ("mutation-witness",) * len(relation.attributes) in second.relation(
            relation.name
        ).rows
        assert not any(key[0] == id(first) for key in session._stores)


def test_storeless_learner_opens_no_store(tiny_bundle):
    """FOIL through a session never opens a SaturationStore connection."""
    variant = tiny_bundle.variant_names[0]
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        learner = session.learner("foil", tiny_bundle.schema(variant))
        learner.learn(tiny_bundle.instance(variant), tiny_bundle.examples)
        assert session._stores == {}


def test_reuse_disabled_hands_out_no_store(tiny_bundle):
    variant = tiny_bundle.variant_names[0]
    with LearningSession(
        SessionConfig(backend="sqlite", reuse_saturation_store=False)
    ) as session:
        prepared = session.prepare(tiny_bundle.instance(variant))
        assert session.saturation_store_for(prepared) is None
        assert session.store_supplier(prepared) is None


# --------------------------------------------------------------------- #
# In-process sqlite: one connection, the memory definitions
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["castor", "progolem", "golem", "foil"])
def test_in_process_sqlite_learns_the_memory_definitions(tiny_bundle, kind):
    """``sqlite`` in process learns the definitions ``memory`` learns, on
    one connection that no prefetch thread reads."""
    variant = tiny_bundle.variant_names[0]
    schema = tiny_bundle.schema(variant)
    instance = tiny_bundle.instance(variant)

    def learn(config):
        with LearningSession(config) as session:
            definition = session.learner(kind, schema).learn(
                instance, tiny_bundle.examples
            )
            return str(definition), session.prepare(instance).backend

    expected, _ = learn(SessionConfig(backend="memory"))
    single, backend = learn(SessionConfig(backend="sqlite"))
    assert single == expected
    assert type(backend) is SQLiteBackend
    assert backend.supports_concurrent_reads is False


# --------------------------------------------------------------------- #
# Lifecycle safety
# --------------------------------------------------------------------- #
def test_close_is_idempotent_and_blocks_reuse(tiny_bundle):
    session = LearningSession(SessionConfig(backend="sqlite"))
    session.prepare(tiny_bundle.instance(tiny_bundle.variant_names[0]))
    session.close()
    session.close()  # idempotent
    assert session.closed
    with pytest.raises(RuntimeError, match="closed"):
        session.prepare(tiny_bundle.instance(tiny_bundle.variant_names[0]))
    with pytest.raises(RuntimeError, match="closed"):
        with session:
            pass


def test_context_manager_closes(tiny_bundle):
    with LearningSession(SessionConfig()) as session:
        assert not session.closed
    assert session.closed


def test_close_shuts_down_owned_sharded_fleet(tiny_bundle):
    session = LearningSession(SessionConfig(backend="sqlite", shards=2))
    prepared = session.prepare(tiny_bundle.instance(tiny_bundle.variant_names[0]))
    backend = prepared.backend
    service = backend.coverage_service().start()
    pids = [pid for pid in service.worker_pids() if pid is not None]
    assert pids, "fleet should be running"
    session.close()
    assert backend._service is None


def test_evaluation_stats_counts_sharded_reloads(tiny_bundle):
    with LearningSession(SessionConfig(backend="sqlite", shards=2)) as session:
        result = session.run(
            tiny_bundle, tiny_bundle.variant_names[0], progolem_spec(), folds=2
        )
        stats = session.evaluation_stats()
        assert result is not None
        assert stats["batches_served"] > 0
