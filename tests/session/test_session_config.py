"""SessionConfig validation: incoherent combos are rejected with actionable
messages, and apply() is the single warn-once normalization path."""

from __future__ import annotations

import warnings

import pytest

from repro.database import DatabaseInstance, RelationSchema, Schema
from repro.progolem.progolem import ProGolemLearner
from repro.session import COVERAGE_STRATEGIES, SessionConfig

# Base settings of each backend case; ``sqlite-pool`` is ``sqlite`` sized
# to a snapshot read pool by ``parallelism``.
BACKENDS = {
    "memory": {"backend": "memory"},
    "sqlite": {"backend": "sqlite"},
    "sqlite-pool": {"backend": "sqlite", "parallelism": 2},
    "sqlite-sharded": {"backend": "sqlite-sharded"},
}
backend_matrix = pytest.mark.parametrize(
    "base", list(BACKENDS.values()), ids=list(BACKENDS)
)


def schema() -> Schema:
    return Schema([RelationSchema("r", ["a", "b"])], name="s")


# --------------------------------------------------------------------- #
# Backend-matrix validation
# --------------------------------------------------------------------- #
@backend_matrix
def test_shards_requires_a_sharded_backend(base):
    if base["backend"] == "sqlite-sharded":
        assert SessionConfig(**base, shards=2).shards == 2
    else:
        with pytest.raises(ValueError, match="sqlite-sharded"):
            SessionConfig(**base, shards=2)


@backend_matrix
def test_parallelism_is_coherent_on_every_backend(base):
    # On sqlite it sizes the snapshot read pool instead of being rejected.
    config = SessionConfig(**base).merged(parallelism=3)
    assert config.parallelism == 3 and config.backend == base["backend"]


@backend_matrix
def test_topology_knobs_only_on_sharded_backends(base):
    if base["backend"] == "sqlite-sharded":
        config = SessionConfig(
            **base, sharding_strategy="round-robin", transport="socket"
        )
        assert config.sharding_strategy == "round-robin"
    else:
        with pytest.raises(ValueError, match="sqlite-sharded"):
            SessionConfig(**base, sharding_strategy="round-robin")
        with pytest.raises(ValueError, match="sqlite-sharded"):
            SessionConfig(**base, transport="socket")


@backend_matrix
def test_unset_knobs_are_always_coherent(base):
    # The knobless config is valid on every backend.
    assert SessionConfig(**base).backend == base["backend"]


def test_unknown_backend_lists_the_registry():
    with pytest.raises(ValueError, match="memory"):
        SessionConfig(backend="voltdb")


def test_out_of_range_counts():
    with pytest.raises(ValueError, match="parallelism"):
        SessionConfig(parallelism=0)
    with pytest.raises(ValueError, match="shards"):
        SessionConfig(backend="sqlite-sharded", shards=0)


def test_unknown_coverage_strategy_lists_options():
    with pytest.raises(ValueError, match="subsumption-compiled"):
        SessionConfig(coverage="compiled")
    for strategy in COVERAGE_STRATEGIES:
        if strategy == "query":
            continue
        assert SessionConfig(coverage=strategy).coverage == strategy


def test_presaturate_needs_the_shared_store():
    with pytest.raises(ValueError, match="reuse_saturation_store"):
        SessionConfig(presaturate=True, reuse_saturation_store=False)


def test_presaturate_incoherent_with_query_coverage():
    with pytest.raises(ValueError, match="no saturations"):
        SessionConfig(presaturate=True, coverage="query")


def test_unknown_strategy_and_transport_names():
    with pytest.raises(ValueError, match="round-robin"):
        SessionConfig(backend="sqlite-sharded", sharding_strategy="modulo")
    with pytest.raises(ValueError, match="pipe"):
        SessionConfig(backend="sqlite-sharded", transport="grpc")


# --------------------------------------------------------------------- #
# Persistent-server address rules
# --------------------------------------------------------------------- #
def test_service_address_must_parse():
    with pytest.raises(ValueError, match="HOST:PORT"):
        SessionConfig(service_address="not-an-address")
    assert SessionConfig(service_address="127.0.0.1:7463").service_address


def test_service_address_conflicts_with_local_topology():
    with pytest.raises(ValueError, match="fixed when the persistent server"):
        SessionConfig(service_address="127.0.0.1:7463", shards=2)
    with pytest.raises(ValueError, match="drop backend="):
        SessionConfig(service_address="127.0.0.1:7463", backend="sqlite-sharded")


def test_remote_backend_requires_an_address():
    with pytest.raises(ValueError, match="service_address"):
        SessionConfig(backend="sqlite-remote")
    config = SessionConfig(
        backend="sqlite-remote", service_address="127.0.0.1:7463"
    )
    assert config.backend == "sqlite-remote"


# --------------------------------------------------------------------- #
# merged()
# --------------------------------------------------------------------- #
def test_merged_overrides_and_revalidates():
    base = SessionConfig(backend="sqlite-sharded", shards=2)
    bumped = base.merged(shards=4)
    assert bumped.shards == 4 and bumped.backend == "sqlite-sharded"
    assert base.shards == 2  # immutable
    with pytest.raises(ValueError, match="sqlite-sharded"):
        base.merged(backend="memory")
    assert base.merged() is base


# --------------------------------------------------------------------- #
# apply(): the single normalization path
# --------------------------------------------------------------------- #
class ConfigKnoblessLearner:
    pass


class OtherConfigKnoblessLearner:
    pass


def test_apply_sets_knobs_the_learner_exposes():
    learner = ProGolemLearner(schema())
    config = SessionConfig(
        backend="sqlite", parallelism=5, coverage="subsumption-python"
    )
    assert config.apply(learner) is learner
    assert learner.parallelism == 5
    assert learner.compiled_coverage is False
    assert not hasattr(learner, "backend")


def test_apply_warns_once_on_learners_without_the_knob():
    with pytest.warns(RuntimeWarning, match="ConfigKnoblessLearner.*parallelism=3"):
        SessionConfig(parallelism=3).apply(ConfigKnoblessLearner())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SessionConfig(parallelism=3).apply(ConfigKnoblessLearner())


def test_apply_warns_again_for_a_different_learner_class():
    with pytest.warns(RuntimeWarning, match="ConfigKnoblessLearner.*parallelism=7"):
        SessionConfig(parallelism=7).apply(ConfigKnoblessLearner())
    with pytest.warns(RuntimeWarning, match="OtherConfigKnoblessLearner.*parallelism=7"):
        SessionConfig(parallelism=7).apply(OtherConfigKnoblessLearner())


def test_apply_hands_out_the_saturation_store():
    from repro.database.sqlite_backend import SaturationStore

    learner = ProGolemLearner(schema())
    store = SaturationStore()
    SessionConfig().apply(learner, saturation_store=store)
    assert learner.saturation_store is store


def test_apply_configures_instance_sharding():
    instance = DatabaseInstance(schema(), backend="sqlite-sharded")
    SessionConfig(backend="sqlite-sharded", shards=3).apply(instance=instance)
    assert instance.backend.shards == 3
    instance.backend.close()


def test_apply_without_instance_leaves_learner_topology_alone():
    """Backend and shards reach instances only (through ``prepare``); a
    learner gets no topology attributes and no warning about them."""
    learner = ProGolemLearner(schema())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SessionConfig(backend="sqlite-sharded", shards=3).apply(learner)
    assert not hasattr(learner, "shards")
    assert not hasattr(learner, "backend")
