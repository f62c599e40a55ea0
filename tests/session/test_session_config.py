"""SessionConfig validation: storage × placement combos that cannot run are
rejected with actionable messages, and apply() is the single warn-once
normalization path."""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.database import RelationSchema, Schema
from repro.progolem.progolem import ProGolemLearner
from repro.session import SessionConfig

ADDRESS = "127.0.0.1:7463"

# Base settings of each storage × placement case; ``sqlite-pool`` is
# ``sqlite`` sized to a snapshot read pool by ``parallelism``, and
# ``sqlite-shards`` is ``sqlite`` placed on a local fleet.
BACKENDS = {
    "memory": {"backend": "memory"},
    "sqlite": {"backend": "sqlite"},
    "sqlite-pool": {"backend": "sqlite", "parallelism": 2},
    "sqlite-shards": {"backend": "sqlite", "shards": 2},
}
backend_matrix = pytest.mark.parametrize(
    "base", list(BACKENDS.values()), ids=list(BACKENDS)
)


def schema() -> Schema:
    return Schema([RelationSchema("r", ["a", "b"])], name="s")


def test_config_has_nine_fields():
    assert [field.name for field in dataclasses.fields(SessionConfig)] == [
        "backend",
        "parallelism",
        "shards",
        "reuse_saturation_store",
        "service_address",
        "instance_handle",
        "auth_token",
        "request_timeout",
        "trace",
    ]


# --------------------------------------------------------------------- #
# Storage × placement validation
# --------------------------------------------------------------------- #
@backend_matrix
def test_shards_place_sqlite_storage_only(base):
    if base["backend"] == "memory":
        with pytest.raises(ValueError, match="'memory' backend.*backend='sqlite'"):
            SessionConfig(**base, shards=2)
    else:
        config = SessionConfig(**{**base, "shards": 3})
        assert config.shards == 3 and config.backend == "sqlite"


@backend_matrix
def test_service_address_places_sqlite_storage_only(base):
    if base["backend"] == "memory":
        with pytest.raises(ValueError, match="'memory' backend"):
            SessionConfig(**base, service_address=ADDRESS)
    elif "shards" in base:
        with pytest.raises(ValueError, match="drop one"):
            SessionConfig(**base, service_address=ADDRESS)
    else:
        config = SessionConfig(**base, service_address=ADDRESS)
        assert config.backend == "sqlite"


@backend_matrix
def test_parallelism_is_coherent_on_every_backend(base):
    # On sqlite it sizes the snapshot read pool instead of being rejected.
    config = SessionConfig(**base).merged(parallelism=3)
    assert config.parallelism == 3 and config.backend == base["backend"]


@backend_matrix
def test_unset_knobs_are_always_coherent(base):
    # The knobless config is valid on every backend.
    assert SessionConfig(**base).backend == base["backend"]


def test_placement_without_a_backend_means_sqlite():
    assert SessionConfig(shards=2).backend == "sqlite"
    assert SessionConfig(service_address=ADDRESS).backend == "sqlite"
    assert SessionConfig().backend is None


@pytest.mark.parametrize("name", ["voltdb", "sqlite-sharded", "sqlite-remote"])
def test_unknown_backend_lists_the_registry(name):
    with pytest.raises(
        ValueError, match=r"unknown backend .*available: \['memory', 'sqlite'\]"
    ):
        SessionConfig(backend=name)


def test_out_of_range_counts():
    with pytest.raises(ValueError, match="parallelism"):
        SessionConfig(parallelism=0)
    with pytest.raises(ValueError, match="shards"):
        SessionConfig(backend="sqlite", shards=0)


# --------------------------------------------------------------------- #
# Persistent-server address rules
# --------------------------------------------------------------------- #
def test_service_address_must_parse():
    with pytest.raises(ValueError, match="HOST:PORT"):
        SessionConfig(service_address="not-an-address")
    assert SessionConfig(service_address=ADDRESS).service_address


def test_service_address_conflicts_with_local_shards():
    with pytest.raises(ValueError, match="fixed when it starts"):
        SessionConfig(service_address=ADDRESS, shards=2)


def test_connection_settings_require_an_address():
    with pytest.raises(ValueError, match="service_address"):
        SessionConfig(auth_token="secret")
    with pytest.raises(ValueError, match="service_address"):
        SessionConfig(request_timeout=5.0)
    with pytest.raises(ValueError, match="> 0"):
        SessionConfig(service_address=ADDRESS, request_timeout=0)


# --------------------------------------------------------------------- #
# merged()
# --------------------------------------------------------------------- #
def test_merged_overrides_and_revalidates():
    base = SessionConfig(backend="sqlite", shards=2)
    bumped = base.merged(shards=4)
    assert bumped.shards == 4 and bumped.backend == "sqlite"
    assert base.shards == 2  # immutable
    with pytest.raises(ValueError, match="'memory' backend"):
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
    config = SessionConfig(backend="sqlite", parallelism=5)
    assert config.apply(learner) is learner
    assert learner.parallelism == 5
    assert not hasattr(learner, "backend")
    assert not hasattr(learner, "compiled_coverage")


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


def test_apply_leaves_learner_topology_alone():
    """Backend and shards reach instances only (through ``prepare``); a
    learner gets no topology attributes and no warning about them."""
    learner = ProGolemLearner(schema())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SessionConfig(backend="sqlite", shards=3).apply(learner)
    assert not hasattr(learner, "shards")
    assert not hasattr(learner, "backend")
