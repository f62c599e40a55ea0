"""SessionConfig validation: storage × placement combos that cannot run are
rejected with actionable messages, and apply() is the single
normalization path."""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.database import RelationSchema, Schema
from repro.progolem.progolem import ProGolemLearner
from repro.session import SessionConfig

ADDRESS = "127.0.0.1:7463"

# Base settings of each storage × placement case; ``sqlite-shards`` is
# ``sqlite`` placed on a local fleet, ``sqlite-server`` on the persistent
# server.
BACKENDS = {
    "memory": {"backend": "memory"},
    "sqlite": {"backend": "sqlite"},
    "sqlite-shards": {"backend": "sqlite", "shards": 2},
    "sqlite-server": {"backend": "sqlite", "service_address": ADDRESS},
}
backend_matrix = pytest.mark.parametrize(
    "base", list(BACKENDS.values()), ids=list(BACKENDS)
)


def schema() -> Schema:
    return Schema([RelationSchema("r", ["a", "b"])], name="s")


def test_config_has_eight_fields():
    assert [field.name for field in dataclasses.fields(SessionConfig)] == [
        "backend",
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
    elif "service_address" in base:
        with pytest.raises(ValueError, match="drop one"):
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
        config = SessionConfig(**{**base, "service_address": ADDRESS})
        assert config.backend == "sqlite"


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
def test_apply_hands_out_the_saturation_store():
    from repro.database.sqlite_backend import SaturationStore

    learner = ProGolemLearner(schema())
    store = SaturationStore()
    assert SessionConfig().apply(learner, saturation_store=store) is learner
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
    assert not hasattr(learner, "compiled_coverage")
