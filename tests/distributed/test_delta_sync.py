"""Delta synchronization across process and network boundaries.

The distributed half of the update API:

* a transaction on a server-placed (``RemoteBackend``) instance ships ONE ``apply_delta``
  frame (not the full payload) to a warm server, which advances the held
  payload, verifies the claimed content hash, and repairs its fleet from
  the recorded hash chain;
* a corrupt/diverged delta is rejected with the typed wire error and the
  client recovers through the full register/load dance — correctness never
  rides on the delta path;
* a warm fleet-placed (``ShardedSQLiteBackend``) instance survives many update rounds with
  incremental reloads only, staying byte-identical to a cold rebuild.
"""

from __future__ import annotations

import random

import pytest

from repro.database import Delta
from repro.database.instance import DatabaseInstance
from repro.database.schema import RelationSchema, Schema
from repro.database.sqlite_backend import SaturationStore
from repro.distributed import (
    InstancePayload,
    RemoteBackend,
    ServerError,
    ServiceClient,
    ServiceServer,
    ShardedSQLiteBackend,
)
from repro.learning.bottom_clause import BottomClauseConfig
from repro.learning.coverage import SubsumptionCoverageEngine
from repro.learning.examples import Example
from repro.logic.parser import parse_clause


def tiny_schema() -> Schema:
    return Schema(
        [RelationSchema("p", ["a", "b"]), RelationSchema("q", ["a"])],
        name="delta-sync",
    )


@pytest.fixture(scope="module")
def server():
    server = ServiceServer("127.0.0.1", 0, shards=2)
    server.start_in_thread()
    yield server
    server.shutdown()


# --------------------------------------------------------------------- #
# Remote: one apply_delta frame instead of a payload re-ship
# --------------------------------------------------------------------- #
def test_remote_transaction_ships_one_delta_frame(server):
    instance = DatabaseInstance(
        tiny_schema(), backend=RemoteBackend(address=server.address)
    )
    try:
        with instance.transaction():
            for i in range(20):
                instance.add_tuple("p", (i, i + 1))
                instance.add_tuple("q", (i,))

        clause = parse_clause("q(x) :- p(x, y).")
        backend = instance.backend
        candidates = [(i,) for i in list(range(20)) + [100]]
        assert backend.covered_head_tuples_batch([clause], candidates)[0] == {
            (i,) for i in range(20)
        }
        service = backend.remote_service
        assert service.reloads_full == 1

        with instance.transaction():
            instance.add_tuple("p", (100, 101))
            instance.add_tuple("q", (100,))
            instance.remove_tuple("p", (0, 1))
        covered = backend.covered_head_tuples_batch([clause], candidates)[0]
        assert (100,) in covered and (0,) not in covered
        # The mutation crossed the wire as a delta: no second payload ship.
        assert service.reloads_full == 1
        assert service.reloads_incremental == 1
        stats = service.stats()
        assert stats["deltas_applied"] == 1
        assert stats["loads"] == 1

        # Standalone (non-transactional) mutations ride the same path.
        instance.add_tuple("p", (200, 201))
        covered = backend.covered_head_tuples_batch(
            [clause], candidates + [(200,)]
        )[0]
        assert (200,) in covered
        assert service.reloads_full == 1
        assert service.reloads_incremental == 2
    finally:
        instance.backend.close()


def test_remote_recovers_when_the_delta_chain_is_lost(server):
    """Handle eviction between a mutation and the next batch: the delta has
    nowhere to land, so the client falls back to the full dance."""
    instance = DatabaseInstance(
        tiny_schema(), backend=RemoteBackend(address=server.address)
    )
    try:
        instance.add_tuples("p", [(1, 2), (3, 4)])
        instance.add_tuples("q", [(1,), (3,)])
        clause = parse_clause("q(x) :- p(x, y).")
        backend = instance.backend
        assert backend.covered_head_tuples_batch([clause], [(1,), (3,)])[0] == {
            (1,),
            (3,),
        }
        service = backend.remote_service
        with ServiceClient(server.address) as admin:
            assert admin.unregister(service.handle)
        instance.add_tuple("p", (5, 6))
        instance.add_tuple("q", (5,))
        covered = backend.covered_head_tuples_batch([clause], [(1,), (5,)])[0]
        assert covered == {(1,), (5,)}
        assert service.reloads_full == 2, "eviction must force a re-ship"
    finally:
        instance.backend.close()


def test_apply_delta_wire_contract(server):
    """Raw-protocol checks: hash verification, unknown relations, and the
    recorded chain powering worker diff sync."""
    schema = tiny_schema()
    payload = InstancePayload(schema, {"p": [(1, 2)], "q": [(1,)]})
    from repro.distributed.client import payload_content_hash

    hash_v1 = payload_content_hash(payload)
    with ServiceClient(server.address) as client:
        client.request("load", ("delta-probe", hash_v1, payload))

        # A delta that does not reproduce the claimed hash is rejected with
        # the typed error, and the server's payload is left untouched.
        delta = Delta.add("p", [(7, 8)])
        with pytest.raises(ServerError, match="does not reproduce"):
            client.request(
                "apply_delta", ("delta-probe", hash_v1, "bogus-hash", delta)
            )
        advanced = InstancePayload(schema, {"p": [(1, 2), (7, 8)], "q": [(1,)]})
        hash_v2 = payload_content_hash(advanced)
        result = client.request(
            "apply_delta", ("delta-probe", hash_v1, hash_v2, delta)
        )
        assert result["deltas_applied"] == 1
        assert result["tuples"] == 3

        # Deltas against a relation the payload does not hold are typed too.
        with pytest.raises(ServerError, match="unknown relation"):
            client.request(
                "apply_delta",
                ("delta-probe", hash_v2, "any", Delta.add("nope", [(1,)])),
            )

        # Only a Delta advances a payload; bare op tuples are refused.
        with pytest.raises(ServerError, match="takes a Delta"):
            client.request(
                "apply_delta",
                ("delta-probe", hash_v2, "any", [("add", "p", [(9, 9)])]),
            )

        # A stale base hash is a version mismatch, same as a stale batch.
        with pytest.raises(ServerError, match="different data version"):
            client.request(
                "apply_delta", ("delta-probe", hash_v1, hash_v2, delta)
            )
        client.unregister("delta-probe")


# --------------------------------------------------------------------- #
# Sharded fleet: multi-round delta maintenance == cold rebuild
# --------------------------------------------------------------------- #
def test_sharded_fleet_survives_many_update_rounds():
    """Deterministic multi-round churn on a warm two-shard fleet: every
    round replays as an incremental diff (the churn is ~1% of the payload,
    so the diff path always wins), engines repair in place, and store
    contents + coverage stay identical to a cold rebuild."""
    schema = Schema(
        [RelationSchema("r", ["a", "b"]), RelationSchema("s", ["a", "c"])],
        name="delta-rounds",
    )
    values = ["u", "v", "w", "x", "y"]
    examples = [Example("t", (value,), True) for value in values]
    clauses = [
        parse_clause("t(x) :- r(x, y)."),
        parse_clause("t(x) :- r(x, y), s(x, z)."),
    ]
    rng = random.Random(29)

    warm = DatabaseInstance(
        schema, backend=ShardedSQLiteBackend(shards=2)
    )
    try:
        # A payload two orders of magnitude above the per-round churn, so
        # collect_diff's "diff smaller than payload" gate always passes.
        with warm.transaction():
            for value in values:
                warm.add_tuples("r", [(value, f"b{i}") for i in range(40)])
                warm.add_tuples("s", [(value, f"c{i}") for i in range(40)])
        store = SaturationStore()
        engine = SubsumptionCoverageEngine(
            warm,
            BottomClauseConfig(max_depth=2),
            compiled=True,
            saturation_store=store,
        )
        engine.materialize(examples)
        service = warm.backend.coverage_service()
        baseline_full = service.reloads_full

        for round_index in range(4):
            # Touch two distinct example footprints per round, so the stale
            # set is big enough to rebuild through the sharded batch path.
            first, second = (
                values[round_index % len(values)],
                values[(round_index + 2) % len(values)],
            )
            ops = [
                ("add", "r", ((first, f"extra{round_index}"),)),
                ("add", "s", ((second, f"extra{round_index}"),)),
                (
                    "remove",
                    "r",
                    (rng.choice(sorted(warm.relation("r").rows, key=repr)),),
                ),
            ]
            delta = Delta(ops).coalesced()
            warm.apply_delta(delta)
            stale = engine.apply_delta(delta)
            assert len(stale) >= 2
            engine.materialize(examples)

            cold = DatabaseInstance(schema, backend="sqlite")
            with cold.transaction():
                for name in ("r", "s"):
                    cold.add_tuples(name, sorted(warm.relation(name).rows, key=repr))
            cold_store = SaturationStore()
            cold_engine = SubsumptionCoverageEngine(
                cold,
                BottomClauseConfig(max_depth=2),
                compiled=True,
                saturation_store=cold_store,
            )
            cold_engine.materialize(examples)

            assert store.contents() == cold_store.contents(), (
                f"store diverged on round {round_index}"
            )
            for clause in clauses:
                assert frozenset(engine.covered_examples(clause, examples)) == (
                    frozenset(cold_engine.covered_examples(clause, examples))
                ), f"coverage diverged on round {round_index}: {clause}"

        assert service.reloads_incremental >= 4, "rounds must ride the diff path"
        assert service.reloads_full == baseline_full, (
            "the warm fleet must never fall back to a full reload"
        )
    finally:
        warm.backend.close()
