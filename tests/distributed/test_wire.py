"""Unit tests: the versioned tagged-JSON wire format and the fair lock."""

from __future__ import annotations

import json
import pickle
import threading
import time

import pytest

from repro.database.constraints import FunctionalDependency, InclusionDependency
from repro.database.schema import RelationSchema, Schema
from repro.distributed import wire
from repro.distributed.fairness import FairLock
from repro.distributed.protocol import QuotaExceededError, ServerBusyError
from repro.distributed.wire import WIRE_VERSION, WireFormatError
from repro.distributed.worker import InstancePayload
from repro.learning.bottom_clause import BottomClauseConfig
from repro.learning.examples import Example
from repro.logic.atoms import Atom
from repro.logic.clauses import HornClause
from repro.logic.terms import Constant, Variable


def roundtrip(message):
    return wire.loads(wire.dumps(message))


# --------------------------------------------------------------------- #
# Round-trips
# --------------------------------------------------------------------- #
def test_scalars_keep_their_exact_types():
    kind, payload = roundtrip(("t", (1, 1.0, True, False, None, "x", -7)))
    assert payload == (1, 1.0, True, False, None, "x", -7)
    assert [type(v) for v in payload] == [int, float, bool, bool, type(None), str, int]


def test_containers_roundtrip_with_identity():
    value = {
        "list": [1, [2, 3]],
        "tuple": ("a", ("b",)),
        "set": {1, 2, 3},
        "frozen": frozenset({("x", 1)}),
        "bytes": b"\x00\xff\x80",
        ("tuple", "key"): "tuple keys survive",
    }
    _, decoded = roundtrip(("t", value))
    assert decoded == value
    assert isinstance(decoded["tuple"], tuple)
    assert isinstance(decoded["set"], set)
    assert isinstance(decoded["frozen"], frozenset)
    assert isinstance(decoded["bytes"], bytes)


def test_domain_objects_roundtrip():
    clause = HornClause(
        Atom("advisedby", [Variable("A"), Variable("B")]),
        [Atom("professor", [Variable("B")]), Atom("rank", [Variable("B"), Constant(3)])],
    )
    example = Example("advisedby", ("s1", "p2"), False)
    _, decoded = roundtrip(("t", (clause, example)))
    assert decoded == (clause, example)
    assert decoded[0].head.terms[0] == Variable("A")


def test_bottom_clause_config_roundtrips_including_nones():
    config = BottomClauseConfig(
        max_depth=None, max_distinct_variables=9, max_total_literals=50
    )
    _, (decoded,) = roundtrip(("t", (config,)))
    assert decoded.max_depth is None
    assert decoded.max_distinct_variables == 9
    assert decoded.max_total_literals == 50
    assert decoded.theory_constant_threshold == config.theory_constant_threshold


def test_instance_payload_roundtrips_schema_constraints_and_rows():
    schema = Schema(
        [RelationSchema("r", ["a", "b"]), RelationSchema("s", ["a"])],
        functional_dependencies=[FunctionalDependency("r", ["a"], ["b"])],
        inclusion_dependencies=[
            InclusionDependency("s", ["a"], "r", ["a"], with_equality=True)
        ],
        name="uni",
    )
    payload = InstancePayload(
        schema,
        {"r": [(1, "x"), (2.5, None), (True, "y")], "s": [("z",)]},
    )
    _, (handle, content_hash, decoded) = roundtrip(("load", ("h", "v1", payload)))
    assert (handle, content_hash) == ("h", "v1")
    assert decoded.rows == payload.rows
    assert decoded.rows["r"][2][0] is True  # bool stays bool, not 1
    assert decoded.schema == schema
    assert decoded.schema.functional_dependencies[0].relation == "r"
    assert decoded.schema.inclusion_dependencies[0].with_equality is True


def test_set_encoding_is_deterministic():
    """Identical sets built in different orders digest identically —
    the server's batch coalescer keys on these bytes."""
    a = wire.dumps(("k", frozenset({"c", "a", "b"})))
    b = wire.dumps(("k", frozenset(["b", "c", "a"])))
    assert a == b
    assert wire.payload_digest("k", {3, 1, 2}) == wire.payload_digest("k", {2, 3, 1})


# --------------------------------------------------------------------- #
# Strictness: nothing outside the whitelist decodes
# --------------------------------------------------------------------- #
def test_loads_rejects_non_json_and_pickle_bodies():
    for body in (b"\x80\x05garbage", pickle.dumps(("ping", None)), b"", b"[1,2]"):
        with pytest.raises(WireFormatError):
            wire.loads(body)


def test_loads_rejects_wrong_version_and_malformed_envelopes():
    for body in (
        json.dumps({"v": 99, "kind": "ping", "payload": None}),
        json.dumps({"kind": "ping", "payload": None}),
        json.dumps({"v": WIRE_VERSION, "payload": None}),
        json.dumps({"v": WIRE_VERSION, "kind": 7, "payload": None}),
        json.dumps({"v": WIRE_VERSION, "kind": "x", "payload": None, "extra": 1}),
    ):
        with pytest.raises(WireFormatError):
            wire.loads(body.encode())


def test_decode_rejects_unknown_tags_and_raw_objects():
    for payload in (["EVIL", 1], [], [7, 8], {"a": 1}, ["var"], ["var", 7]):
        body = json.dumps({"v": WIRE_VERSION, "kind": "x", "payload": payload})
        with pytest.raises(WireFormatError):
            wire.loads(body.encode())


def test_decode_rejects_hostile_deep_nesting():
    # Built by string concatenation: json.dumps itself cannot emit this.
    deep = '["L",' * 10_000 + '["L"]' + "]" * 10_000
    body = f'{{"v": {WIRE_VERSION}, "kind": "x", "payload": {deep}}}'
    with pytest.raises(WireFormatError):
        wire.loads(body.encode())


def test_encode_rejects_unrepresentable_types():
    class Mystery:
        pass

    with pytest.raises(WireFormatError):
        wire.dumps(("x", Mystery()))
    # In particular: arbitrary callables/classes never cross the wire.
    with pytest.raises(WireFormatError):
        wire.dumps(("x", eval))


def test_malformed_domain_values_raise_wire_errors_not_random_ones():
    cases = [
        ["atom", "", ["L"]],  # empty predicate: constructor rejects
        ["bcconfig", "a", 1, 1, 1, 1],  # non-int field
        ["example", "t", ["T"], "yes"],  # non-bool polarity
        ["B", "not-base64!!"],
        ["D", [1, 2, 3]],  # dict entry must be a pair
        ["instpayload", None, None],
        ["instpayload", None, [], "sqlite", None],  # a v1 payload's arity
    ]
    for payload in cases:
        body = json.dumps({"v": WIRE_VERSION, "kind": "x", "payload": payload})
        with pytest.raises(WireFormatError):
            wire.loads(body.encode())


# --------------------------------------------------------------------- #
# FairLock: fairness, quotas, admission control
# --------------------------------------------------------------------- #
def test_fair_lock_basic_acquire_release_and_nonblocking():
    lock = FairLock()
    assert lock.acquire(client="a")
    assert not lock.acquire(client="b", blocking=False)
    lock.release()
    assert lock.acquire(client="b", blocking=False)
    lock.release()


def test_fair_lock_round_robin_between_clients():
    """With A hammering and B waiting, release alternates clients instead
    of letting A's backlog starve B."""
    lock = FairLock()
    grants = []
    lock.acquire(client="holder")

    def waiter(client, index):
        lock.acquire(client=client)
        grants.append(client)
        lock.release()

    threads = []
    for i in range(3):  # A queues three requests...
        t = threading.Thread(target=waiter, args=("A", i), daemon=True)
        t.start()
        threads.append(t)
        time.sleep(0.02)
    t = threading.Thread(target=waiter, args=("B", 0), daemon=True)  # ...then B one
    t.start()
    threads.append(t)
    time.sleep(0.05)
    lock.release()
    for t in threads:
        t.join(timeout=5)
    # B is served second (right after A's first grant), not last.
    assert grants[1] == "B"
    assert grants.count("A") == 3


def test_fair_lock_quota_and_queue_caps_raise_typed_errors():
    lock = FairLock(max_queue=2, client_quota=1)
    lock.acquire(client="holder")
    threads = []
    results = []

    def queued(client):
        try:
            lock.acquire(client=client)
            results.append(client)
            lock.release()
        except (QuotaExceededError, ServerBusyError) as exc:
            results.append(exc)

    t1 = threading.Thread(target=queued, args=("a",), daemon=True)
    t1.start()
    threads.append(t1)
    time.sleep(0.05)
    # Same client again: over its quota of 1 queued request.
    with pytest.raises(QuotaExceededError):
        lock.acquire(client="a")
    # Different client fills the queue to max_queue...
    t2 = threading.Thread(target=queued, args=("b",), daemon=True)
    t2.start()
    threads.append(t2)
    time.sleep(0.05)
    # ...so a third is refused admission outright.
    with pytest.raises(ServerBusyError):
        lock.acquire(client="c")
    lock.release()
    for t in threads:
        t.join(timeout=5)
    assert set(results) == {"a", "b"}
    assert lock.rejected_quota == 1
    assert lock.rejected_busy == 1


def test_fair_lock_timeout_returns_false_and_leaves_queue_clean():
    lock = FairLock()
    lock.acquire(client="holder")
    assert lock.acquire(client="late", timeout=0.05) is False
    assert lock.queue_depth == 0
    lock.release()
    assert lock.acquire(client="late", blocking=False)
    lock.release()
