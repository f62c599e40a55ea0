"""Hardening the persistent server against untrusting, impolite clients.

Fuzzed frames, missing/wrong auth tokens, frozen peers, busy-handle
unregisters, eviction races, per-client quotas, and graceful drain — the
server must stay up, answer with *typed* errors, and never execute a byte
an unauthenticated socket sent it.
"""

from __future__ import annotations

import pickle
import random
import socket
import threading
import time

import pytest

from repro.database import RelationSchema, Schema
from repro.distributed import (
    InstancePayload,
    ServerError,
    ServiceClient,
    ServiceServer,
    TransportError,
    UnknownHandleError,
)
from repro.distributed.protocol import SocketTransport
from repro.distributed.wire import WIRE_VERSION, JsonWireCodec


@pytest.fixture
def make_server():
    """Factory for throwaway servers; everything is torn down afterwards."""
    started = []

    def factory(**kwargs):
        kwargs.setdefault("shards", 1)
        server = ServiceServer("127.0.0.1", 0, **kwargs)
        thread = server.start_in_thread()
        started.append((server, thread))
        return server, thread

    yield factory
    for server, thread in started:
        server.shutdown()
        thread.join(timeout=10)


def tiny_payload(marker: str = "x") -> InstancePayload:
    schema = Schema([RelationSchema("r", ["a", "b"])], name="hardening")
    return InstancePayload(schema, {"r": [(1, marker), (2, marker)]})


def addr_tuple(server: ServiceServer):
    host, port = server.address.rsplit(":", 1)
    return host, int(port)


def frame(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


def wait_until(predicate, timeout: float = 10.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


class _Evil:
    """Pickle payload whose deserialization would run a shell command."""

    def __init__(self, sentinel: str):
        self.sentinel = sentinel

    def __reduce__(self):
        import os

        return (os.system, (f"touch {self.sentinel}",))


# --------------------------------------------------------------------- #
# Fuzzing: hostile bytes never crash the server, never execute
# --------------------------------------------------------------------- #
def test_fuzzed_frames_never_crash_or_execute(make_server, tmp_path):
    server, thread = make_server()
    sentinel = tmp_path / "pwned"
    rng = random.Random(1234)
    valid_handshake = frame(
        b'{"v": %d, "kind": "handshake", "payload": null}' % WIRE_VERSION
    )
    attacks = [
        rng.randbytes(200),  # noise: header + garbage body
        rng.randbytes(3),  # shorter than the length header itself
        valid_handshake[: len(valid_handshake) // 2],  # truncated mid-frame
        (2**30).to_bytes(4, "big"),  # length header far past the cap
        frame(b""),  # empty body
        frame(pickle.dumps(_Evil(str(sentinel)))),  # would touch sentinel
        frame(pickle.dumps(("handshake", {"version": WIRE_VERSION}))),
        frame(b'{"v": 99, "kind": "handshake", "payload": {}}'),
        frame(b'{"v": %d, "kind": "shutdown_server", "payload": null}' % WIRE_VERSION),
        frame(b'[1, 2, 3]'),
    ]
    for attack in attacks:
        sock = socket.create_connection(addr_tuple(server), timeout=5)
        try:
            sock.sendall(attack)
            sock.settimeout(0.5)
            try:
                sock.recv(4096)  # drain any reject reply; content irrelevant
            except (socket.timeout, OSError):
                pass
        finally:
            sock.close()
    assert not sentinel.exists(), "a fuzzed frame reached pickle.loads"
    assert thread.is_alive()
    # A polite client is still served after the barrage.
    with ServiceClient(server.address) as client:
        assert client.ping()
        status = client.server_status()
    assert status["handshakes_rejected"] >= 5  # EOF-only attacks reply nothing
    assert not sentinel.exists()


def test_wrong_version_and_pickle_era_clients_get_typed_rejects(make_server):
    server, _thread = make_server()
    # A future-versioned envelope is refused by version, not by parse error.
    sock = socket.create_connection(addr_tuple(server), timeout=5)
    transport = SocketTransport(sock, codec=JsonWireCodec())
    try:
        transport.send(("handshake", {"version": 99}))
        status, (kind, message, _tb) = transport.recv()
        assert status == "error"
        assert kind == "ProtocolVersionError"
        assert "99" in message
    finally:
        transport.close()
    # A PR-5 client opening with a pickle frame gets told to upgrade.
    sock = socket.create_connection(addr_tuple(server), timeout=5)
    transport = SocketTransport(sock, codec=JsonWireCodec())
    try:
        sock.sendall(frame(pickle.dumps(("handshake", {"version": WIRE_VERSION}))))
        status, (kind, message, _tb) = transport.recv()
        assert status == "error"
        assert kind == "ProtocolVersionError"
        assert "pickle-era" in message
    finally:
        transport.close()


def test_a_wire_v1_client_gets_the_typed_version_error(make_server):
    """Wire v2 dropped fields from the batch and instance payloads, so a v1
    peer is refused at the handshake with a typed error instead of failing
    later on a payload it cannot unpack."""
    server, _thread = make_server()
    sock = socket.create_connection(addr_tuple(server), timeout=5)
    transport = SocketTransport(sock, codec=JsonWireCodec())
    try:
        sock.sendall(
            frame(b'{"v":1,"kind":"handshake","payload":["D",["version",1]]}')
        )
        status, (kind, message, _tb) = transport.recv()
        assert status == "error"
        assert kind == "ProtocolVersionError"
        assert "unsupported wire version 1" in message
    finally:
        transport.close()


def test_malformed_frames_after_handshake_keep_the_connection(make_server):
    """Framing is independent of the body, so one bad frame is answered
    with a typed error and the stream keeps serving."""
    server, _thread = make_server()
    sock = socket.create_connection(addr_tuple(server), timeout=5)
    transport = SocketTransport(sock, codec=JsonWireCodec())
    try:
        transport.send(("handshake", {"version": WIRE_VERSION}))
        status, _info = transport.recv()
        assert status == "ok"
        sock.sendall(frame(b'{"not": "an envelope"}'))
        status, (kind, _message, _tb) = transport.recv()
        assert (status, kind) == ("error", "WireFormatError")
        transport.send(("ping", None))
        assert transport.recv() == ("ok", "pong")
    finally:
        transport.close()


# --------------------------------------------------------------------- #
# Auth: nothing is reachable without the token
# --------------------------------------------------------------------- #
def test_auth_token_gates_every_request_kind(make_server):
    server, thread = make_server(auth_token="sekrit")

    with pytest.raises(ServerError, match="auth token") as excinfo:
        ServiceClient(server.address)
    assert excinfo.value.kind == "AuthenticationError"
    with pytest.raises(ServerError) as excinfo:
        ServiceClient(server.address, token="wrong")
    assert excinfo.value.kind == "AuthenticationError"

    # Skipping the handshake entirely reaches no handler — not even the
    # administrative ones an attacker would aim for.
    for kind, payload in (("shutdown_server", None), ("unregister", "h")):
        sock = socket.create_connection(addr_tuple(server), timeout=5)
        transport = SocketTransport(sock, codec=JsonWireCodec())
        try:
            transport.send((kind, payload))
            status, (error_kind, _message, _tb) = transport.recv()
            assert (status, error_kind) == ("error", "AuthenticationError")
        finally:
            transport.close()
    assert thread.is_alive(), "an unauthenticated shutdown_server went through"

    with ServiceClient(server.address, token="sekrit") as client:
        assert client.ping()
        status = client.server_status()
        assert status["auth_required"] is True
        assert status["handshakes_rejected"] >= 4


# --------------------------------------------------------------------- #
# Request timeouts: a frozen server cannot hang the client forever
# --------------------------------------------------------------------- #
def test_frozen_server_surfaces_as_transport_error(make_server):
    """The peer handshakes fine, then freezes mid-request: the client's
    request_timeout turns the stall into a typed TransportError and the
    connection is retired (a late reply would desync the stream)."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()
    release = threading.Event()

    def frozen_peer():
        conn, _ = listener.accept()
        transport = SocketTransport(conn, codec=JsonWireCodec())
        try:
            transport.recv()  # the handshake
            transport.send(("ok", {"version": WIRE_VERSION, "pid": 0,
                                   "auth_required": False, "server": "frozen"}))
            transport.recv()  # the request we will never answer
            release.wait(timeout=30)
        except TransportError:
            pass
        finally:
            transport.close()

    peer = threading.Thread(target=frozen_peer, daemon=True)
    peer.start()
    try:
        client = ServiceClient(f"{host}:{port}", request_timeout=0.3)
        with pytest.raises(TransportError, match="timed out"):
            client.request("ping")
        # The stream is dead; later requests fail fast instead of hanging.
        with pytest.raises(TransportError, match="closed"):
            client.request("ping")
    finally:
        release.set()
        peer.join(timeout=10)
        listener.close()


# --------------------------------------------------------------------- #
# Busy handles: bounded unregister, quotas, admission control
# --------------------------------------------------------------------- #
def test_unregister_on_a_busy_handle_is_bounded_and_typed(make_server):
    server, _thread = make_server(unregister_wait=0.2)
    with ServiceClient(server.address) as client:
        client.request("register", ("busy-handle", "hash-1"))
        served = server._instances["busy-handle"]
        assert served.lock.acquire(client="in-flight-batch")
        try:
            started = time.monotonic()
            with pytest.raises(ServerError, match="busy") as excinfo:
                client.unregister("busy-handle")
            assert excinfo.value.kind == "HandleBusyError"
            assert time.monotonic() - started < 5.0, "wait must be bounded"
            assert "busy-handle" in server._instances, "a failed unregister must not orphan the handle"
        finally:
            served.lock.release()
        assert client.unregister("busy-handle") is True


def test_per_client_quota_and_queue_cap_reject_with_typed_errors(make_server):
    server, _thread = make_server(max_queue=2, client_quota=1)
    # Two connections sharing the client id "A": quotas are per *client*,
    # not per connection, or one tenant could dodge them by reconnecting.
    clients = {
        key: ServiceClient(server.address, client_name=name)
        for key, name in (
            ("setup", "setup"), ("A1", "A"), ("A2", "A"), ("B", "B"), ("C", "C")
        )
    }
    try:
        clients["setup"].request("register", ("contended", "hash-1"))
        served = server._instances["contended"]
        assert served.lock.acquire(client="holder")
        results = {}

        def queued(name):
            try:
                results[name] = clients[name].request(
                    "register", ("contended", "hash-1")
                )
            except ServerError as exc:  # pragma: no cover - failure detail
                results[name] = exc

        t1 = threading.Thread(target=lambda: queued("A1"), daemon=True)
        t1.start()
        wait_until(lambda: served.lock.queue_depth == 1, message="A1 queued")
        # Client A is over its quota of 1 queued request on this handle.
        with pytest.raises(ServerError) as excinfo:
            clients["A2"].request("register", ("contended", "hash-1"))
        assert excinfo.value.kind == "QuotaExceededError"
        t2 = threading.Thread(target=lambda: queued("B"), daemon=True)
        t2.start()
        wait_until(lambda: served.lock.queue_depth == 2, message="B queued")
        # The handle's admission queue is saturated for everyone now.
        with pytest.raises(ServerError) as excinfo:
            clients["C"].request("register", ("contended", "hash-1"))
        assert excinfo.value.kind == "ServerBusyError"
        served.lock.release()
        t1.join(timeout=10)
        t2.join(timeout=10)
        assert results["A1"]["needs_payload"] is True
        assert results["B"]["needs_payload"] is True
        stats = served.stats()["queue"]
        assert stats["rejected_quota"] == 1
        assert stats["rejected_busy"] == 1
    finally:
        for client in clients.values():
            client.close()


# --------------------------------------------------------------------- #
# Eviction under load
# --------------------------------------------------------------------- #
def test_eviction_skips_busy_handles_and_orphans_recover(make_server):
    server, _thread = make_server(max_instances=2)
    with ServiceClient(server.address) as client:
        client.request("register", ("ev-a", "h"))
        client.request("register", ("ev-b", "h"))
        served_a = server._instances["ev-a"]
        served_b = server._instances["ev-b"]
        # A (the LRU) is mid-batch, so creating C evicts idle B instead.
        assert served_a.lock.acquire(client="batch-on-a")
        client.request("register", ("ev-c", "h"))
        assert set(server._instances) == {"ev-a", "ev-c"}
        # The closed orphan keeps a reference alive in the evicted batch's
        # thread; using it raises the same recoverable error as a registry
        # miss (clients re-register), never respawns a ghost fleet.
        assert served_b.closed
        with pytest.raises(UnknownHandleError, match="unregistered or evicted"):
            server._service_for(served_b)
        with pytest.raises(ServerError) as excinfo:
            client.request("coverage_batch", ("ev-b", None, None, [], []))
        assert excinfo.value.kind == "UnknownHandleError"
        # With every surviving handle busy there is no victim: the registry
        # grows past the soft cap rather than blocking the new arrival.
        served_c = server._instances["ev-c"]
        assert served_c.lock.acquire(client="batch-on-c")
        client.request("register", ("ev-d", "h"))
        assert set(server._instances) == {"ev-a", "ev-c", "ev-d"}
        # Once the batches finish, the next creation drains back to the cap.
        served_a.lock.release()
        served_c.lock.release()
        client.request("register", ("ev-e", "h"))
        assert set(server._instances) == {"ev-d", "ev-e"}
        # The evicted handle is re-registrable from scratch (recovery path).
        reply = client.request("register", ("ev-b", "h"))
        assert reply["needs_payload"] is True


def test_memory_budget_evicts_by_payload_bytes(make_server):
    server, _thread = make_server(max_instances=32)
    with ServiceClient(server.address) as client:
        client.request("load", ("mem-1", "hash-1", tiny_payload("one")))
        status = client.server_status()
        first_bytes = status["payload_bytes_total"]
        assert first_bytes > 0, "loads must account their frame size"
        entry = status["handles"]["mem-1"]
        assert entry["payload_bytes"] == first_bytes
        assert entry["reloads_full"] >= 0 and "hit_rate" in entry
        # Room for one payload and a half: the second load must push the
        # first (LRU) handle out.
        server.memory_budget_bytes = int(first_bytes * 1.5)
        client.request("load", ("mem-2", "hash-2", tiny_payload("two")))
        status = client.server_status()
        assert set(status["handles"]) == {"mem-2"}
        assert status["payload_bytes_total"] <= server.memory_budget_bytes


# --------------------------------------------------------------------- #
# Batch coalescing
# --------------------------------------------------------------------- #
def test_identical_concurrent_batches_share_one_computation(make_server):
    server, _thread = make_server()
    calls = []
    computing = threading.Event()
    release = threading.Event()

    def compute():
        calls.append(1)
        computing.set()
        assert release.wait(timeout=10)
        return {"answer": 42}

    results = []

    def run():
        results.append(server._coalesced("coverage_batch", ("h", [1, 2]), compute))

    leader = threading.Thread(target=run, daemon=True)
    leader.start()
    assert computing.wait(timeout=10)
    follower = threading.Thread(target=run, daemon=True)
    follower.start()
    # The follower registers on the in-flight batch before we let the
    # leader finish; the counter flips exactly when it has.
    wait_until(lambda: server.batches_coalesced == 1, message="follower joined")
    release.set()
    leader.join(timeout=10)
    follower.join(timeout=10)
    assert len(calls) == 1, "identical concurrent batches must compute once"
    assert results[0] == results[1] == {"answer": 42}
    # A different payload is a different batch: no false sharing.
    release.set()
    assert server._coalesced("coverage_batch", ("h", [3]), lambda: "other") == "other"


# --------------------------------------------------------------------- #
# Graceful drain
# --------------------------------------------------------------------- #
def test_drain_finishes_inflight_work_and_refuses_new_work(make_server):
    server, thread = make_server(drain_timeout=30)
    admin = ServiceClient(server.address, client_name="admin")
    worker = ServiceClient(server.address, client_name="worker")
    try:
        admin.request("register", ("drain-handle", "hash-1"))
        served = server._instances["drain-handle"]
        assert served.lock.acquire(client="long-batch")
        results = {}

        def inflight():
            results["reply"] = worker.request("register", ("drain-handle", "hash-1"))

        blocked = threading.Thread(target=inflight, daemon=True)
        blocked.start()
        wait_until(lambda: served.lock.queue_depth == 1, message="request in flight")

        server.request_drain()  # what the SIGTERM handler calls
        wait_until(lambda: server.draining, message="accept loop entering drain")
        # Introspection stays up; new work gets a typed refusal.
        assert admin.ping()
        assert admin.server_status()["draining"] is True
        with pytest.raises(ServerError, match="draining") as excinfo:
            admin.request("register", ("fresh-handle", "h"))
        assert excinfo.value.kind == "ServerDrainingError"
        # The in-flight request completes once its handle frees up...
        served.lock.release()
        blocked.join(timeout=10)
        assert results["reply"]["needs_payload"] is True
        # ...and with nothing left in flight the server exits cleanly.
        thread.join(timeout=10)
        assert not thread.is_alive()
        with pytest.raises((TransportError, OSError)):
            ServiceClient(server.address)
    finally:
        admin.close()
        worker.close()
