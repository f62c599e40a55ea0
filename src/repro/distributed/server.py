"""The persistent evaluation server: one warm service outliving many runs.

``python -m repro.distributed.service --serve HOST:PORT`` runs a
:class:`ServiceServer`: a long-lived process that owns worker fleets,
coverage engines, and saturation stores and serves them to any number of
learning runs.  Where the in-process :class:`~repro.distributed.service.EvaluationService`
dies with the run that spawned it (every run pays spawn + payload-ship +
saturation-warm-up again), the server keeps everything warm:

* clients **register instances under named handles** with a content hash of
  the data; a repeat run (or the next cross-validation fold, or another
  user's session over the same dataset) whose hash matches the registered
  one ships **no payload at all** and lands directly on the warm fleet;
* each handle owns one :class:`EvaluationService` (spawned at first load,
  reused forever after), so worker processes and their per-engine
  saturation stores survive across runs and across client connections;
* multiple concurrent sessions share the server: connections are served by
  one thread each, batches on *different* handles run in parallel, batches
  on the *same* handle serialize on that handle's :class:`FairLock` with
  round-robin handoff between clients, per-client quotas, and a bounded
  admission queue; structurally identical concurrent batches coalesce into
  one computation.

Unlike the trusted worker seam, clients are **untrusted**: the socket
speaks the versioned tagged-JSON envelope (:mod:`repro.distributed.wire`) —
no pickle, nothing executable — every connection must open with a
``handshake`` frame carrying the wire version (and the auth token when the
server was started with one), and request dispatch goes through an explicit
allowlist table.  ``SIGTERM`` drains gracefully: stop accepting, finish
in-flight batches, exit 0.

Clients normally do not speak this protocol directly — they use
:class:`repro.session.LearningSession.connect` (or, one level down,
:class:`repro.distributed.client.ServiceClient`).
"""

from __future__ import annotations

import contextlib
import hmac
import itertools
import os
import socket
import threading
import time
import traceback
from typing import Dict, List, Optional, Set, Tuple

from ..database.delta import Delta
from ..obs import registry as obs_registry, tracer as obs_tracer
from . import wire
from .client import payload_content_hash
from .fairness import FairLock
from .protocol import (
    DeltaMismatchError,
    HandleBusyError,
    ServerDrainingError,
    SocketTransport,
    TransportError,
    UnknownHandleError,
)
from .service import EvaluationService
from .wire import WIRE_VERSION, WireFormatError
from .worker import InstancePayload

Row = Tuple[object, ...]


def _advance_payload(payload: InstancePayload, delta: Delta) -> InstancePayload:
    """A new payload with ``delta`` applied to ``payload``'s row sets.

    Replay semantics match the backends: adds are set-inserts, removes are
    idempotent (absent rows ignored).  Only relations the delta touches are
    rebuilt; untouched row lists are shared with the old payload.
    """
    rows = dict(payload.rows)
    touched: Dict[str, Dict[Row, None]] = {}
    for op, relation, delta_rows in delta.ops:
        if relation not in rows:
            raise DeltaMismatchError(
                f"delta touches unknown relation {relation!r}; "
                "re-register with a full payload"
            )
        target = touched.get(relation)
        if target is None:
            target = touched[relation] = dict.fromkeys(
                tuple(row) for row in rows[relation]
            )
        if op == "add":
            for row in delta_rows:
                target[tuple(row)] = None
        else:
            for row in delta_rows:
                target.pop(tuple(row), None)
    for relation, mapping in touched.items():
        rows[relation] = list(mapping)
    return InstancePayload(payload.schema, rows)


#: Request kinds still answered while the server is draining: read-only
#: introspection plus shutdown itself.  Everything else gets a typed
#: ServerDrainingError so clients fail over instead of queueing work a
#: dying server will never run.
_DRAIN_ALLOWED = frozenset({"ping", "hello", "stats", "status", "metrics"})

#: Generation labels for registry series: a re-registered handle (or a
#: second server in one process, as in tests) gets fresh series instead of
#: resurrecting a predecessor's counts under the same name.
_HANDLE_GEN = itertools.count(1)
_SERVER_SEQ = itertools.count(1)


class _RequestContext:
    """Per-request metadata threaded into every handler."""

    __slots__ = ("client", "frame_bytes")

    def __init__(self, client: Optional[str], frame_bytes: int = 0):
        self.client = client
        self.frame_bytes = int(frame_bytes)


class _InflightBatch:
    """One coalesced computation: the leader fills it, followers wait."""

    __slots__ = ("event", "result", "error")

    def __init__(self):
        self.event = threading.Event()
        self.result = None
        self.error: Optional[BaseException] = None


class ServedInstance:
    """One registered instance: payload version + its warm worker fleet."""

    #: Longest recorded hash-to-hash delta chain.  A fleet synced further
    #: back than this falls off the chain and full-reloads — the chain
    #: bounds memory, not correctness.
    MAX_DELTA_CHAIN = 32

    def __init__(self, handle: str, max_queue: int = 64, client_quota: int = 8):
        self.handle = str(handle)
        self.content_hash: Optional[str] = None
        self.payload = None
        self.payload_bytes = 0
        self.service: Optional[EvaluationService] = None
        # ``(content hash before, content hash after, Delta)`` steps from
        # apply_delta requests; ``collect_diff`` composes them so the warm
        # fleet is repaired in place instead of full-reloading.
        self.delta_chain: List[Tuple[str, str, Delta]] = []
        # Serializes batches per handle; the service's own fan-out is
        # concurrent internally, but its sticky assigner and reload check
        # are not safe under interleaved batches from two connections.
        # FairLock adds round-robin handoff between clients plus bounded
        # admission, where the old RLock admitted unbounded waiters in
        # wake-order.
        self.lock = FairLock(max_queue=max_queue, client_quota=client_quota)
        labels = {"handle": self.handle, "gen": next(_HANDLE_GEN)}
        self._c_loads = obs_registry().counter("server.handle.loads", **labels)
        self._c_batches = obs_registry().counter("server.handle.batches", **labels)
        self._c_register_hits = obs_registry().counter(
            "server.handle.register_hits", **labels
        )
        self._c_deltas_applied = obs_registry().counter(
            "server.handle.deltas_applied", **labels
        )
        self.last_used = 0
        self.closed = False

    # Integer reads preserved for stats()/tests; writes go through .inc().
    @property
    def loads(self) -> int:
        return self._c_loads.value

    @property
    def batches(self) -> int:
        return self._c_batches.value

    @property
    def register_hits(self) -> int:
        return self._c_register_hits.value

    @property
    def deltas_applied(self) -> int:
        return self._c_deltas_applied.value

    def close(self) -> None:
        # The closed flag guards the unregister/evict race: a batch that
        # fetched this object before removal and then acquires the lock
        # must not respawn a fleet nothing tracks anymore.  The payload is
        # dropped too, so a closed orphan can never look loadable or warm.
        self.closed = True
        self.payload = None
        self.payload_bytes = 0
        self.content_hash = None
        self.delta_chain.clear()
        if self.service is not None:
            self.service.close()
            self.service = None

    def record_delta(self, old_hash: str, new_hash: str, delta: Delta) -> None:
        self.delta_chain.append((old_hash, new_hash, delta))
        if len(self.delta_chain) > self.MAX_DELTA_CHAIN:
            del self.delta_chain[: len(self.delta_chain) - self.MAX_DELTA_CHAIN]

    def collect_diff(self, since_token: object) -> Optional[Delta]:
        """Compose recorded deltas from a fleet's last-synced content hash
        to the current one; ``None`` means full reload.

        Content hashes identify row sets exactly, so when the same hash
        reappears (update A→B, later B→A) any chain of steps that starts at
        the fleet's hash and ends at the current one replays correctly —
        later steps shadow earlier ones from the same hash.
        """
        if not isinstance(since_token, str) or self.content_hash is None:
            return None
        steps = {old: (new, delta) for old, new, delta in self.delta_chain}
        combined = Delta()
        cursor = since_token
        for _ in range(len(steps) + 1):
            if cursor == self.content_hash:
                return combined
            step = steps.get(cursor)
            if step is None:
                return None
            cursor = step[0]
            combined = combined.then(step[1])
        return None  # chain cycles without reaching the current hash

    def stats(self) -> Dict[str, object]:
        service = self.service
        probes = self.register_hits + self.loads
        return {
            "handle": self.handle,
            "content_hash": self.content_hash,
            "loads": self.loads,
            "batches": self.batches,
            "deltas_applied": self.deltas_applied,
            "register_hits": self.register_hits,
            "hit_rate": (self.register_hits / probes) if probes else 0.0,
            "payload_bytes": self.payload_bytes,
            "queue": self.lock.stats(),
            "reloads_full": service.reloads_full if service else 0,
            "reloads_incremental": (
                service.reloads_incremental if service else 0
            ),
            "worker_pids": service.worker_pids() if service else [],
        }


class ServiceServer:
    """Accept loop + handle registry of the persistent evaluation server."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        shards: Optional[int] = None,
        max_instances: int = 32,
        auth_token: Optional[str] = None,
        memory_budget_bytes: Optional[int] = None,
        max_queue: int = 64,
        client_quota: int = 8,
        unregister_wait: float = 2.0,
        drain_timeout: float = 30.0,
        handshake_timeout: float = 30.0,
    ):
        self.shards = shards
        self.max_instances = max(1, int(max_instances))
        self.auth_token = auth_token
        self.memory_budget_bytes = (
            None if memory_budget_bytes is None else max(0, int(memory_budget_bytes))
        )
        self.max_queue = max(1, int(max_queue))
        self.client_quota = max(1, int(client_quota))
        self.unregister_wait = float(unregister_wait)
        self.drain_timeout = float(drain_timeout)
        self.handshake_timeout = float(handshake_timeout)
        self._codec = wire.JsonWireCodec()
        self._instances: Dict[str, ServedInstance] = {}
        self._lock = threading.Lock()
        self._use_counter = itertools.count(1)
        self._shutdown = threading.Event()
        self._drain_requested = threading.Event()
        self._draining = False
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._client_transports: Set[SocketTransport] = set()
        self._transports_lock = threading.Lock()
        self._inflight_batches: Dict[str, _InflightBatch] = {}
        self._coalesce_lock = threading.Lock()
        _labels = {"server": next(_SERVER_SEQ)}
        self._c_batches_coalesced = obs_registry().counter(
            "server.batches_coalesced", **_labels
        )
        self._c_handshakes_rejected = obs_registry().counter(
            "server.handshakes_rejected", **_labels
        )
        self._c_payloads_received = obs_registry().counter(
            "server.payloads_received", **_labels
        )
        self._c_connections_served = obs_registry().counter(
            "server.connections_served", **_labels
        )
        self._h_request_seconds = obs_registry().histogram(
            "server.request_seconds", **_labels
        )
        # Explicit allowlist: request kinds map to bound handlers.  The old
        # getattr(self, f"handle_{kind}") dispatch let any same-prefix
        # method become wire-reachable by accident; this table is the whole
        # attack surface.
        self._handlers = {
            "ping": self.handle_ping,
            "hello": self.handle_hello,
            "register": self.handle_register,
            "load": self.handle_load,
            "apply_delta": self.handle_apply_delta,
            "coverage_batch": self.handle_coverage_batch,
            "materialize_saturations": self.handle_materialize_saturations,
            "query_batch": self.handle_query_batch,
            "stats": self.handle_stats,
            "status": self.handle_status,
            "metrics": self.handle_metrics,
            "unregister": self.handle_unregister,
        }
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, int(port)))
        self._listener.listen(16)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def batches_coalesced(self) -> int:
        return self._c_batches_coalesced.value

    @property
    def handshakes_rejected(self) -> int:
        return self._c_handshakes_rejected.value

    @property
    def payloads_received(self) -> int:
        return self._c_payloads_received.value

    @property
    def connections_served(self) -> int:
        return self._c_connections_served.value

    @property
    def address(self) -> str:
        host, port = self._listener.getsockname()
        return f"{host}:{port}"

    def serve_forever(self) -> None:
        """Accept client connections until :meth:`shutdown` or drain."""
        self._listener.settimeout(0.5)
        try:
            while not self._shutdown.is_set():
                if self._drain_requested.is_set():
                    self._drain()
                    break
                try:
                    conn, _peer = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listener closed under us by shutdown()
                # Bounded until the handshake completes so a connect-and-say
                # -nothing client cannot park a thread forever; the client
                # loop lifts the deadline once the peer has authenticated.
                conn.settimeout(self.handshake_timeout)
                self._c_connections_served.inc()
                # Daemon threads, deliberately untracked: a connection
                # lives until its client disconnects (or server close);
                # _close_all() severs any that remain.
                threading.Thread(
                    target=self._client_loop,
                    args=(SocketTransport(conn, codec=self._codec),),
                    daemon=True,
                    name=f"repro-server-client-{self.connections_served}",
                ).start()
        finally:
            self._close_all()

    def start_in_thread(self) -> threading.Thread:
        """Run :meth:`serve_forever` on a daemon thread (tests, embedding)."""
        thread = threading.Thread(
            target=self.serve_forever, daemon=True, name="repro-server-accept"
        )
        thread.start()
        return thread

    def shutdown(self) -> None:
        """Stop accepting, drop every client, and close every fleet."""
        self._shutdown.set()
        try:
            self._listener.close()
        except OSError:
            pass

    def request_drain(self) -> None:
        """Begin a graceful drain (the SIGTERM path).

        The accept loop notices the flag, stops accepting, lets in-flight
        requests finish (bounded by ``drain_timeout``), then shuts down.
        Safe to call from a signal handler.
        """
        self._drain_requested.set()

    @property
    def draining(self) -> bool:
        return self._draining

    def _drain(self) -> None:
        self._draining = True
        try:
            self._listener.close()
        except OSError:
            pass
        deadline = time.monotonic() + self.drain_timeout
        while time.monotonic() < deadline:
            with self._inflight_lock:
                if self._inflight == 0:
                    break
            time.sleep(0.05)
        self._shutdown.set()

    def _close_all(self) -> None:
        with self._lock:
            served_list = list(self._instances.values())
            self._instances.clear()
        for served in served_list:
            with served.lock:
                served.close()
        # Sever surviving client connections so their threads (and any
        # client blocked on a reply) observe the shutdown instead of
        # hanging on a socket nobody will ever write to again.
        with self._transports_lock:
            transports = list(self._client_transports)
            self._client_transports.clear()
        for transport in transports:
            transport.close()

    @contextlib.contextmanager
    def _track_inflight(self):
        with self._inflight_lock:
            self._inflight += 1
        try:
            yield
        finally:
            with self._inflight_lock:
                self._inflight -= 1

    # ------------------------------------------------------------------ #
    # Handle registry
    # ------------------------------------------------------------------ #
    def _touch(self, served: ServedInstance) -> ServedInstance:
        served.last_used = next(self._use_counter)
        return served

    def _get(self, handle: str) -> ServedInstance:
        with self._lock:
            served = self._instances.get(handle)
        if served is None:
            raise UnknownHandleError(
                f"unknown instance handle {handle!r}; register it first"
            )
        return self._touch(served)

    def _new_instance(self, handle: str) -> ServedInstance:
        return ServedInstance(
            handle, max_queue=self.max_queue, client_quota=self.client_quota
        )

    def _get_or_create(self, handle: str) -> ServedInstance:
        victims: List[ServedInstance] = []
        with self._lock:
            served = self._instances.get(handle)
            if served is None:
                victims = self._pop_lru_victims_locked(creating=True)
                served = self._instances[handle] = self._new_instance(handle)
        self._close_victims(victims)
        return self._touch(served)

    def _close_victims(self, victims: List[ServedInstance]) -> None:
        # Fleet teardown can take seconds; do it OUTSIDE the registry lock
        # so one new registration never stalls every in-flight session.
        # Each victim's own lock was acquired (non-blocking) under the
        # registry lock, so no batch is mid-flight on it.
        for victim in victims:
            try:
                victim.close()
            finally:
                victim.lock.release()

    def _over_capacity_locked(self, creating: bool) -> bool:
        if len(self._instances) + (1 if creating else 0) > self.max_instances:
            return True
        if self.memory_budget_bytes is not None:
            total = sum(s.payload_bytes for s in self._instances.values())
            return total > self.memory_budget_bytes
        return False

    def _pop_lru_victims_locked(self, creating: bool = False) -> List[ServedInstance]:
        """Remove least-recently-used idle handles down to the caps.

        Capacity is both a handle count (``max_instances``) and, when
        configured, a payload-byte budget (``memory_budget_bytes``) — a
        handful of giant instances can exhaust memory long before the
        count cap bites.  Returns the removed instances with their locks
        held; the caller closes them after releasing the registry lock.
        Handles mid-batch (lock held elsewhere) are skipped — the registry
        then grows past the soft caps instead of blocking.
        """
        victims: List[ServedInstance] = []
        while self._over_capacity_locked(creating):
            for candidate in sorted(
                self._instances.values(), key=lambda s: s.last_used
            ):
                if candidate.lock.acquire(blocking=False):
                    del self._instances[candidate.handle]
                    victims.append(candidate)
                    break
            else:
                break  # everything busy
        return victims

    def _evict_over_budget(self) -> None:
        """Trim the registry after a payload install changed its footprint."""
        with self._lock:
            victims = self._pop_lru_victims_locked()
        self._close_victims(victims)

    def _service_for(self, served: ServedInstance) -> EvaluationService:
        if served.closed:
            # Phrased like the registry miss so clients recover the same
            # way: re-register (which creates a fresh ServedInstance).
            raise UnknownHandleError(
                f"unknown instance handle {served.handle!r}; it was "
                "unregistered or evicted while a request was in flight"
            )
        if served.payload is None:
            # Typed like the registry miss so clients recover identically:
            # the register probe reports needs_payload and a load follows.
            raise UnknownHandleError(
                f"instance handle {served.handle!r} was registered but no "
                "payload has been loaded yet; re-register and load"
            )
        if served.service is None:
            served.service = EvaluationService(
                payload_fn=lambda: served.payload,
                shards=self.shards,
                state_token_fn=lambda: served.content_hash,
                diff_fn=served.collect_diff,
            )
            served.service.start()
        return served.service

    @contextlib.contextmanager
    def _locked(self, served: ServedInstance, ctx: Optional[_RequestContext]):
        served.lock.acquire(client=ctx.client if ctx is not None else None)
        try:
            yield
        finally:
            served.lock.release()

    # ------------------------------------------------------------------ #
    # Batch coalescing
    # ------------------------------------------------------------------ #
    def _coalesced(self, kind: str, payload, compute):
        """Share one computation between structurally identical requests.

        Concurrent clients frequently issue the same batch (cross-validation
        folds racing over one dataset, a retried request).  The first
        arrival becomes the leader and computes; followers with the same
        canonical payload digest wait on the leader's result instead of
        queueing a duplicate batch behind the handle lock.
        """
        try:
            key = wire.payload_digest(kind, payload)
        except WireFormatError:
            return compute()  # unkeyable payload: fall through uncoalesced
        with self._coalesce_lock:
            batch = self._inflight_batches.get(key)
            leader = batch is None
            if leader:
                batch = self._inflight_batches[key] = _InflightBatch()
            else:
                self._c_batches_coalesced.inc()
        if not leader:
            batch.event.wait()
            if batch.error is not None:
                raise batch.error
            return batch.result
        try:
            batch.result = compute()
            return batch.result
        except BaseException as exc:
            batch.error = exc
            raise
        finally:
            with self._coalesce_lock:
                self._inflight_batches.pop(key, None)
            batch.event.set()

    # ------------------------------------------------------------------ #
    # Request handlers (the wire-reachable allowlist)
    # ------------------------------------------------------------------ #
    def handle_ping(self, _payload, _ctx) -> str:
        return "pong"

    def handle_hello(self, _payload, _ctx) -> Dict[str, object]:
        with self._lock:
            handles = list(self._instances)
        return {
            "pid": os.getpid(),
            "shards": self.shards,
            "handles": handles,
        }

    def handle_register(self, payload, ctx) -> Dict[str, object]:
        """Probe a (handle, content hash) pair: is a payload ship needed?

        Content-hash data versioning is what makes repeat runs free: when
        the registered hash matches, the client skips the payload entirely
        and the warm fleet (including every saturation its workers have
        materialized) serves the new run as-is.
        """
        handle, content_hash = payload
        served = self._get_or_create(handle)
        with self._locked(served, ctx):
            warm = (
                served.content_hash == content_hash
                and served.payload is not None
            )
            if warm:
                served._c_register_hits.inc()
            return {
                "needs_payload": not warm,
                "known": served.content_hash is not None,
            }

    def handle_load(self, payload, ctx) -> Dict[str, object]:
        """Install (or replace) a handle's payload and warm its fleet."""
        handle, content_hash, instance_payload = payload
        served = self._get_or_create(handle)
        with self._locked(served, ctx):
            served.payload = instance_payload
            served.content_hash = content_hash
            # A full payload supersedes the delta history: fleets synced to
            # an older hash fall off the (cleared) chain and full-reload.
            served.delta_chain.clear()
            # The request frame carries the encoded payload, so its size is
            # an honest upper bound on what this handle pins in memory; the
            # byte-budget eviction keys on it.
            served.payload_bytes = ctx.frame_bytes if ctx is not None else 0
            served._c_loads.inc()
            self._c_payloads_received.inc()
            service = self._service_for(served)
            # An already-running fleet sees the hash change through its
            # state token and full-reloads on the next batch; forcing the
            # sync here keeps "load" = "workers current" for the client.
            service._ensure_ready()
            tuples = sum(len(r) for r in instance_payload.rows.values())
        self._evict_over_budget()
        return {"handle": handle, "tuples": tuples, "loads": served.loads}

    def handle_apply_delta(self, payload, ctx) -> Dict[str, object]:
        """Advance a handle's payload by a :class:`Delta` — no full re-ship.

        The client sends ``(handle, old content hash, new content hash,
        delta)``; the server derives the new payload from the one it already
        holds and **verifies** it reproduces the claimed hash, so a diverged
        delta (a missed mutation, a clobbered handle) can never silently
        serve stale data — it raises :class:`DeltaMismatchError` and the
        client falls back to the register/load dance.  The handle keeps its
        name and, crucially, its warm fleet: the recorded delta chain lets
        ``collect_diff`` repair worker engines in place instead of
        rebuilding saturation state from scratch.
        """
        handle, old_hash, new_hash, delta = payload
        if not isinstance(delta, Delta):
            raise TypeError(f"apply_delta takes a Delta, got {type(delta).__name__}")
        served = self._get(handle)
        with self._locked(served, ctx):
            self._check_version(served, old_hash)
            if served.payload is None:
                raise UnknownHandleError(
                    f"instance handle {handle!r} has no payload to advance; "
                    "re-register"
                )
            new_payload = _advance_payload(served.payload, delta)
            computed = payload_content_hash(new_payload)
            if computed != new_hash:
                raise DeltaMismatchError(
                    f"delta on {handle!r} does not reproduce the claimed "
                    "content hash; re-register with a full payload"
                )
            served.payload = new_payload
            served.content_hash = new_hash
            served.record_delta(old_hash, new_hash, delta)
            served._c_deltas_applied.inc()
            # payload_bytes stays the load-time bound: a delta changes the
            # footprint by at most its own (small) frame, and the budget
            # only needs an honest order-of-magnitude figure.
            service = self._service_for(served)
            # The fleet sees the hash move through its state token; the
            # recorded chain makes that sync an in-place engine repair.
            service._ensure_ready()
            tuples = sum(len(r) for r in new_payload.rows.values())
        return {
            "handle": handle,
            "tuples": tuples,
            "deltas_applied": served.deltas_applied,
        }

    def _check_version(
        self, served: ServedInstance, content_hash: Optional[str]
    ) -> None:
        """Reject a batch whose data version is not the one served.

        Two clients sharing one explicit handle with *different* data would
        otherwise silently evaluate against whichever payload loaded last.
        The error is phrased like the registry miss so the client recovers
        identically: re-register (re-shipping its own payload) and retry.
        """
        if content_hash is not None and served.content_hash != content_hash:
            raise UnknownHandleError(
                f"unknown instance handle version on {served.handle!r}: the "
                "server holds a different data version; re-register"
            )

    def handle_coverage_batch(self, payload, ctx) -> List[List[int]]:
        """Subsumption/Castor coverage; returns global index lists per clause."""
        return self._coalesced(
            "coverage_batch", payload, lambda: self._coverage_batch(payload, ctx)
        )

    def _coverage_batch(self, payload, ctx) -> List[List[int]]:
        handle, content_hash, spec, clauses, examples = payload
        served = self._get(handle)
        with self._locked(served, ctx):
            self._check_version(served, content_hash)
            service = self._service_for(served)
            covered_lists = service.covered_examples_batch(spec, clauses, examples)
            served._c_batches.inc()
        # One example->positions map instead of rescanning all examples per
        # clause; duplicates of an example share coverage, so every one of
        # its positions is emitted (identical to the per-clause scan).
        positions: Dict[object, List[int]] = {}
        for index, example in enumerate(examples):
            positions.setdefault(example, []).append(index)
        indices: List[List[int]] = []
        for covered in covered_lists:
            per_clause: List[int] = []
            for example in dict.fromkeys(covered):
                per_clause.extend(positions[example])
            per_clause.sort()
            indices.append(per_clause)
        return indices

    def handle_materialize_saturations(self, payload, ctx) -> List[object]:
        return self._coalesced(
            "materialize_saturations",
            payload,
            lambda: self._materialize_saturations(payload, ctx),
        )

    def _materialize_saturations(self, payload, ctx) -> List[object]:
        handle, content_hash, spec, examples, variablize = payload
        served = self._get(handle)
        with self._locked(served, ctx):
            self._check_version(served, content_hash)
            service = self._service_for(served)
            clauses = service.materialize_saturations(
                spec, examples, variablize=bool(variablize)
            )
            served._c_batches.inc()
        return clauses

    def handle_query_batch(self, payload, ctx) -> List[Set[Row]]:
        return self._coalesced(
            "query_batch", payload, lambda: self._query_batch(payload, ctx)
        )

    def _query_batch(self, payload, ctx) -> List[Set[Row]]:
        handle, content_hash, clauses, candidates = payload
        served = self._get(handle)
        with self._locked(served, ctx):
            self._check_version(served, content_hash)
            service = self._service_for(served)
            covered = service.covered_candidates_batch(clauses, candidates)
            served._c_batches.inc()
        return covered

    def handle_stats(self, payload, _ctx) -> Dict[str, object]:
        handle = payload
        if handle is not None:
            return self._get(handle).stats()
        with self._lock:
            served_list = list(self._instances.values())
        return {
            "pid": os.getpid(),
            "payloads_received": self.payloads_received,
            "connections_served": self.connections_served,
            "instances": {s.handle: s.stats() for s in served_list},
        }

    def handle_status(self, _payload, _ctx) -> Dict[str, object]:
        """Operational counters for dashboards and the CI smoke."""
        with self._lock:
            served_list = list(self._instances.values())
        with self._inflight_lock:
            inflight = self._inflight
        handles = {s.handle: s.stats() for s in served_list}
        return {
            "pid": os.getpid(),
            "wire_version": WIRE_VERSION,
            "auth_required": self.auth_token is not None,
            "draining": self._draining,
            "inflight_requests": inflight,
            "connections_served": self.connections_served,
            "payloads_received": self.payloads_received,
            "batches_coalesced": self.batches_coalesced,
            "handshakes_rejected": self.handshakes_rejected,
            "instances": len(served_list),
            "max_instances": self.max_instances,
            "memory_budget_bytes": self.memory_budget_bytes,
            "payload_bytes_total": sum(s.payload_bytes for s in served_list),
            "queue_depth_total": sum(s.lock.queue_depth for s in served_list),
            "handles": handles,
        }

    def handle_metrics(self, _payload, _ctx) -> Dict[str, object]:
        """Registry snapshot + Prometheus text exposition for scrapers.

        The snapshot covers the whole process registry — server counters,
        per-handle counters, and the per-shard service counters — so one
        request is enough to chart the entire serving stack.
        """
        registry = obs_registry()
        return {
            "snapshot": registry.snapshot(),
            "prometheus": registry.prometheus_text(),
        }

    def handle_unregister(self, payload, ctx) -> bool:
        handle = payload
        with self._lock:
            served = self._instances.get(handle)
        if served is None:
            return False
        # Bounded wait: a handle mid-batch returns a typed, retryable error
        # instead of stalling this connection's thread indefinitely (the
        # old code popped the registry entry first and then blocked).
        if not served.lock.acquire(
            client=ctx.client if ctx is not None else None,
            timeout=self.unregister_wait,
        ):
            raise HandleBusyError(
                f"instance handle {handle!r} is busy; retry unregister later"
            )
        try:
            with self._lock:
                if self._instances.get(handle) is not served:
                    return False  # lost a race with another unregister/evict
                del self._instances[handle]
            served.close()
        finally:
            served.lock.release()
        return True

    # ------------------------------------------------------------------ #
    # Connection loop
    # ------------------------------------------------------------------ #
    def _reject_handshake(
        self, transport: SocketTransport, error_type: str, message: str
    ) -> None:
        self._c_handshakes_rejected.inc()
        self._send_reply(transport, ("error", (error_type, message, "")))

    def _handshake(self, transport: SocketTransport) -> Optional[str]:
        """Gate every connection on version + token before any dispatch.

        Returns the negotiated client id, or None when the connection was
        rejected (a typed error reply is sent best-effort first).  Because
        no request reaches a handler without this returning an id, *every*
        request kind — shutdown_server and unregister included — is
        unreachable for unauthenticated peers.
        """
        try:
            message = transport.recv()
        except WireFormatError as exc:
            # Old pickle clients, older JSON clients (and fuzzers) land
            # here: the frame is length-prefixed but the body is not a
            # current-version JSON envelope.
            self._reject_handshake(
                transport,
                "ProtocolVersionError",
                f"not a v{WIRE_VERSION} envelope frame ({exc}); "
                "pickle-era and older JSON clients must upgrade to wire "
                f"version {WIRE_VERSION}",
            )
            return None
        except TransportError:
            return None
        try:
            kind, payload = message[0], message[1]
        except (TypeError, IndexError):
            kind, payload = None, None
        if kind != "handshake" or not isinstance(payload, dict):
            self._reject_handshake(
                transport,
                "AuthenticationError" if self.auth_token else "ProtocolVersionError",
                "connection must open with a handshake frame before any request",
            )
            return None
        version = payload.get("version")
        if version != WIRE_VERSION:
            self._reject_handshake(
                transport,
                "ProtocolVersionError",
                f"client wire version {version!r} is not supported; "
                f"this server speaks version {WIRE_VERSION}",
            )
            return None
        if self.auth_token is not None:
            token = payload.get("token")
            if not isinstance(token, str) or not hmac.compare_digest(
                token, self.auth_token
            ):
                self._reject_handshake(
                    transport,
                    "AuthenticationError",
                    "missing or invalid auth token",
                )
                return None
        client = payload.get("client")
        client_id = str(client) if client else f"conn-{self.connections_served}"
        accepted = self._send_reply(
            transport,
            (
                "ok",
                {
                    "version": WIRE_VERSION,
                    "pid": os.getpid(),
                    "auth_required": self.auth_token is not None,
                    "server": "repro-evaluation-server",
                },
            ),
        )
        return client_id if accepted else None

    def _send_reply(self, transport: SocketTransport, reply) -> bool:
        try:
            transport.send(reply)
            return True
        except WireFormatError as exc:
            # The *reply* failed to encode (handler returned something the
            # wire format cannot carry).  Tell the client rather than
            # leaving its request forever unanswered.
            try:
                transport.send(
                    ("error", ("WireFormatError", f"reply not encodable: {exc}", ""))
                )
                return True
            except (TransportError, WireFormatError):
                return False
        except TransportError:
            return False

    def _client_loop(self, transport: SocketTransport) -> None:
        """Serve one authenticated client connection until it disconnects.

        Replies are ``("ok", result)`` or ``("error", (type, message,
        traceback))``; an exception in a handler never kills the server.
        Client loss only ends the connection — the registered instances and
        their fleets stay warm for the next one.
        """
        with self._transports_lock:
            self._client_transports.add(transport)
        try:
            client_id = self._handshake(transport)
            if client_id is None:
                return
            transport.set_timeout(None)  # handshake deadline no longer applies
            while not self._shutdown.is_set():
                try:
                    message = transport.recv()
                except WireFormatError as exc:
                    # Malformed post-handshake frame: the stream is still
                    # aligned (framing is independent of the body), so
                    # answer with a typed error and keep serving.
                    if not self._send_reply(
                        transport, ("error", ("WireFormatError", str(exc), ""))
                    ):
                        break
                    continue
                except TransportError:
                    break
                kind, payload = message[0], message[1]
                trace_ctx = message[2] if len(message) > 2 else None
                if kind == "shutdown_server":
                    self._send_reply(transport, ("ok", None))
                    self.shutdown()
                    break
                ctx = _RequestContext(
                    client_id, getattr(transport, "last_recv_bytes", 0)
                )
                tracer = obs_tracer()
                # The reply send sits INSIDE the inflight window: a drain
                # that waited only for handlers to return could sever the
                # transport before the final reply flushed, turning
                # "finish in-flight batches" into a coin flip.
                with self._track_inflight():
                    handler = self._handlers.get(kind)
                    try:
                        with tracer.activate(trace_ctx):
                            with tracer.span(f"server.{kind}", client=client_id):
                                with self._h_request_seconds.time():
                                    if handler is None:
                                        # A wire-format violation, not a
                                        # server bug: the envelope named a
                                        # kind outside the allowlist table.
                                        raise WireFormatError(
                                            f"unknown request kind {kind!r}"
                                        )
                                    if (
                                        self._draining
                                        and kind not in _DRAIN_ALLOWED
                                    ):
                                        raise ServerDrainingError(
                                            "server is draining for shutdown; "
                                            "no new work is accepted"
                                        )
                                    reply = ("ok", handler(payload, ctx))
                    except Exception as exc:  # noqa: BLE001 - forwarded to client
                        reply = (
                            "error",
                            (type(exc).__name__, str(exc), traceback.format_exc()),
                        )
                    # Ship the spans this request produced (server-side and
                    # any folded in from the shard workers) back to the
                    # requesting client — drained per trace id so another
                    # tenant's spans can never ride along.
                    if isinstance(trace_ctx, dict):
                        records = tracer.drain(trace_ctx.get("trace_id"))
                        if records:
                            reply = (*reply, {"records": records})
                    delivered = self._send_reply(transport, reply)
                if not delivered:
                    break
        finally:
            with self._transports_lock:
                self._client_transports.discard(transport)
            transport.close()

    def __repr__(self) -> str:
        with self._lock:
            count = len(self._instances)
        return (
            f"ServiceServer({self.address}, {count} instances, "
            f"shards={self.shards})"
        )
