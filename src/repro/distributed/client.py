"""Client side of the persistent evaluation server.

Three layers, each usable on its own:

* :class:`ServiceClient` — one socket connection to a
  :class:`~repro.distributed.server.ServiceServer`; request/reply with the
  worker protocol's ``ok``/``error`` convention (server-side exceptions
  surface as :class:`ServerError` with the remote traceback).
* :class:`RemoteEvaluationService` — the per-instance facade that speaks
  the :class:`~repro.distributed.service.EvaluationService` batch API
  (``covered_examples_batch`` / ``materialize_saturations`` /
  ``covered_candidates_batch``) but evaluates on the server's warm fleet.
  It owns the **content-hash registration dance**: before the first batch
  (and after any local mutation) it hashes the instance payload, probes the
  server with ``register``, and ships the payload only when the server does
  not already hold that exact version — so a repeat run over unchanged data
  costs one small register round-trip instead of a full payload ship
  (``reloads_full`` stays 0).
* :class:`RemoteBackend` — ``sqlite`` storage placed on a persistent
  server (its ``name`` stays ``"sqlite"``): SQLite storage locally
  (mutations, direct queries, fallbacks all work offline) while every
  *batched* evaluation routes to the server through the same
  ``coverage_service()`` seam the sharded backend uses.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..database.backend import warn_once
from ..obs import registry as obs_registry, tracer as obs_tracer
from .backend import ShardedSQLiteBackend
from .protocol import (
    TransportError,
    UnknownHandleError,  # noqa: F401 - re-exported: the recovery contract
    connect as connect_transport,
)
from .wire import WIRE_VERSION, JsonWireCodec
from .worker import SATURATION_SPEC_KINDS, SPEC_KINDS, InstancePayload

Row = Tuple[object, ...]

_UNSYNCED = object()

#: Per-facade label for registry series: each RemoteEvaluationService gets
#: its own series so a fresh facade reads zero (the warm-run acceptance
#: gate asserts reloads_full == 0 on a brand-new session).
_CLIENT_SEQ = itertools.count(1)


class ServerError(RuntimeError):
    """An exception raised inside the server (deterministic; not retried)."""

    def __init__(self, kind: str, message: str, remote_traceback: str) -> None:
        super().__init__(f"evaluation server raised {kind}: {message}")
        self.kind = kind
        self.remote_traceback = remote_traceback


def payload_content_hash(payload: InstancePayload) -> str:
    """Deterministic content hash of an instance payload.

    Stable across processes and interpreter launches (``PYTHONHASHSEED``
    cannot perturb it): rows are sorted per relation by ``repr`` and hashed
    together with the relation names and the schema's constraint set.  Two
    runs over the same data — today, tomorrow, from different client
    processes — therefore produce the same version string, which is exactly
    what lets the server skip the payload re-ship.
    """
    digest = hashlib.sha256()
    for name in sorted(payload.rows):
        digest.update(b"\x00R\x00" + name.encode())
        for row in sorted(payload.rows[name], key=repr):
            digest.update(repr(row).encode() + b"\x00")
    schema = payload.schema
    relations = sorted(
        (r.name, tuple(str(a) for a in r.attributes)) for r in schema.relations
    )
    digest.update(repr(relations).encode())
    digest.update(repr(sorted(repr(fd) for fd in schema.functional_dependencies)).encode())
    digest.update(repr(sorted(repr(ind) for ind in schema.inclusion_dependencies)).encode())
    return digest.hexdigest()


class ServiceClient:
    """One connection to a persistent evaluation server.

    Speaks the versioned tagged-JSON wire format: the connection opens with
    a ``handshake`` frame carrying the client's wire version, optional auth
    ``token``, and a ``client`` id the server uses for per-client fairness.
    ``request_timeout`` bounds every round-trip — a hung server surfaces as
    :class:`TransportError` instead of blocking ``learn()`` forever (the
    connection is then closed: after a timeout mid-request the reply stream
    can no longer be trusted to line up with requests).
    """

    def __init__(
        self,
        address: str,
        timeout: float = 10.0,
        token: Optional[str] = None,
        request_timeout: Optional[float] = None,
        client_name: Optional[str] = None,
    ) -> None:
        self.address = str(address)
        self._transport = connect_transport(
            self.address,
            timeout=timeout,
            request_timeout=request_timeout,
            codec=JsonWireCodec(),
        )
        self._lock = threading.Lock()
        self._closed = False
        self.server_info: Dict[str, object] = {}
        try:
            self._transport.send((
                "handshake",
                {
                    "version": WIRE_VERSION,
                    "token": token,
                    "client": client_name or f"pid-{os.getpid()}",
                },
            ))
            status, reply = self._transport.recv()
        except TransportError:
            self._transport.close()
            self._closed = True
            raise
        if status != "ok":
            self._transport.close()
            self._closed = True
            error_kind, message, remote_traceback = reply
            raise ServerError(error_kind, message, remote_traceback)
        self.server_info = reply

    def request(self, kind: str, payload: object = None) -> object:
        """One request/reply round-trip (thread-safe, serialized).

        With tracing active, the round-trip is recorded as an ``rpc.<kind>``
        span, the trace context rides the envelope's ``trace`` field, and
        the spans the server (and its shard workers) recorded for this
        request come back in the reply and are folded into the local trace
        — one learner run yields a single tree spanning every process.
        """
        tracer = obs_tracer()
        with tracer.span(f"rpc.{kind}", address=self.address) as rpc_span:
            trace_ctx = tracer.inject()
            message = (kind, payload, trace_ctx) if trace_ctx else (kind, payload)
            with self._lock:
                if self._closed:
                    raise TransportError(
                        f"client to {self.address} is closed"
                    )
                try:
                    self._transport.send(message)
                    response = self._transport.recv()  # repro: noqa[REP004] -- the connection lock must pair each send with its reply (one stream, strict ordering); request_timeout bounds the wait and retires the connection on expiry
                except TransportError:
                    # Timeout or disconnect mid-request: a late reply would
                    # be misattributed to the next request, so the stream is
                    # dead.
                    self._closed = True
                    self._transport.close()
                    raise
            status, reply = response[0], response[1]
            if len(response) > 2 and isinstance(response[2], dict):
                records = response[2].get("records")
                if records:
                    tracer.extend(records)
            rpc_span.set(bytes=getattr(self._transport, "last_recv_bytes", 0))
        if status == "ok":
            return reply
        error_kind, message, remote_traceback = reply
        raise ServerError(error_kind, message, remote_traceback)

    def ping(self) -> bool:
        return self.request("ping") == "pong"

    def hello(self) -> Dict[str, object]:
        return self.request("hello")

    def server_stats(self, handle: Optional[str] = None) -> Dict[str, object]:
        return self.request("stats", handle)

    def server_status(self) -> Dict[str, object]:
        """Operational counters (queue depths, coalescing, drain state)."""
        return self.request("status")

    def server_metrics(self) -> Dict[str, object]:
        """The server's metrics registry: snapshot + Prometheus text."""
        return self.request("metrics")

    def unregister(self, handle: str) -> bool:
        return bool(self.request("unregister", handle))

    def shutdown_server(self) -> None:
        """Ask the server to stop (admin/tests; trusted peers only)."""
        try:
            self.request("shutdown_server")
        except TransportError:
            pass  # server may drop the connection while acking

    def close(self) -> None:
        """Close the connection; idempotent.  Server state stays warm."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._transport.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"ServiceClient({self.address!r}, {state})"


class RemoteEvaluationService:
    """`EvaluationService`-shaped facade evaluating on a persistent server.

    Drop-in for the batch entry points the engines probe
    (:class:`~repro.learning.coverage.BatchCoverageEngine` and
    :class:`~repro.learning.bottom_clause.BatchSaturationEngine` cannot
    tell whether ``backend.coverage_service()`` handed them a local
    coordinator or this).  ``reloads_full`` counts payloads *this client*
    shipped — the number the warm-run acceptance gate asserts to be zero
    on a repeat run.
    """

    def __init__(
        self,
        client: ServiceClient,
        payload_fn: Callable[[], object],
        token_fn: Callable[[], object],
        handle: Optional[str] = None,
        delta_fn: Optional[Callable[[object], object]] = None,
    ) -> None:
        self.client = client
        self._payload_fn = payload_fn
        self._token_fn = token_fn
        self._delta_fn = delta_fn
        self._handle_override = handle
        self.handle: Optional[str] = None
        self._content_hash: Optional[str] = None
        self._synced_token: object = _UNSYNCED
        self._lock = threading.Lock()
        # Registry-backed counters (names mirror EvaluationService's); the
        # plain-attribute reads below are the stable public surface.
        _labels = {"service": next(_CLIENT_SEQ)}
        self._c_reloads_full = obs_registry().counter(
            "client.reloads_full", **_labels
        )
        self._c_reloads_incremental = obs_registry().counter(
            "client.reloads_incremental", **_labels
        )
        self._c_register_hits = obs_registry().counter(
            "client.register_hits", **_labels
        )
        self._c_batches_served = obs_registry().counter(
            "client.batches_served", **_labels
        )
        self._c_version_conflicts = obs_registry().counter(
            "client.version_conflicts", **_labels
        )

    @property
    def reloads_full(self) -> int:
        return self._c_reloads_full.value

    @property
    def reloads_incremental(self) -> int:
        return self._c_reloads_incremental.value

    @property
    def register_hits(self) -> int:
        return self._c_register_hits.value

    @property
    def batches_served(self) -> int:
        return self._c_batches_served.value

    @property
    def version_conflicts(self) -> int:
        return self._c_version_conflicts.value

    # ------------------------------------------------------------------ #
    # Registration (content-hash data versions)
    # ------------------------------------------------------------------ #
    def _ensure_registered(self) -> str:
        """Sync the server to the instance's current contents; cheap when
        nothing changed locally (one token compare, no hashing, no I/O)."""
        with self._lock:
            token = self._token_fn()
            if token == self._synced_token and self.handle is not None:
                return self.handle
            # The delta fast paths only apply while the server-side state is
            # still trusted; a forced resync (handle evicted or clobbered —
            # _batch_request reset the token) must do the full probe.
            server_trusted = (
                self.handle is not None
                and self._content_hash is not None
                and self._synced_token is not _UNSYNCED
            )
            # Cut the delta BEFORE building the payload: payload assembly
            # clears the backend's mutation log (a full payload supersedes
            # every logged change).
            delta = None
            if server_trusted and self._delta_fn is not None:
                delta = self._delta_fn(self._synced_token)
            payload = self._payload_fn()
            content_hash = payload_content_hash(payload)
            if server_trusted and content_hash == self._content_hash:
                # Local mutations netted out to the registered contents
                # (e.g. add+remove of the same rows); nothing to sync.
                self._synced_token = token
                return self.handle
            if delta is not None and not delta.is_empty:
                # Incremental path: ship the delta, keep the handle (and
                # its warm server-side fleet).  The server verifies the
                # derived payload reproduces our content hash, so any
                # divergence falls back to the full dance below instead of
                # silently serving stale data.
                try:
                    self.client.request(
                        "apply_delta",
                        (self.handle, self._content_hash, content_hash, delta),
                    )
                    self._c_reloads_incremental.inc()
                    self._content_hash = content_hash
                    self._synced_token = token
                    return self.handle
                except ServerError as exc:
                    if exc.kind not in (
                        "UnknownHandleError", "DeltaMismatchError"
                    ):
                        raise
                    # Handle evicted/clobbered, or the chain diverged:
                    # recover with a full register/load.
            # Named handles are content-qualified namespaces: distinct
            # datasets under one name land on distinct handles regardless
            # of registration order, so two processes sharing a name can
            # never ping-pong one handle between data versions.
            if self._handle_override:
                handle = f"{self._handle_override}:{content_hash[:12]}"
            else:
                handle = f"auto-{content_hash[:16]}"
            # Retry the register/load dance once: the handle can be lost
            # between the two round-trips (another session retiring a
            # shared handle, LRU eviction under pressure) — re-registering
            # lands on a fresh server-side instance.
            for attempt in (0, 1):
                reply = self.client.request("register", (handle, content_hash))
                if not reply["needs_payload"]:
                    self._c_register_hits.inc()
                    break
                try:
                    self.client.request("load", (handle, content_hash, payload))
                    self._c_reloads_full.inc()
                    break
                except ServerError as exc:
                    if exc.kind != "UnknownHandleError" or attempt:
                        raise
            superseded = self.handle
            self.handle = handle
            self._content_hash = content_hash
            self._synced_token = token
            if superseded is not None and superseded != handle:
                # This session's data moved on, so its old content-
                # qualified handle (and that handle's warm fleet) is
                # retired instead of idling until LRU eviction.  Another
                # session still on it simply re-registers (one re-ship).
                try:
                    self.client.request("unregister", superseded)
                except (ServerError, TransportError):
                    pass  # best-effort hygiene; LRU eviction is the backstop
            return handle

    def _batch_request(
        self, kind: str, payload_for: Callable[[str, Optional[str]], Dict[str, Any]]
    ) -> object:
        """One registered batch round-trip, recovering from handle loss.

        The server may evict an idle handle (LRU past ``--max-instances``),
        an operator may unregister it, or another client sharing the handle
        may have loaded a *different* data version; the local token has not
        moved in any of those cases, so :meth:`_ensure_registered` alone
        would never notice.  Every batch therefore carries this client's
        content hash (the server rejects a mismatch instead of answering
        from foreign data), and an unknown-handle/-version error forces one
        re-registration — which re-ships the payload — and retries once.
        """
        handle = self._ensure_registered()
        try:
            return self.client.request(
                kind, payload_for(handle, self._content_hash)
            )
        except ServerError as exc:
            # Structured match on the wire-crossing exception type — the
            # message prose is free to change.
            if exc.kind != "UnknownHandleError":
                raise
            with self._lock:
                self._synced_token = _UNSYNCED
                self._c_version_conflicts.inc()
                if self.version_conflicts >= 2:
                    # One recovery is normal (an eviction, an operator
                    # unregister); repeated ones mean the handle keeps
                    # disappearing — most often server-side LRU churn past
                    # --max-instances — and every recovery re-ships the
                    # full payload.
                    warn_once(
                        f"instance handle {handle!r} keeps being evicted "
                        "or re-loaded on the server; every recovery "
                        "re-ships the full payload — raise the server's "
                        "--max-instances (or reduce the number of "
                        "distinct datasets sharing it)"
                    )
            handle = self._ensure_registered()
            return self.client.request(
                kind, payload_for(handle, self._content_hash)
            )

    # ------------------------------------------------------------------ #
    # Batch API (mirrors EvaluationService)
    # ------------------------------------------------------------------ #
    def covered_examples_batch(
        self,
        spec: Tuple[object, ...],
        clauses: Sequence[object],
        examples: Sequence[object],
    ) -> List[List[object]]:
        if not spec or spec[0] not in SPEC_KINDS:
            raise ValueError(
                f"unknown engine spec kind {spec[0] if spec else spec!r}; "
                f"available: {list(SPEC_KINDS)}"
            )
        clause_list = list(clauses)
        example_list = list(examples)
        if not clause_list:
            return []
        if not example_list:
            return [[] for _ in clause_list]
        indices = self._batch_request(
            "coverage_batch",
            lambda handle, content_hash: (
                handle, content_hash, spec, clause_list, example_list,
            ),
        )
        self._c_batches_served.inc()
        return [[example_list[i] for i in per_clause] for per_clause in indices]

    def materialize_saturations(
        self,
        spec: Tuple[object, ...],
        examples: Sequence[object],
        variablize: bool = False,
    ) -> List[object]:
        if not spec or spec[0] not in SATURATION_SPEC_KINDS:
            raise ValueError(
                f"unknown saturation spec kind {spec[0] if spec else spec!r}; "
                f"available: {list(SATURATION_SPEC_KINDS)}"
            )
        example_list = list(examples)
        if not example_list:
            return []
        clauses = self._batch_request(
            "materialize_saturations",
            lambda handle, content_hash: (
                handle, content_hash, spec, example_list, bool(variablize),
            ),
        )
        self._c_batches_served.inc()
        return clauses

    def covered_candidates_batch(
        self,
        clauses: Sequence[object],
        candidates: Sequence[Sequence[object]],
    ) -> List[Set[Row]]:
        clause_list = list(clauses)
        candidate_list = [tuple(c) for c in candidates]
        if not clause_list:
            return []
        if not candidate_list:
            return [set() for _ in clause_list]
        covered = self._batch_request(
            "query_batch",
            lambda handle, content_hash: (
                handle, content_hash, clause_list, candidate_list,
            ),
        )
        self._c_batches_served.inc()
        return [set(per_clause) for per_clause in covered]

    def stats(self) -> Optional[Dict[str, object]]:
        """Server-side stats for this instance's handle.

        ``None`` until the first batch registers it — introspection must
        never itself ship a payload or spawn a fleet.
        """
        if self.handle is None:
            return None
        return self.client.server_stats(self.handle)

    def close(self) -> None:
        """Nothing to tear down: the server-side fleet deliberately stays
        warm for the next run (that is the point of the server)."""

    def __repr__(self) -> str:
        return (
            f"RemoteEvaluationService({self.client.address!r}, "
            f"handle={self.handle!r}, shipped={self.reloads_full})"
        )


class RemoteBackend(ShardedSQLiteBackend):
    """``sqlite`` on a persistent server: local storage, server-side
    evaluation.

    Inherits storage, compiled single-statement evaluation, and payload
    assembly from the sharded backend — but instead of spawning a local
    worker fleet, ``coverage_service()`` hands the batch engines a
    :class:`RemoteEvaluationService` bound to a persistent server.  The
    local connection still answers anything the batch seam does not
    route (direct queries, non-batched fallbacks), so an instance on this
    backend works offline for everything except batched coverage.
    """

    name = "sqlite"

    def __init__(
        self,
        connection: Any = None,
        address: Optional[str] = None,
        client: Optional[ServiceClient] = None,
        handle: Optional[str] = None,
        token: Optional[str] = None,
        request_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(connection)
        self._address = address
        self._client = client
        self._owns_client = client is None
        self._handle = handle
        self._token = token
        self._request_timeout = request_timeout
        self._remote: Optional[RemoteEvaluationService] = None

    def coverage_service(self) -> RemoteEvaluationService:
        if self._remote is None:
            if self._client is None:
                if self._address is None:
                    raise RuntimeError(
                        "this RemoteBackend has no server to talk to; "
                        "build the instance through "
                        "LearningSession.connect(address) or construct "
                        "RemoteBackend(address='HOST:PORT')"
                    )
                self._client = ServiceClient(
                    self._address,
                    token=self._token,
                    request_timeout=self._request_timeout,
                )
                self._owns_client = True
            self._remote = RemoteEvaluationService(
                self._client,
                payload_fn=self._payload,
                token_fn=self.data_token,
                handle=self._handle,
                # Local mutations become one small apply_delta frame instead
                # of a full payload re-ship (and the server repairs its warm
                # fleet in place); collect_diff returning None falls back to
                # the register/load dance.
                delta_fn=self.collect_diff,
            )
        return self._remote

    @property
    def remote_service(self) -> Optional[RemoteEvaluationService]:
        """The facade, if a batch has forced the connection yet."""
        return self._remote

    def close(self) -> None:
        """Close the client connection when this backend owns it.

        Never touches server state: registered instances and their worker
        fleets stay warm for the next session by design.
        """
        if self._client is not None and self._owns_client:
            self._client.close()
            self._client = None
        self._remote = None
        # The inherited teardown (finalizer detach, local service shutdown)
        # stays in one place.
        super().close()

    def __repr__(self) -> str:
        target = self._address or (
            self._client.address if self._client else None
        )
        return (
            f"RemoteBackend({len(self._relations)} relations, "
            f"server={target!r}, handle={self._handle!r})"
        )
