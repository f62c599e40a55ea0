"""The evaluation service: a coordinator fanning coverage batches over shards.

:class:`EvaluationService` owns N spawned worker processes on pipes, each
holding a full copy of the database instance and a **hash-sharded slice of
the example set** (see :mod:`repro.distributed.sharding`).  A coverage batch
— N candidate clauses against one example list — is split along the example
axis: every shard tests all clauses against only its own examples, returns
one bitset per clause, and the coordinator ORs the bitsets back together in
input order.  Results are therefore invariant in the shard count, which
only moves work.

Failure semantics (the lifecycle-hardening contract):

* a worker that dies mid-batch (killed, OOMed, segfaulted) is **respawned
  from its instance payload** and the in-flight shard request is retried
  exactly once;
* if the respawn or the retry fails too, :class:`ShardFailedError` surfaces
  to the caller with the shard index and the underlying transport error;
* an exception *inside* a healthy worker (a bug, not a crash) is
  deterministic, so it is never retried — it surfaces as
  :class:`WorkerError` carrying the remote traceback.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ...obs import registry as obs_registry, tracer as obs_tracer

from ..protocol import PipeTransport, TransportError
from ..sharding import partition_keys
from ..worker import (
    SATURATION_SPEC_KINDS,
    SPEC_KINDS,
    InstancePayload,
    pipe_worker_main,
)

Row = Tuple[object, ...]


class ShardFailedError(RuntimeError):
    """A shard stayed down after one respawn-and-retry cycle."""

    def __init__(self, shard: int, message: str):
        super().__init__(f"shard {shard} failed and could not be recovered: {message}")
        self.shard = shard


class WorkerError(RuntimeError):
    """An exception raised inside a worker (deterministic; not retried)."""

    def __init__(self, shard: int, kind: str, message: str, remote_traceback: str):
        super().__init__(f"shard {shard} raised {kind}: {message}")
        self.shard = shard
        self.kind = kind
        self.remote_traceback = remote_traceback


def default_shard_count() -> int:
    """Default worker count: one per core, capped (shards beyond the core
    count only add IPC overhead for CPU-bound SQLite work)."""
    return max(1, min(4, os.cpu_count() or 1))


#: Distinguishes the registry series of concurrently-live services (a
#: server process runs one fleet per registered handle).
_SERVICE_SEQ = itertools.count(1)


class WorkerHandle:
    """One shard's pipe transport and worker process.

    The handle also owns the shard's **reload/batch counters**.  They live
    here — on the coordinator, in the metrics registry — rather than in the
    worker process precisely so a worker crash + respawn cannot zero them:
    the handle object survives the respawn, so hit-rate metrics stay
    truthful under failure.
    """

    def __init__(self, index: int, metrics_scope: str = "unscoped"):
        self.index = index
        self.transport = None
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.lock = threading.Lock()
        labels = {"service": metrics_scope, "shard": index}
        self._c_respawns = obs_registry().counter("service.shard.respawns", **labels)
        self._c_reloads_full = obs_registry().counter(
            "service.shard.reloads_full", **labels
        )
        self._c_reloads_incremental = obs_registry().counter(
            "service.shard.reloads_incremental", **labels
        )
        self._c_batches = obs_registry().counter("service.shard.batches", **labels)

    @property
    def respawns(self) -> int:
        return self._c_respawns.value

    @property
    def reloads_full(self) -> int:
        return self._c_reloads_full.value

    @property
    def reloads_incremental(self) -> int:
        return self._c_reloads_incremental.value

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def request(self, message: Tuple[str, object]) -> object:
        """One request/reply round-trip; raises on transport or worker error.

        When a trace context is active on the calling thread, it is
        attached as the frame's third element and the worker's finished
        spans come back in the reply's third element — folded straight into
        this process's tracer buffer.
        """
        tracer = obs_tracer()
        trace_ctx = tracer.inject()
        if trace_ctx is not None:
            message = (*message, trace_ctx)
        with self.lock:
            if self.transport is None:
                raise TransportError(f"shard {self.index} has no live transport")
            self.transport.send(message)
            reply = self.transport.recv()  # repro: noqa[REP004] -- per-worker handle lock serializes send/recv pairs on one pipe; a dead worker is detected by the coordinator's respawn-and-retry path, not by unblocking here
        status, payload = reply[0], reply[1]
        if len(reply) > 2 and isinstance(reply[2], dict):
            records = reply[2].get("records")
            if records:
                tracer.extend(records)
        if status == "ok":
            return payload
        kind, text, remote_traceback = payload
        raise WorkerError(self.index, kind, text, remote_traceback)

    def close_transport(self) -> None:
        if self.transport is not None:
            self.transport.close()
            self.transport = None

    def terminate(self) -> None:
        self.close_transport()
        if self.process is not None:
            if self.process.is_alive():
                self.process.terminate()
            self.process.join(timeout=5)
            self.process = None


class EvaluationService:
    """Coordinator for a fleet of shard workers.

    Parameters
    ----------
    payload_fn:
        Zero-argument callable producing the :class:`InstancePayload` workers
        (re)build their database from.  Called at every spawn, respawn, and
        reload, so it must reflect the *current* data.
    shards:
        Number of worker processes (default :func:`default_shard_count`).
    state_token_fn:
        Optional callable returning a cheap token of the source data's
        version; when it changes between batches every worker is reloaded,
        so mutations on the coordinator instance are always visible.
    diff_fn:
        Optional callable mapping the last-synced token to an **incremental
        relation diff** (a :class:`~repro.database.delta.Delta`) — when it
        returns one, live workers are updated with an ``apply_delta``
        request instead of a full payload reload, and workers repair their
        warm engine caches in place rather than dropping them.  Returning
        ``None`` means "cannot diff from that token" (new relation, log
        truncated, diff larger than the payload) and falls back to the full
        reload.  Respawned workers always rebuild from the full payload.
    """

    def __init__(
        self,
        payload_fn: Callable[[], InstancePayload],
        shards: Optional[int] = None,
        state_token_fn: Optional[Callable[[], object]] = None,
        diff_fn: Optional[Callable[[object], Optional[List[object]]]] = None,
    ):
        self.payload_fn = payload_fn
        self.shards = (
            int(shards) if shards is not None else default_shard_count()
        )
        if self.shards < 1:
            raise ValueError(f"need at least one shard, got {self.shards}")
        self._state_token_fn = state_token_fn
        self._diff_fn = diff_fn
        self._synced_token: object = None
        # Registry-backed counters.  The sequence label keeps each service
        # instance on its own series, so a freshly constructed service reads
        # zero even when an earlier one used the same names.
        self._metrics_scope = str(next(_SERVICE_SEQ))
        _labels = {"service": self._metrics_scope}
        self._c_reloads_full = obs_registry().counter(
            "service.reloads_full", **_labels
        )
        self._c_reloads_incremental = obs_registry().counter(
            "service.reloads_incremental", **_labels
        )
        self._c_batches_served = obs_registry().counter(
            "service.batches_served", **_labels
        )
        # ``spawn`` keeps workers independent of coordinator threads and
        # inherited SQLite state (fork + live threads is a deadlock lottery).
        self._context = multiprocessing.get_context("spawn")
        self._handles: List[WorkerHandle] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._started = False
        self._lock = threading.Lock()
        # Serializes spawn + init, so shards respawning concurrently from
        # fan-out threads start and rebuild their workers one at a time
        # instead of paying every payload rebuild at once.
        self._spawn_lock = threading.Lock()

    # Counter reads stay plain integer attributes for callers/tests.
    @property
    def reloads_full(self) -> int:
        return self._c_reloads_full.value

    @property
    def reloads_incremental(self) -> int:
        return self._c_reloads_incremental.value

    @property
    def batches_served(self) -> int:
        return self._c_batches_served.value

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "EvaluationService":
        """Spawn the workers and ship them the instance payload.

        Exception-safe: a spawn failure mid-fleet terminates the workers
        already started and resets the service to cold, so a retried
        ``start()`` begins from scratch instead of stacking a second fleet
        on top of half of the first.
        """
        with self._lock:
            if self._started:
                return self
            try:
                payload = self.payload_fn()
                self._synced_token = (
                    self._state_token_fn() if self._state_token_fn else None
                )
                for index in range(self.shards):
                    handle = WorkerHandle(index, self._metrics_scope)
                    # Registered before spawning so the except block below
                    # can terminate it even when the spawn half-completed.
                    self._handles.append(handle)
                    self._spawn_into(handle, payload)
                self._executor = ThreadPoolExecutor(
                    max_workers=len(self._handles),
                    thread_name_prefix="shard-coordinator",
                )
                self._started = True
            except BaseException:
                for handle in self._handles:
                    handle.terminate()
                self._handles.clear()
                if self._executor is not None:
                    self._executor.shutdown(wait=False)
                    self._executor = None
                raise
        return self

    def close(self) -> None:
        """Shut every worker down and release the coordinator resources.

        Shutdown is fire-and-forget: waiting for an ack could block behind
        a shard still grinding through an abandoned in-flight query (the
        compiled path has no backtrack budget), and ``terminate()`` is the
        backstop either way.  The started flag drops *before* the teardown
        so a batch thread racing this close sees its transport die and
        fails fast (``ShardFailedError``) instead of respawning an
        untracked worker into a closed service.
        """
        with self._lock:
            self._started = False
            for handle in self._handles:
                if handle.transport is not None and handle.lock.acquire(
                    timeout=1.0
                ):
                    try:
                        handle.transport.send(("shutdown", None))
                    except (TransportError, OSError):
                        pass
                    finally:
                        handle.lock.release()
                handle.terminate()
            self._handles.clear()
            if self._executor is not None:
                self._executor.shutdown(wait=False)
                self._executor = None
            self._started = False

    def __enter__(self) -> "EvaluationService":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Spawning / recovery
    # ------------------------------------------------------------------ #
    def _spawn_into(self, handle: WorkerHandle, payload: InstancePayload) -> None:
        """(Re)create the worker process behind ``handle``."""
        with self._spawn_lock:
            parent_conn, child_conn = self._context.Pipe(duplex=True)
            process = self._context.Process(
                target=pipe_worker_main,
                args=(child_conn,),
                daemon=True,
                name=f"repro-shard-{handle.index}",
            )
            process.start()
            child_conn.close()
            handle.transport = PipeTransport(parent_conn)
            handle.process = process
            info = handle.request(("init", payload))
            if not isinstance(info, dict) or "pid" not in info:
                raise TransportError(f"shard {handle.index} failed to initialize")

    def _respawn(self, handle: WorkerHandle) -> None:
        """Bring a dead shard back from its snapshot payload."""
        if not self._started:
            raise TransportError(
                f"service closed while shard {handle.index} was in flight"
            )
        handle.terminate()
        handle._c_respawns.inc()
        # A respawn rebuilds from the full payload, so it *is* a full reload
        # for this shard — counted on the surviving handle, not in the dead
        # worker, so the reload history is not lost with the process.
        handle._c_reloads_full.inc()
        self._spawn_into(handle, self.payload_fn())

    def _request_with_retry(
        self, handle: WorkerHandle, message: Tuple[str, object]
    ) -> object:
        """One shard request with the respawn-once failure policy."""
        try:
            return handle.request(message)
        except TransportError as first_error:
            try:
                self._respawn(handle)
                return handle.request(message)
            except (TransportError, OSError, EOFError) as exc:
                raise ShardFailedError(handle.index, str(exc)) from first_error

    # ------------------------------------------------------------------ #
    # Data freshness
    # ------------------------------------------------------------------ #
    def _ensure_ready(self) -> None:
        self.start()
        if self._state_token_fn is None:
            return
        token = self._state_token_fn()
        if token == self._synced_token:
            return
        diff = self._diff_fn(self._synced_token) if self._diff_fn else None
        if diff is not None:
            self._c_reloads_incremental.inc()
            message = ("apply_delta", (diff,))
        else:
            self._c_reloads_full.inc()
            message = ("reload", self.payload_fn())
        for handle in self._handles:
            try:
                handle.request(message)
                if diff is not None:
                    handle._c_reloads_incremental.inc()
                else:
                    handle._c_reloads_full.inc()
            except TransportError as first_error:
                try:
                    # A respawn rebuilds from the CURRENT full payload, so a
                    # worker lost mid-diff needs no diff replay afterwards.
                    self._respawn(handle)
                except (TransportError, OSError, EOFError) as exc:
                    # Same failure surface as a batch request: shard loss
                    # that survives the respawn becomes ShardFailedError.
                    raise ShardFailedError(handle.index, str(exc)) from first_error
        self._synced_token = token

    def sync(self) -> None:
        """Bring the worker fleet up to date with the source data *now*.

        The same freshness pass every batch runs lazily — exposed so a
        streaming caller (:meth:`LearningSession.update
        <repro.session.session.LearningSession.update>`) can push a delta
        to live workers eagerly instead of paying the sync on the next
        coverage request.  A cold (never-started) service is left cold:
        its workers will build from the current payload anyway.
        """
        if self._started:
            self._ensure_ready()

    # ------------------------------------------------------------------ #
    # Batched coverage
    # ------------------------------------------------------------------ #
    def _scatter(
        self,
        kind: str,
        keys: Sequence[object],
        items: Sequence[object],
        payload_for: Callable[[List[object]], object],
    ) -> Tuple[List[List[int]], List[Tuple[int, object]]]:
        """Example-axis fan-out shared by every per-item request kind.

        Partitions ``items`` by ``keys`` with hash sharding,
        queries every busy shard concurrently with the respawn-once retry
        policy, and returns the partition buckets plus ``(shard, reply)``
        pairs — keeping the retry and input-order-reassembly policy in one
        place for coverage and saturation batches alike.
        """
        buckets = partition_keys(keys, self.shards)
        # Executor threads do not inherit the caller's contextvars, so the
        # trace context is captured here and re-activated inside run_shard —
        # otherwise the per-shard spans would detach from the batch's trace.
        tracer = obs_tracer()
        trace_ctx = tracer.inject()

        def run_shard(shard: int) -> Tuple[int, object]:
            with tracer.activate(trace_ctx):
                with tracer.span(
                    "service.shard", shard=shard, kind=kind,
                    items=len(buckets[shard]),
                ):
                    slice_items = [items[i] for i in buckets[shard]]
                    reply = self._request_with_retry(
                        self._handles[shard], (kind, payload_for(slice_items))
                    )
            self._handles[shard]._c_batches.inc()
            return shard, reply

        busy = [s for s in range(len(buckets)) if buckets[s]]
        if len(busy) <= 1:
            replies = [run_shard(s) for s in busy]
        else:
            replies = list(self._executor.map(run_shard, busy))
        self._c_batches_served.inc()
        return buckets, replies

    def _fan_out(
        self,
        kind: str,
        keys: Sequence[object],
        items: Sequence[object],
        payload_for: Callable[[List[object]], object],
        clause_count: int,
    ) -> List[List[int]]:
        """Bitset variant of :meth:`_scatter`: merge per-shard masks.

        Returns, per clause, the list of *global* item indices covered —
        assembled from the per-shard bitsets, so the caller reconstructs
        results in input order regardless of shard count.
        """
        buckets, shard_masks = self._scatter(kind, keys, items, payload_for)
        covered_indices: List[List[int]] = [[] for _ in range(clause_count)]
        for shard, masks in shard_masks:
            indices = buckets[shard]
            for clause_index, mask in enumerate(masks):
                if not mask:
                    continue
                for j, global_index in enumerate(indices):
                    if (mask >> j) & 1:
                        covered_indices[clause_index].append(global_index)
        for per_clause in covered_indices:
            per_clause.sort()
        return covered_indices

    def covered_examples_batch(
        self,
        spec: Tuple[object, ...],
        clauses: Sequence[object],
        examples: Sequence[object],
    ) -> List[List[object]]:
        """Covered example subsets for N clauses, in input order.

        ``spec`` is a picklable engine recipe (``shard_spec()`` of a coverage
        engine); each worker instantiates it once and keeps it — and its
        saturation store — warm across batches and folds.
        """
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
        self._ensure_ready()
        keys = [(e.target, e.values, e.positive) for e in example_list]
        covered = self._fan_out(
            "coverage_batch",
            keys,
            example_list,
            lambda slice_items: (spec, clause_list, slice_items),
            len(clause_list),
        )
        return [
            [example_list[i] for i in indices] for indices in covered
        ]

    def materialize_saturations(
        self,
        spec: Tuple[object, ...],
        examples: Sequence[object],
        variablize: bool = False,
    ) -> List[object]:
        """Bottom clauses / saturations for a whole example set, in order.

        ``spec`` is a picklable builder recipe (``saturation_spec()`` of a
        bottom-clause builder); each worker instantiates it once and keeps
        its compiled IND/theory-constant metadata warm.  The example axis is
        split with the same hash sharding coverage uses, so an example
        is always saturated on the shard that owns it, and the constructed
        clauses are shipped back and reassembled into input order.
        """
        if not spec or spec[0] not in SATURATION_SPEC_KINDS:
            raise ValueError(
                f"unknown saturation spec kind {spec[0] if spec else spec!r}; "
                f"available: {list(SATURATION_SPEC_KINDS)}"
            )
        example_list = list(examples)
        if not example_list:
            return []
        self._ensure_ready()
        keys = [(e.target, e.values, e.positive) for e in example_list]
        buckets, shard_results = self._scatter(
            "materialize_saturations",
            keys,
            example_list,
            lambda slice_examples: (spec, slice_examples, bool(variablize)),
        )
        results: List[object] = [None] * len(example_list)
        for shard, clauses in shard_results:
            for local_index, global_index in enumerate(buckets[shard]):
                results[global_index] = clauses[local_index]
        return results

    def covered_candidates_batch(
        self,
        clauses: Sequence[object],
        candidates: Sequence[Sequence[object]],
    ) -> List[Set[Row]]:
        """Query-based coverage of candidate head tuples, one set per clause.

        Unlike subsumption coverage this fans out the **clause axis**: a
        compiled query-coverage statement costs roughly the same however
        many candidates sit in the temp table, so splitting the candidates
        would make every shard pay the full per-clause compilation anyway.
        Every worker holds the full instance, so any worker can answer any
        clause against the whole candidate list; merging is just placing
        each clause's bitset back at its input position.
        """
        clause_list = list(clauses)
        candidate_list = [tuple(c) for c in candidates]
        if not clause_list:
            return []
        if not candidate_list:
            return [set() for _ in clause_list]
        self._ensure_ready()

        shard_count = min(len(self._handles), len(clause_list))
        chunks: List[List[int]] = [[] for _ in range(shard_count)]
        for index in range(len(clause_list)):
            chunks[index % shard_count].append(index)
        tracer = obs_tracer()
        trace_ctx = tracer.inject()

        def run_shard(shard: int) -> Tuple[int, List[int]]:
            with tracer.activate(trace_ctx):
                with tracer.span(
                    "service.shard", shard=shard, kind="query_batch",
                    items=len(chunks[shard]),
                ):
                    sub_clauses = [clause_list[i] for i in chunks[shard]]
                    masks = self._request_with_retry(
                        self._handles[shard],
                        ("query_batch", (sub_clauses, candidate_list)),
                    )
            self._handles[shard]._c_batches.inc()
            return shard, masks

        if shard_count <= 1:
            shard_masks = [run_shard(0)]
        else:
            shard_masks = list(self._executor.map(run_shard, range(shard_count)))

        results: List[Set[Row]] = [set() for _ in clause_list]
        for shard, masks in shard_masks:
            for mask, clause_index in zip(masks, chunks[shard]):
                if not mask:
                    continue
                results[clause_index] = {
                    candidate_list[j]
                    for j in range(len(candidate_list))
                    if (mask >> j) & 1
                }
        self._c_batches_served.inc()
        return results

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def worker_pids(self) -> List[Optional[int]]:
        return [handle.pid for handle in self._handles]

    def stats(self) -> List[Dict[str, object]]:
        """Per-shard worker statistics (pid, engines, materialized saturations).

        The reload/batch/respawn counters merged in here live on the
        coordinator-side handles, so they survive a worker crash + respawn
        — the respawned worker's own view would restart from zero.
        """
        self._ensure_ready()
        rows = []
        for handle in self._handles:
            row = dict(self._request_with_retry(handle, ("stats", None)))
            row.update(
                shard=handle.index,
                respawns=handle.respawns,
                reloads_full=handle.reloads_full,
                reloads_incremental=handle.reloads_incremental,
                batches=handle._c_batches.value,
            )
            rows.append(row)
        return rows

    def __repr__(self) -> str:
        state = "started" if self._started else "cold"
        return (
            f"EvaluationService({self.shards} shards, {state})"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.distributed.service --serve HOST:PORT``.

    Runs the **persistent evaluation server**
    (:class:`~repro.distributed.server.ServiceServer`): worker fleets,
    engines, and saturation stores stay warm across any number of learning
    runs; clients connect with ``LearningSession.connect(address)`` and
    register instances under content-hashed handles so repeat runs ship no
    payload.  See ``docs/session.md``.
    """
    import argparse

    from ..server import ServiceServer

    parser = argparse.ArgumentParser(
        description="persistent evaluation server for repro learning sessions"
    )
    parser.add_argument(
        "--serve", metavar="HOST:PORT", required=True,
        help="listen for learning sessions on this address "
             "(port 0 picks a free port, printed on startup)",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="worker processes per registered instance "
             "(default: one per core, capped at 4)",
    )
    parser.add_argument(
        "--max-instances", type=int, default=32,
        help="registered-instance cap; least-recently-used idle handles "
             "are evicted beyond it",
    )
    parser.add_argument(
        "--auth-token", default=None,
        help="require clients to present this token in their handshake; "
             "every request (shutdown and unregister included) is rejected "
             "with a typed error without it",
    )
    parser.add_argument(
        "--memory-budget-mb", type=float, default=None,
        help="payload-byte budget across all registered instances; "
             "least-recently-used idle handles are evicted beyond it "
             "(default: count cap only)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=64,
        help="per-handle admission cap: requests beyond this many waiters "
             "get a typed ServerBusyError",
    )
    parser.add_argument(
        "--client-quota", type=int, default=8,
        help="per-client cap on requests queued on one handle; beyond it "
             "the client gets a typed QuotaExceededError",
    )
    args = parser.parse_args(argv)
    from ..protocol import parse_address

    # Spans this process records on behalf of clients carry the server label.
    obs_tracer().process = "server"
    host, port = parse_address(args.serve)
    server = ServiceServer(
        host,
        port,
        shards=args.shards,
        max_instances=args.max_instances,
        auth_token=args.auth_token,
        memory_budget_bytes=(
            None
            if args.memory_budget_mb is None
            else int(args.memory_budget_mb * 1024 * 1024)
        ),
        max_queue=args.max_queue,
        client_quota=args.client_quota,
    )

    # SIGTERM = graceful drain: stop accepting, finish in-flight batches,
    # then exit 0.  serve_forever() returns once the drain completes.
    def _drain_on_sigterm(_signum, _frame):
        server.request_drain()

    try:
        signal.signal(signal.SIGTERM, _drain_on_sigterm)
    except ValueError:
        pass  # not on the main thread (embedded use); SIGTERM stays default

    print(
        f"repro evaluation server pid={os.getpid()} listening on "
        f"{server.address}",
        flush=True,
    )
    try:
        server.serve_forever()
    finally:
        server.shutdown()
    return 0
