"""Sharded placement of ``sqlite`` storage: batched evaluation on a fleet.

:class:`ShardedSQLiteBackend` is ``sqlite`` storage placed on a local
worker fleet — a :class:`~repro.session.session.LearningSession` builds
one for ``SessionConfig(backend="sqlite", shards=N)``, and its ``name``
stays ``"sqlite"``.  Storage and single-statement evaluation are
inherited unchanged from
:class:`~repro.database.sqlite_backend.SQLiteBackend`.  What changes is
*batched* coverage: the backend lazily owns an
:class:`~repro.distributed.service.EvaluationService` and routes

* ``covered_head_tuples_batch`` (query-based coverage of a candidate set)
  through the service's ``query_batch`` path, and
* subsumption batches (via
  :class:`~repro.learning.coverage.BatchCoverageEngine`, which probes for
  :meth:`coverage_service`) through the ``coverage_batch`` path,

so a generation of candidate clauses is scored by N worker processes in
parallel.  Results are invariant in the shard count and match the other
backends — with one narrow exception
inherited from the compiled-vs-Python distinction: workers always decide
subsumption with the exact SQL path (required for shard-count
invariance), while in-process engines fall back to the backtrack-budgeted
Python engine below ``COMPILED_MIN_EXAMPLES`` examples, so a
budget-exhausting clause on a tiny batch can be decided exactly here but
conservatively "uncovered" there (see ``docs/backends.md``).

The fleet's shard count is fixed at construction.

Mutations keep going to the primary connection; the service watches the
backend's data-version token and reloads the workers before the next batch
whenever relation contents changed.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Sequence, Set, Tuple

from ..database.delta import Delta
from ..database.schema import Schema
from ..database.sqlite_backend import SQLiteBackend
from ..logic.clauses import HornClause
from .service import EvaluationService, default_shard_count
from .worker import InstancePayload

Row = Tuple[object, ...]


def _close_service(service: EvaluationService) -> None:
    service.close()


class ShardedSQLiteBackend(SQLiteBackend):
    """SQLite storage plus a sharded multi-process evaluation service."""

    name = "sqlite"
    #: Batch reads (coverage, saturations) go to the worker fleet, so a
    #: prefetch thread can overlap them with the learner's seed construction.
    supports_concurrent_reads = True

    #: Mutation-log caps: beyond this many change records — or this many
    #: total logged rows, whichever trips first — the log's floor advances
    #: (older diffs become impossible) instead of growing unbounded.  The
    #: row cap matters because one ``add_all`` entry holds a full copy of
    #: every inserted row.
    MAX_MUTATION_LOG_ENTRIES = 4096
    MAX_MUTATION_LOG_ROWS = 65536

    def __init__(
        self,
        connection=None,
        shards: Optional[int] = None,
    ):
        super().__init__(connection)
        if shards is not None and int(shards) < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        self.shards = int(shards) if shards is not None else default_shard_count()
        self._instance_schema: Optional[Schema] = None
        self._service: Optional[EvaluationService] = None
        self._service_finalizer = None
        # Ordered relation-change log backing incremental worker reloads:
        # ``(data_version after the change, Delta)`` entries.  ``_log_floor``
        # is the version up to which changes are NOT in the log — diffs can
        # only be cut for tokens at or above it.
        self._mutation_log: List[Tuple[int, Delta]] = []
        self._log_floor = 0
        self._log_rows = 0
        # Delta-batch seam (DatabaseInstance.transaction): while a batch is
        # open, per-mutation change records accumulate here and are written
        # as ONE coalesced log entry at the end of the batch.
        self._batch_depth = 0
        self._batch_ops: List[Tuple[str, str, Tuple[Row, ...]]] = []
        self._batch_poisoned = False

    # ------------------------------------------------------------------ #
    # Mutation log (incremental worker reloads)
    # ------------------------------------------------------------------ #
    def _bump_data_version(
        self, change: Optional[Tuple[str, str, Tuple[Row, ...]]] = None
    ) -> None:
        super()._bump_data_version()
        if self._batch_depth > 0:
            if change is None:
                self._batch_poisoned = True
            else:
                self._batch_ops.append(change)
            return
        if change is None:
            # A mutation without a change record cannot be replayed; diffs
            # crossing this version must fall back to a full reload.
            self._clear_mutation_log()
            return
        self._append_log_entry(Delta([change]))

    def begin_delta_batch(self) -> None:
        """Start buffering change records (one log entry per batch)."""
        self._batch_depth += 1

    def end_delta_batch(self) -> None:
        """Flush the buffered batch as a single coalesced log entry."""
        if self._batch_depth == 0:
            return
        self._batch_depth -= 1
        if self._batch_depth > 0:
            return
        ops, self._batch_ops = self._batch_ops, []
        poisoned, self._batch_poisoned = self._batch_poisoned, False
        if poisoned:
            self._clear_mutation_log()
            return
        if ops:
            self._append_log_entry(Delta(ops).coalesced())

    def _append_log_entry(self, delta: Delta) -> None:
        if delta.is_empty:
            return
        self._mutation_log.append((self._data_version, delta))
        self._log_rows += delta.row_count
        while self._mutation_log and (
            len(self._mutation_log) > self.MAX_MUTATION_LOG_ENTRIES
            or self._log_rows > self.MAX_MUTATION_LOG_ROWS
        ):
            version, logged = self._mutation_log.pop(0)
            self._log_rows -= logged.row_count
            self._log_floor = version

    def _clear_mutation_log(self) -> None:
        self._mutation_log.clear()
        self._log_rows = 0
        self._log_floor = self._data_version

    def collect_diff(
        self, since_token: Optional[Tuple[int, int]]
    ) -> Optional[Delta]:
        """The ordered :class:`Delta` since a :meth:`data_token`, or ``None``.

        ``None`` — ship the full payload instead — when the token predates
        the log floor, the relation set changed (the token's first element),
        or the diff would ship at least as many rows as the payload itself.
        """
        if not since_token:
            return None
        relation_count, version = since_token
        if relation_count != len(self._relations) or version < self._log_floor:
            return None
        combined = Delta()
        for logged_version, delta in self._mutation_log:
            if logged_version > version:
                combined = combined.then(delta)
        payload_rows = sum(len(relation) for relation in self._relations.values())
        if combined.row_count >= payload_rows:
            return None
        return combined

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def bind_instance_schema(self, schema: Schema) -> None:
        """Hook called by :class:`~repro.database.instance.DatabaseInstance`.

        Workers rebuild the instance from the payload, and saturation
        construction reads schema constraints (theory-constant inference
        looks at FDs/INDs), so the payload must carry the *real* schema —
        not one reconstructed from bare relation schemas.
        """
        self._instance_schema = schema

    def _payload(self) -> InstancePayload:
        schema = self._instance_schema
        if schema is None:
            # Constraint-free fallback; sufficient for pure query evaluation.
            schema = Schema(
                [relation.schema for relation in self._relations.values()],
                name="sharded-payload",
            )
        rows = {
            name: list(relation.rows)
            for name, relation in self._relations.items()
        }
        # A full payload supersedes every logged change for this backend's
        # (single) service: any worker built from it is current, and
        # stragglers synced to an older token simply fall back to a full
        # reload via the log-floor check.  Clearing here keeps the log from
        # pinning a duplicate of the initial bulk load in memory.
        self._clear_mutation_log()
        return InstancePayload(schema, rows)

    def coverage_service(self) -> EvaluationService:
        """The lazily-started evaluation service behind this backend."""
        if self._service is None:
            # The service must not hold the backend strongly: its callbacks
            # sit in the finalizer registry (via the service), and a bound
            # method would keep the backend reachable forever — the
            # finalizer below could then never fire and every dropped
            # instance would leak its worker fleet.
            backend_ref = weakref.ref(self)

            def payload_fn() -> InstancePayload:
                backend = backend_ref()
                if backend is None:
                    raise RuntimeError(
                        "sharded backend was garbage-collected mid-spawn"
                    )
                return backend._payload()

            def state_token_fn() -> object:
                backend = backend_ref()
                return None if backend is None else backend.data_token()

            def diff_fn(since_token: object) -> Optional[List[object]]:
                backend = backend_ref()
                return None if backend is None else backend.collect_diff(since_token)

            self._service = EvaluationService(
                payload_fn,
                shards=self.shards,
                state_token_fn=state_token_fn,
                diff_fn=diff_fn,
            )
            # Workers must not outlive the backend (tests build many
            # instances; daemonized processes still cost memory and pids).
            self._service_finalizer = weakref.finalize(
                self, _close_service, self._service
            )
        return self._service

    def close(self) -> None:
        """Shut down the service (and its workers).

        The primary connection stays open: relations remain readable, and a
        later batch simply respawns the service lazily.
        """
        if self._service_finalizer is not None:
            self._service_finalizer.detach()
            self._service_finalizer = None
        if self._service is not None:
            self._service.close()
            self._service = None

    # ------------------------------------------------------------------ #
    # Batched evaluation (probed by QueryEvaluator)
    # ------------------------------------------------------------------ #
    def covered_head_tuples_batch(
        self,
        clauses: Sequence[HornClause],
        candidates: Sequence[Sequence[object]],
    ) -> List[Optional[Set[Row]]]:
        """Fan the candidate axis of the batch across the shard workers.

        Workers resolve non-compilable clauses locally (they own full
        instances), so unlike the single-process backends this never returns
        ``None`` fallback markers.
        """
        clause_list = list(clauses)
        if len(clause_list) * len(candidates) == 0:
            return [set() for _ in clause_list]
        service = self.coverage_service()
        return list(service.covered_candidates_batch(clause_list, candidates))

    def __repr__(self) -> str:
        started = self._service is not None and self._service._started
        return (
            f"ShardedSQLiteBackend({len(self._relations)} relations, "
            f"shards={self.shards}, "
            f"service={'started' if started else 'cold'})"
        )
