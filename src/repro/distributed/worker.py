"""The shard worker: one process owning one slice of the evaluation work.

A worker receives an **instance payload** (schema + relation rows), rebuilds
the database on its own ``sqlite`` backend, and then serves coverage
requests until told to shut down.  Per-engine state — in particular each
example's materialized saturation in the worker's
:class:`~repro.database.sqlite_backend.SaturationStore` — lives as long as
the process, so repeated batches (generations of a covering run, folds of a
cross-validation) hit a warm store instead of rebuilding it.

Requests and replies are ``(kind, payload)`` tuples over the length-prefixed
pickle protocol (:mod:`repro.distributed.protocol`) on a multiprocessing
pipe.  Replies are ``("ok", result)`` or ``("error", (type, message,
traceback))`` — the worker never lets an evaluation exception kill the
process.  Coverage replies are
**bitsets**: one integer per clause, bit ``j`` set when the clause covers
the ``j``-th example/candidate of the request's shard-local slice.

The process entry point is :func:`pipe_worker_main`; the coordinator
(:class:`~repro.distributed.service.EvaluationService`) spawns one per shard.
"""

from __future__ import annotations

import os
import pickle
import traceback
from typing import Dict, List, Tuple

from .protocol import PipeTransport, TransportError

Row = Tuple[object, ...]

#: Engine-spec kinds a worker can instantiate (see ``shard_spec`` on the
#: coverage engines).  Listed here so the service can validate early.
SPEC_KINDS = ("query", "subsumption", "castor")

#: Builder-spec kinds a worker can instantiate for saturation
#: materialization (see ``saturation_spec`` on the bottom-clause builders).
SATURATION_SPEC_KINDS = ("bottom", "castor-bottom")


class InstancePayload:
    """Everything a worker needs to rebuild the database instance."""

    __slots__ = ("schema", "rows")

    def __init__(self, schema, rows: Dict[str, List[Row]]):
        self.schema = schema
        self.rows = rows

    def __repr__(self) -> str:
        tuples = sum(len(r) for r in self.rows.values())
        return f"InstancePayload({len(self.rows)} relations, {tuples} tuples)"


class WorkerState:
    """Dispatch table plus the long-lived instance/engine state of one worker."""

    def __init__(self) -> None:
        self.instance = None
        self._engines: Dict[bytes, object] = {}
        self._builders: Dict[bytes, object] = {}

    # ------------------------------------------------------------------ #
    # Instance / engines
    # ------------------------------------------------------------------ #
    def _rebuild(self, payload: InstancePayload) -> None:
        from ..database.instance import DatabaseInstance
        from ..database.sqlite_backend import SQLiteBackend

        self.instance = DatabaseInstance(payload.schema, backend=SQLiteBackend())
        for name, rows in payload.rows.items():
            self.instance.add_tuples(name, rows)
        # Engines (and their saturation stores) and cached bottom-clause
        # builders describe the old data.
        self._engines.clear()
        self._builders.clear()

    def _engine_for(self, spec: Tuple[object, ...]):
        """Build (or fetch the cached) coverage engine for an engine spec.

        The cache key is the spec's pickle, so every learner run with the
        same configuration — e.g. consecutive cross-validation folds — lands
        on the same engine and its already-materialized saturation store.
        """
        key = pickle.dumps(spec)
        engine = self._engines.get(key)
        if engine is not None:
            return engine
        if self.instance is None:
            raise RuntimeError("worker received a batch before init")
        kind = spec[0]
        if kind == "query":
            from ..learning.coverage import QueryCoverageEngine

            engine = QueryCoverageEngine(self.instance)
        elif kind == "subsumption":
            from ..learning.coverage import SubsumptionCoverageEngine

            _, config, compiled = spec
            engine = SubsumptionCoverageEngine(
                self.instance, config, compiled=bool(compiled)
            )
        elif kind == "castor":
            from ..castor.castor import CastorCoverageEngine

            _, schema, config, compiled = spec
            engine = CastorCoverageEngine(self.instance, schema, config)
            engine.compiled_enabled = bool(compiled)
        else:
            raise ValueError(f"unknown engine spec kind {kind!r}")
        if hasattr(engine, "COMPILED_MIN_EXAMPLES"):
            # Shard-count invariance: the engine's "compiled pays off only
            # above N examples" heuristic must not pick a different decision
            # procedure (exact SQL vs backtrack-budgeted Python) depending
            # on how large this worker's slice happens to be.
            engine.COMPILED_MIN_EXAMPLES = 1
        self._engines[key] = engine
        return engine

    def _builder_for(self, spec: Tuple[object, ...]):
        """Build (or fetch the cached) bottom-clause builder for a spec.

        Mirrors :meth:`_engine_for`: keyed by the spec's pickle, so repeated
        saturation batches with one configuration reuse the compiled
        IND/theory-constant metadata.
        """
        key = pickle.dumps(spec)
        builder = self._builders.get(key)
        if builder is not None:
            return builder
        if self.instance is None:
            raise RuntimeError("worker received a batch before init")
        kind = spec[0]
        # The spec pins the coordinator builder's theory constants; passing
        # them skips the worker-side whole-database inference scan AND keeps
        # clauses identical even where local re-inference would differ.
        if kind == "bottom":
            from ..learning.bottom_clause import BottomClauseBuilder

            _, config, theory_constants = spec
            builder = BottomClauseBuilder(
                self.instance, config, theory_constants=theory_constants
            )
        elif kind == "castor-bottom":
            from ..castor.bottom_clause import CastorBottomClauseBuilder

            _, schema, config, theory_constants = spec
            builder = CastorBottomClauseBuilder(
                self.instance, schema, config, theory_constants=theory_constants
            )
        else:
            raise ValueError(f"unknown saturation spec kind {kind!r}")
        self._builders[key] = builder
        return builder

    # ------------------------------------------------------------------ #
    # Request handlers
    # ------------------------------------------------------------------ #
    def handle_init(self, payload: InstancePayload) -> Dict[str, object]:
        self._rebuild(payload)
        return {"pid": os.getpid(), "tuples": self.instance.total_tuples()}

    handle_reload = handle_init

    def handle_apply_delta(self, payload) -> Dict[str, object]:
        """Apply an incremental relation diff instead of a full rebuild.

        The payload is a one-element tuple holding a
        :class:`~repro.database.delta.Delta`.  Replay is **idempotent**: adds ignore rows that already
        exist (the log may record them) and removes ignore rows already
        gone — the coordinator re-sends a diff from the same token when a
        fleet-wide sync was interrupted midway, so a worker that already
        applied it must land in the same state, not error.

        Cached engines are *repaired*, not dropped: engines exposing
        ``apply_delta`` evict exactly the saturations/coverage bits the
        delta touches and keep the rest of their store warm; engines
        without it are discarded.  Builders are stateless over the live
        instance and survive as-is.
        """
        from ..database.delta import Delta

        (delta,) = payload
        if self.instance is None:
            raise RuntimeError("worker received a diff before init")
        if not isinstance(delta, Delta):
            raise TypeError(f"apply_delta takes a Delta, got {type(delta).__name__}")
        for op, relation_name, rows in delta.ops:
            if op == "add":
                self.instance.add_tuples(relation_name, rows)
            else:
                relation = self.instance.relation(relation_name)
                for row in rows:
                    try:
                        relation.remove(row)
                    except KeyError:
                        pass  # already removed by an earlier replay
        repaired = 0
        for key, engine in list(self._engines.items()):
            repair = getattr(engine, "apply_delta", None)
            if repair is None:
                del self._engines[key]
            else:
                repair(delta)
                repaired += 1
        return {
            "pid": os.getpid(),
            "tuples": self.instance.total_tuples(),
            "engines_repaired": repaired,
        }

    def handle_materialize_saturations(self, payload) -> List[object]:
        """Bottom clauses / saturations for this shard's slice of examples.

        Returns one :class:`~repro.logic.clauses.HornClause` per example in
        slice order; the coordinator reassembles input order from the
        sticky example partition.
        """
        from ..learning.bottom_clause import BatchSaturationEngine

        spec, examples, variablize = payload
        builder = self._builder_for(spec)
        engine = BatchSaturationEngine(builder)
        return engine.build_batch(examples, variablize=bool(variablize))

    def handle_ping(self, _payload) -> str:
        return "pong"

    def handle_stats(self, _payload) -> Dict[str, object]:
        stats: Dict[str, object] = {
            "pid": os.getpid(),
            "engines": len(self._engines),
            "tuples": self.instance.total_tuples() if self.instance else 0,
        }
        saturations = 0
        for engine in self._engines.values():
            store = getattr(engine, "_compiled_store", None)
            if store is not None:
                saturations += len(store)
        stats["materialized_saturations"] = saturations
        return stats

    def handle_coverage_batch(self, payload) -> List[int]:
        """Subsumption/query coverage of N clauses over this shard's examples."""
        spec, clauses, examples = payload
        engine = self._engine_for(spec)
        covered_lists = engine.covered_examples_batch(clauses, examples)
        masks: List[int] = []
        for covered in covered_lists:
            covered_set = set(covered)
            mask = 0
            for j, example in enumerate(examples):
                if example in covered_set:
                    mask |= 1 << j
            masks.append(mask)
        return masks

    def handle_query_batch(self, payload) -> List[int]:
        """Set-at-a-time query coverage of candidate head tuples.

        The worker owns the full instance, so clauses the SQLite compiler
        rejects fall back to the tuple-at-a-time join *locally* — the
        coordinator always gets a definitive bitset back.
        """
        from ..database.query import QueryEvaluator

        clauses, candidates = payload
        if self.instance is None:
            raise RuntimeError("worker received a batch before init")
        evaluator = QueryEvaluator(self.instance)
        covered_sets = evaluator.covered_tuples_batch(clauses, candidates)
        masks: List[int] = []
        for covered in covered_sets:
            mask = 0
            for j, candidate in enumerate(candidates):
                if tuple(candidate) in covered:
                    mask |= 1 << j
            masks.append(mask)
        return masks

    def handlers(self) -> Dict[str, object]:
        """Explicit allowlist of wire-reachable request kinds.

        Mirrors the server's dispatch table: nothing outside this mapping
        can be invoked by a peer, however the request kind is spelled.
        """
        return {
            "init": self.handle_init,
            "reload": self.handle_reload,
            "apply_delta": self.handle_apply_delta,
            "coverage_batch": self.handle_coverage_batch,
            "query_batch": self.handle_query_batch,
            "materialize_saturations": self.handle_materialize_saturations,
            "ping": self.handle_ping,
            "stats": self.handle_stats,
        }


def serve_loop(transport) -> None:
    """Answer requests on one transport until shutdown or peer loss.

    Messages may carry a third **trace context** element
    (``(kind, payload, {"trace_id": ..., "parent_id": ...})``).  The worker
    then records a ``worker.<kind>`` span under the coordinator's span and
    ships every finished span of that trace back in the reply's third
    element — that is how one learner run's trace tree reaches across the
    process boundary into the shard workers.
    """
    from ..obs import tracer as obs_tracer

    state = WorkerState()
    handlers = state.handlers()
    while True:
        try:
            message = transport.recv()
        except TransportError:
            break  # coordinator went away; nothing left to serve
        kind, payload = message[0], message[1]
        trace_ctx = message[2] if len(message) > 2 else None
        if kind == "shutdown":
            try:
                transport.send(("ok", None))
            except TransportError:
                pass
            break
        if kind == "crash":
            # Test hook for the lifecycle-hardening suite: die like a worker
            # hit by the OOM killer — no reply, no cleanup.
            os._exit(13)
        handler = handlers.get(kind)
        tracer = obs_tracer()
        try:
            if handler is None:
                raise ValueError(f"unknown request kind {kind!r}")
            with tracer.activate(trace_ctx):
                with tracer.span(f"worker.{kind}"):
                    reply = ("ok", handler(payload))
        except Exception as exc:  # noqa: BLE001 - forwarded to the coordinator
            reply = (
                "error",
                (type(exc).__name__, str(exc), traceback.format_exc()),
            )
        if trace_ctx is not None and isinstance(trace_ctx, dict):
            records = tracer.drain(trace_ctx.get("trace_id"))
            if records:
                reply = (*reply, {"records": records})
        try:
            transport.send(reply)
        except TransportError:
            break


def pipe_worker_main(connection) -> None:
    """Process target for a shard worker on a multiprocessing pipe."""
    from ..obs import tracer as obs_tracer

    # Span records from this process are stamped as shard-worker spans.
    obs_tracer().process = f"worker-{os.getpid()}"
    transport = PipeTransport(connection)
    try:
        serve_loop(transport)
    finally:
        transport.close()

