"""`LearningSession`: the single front door to the learning stack.

A session owns everything a learning run used to assemble by hand — the
storage backend instances are materialized on, the evaluation service (or
the connection to a persistent one), and the shared saturation store — and
hands out learners already normalized onto one validated
:class:`~repro.session.config.SessionConfig`::

    from repro import LearningSession, SessionConfig

    with LearningSession(SessionConfig(backend="sqlite", shards=2)) as session:
        learner = session.learner("castor", schema, parameters)
        definition = learner.learn(instance, examples)
        result = session.run(bundle, "original", "progolem", folds=3)

Repeated runs through one session reuse the prepared instances, the warm
worker fleets, and the saturation stores — the second run starts warm.

``LearningSession.connect("host:port")`` binds the session to a
**persistent evaluation server** (``python -m repro.distributed.service
--serve``) instead: instances register under content-hashed handles, and a
run over data the server has already seen ships no payload at all — the
warm fleet of the previous run (or of another user's session) serves it
directly.

Lifecycle safety: sessions are context managers, ``close()`` is
idempotent, and every session registers an ``atexit`` hook so abandoned
sessions cannot leak worker processes from aborted runs.
"""

from __future__ import annotations

import copy
import pickle  # repro: noqa[REP001] -- dumps-only structural fingerprint for store sharing; bytes never cross a process boundary and nothing is ever unpickled
import threading
import weakref
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..database.backend import create_backend
from ..database.delta import Delta
from ..database.instance import DatabaseInstance
from ..database.sqlite_backend import SaturationStore, SQLiteBackend
from ..obs import registry as obs_registry, span as obs_span, tracer as obs_tracer
from .config import SessionConfig

if TYPE_CHECKING:  # resolved lazily at runtime; annotations only
    from ..distributed.client import ServiceClient
    from ..learning.examples import ExampleSet


def _learner_kinds() -> Dict[str, type]:
    """Name -> class registry for ``session.learner("castor", ...)``.

    Resolved lazily so importing :mod:`repro.session` does not drag in
    every learner package.
    """
    from ..castor.castor import CastorLearner
    from ..foil.foil import FoilLearner
    from ..golem.golem import GolemLearner
    from ..progol.progol import AlephFoilLearner, ProgolLearner
    from ..progolem.progolem import ProGolemLearner

    return {
        "castor": CastorLearner,
        "foil": FoilLearner,
        "golem": GolemLearner,
        "progolem": ProGolemLearner,
        "progol": ProgolLearner,
        "aleph-foil": AlephFoilLearner,
    }


def _resolve_kind(kind: str) -> type:
    kinds = _learner_kinds()
    try:
        return kinds[kind]
    except KeyError as exc:
        raise ValueError(
            f"unknown learner kind {kind!r}; available: {sorted(kinds)}"
        ) from exc


class SessionLearner:
    """A learner bound to its session: ``learn()`` rides the session's
    prepared instances and shared stores.

    Everything else (parameters, name, knobs) delegates to the wrapped
    learner, so the wrapper stays invisible to code that inspects it.
    """

    def __init__(self, session: "LearningSession", learner: Any) -> None:
        self._session = session
        self._learner = learner

    @property
    def wrapped(self) -> Any:
        """The underlying learner object."""
        return self._learner

    def learn(self, instance: DatabaseInstance, examples: "ExampleSet") -> Any:
        session = self._session
        prepared = session.prepare(instance)
        # Lazy like the harness path: no SQLite-backed store is ever opened
        # for learners without the knob (FOIL's query coverage).
        store = (
            session.saturation_store_for(prepared, self._learner)
            if hasattr(self._learner, "saturation_store")
            else None
        )
        session.apply(self._learner, saturation_store=store)
        return self._learner.learn(prepared, examples)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._learner, name)

    def __setattr__(self, name: str, value: Any) -> None:
        # Writes configure the wrapped learner (a wrapper-local attribute
        # would shadow reads while learn() ignored the setting).
        if name in ("_session", "_learner"):
            object.__setattr__(self, name, value)
        else:
            setattr(self._learner, name, value)

    def __repr__(self) -> str:
        return f"SessionLearner({self._learner!r})"


class _SessionResources:
    """The closeable resources a session creates, owned separately.

    Split out so the session's exit-safety hook can be a
    ``weakref.finalize`` on this object: an abandoned session (no
    ``close()``) stays garbage-collectable — its resources are reclaimed
    when the session is collected or at interpreter exit — whereas an
    ``atexit``-registered bound method would pin every un-closed session,
    its prepared instances, and its stores for the whole process lifetime.
    """

    def __init__(self) -> None:
        self.backends: List[object] = []
        self.client = None

    def close(self) -> None:
        # Best-effort per resource: one failing fleet teardown must not
        # leak every remaining fleet and the server connection (this runs
        # once — from close() or the finalizer — so nothing retries).
        backends, self.backends = self.backends, []
        first_error = None
        for backend in backends:
            close = getattr(backend, "close", None)
            if close is None:
                continue
            try:
                close()
            except Exception as exc:  # noqa: BLE001 - keep closing the rest
                first_error = first_error or exc
        if self.client is not None:
            try:
                self.client.close()
            finally:
                self.client = None
        if first_error is not None:
            raise first_error


class LearningSession:
    """Owner of backend + evaluation-service + saturation-store lifecycle."""

    def __init__(
        self, config: Optional[SessionConfig] = None, **overrides: object
    ) -> None:
        if config is None:
            config = SessionConfig(**overrides)
        elif overrides:
            config = config.merged(**overrides)
        self.config = config
        self._lock = threading.RLock()
        # id(source) -> (source, prepared, data token, owned backend); the
        # source reference pins the id so Python cannot recycle it for a
        # different instance, and the token notices mutations.
        self._instances: Dict[
            int,
            Tuple[DatabaseInstance, DatabaseInstance, object, Optional[object]],
        ] = {}
        self._stores: Dict[object, SaturationStore] = {}
        self._closed = False
        self._resources = _SessionResources()
        if config.trace:
            self.enable_tracing()
        if config.service_address is not None:
            from ..distributed.client import ServiceClient

            self._resources.client = ServiceClient(
                config.service_address,
                token=config.auth_token,
                request_timeout=config.request_timeout,
            )
        # Abandoned sessions (aborted scripts, crashed notebooks) must not
        # leak worker fleets: the finalizer runs on garbage collection and
        # at interpreter exit, and close() triggers it explicitly.
        self._finalizer = weakref.finalize(self, self._resources.close)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def connect(
        cls,
        address: str,
        config: Optional[SessionConfig] = None,
        token: Optional[str] = None,
        request_timeout: Optional[float] = None,
        **overrides: object,
    ) -> "LearningSession":
        """A session evaluating on the persistent server at ``address``.

        ``token`` authenticates against a server started with
        ``--auth-token``; ``request_timeout`` bounds every round-trip so a
        hung server raises instead of blocking ``learn()`` forever.
        """
        base = config or SessionConfig()
        return cls(
            base.merged(
                service_address=str(address),
                auth_token=token,
                request_timeout=request_timeout,
                **overrides,
            )
        )

    @property
    def client(self) -> "Optional[ServiceClient]":
        """The :class:`~repro.distributed.client.ServiceClient`, if remote."""
        return self._resources.client

    @property
    def is_remote(self) -> bool:
        return self._resources.client is not None

    # ------------------------------------------------------------------ #
    # Instances and stores
    # ------------------------------------------------------------------ #
    def prepare(self, instance: DatabaseInstance) -> DatabaseInstance:
        """The instance on this session's storage × placement (cached per
        source).

        The instance is converted once — repeated runs over the same source
        instance reuse the converted one and its warm evaluation service —
        onto ``config.backend``'s storage, placed by the config:

        * ``service_address`` — a :class:`~repro.distributed.client.RemoteBackend`
          bound to the session's server connection;
        * ``shards=N`` — a :class:`~repro.distributed.backend.ShardedSQLiteBackend`
          with a local fleet of N workers;
        * neither — in process.

        The cache watches the source's :meth:`~DatabaseInstance.data_token`:
        a mutation between runs re-converts the instance and drops its
        saturation stores (whose clauses describe the old data), so
        session runs always see current contents without re-converting
        when nothing changed.  Learners never convert an instance
        themselves: this is the only place an instance changes backend.
        """
        self._ensure_open()
        with self._lock:
            key = id(instance)
            token = instance.data_token()
            entry = self._instances.get(key)
            if entry is not None and entry[2] != token:
                self._invalidate_locked(key, entry)
                entry = None
            if entry is None:
                prepared, owned = self._prepare_uncached(instance)
                entry = self._instances[key] = (instance, prepared, token, owned)
                # From here on, direct add/remove on the prepared instance
                # warns once (it forces the wholesale re-conversion above);
                # transaction()/update() mutations are patched in place.
                prepared.mark_managed()
            return entry[1]

    def _invalidate_locked(
        self,
        key: int,
        entry: Tuple[DatabaseInstance, DatabaseInstance, object, Optional[object]],
    ) -> None:
        """Drop a stale prepared instance: its conversion and its stores
        describe the pre-mutation data."""
        del self._instances[key]
        _source, prepared, _token, owned = entry
        stale = id(prepared)
        for store_key in [k for k in self._stores if k[0] == stale]:
            del self._stores[store_key]
        if owned is not None:
            remote = getattr(owned, "remote_service", None)
            client = self._resources.client
            if remote is not None and remote.handle is not None and client is not None:
                # The superseded data's server-side handle (and its fleet)
                # is retired instead of idling until LRU eviction; another
                # session still on it just re-registers (one re-ship).
                try:
                    client.unregister(remote.handle)
                except Exception:  # noqa: BLE001 - best-effort hygiene
                    pass
            try:
                self._resources.backends.remove(owned)
            except ValueError:
                pass
            close = getattr(owned, "close", None)
            if close is not None:
                close()

    def _prepare_uncached(
        self, instance: DatabaseInstance
    ) -> Tuple[DatabaseInstance, Optional[object]]:
        """Convert onto the session backend; returns (prepared, owned backend)."""
        backend = self._placed_backend(instance)
        if backend is None:
            return instance, None
        prepared = instance.with_backend(backend)
        self._resources.backends.append(backend)
        return prepared, backend

    def _placed_backend(self, instance: DatabaseInstance) -> Optional[Any]:
        """A fresh backend for the config's storage × placement, or ``None``
        when ``instance`` already sits on one (or no backend is set)."""
        config = self.config
        current = instance.backend
        client = self._resources.client
        if client is not None:
            from ..distributed.client import RemoteBackend

            # The handle name is content-qualified by the backend at
            # registration time, so distinct instances under one named
            # namespace never collide (and never depend on preparation
            # order).
            return RemoteBackend(client=client, handle=config.instance_handle)
        if config.shards is not None:
            from ..distributed.backend import ShardedSQLiteBackend

            if type(current) is ShardedSQLiteBackend and current.shards == config.shards:
                return None
            return ShardedSQLiteBackend(shards=config.shards)
        if config.backend == "sqlite":
            # Placed backends also report ``sqlite``; only an in-process
            # one can be kept as is.
            if type(current) is SQLiteBackend:
                return None
            return SQLiteBackend()
        if config.backend is None or config.backend == instance.backend_name:
            return None
        return create_backend(config.backend)

    def saturation_store_for(
        self, instance: DatabaseInstance, learner: Any = None
    ) -> Optional[SaturationStore]:
        """The shared warm store for a prepared instance (or ``None`` when
        ``reuse_saturation_store=False``).

        Stores are keyed per (instance, learner configuration): the store
        dedups saturations by example only, so two learners whose builders
        construct *different* saturations for one example (Castor's IND
        chase vs ProGolem at another depth) must never share one — the
        second learner would answer compiled coverage from the first's
        clauses.  Same-configured learners (cross-validation folds, repeat
        runs of one spec) land on the same warm store.
        """
        if not self.config.reuse_saturation_store:
            return None
        key = (id(instance), self._learner_fingerprint(learner))
        with self._lock:
            store = self._stores.get(key)
            if store is None:
                store = self._stores[key] = SaturationStore()
            return store

    @staticmethod
    def _learner_fingerprint(learner: Any) -> object:
        """Everything saturation-relevant about a learner, hashable.

        Over-keying is safe (it only loses sharing); under-keying answers
        coverage from a foreign builder's saturations.  The parameters
        object carries the bottom-clause config plus Castor's IND options;
        unpicklable parameters fall back to no sharing at all.
        """
        if learner is None:
            return None
        try:
            return pickle.dumps(
                (type(learner).__qualname__, getattr(learner, "parameters", None)),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except Exception:  # noqa: BLE001 - exotic parameters: isolate, don't fail
            return id(learner)

    def store_supplier(
        self, instance: DatabaseInstance
    ) -> Optional[Callable[..., SaturationStore]]:
        """Lazy-store variant of :meth:`saturation_store_for` (no SQLite
        connection is opened for learners that never ask).  Callers pass
        the learner so stores stay keyed per saturation configuration."""
        if not self.config.reuse_saturation_store:
            return None
        return lambda learner=None: self.saturation_store_for(instance, learner)

    # ------------------------------------------------------------------ #
    # Incremental updates
    # ------------------------------------------------------------------ #
    def update(self, instance: DatabaseInstance, delta: Delta) -> Delta:
        """Apply a :class:`~repro.database.delta.Delta` through the session.

        The streaming-update front door: where a direct mutation between
        runs makes :meth:`prepare` throw away the converted instance, its
        warm worker fleet, and every saturation store keyed on it, this
        patches each of those in place —

        * the source *and* the session's converted instance replay the
          delta (one transaction each, so sharded/remote backends log one
          coalesced change record);
        * shared :class:`SaturationStore`\\ s drop exactly the saturations
          whose footprint the delta touches (untouched examples stay warm;
          dropped ones rebuild lazily on next use);
        * a live local worker fleet is re-synced now (workers replay the
          delta and repair their engine caches), and a remote session
          ships one ``apply_delta`` frame instead of the full payload;
        * the cached data token advances, so the next :meth:`prepare` is a
          cache hit instead of a wholesale invalidation.

        An instance the session has not prepared yet just replays the delta
        onto the source.  Returns ``delta`` for chaining.
        """
        self._ensure_open()
        if not isinstance(delta, Delta):
            raise TypeError(
                f"update() takes a Delta, got {type(delta).__name__}; "
                "build one with Delta.add/Delta.remove or session.feed()"
            )
        with self._lock:
            entry = self._instances.get(id(instance))
        if entry is None:
            instance.apply_delta(delta)
            return delta
        source, prepared, _token, owned = entry
        source.apply_delta(delta)
        if prepared is not source:
            prepared.apply_delta(delta)
        touched = delta.touched_values()
        with self._lock:
            stale = id(prepared)
            stores = [
                store for key, store in self._stores.items() if key[0] == stale
            ]
            # Advance the token under the lock BEFORE patching stores: a
            # concurrent prepare() must either see the old token (and
            # invalidate wholesale — correct, just cold) or the new one
            # (and reuse state this update is about to finish patching).
            self._instances[id(instance)] = (
                source, prepared, source.data_token(), owned
            )
        for store in stores:
            store.invalidate_touching(touched)
        backend = prepared.backend
        local_service = getattr(backend, "_service", None)
        sync = getattr(local_service, "sync", None)
        if sync is not None:
            # Live fleets replay the delta now (and repair engines in
            # place); cold ones stay cold and build from current data.
            sync()
        remote = getattr(backend, "remote_service", None)
        if remote is not None and remote.handle is not None:
            # One apply_delta frame (or, on divergence, a full re-ship).
            remote._ensure_registered()
        return delta

    def feed(
        self,
        instance: DatabaseInstance,
        add: Optional[Dict[str, object]] = None,
        remove: Optional[Dict[str, object]] = None,
    ) -> Delta:
        """Streaming shorthand for :meth:`update`.

        ``add``/``remove`` map relation names to iterables of rows::

            session.feed(instance,
                         add={"advisedBy": [("p1", "s9")]},
                         remove={"student": [("s3",)]})

        builds one coalesced :class:`Delta` (removes after adds, matching
        keyword order here: adds first) and routes it through
        :meth:`update`.
        """
        ops = []
        for op_name, mapping in (("add", add), ("remove", remove)):
            for relation, rows in (mapping or {}).items():
                ops.append(
                    (op_name, relation, tuple(tuple(row) for row in rows))
                )
        return self.update(instance, Delta(ops).coalesced())

    # ------------------------------------------------------------------ #
    # Learners
    # ------------------------------------------------------------------ #
    def apply(
        self, learner: Any, saturation_store: Optional[SaturationStore] = None
    ) -> Any:
        """Normalize a learner onto this session's config (see
        :meth:`SessionConfig.apply`).  Instance routing stays with
        :meth:`prepare`."""
        return self.config.apply(learner, saturation_store=saturation_store)

    def learner(
        self,
        kind: "str | type",
        schema: Any,
        parameters: Any = None,
        **kwargs: Any,
    ) -> SessionLearner:
        """Construct a learner bound to this session.

        ``kind`` is a registry name (``"castor"``, ``"progolem"``,
        ``"golem"``, ``"foil"``, ``"progol"``, ``"aleph-foil"``) or a
        learner class; ``kwargs`` are the learner's own algorithm inputs
        (e.g. ``clause_length``).  The learner is configured through
        :meth:`apply` and wrapped so that ``learn()`` runs on the
        session's prepared instances and shared stores.
        """
        self._ensure_open()
        cls = _resolve_kind(kind) if isinstance(kind, str) else kind
        # ``parameters`` goes by keyword: positionally it would land in
        # e.g. AlephFoilLearner's clause_length slot.
        if parameters is None:
            learner = cls(schema, **kwargs)
        else:
            learner = cls(schema, parameters=parameters, **kwargs)
        return SessionLearner(self, self.apply(learner))

    # ------------------------------------------------------------------ #
    # Harness entry points
    # ------------------------------------------------------------------ #
    def run(
        self,
        bundle: Any,
        variant_name: str,
        learner: Any,
        folds: int = 3,
        seed: int = 0,
        parameters: Any = None,
    ) -> Any:
        """Cross-validate one learner on one schema variant (see
        :func:`repro.experiments.harness.run_variant`)."""
        from ..experiments.harness import run_variant

        spec = self._as_spec(learner, parameters)
        # The root of the trace tree: every learner-phase span, RPC span,
        # and (via span shipping) server/worker span of this run hangs off
        # it under one trace id.
        with obs_span(
            "session.run",
            variant=str(variant_name),
            learner=spec.name,
            folds=int(folds),
        ):
            return run_variant(
                bundle, variant_name, spec, folds=folds, seed=seed, session=self
            )

    def sweep(
        self,
        bundle: Any,
        learners: "list[Any] | tuple[Any, ...]",
        variants: Optional[List[str]] = None,
        folds: int = 3,
        seed: int = 0,
    ) -> Any:
        """Every learner on every schema variant (one of the paper's tables)."""
        from ..experiments.harness import run_schema_sweep

        specs = [self._as_spec(learner) for learner in learners]
        with obs_span("session.sweep", learners=len(specs)):
            return run_schema_sweep(
                bundle, specs, variants=variants, folds=folds, seed=seed,
                session=self,
            )

    def check_schema_independence(
        self,
        bundle: Any,
        learner: Any,
        variants: Optional[List[str]] = None,
    ) -> Any:
        """Direct empirical schema-independence check (Definition 3.10)."""
        from ..experiments.harness import check_schema_independence

        return check_schema_independence(
            bundle, self._as_spec(learner), variants=variants, session=self
        )

    def _as_spec(self, learner: Any, parameters: Any = None) -> Any:
        from ..experiments.harness import LearnerSpec

        if isinstance(learner, LearnerSpec):
            return learner
        if isinstance(learner, SessionLearner):
            learner = learner.wrapped
        if isinstance(learner, str) or isinstance(learner, type):
            cls = _resolve_kind(learner) if isinstance(learner, str) else learner
            name = learner if isinstance(learner, str) else cls.__name__
            if parameters is None:
                return LearnerSpec(name, lambda schema: cls(schema))
            # By keyword: positionally it would land in e.g.
            # AlephFoilLearner's clause_length slot.
            return LearnerSpec(
                name, lambda schema: cls(schema, parameters=parameters)
            )
        # A constructed learner object: reused for every fold (learners
        # rebuild their engines per learn(), so this is re-entrant).  The
        # schema must follow the variant being learned — keeping the
        # construction-time schema would silently run e.g. Castor's IND
        # chase against the wrong relation set on every other variant of a
        # sweep — but the caller's object is never mutated: a different
        # variant gets a shallow per-variant clone (config state only;
        # engines are built per learn()).
        name = getattr(learner, "name", type(learner).__name__)

        def rebind(schema: Any) -> Any:
            if (
                schema is None
                or not hasattr(learner, "schema")
                or schema is learner.schema
            ):
                return learner
            clone = copy.copy(learner)
            clone.schema = schema
            return clone

        return LearnerSpec(name, rebind)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def evaluation_stats(self) -> Dict[str, int]:
        """Aggregate service counters over this session's instances.

        ``reloads_full`` is the number of full instance payloads shipped —
        the warm-run acceptance number (0 on a repeat run against a
        persistent server that already holds the data).
        """
        totals = {
            "reloads_full": 0,
            "reloads_incremental": 0,
            "register_hits": 0,
            "batches_served": 0,
        }
        with self._lock:
            prepared_list = [entry[1] for entry in self._instances.values()]
        for prepared in prepared_list:
            backend = prepared.backend
            service = getattr(backend, "remote_service", None)
            if service is None:
                service = getattr(backend, "_service", None)
            if service is None:
                continue
            for key in totals:
                totals[key] += int(getattr(service, key, 0))
        return totals

    @property
    def reloads_full(self) -> int:
        return self.evaluation_stats()["reloads_full"]

    def server_stats(self) -> Optional[Dict[str, object]]:
        """The persistent server's global stats (``None`` for local sessions)."""
        client = self.client
        return None if client is None else client.server_stats()

    # ------------------------------------------------------------------ #
    # Observability (see docs/observability.md)
    # ------------------------------------------------------------------ #
    def metrics(self) -> Dict[str, object]:
        """Unified metrics: this process's registry snapshot, plus the
        persistent server's when the session is remote.

        Both halves use the same shape (``name{labels} -> value`` for
        counters/gauges, summary dicts for histograms), so dashboards can
        merge them without translation; ``server`` additionally carries the
        server registry's Prometheus text exposition.
        """
        self._ensure_open()
        result: Dict[str, object] = {"local": obs_registry().snapshot()}
        client = self.client
        if client is not None:
            result["server"] = client.server_metrics()
        return result

    def enable_tracing(self, process: str = "client") -> None:
        """Start recording spans (idempotent; ``config.trace=True`` calls
        this at construction).  ``process`` labels this process's spans in
        dumps — the server and its workers label their own."""
        obs_tracer().enable(process=process)

    def disable_tracing(self) -> None:
        obs_tracer().disable()

    def trace_records(self) -> List[Dict[str, object]]:
        """Every span recorded so far (local + shipped back from the
        server/workers), as plain dicts."""
        return [record.to_dict() for record in obs_tracer().records()]

    def trace_dump(self, path: str, chrome: bool = False) -> str:
        """Write the recorded trace to ``path`` and return the path.

        Default format is the ``repro-trace`` JSON consumed by
        ``python -m repro.obs.report``; ``chrome=True`` writes Chrome
        ``trace_event`` JSON instead (load in chrome://tracing or
        Perfetto).
        """
        tracer = obs_tracer()
        if chrome:
            return tracer.dump_chrome(path)
        return tracer.dump_json(path)

    def clear_trace(self) -> None:
        """Drop recorded spans (e.g. between runs being dumped separately)."""
        obs_tracer().clear()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("this LearningSession is closed")

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release every owned resource; idempotent.

        Closes backends this session created (worker fleets) and the
        server connection (server-side state deliberately
        stays warm).  Instances that were passed in already prepared are
        never touched.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._instances.clear()
            self._stores.clear()
        # Runs _SessionResources.close exactly once; the same callback
        # fires on garbage collection / interpreter exit for sessions that
        # were never closed explicitly.
        self._finalizer()

    def __enter__(self) -> "LearningSession":
        self._ensure_open()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        target = (
            f"server={self.config.service_address!r}"
            if self.config.service_address
            else f"backend={self.config.backend!r}"
        )
        return f"LearningSession({target}, {len(self._instances)} instances, {state})"


def connect(
    address: str, config: Optional[SessionConfig] = None, **overrides: object
) -> LearningSession:
    """Module-level shorthand for :meth:`LearningSession.connect`."""
    return LearningSession.connect(address, config=config, **overrides)
