"""Pluggable storage/evaluation backends for database instances.

The paper's Castor gets its performance from delegating storage and the hot
evaluation loops (bottom-clause lookups, coverage queries) to an in-memory
RDBMS (VoltDB, Section 7).  This module defines the seam that makes the
substrate swappable:

* :class:`RelationBackend` — the per-relation storage interface (insert,
  delete, indexed lookup by value and by ``(position, value)``, projection);
* :class:`Backend` — the per-instance factory that creates relation stores
  and may additionally expose *set-at-a-time* query evaluation (see
  :mod:`repro.database.sqlite_backend`);
* a name registry so callers can select a backend's *storage* with a plain
  string (``"memory"`` or ``"sqlite"``), e.g.
  ``DatabaseInstance(schema, backend="sqlite")``.

Where ``sqlite`` evaluation runs — in process, on a local fleet of
``shards`` worker processes, or on a persistent server at ``service_address`` — is the
*placement*, chosen by :class:`~repro.session.session.LearningSession`
from its config.  Placed backends report the storage name ``sqlite``;
the placement shows in their type
(:class:`~repro.distributed.backend.ShardedSQLiteBackend`,
:class:`~repro.distributed.client.RemoteBackend`).

The dict-based :class:`~repro.database.instance.RelationInstance` is the
``memory`` backend's relation store; it remains the default.
"""

from __future__ import annotations

import warnings
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    Protocol,
    Sequence,
    Set,
    Tuple,
    Union,
    runtime_checkable,
)

from .schema import RelationSchema

Row = Tuple[object, ...]


@runtime_checkable
class RelationBackend(Protocol):
    """Storage interface one relation's extension must provide.

    Implementations hold a set of positional tuples and answer the indexed
    lookups bottom-clause construction and join evaluation rely on.
    """

    schema: RelationSchema

    def add(self, row: Sequence[object]) -> None:
        """Insert a tuple; exact duplicates are ignored."""
        ...

    def add_all(self, rows: Iterable[Sequence[object]]) -> None:
        ...

    def remove(self, row: Sequence[object]) -> None:
        """Delete a tuple; raises KeyError if absent."""
        ...

    @property
    def rows(self) -> Set[Row]:
        ...

    def tuples_containing(self, value: object) -> Set[Row]:
        """All tuples mentioning ``value`` in any column."""
        ...

    def tuples_with(self, position: int, value: object) -> Set[Row]:
        """All tuples with ``value`` in column ``position``."""
        ...

    def tuples_matching(self, bindings: Dict[int, object]) -> Set[Row]:
        """Tuples matching all ``position -> value`` bindings."""
        ...

    def project(self, attributes: Sequence[str]) -> Set[Row]:
        ...

    def distinct_values(self, attribute: str) -> Set[object]:
        ...

    def __len__(self) -> int:
        ...

    def __iter__(self) -> Iterator[Row]:
        ...

    def __contains__(self, row: Sequence[object]) -> bool:
        ...


class Backend(Protocol):
    """Factory for relation stores, one instance per :class:`DatabaseInstance`.

    A backend may additionally support *compiled* set-at-a-time query
    evaluation by setting ``supports_compiled_queries = True`` and providing
    the hooks :class:`~repro.database.query.QueryEvaluator` probes for
    (``satisfiable``, ``count_bindings``, ``head_tuples``,
    ``covered_head_tuples``, ``iter_bindings``).  Backends without the flag
    are evaluated through the generic tuple-at-a-time backtracking join.

    A backend may also support *saturation queries* — the frontier expansion
    step of bottom-clause construction — by setting
    ``supports_saturation_queries = True`` and providing
    ``neighbors_of_batch(values)``, which answers "which tuples (of any
    relation) mention any of these values" for one whole frontier in a
    single set-at-a-time call (the stored-procedure analogue of Section
    7.5.2).  Backends without the capability are served by the generic
    per-relation loop in
    :meth:`~repro.database.instance.DatabaseInstance.neighbors_of_batch`.
    """

    name: str
    supports_compiled_queries: bool
    supports_saturation_queries: bool
    #: True when the backend tolerates reads from multiple threads at once
    #: (each read on its own connection, or no connections at all).  The
    #: learners consult this before overlapping phases — e.g. prefetching
    #: saturation materialization on a worker thread while the main thread
    #: keeps querying.  The in-process single-connection SQLite backend is
    #: NOT concurrent-read-safe; the memory and sharded backends are.
    supports_concurrent_reads: bool

    def make_relation(self, schema: RelationSchema) -> RelationBackend:
        """Create the (empty) store for one relation of the instance."""
        ...

    def neighbors_of_batch(
        self, values: Sequence[object]
    ) -> Dict[object, list]:
        """``value -> [(relation name, tuple)]`` for every requested value.

        Only meaningful when ``supports_saturation_queries``; the lists
        contain every tuple mentioning the value in any column, in no
        particular order (callers that need determinism sort).
        """
        ...


class MemoryBackend:
    """The default backend: hash-indexed Python sets (one per relation).

    On top of the per-relation indexes the backend maintains one
    *cross-relation* ``value -> {(relation, tuple)}`` index, kept current by
    the relation stores' mutation callbacks, so a saturation frontier lookup
    is a single dict hit per value instead of a scan over all relations.
    """

    name = "memory"
    supports_compiled_queries = False
    supports_saturation_queries = True
    supports_concurrent_reads = True

    def __init__(self) -> None:
        self._relations: Dict[str, "RelationBackend"] = {}
        self._by_value: Dict[object, Set[Tuple[str, Row]]] = {}
        self._bound = False
        # Bumped on every effective insert/delete; cheap contents-version
        # token (mirrors the SQLite family's data version) so caches keyed
        # on an instance can notice mutations.
        self.data_version = 0

    def bind_instance_schema(self, schema: Any) -> None:
        """Hook called by :class:`~repro.database.instance.DatabaseInstance`
        once its relations exist.  The backend is stateful now (the
        cross-relation index), so a second instance must not share it —
        even with disjoint relation names, its tuples would leak into the
        first instance's value index."""
        del schema
        if self._bound:
            raise ValueError(
                "a MemoryBackend object serves exactly one DatabaseInstance"
            )
        self._bound = True

    def make_relation(self, schema: RelationSchema) -> RelationBackend:
        from .instance import RelationInstance

        if self._bound or schema.name in self._relations:
            raise ValueError(
                f"cannot add relation {schema.name!r}: a MemoryBackend "
                "object serves exactly one DatabaseInstance"
            )
        name = schema.name

        def on_change(row: Row, added: bool) -> None:
            self.data_version += 1
            for value in set(row):
                entries = self._by_value.setdefault(value, set())
                if added:
                    entries.add((name, row))
                else:
                    entries.discard((name, row))
                    if not entries:
                        del self._by_value[value]

        relation = RelationInstance(schema, on_change=on_change)
        self._relations[name] = relation
        return relation

    def neighbors_of(self, value: object) -> list:
        """All ``(relation, tuple)`` pairs mentioning ``value`` — one dict hit."""
        return list(self._by_value.get(value, ()))

    def neighbors_of_batch(
        self, values: Sequence[object]
    ) -> Dict[object, list]:
        """Frontier expansion from the cross-relation index (no relation scan)."""
        return {value: list(self._by_value.get(value, ())) for value in values}


BackendFactory = Callable[[], Backend]

_REGISTRY: Dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register a backend factory under a selector name."""
    _REGISTRY[str(name)] = factory


def backend_names() -> Tuple[str, ...]:
    """Names accepted by :func:`create_backend` (and ``--backend`` knobs)."""
    return tuple(sorted(_REGISTRY))


def create_backend(backend: Union[str, Backend, None]) -> Backend:
    """Resolve a backend selector into a fresh backend object.

    Accepts ``None`` (the default memory backend), a registered name, or an
    already-constructed backend object (returned as-is — note a backend
    object serves exactly one :class:`DatabaseInstance`; instances never
    share relation stores).
    """
    if backend is None:
        backend = "memory"
    if not isinstance(backend, str):
        return backend
    try:
        factory = _REGISTRY[backend]
    except KeyError as exc:
        raise ValueError(
            f"unknown backend {backend!r}; available: {list(backend_names())}"
        ) from exc
    return factory()


# Best-effort knobs stay best-effort across the whole stack, but silently
# ignoring an explicit setting hides typos and wasted configuration — every
# layer (this registry, the session config, the distributed client) says so
# once per distinct situation through this shared registry.
_WARNED: Set[str] = set()


def warn_once(message: str, stacklevel: int = 3) -> None:
    """Emit ``message`` as a RuntimeWarning once per process."""
    if message in _WARNED:
        return
    _WARNED.add(message)
    warnings.warn(message, RuntimeWarning, stacklevel=stacklevel)


def _sqlite_factory() -> Backend:
    from .sqlite_backend import SQLiteBackend

    return SQLiteBackend()


register_backend("memory", MemoryBackend)
register_backend("sqlite", _sqlite_factory)
