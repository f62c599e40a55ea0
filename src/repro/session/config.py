"""`SessionConfig`: the one validated object holding evaluation settings.

Backend, pool, shards, coverage strategy and the shared saturation store
are set here and nowhere else — learners take only their algorithm inputs,
and the harness takes a session.  None of these settings changes a learned
definition; they only move work.

* construction **validates coherence** (e.g. ``shards=4`` on the ``memory``
  backend is a configuration error with an actionable message, not a
  warning buried in a log);
* :meth:`SessionConfig.apply` is the single normalization path that pushes
  the settings onto a learner and/or an instance, warning once for a
  setting the target cannot honor;
* the config is immutable; :meth:`merged` derives variations.

A :class:`~repro.session.session.LearningSession` built from a config owns
the backend, engine and store lifecycle and hands out configured
learners::

    with LearningSession(SessionConfig(backend="sqlite", parallelism=4)) as session:
        learner = session.learner("castor", schema)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from ..database.backend import backend_names, warn_once

#: Coverage strategies a config may pin.  ``auto`` keeps every learner's own
#: default (subsumption for the bottom-up family, query coverage for FOIL);
#: the ``subsumption-*`` values force the compiled (SQL saturation-store) or
#: pure-Python decision procedure on learners that expose the knob.
COVERAGE_STRATEGIES = (
    "auto",
    "subsumption",
    "subsumption-compiled",
    "subsumption-python",
    "query",
)

#: Backends whose evaluation rides a sharded worker fleet (the only ones an
#: explicit ``shards=`` makes sense on).
SHARDED_BACKENDS = ("sqlite-sharded",)

_COMPILED_BY_STRATEGY = {
    "subsumption-compiled": True,
    "subsumption-python": False,
}

@dataclass(frozen=True)
class SessionConfig:
    """Validated evaluation configuration for a learning session.

    Parameters
    ----------
    backend:
        Storage/evaluation backend instances are materialized on
        (``memory``/``sqlite``/``sqlite-sharded``/``sqlite-remote``);
        ``None`` leaves instances as given.
    parallelism:
        Clause-scoring fan-out on learners that expose the knob.  Above 1,
        the ``sqlite`` backend also gets a snapshot read pool of this many
        connections.  Results are identical for every value; only
        wall-clock time changes.
    shards:
        Worker-process count on sharded backends.  Like ``parallelism``,
        never changes results.
    coverage:
        One of :data:`COVERAGE_STRATEGIES`; ``auto`` (default) keeps each
        learner's own engine choice.
    reuse_saturation_store:
        Share one warm :class:`~repro.database.sqlite_backend.SaturationStore`
        across the folds/runs a session drives over one instance.
    presaturate:
        Materialize every example's saturation into the shared store before
        learning starts (one batched call, fanned across worker fleets on
        sharded backends).
    sharding_strategy / transport:
        Service topology knobs of the ``sqlite-sharded`` backend
        (``hash``/``round-robin``/``size-balanced``; ``pipe``/``socket``).
    service_address:
        ``HOST:PORT`` of a persistent evaluation server
        (``python -m repro.distributed.service --serve``).  Sessions built
        from such a config evaluate on the server's warm worker fleet
        instead of spawning their own.
    instance_handle:
        Optional namespace instances register under on the persistent
        server; the full handle is content-qualified
        (``name:contenthash``, or ``auto-<contenthash>`` without a name),
        so repeat runs over the same data land on the same warm
        server-side instance and distinct datasets never collide.
    auth_token:
        Shared secret presented in the wire handshake when the persistent
        server was started with ``--auth-token``; without (or with a
        wrong) token every request is rejected with a typed error.
    request_timeout:
        Per-request deadline (seconds) on the server connection.  A hung
        server surfaces as :class:`~repro.distributed.TransportError`
        instead of blocking ``learn()`` forever; ``None`` (default) waits
        indefinitely.
    trace:
        Enable end-to-end span tracing for this session (see
        :mod:`repro.obs`).  Every ``session.run`` then records a span tree
        covering learner phases, RPC round-trips, and — on remote/sharded
        backends — the server's and shard workers' spans, all under one
        trace id.  Dump with :meth:`LearningSession.trace_dump`.  Off by
        default: the disabled path costs one attribute check per
        would-be span.
    """

    backend: Optional[str] = None
    parallelism: Optional[int] = None
    shards: Optional[int] = None
    coverage: str = "auto"
    reuse_saturation_store: bool = True
    presaturate: bool = False
    sharding_strategy: Optional[str] = None
    transport: Optional[str] = None
    service_address: Optional[str] = None
    instance_handle: Optional[str] = None
    auth_token: Optional[str] = None
    request_timeout: Optional[float] = None
    trace: bool = False

    def __post_init__(self) -> None:
        if self.parallelism is not None:
            object.__setattr__(self, "parallelism", int(self.parallelism))
        if self.shards is not None:
            object.__setattr__(self, "shards", int(self.shards))
        self.validate()

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Reject incoherent combinations with actionable messages."""
        if self.backend is not None and self.backend not in backend_names():
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"available: {list(backend_names())}"
            )
        if self.coverage not in COVERAGE_STRATEGIES:
            raise ValueError(
                f"unknown coverage strategy {self.coverage!r}; "
                f"available: {list(COVERAGE_STRATEGIES)}"
            )
        if self.parallelism is not None and self.parallelism < 1:
            raise ValueError(
                f"parallelism must be >= 1, got {self.parallelism}"
            )
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        self._validate_service_address()
        self._validate_backend_combos()
        if self.presaturate and not self.reuse_saturation_store:
            raise ValueError(
                "presaturate=True warms the shared saturation store, which "
                "reuse_saturation_store=False disables; enable the shared "
                "store or drop presaturate"
            )
        if self.presaturate and self.coverage == "query":
            raise ValueError(
                "coverage='query' has no saturations to warm; drop "
                "presaturate=True or use a subsumption strategy"
            )

    def _validate_service_address(self) -> None:
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ValueError(
                "request_timeout must be > 0 seconds, got "
                f"{self.request_timeout!r}"
            )
        if self.service_address is None:
            for knob, value in (
                ("auth_token", self.auth_token),
                ("request_timeout", self.request_timeout),
            ):
                if value is not None:
                    # Note: never echo the token value into the message.
                    raise ValueError(
                        f"{knob}= configures the connection to a persistent "
                        "evaluation server; set service_address='HOST:PORT' "
                        "as well"
                    )
            if self.backend == "sqlite-remote":
                raise ValueError(
                    "backend='sqlite-remote' evaluates on a persistent "
                    "server; set service_address='HOST:PORT' (start one "
                    "with `python -m repro.distributed.service --serve`)"
                )
            return
        from ..distributed.protocol import parse_address

        try:
            parse_address(self.service_address)
        except ValueError as exc:
            raise ValueError(
                "service_address must be 'HOST:PORT', got "
                f"{self.service_address!r}"
            ) from exc
        if self.backend not in (None, "sqlite-remote"):
            raise ValueError(
                "service_address= evaluates on the persistent server's "
                f"warm workers; backend={self.backend!r} would spawn a "
                "local fleet instead — drop backend= (or use "
                "'sqlite-remote')"
            )
        for knob, value in (
            ("shards", self.shards),
            ("sharding_strategy", self.sharding_strategy),
            ("transport", self.transport),
        ):
            if value is not None:
                raise ValueError(
                    f"{knob}={value!r} is fixed when the persistent server "
                    "starts (see `python -m repro.distributed.service "
                    "--serve --help`); it cannot be set per session"
                )

    def _validate_backend_combos(self) -> None:
        backend = self.backend
        if self.shards is not None and backend is not None and (
            backend not in SHARDED_BACKENDS
        ):
            raise ValueError(
                f"shards={self.shards} needs a sharded evaluation service, "
                f"but backend {backend!r} has none; use "
                "backend='sqlite-sharded' (see docs/distributed.md)"
            )
        if self.sharding_strategy is not None:
            from ..distributed.sharding import SHARDING_STRATEGIES

            if self.sharding_strategy not in SHARDING_STRATEGIES:
                raise ValueError(
                    f"unknown sharding strategy {self.sharding_strategy!r}; "
                    f"available: {list(SHARDING_STRATEGIES)}"
                )
            if backend is not None and backend not in SHARDED_BACKENDS:
                raise ValueError(
                    f"sharding_strategy={self.sharding_strategy!r} only "
                    f"applies to sharded backends, not {backend!r}; use "
                    "backend='sqlite-sharded'"
                )
        if self.transport is not None:
            from ..distributed.service import TRANSPORTS

            if self.transport not in TRANSPORTS:
                raise ValueError(
                    f"unknown transport {self.transport!r}; "
                    f"available: {list(TRANSPORTS)}"
                )
            if backend is not None and backend not in SHARDED_BACKENDS:
                raise ValueError(
                    f"transport={self.transport!r} only applies to sharded "
                    f"backends, not {backend!r}; use "
                    "backend='sqlite-sharded'"
                )

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def merged(self, **overrides: object) -> "SessionConfig":
        """A copy with the non-``None`` overrides applied (re-validated)."""
        changes = {k: v for k, v in overrides.items() if v is not None}
        if not changes:
            return self
        return replace(self, **changes)

    # ------------------------------------------------------------------ #
    # Normalization
    # ------------------------------------------------------------------ #
    def apply(
        self,
        learner: Any = None,
        instance: Any = None,
        saturation_store: Any = None,
    ) -> Any:
        """Push this config onto a learner and/or an instance.

        The single normalization path behind
        :meth:`~repro.session.session.LearningSession.apply`.  Settings land
        on learners that expose the matching attribute; an explicit setting
        a learner cannot honor warns once per distinct situation — never
        silently ignored, never an error (these knobs only move work;
        results are identical for every value).

        ``instance`` additionally receives the sharding topology
        (``shards``, ``sharding_strategy``, ``transport``).
        ``saturation_store`` is handed to learners with the knob (learners
        without saturations — FOIL's query coverage — skip it silently, as
        there is nothing a store could change).  Backend routing is not
        done here: :meth:`~repro.session.session.LearningSession.prepare`
        owns it.
        """
        if learner is not None:
            if self.parallelism is not None:
                if hasattr(learner, "parallelism"):
                    learner.parallelism = self.parallelism
                else:
                    warn_once(
                        f"learner {type(learner).__name__} has no "
                        "'parallelism' knob; ignoring "
                        f"parallelism={self.parallelism}"
                    )
            if self.coverage != "auto":
                compiled = _COMPILED_BY_STRATEGY.get(self.coverage)
                native_subsumption = hasattr(learner, "compiled_coverage")
                if compiled is not None:
                    if native_subsumption:
                        learner.compiled_coverage = compiled
                    else:
                        warn_once(
                            f"learner {type(learner).__name__} has no "
                            "compiled-subsumption knob; ignoring coverage="
                            f"{self.coverage!r}"
                        )
                else:
                    # 'subsumption'/'query' name an engine family; each
                    # learner's family is fixed, so the value is honored
                    # when it matches and warned about when it cannot be.
                    native = "subsumption" if native_subsumption else "query"
                    if self.coverage != native:
                        warn_once(
                            f"learner {type(learner).__name__} always uses "
                            f"{native} coverage; ignoring coverage="
                            f"{self.coverage!r}"
                        )
            if saturation_store is not None and hasattr(
                learner, "saturation_store"
            ):
                learner.saturation_store = saturation_store
        if instance is not None:
            self._configure_instance(instance)
        return learner

    def _configure_instance(self, instance: Any) -> None:
        """Push the full service topology — shards, strategy, transport —
        onto the instance's backend (warn-once where it has none)."""
        if (
            self.shards is None
            and self.sharding_strategy is None
            and self.transport is None
        ):
            return
        configure = getattr(instance.backend, "configure_sharding", None)
        if configure is None:
            warn_once(
                f"backend {getattr(instance.backend, 'name', '?')!r} has no "
                f"sharded evaluation service; ignoring shards={self.shards} / "
                f"sharding_strategy={self.sharding_strategy!r} / "
                f"transport={self.transport!r}"
            )
            return
        configure(
            shards=self.shards,
            strategy=self.sharding_strategy,
            transport=self.transport,
        )
