"""`SessionConfig`: the one validated object holding evaluation settings.

Storage, placement and the shared saturation store are set here and
nowhere else — learners take only their algorithm inputs, and the harness
takes a session.  None of these settings changes a learned definition;
they only move work.

* ``backend`` names the **storage** (``memory`` or ``sqlite``); the
  **placement** of ``sqlite`` evaluation follows from the settings the
  caller passes: ``shards=N`` puts it on a local fleet of N worker
  processes, ``service_address=`` on a persistent server, neither keeps it
  in process;
* construction **validates coherence** (e.g. ``shards=4`` on the
  ``memory`` backend is a configuration error with an actionable message,
  not a warning buried in a log);
* :meth:`SessionConfig.apply` is the single normalization path that pushes
  the settings onto a learner;
* the config is immutable; :meth:`merged` derives variations.

A :class:`~repro.session.session.LearningSession` built from a config owns
the backend, engine and store lifecycle and hands out configured
learners::

    with LearningSession(SessionConfig(backend="sqlite", shards=2)) as session:
        learner = session.learner("castor", schema)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from ..database.backend import backend_names


@dataclass(frozen=True)
class SessionConfig:
    """Validated evaluation configuration for a learning session.

    Parameters
    ----------
    backend:
        Storage instances are materialized on (``memory``/``sqlite``);
        ``None`` leaves instances as given — or means ``sqlite`` when
        ``shards`` or ``service_address`` picks a placement.
    shards:
        Place ``sqlite`` evaluation on a local fleet of this many worker
        processes.  Never changes results; only wall-clock time changes.
    reuse_saturation_store:
        Share one warm :class:`~repro.database.sqlite_backend.SaturationStore`
        across the folds/runs a session drives over one instance.
    service_address:
        ``HOST:PORT`` of a persistent evaluation server
        (``python -m repro.distributed.service --serve``): place ``sqlite``
        evaluation on the server's warm worker fleet instead of spawning a
        local one.
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
    shards: Optional[int] = None
    reuse_saturation_store: bool = True
    service_address: Optional[str] = None
    instance_handle: Optional[str] = None
    auth_token: Optional[str] = None
    request_timeout: Optional[float] = None
    trace: bool = False

    def __post_init__(self) -> None:
        if self.shards is not None:
            object.__setattr__(self, "shards", int(self.shards))
        placed = self.shards is not None or self.service_address is not None
        if self.backend is None and placed:
            object.__setattr__(self, "backend", "sqlite")
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
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        self._validate_service_address()
        if self.shards is not None and self.service_address is not None:
            raise ValueError(
                f"shards={self.shards} places evaluation on a local fleet, "
                "but service_address= places it on the persistent server, "
                "whose shard count is fixed when it starts (see `python -m "
                "repro.distributed.service --serve --help`); drop one"
            )
        if self.backend == "memory" and (
            self.shards is not None or self.service_address is not None
        ):
            raise ValueError(
                "shards= and service_address= place sqlite evaluation on "
                "worker processes; the 'memory' backend always evaluates in "
                "process — use backend='sqlite' (see docs/distributed.md)"
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
            return
        from ..distributed.protocol import parse_address

        try:
            parse_address(self.service_address)
        except ValueError as exc:
            raise ValueError(
                "service_address must be 'HOST:PORT', got "
                f"{self.service_address!r}"
            ) from exc

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
    def apply(self, learner: Any, saturation_store: Any = None) -> Any:
        """Push this config onto a learner.

        The single normalization path behind
        :meth:`~repro.session.session.LearningSession.apply`.
        ``saturation_store`` is handed to learners with the knob (learners
        without saturations — FOIL's query coverage — skip it silently, as
        there is nothing a store could change).  Backend routing is not
        done here: :meth:`~repro.session.session.LearningSession.prepare`
        owns it.
        """
        if saturation_store is not None and hasattr(learner, "saturation_store"):
            learner.saturation_store = saturation_store
        return learner
