"""Phase overlap: prefetch saturation materialization on a worker thread.

The Castor/ProGolem ``LearnClause`` used to run strictly saturate → seed →
score: the whole generation's saturations (and, on compiled engines, their
:class:`~repro.database.sqlite_backend.SaturationStore` rows) were built
before any search work started, and whatever the batch prepare left undone
stalled the first scoring call.  :class:`SaturationPrefetcher` removes that
barrier — :meth:`~repro.learning.coverage.SubsumptionCoverageEngine.materialize`
runs on a background thread (reusing the engine's
:class:`~repro.learning.bottom_clause.BatchSaturationEngine`, i.e. the
worker fleet on sharded backends) while the caller builds the seed clause,
and the learner joins under a ``learn.prefetch`` span before the beam loop
touches coverage.

Materialization is idempotent and deterministic, so overlapping it changes
wall-clock time only, never results.  Callers must gate on the backend's
``supports_concurrent_reads`` capability: the prefetch thread reads the
instance concurrently with the caller, which the in-process
single-connection ``sqlite`` backend does not tolerate (memory and sharded
backends do).
"""

from __future__ import annotations

import contextvars
import threading
from typing import Optional, Sequence

from .examples import Example


def backend_supports_prefetch(instance) -> bool:
    """True when ``instance``'s backend tolerates concurrent reads."""
    return bool(
        getattr(getattr(instance, "backend", None), "supports_concurrent_reads", False)
    )


class SaturationPrefetcher:
    """Run ``coverage.materialize(examples)`` on a background thread.

    ``start()`` kicks the materialization off; ``wait()`` joins it and — if
    the background run failed for any reason — falls back to materializing
    synchronously on the calling thread (the method is idempotent, so work
    the thread completed before failing is not repeated).  The prefetcher is
    single-use: one ``start()``, one ``wait()``.
    """

    def __init__(self, coverage, examples: Sequence[Example]):
        self.coverage = coverage
        self.examples = list(examples)
        self.error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "SaturationPrefetcher":
        # Run inside a copy of the caller's context so tracing spans (and any
        # other contextvar state) emitted by the background materialization
        # stay nested under the active learn span instead of starting a
        # fresh trace — threads do not inherit contextvars on their own.
        context = contextvars.copy_context()
        thread = threading.Thread(
            target=lambda: context.run(self._run),
            name="saturation-prefetch",
            daemon=True,
        )
        self._thread = thread
        thread.start()
        return self

    def _run(self) -> None:
        try:
            self.coverage.materialize(self.examples)
        except BaseException as exc:  # noqa: BLE001 - reported via wait()
            self.error = exc

    def wait(self) -> None:
        """Block until materialization is complete (retrying inline on failure)."""
        thread = self._thread
        if thread is not None:
            thread.join()
            self._thread = None
        if self.error is not None:
            # The engine's materialize is idempotent; a retry on the caller's
            # thread either completes the remainder or raises where the
            # caller can see it.
            self.error = None
            self.coverage.materialize(self.examples)
