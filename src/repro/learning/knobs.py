"""Evaluation settings the bottom-up learner family exposes to a session.

A :class:`~repro.session.session.LearningSession` owns evaluation
configuration; ``session.apply`` (through
:meth:`~repro.session.config.SessionConfig.apply`) sets these attributes
on the learners that declare them.  None of them changes a learned
definition: they only move work.
"""

from __future__ import annotations

from typing import Any, Optional


class EvaluationKnobs:
    """Mixin: the shared saturation store and compiled-subsumption override.

    Learners whose engines have no saturations (FOIL's query coverage) do
    not inherit it — phantom store/compiled attributes would make
    ``SessionConfig.apply`` silently accept settings they cannot honor.
    """

    #: Optional shared SaturationStore for the compiled coverage path
    #: (sessions hand one out so repeated runs start warm).
    saturation_store: Any = None
    #: True/False force the SQL/Python decision procedure; None keeps the
    #: engine's backend-based default.
    compiled_coverage: Optional[bool] = None


class ThreadsAsParallelism:
    """Mixin for learners whose only fan-out is the engine thread pool."""

    @property
    def parallelism(self) -> int:
        return self.threads

    @parallelism.setter
    def parallelism(self, value: int) -> None:
        self.threads = max(1, int(value))
