"""Evaluation settings the bottom-up learner family exposes to a session.

A :class:`~repro.session.session.LearningSession` owns evaluation
configuration; ``session.apply`` (through
:meth:`~repro.session.config.SessionConfig.apply`) sets these attributes
on the learners that declare them.  None of them changes a learned
definition: they only move work.
"""

from __future__ import annotations

from typing import Any


class EvaluationKnobs:
    """Mixin: the shared saturation store.

    Learners whose engines have no saturations (FOIL's query coverage) do
    not inherit it — a phantom store attribute would make
    ``SessionConfig.apply`` silently accept a setting they cannot honor.
    """

    #: Optional shared SaturationStore for the compiled coverage path
    #: (sessions hand one out so repeated runs start warm).
    saturation_store: Any = None

