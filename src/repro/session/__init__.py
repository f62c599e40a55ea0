"""Unified session API: one validated config, one owner for every resource.

* :class:`SessionConfig` — storage (``memory``/``sqlite``), placement
  (in process, ``shards=N`` local workers, or a ``service_address=``
  server) and saturation-store sharing in one validated
  dataclass;
* :class:`LearningSession` — owns backend + evaluation-service +
  saturation-store lifecycle, hands out learners
  (``session.learner("castor", schema, params)``) and drives the experiment
  harness (``session.run(...)``);
* :func:`connect` — bind a session to a persistent evaluation server
  (``python -m repro.distributed.service --serve HOST:PORT``) whose warm
  worker fleets outlive individual learning runs.

See ``docs/session.md`` for the tour.
"""

from .config import SessionConfig
from .session import LearningSession, SessionLearner, connect

__all__ = [
    "LearningSession",
    "SessionConfig",
    "SessionLearner",
    "connect",
]
