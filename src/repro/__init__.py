"""Schema Independent Relational Learning — a reproduction of Picado et al. (2017).

The package provides:

* :mod:`repro.logic` — Datalog clauses, θ-subsumption, lgg, minimization;
* :mod:`repro.database` — an in-memory relational engine with FD/IND constraints;
* :mod:`repro.transform` — composition/decomposition transformations and the
  definition mappings they induce;
* :mod:`repro.learning` — examples, bottom clauses, coverage, evaluation;
* :mod:`repro.foil`, :mod:`repro.progol`, :mod:`repro.golem`,
  :mod:`repro.progolem` — baseline ILP learners;
* :mod:`repro.castor` — the schema-independent Castor learner (the paper's
  contribution);
* :mod:`repro.querybased` — query-based (MQ/EQ) learning and the A2 algorithm;
* :mod:`repro.datasets` — synthetic UW-CSE, HIV, and IMDb datasets with the
  paper's schema variants;
* :mod:`repro.distributed` — the sharded multi-process evaluation service
  that ``sqlite`` storage is placed on with ``SessionConfig(shards=N)``,
  plus the persistent evaluation server
  (``python -m repro.distributed.service --serve``); see
  ``docs/distributed.md``;
* :mod:`repro.session` — the unified front door: :class:`SessionConfig`
  picks storage (``memory``/``sqlite``) and placement (in process,
  ``shards=N``, or a ``service_address=`` server), and
  :class:`LearningSession` owns backend/service/store lifecycle (see
  ``docs/session.md``);
* :mod:`repro.experiments` — drivers regenerating every table and figure of
  the paper's evaluation.

Quickstart::

    from repro import LearningSession, SessionConfig
    from repro.datasets import uwcse

    bundle = uwcse.load(seed=0)
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        learner = session.learner("castor", bundle.schema("original"))
        definition = learner.learn(bundle.instance("original"), bundle.examples)
    print(definition)
"""

from .castor import CastorLearner, CastorParameters
from .database import (
    DatabaseInstance,
    Delta,
    FunctionalDependency,
    InclusionDependency,
    RelationSchema,
    Schema,
)
from .foil import FoilLearner, FoilParameters
from .golem import GolemLearner, GolemParameters
from .learning import Example, ExampleSet, cross_validate, evaluate_definition
from .logic import Atom, Constant, HornClause, HornDefinition, Variable, parse_clause
from .progol import AlephFoilLearner, ProgolLearner, ProgolParameters
from .progolem import ProGolemLearner, ProGolemParameters
from .querybased import A2Learner, HornOracle
from .session import LearningSession, SessionConfig, connect
from .transform import ComposeOperation, DecomposeOperation, SchemaTransformation

__version__ = "1.0.0"

__all__ = [
    "A2Learner",
    "AlephFoilLearner",
    "Atom",
    "CastorLearner",
    "CastorParameters",
    "ComposeOperation",
    "Constant",
    "DatabaseInstance",
    "DecomposeOperation",
    "Delta",
    "Example",
    "ExampleSet",
    "FoilLearner",
    "FoilParameters",
    "FunctionalDependency",
    "GolemLearner",
    "GolemParameters",
    "HornClause",
    "HornDefinition",
    "HornOracle",
    "InclusionDependency",
    "LearningSession",
    "ProGolemLearner",
    "ProGolemParameters",
    "ProgolLearner",
    "ProgolParameters",
    "RelationSchema",
    "Schema",
    "SchemaTransformation",
    "SessionConfig",
    "Variable",
    "connect",
    "cross_validate",
    "evaluate_definition",
    "parse_clause",
    "__version__",
]
