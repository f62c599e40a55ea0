"""Drivers that regenerate the paper's figures (Figures 2 and 3).

The figures are reported as data series (lists of points) rather than plots —
the benchmark harness prints the series, and EXPERIMENTS.md records them next
to the paper's curves.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Optional, Sequence

from ..castor.castor import CastorParameters
from ..castor.bottom_clause import CastorBottomClauseConfig
from ..datasets import hiv, imdb, uwcse
from ..querybased.a2 import A2Learner, A2Parameters
from ..querybased.oracle import HornOracle
from ..querybased.random_definitions import RandomDefinitionConfig, RandomDefinitionGenerator
from ..session import LearningSession, SessionConfig
from ..transform.transformation import SchemaTransformation


# --------------------------------------------------------------------- #
# Figure 2: impact of parallel coverage testing on Castor's running time
# --------------------------------------------------------------------- #
def figure2_parallelization(
    dataset: str = "hiv",
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    seed: int = 0,
    variant: Optional[str] = None,
) -> List[Dict[str, float]]:
    """Castor end-to-end learning time as a function of evaluation shards.

    Each point learns through a fresh :class:`~repro.session.LearningSession`
    that places ``sqlite`` on a fleet of ``k`` worker processes and returns
    ``{"shards": k, "seconds": t}``.  The paper's Figure 2 shows diminishing
    returns beyond 16-32 threads on the HIV datasets and no benefit on IMDb
    (few coverage tests needed).  Learned definitions are identical at
    every shard count; only wall-clock time moves.
    """
    if dataset == "hiv":
        bundle = hiv.load_small(seed)
        variant = variant or "initial"
    elif dataset == "imdb":
        bundle = imdb.load(seed=seed)
        variant = variant or "jmdb"
    elif dataset == "uwcse":
        bundle = uwcse.load(seed=seed)
        variant = variant or "original"
    else:
        raise ValueError(f"unknown dataset {dataset!r}")

    schema = bundle.schema(variant)
    instance = bundle.instance(variant)
    series: List[Dict[str, float]] = []
    for shards in shard_counts:
        config = SessionConfig(shards=shards, reuse_saturation_store=False)
        with LearningSession(config) as session:
            learner = session.learner(
                "castor",
                schema,
                CastorParameters(
                    sample_size=3,
                    beam_width=2,
                    max_armg_rounds=5,
                    bottom_clause=CastorBottomClauseConfig(
                        max_depth=3, max_distinct_variables=15
                    ),
                ),
            )
            start = time.perf_counter()
            learner.learn(instance, bundle.examples)
            elapsed = time.perf_counter() - start
        series.append({"shards": float(shards), "seconds": elapsed})
    return series


# --------------------------------------------------------------------- #
# Figure 3: query complexity of the A2 algorithm across schema variants
# --------------------------------------------------------------------- #
def figure3_query_complexity(
    num_variables_range: Sequence[int] = (4, 5, 6, 7, 8),
    num_clauses: int = 1,
    definitions_per_setting: int = 10,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Average #EQs and #MQs of A2 per UW-CSE schema variant and variable count.

    Random Horn definitions are generated over the most composed schema
    (Denormalized-2), mapped to the other variants by the inverse
    decomposition (δτ), and learned from scratch with the query-based A2
    learner under each variant.  One data point is produced per (variant,
    num_variables) pair, averaging over ``definitions_per_setting`` random
    definitions — mirroring the Section 9.4 protocol (50 definitions per
    setting in the paper).
    """
    variants = uwcse.schema_variants()
    by_name = {variant.name: variant for variant in variants}
    most_composed = by_name["denormalized2"]
    ordered_names = ["original", "4nf", "denormalized1", "denormalized2"]

    points: List[Dict[str, float]] = []
    for num_variables in num_variables_range:
        generator = RandomDefinitionGenerator(
            most_composed.schema,
            RandomDefinitionConfig(
                num_clauses=num_clauses,
                num_variables=num_variables,
                target_name="target",
            ),
            seed=seed + num_variables,
        )
        definitions = generator.generate_many(definitions_per_setting)
        per_variant_eqs: Dict[str, List[int]] = {name: [] for name in ordered_names}
        per_variant_mqs: Dict[str, List[int]] = {name: [] for name in ordered_names}

        for definition in definitions:
            for name in ordered_names:
                variant = by_name[name]
                target_definition = _map_definition_to_variant(
                    definition, most_composed.transformation, variant.transformation
                )
                oracle = HornOracle(target_definition)
                learner = A2Learner(A2Parameters(max_equivalence_queries=50))
                learner.learn(oracle, target_definition.target)
                per_variant_eqs[name].append(oracle.equivalence_queries)
                per_variant_mqs[name].append(oracle.membership_queries)

        for name in ordered_names:
            points.append(
                {
                    "variant": name,
                    "num_variables": float(num_variables),
                    "mean_equivalence_queries": statistics.fmean(per_variant_eqs[name]),
                    "mean_membership_queries": statistics.fmean(per_variant_mqs[name]),
                }
            )
    return points


def _map_definition_to_variant(
    definition, from_transformation: SchemaTransformation, to_transformation: SchemaTransformation
):
    """Rewrite a definition over one variant into an equivalent one over another.

    Both variants are expressed as transformations from the same base schema,
    so the definition is first mapped back to the base schema (via the
    inverse of ``from_transformation``) and then forward to the target
    variant.
    """
    to_base = from_transformation.invert()
    over_base = to_base.map_definition(definition)
    return to_transformation.map_definition(over_base)
