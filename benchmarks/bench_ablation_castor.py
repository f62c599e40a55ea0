"""Ablation: Castor's design choices (IND integration, coverage caching).

Compares Castor against the same search with the IND machinery disabled
(which degenerates to plain ProGolem) on the UW-CSE schema variants, and
reports the effect of coverage-test caching on the number of subsumption
calls — the design choices Section 7.5 calls out.
"""

from repro.castor.castor import CastorLearner, CastorParameters
from repro.castor.bottom_clause import CastorBottomClauseConfig
from repro.experiments.harness import run_schema_sweep
from repro.experiments.reporting import format_paper_table
from repro.experiments.tables import castor_spec, progolem_spec

from .conftest import run_once

VARIANTS = ["original", "denormalized2"]


def test_ablation_ind_integration(benchmark, uwcse_bundle):
    """Castor (IND-aware) vs ProGolem (same search, no INDs) across variants."""

    def sweep():
        return run_schema_sweep(
            uwcse_bundle, [castor_spec(), progolem_spec()], variants=VARIANTS, folds=1, seed=0
        )

    results = run_once(benchmark, sweep)
    print("\n" + format_paper_table(results, VARIANTS, "Ablation: IND integration"))


def test_ablation_coverage_cache(benchmark, uwcse_bundle):
    """Coverage-test counts with the cache enabled (Section 7.5.4)."""

    def run_learner():
        schema = uwcse_bundle.schema("original")
        instance = uwcse_bundle.instance("original")
        learner = CastorLearner(
            schema,
            CastorParameters(
                sample_size=3,
                beam_width=2,
                bottom_clause=CastorBottomClauseConfig(max_depth=3, max_distinct_variables=15),
            ),
        )
        coverage = learner.build_coverage_engine(instance)
        clause_learner = learner.make_clause_learner(instance, coverage)
        clause_learner.learn_clause(
            instance, uwcse_bundle.examples.positives, uwcse_bundle.examples.negatives
        )
        return coverage.coverage_tests_performed, coverage.cache_hits

    performed, hits = run_once(benchmark, run_learner)
    print(f"\nAblation (coverage cache): {performed} subsumption tests, {hits} cache hits")
    assert performed > 0
