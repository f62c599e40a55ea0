"""Tests for the experiment harness, reporting, and figure drivers (fast configs)."""


from repro.datasets import uwcse
from repro.experiments.figures import figure2_parallelization, figure3_query_complexity
from repro.experiments.harness import LearnerSpec, check_schema_independence, run_variant
from repro.experiments.reporting import (
    format_dataset_statistics,
    format_paper_table,
    format_table,
    results_as_matrix,
)
from repro.experiments.tables import castor_spec, table13_stored_procedures
from repro.logic.clauses import HornDefinition
from repro.logic.parser import parse_clause


TINY_CONFIG = uwcse.UwCseConfig(num_students=14, num_professors=5, num_courses=8)


class _FixedLearner:
    """A deterministic stand-in learner so harness tests stay fast."""

    def __init__(self, schema):
        self.schema = schema

    def learn(self, instance, examples) -> HornDefinition:
        clause = parse_clause(
            "advisedBy(x, y) :- publication(t, x), publication(t, y)."
        )
        return HornDefinition("advisedBy", [clause])


FIXED_SPEC = LearnerSpec("Fixed", lambda schema: _FixedLearner(schema))


class TestHarness:
    def test_run_variant_single_split(self):
        bundle = uwcse.load(TINY_CONFIG, seed=5)
        result = run_variant(bundle, "original", FIXED_SPEC, folds=1, seed=0)
        assert result.learner == "Fixed"
        assert result.variant == "original"
        assert 0.0 <= result.precision <= 1.0
        assert result.time_seconds >= 0.0

    def test_run_variant_cross_validated(self):
        bundle = uwcse.load(TINY_CONFIG, seed=5)
        result = run_variant(bundle, "4nf", FIXED_SPEC, folds=2, seed=0)
        assert result.folds == 2

    def test_check_schema_independence_fixed_learner_is_dependent_or_not(self):
        """The fixed publication-join rule uses only an untouched relation, so
        its results must agree across every variant (it is trivially schema
        independent here) — the check must report that."""
        bundle = uwcse.load(TINY_CONFIG, seed=5)
        report = check_schema_independence(bundle, FIXED_SPEC, variants=["original", "4nf"])
        assert report.is_schema_independent
        assert set(report.result_sizes) == {"original", "4nf"}

    def test_table13_stored_procedures_speedup_reported(self):
        results = table13_stored_procedures(seed=1, datasets=("uwcse",))
        entry = results["uwcse"]
        assert entry["with_stored_procedures_seconds"] > 0
        assert entry["without_stored_procedures_seconds"] > 0
        assert entry["speedup"] > 0

    def test_castor_spec_builds_learner(self):
        bundle = uwcse.load(TINY_CONFIG, seed=5)
        learner = castor_spec().build(bundle.schema("original"))
        assert learner.name == "Castor"


class TestFigures:
    def test_figure2_is_a_shard_curve(self):
        """Figure 2's parallel resource is worker processes: one point per
        shard count, each a Castor learn on ``sqlite`` placed on that fleet."""
        points = figure2_parallelization(dataset="uwcse", shard_counts=(1,), seed=1)
        assert [sorted(point) for point in points] == [["seconds", "shards"]]
        assert points[0]["shards"] == 1 and points[0]["seconds"] > 0

    def test_figure3_points_have_expected_shape(self):
        points = figure3_query_complexity(
            num_variables_range=(4,), definitions_per_setting=2, seed=3
        )
        variants = {point["variant"] for point in points}
        assert variants == {"original", "4nf", "denormalized1", "denormalized2"}
        for point in points:
            assert point["mean_equivalence_queries"] >= 1
            assert point["mean_membership_queries"] >= 0

    def test_figure3_mqs_grow_with_decomposition(self):
        points = figure3_query_complexity(
            num_variables_range=(5,), definitions_per_setting=3, seed=7
        )
        by_variant = {p["variant"]: p["mean_membership_queries"] for p in points}
        assert by_variant["original"] >= by_variant["denormalized2"]


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xyz", 3]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "xyz" in lines[-1]

    def test_format_paper_table_and_matrix(self):
        bundle = uwcse.load(TINY_CONFIG, seed=5)
        results = [
            run_variant(bundle, variant, FIXED_SPEC, folds=1, seed=0)
            for variant in ("original", "4nf")
        ]
        text = format_paper_table(results, ["original", "4nf"], "Table X")
        assert "Fixed" in text and "Precision" in text
        matrix = results_as_matrix(results, "recall")
        assert set(matrix["Fixed"]) == {"original", "4nf"}

    def test_format_dataset_statistics(self):
        bundle = uwcse.load(TINY_CONFIG, seed=5)
        text = format_dataset_statistics(bundle.statistics(), "Table 2")
        assert "original" in text and "#T" in text
