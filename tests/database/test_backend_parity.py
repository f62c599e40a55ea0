"""Cross-backend parity: all backends must be observationally identical.

These tests materialize the same data on the memory backend and on sqlite,
and assert that query evaluation, binding counts, and query-based coverage
(sequential and batched) return identical results
— the invariant ``bench_backend_parity.py`` times at larger scale.
"""

import threading

import pytest

from repro.castor.bottom_clause import CastorBottomClauseBuilder, CastorBottomClauseConfig
from repro.database import backend_names, create_backend
from repro.database.instance import DatabaseInstance
from repro.database.query import QueryEvaluator
from repro.learning.coverage import QueryCoverageEngine
from repro.logic.parser import parse_clause
from tests.backends import BACKENDS



def _assert_all_equal(per_backend, context=""):
    """All backends must produce the reference (memory) result."""
    reference = per_backend["memory"]
    for backend, result in per_backend.items():
        assert result == reference, f"{backend} disagrees with memory {context}"


def _covered_sets(bundle, variant, clauses):
    """Per-backend, per-clause frozensets of covered example values."""
    results = {}
    examples = bundle.examples.all_examples()
    for backend in BACKENDS:
        instance = bundle.instance(variant).with_backend(backend)
        engine = QueryCoverageEngine(instance)
        results[backend] = [
            frozenset(e.values for e in engine.covered_examples(clause, examples))
            for clause in clauses
        ]
    return results


def _bottom_clauses(instance, positives, count=4):
    builder = CastorBottomClauseBuilder(
        instance,
        config=CastorBottomClauseConfig(
            max_depth=2, max_distinct_variables=10, max_total_literals=20
        ),
    )
    clauses = [builder.build(e) for e in positives[:count]]
    return [c for c in clauses if c.body]


class TestCoverageParity:
    def test_uwcse_covered_examples_identical(self, uwcse_bundle):
        variant = uwcse_bundle.variant_names[0]
        instance = uwcse_bundle.instance(variant)
        clauses = _bottom_clauses(instance, uwcse_bundle.examples.positives)
        assert clauses, "workload produced no candidate clauses"
        results = _covered_sets(uwcse_bundle, variant, clauses)
        _assert_all_equal(results, "on uwcse")

    def test_hiv_covered_examples_identical(self, hiv_bundle):
        variant = hiv_bundle.variant_names[0]
        instance = hiv_bundle.instance(variant)
        clauses = _bottom_clauses(instance, hiv_bundle.examples.positives)
        assert clauses, "workload produced no candidate clauses"
        results = _covered_sets(hiv_bundle, variant, clauses)
        _assert_all_equal(results, "on hiv")

    def test_uwcse_all_variants_agree_across_backends(self, uwcse_bundle):
        clause_by_variant = {
            "original": "advisedBy(x, y) :- publication(t, x), publication(t, y), professor(y).",
            "4nf": "advisedBy(x, y) :- publication(t, x), publication(t, y), professor(y, p).",
        }
        examples = uwcse_bundle.examples.all_examples()
        for variant, text in clause_by_variant.items():
            clause = parse_clause(text)
            per_backend = {}
            for backend in BACKENDS:
                instance = uwcse_bundle.instance(variant).with_backend(backend)
                engine = QueryCoverageEngine(instance)
                per_backend[backend] = frozenset(
                    e.values for e in engine.covered_examples(clause, examples)
                )
            _assert_all_equal(per_backend, f"on variant {variant}")


class TestEvaluatorParity:
    def test_evaluate_clause_and_counts(self, uwcse_bundle):
        variant = uwcse_bundle.variant_names[0]
        memory_instance = uwcse_bundle.instance(variant).with_backend("memory")
        clause = parse_clause(
            "advisedBy(x, y) :- publication(t, x), publication(t, y), professor(y)."
        )
        memory_eval = QueryEvaluator(memory_instance)
        for backend in BACKENDS[1:]:
            other_eval = QueryEvaluator(memory_instance.with_backend(backend))
            assert memory_eval.evaluate_clause(clause) == other_eval.evaluate_clause(
                clause
            ), backend
            assert memory_eval.count_bindings(clause.body) == other_eval.count_bindings(
                clause.body
            ), backend
            assert memory_eval.count_bindings(
                clause.body, limit=3
            ) == other_eval.count_bindings(clause.body, limit=3), backend

    def test_bindings_for_body_same_multiset(self, simple_schema):
        clause = parse_clause("q(x) :- r1(x, b), r2(x, c).")
        bindings = {}
        for backend in BACKENDS:
            instance = DatabaseInstance(simple_schema, backend=backend)
            instance.add_tuples("r1", [("a1", "b1"), ("a2", "b2")])
            instance.add_tuples("r2", [("a1", "c1"), ("a1", "c2"), ("a2", "c3")])
            evaluator = QueryEvaluator(instance)
            bindings[backend] = sorted(
                tuple(sorted((v.name, value) for v, value in binding.items()))
                for binding in evaluator.bindings_for_body(clause.body)
            )
        _assert_all_equal(bindings, "for bindings_for_body")

    def test_unknown_relation_and_arity_mismatch_are_empty(self):
        from repro.database.schema import RelationSchema, Schema

        schema = Schema([RelationSchema("r", ["a", "b"])], name="tiny")
        for backend in BACKENDS:
            instance = DatabaseInstance(schema, backend=backend)
            instance.add_tuple("r", ("x", "y"))
            evaluator = QueryEvaluator(instance)
            missing = parse_clause("q(x) :- nope(x).")
            assert not evaluator.body_is_satisfiable(missing.body)
            wrong_arity = parse_clause("q(x) :- r(x).")
            assert not evaluator.body_is_satisfiable(wrong_arity.body)


class TestBackendPlumbing:
    def test_registry_names_and_errors(self):
        assert backend_names() == ("memory", "sqlite")
        for name in ("voltdb", "sqlite-sharded"):
            with pytest.raises(ValueError, match="available: \\['memory', 'sqlite'\\]"):
                create_backend(name)

    def test_with_backend_roundtrip(self, simple_instance):
        for backend in BACKENDS:
            converted = simple_instance.with_backend(backend)
            assert converted.backend_name == backend
            assert converted.same_contents(simple_instance)
            assert converted == simple_instance


class TestSQLiteBatch:
    """Batched set-at-a-time coverage on the sqlite backend."""

    def _instance(self, simple_schema):
        instance = DatabaseInstance(simple_schema, backend="sqlite")
        instance.add_tuples("r1", [("a1", "b1"), ("a2", "b2"), ("a3", "b3")])
        instance.add_tuples("r2", [("a1", "c1"), ("a2", "c2"), ("a3", "c3")])
        return instance

    def test_batch_matches_single_calls(self, simple_schema):
        instance = self._instance(simple_schema)
        clauses = [
            parse_clause("q(x) :- r1(x, b), r2(x, c)."),
            parse_clause("q(x) :- r1(x, b)."),
            parse_clause("q(x) :- r2(x, c), r1(x, b)."),
        ]
        candidates = [("a1",), ("a2",), ("a3",), ("missing",)]
        backend = instance.backend
        singles = [backend.covered_head_tuples(c, candidates) for c in clauses]
        assert backend.covered_head_tuples_batch(clauses, candidates) == singles

    def test_batches_see_mutations(self, simple_schema):
        instance = self._instance(simple_schema)
        clause = parse_clause("q(x) :- r1(x, b).")
        candidates = [("a1",), ("a9",)]
        backend = instance.backend
        before = backend.covered_head_tuples_batch([clause] * 4, candidates)
        assert before[0] == {("a1",)}
        instance.add_tuple("r1", ("a9", "b9"))
        after = backend.covered_head_tuples_batch([clause] * 4, candidates)
        assert after[0] == {("a1",), ("a9",)}
        instance.relation("r1").remove(("a9", "b9"))
        final = backend.covered_head_tuples_batch([clause] * 4, candidates)
        assert final[0] == {("a1",)}

    def test_connection_is_not_pinned_to_its_creating_thread(self, simple_schema):
        """A session may prepare an instance on one thread and learn on
        another; reads never overlap, so handing the connection over is
        safe."""
        instance = self._instance(simple_schema)
        clause = parse_clause("q(x) :- r1(x, b).")
        seen = []
        reader = threading.Thread(
            target=lambda: seen.append(
                instance.backend.covered_head_tuples(clause, [("a1",), ("a9",)])
            )
        )
        reader.start()
        reader.join()
        assert seen == [{("a1",)}]

    def test_scratch_reads_do_not_change_the_data_token(self, simple_schema):
        """Temp-table writes from coverage queries are not data changes, so
        they must not trigger a fleet reload or a session re-conversion."""
        instance = self._instance(simple_schema)
        backend = instance.backend
        token = backend.data_token()
        # A single coverage call creates + drops a temp table on the
        # connection; that is scratch work, not a data change.
        clause = parse_clause("q(x) :- r1(x, b).")
        assert backend.covered_head_tuples(clause, [("a1",)]) == {("a1",)}
        assert backend.data_token() == token
        instance.add_tuple("r1", ("a9", "b9"))
        assert backend.data_token() != token
