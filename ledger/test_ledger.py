"""The benchmark's own tests: contract, determinism, probe hygiene, checks.

Run from the repository root (``pytest.ini`` puts ``src`` on the path,
and pytest puts this directory there)::

    python -m pytest ledger/test_ledger.py -q

They use small UW-CSE instances, so they check the machinery, not the
measured numbers.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import layers
import pytest
import run
import workloads
from repro.analysis.rules import ObsDisciplineRule
from repro.datasets import uwcse

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SMALL = uwcse.UwCseConfig(num_students=15, num_professors=5, num_courses=8)
MEDIUM = uwcse.UwCseConfig(num_students=40, num_professors=10, num_courses=16)

SMALL_CASTOR = replace(
    workloads.WORKLOADS["castor-uwcse"],
    config=SMALL,
    variants=("original", "denormalized2"),
)
SMALL_DELTA = replace(workloads.WORKLOADS["delta-uwcse"], config=MEDIUM, generator_seed=2)


@pytest.fixture(autouse=True)
def few_traced_updates(monkeypatch):
    monkeypatch.setattr(workloads, "TRACED_UPDATES", 5)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def work_counts(traced: dict) -> dict:
    totals = traced["totals"]
    return {
        "calls": totals.calls,
        "outer_calls": totals.outer_calls,
        "counts": totals.counts,
        "series": traced["series"],
    }


def test_benchmark_json_names_what_the_runner_emits():
    benchmark = load_benchmark()
    for entry in benchmark["workloads"]:
        assert workloads.WORKLOADS[entry["name"]].why == entry["why"]
    assert [m["name"] for m in benchmark["end_to_end"]] == list(run.GATED)
    per_layer = layers.per_layer_metrics(layers.LayerTotals(), run_series(), 0.0, 1)
    assert [m["name"] for m in benchmark["per_layer"]] == list(per_layer)
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == {
        name: unit for name, (_, unit) in per_layer.items()
    }


def run_series() -> dict:
    return {key: 0 for key in layers.series_totals()}


def test_span_names_follow_the_noun_verb_grammar():
    for name in (*layers.LAYERS, "ledger.op"):
        assert ObsDisciplineRule.SPAN_NAME_RE.match(name), name


def test_work_counts_repeat_across_passes_at_one_seed():
    first = run.traced_pass(SMALL_CASTOR, seed=7)
    second = run.traced_pass(SMALL_CASTOR, seed=7)
    assert work_counts(first) == work_counts(second)
    assert first["totals"].calls["logic.subsume"] > 0
    # The namespace rename keeps the work identical across seeds too.
    assert work_counts(run.traced_pass(SMALL_CASTOR, seed=8)) == work_counts(first)


def test_delta_work_counts_repeat_across_passes_at_one_seed():
    first = run.traced_pass(SMALL_DELTA, seed=3)
    second = run.traced_pass(SMALL_DELTA, seed=3)
    assert work_counts(first) == work_counts(second)
    assert first["totals"].calls["sqlite.store_invalidate"] > 0
    assert not first["outcome"].failures


@pytest.mark.parametrize("workload", [SMALL_CASTOR, SMALL_DELTA], ids=lambda w: w.name)
def test_traced_pass_learns_the_untraced_definitions_and_restores_wrappers(workload):
    from repro.castor import armg, castor
    from repro.logic.subsumption import SubsumptionEngine

    original_kernel = SubsumptionEngine.subsumption_substitution
    untraced = run.measure(workload, seed=5, seconds=0)
    assert not untraced["outcome"].failures
    traced = run.traced_pass(workload, seed=5)
    assert not traced["outcome"].failures
    assert traced["definitions"] == untraced["definitions"]
    assert traced["definitions"] and all(traced["definitions"].values())
    assert layers.installed_wrappers() == []
    assert SubsumptionEngine.subsumption_substitution is original_kernel
    assert castor.castor_armg is armg.castor_armg
    assert not hasattr(castor.castor_armg, "__wrapped__")


def test_probes_restore_after_an_error():
    with pytest.raises(RuntimeError):
        with layers.Probes():
            assert layers.installed_wrappers()
            raise RuntimeError("boom")
    assert layers.installed_wrappers() == []


def test_sqlite_learn_matches_memory():
    # Castor's compiled saturation-store SQL must learn the definition the
    # Python engine learns, byte for byte.
    workload = replace(SMALL_CASTOR, variants=("original",), generator_seed=1)
    state = workload.setup(2)
    try:
        examples = state.bundle.examples
        memory, _ = workload.learn_once(state, "original", "memory", examples)
        sqlite, _ = workload.learn_once(state, "original", "sqlite", examples)
    finally:
        workload.close(state)
    assert memory.clauses
    assert str(sqlite) == str(memory)


def test_delta_stream_matches_a_cold_rebuild():
    delta_run = run.measure(SMALL_DELTA, seed=2, seconds=0.5)
    assert not delta_run["outcome"].failures
    assert delta_run["outcome"].attempted > 2


def test_a_diverged_delta_state_fails_the_cold_rebuild_check():
    state = SMALL_DELTA.setup(2)
    try:
        state.masks = [0] * len(state.masks)
        with pytest.raises(workloads.CheckFailed, match="coverage bits"):
            SMALL_DELTA.check(state)
    finally:
        SMALL_DELTA.close(state)


def test_an_empty_definition_fails_loudly():
    # Castor learns nothing on this generated instance (a recorded defect);
    # the check must count it rather than pass vacuously.
    empty = replace(
        workloads.WORKLOADS["castor-uwcse"], generator_seed=28, variants=("original",)
    )
    outcome = run.measure(empty, seed=1, seconds=0)["outcome"]
    assert any("empty definition" in failure for failure in outcome.failures)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    values = [float(i) for i in range(1, 101)]
    assert run.tail(values) == (90.0, 90.0)


def test_run_without_the_library_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "ledger", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "ledger/run.py", "--workload", "castor-uwcse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
