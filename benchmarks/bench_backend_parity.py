"""Backend parity + speed benchmark across all registered backends.

Times the two coverage hot paths of the covering loop (Section 7.5) on the
UW-CSE and HIV workloads:

* **query coverage, sequential** — one ``covered_examples`` call per clause:
  tuple-at-a-time on ``memory``, one compiled SQL statement per clause on
  the SQLite backends;
* **query coverage, batched** — the whole candidate-clause generation in one
  ``BatchCoverageEngine`` call: SQLite backends share one candidate temp
  table per head signature across the batch, and the ``sqlite-sharded``
  row (``sqlite`` placed on a fleet of ``--shards`` worker processes) fans
  the example axis over those workers;
* **subsumption coverage** — the Python θ-subsumption engine vs the compiled
  saturation-store path (one statement tests a clause against every
  example's saturation at once).

The script asserts that every backend and every path covers **identical**
example sets for every candidate clause (parity) — including the
**cross-shard** check that the fleet answers identically at
``shards=1`` and ``--shards N``.  Run it standalone::

    PYTHONPATH=src python benchmarks/bench_backend_parity.py [--quick]
        [--backend {memory,sqlite,sqlite-sharded,both,all}]
        [--repeats N] [--seed N] [--shards N] [--json PATH]

``--json`` writes a machine-readable summary (CI uploads it as the
per-commit benchmark artifact); it records the shard configuration.  Exit
status is non-zero on any parity mismatch — cross-backend or cross-shard —
so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro import LearningSession
from repro.castor.bottom_clause import CastorBottomClauseBuilder, CastorBottomClauseConfig
from repro.database.instance import DatabaseInstance
from repro.datasets import hiv, uwcse
from repro.learning.coverage import (
    BatchCoverageEngine,
    QueryCoverageEngine,
    SubsumptionCoverageEngine,
)
from repro.learning.examples import Example
from repro.logic.clauses import HornClause
from repro.obs import provenance, span as obs_span, tracer as obs_tracer

#: Timed rows: the storage names, plus ``sqlite-sharded`` — sqlite placed on
#: a fleet of ``--shards`` workers.
QUERY_BACKENDS = ("memory", "sqlite", "sqlite-sharded")


def session_for(row: str, shards: int) -> LearningSession:
    """The session whose ``prepare`` puts the workload on ``row``'s backend."""
    if row == "sqlite-sharded":
        return LearningSession(backend="sqlite", shards=shards)
    return LearningSession(backend=row)


def candidate_clauses(
    instance: DatabaseInstance, examples: Sequence[Example], count: int
) -> List[HornClause]:
    """Variablized Castor bottom clauses of the first ``count`` positives.

    These are exactly the clauses the covering loop would submit to coverage
    testing; their bodies are kept below the SQL join limit by the config.
    """
    builder = CastorBottomClauseBuilder(
        instance,
        config=CastorBottomClauseConfig(
            max_depth=2, max_distinct_variables=12, max_total_literals=25
        ),
    )
    clauses: List[HornClause] = []
    for example in examples[:count]:
        clause = builder.build(example)
        if clause.body:
            clauses.append(clause)
    return clauses


def time_sequential(
    instance: DatabaseInstance,
    clauses: Sequence[HornClause],
    examples: Sequence[Example],
    repeats: int,
) -> Tuple[float, List[frozenset]]:
    """Best-of-``repeats`` wall time of one covered_examples call per clause."""
    covered: List[frozenset] = []
    best = float("inf")
    for _ in range(repeats):
        engine = QueryCoverageEngine(instance)
        start = time.perf_counter()
        covered = [
            frozenset(e.values for e in engine.covered_examples(clause, examples))
            for clause in clauses
        ]
        best = min(best, time.perf_counter() - start)
    return best, covered


def time_batched(
    instance: DatabaseInstance,
    clauses: Sequence[HornClause],
    examples: Sequence[Example],
    repeats: int,
) -> Tuple[float, List[frozenset]]:
    """Best-of-``repeats`` wall time of the whole clause batch in one call."""
    covered: List[frozenset] = []
    best = float("inf")
    for _ in range(repeats):
        batch = BatchCoverageEngine(QueryCoverageEngine(instance))
        start = time.perf_counter()
        covered = [
            frozenset(e.values for e in per_clause)
            for per_clause in batch.covered_examples_batch(clauses, examples)
        ]
        best = min(best, time.perf_counter() - start)
    return best, covered


def time_subsumption(
    instance: DatabaseInstance,
    clauses: Sequence[HornClause],
    examples: Sequence[Example],
    compiled: bool,
    saturation_cache: Dict[Example, HornClause],
    saturation_store=None,
) -> Tuple[float, List[frozenset]]:
    """Wall time of subsumption coverage over all clauses (fresh engine).

    Saturations are shared between the compared engines (building them is
    identical work for both paths).  For the compiled path, passing a
    pre-materialized ``saturation_store`` measures the warm steady state a
    learning run reaches after its first generation; without it the timing
    includes one-off store materialization.
    """
    engine = SubsumptionCoverageEngine(
        instance, compiled=compiled, saturation_store=saturation_store
    )
    engine._saturation_cache = saturation_cache
    start = time.perf_counter()
    covered = [
        frozenset(e.values for e in engine.covered_examples(clause, examples))
        for clause in clauses
    ]
    return time.perf_counter() - start, covered


def run_workload(
    name: str,
    bundle,
    backends: Sequence[str],
    repeats: int,
    clause_count: int,
    shards: int,
) -> Tuple[Dict[str, object], bool]:
    """Benchmark one dataset; returns the result record and a parity flag."""
    variant = bundle.variant_names[0]
    base_instance = bundle.instance(variant)
    examples = bundle.examples.all_examples()
    clauses = candidate_clauses(
        base_instance, bundle.examples.positives, count=clause_count
    )
    print(
        f"\n[{name}] variant={variant} tuples={base_instance.total_tuples()} "
        f"examples={len(examples)} clauses={len(clauses)} "
        "(mean body length "
        f"{sum(len(c.body) for c in clauses) / max(1, len(clauses)):.1f})"
    )

    record: Dict[str, object] = {
        "workload": name,
        "variant": variant,
        "tuples": base_instance.total_tuples(),
        "examples": len(examples),
        "clauses": len(clauses),
        "query_sequential_seconds": {},
        "query_batched_seconds": {},
        "subsumption_seconds": {},
        "speedups": {},
    }
    parity = True

    sequential: Dict[str, List[frozenset]] = {}
    batched: Dict[str, List[frozenset]] = {}
    sessions = {row: session_for(row, shards) for row in backends}
    instances = {row: sessions[row].prepare(base_instance) for row in backends}
    if "sqlite-sharded" in instances:
        # Spawn + initialize the worker fleet outside the timed region: a
        # learning run pays service startup once, not per generation.
        time_batched(instances["sqlite-sharded"], clauses[:2], examples, 1)

    print("  query coverage (sequential, one call per clause):")
    for backend in backends:
        seconds, sequential[backend] = time_sequential(
            instances[backend], clauses, examples, repeats
        )
        record["query_sequential_seconds"][backend] = seconds
        print(f"    {backend:>13}: {seconds * 1000:8.1f} ms")

    shard_note = f", shards={shards}" if "sqlite-sharded" in backends else ""
    print(f"  query coverage (batched{shard_note}):")
    for backend in backends:
        if backend == "memory":
            continue  # no batched entry point beyond the sequential loop
        seconds, batched[backend] = time_batched(
            instances[backend], clauses, examples, repeats
        )
        record["query_batched_seconds"][backend] = seconds
        print(f"    {backend:>13}: {seconds * 1000:8.1f} ms")

    reference_backend = backends[0]
    reference = sequential[reference_backend]
    for backend, results in list(sequential.items()) + list(batched.items()):
        for index, (expected, actual) in enumerate(zip(reference, results)):
            if expected != actual:
                parity = False
                print(
                    f"  PARITY MISMATCH [{backend} clause {index}]: "
                    f"{sorted(expected ^ actual)} differ from {reference_backend}"
                )
    if parity:
        print(
            "  parity: identical covered sets across "
            f"{'/'.join(backends)} (sequential and batched)"
        )

    if "sqlite-sharded" in backends and shards > 1:
        # Cross-shard parity: the sharded backend must answer identically
        # however many workers the batch is split over.  (Skipped for
        # --shards 1, where the comparison would be vacuous.)
        with session_for("sqlite-sharded", 1) as session:
            _seconds, single_sets = time_batched(
                session.prepare(base_instance), clauses, examples, 1
            )
        record["cross_shard_parity"] = {
            "shards_compared": [1, shards],
        }
        for index, (expected, actual) in enumerate(
            zip(single_sets, batched["sqlite-sharded"])
        ):
            if expected != actual:
                parity = False
                print(
                    f"  CROSS-SHARD PARITY MISMATCH [clause {index}]: "
                    f"{sorted(expected ^ actual)} differ between "
                    f"shards=1 and shards={shards}"
                )
        if parity:
            print(
                "  parity: sqlite-sharded identical at shards=1 and "
                f"shards={shards}"
            )
    for session in sessions.values():
        session.close()

    # Subsumption coverage: Python engine vs compiled saturation store.
    from repro.database.sqlite_backend import SaturationStore

    saturation_cache: Dict[Example, HornClause] = {}
    python_seconds, python_sets = time_subsumption(
        base_instance, clauses, examples, False, saturation_cache
    )
    shared_store = SaturationStore()
    compiled_cold_seconds, compiled_sets = time_subsumption(
        base_instance,
        clauses,
        examples,
        True,
        saturation_cache,
        saturation_store=shared_store,
    )
    compiled_warm_seconds, compiled_warm_sets = time_subsumption(
        base_instance,
        clauses,
        examples,
        True,
        saturation_cache,
        saturation_store=shared_store,
    )
    record["subsumption_seconds"] = {
        "python": python_seconds,
        "compiled_cold": compiled_cold_seconds,
        "compiled_warm": compiled_warm_seconds,
    }
    print(
        f"  subsumption coverage: python {python_seconds * 1000:8.1f} ms | "
        f"compiled cold {compiled_cold_seconds * 1000:8.1f} ms | "
        f"warm {compiled_warm_seconds * 1000:8.1f} ms"
    )
    if compiled_warm_sets != compiled_sets:
        parity = False
        print("  PARITY MISMATCH: warm and cold compiled subsumption disagree")
    for index, (expected, actual) in enumerate(zip(python_sets, compiled_sets)):
        if expected != actual:
            parity = False
            print(
                f"  PARITY MISMATCH [subsumption clause {index}]: "
                f"{sorted(expected ^ actual)} differ between python and compiled"
            )
    if python_sets == compiled_sets:
        print("  parity: python and compiled subsumption coverage agree")

    speedups: Dict[str, float] = {}
    seq = record["query_sequential_seconds"]
    bat = record["query_batched_seconds"]
    if "memory" in seq and "sqlite" in seq and seq["sqlite"] > 0:
        speedups["sqlite_vs_memory_sequential"] = seq["memory"] / seq["sqlite"]
    if "sqlite" in seq and "sqlite-sharded" in bat and bat["sqlite-sharded"] > 0:
        speedups["sharded_batched_vs_sqlite_sequential"] = (
            seq["sqlite"] / bat["sqlite-sharded"]
        )
    if "sqlite" in seq and "sqlite" in bat and bat["sqlite"] > 0:
        speedups["sqlite_batched_vs_sqlite_sequential"] = seq["sqlite"] / bat["sqlite"]
    if compiled_warm_seconds > 0:
        speedups["compiled_warm_vs_python_subsumption"] = (
            python_seconds / compiled_warm_seconds
        )
    record["speedups"] = speedups
    for label, value in speedups.items():
        print(f"  speedup {label}: {value:.2f}x")
    return record, parity


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend",
        choices=["memory", "sqlite", "sqlite-sharded", "both", "all"],
        default="all",
        help="which storage/evaluation backend(s) to run (default: all); "
        "sqlite-sharded always also times sqlite as its speedup baseline",
    )
    parser.add_argument(
        "--quick", action="store_true", help="small datasets, one repeat (CI smoke)"
    )
    parser.add_argument("--repeats", type=int, default=None, help="timing repeats")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--shards",
        type=int,
        default=4,
        help="worker-process count of the sqlite-sharded row (default: 4)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write a machine-readable result summary to PATH",
    )
    parser.add_argument(
        "--trace",
        metavar="OUT.json",
        default=None,
        help="record spans and write a repro-trace JSON dump to OUT.json "
        "(inspect with `python -m repro.obs.report OUT.json`)",
    )
    parser.add_argument(
        "--trace-chrome",
        metavar="OUT.json",
        default=None,
        help="also/instead write the trace as Chrome trace_event JSON "
        "(load in chrome://tracing or Perfetto)",
    )
    args = parser.parse_args(argv)
    if args.trace or args.trace_chrome:
        obs_tracer().enable(process="bench")

    if args.backend == "all":
        backends = list(QUERY_BACKENDS)
    elif args.backend == "both":
        backends = ["memory", "sqlite"]
    elif args.backend == "sqlite-sharded":
        # The acceptance target is sharded-batched vs sequential
        # single-connection sqlite, so always time the baseline too.
        backends = ["sqlite", "sqlite-sharded"]
    else:
        backends = [args.backend]
    repeats = args.repeats or (1 if args.quick else 3)

    if args.quick:
        uwcse_config = uwcse.UwCseConfig(num_students=15, num_professors=5, num_courses=8)
        hiv_config = hiv.HivConfig(num_compounds=20, min_atoms=3, max_atoms=4)
        clause_count = 8
    else:
        uwcse_config = uwcse.UwCseConfig(num_students=40, num_professors=12, num_courses=18)
        hiv_config = hiv.HivConfig(num_compounds=60, min_atoms=3, max_atoms=6)
        clause_count = 12

    records: List[Dict[str, object]] = []
    all_parity = True
    # One root span per workload: with --trace, the sharded path's
    # service.shard and worker spans all nest under it.
    with obs_span("bench.workload", benchmark="backend_parity", workload="uwcse"):
        uwcse_record, parity = run_workload(
            "uwcse",
            uwcse.load(uwcse_config, seed=args.seed),
            backends,
            repeats,
            clause_count,
            args.shards,
        )
    records.append(uwcse_record)
    all_parity &= parity
    with obs_span("bench.workload", benchmark="backend_parity", workload="hiv"):
        hiv_record, parity = run_workload(
            "hiv",
            hiv.load(hiv_config, seed=args.seed),
            backends,
            repeats,
            clause_count,
            args.shards,
        )
    records.append(hiv_record)
    all_parity &= parity

    if args.json:
        summary = {
            "benchmark": "backend_parity",
            "config": {
                "backends": backends,
                "quick": bool(args.quick),
                "repeats": repeats,
                "seed": args.seed,
                "shards": args.shards,
            },
            "parity_ok": bool(all_parity),
            "workloads": records,
            "provenance": provenance(benchmark="backend_parity"),
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"\nwrote JSON summary to {args.json}")
    if args.trace:
        print(f"wrote trace to {obs_tracer().dump_json(args.trace)}")
    if args.trace_chrome:
        print(f"wrote Chrome trace to {obs_tracer().dump_chrome(args.trace_chrome)}")

    if not all_parity:
        print("\nFAIL: coverage paths disagree on covered examples")
        return 1
    warned = False
    label = "sharded_batched_vs_sqlite_sequential"
    target = uwcse_record["speedups"].get(label)
    if target is not None and target < 2.0:
        warned = True
        print(
            f"\nWARN: parity holds but {label} was only {target:.2f}x "
            "on UW-CSE (target: >= 2x; expect less on few cores)"
        )
    if not warned:
        print("\nPASS: parity holds across all backends and coverage paths")
    return 0


if __name__ == "__main__":
    sys.exit(main())
