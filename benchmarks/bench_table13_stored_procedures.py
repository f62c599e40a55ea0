"""Table 13: impact of the stored-procedure optimization on bottom-clause
construction, plus the saturation parity/performance gate.

Two usage modes:

* under pytest (``pytest benchmarks/ --benchmark-only``) the ``test_*``
  functions regenerate Table 13 on the shared dataset bundles;
* standalone, the script gates the **compiled saturation path** — frontier
  expansion through the backend's ``neighbors_of_batch`` capability (one
  set-at-a-time statement per relation and depth level on SQLite, one
  cross-relation dict hit per value on ``memory``) — against the per-value
  Python ``tuples_containing`` path::

      PYTHONPATH=src python benchmarks/bench_table13_stored_procedures.py
          [--quick] [--backend {memory,sqlite,both}] [--repeats N]
          [--seed N] [--json PATH]

  The gate asserts the two paths construct **byte-identical** bottom
  clauses for the UW-CSE/HIV positive-example sets; exit status is non-zero
  on any mismatch, so CI can gate on it.  ``--json`` writes the
  machine-readable summary (compiled-vs-python saturation speedups, the
  memory-backend index-vs-relation-scan regression check, and the Table 13
  with/without-stored-procedures quantity) uploaded as a CI artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.castor.bottom_clause import CastorBottomClauseBuilder, CastorBottomClauseConfig
from repro.castor.stored_procedures import compare_stored_procedure_modes
from repro.database.instance import DatabaseInstance
from repro.datasets import hiv, uwcse
from repro.learning.bottom_clause import BatchSaturationEngine
from repro.learning.examples import Example
from repro.obs import provenance

if __package__:  # pytest collects this module as part of the benchmarks package
    from .conftest import run_once

SATURATION_BACKENDS = ("memory", "sqlite")


# --------------------------------------------------------------------- #
# pytest entry points (Table 13 on the shared bundles)
# --------------------------------------------------------------------- #
def _compare(bundle, variant):
    return compare_stored_procedure_modes(
        bundle.instance(variant), bundle.examples.positives, bundle.schema(variant)
    )


def test_table13_hiv(benchmark, hiv_bundle):
    result = run_once(benchmark, _compare, hiv_bundle, "initial")
    print(
        f"\nTable 13 (HIV): with SP {result['with_stored_procedures_seconds']:.3f}s, "
        f"without SP {result['without_stored_procedures_seconds']:.3f}s, "
        f"speedup {result['speedup']:.2f}x"
    )
    assert result["speedup"] > 0


def test_table13_imdb(benchmark, imdb_bundle):
    result = run_once(benchmark, _compare, imdb_bundle, "jmdb")
    print(
        f"\nTable 13 (IMDb): with SP {result['with_stored_procedures_seconds']:.3f}s, "
        f"without SP {result['without_stored_procedures_seconds']:.3f}s, "
        f"speedup {result['speedup']:.2f}x"
    )


def test_table13_uwcse(benchmark, uwcse_bundle):
    result = run_once(benchmark, _compare, uwcse_bundle, "original")
    print(
        f"\nTable 13 (UW-CSE): with SP {result['with_stored_procedures_seconds']:.3f}s, "
        f"without SP {result['without_stored_procedures_seconds']:.3f}s, "
        f"speedup {result['speedup']:.2f}x"
    )


# --------------------------------------------------------------------- #
# Standalone saturation parity/performance gate
# --------------------------------------------------------------------- #
def time_saturation(
    instance: DatabaseInstance,
    examples: Sequence[Example],
    config: CastorBottomClauseConfig,
    compiled: bool,
    repeats: int,
) -> Tuple[float, List[str]]:
    """Best-of-``repeats`` wall time of saturating the whole example set.

    ``compiled=True`` is this PR's path: batched level-synchronous
    construction over the backend's set-at-a-time saturation capability
    (one :class:`BatchSaturationEngine` call for the whole set).
    ``compiled=False`` is the pre-batching baseline: one example at a time,
    one Python ``tuples_containing`` round-trip per frontier constant.  The
    builder is constructed inside the timed region on every repeat so
    metadata compilation is charged to both paths alike.
    """
    clauses: List[str] = []
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        builder = CastorBottomClauseBuilder(
            instance, config=config, use_compiled_lookups=compiled
        )
        if compiled:
            engine = BatchSaturationEngine(builder)
            clauses = [str(c) for c in engine.build_ground_batch(examples)]
        else:
            clauses = [str(builder.build_ground(example)) for example in examples]
        best = min(best, time.perf_counter() - start)
    return best, clauses


def time_memory_value_lookups(
    instance: DatabaseInstance, repeats: int
) -> Dict[str, float]:
    """Regression check: memory-backend ``tuples_containing`` must answer
    from the backend's cross-relation value index, not a per-relation scan.

    Times the indexed instance-level lookup against the naive loop over
    every relation store for every distinct value in the database; if the
    index is ever lost, the recorded speedup collapses toward 1x.
    """
    values = sorted(
        {v for relation in instance.relations() for row in relation for v in row},
        key=str,
    )
    indexed = float("inf")
    naive = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for value in values:
            instance.tuples_containing(value)
        indexed = min(indexed, time.perf_counter() - start)
        relations = [(r.schema.name, r) for r in instance.relations()]
        start = time.perf_counter()
        for value in values:
            found = []
            for name, relation in relations:
                for row in relation.tuples_containing(value):
                    found.append((name, row))
        naive = min(naive, time.perf_counter() - start)
    return {
        "values": float(len(values)),
        "indexed_seconds": indexed,
        "relation_scan_seconds": naive,
        "speedup": naive / indexed if indexed > 0 else 0.0,
    }


def run_workload(
    name: str,
    bundle,
    backends: Sequence[str],
    config: CastorBottomClauseConfig,
    repeats: int,
) -> Tuple[Dict[str, object], bool]:
    """Benchmark one dataset; returns the result record and a parity flag."""
    variant = bundle.variant_names[0]
    base_instance = bundle.instance(variant)
    examples = bundle.examples.positives
    print(
        f"\n[{name}] variant={variant} tuples={base_instance.total_tuples()} "
        f"positive examples={len(examples)}"
    )
    record: Dict[str, object] = {
        "workload": name,
        "variant": variant,
        "tuples": base_instance.total_tuples(),
        "examples": len(examples),
        "saturation_seconds": {},
        "speedups": {},
    }
    parity = True

    reference: Optional[List[str]] = None
    print("  saturation construction (whole positive set, ground clauses):")
    for backend in backends:
        instance = (
            base_instance
            if backend == base_instance.backend_name
            else base_instance.with_backend(backend)
        )
        compiled_seconds, compiled_clauses = time_saturation(
            instance, examples, config, True, repeats
        )
        python_seconds, python_clauses = time_saturation(
            instance, examples, config, False, repeats
        )
        record["saturation_seconds"][backend] = {
            "compiled": compiled_seconds,
            "python": python_seconds,
        }
        speedup = python_seconds / compiled_seconds if compiled_seconds > 0 else 0.0
        record["speedups"][f"{backend}_compiled_vs_python"] = speedup
        print(
            f"    {backend:>7}: compiled {compiled_seconds * 1000:8.1f} ms | "
            f"python {python_seconds * 1000:8.1f} ms | {speedup:5.2f}x"
        )
        if compiled_clauses != python_clauses:
            parity = False
            print(f"  PARITY MISMATCH [{backend}]: compiled vs python clauses differ")
        if reference is None:
            reference = compiled_clauses
        elif compiled_clauses != reference:
            parity = False
            print(
                f"  PARITY MISMATCH [{backend}]: clauses differ from "
                f"{backends[0]}'s"
            )
    if parity:
        print(
            "  parity: identical bottom clauses across "
            f"{'/'.join(backends)} x compiled/python lookups"
        )

    if "memory" in backends:
        memory_instance = (
            base_instance
            if base_instance.backend_name == "memory"
            else base_instance.with_backend("memory")
        )
        lookup = time_memory_value_lookups(memory_instance, repeats)
        record["memory_value_index"] = lookup
        record["speedups"]["memory_index_vs_relation_scan"] = lookup["speedup"]
        print(
            f"  memory value lookups ({int(lookup['values'])} values): indexed "
            f"{lookup['indexed_seconds'] * 1000:6.1f} ms | relation scan "
            f"{lookup['relation_scan_seconds'] * 1000:6.1f} ms | "
            f"{lookup['speedup']:.2f}x"
        )

    table13 = compare_stored_procedure_modes(
        base_instance, examples, bundle.schema(variant), config=config
    )
    record["table13"] = table13
    print(
        f"  Table 13: with SP {table13['with_stored_procedures_seconds'] * 1000:8.1f} ms | "
        f"without SP {table13['without_stored_procedures_seconds'] * 1000:8.1f} ms | "
        f"speedup {table13['speedup']:.2f}x"
    )
    return record, parity


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend",
        choices=[*SATURATION_BACKENDS, "both"],
        default="both",
        help="backend(s) to gate saturation parity on (default: both)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="small datasets, one repeat (CI smoke)"
    )
    parser.add_argument("--repeats", type=int, default=None, help="timing repeats")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write a machine-readable result summary to PATH",
    )
    args = parser.parse_args(argv)

    backends = list(SATURATION_BACKENDS) if args.backend == "both" else [args.backend]
    repeats = args.repeats or (1 if args.quick else 3)
    if args.quick:
        uwcse_config = uwcse.UwCseConfig(num_students=15, num_professors=5, num_courses=8)
        hiv_config = hiv.HivConfig(num_compounds=20, min_atoms=3, max_atoms=4)
    else:
        uwcse_config = uwcse.UwCseConfig(num_students=40, num_professors=12, num_courses=18)
        hiv_config = hiv.HivConfig(num_compounds=60, min_atoms=3, max_atoms=6)
    config = CastorBottomClauseConfig(
        max_depth=3, max_distinct_variables=15, max_total_literals=60
    )

    records: List[Dict[str, object]] = []
    all_parity = True
    for name, bundle in (
        ("uwcse", uwcse.load(uwcse_config, seed=args.seed)),
        ("hiv", hiv.load(hiv_config, seed=args.seed)),
    ):
        record, parity = run_workload(name, bundle, backends, config, repeats)
        records.append(record)
        all_parity &= parity

    if args.json:
        summary = {
            "benchmark": "stored_procedures_table13",
            "config": {
                "backends": backends,
                "quick": bool(args.quick),
                "repeats": repeats,
                "seed": args.seed,
            },
            "parity_ok": bool(all_parity),
            "workloads": records,
            "provenance": provenance(benchmark="stored_procedures_table13"),
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"\nwrote JSON summary to {args.json}")

    if not all_parity:
        print("\nFAIL: compiled and python saturation paths disagree")
        return 1
    warned = False
    uwcse_speedup = records[0]["speedups"].get("sqlite_compiled_vs_python")
    if uwcse_speedup is not None and uwcse_speedup < 1.0:
        warned = True
        print(
            "\nWARN: parity holds but compiled saturation was only "
            f"{uwcse_speedup:.2f}x the python path on UW-CSE (target: > 1x)"
        )
    index_speedup = records[0]["speedups"].get("memory_index_vs_relation_scan")
    if index_speedup is not None and index_speedup < 1.0:
        # The cross-relation value index lost to a plain relation scan —
        # the regression this bench exists to catch (results stay identical
        # when the index wiring is lost, so only the timing can tell).
        warned = True
        print(
            f"\nWARN: memory-backend value lookups ran at {index_speedup:.2f}x "
            "the per-relation scan; the cross-relation index may be unwired"
        )
    if not warned:
        print("\nPASS: saturation parity holds on every backend and lookup path")
    return 0


if __name__ == "__main__":
    sys.exit(main())
