"""Figure 2: Castor running time vs. parallel evaluation resources.

Two surfaces:

* **pytest** (below) — reduced-scale shard-count curves via
  ``repro.experiments.figures.figure2_parallelization``;
* **CLI** — an end-to-end Castor parallelization curve over *shard* counts
  (``sqlite`` placed on a fleet of N workers, plus a memory-backend
  reference run), with three hard gates: the run must learn at least one
  clause (parity between empty definitions proves nothing), the learned
  definition must be literal-for-literal identical across every
  configuration (sharding only moves work), and — on machines with
  enough cores — the speedup at 4 and 8 shards must clear a floor.  Run
  standalone::

      PYTHONPATH=src python benchmarks/bench_figure2_parallelization.py
          [--quick] [--shards 1 2 4 8] [--json PATH]

  On boxes with fewer than 4 CPUs the speedup floors are recorded as
  skipped (a 1-core container cannot demonstrate parallel speedup); the
  parity gate always runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro import LearningSession, SessionConfig  # noqa: E402
from repro.castor.bottom_clause import CastorBottomClauseConfig  # noqa: E402
from repro.castor.castor import CastorParameters  # noqa: E402
from repro.datasets import uwcse  # noqa: E402
from repro.obs import provenance  # noqa: E402

#: Minimum end-to-end speedup expected from 4 / 8 shards on a machine with
#: at least that many cores.  Deliberately modest: the quick workload is
#: small and the floor guards against *regressions to below-sequential*,
#: not against imperfect scaling.
SPEEDUP_FLOOR = 1.05


def _make_parameters(seed: int) -> CastorParameters:
    return CastorParameters(
        sample_size=3,
        beam_width=2,
        max_armg_rounds=5,
        bottom_clause=CastorBottomClauseConfig(max_depth=2, max_total_literals=20),
        seed=seed,
    )


def _definition_text(definition) -> List[str]:
    return [str(clause) for clause in definition]


def _timed_learn(config: SessionConfig, schema, instance, examples, seed: int):
    """One Castor learn through a fresh session; the timer covers
    ``session.prepare`` (the backend conversion) and the learn itself.
    Each run keeps a private saturation store, so no run starts warm."""
    with LearningSession(config.merged(reuse_saturation_store=False)) as session:
        learner = session.learner("castor", schema, _make_parameters(seed))
        start = time.perf_counter()
        definition = learner.learn(instance, examples)
        return definition, time.perf_counter() - start


def run_curve(
    quick: bool, shard_counts: Sequence[int], seed: int
) -> Dict[str, object]:
    config = (
        uwcse.UwCseConfig(num_students=20, num_professors=6, num_courses=10)
        if quick
        else uwcse.UwCseConfig(num_students=30, num_professors=9, num_courses=14)
    )
    bundle = uwcse.load(config, seed=seed)
    variant = bundle.variant_names[0]
    schema = bundle.schema(variant)
    instance = bundle.instance(variant)
    examples = bundle.examples

    definitions: Dict[str, List[str]] = {}
    series: List[Dict[str, object]] = []

    # Memory-backend sequential run: the cross-backend parity reference.
    definition, memory_seconds = _timed_learn(
        SessionConfig(backend="memory"), schema, instance, examples, seed
    )
    definitions["memory"] = _definition_text(definition)

    baseline_seconds: Optional[float] = None
    for shards in shard_counts:
        config = SessionConfig(backend="sqlite", shards=shards)
        definition, elapsed = _timed_learn(config, schema, instance, examples, seed)
        definitions[f"sharded-{shards}"] = _definition_text(definition)
        if baseline_seconds is None:
            baseline_seconds = elapsed
        series.append(
            {
                "shards": shards,
                "seconds": round(elapsed, 4),
                "speedup": round(baseline_seconds / elapsed, 3) if elapsed else None,
            }
        )

    reference = definitions["memory"]
    parity_failures = [
        f"{label}: learned definition differs from the memory-backend run"
        for label, clauses in definitions.items()
        if clauses != reference
    ]
    return {
        "workload": f"uwcse[{variant}]",
        "examples": len(examples.all_examples()),
        "memory_seconds": round(memory_seconds, 4),
        "series": series,
        "clauses_learned": len(reference),
        "definition": reference,
        "parity_failures": parity_failures,
    }


# --------------------------------------------------------------------- #
# pytest entry points (reduced-scale shard curves)
# --------------------------------------------------------------------- #
def test_figure2_hiv(benchmark):
    from repro.experiments.figures import figure2_parallelization

    from .conftest import run_once

    series = run_once(
        benchmark, figure2_parallelization, dataset="hiv", shard_counts=(1, 2), seed=1
    )
    print(
        "\nFigure 2 (HIV): "
        + ", ".join(f"{p['shards']:.0f}S={p['seconds']:.2f}s" for p in series)
    )
    assert len(series) == 2


def test_figure2_uwcse(benchmark):
    from repro.experiments.figures import figure2_parallelization

    from .conftest import run_once

    series = run_once(
        benchmark, figure2_parallelization, dataset="uwcse", shard_counts=(1, 2), seed=1
    )
    print(
        "\nFigure 2 (UW-CSE): "
        + ", ".join(f"{p['shards']:.0f}S={p['seconds']:.2f}s" for p in series)
    )
    assert len(series) == 2


def test_figure2_shard_curve_parity(benchmark):
    """End-to-end shard curve: learned clauses identical across configs."""
    from .conftest import run_once

    report = run_once(benchmark, run_curve, quick=True, shard_counts=(1, 2), seed=1)
    assert not report["parity_failures"], report["parity_failures"]
    assert report["clauses_learned"] >= 1


# --------------------------------------------------------------------- #
# CLI entry point
# --------------------------------------------------------------------- #
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small workload")
    parser.add_argument(
        "--shards", type=int, nargs="+", default=[1, 2, 4, 8],
        help="shard counts to sweep (first one is the curve's baseline)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--speedup-floor", type=float, default=SPEEDUP_FLOOR,
        help="minimum speedup required at 4/8 shards (when cores permit)",
    )
    parser.add_argument("--json", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    cpus = os.cpu_count() or 1
    report = run_curve(args.quick, args.shards, args.seed)
    print(
        f"workload: {report['workload']}, {report['examples']} examples, "
        f"{report['clauses_learned']} clauses learned, {cpus} CPUs"
    )
    print(f"memory backend (sequential reference): {report['memory_seconds']:.2f}s")
    for point in report["series"]:
        print(
            f"sqlite shards={point['shards']}: {point['seconds']:.2f}s "
            f"(speedup {point['speedup']}x)"
        )

    failures: List[str] = list(report["parity_failures"])
    if report["clauses_learned"] < 1:
        failures.append(
            "no clause learned: the parity gate compared empty definitions"
        )
    gates: List[Dict[str, object]] = []
    for point in report["series"]:
        if point["shards"] not in (4, 8):
            continue
        if cpus < point["shards"]:
            gates.append(
                {
                    "shards": point["shards"],
                    "status": "skipped",
                    "reason": f"{cpus} CPUs cannot demonstrate "
                    f"{point['shards']}-way speedup",
                }
            )
            continue
        ok = point["speedup"] is not None and point["speedup"] >= args.speedup_floor
        gates.append(
            {
                "shards": point["shards"],
                "status": "ok" if ok else "failed",
                "speedup": point["speedup"],
                "floor": args.speedup_floor,
            }
        )
        if not ok:
            failures.append(
                f"{point['shards']}-shard speedup {point['speedup']}x below "
                f"floor {args.speedup_floor}x"
            )
    for failure in failures:
        print(f"GATE FAILURE: {failure}", file=sys.stderr)
    for gate in gates:
        if gate["status"] == "skipped":
            print(f"gate skipped (shards={gate['shards']}): {gate['reason']}")

    summary: Dict[str, object] = {
        "benchmark": "figure2_parallelization",
        "cpus": cpus,
        "speedup_floor": args.speedup_floor,
        **{k: v for k, v in report.items() if k != "parity_failures"},
        "speedup_gates": gates,
        "parity_ok": not report["parity_failures"],
        "gates_ok": not failures,
        "provenance": provenance(benchmark="figure2_parallelization"),
    }
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
