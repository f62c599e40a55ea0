"""Run one workload of the layered benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 ledger/run.py --workload castor-uwcse --seed 1 --seconds 30 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics of ``BENCHMARK.json``.  ``--trace 1`` runs the same measurement,
then a separate traced pass with every layer probe of ``layers.py``
installed, and reports the per-layer metrics.  Both print a readable
table (every end-to-end metric under its per-workload name, the output
checks, provenance) and end with one JSON line::

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

The exit status is 0 only when every operation succeeded and every output
check passed.  See ``ledger/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import faulthandler
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Sampled set-ups before the timed pass, after one cold, unsampled set-up
#: (a process's first pays for imports and first-use caches).
SETUP_WARM = 3
#: Share of the timed pass given to more set-up samples.  They are taken
#: between operations, so they spread over the whole run instead of
#: sharing one burst of machine noise: the speed of a shared VM drifts by
#: up to 30% within seconds, and a set-up takes 20 ms on the learn
#: workloads.
SETUP_SHARE = 0.15
#: The end-to-end metrics of ``BENCHMARK.json``.  The tail and
#: ``variant_agreement`` are printed but not gated: the tail is the maximum
#: of under eleven samples per kind, whose run-to-run spread on a shared
#: 2-CPU VM (0.12-0.35 of the median) exceeds any allowed bound, and
#: agreement is undefined on single-variant workloads.
GATED = ("op_s", "setup_s", "holdout_f1", "peak_rss_mb")
#: A run that outlives this is killed (traceback on stderr, no result).
RUN_LIMIT_S = 170


class Outcome:
    """Operations attempted and failed, with their times and failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        #: Times per kind of operation (one kind per schema variant).
        self.by_kind: Dict[str, List[float]] = {}

    def run(self, op: Callable[[], Tuple[float, Callable[[], None]]], limit: float) -> None:
        from workloads import CheckFailed

        self.attempted += 1
        try:
            elapsed, check = op()
            self.by_kind.setdefault(op.__name__, []).append(elapsed)
            if elapsed > limit:
                raise CheckFailed(f"operation took {elapsed:.1f} s, limit {limit:.0f} s")
            check()
        except CheckFailed as exc:
            self.failures.append(str(exc))
        except Exception as exc:
            traceback.print_exc()
            self.failures.append(f"raised {type(exc).__name__}: {exc}")

    def check(self, work: Callable[[], Optional[Dict[str, Any]]]) -> Dict[str, Any]:
        """Untimed work and output checks count as one more operation."""
        from workloads import CheckFailed

        self.attempted += 1
        try:
            return work() or {}
        except CheckFailed as exc:
            self.failures.append(str(exc))
        except Exception as exc:
            traceback.print_exc()
            self.failures.append(f"check raised {type(exc).__name__}: {exc}")
        return {}


def tail(values: List[float]) -> Tuple[float, float]:
    """(value, percentile): the highest percentile with >= 10 samples
    beyond it, or the maximum (percentile 100) below 11 samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def op_summary(by_kind: Dict[str, List[float]]) -> Tuple[float, float, str]:
    """(median, tail, note) over operations of several kinds.

    Kinds differ in cost (Castor learns ``denormalized2`` 3x faster than
    ``original``), so the median is taken per kind and averaged, and the
    tail is the worst per-kind tail: a pooled median would jump whenever a
    run ends mid-way through the kinds' costs.
    """
    medians = [statistics.median(times) for times in by_kind.values()]
    tails = [(tail(times), len(times)) for times in by_kind.values()]
    (worst, pct), n = max(tails)
    note = f"p{pct:.1f} of N={n}" + (f" per kind, {len(tails)} kinds" if len(tails) > 1 else "")
    return sum(medians) / len(medians), worst, note


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Any, seed: int, seconds: float) -> Dict[str, Any]:
    """Set-ups, the untraced timed pass, and the output checks."""
    from workloads import OP_LIMIT_S

    outcome = Outcome()
    setup_times: List[float] = []

    def sample_setup() -> None:
        gc.collect()
        start = time.perf_counter()
        ready = workload.setup(seed)
        setup_times.append(time.perf_counter() - start)
        workload.close(ready)

    state = workload.setup(seed)
    try:
        for _ in range(SETUP_WARM):
            sample_setup()
        # Untimed work first: a process's first operations pay for page
        # faults and cold caches, whose cost varies widely on a VM.
        outcome.check(lambda: workload.warm(state))
        start = time.perf_counter()
        deadline = start + seconds
        sampling_s = 0.0
        while True:  # whole rounds, at least one
            for op in workload.round(state):
                outcome.run(op, OP_LIMIT_S)
                while sampling_s < SETUP_SHARE * (time.perf_counter() - start):
                    began = time.perf_counter()
                    sample_setup()
                    sampling_s += time.perf_counter() - began
            if time.perf_counter() >= deadline:
                break
        quality = outcome.check(lambda: workload.finish(state))
        definitions = dict(state.definitions)
    finally:
        workload.close(state)
    return {
        "outcome": outcome,
        "setup_times": setup_times,
        "quality": quality,
        "definitions": definitions,
    }


class Rooted:
    """An operation run under one ``ledger.op`` span, the root its layer
    spans are attributed against."""

    def __init__(self, op: Callable[[], Tuple[float, Callable[[], None]]]) -> None:
        self.op = op
        self.__name__ = op.__name__
        self.span_id: Optional[str] = None

    def __call__(self) -> Tuple[float, Callable[[], None]]:
        from repro.obs import span

        with span("ledger.op") as root:
            self.span_id = getattr(root, "span_id", None)
            return self.op()


def traced_pass(workload: Any, seed: int) -> Dict[str, Any]:
    """Set up once and run the fixed schedule with every layer probed, then
    run the workload's output checks on the result."""
    from layers import LayerTotals, Probes, drain_records, series_totals
    from repro.obs import tracer
    from workloads import OP_LIMIT_S

    totals = LayerTotals()
    outcome = Outcome()
    before = series_totals()
    tracer().clear()
    tracer().enable(process="ledger")
    state = None
    try:
        with Probes():
            state = workload.setup(seed)
            totals.add(drain_records(), None)
            for op in workload.schedule(state):
                rooted = Rooted(op)
                outcome.run(rooted, OP_LIMIT_S)
                totals.add(drain_records(), rooted.span_id)
            workload.verify(state)
            totals.add(drain_records(), None)
        after = series_totals()
        # Outside the probes and the series window: the check's own work
        # is not counted.
        outcome.check(lambda: workload.check(state))
    finally:
        tracer().disable()
        tracer().clear()
        if state is not None:
            workload.close(state)
    return {
        "totals": totals,
        "outcome": outcome,
        "series": {key: after[key] - before[key] for key in after},
        "definitions": dict(state.definitions) if state is not None else {},
        "examples": len(getattr(state, "examples", ())),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"ledger: library sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from repro.obs import provenance
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"ledger: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    faulthandler.dump_traceback_later(RUN_LIMIT_S, exit=True)

    run = measure(workload, args.seed, args.seconds)
    outcome: Outcome = run["outcome"]
    quality = run["quality"]
    table: Dict[str, Tuple[Any, str]] = {
        "setup_s": (statistics.median(run["setup_times"]), "s"),
    }
    metrics: Dict[str, Dict[str, Any]] = {}
    if outcome.by_kind:
        median, tail_value, note = op_summary(outcome.by_kind)
        table[workload.op_name] = (median, "s")
        table[f"{workload.op_name}_tail"] = (tail_value, f"s ({note})")
    for key in ("holdout_f1", "variant_agreement"):
        if key in quality:
            table[key] = (quality[key], "ratio")
    table["peak_rss_mb"] = (peak_rss_mb(), "MB")

    if args.trace == 0:
        for name in GATED:
            key = workload.op_name if name == "op_s" else name
            if key in table:  # missing only when operations or checks failed
                value, unit = table[key]
                metrics[name] = {"value": value, "unit": unit}
    else:
        from layers import per_layer_metrics

        traced = traced_pass(workload, args.seed)
        outcome.attempted += traced["outcome"].attempted
        outcome.failures.extend(traced["outcome"].failures)
        for variant in sorted(set(traced["definitions"]) | set(run["definitions"])):
            if traced["definitions"].get(variant) != run["definitions"].get(variant):
                outcome.failures.append(
                    f"traced pass learned a different definition on {variant}"
                )
        traced_kinds = traced["outcome"].by_kind
        untraced_kinds = {k: v for k, v in outcome.by_kind.items() if k in traced_kinds}
        overhead = 0.0
        if traced_kinds and len(untraced_kinds) == len(traced_kinds):
            overhead = op_summary(traced_kinds)[0] / op_summary(untraced_kinds)[0] - 1.0
        layer_metrics = per_layer_metrics(
            traced["totals"], traced["series"], overhead, traced["examples"]
        )
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer_metrics.items()}

    attempted, failed = outcome.attempted, len(outcome.failures)
    table["failed_frac"] = (failed / attempted if attempted else 1.0, "ratio")
    print(f"workload {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  why: {workload.why}")
    for name, (value, unit) in table.items():
        print(f"  {name:<20} {value:.6g} {unit}")
    if "variant_rows" in quality:
        print(f"  result rows per variant: {quality['variant_rows']}")
    if args.trace == 1:
        for name, entry in metrics.items():
            print(f"  {name:<40} {entry['value']:.6g} {entry['unit']}")
    for failure in outcome.failures:
        print(f"  FAILED: {failure}")
    print("  provenance: " + json.dumps(
        provenance(cpus=os.cpu_count(), workload=workload.name, seed=args.seed),
        sort_keys=True,
    ))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    sys.stdout.flush()
    faulthandler.cancel_dump_traceback_later()
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
