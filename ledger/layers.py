"""Per-layer probes: wrap each layer's public calls in ``repro.obs`` spans.

The benchmark measures the library from outside.  :class:`Probes` swaps
the public functions listed in :data:`PROBES` for thin wrappers that open
one span per call (named after the layer, in the ``noun.verb`` grammar of
``docs/observability.md``) and record work counts as span attributes.
:meth:`Probes.restore` puts every original back, so the timed,
untraced pass runs the unmodified library.

:class:`LayerTotals` folds the drained span records and
:func:`per_layer_metrics` names the per-layer metrics: calls and work
counts (deterministic), self time (a span's duration minus the probe
spans nested under it on the same thread), and the share of each
operation's wall time that no probe span covers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs import registry, span, tracer

Counts = Dict[str, float]
CountFn = Callable[[Tuple[Any, ...], Dict[str, Any], Any], Counts]


def _arg(args: Tuple[Any, ...], kwargs: Dict[str, Any], index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(name)


def _noop_enforce(args, kwargs, result) -> Counts:
    clause = _arg(args, kwargs, 1, "clause")
    return {"noop": float(len(result.body) == len(clause.body))}


def _examples(index: int, name: str) -> CountFn:
    def count(args, kwargs, _result) -> Counts:
        return {"examples": float(len(_arg(args, kwargs, index, name)))}

    return count


def _one_example(_args, _kwargs, _result) -> Counts:
    return {"examples": 1.0}


def _clauses(args, kwargs, _result) -> Counts:
    return {"clauses": float(len(_arg(args, kwargs, 1, "clauses")))}


def _found(_args, _kwargs, result) -> Counts:
    return {"true": float(result is not None)}


def _result_len(key: str) -> CountFn:
    def count(_args, _kwargs, result) -> Counts:
        return {key: float(len(result))}

    return count


def _values(args, kwargs, _result) -> Counts:
    return {"values": float(len(list(_arg(args, kwargs, 1, "values"))))}


def _delta_rows(args, kwargs, _result) -> Counts:
    return {"rows": float(_arg(args, kwargs, 1, "delta").row_count)}


@dataclass(frozen=True)
class Probe:
    """One wrapped public call: ``module`` + ``attr`` (``Class.method`` or
    a function name), recorded under span ``layer``."""

    layer: str
    module: str
    attr: str
    count: Optional[CountFn] = None


#: Every wrapped call, grouped by layer.  The span name is the layer name.
PROBES: Tuple[Probe, ...] = (
    Probe("castor.ind_enforce", "repro.castor.armg", "IndConsistencyEnforcer.enforce", _noop_enforce),
    Probe("castor.inclusion", "repro.castor.inclusion_instances", "compute_inclusion_instances"),
    Probe("castor.inclusion", "repro.castor.inclusion_instances", "literals_satisfy_ind"),
    Probe("castor.armg", "repro.castor.armg", "castor_armg"),
    Probe("castor.reduce", "repro.castor.reduction", "NegativeReducer.reduce"),
    Probe("progolem.blocking_atom", "repro.progolem.armg", "find_blocking_atom"),
    Probe("learning.saturate", "repro.learning.bottom_clause", "BatchSaturationEngine.build_batch", _examples(1, "examples")),
    Probe("learning.saturate", "repro.learning.bottom_clause", "BottomClauseBuilder.build_many", _examples(1, "examples")),
    Probe("learning.saturate", "repro.learning.bottom_clause", "BottomClauseBuilder.build_ground_many", _examples(1, "examples")),
    Probe("learning.saturate", "repro.learning.bottom_clause", "BottomClauseBuilder.build", _one_example),
    Probe("learning.saturate", "repro.learning.bottom_clause", "BottomClauseBuilder.build_ground", _one_example),
    Probe("learning.coverage", "repro.learning.coverage", "BatchCoverageEngine.evaluate_batch", _clauses),
    Probe("learning.coverage", "repro.learning.coverage", "BatchCoverageEngine.covered_masks_batch", _clauses),
    Probe("learning.apply_delta", "repro.learning.coverage", "SubsumptionCoverageEngine.apply_delta", _result_len("invalidated")),
    Probe("logic.subsume", "repro.logic.subsumption", "SubsumptionEngine.subsumption_substitution", _found),
    Probe("logic.minimize", "repro.logic.minimize", "minimize_clause"),
    Probe("database.query", "repro.database.query", "QueryEvaluator.covered_tuples_batch"),
    Probe("database.query", "repro.database.query", "QueryEvaluator.bindings_for_body"),
    Probe("database.neighbors", "repro.database.instance", "DatabaseInstance.neighbors_of_batch", _values),
    Probe("database.apply_delta", "repro.database.instance", "DatabaseInstance.apply_delta", _delta_rows),
    Probe("sqlite.covered_ids", "repro.database.sqlite_backend", "SaturationStore.covered_ids"),
    Probe("sqlite.store_add", "repro.database.sqlite_backend", "SaturationStore.add_example"),
    Probe("sqlite.store_invalidate", "repro.database.sqlite_backend", "SaturationStore.invalidate_touching", _result_len("invalidated")),
    Probe("foil.candidates", "repro.foil.refinement", "RefinementOperator.candidate_literals_for_clause", _result_len("generated")),
    Probe("foil.gain", "repro.foil.gain", "foil_gain"),
    Probe("datasets.generate", "repro.datasets.uwcse", "load"),
    Probe("transform.apply", "repro.transform.transformation", "SchemaTransformation.apply"),
    Probe("session.prepare", "repro.session.session", "LearningSession.prepare"),
    Probe("transform.verify", "repro.transform.equivalence", "definition_results"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(p.layer for p in PROBES))

#: Registry series read as before/after deltas around the traced pass.
SERIES = {
    "coverage_tests": "coverage.subsumption.tests",
    "cache_hits": "coverage.subsumption.cache_hits",
    "compiled_statements": "coverage.subsumption.compiled_statements",
    "budget_exhausted": "subsumption.budget_exhausted",
}


#: Calls of wrapped generator functions, labelled by layer.
GENERATOR_CALLS = "ledger.probe.generator_calls"


def series_totals() -> Dict[str, int]:
    totals = {key: registry().total(name) for key, name in SERIES.items()}
    for layer in LAYERS:
        totals[layer] = registry().counter(GENERATOR_CALLS, layer=layer).value
    return totals


def _wrap(layer: str, original: Callable, count: Optional[CountFn]) -> Callable:
    if inspect.isgeneratorfunction(original):
        # A span cannot stay open across the consumer's code, so a
        # generator is timed by its caller's span and only counted here.
        calls = registry().counter(GENERATOR_CALLS, layer=layer)

        @functools.wraps(original)
        def generator(*args: Any, **kwargs: Any) -> Any:
            calls.inc()
            return original(*args, **kwargs)

        return generator

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with span(layer) as active:
            result = original(*args, **kwargs)
            if count is not None:
                active.set(**count(args, kwargs, result))
            return result

    return wrapper


class Probes:
    """Install the wrappers of :data:`PROBES`; :meth:`restore` removes them.

    Module functions are patched in every loaded module that bound them
    (``from .armg import castor_armg`` copies the reference), methods on
    the class that defines them.
    """

    def __init__(self, probes: Iterable[Probe] = PROBES) -> None:
        self._patches: List[Tuple[Any, str, Any]] = []
        try:
            for probe in probes:
                self._install(probe)
        except BaseException:
            self.restore()
            raise

    def _install(self, probe: Probe) -> None:
        module = importlib.import_module(probe.module)
        if "." in probe.attr:
            class_name, name = probe.attr.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[name]
            self._patch(owner, name, original, _wrap(probe.layer, original, probe.count))
            return
        original = getattr(module, probe.attr)
        wrapper = _wrap(probe.layer, original, probe.count)
        for loaded in list(sys.modules.values()):
            if loaded is None or loaded is sys.modules[__name__]:
                continue
            for name, value in list(getattr(loaded, "__dict__", {}).items()):
                if value is original:
                    self._patch(loaded, name, original, wrapper)

    def _patch(self, owner: Any, name: str, original: Any, wrapper: Any) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.restore()


def installed_wrappers() -> List[str]:
    """Names of probe targets currently replaced by a wrapper (for tests)."""
    found = []
    for probe in PROBES:
        module = importlib.import_module(probe.module)
        if "." in probe.attr:
            class_name, name = probe.attr.split(".")
            target = getattr(module, class_name).__dict__[name]
        else:
            target = getattr(module, probe.attr)
        if hasattr(target, "__wrapped__"):
            found.append(f"{probe.module}.{probe.attr}")
    return found


# --------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------- #
class LayerTotals:
    """Per-layer sums over one traced pass."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.outer_calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.wall_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.max_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counts: Dict[str, float] = {}
        self.op_wall_s = 0.0
        self.op_covered_s = 0.0

    def count(self, layer: str, key: str) -> float:
        return self.counts.get(f"{layer}.{key}", 0.0)

    def add(self, records: List[Any], op_root: Optional[str]) -> None:
        """Fold one operation's span records in; ``op_root`` is the span id
        of the operation (its wall time is what attribution is measured
        against), or None for records outside any operation."""
        by_id = {r.span_id: r for r in records}

        def probe_parent(record: Any) -> Optional[Any]:
            parent = by_id.get(record.parent_id)
            while parent is not None and parent.name not in self.calls:
                parent = by_id.get(parent.parent_id)
            return parent

        children_s: Dict[str, float] = {}
        outermost: List[Any] = []
        for record in records:
            if record.name not in self.calls:
                continue
            parent = probe_parent(record)
            if parent is not None and parent.tid == record.tid:
                children_s[parent.span_id] = (
                    children_s.get(parent.span_id, 0.0) + record.duration
                )
            if parent is None:
                outermost.append(record)
            if parent is None or parent.name != record.name:
                # Work counts come from the outermost span of each layer,
                # so build_batch -> build_many counts its examples once.
                self.outer_calls[record.name] += 1
                for key, value in record.attrs.items():
                    if isinstance(value, (int, float)):
                        name = f"{record.name}.{key}"
                        self.counts[name] = self.counts.get(name, 0.0) + value
        for record in records:
            if record.name not in self.calls:
                continue
            self.calls[record.name] += 1
            self.wall_s[record.name] += record.duration
            self.max_s[record.name] = max(self.max_s[record.name], record.duration)
            self.self_s[record.name] += max(
                0.0, record.duration - children_s.get(record.span_id, 0.0)
            )
        root = by_id.get(op_root) if op_root is not None else None
        if root is not None:
            self.op_wall_s += root.duration
            self.op_covered_s += _union_seconds(
                [r for r in outermost if _descends(r, root.span_id, by_id)]
            )


def _descends(record: Any, root_id: str, by_id: Dict[str, Any]) -> bool:
    parent_id = record.parent_id
    while parent_id is not None:
        if parent_id == root_id:
            return True
        parent = by_id.get(parent_id)
        parent_id = parent.parent_id if parent is not None else None
    return False


def _union_seconds(records: List[Any]) -> float:
    """Length of the union of the records' [start, start + duration]."""
    total, end = 0.0, float("-inf")
    for start, stop in sorted((r.start, r.start + r.duration) for r in records):
        if start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def drain_records() -> List[Any]:
    """Pop every finished span from the process tracer."""
    records = tracer().records()
    tracer().clear()
    return records


def per_layer_metrics(
    totals: LayerTotals,
    series: Dict[str, int],
    overhead_frac: float,
    examples_per_delta: int,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of ``BENCHMARK.json``, as ``name -> (value, unit)``."""
    t = totals

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    deltas = t.calls["learning.apply_delta"]
    return {
        "castor.ind_enforce.calls": (t.calls["castor.ind_enforce"], "count"),
        "castor.ind_enforce.self_s": (t.self_s["castor.ind_enforce"], "s"),
        "castor.ind_enforce.noop_ratio": (
            ratio(t.count("castor.ind_enforce", "noop"), t.calls["castor.ind_enforce"]),
            "ratio",
        ),
        "castor.inclusion.calls": (t.calls["castor.inclusion"], "count"),
        "castor.inclusion.self_s": (t.self_s["castor.inclusion"], "s"),
        "castor.armg.calls": (t.calls["castor.armg"], "count"),
        "castor.armg.self_s": (t.self_s["castor.armg"], "s"),
        "castor.reduce.calls": (t.calls["castor.reduce"], "count"),
        "castor.reduce.self_s": (t.self_s["castor.reduce"], "s"),
        "progolem.blocking_atom.calls": (t.calls["progolem.blocking_atom"], "count"),
        "progolem.blocking_atom.self_s": (t.self_s["progolem.blocking_atom"], "s"),
        "learning.saturate.examples": (t.count("learning.saturate", "examples"), "count"),
        "learning.saturate.self_s": (t.self_s["learning.saturate"], "s"),
        "learning.coverage.batches": (t.outer_calls["learning.coverage"], "count"),
        "learning.coverage.clauses": (t.count("learning.coverage", "clauses"), "count"),
        "learning.coverage.self_s": (t.self_s["learning.coverage"], "s"),
        # The registry counts a cache hit apart from a performed test, so
        # the share of coverage questions answered from the cache is
        # hits / (hits + tests).
        "learning.coverage.cache_hit_ratio": (
            ratio(series["cache_hits"], series["cache_hits"] + series["coverage_tests"]),
            "ratio",
        ),
        "learning.apply_delta.invalidated_ratio": (
            ratio(
                t.count("learning.apply_delta", "invalidated"),
                deltas * examples_per_delta,
            ),
            "ratio",
        ),
        "learning.apply_delta.self_s": (t.self_s["learning.apply_delta"], "s"),
        "logic.subsume.calls": (t.calls["logic.subsume"], "count"),
        "logic.subsume.self_s": (t.self_s["logic.subsume"], "s"),
        "logic.subsume.true_ratio": (
            ratio(t.count("logic.subsume", "true"), t.calls["logic.subsume"]),
            "ratio",
        ),
        "logic.subsume.budget_exhausted": (series["budget_exhausted"], "count"),
        "logic.minimize.calls": (t.calls["logic.minimize"], "count"),
        "logic.minimize.self_s": (t.self_s["logic.minimize"], "s"),
        "database.query.calls": (
            t.calls["database.query"] + series["database.query"],
            "count",
        ),
        "database.query.self_s": (t.self_s["database.query"], "s"),
        "database.neighbors.values": (t.count("database.neighbors", "values"), "count"),
        "database.neighbors.self_s": (t.self_s["database.neighbors"], "s"),
        "database.apply_delta.rows": (t.count("database.apply_delta", "rows"), "count"),
        "database.apply_delta.self_s": (t.self_s["database.apply_delta"], "s"),
        "sqlite.covered_ids.stmts": (t.calls["sqlite.covered_ids"], "count"),
        "sqlite.covered_ids.self_s": (t.self_s["sqlite.covered_ids"], "s"),
        "sqlite.covered_ids.stmt_s_max": (t.max_s["sqlite.covered_ids"], "s"),
        "sqlite.store.adds": (t.calls["sqlite.store_add"], "count"),
        "sqlite.store.add_self_s": (t.self_s["sqlite.store_add"], "s"),
        "sqlite.store.invalidated": (
            t.count("sqlite.store_invalidate", "invalidated"),
            "count",
        ),
        "sqlite.store.invalidate_self_s": (t.self_s["sqlite.store_invalidate"], "s"),
        "sqlite.compiled_statements": (series["compiled_statements"], "count"),
        "foil.candidates.generated": (t.count("foil.candidates", "generated"), "count"),
        "foil.candidates.self_s": (t.self_s["foil.candidates"], "s"),
        "foil.gain.calls": (t.calls["foil.gain"], "count"),
        "foil.gain.self_s": (t.self_s["foil.gain"], "s"),
        "datasets.generate_s": (t.wall_s["datasets.generate"], "s"),
        "transform.apply_s": (t.wall_s["transform.apply"], "s"),
        "session.prepare_s": (t.wall_s["session.prepare"], "s"),
        "transform.verify_s": (t.wall_s["transform.verify"], "s"),
        "trace.unattributed_frac": (
            1.0 - ratio(t.op_covered_s, t.op_wall_s) if t.op_wall_s else 0.0,
            "ratio",
        ),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
