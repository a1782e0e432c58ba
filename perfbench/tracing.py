"""Span tracing of the placement layers, recorded from outside the program.

The tracer wraps each layer's public entry points at the namespace where
the caller looks them up (``repro.core.placement.extract_workspaces``, not
only ``repro.core.workspace.extract_workspaces``), plus the methods of the
classes the layers share (``PhysicalEnvironment``, ``RuntimeEvaluator``,
``WorkspacePlacer``).  Nothing inside ``src/`` changes.

Each call becomes one span: name, start and end (``perf_counter_ns``), the
span that was open when it started, and the job it belongs to.  Spans are
kept in flat ``array`` columns (about 26 bytes a span) and written out once,
when the run ends.  A span's self time is its duration minus the time its
child spans cover.

Parallel cells run in forked pool workers that inherit the wrappers.  A
wrapper around ``repro.analysis.runner._execute_cell`` ships each cell's
spans back on the outcome object; a wrapper around
``ExperimentRunner._iter_parallel`` folds them into the parent's columns.
``perf_counter_ns`` reads the system-wide monotonic clock, so worker and
parent timestamps share one time base.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import time
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Attribute that carries a worker cell's spans back to the parent.
_SHIPPED = "_perfbench_trace"


class Tracer:
    """In-memory span recorder plus the layer counters measured at spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_col = array("h")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("i")
        self.job_col = array("i")
        self.counts: Dict[str, int] = {}
        self.job = -1
        self._stack: List[int] = []
        self._pid = os.getpid()

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def open(self, name_id: int) -> int:
        index = len(self.start_col)
        stack = self._stack
        self.name_col.append(name_id)
        self.parent_col.append(stack[-1] if stack else -1)
        self.job_col.append(self.job)
        self.end_col.append(0)
        stack.append(index)
        self.start_col.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end_col[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    def wrap(
        self,
        name: str,
        function: Callable,
        after: Optional[Callable[[tuple, object], None]] = None,
    ) -> Callable:
        """``function`` with every call recorded as a span named ``name``."""
        name_id = self.name_id(name)
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = tracer.open(name_id)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- worker cells --------------------------------------------------------

    def in_worker(self) -> bool:
        return os.getpid() != self._pid

    def _reset_columns(self) -> None:
        for column in (self.name_col, self.start_col, self.end_col,
                       self.parent_col, self.job_col):
            del column[:]
        self.counts = {}
        self._stack = []

    def export_cell(self) -> Tuple:
        """This worker's spans and counters since the last reset."""
        payload = (
            list(self.names),
            self.name_col.tobytes(), self.start_col.tobytes(),
            self.end_col.tobytes(), self.parent_col.tobytes(),
            dict(self.counts),
        )
        self._reset_columns()
        return payload

    def absorb(self, payload: Tuple, job: int) -> None:
        """Append a worker cell's spans, re-based onto this tracer's columns."""
        names, name_bytes, start_bytes, end_bytes, parent_bytes, counts = payload
        offset = len(self.start_col)
        remap = [self.name_id(name) for name in names]
        worker_names = array("h")
        worker_names.frombytes(name_bytes)
        parents = array("i")
        parents.frombytes(parent_bytes)
        self.name_col.extend(array("h", (remap[i] for i in worker_names)))
        self.start_col.frombytes(start_bytes)
        self.end_col.frombytes(end_bytes)
        self.parent_col.extend(
            array("i", (p + offset if p >= 0 else -1 for p in parents))
        )
        self.job_col.extend(array("i", [job]) * len(parents))
        for name, value in counts.items():
            self.count(name, value)

    # -- analysis ----------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, int, int]]:
        """Per span name: ``(calls, self time ns, total time ns)``."""
        import numpy as np

        names = np.frombuffer(self.name_col, dtype=np.int16)
        parents = np.frombuffer(self.parent_col, dtype=np.int32)
        durations = (np.frombuffer(self.end_col, dtype=np.int64)
                     - np.frombuffer(self.start_col, dtype=np.int64))
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=durations[nested],
                            minlength=len(durations))
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        self_ns = np.bincount(names, weights=durations - child, minlength=width)
        total_ns = np.bincount(names, weights=durations, minlength=width)
        return {
            name: (int(calls[i]), int(self_ns[i]), int(total_ns[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Write the spans as one binary file (``names`` header + columns)."""
        header = json.dumps({
            "names": self.names,
            "spans": len(self.start_col),
            "columns": ["name:int16", "start_ns:int64", "end_ns:int64",
                        "parent:int32", "job:int32"],
        }).encode()
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as handle:
            handle.write(len(header).to_bytes(4, "little"))
            handle.write(header)
            for column in (self.name_col, self.start_col, self.end_col,
                           self.parent_col, self.job_col):
                column.tofile(handle)
        os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------


def _patch(patches: List, owner, attribute: str, replacement) -> None:
    patches.append((owner, attribute, owner.__dict__[attribute]))
    setattr(owner, attribute, replacement)


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer entry point for the duration of the block."""
    import repro.analysis.runner as runner_module
    import repro.core.placement as placement_module
    import repro.core.placers.greedy as greedy_module
    import repro.core.workspace as workspace_module
    from repro.core.placers.base import WorkspacePlacer
    from repro.hardware.environment import PhysicalEnvironment
    from repro.timing.scheduler import RuntimeEvaluator

    patches: List = []

    def wrap(owner, attribute: str, name: str, after=None) -> None:
        _patch(patches, owner, attribute,
               tracer.wrap(name, getattr(owner, attribute), after))

    for method in ("adjacency_graph", "largest_component_graph",
                   "is_connected_at", "pair_delay_table",
                   "minimal_connecting_threshold"):
        wrap(PhysicalEnvironment, method, f"hardware.{method}")

    wrap(placement_module, "extract_workspaces", "workspace",
         lambda args, result: tracer.count("workspace.count", len(result)))
    wrap(workspace_module, "has_monomorphism", "monomorphism.probe",
         lambda args, result: tracer.count("monomorphism.probe_true", bool(result)))
    wrap(placement_module, "find_monomorphisms", "monomorphism.enum")
    wrap(greedy_module, "find_monomorphisms", "monomorphism.enum")

    wrap(WorkspacePlacer, "candidates", "placer")
    wrap(placement_module, "fine_tune_workspace_placement", "fine_tuning")

    def after_delta(args, result) -> None:
        if args[0].backend == "native":
            tracer.count("scheduler.delta_native")
        if math.isinf(result):
            tracer.count("scheduler.delta_cutoff")

    wrap(RuntimeEvaluator, "runtime_with", "scheduler.delta", after_delta)
    wrap(RuntimeEvaluator, "runtime", "scheduler.full")
    wrap(RuntimeEvaluator, "set_base", "scheduler.full")
    wrap(placement_module, "circuit_runtime", "scheduler.final")
    wrap(RuntimeEvaluator, "__init__", "scheduler.compile")

    def after_route(args, result) -> None:
        tracer.count("routing.swaps", result.num_swaps)
        tracer.count("routing.depth", result.depth)

    wrap(placement_module, "route_permutation", "routing", after_route)
    wrap(placement_module, "run_pipeline", "pipeline")

    # Worker cells: record in the child, ship back on the outcome.
    execute_cell = runner_module._execute_cell

    @functools.wraps(execute_cell)
    def traced_execute_cell(payload):
        if not tracer.in_worker():
            return execute_cell(payload)
        tracer.export_cell()  # drop the spans inherited through fork
        with tracer.span("cell"):
            outcome = execute_cell(payload)
        setattr(outcome, _SHIPPED, tracer.export_cell())
        return outcome

    _patch(patches, runner_module, "_execute_cell", traced_execute_cell)

    iter_parallel = runner_module.ExperimentRunner._iter_parallel

    @functools.wraps(iter_parallel)
    def traced_iter_parallel(self, specs):
        for outcome in iter_parallel(self, specs):
            shipped = outcome.__dict__.pop(_SHIPPED, None)
            if shipped is not None:
                tracer.job += 1
                tracer.absorb(shipped, tracer.job)
            yield outcome

    _patch(patches, runner_module.ExperimentRunner, "_iter_parallel",
           traced_iter_parallel)
    try:
        yield tracer
    finally:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Span names whose summed self time forms each layer's ``*_ms`` metric.
LAYER_SPANS: Dict[str, Tuple[str, ...]] = {
    "hardware.self_ms": (
        "hardware.adjacency_graph", "hardware.largest_component_graph",
        "hardware.is_connected_at", "hardware.pair_delay_table",
        "hardware.minimal_connecting_threshold",
    ),
    "workspace.self_ms": ("workspace",),
    "monomorphism.probe_ms": ("monomorphism.probe",),
    "monomorphism.enum_ms": ("monomorphism.enum",),
    "placer.self_ms": ("placer",),
    "fine_tuning.self_ms": ("fine_tuning",),
    "scheduler.delta_ms": ("scheduler.delta",),
    "scheduler.full_ms": ("scheduler.full", "scheduler.final"),
    "scheduler.compile_ms": ("scheduler.compile",),
    "routing.self_ms": ("routing",),
    "pipeline.self_ms": ("pipeline",),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer, stats: Dict[str, int], jobs: int
) -> Dict[str, float]:
    """Per-layer metrics, times and counts per job, from spans and STATS."""
    totals = tracer.totals()
    per_job = 1.0 / max(jobs, 1)

    def calls(*names: str) -> int:
        return sum(totals.get(name, (0, 0, 0))[0] for name in names)

    def self_ms(*names: str) -> float:
        return sum(totals.get(name, (0, 0, 0))[1] for name in names) / 1e6

    counts = tracer.counts
    metrics: Dict[str, float] = {
        metric: self_ms(*names) * per_job for metric, names in LAYER_SPANS.items()
    }
    explored = stats.get("monomorphism.nodes_explored", 0)
    probes = calls("monomorphism.probe")
    deltas = calls("scheduler.delta")
    moves = stats.get("placer.moves_accepted", 0) + stats.get("placer.moves_rejected", 0)
    metrics.update({
        "hardware.calls": calls(*LAYER_SPANS["hardware.self_ms"]) * per_job,
        "hardware.adjacency_cache_hit_rate": _ratio(
            stats.get("environment.adjacency_cache_hits", 0),
            calls("hardware.adjacency_graph"),
        ),
        "workspace.count": counts.get("workspace.count", 0) * per_job,
        "monomorphism.probe_calls": probes * per_job,
        "monomorphism.probe_success_ratio": _ratio(
            counts.get("monomorphism.probe_true", 0), probes
        ),
        "monomorphism.enum_calls": calls("monomorphism.enum") * per_job,
        "monomorphism.nodes_explored": explored * per_job,
        "monomorphism.yield_ratio": _ratio(
            stats.get("monomorphism.mappings_yielded", 0), explored
        ),
        "monomorphism.host_encoding_hit_rate": _ratio(
            stats.get("monomorphism.host_encoding_hits", 0),
            stats.get("monomorphism.host_encoding_hits", 0)
            + stats.get("monomorphism.host_encodings", 0),
        ),
        "placer.calls": calls("placer") * per_job,
        "placer.delta_evals": stats.get("placer.delta_evals", 0) * per_job,
        "placer.anneal_acceptance_ratio": _ratio(
            stats.get("placer.moves_accepted", 0), moves
        ),
        "fine_tuning.calls": calls("fine_tuning") * per_job,
        "scheduler.delta_calls": deltas * per_job,
        "scheduler.delta_native_share": _ratio(
            counts.get("scheduler.delta_native", 0), deltas
        ),
        "scheduler.delta_cutoff_ratio": _ratio(
            counts.get("scheduler.delta_cutoff", 0), deltas
        ),
        "scheduler.ops_replayed_per_delta": _ratio(
            stats.get("scheduler.ops_replayed", 0),
            stats.get("scheduler.incremental_evals", 0),
        ),
        "scheduler.full_calls": calls("scheduler.full", "scheduler.final") * per_job,
        "routing.calls": calls("routing") * per_job,
        "routing.swaps": counts.get("routing.swaps", 0) * per_job,
        "routing.depth": counts.get("routing.depth", 0) * per_job,
    })
    return metrics


def counter_mismatches(tracer: Tracer, stats: Dict[str, int]) -> List[str]:
    """Span counts that disagree with the STATS counter counting the same calls.

    A wrapper that misses a call site (a new import alias, a new caller)
    shows up here instead of silently shrinking a layer's time.
    """
    totals = tracer.totals()

    def calls(*names: str) -> int:
        return sum(totals.get(name, (0, 0, 0))[0] for name in names)

    pairs = [
        ("hardware.adjacency_graph spans",
         calls("hardware.adjacency_graph"),
         "environment.adjacency_cache_hits+misses",
         stats.get("environment.adjacency_cache_hits", 0)
         + stats.get("environment.adjacency_cache_misses", 0)),
        ("hardware.largest_component_graph spans",
         calls("hardware.largest_component_graph"),
         "environment.component_cache_hits+misses",
         stats.get("environment.component_cache_hits", 0)
         + stats.get("environment.component_cache_misses", 0)),
        ("hardware.pair_delay_table spans",
         calls("hardware.pair_delay_table"),
         "scheduler.pair_matrix_cache_hits+misses",
         stats.get("scheduler.pair_matrix_cache_hits", 0)
         + stats.get("scheduler.pair_matrix_cache_misses", 0)),
        ("monomorphism probe+enum spans",
         calls("monomorphism.probe", "monomorphism.enum"),
         "monomorphism.searches", stats.get("monomorphism.searches", 0)),
        ("scheduler.full spans", calls("scheduler.full"),
         "scheduler.full_evals", stats.get("scheduler.full_evals", 0)),
    ]
    return [
        f"{span_name} = {span_count} but {counter} = {counter_value}"
        for span_name, span_count, counter, counter_value in pairs
        if span_count != counter_value
    ]
