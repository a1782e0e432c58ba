#!/usr/bin/env python3
"""The placement benchmark: seeded closed-loop workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 18 --trace 1
    python3 perfbench/run.py --check            # determinism gate (default seed)
    python3 perfbench/run.py --write-digests    # re-record perfbench/digests.json

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; both check every job's output first.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``perfbench/README.md``
describes the workloads and every metric.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE_DIR = os.path.join(HERE, ".cache")
OUT_DIR = os.path.join(HERE, ".out")
DIGESTS_PATH = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 0
SETUP_SAMPLES = 3
#: Kernel runs whose median calibrates a set-up probe or a parallel pass.
SETUP_KERNEL_RUNS = 3
PARALLEL_KERNEL_RUNS = 5

#: Layer groups whose share of traced job time the traced run prints.
LAYER_GROUPS = {
    "fine tuning + scheduler": ("fine_tuning.self_ms", "scheduler.delta_ms",
                                "scheduler.full_ms", "scheduler.compile_ms"),
    "hardware + monomorphism": ("hardware.self_ms", "monomorphism.probe_ms",
                                "monomorphism.enum_ms"),
    "monomorphism probes": ("monomorphism.probe_ms",),
    "routing": ("routing.self_ms",),
}


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


WORKERS = min(2, _nproc())


def _configure_process() -> None:
    """Pin everything that would make runs differ between machines or runs."""
    os.environ["REPRO_NATIVE_CACHE"] = os.path.join(CACHE_DIR, "native")
    # Bytecode goes to a benchmark-owned cache that this process warms
    # before any set-up probe, so that setup_s does not depend on whether
    # the environment lets Python write bytecode next to the sources.
    bytecode = os.path.join(CACHE_DIR, "pycache")
    os.environ["PYTHONPYCACHEPREFIX"] = bytecode
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.pycache_prefix = bytecode
    sys.dont_write_bytecode = False
    os.environ.pop("REPRO_SCHEDULER_BACKEND", None)
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[variable] = "1"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def _program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


# ---------------------------------------------------------------------------
# Set-up: measured in fresh processes, several times per run
# ---------------------------------------------------------------------------


def _set_up(workload: str, seed: int):
    """Imports, warm native kernel, environment construction, one warm-up job."""
    from repro import load_circuit, load_environment, place_circuit
    from repro.timing import _native

    import calibration  # noqa: F401
    import checker  # noqa: F401
    import tracing  # noqa: F401
    import workloads

    _native.available()
    make_groups = workloads.WORKLOADS[workload][1]
    if make_groups is None:
        groups = list(workloads.TABLE3)
        environments = {molecule for molecule, _ in groups}
    else:
        groups = make_groups(seed)
        environments = {job.environment for group in groups for job in group}
    for spec in sorted(environments):
        load_environment(spec)
    place_circuit(load_circuit("error-correction-encoding"),
                  load_environment("acetyl-chloride"))
    return groups


def _child(arguments) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.abspath(__file__), *arguments],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )


def _last_float(completed: subprocess.CompletedProcess, what: str) -> float:
    if completed.returncode != 0:
        raise RuntimeError(f"{what} failed: {completed.stderr.strip()[-400:]}")
    return float(completed.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int, calibrator):
    """Set-up time over fresh processes (warm kernel cache).

    Returns the median calibrated and the median wall seconds; each probe
    is calibrated by kernel runs just before and just after it.
    """
    from calibration import scale

    walls = []
    calibrated = []
    before = calibrator.measure(SETUP_KERNEL_RUNS)
    for _ in range(SETUP_SAMPLES):
        wall = _last_float(_child(["--setup-probe", "--workload", workload,
                                   "--seed", str(seed)]), "set-up probe")
        after = calibrator.measure(SETUP_KERNEL_RUNS)
        walls.append(wall)
        calibrated.append(wall * scale(before, after))
        before = after
    return statistics.median(calibrated), statistics.median(walls)


def measure_cold_build() -> float:
    """Milliseconds to build the native kernel into an empty cache."""
    os.makedirs(CACHE_DIR, exist_ok=True)
    cold = tempfile.mkdtemp(prefix="cold-", dir=CACHE_DIR)
    try:
        return _last_float(_child(["--cold-build", cold]), "cold kernel build")
    finally:
        shutil.rmtree(cold, ignore_errors=True)


# ---------------------------------------------------------------------------
# Bookkeeping and checks
# ---------------------------------------------------------------------------


def load_references():
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class Books:
    """Every attempted job of a run: latencies, digests, first-pass records.

    ``segments`` (a :class:`calibration.Segments`, or None in traced runs)
    calibrates the jobs' latencies and the run's wall as they complete.
    """

    def __init__(self, segments=None) -> None:
        self.segments = segments
        self.latencies = []
        self.attempts = []  # (label, digest or None when it raised)
        self.first = {}  # label -> first-pass JobRecord
        self.first_digest = {}

    def on_job(self, record) -> None:
        if self.segments is not None:
            self.segments.mark([record.latency_s])
        self._record(record)
        if self.segments is not None:
            self.segments.resume()

    def on_piece(self, latencies) -> None:
        """A finished piece of a parallel pass (its cells' latencies)."""
        if self.segments is not None:
            self.segments.mark(latencies)
            self.segments.resume()

    def _record(self, record) -> None:
        from checker import result_digest

        label = record.job.label
        digest = None
        if record.unexpected is None:
            digest = result_digest(label, record.result, record.error_type)
        self.latencies.append(record.latency_s)
        self.attempts.append((label, digest))
        if label not in self.first:
            self.first[label] = record
            self.first_digest[label] = digest


def check_serial(books: Books, references, workload: str):
    """Failed job count, problem lines and the runtime ratios of a serial run."""
    from checker import (
        check_expectations, check_result, expected_feasible, row_string,
        statevector_problems,
    )
    from repro.timing.scheduler import runtime_lower_bound

    committed = references["jobs"].get(workload, {})
    rows = references["rows"]
    problems = {}
    ratios = []
    for label, record in books.first.items():
        found = []
        if record.unexpected is not None:
            found.append("raised unexpectedly: " + record.unexpected.strip().splitlines()[-1])
        else:
            job, circuit, environment, result = (
                record.job, record.circuit, record.environment, record.result)
            options = job.options()
            should = expected_feasible(circuit, environment, options.threshold)
            if should != (result is not None):
                found.append(f"expected {'a placement' if should else 'N/A'}, "
                             f"got {record.error_type or 'a placement'}")
            found += check_expectations(job.expect, result, circuit, environment)
            if result is not None:
                found += check_result(
                    circuit, environment, result, options.apply_interaction_cap,
                    moved_after_embedding=options.fine_tuning or options.placer != "exact",
                )
                if not found:
                    found += statevector_problems(circuit, environment, result)
                ratios.append(result.total_runtime
                              / runtime_lower_bound(circuit, environment))
            if label in rows:
                row = row_string(
                    circuit.name, environment.name, options.threshold,
                    None if result is None else result.runtime_seconds,
                    None if result is None else result.num_subcircuits,
                )
                if row != rows[label]:
                    found.append(f"row {row!r} != serial reference {rows[label]!r}")
            if label in committed and committed[label] != books.first_digest[label]:
                found.append("digest drifted from perfbench/digests.json")
        if found:
            problems[label] = found
    failed = 0
    for label, digest in books.attempts:
        if label in problems or digest is None or digest != books.first_digest[label]:
            failed += 1
    return failed, problems, ratios


def check_parallel(grid_passes, references):
    """Failed cells, problem lines and ratios of the parallel workload."""
    from checker import expected_feasible, row_string
    from repro import load_circuit, load_environment
    from repro.analysis.serialization import deterministic_rows
    from repro.hardware.threshold_graph import PAPER_THRESHOLDS
    from repro.timing.scheduler import runtime_lower_bound
    from workloads import _cell_label

    rows = references["rows"]
    problems = {}
    failed = 0
    ratios = []
    seen = set()
    for grid in grid_passes:
        if deterministic_rows(grid.sweep) != deterministic_rows(grid.merged):
            problems["shard round trip"] = ["merged shard rows differ from the sweep rows"]
            failed += len(grid.merged)
        position = 0
        for molecule, circuit_spec in grid.rows:
            circuit = load_circuit(circuit_spec)
            environment = load_environment(molecule)
            for threshold in PAPER_THRESHOLDS:
                label = _cell_label(circuit_spec, molecule, threshold)
                for outcome in (grid.sweep[position], grid.merged[position]):
                    found = []
                    row = row_string(outcome.circuit_name, outcome.environment_name,
                                     threshold, outcome.runtime_seconds,
                                     outcome.num_subcircuits)
                    if row != rows.get(label):
                        found.append(f"row {row!r} != serial reference {rows.get(label)!r}")
                    if outcome.feasible != expected_feasible(circuit, environment, threshold):
                        found.append("feasibility disagrees with the threshold graph")
                    if found:
                        problems[label] = found
                        failed += 1
                if label not in seen and grid.sweep[position].feasible:
                    seen.add(label)
                    bound = runtime_lower_bound(circuit, environment)
                    ratios.append(grid.sweep[position].runtime_seconds
                                  / (bound * environment.time_unit_seconds))
                position += 1
    return failed, problems, ratios


# ---------------------------------------------------------------------------
# The timed loop
# ---------------------------------------------------------------------------


def run_passes(workload: str, groups, seconds: float, books: Books, tracer=None,
               after_first_pass=None):
    """Whole passes until ``seconds`` have elapsed.

    Returns the pass count, the timed wall in seconds and, on the parallel
    workload, every pass's outcomes.  ``after_first_pass`` is called once
    the first pass is done, outside the timed region.
    """
    import workloads

    grid_passes = []
    passes = 0
    wall = 0.0
    segments = books.segments
    if segments is not None:
        segments.start()
    while passes == 0 or wall < seconds:
        if workloads.WORKLOADS[workload][1] is None:
            grid = workloads.run_parallel_pass(
                groups, WORKERS, OUT_DIR, tracer, books.on_piece)
            grid_passes.append(grid)
            books.latencies.extend(outcome.software_runtime_seconds
                                   for outcome in grid.sweep + grid.merged)
            wall += grid.wall_s
        else:
            wall += workloads.run_serial_pass(groups, books.on_job, tracer)
        passes += 1
        if passes == 1 and after_first_pass is not None:
            after_first_pass()
    if segments is not None:
        segments.finish()
    return passes, wall, grid_passes


def percentile(values, q: int) -> float:
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(workload_parallel: bool, calibrator=None) -> float:
    """Peak RSS in MB, without the calibration kernel's table.

    Forked workers inherit the table's resident pages, so on the parallel
    workload it is taken out of each worker's figure too.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    processes = 1
    if workload_parallel:
        own += WORKERS * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        processes += WORKERS
    table_kb = calibrator.resident_bytes / 1024.0 if calibrator is not None else 0.0
    return (own - processes * table_kb) / 1024.0


def measure(workload: str, seed: int, seconds: float, trace: int,
            groups=None, isolated: bool = True) -> dict:
    """Run, check and measure one workload; returns the result object.

    ``groups`` replaces the workload's seeded groups (the benchmark's own
    tests run small subsets).  ``isolated=False`` skips the work done in
    child processes, the set-up probes and the cold kernel build, whose
    metrics then read NaN and 0.
    """
    import calibration
    import workloads
    from checker import geometric_mean
    from repro.core.stats import STATS

    reason, make_groups, tail_q = workloads.WORKLOADS[workload]
    parallel = make_groups is None
    seeded_groups = _set_up(workload, seed)
    groups = seeded_groups if groups is None else groups
    references = load_references()
    metrics = {}
    mismatches = []

    if trace:
        import tracing

        books = Books()
        tracer = tracing.Tracer()
        before = STATS.snapshot()
        with tracing.installed(tracer):
            passes, wall, grid_passes = run_passes(
                workload, groups, seconds, books, tracer)
        stats = STATS.delta_since(before)
        # One untraced pass after the traced ones, so that neither side
        # of trace.overhead_share carries the process's first-pass warm-up.
        _, untraced_wall, _ = run_passes(workload, groups, 0, Books())
        jobs = len(books.latencies)
        metrics = tracing.layer_metrics(tracer, stats, jobs)
        totals = tracer.totals()
        metrics.update(runner_metrics(totals, books, jobs, wall, stats, parallel))
        metrics["trace.overhead_share"] = wall / passes / untraced_wall - 1.0
        metrics["scheduler.native_build_ms"] = measure_cold_build() if isolated else 0.0
        mismatches = tracing.counter_mismatches(tracer, stats)
        os.makedirs(OUT_DIR, exist_ok=True)
        stem = os.path.join(OUT_DIR, f"trace-{workload}")
        tracer.write(stem + ".bin")
        with open(stem + ".json", "w", encoding="utf-8") as handle:
            json.dump({name: {"calls": c, "self_ms": s / 1e6, "total_ms": t / 1e6}
                       for name, (c, s, t) in sorted(totals.items())},
                      handle, indent=1)
        print(f"# spans: {len(tracer.start_col)} written to {stem}.bin")
        root = totals.get("job") or totals.get("cell") or (0, 0, 0)
        job_ms = root[2] / 1e6 / max(jobs, 1)
        for group, names in LAYER_GROUPS.items():
            share = sum(metrics[name] for name in names) / job_ms if job_ms else 0.0
            print(f"# share of traced job time in {group}: {share:.1%}")
        print(f"# traced run peak RSS: {peak_rss_mb(False):.1f} MB")
    else:
        calibrator = calibration.Calibrator()
        # A parallel pass has three pieces of a few seconds each: a burst
        # of kernel runs on either side of a piece steadies its one scale.
        books = Books(calibration.Segments(
            calibrator, PARALLEL_KERNEL_RUNS if parallel else 1))
        # The peak over the first pass: later passes free and rebuild
        # the same inputs, but how much of that garbage is still held at
        # the peak depends on how many passes fit into the run.
        first_pass_rss = []
        passes, wall, grid_passes = run_passes(
            workload, groups, seconds, books,
            after_first_pass=lambda: first_pass_rss.append(
                peak_rss_mb(parallel, calibrator)))
        rss = first_pass_rss[0]

    if parallel:
        failed, problems, ratios = check_parallel(grid_passes, references)
        attempted = len(books.latencies)
    else:
        failed, problems, ratios = check_serial(books, references, workload)
        attempted = len(books.attempts)

    for label, found in sorted(problems.items()):
        for line in found:
            print(f"# FAILED {label}: {line}")
    for line in mismatches:
        print(f"# TRACE COUNT MISMATCH: {line}")

    if not trace:
        segments = books.segments
        latencies_ms = sorted(value * 1000.0 for value in segments.latencies)
        wall_ms = sorted(value * 1000.0 for value in books.latencies)
        setup_s, setup_wall_s = (measure_setup(workload, seed, calibrator)
                                 if isolated else (math.nan, math.nan))
        metrics = {
            "setup_s": setup_s,
            "latency_p50_ms": percentile(latencies_ms, 50),
            "latency_tail_ms": percentile(latencies_ms, tail_q),
            "cells_per_s": attempted / segments.wall,
            "runtime_ratio_geomean": geometric_mean(ratios),
            "peak_rss_mb": rss,
        }
        kernel_ms = statistics.median(calibrator.samples) * 1000.0
        print(f"# {workload}: {reason}")
        print(f"# {passes} pass(es), {attempted} jobs in {wall:.2f} s; tail = "
              f"p{tail_q} of {len(latencies_ms)} samples; "
              f"{len(ratios)} feasible distinct outputs in the ratio; "
              f"failed_share = {failed / max(attempted, 1):.4f}")
        print(f"# calibration: {len(calibrator.samples)} kernel runs, median "
              f"{kernel_ms:.3f} ms against {calibration.NOMINAL_S * 1000.0:g} ms nominal")
        print(f"# uncalibrated wall: setup_s = {setup_wall_s:.6g} s, latency_p50_ms = "
              f"{percentile(wall_ms, 50):.6g} ms, latency_tail_ms = "
              f"{percentile(wall_ms, tail_q):.6g} ms, cells_per_s = "
              f"{attempted / wall:.6g} 1/s")

    units = metric_units(trace)
    for name in units:
        print(f"# {name} = {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result


def run_benchmark(args) -> int:
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


def runner_metrics(totals, books, jobs, wall, stats, parallel):
    """Runner and sharding metrics (zero on the serial workloads)."""
    def total_ms(name):
        return totals.get(name, (0, 0, 0))[2] / 1e6

    runner_ms = total_ms("runner.wall")
    busy_s = sum(books.latencies) if parallel else 0.0
    return {
        "runner.wall_ms": runner_ms / max(jobs, 1),
        "runner.overhead_share": (
            1.0 - busy_s / (WORKERS * runner_ms / 1e3) if runner_ms else 0.0
        ),
        "sharding.io_ms": total_ms("sharding.io") / max(jobs, 1),
        "sharding.merge_ms": total_ms("sharding.merge") / max(jobs, 1),
        "runner.cells_retried": float(stats.get("cells_retried", 0)),
        "runner.cells_failed": float(stats.get("cells_failed", 0)),
    }


def metric_units(trace: int):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"]
            for entry in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# Determinism gate
# ---------------------------------------------------------------------------


def determinism_gate(write: bool) -> int:
    """One pass of every workload at the default seed, against digests.json."""
    import workloads
    from checker import row_string
    from workloads import _cell_label

    recorded = {"rows": {}, "jobs": {}}
    references = {"rows": {}, "jobs": {}} if write else load_references()
    bad = 0
    for name, (_, make_groups, _) in workloads.WORKLOADS.items():
        if make_groups is None:
            continue
        books = Books()
        workloads.run_serial_pass(make_groups(DEFAULT_SEED), books.on_job)
        recorded["jobs"][name] = dict(sorted(books.first_digest.items()))
        if name == "paper_tables":
            for molecule, circuit in workloads.TABLE3:
                for threshold in workloads.PAPER_THRESHOLDS:
                    label = _cell_label(circuit, molecule, threshold)
                    record = books.first[label]
                    result = record.result
                    recorded["rows"][label] = row_string(
                        record.circuit.name, record.environment.name, threshold,
                        None if result is None else result.runtime_seconds,
                        None if result is None else result.num_subcircuits,
                    )
            if write:
                references["rows"] = recorded["rows"]
        failed, problems, _ = check_serial(books, references, name)
        bad += failed
        for label, found in sorted(problems.items()):
            print(f"FAILED {name} {label}: {'; '.join(found)}")
    grid = workloads.run_parallel_pass(
        list(workloads.TABLE3), WORKERS, OUT_DIR)
    failed, problems, _ = check_parallel([grid], {"rows": recorded["rows"]})
    bad += failed
    for label, found in sorted(problems.items()):
        print(f"FAILED table3_grid_parallel {label}: {'; '.join(found)}")
    if write:
        with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
            json.dump(recorded, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {DIGESTS_PATH}")
        return 1 if bad else 0
    drift = [
        f"{section} {key}"
        for section in ("rows", "jobs")
        for key in sorted(set(references[section]) | set(recorded[section]))
        if references[section].get(key) != recorded[section].get(key)
    ]
    for line in drift:
        print(f"DRIFT {line}")
    print(f"determinism gate: {bad} failed job(s), {len(drift)} drifted entr(ies)")
    return 1 if bad or drift else 0


# ---------------------------------------------------------------------------


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="run the determinism gate against digests.json")
    parser.add_argument("--write-digests", action="store_true",
                        help="re-record digests.json at the default seed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cold-build", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not _program_present():
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    _configure_process()
    if args.cold_build:
        os.environ["REPRO_NATIVE_CACHE"] = args.cold_build
        from repro.timing import _native

        start = time.perf_counter()
        built = _native.available()
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        if not built:
            print(f"# native kernel unavailable: {_native.unavailable_reason()}")
        print(elapsed_ms if built else 0.0)
        return 0
    if args.check or args.write_digests:
        return determinism_gate(write=args.write_digests)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: --workload must be one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        _set_up(args.workload, args.seed)
        print(time.perf_counter() - _T0)
        return 0
    from repro.timing import _native

    if not _native.available():
        print(f"# native kernel unavailable ({_native.unavailable_reason()}); "
              "the scheduler runs its Python path")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
