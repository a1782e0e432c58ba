"""Backend parity for the scheduler replay engine.

The ``RuntimeEvaluator``'s native backend must be *bit-identical* to the pure Python reference on every code path — full
evaluation, incremental tail replay, the branch-and-bound cutoff, and the
``full_recompute`` debug mode — for randomized circuits, placements and
moves.  These tests are the in-process half of that contract;
``tests/test_determinism.py`` covers the cross-process
(``PYTHONHASHSEED`` x backend) half and the benchmark harness gates the
same property on the ``replay_*`` macro scenarios.

The parity tests run over every backend available in this interpreter:
``python`` always, ``native`` when its kernel builds (a C compiler at first
use; see ``repro/timing/_native.py``).  ``numpy`` is an accepted alias of
``python``.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import gates as g
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import qft_circuit
from repro.core.config import PlacementOptions
from repro.core.placement import place_circuit
from repro.core.stats import STATS
from repro.exceptions import ExperimentError, PlacementError, ReproError
from repro.hardware.molecules import histidine, trans_crotonic_acid
from repro.timing import _native, _replay
from repro.timing.scheduler import RuntimeEvaluator, circuit_runtime

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

needs_native = pytest.mark.skipif(
    not _native.available(), reason="native kernel does not build here"
)

#: Every backend the parity matrix can exercise in this interpreter.
AVAILABLE_BACKENDS = (
    ["python"]
    + (["native"] if _native.available() else [])
)

#: Every accepted non-``auto`` name, including the ``numpy`` alias of python.
BACKEND_NAMES = AVAILABLE_BACKENDS + ["numpy"]

RELAXED = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _random_circuit(num_qubits, num_gates, seed):
    rng = random.Random(seed)
    qubits = list(range(num_qubits))
    gate_list = []
    for _ in range(num_gates):
        kind = rng.random()
        if kind < 0.45:
            a, b = rng.sample(qubits, 2)
            gate_list.append(g.zz(a, b, rng.choice([45.0, 90.0, 180.0])))
        elif kind < 0.8:
            gate_list.append(g.rx(rng.choice(qubits), rng.choice([90.0, 180.0])))
        else:
            gate_list.append(g.rz(rng.choice(qubits), 90.0))  # free gate
    return QuantumCircuit(qubits, gate_list, name=f"rand{seed}")


def _random_placement(circuit, environment, seed):
    rng = random.Random(seed)
    nodes = rng.sample(list(environment.nodes), circuit.num_qubits)
    return dict(zip(circuit.qubits, nodes))


def _evaluators(circuit, environment, cap, **kwargs):
    """One evaluator per available backend, python (the reference) first."""
    evaluators = {}
    for backend in AVAILABLE_BACKENDS:
        evaluator = RuntimeEvaluator(
            circuit, environment, apply_interaction_cap=cap,
            backend=backend, **kwargs,
        )
        assert evaluator.backend == backend
        evaluators[backend] = evaluator
    return evaluators


class TestResolveBackend:
    def test_explicit_choices_resolve_to_themselves(self):
        for backend in AVAILABLE_BACKENDS:
            assert _replay.resolve_backend(backend) == backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="unknown scheduler backend"):
            _replay.resolve_backend("fortran")

    @needs_native
    def test_auto_is_native_when_the_kernel_builds(self, monkeypatch, crotonic):
        monkeypatch.delenv(_replay.BACKEND_ENV_VAR, raising=False)
        assert _replay.resolve_backend("auto") == "native"
        # No op-count floor: even a one-op evaluator gets the kernel.
        tiny = QuantumCircuit([0, 1], [g.zz(0, 1, 90.0)])
        assert RuntimeEvaluator(tiny, crotonic).backend == "native"
        empty = QuantumCircuit([0, 1], [])
        assert RuntimeEvaluator(empty, crotonic).backend == "native"

    def test_env_var_overrides_auto(self, monkeypatch):
        monkeypatch.setenv(_replay.BACKEND_ENV_VAR, "python")
        assert _replay.resolve_backend("auto") == "python"

    @needs_native
    def test_env_var_selects_native(self, monkeypatch):
        monkeypatch.setenv(_replay.BACKEND_ENV_VAR, "native")
        assert _replay.resolve_backend("auto") == "native"

    def test_env_var_does_not_override_explicit_request(self, monkeypatch):
        monkeypatch.setenv(_replay.BACKEND_ENV_VAR, "native")
        assert _replay.resolve_backend("python") == "python"

    def test_invalid_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv(_replay.BACKEND_ENV_VAR, "cuda")
        with pytest.raises(ReproError, match="REPRO_SCHEDULER_BACKEND"):
            _replay.resolve_backend("auto")

    def test_native_request_without_build_rejected(self, monkeypatch):
        monkeypatch.setattr(_native, "available", lambda: False)
        monkeypatch.setattr(
            _native, "unavailable_reason", lambda: "no C compiler found"
        )
        with pytest.raises(ReproError, match="no C compiler found"):
            _replay.resolve_backend("native")
        # The same explicit request through the environment variable must
        # fail just as loudly — a misconfigured deployment, not a fallback.
        monkeypatch.setenv(_replay.BACKEND_ENV_VAR, "native")
        with pytest.raises(ReproError, match="no C compiler found"):
            _replay.resolve_backend("auto")

    def test_auto_without_native_falls_back(self, monkeypatch, crotonic):
        monkeypatch.delenv(_replay.BACKEND_ENV_VAR, raising=False)
        monkeypatch.setattr(_native, "available", lambda: False)
        assert _replay.resolve_backend("auto") == "python"
        long_circuit = _random_circuit(5, 400, 3)
        assert RuntimeEvaluator(long_circuit, crotonic).backend == "python"

    def test_numpy_is_an_alias_of_python(self):
        assert _replay.resolve_backend("numpy") == "python"

    def test_numpy_env_var_resolves_to_python(self, monkeypatch):
        monkeypatch.setenv(_replay.BACKEND_ENV_VAR, "numpy")
        assert _replay.resolve_backend("auto") == "python"

    def test_numpy_evaluator_runs_the_python_loop(self, crotonic):
        circuit = _random_circuit(5, 40, 17)
        evaluator = RuntimeEvaluator(circuit, crotonic, backend="numpy")
        assert evaluator.backend == "python"
        assert evaluator._native is None

    @pytest.mark.skipif(
        _native.available(), reason="native kernel builds on this host"
    )
    def test_pure_python_fallback_without_native_build(self):
        # On hosts without a working toolchain, auto must silently resolve
        # to python and the evaluator must stay fully functional.
        assert _native.unavailable_reason()
        assert _replay.resolve_backend("auto") == "python"
        environment = trans_crotonic_acid()
        circuit = _random_circuit(4, 20, 7)
        placement = _random_placement(circuit, environment, 8)
        evaluator = RuntimeEvaluator(circuit, environment, backend="auto")
        assert evaluator._native is None
        assert evaluator.runtime(placement) == circuit_runtime(
            circuit, placement, environment, validate=False
        )


class TestImportFootprint:
    def test_numpy_stays_off_the_import_path(self):
        # Neither backend needs numpy; only repro.simulation imports it, on
        # demand.  A fresh interpreter keeps the parent's sys.modules out.
        script = (
            "import sys, repro, repro.cli\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
            "import repro.simulation\n"
            "assert 'numpy' in sys.modules\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr


class TestBackendParity:
    @RELAXED
    @given(st.integers(0, 500), st.booleans())
    def test_full_evaluation_parity(self, seed, cap):
        environment = trans_crotonic_acid()
        circuit = _random_circuit(5, 28, seed)
        placement = _random_placement(circuit, environment, seed + 1)
        evaluators = _evaluators(circuit, environment, cap)
        expected = circuit_runtime(
            circuit, placement, environment,
            apply_interaction_cap=cap, validate=False,
        )
        for evaluator in evaluators.values():
            assert evaluator.runtime(placement) == expected
            assert evaluator.set_base(placement) == expected

    @RELAXED
    @given(st.integers(0, 500))
    def test_incremental_and_cutoff_parity(self, seed):
        environment = trans_crotonic_acid()
        circuit = _random_circuit(5, 30, seed)
        placement = _random_placement(circuit, environment, seed + 1)
        evaluators = _evaluators(circuit, environment, True)
        python = evaluators["python"]
        others = [e for name, e in evaluators.items() if name != "python"]
        base = python.set_base(placement)
        for evaluator in others:
            assert evaluator.set_base(placement) == base
        used = set(placement.values())
        free = [n for n in environment.nodes if n not in used]
        for qubit in circuit.qubits:
            for node in free:
                overrides = {qubit: node}
                expected = python.runtime_with(overrides)
                expected_cut = python.runtime_with(overrides, limit=base)
                for evaluator in others:
                    assert evaluator.runtime_with(overrides) == expected
                    # The cutoff path must agree too (both inf or both exact).
                    assert evaluator.runtime_with(
                        overrides, limit=base
                    ) == expected_cut
            for other in circuit.qubits:
                if other == qubit:
                    continue
                swap = {qubit: placement[other], other: placement[qubit]}
                expected = python.runtime_with(swap)
                for evaluator in others:
                    assert evaluator.runtime_with(swap) == expected
        # Replays must leave the base state intact (native keeps per-qubit
        # override flags).
        first = circuit.qubits[0]
        for evaluator in others:
            assert evaluator.runtime_with({first: placement[first]}) == base

    def test_replay_counters_identical(self):
        environment = trans_crotonic_acid()
        circuit = _random_circuit(5, 40, 11)
        placement = _random_placement(circuit, environment, 12)
        evaluators = _evaluators(circuit, environment, True)
        free = [n for n in environment.nodes if n not in set(placement.values())]
        deltas = []
        for evaluator in evaluators.values():
            before = STATS.snapshot()
            evaluator.set_base(placement)
            for qubit in circuit.qubits:
                for node in free:
                    evaluator.runtime_with({qubit: node})
                    evaluator.runtime_with(
                        {qubit: node}, limit=evaluator.base_runtime
                    )
            evaluator.flush_stats()
            delta = STATS.delta_since(before)
            # The environment-level pair-matrix cache warms on the first
            # native evaluator and hits afterwards; that is backend
            # metadata, not evaluation accounting.
            delta.pop("scheduler.pair_matrix_cache_hits", None)
            delta.pop("scheduler.pair_matrix_cache_misses", None)
            deltas.append(delta)
        for delta in deltas[1:]:
            assert delta == deltas[0]

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_full_recompute_cross_checks_backends(self, backend):
        environment = histidine()
        circuit = _random_circuit(6, 40, 3)
        placement = _random_placement(circuit, environment, 4)
        evaluator = RuntimeEvaluator(
            circuit, environment, apply_interaction_cap=True,
            backend=backend, full_recompute=True,
        )
        evaluator.set_base(placement)
        free = [n for n in environment.nodes if n not in set(placement.values())]
        for qubit in circuit.qubits:
            for node in free:
                evaluator.runtime_with({qubit: node})

    def test_full_recompute_detects_divergence(self):
        environment = trans_crotonic_acid()
        circuit = _random_circuit(4, 20, 9)
        placement = _random_placement(circuit, environment, 10)
        evaluator = RuntimeEvaluator(
            circuit, environment, backend="python", full_recompute=True
        )
        evaluator.set_base(placement)
        # Corrupt the recorded base-placement durations that the incremental
        # tail replay reuses for unmoved gates: the incremental-vs-full
        # assertion must catch the (synthetic) divergence.
        evaluator._base_durations = [
            2.0 * duration for duration in evaluator._base_durations
        ]
        free = [n for n in environment.nodes if n not in set(placement.values())]
        moved = {q for gate in circuit if gate.is_two_qubit for q in gate.qubits}
        with pytest.raises(AssertionError, match="diverged"):
            for qubit in sorted(moved, key=repr):
                for node in free:
                    evaluator.runtime_with({qubit: node})

    @needs_native
    def test_full_recompute_detects_native_divergence(self):
        environment = trans_crotonic_acid()
        circuit = _random_circuit(4, 20, 9)
        placement = _random_placement(circuit, environment, 10)
        evaluator = RuntimeEvaluator(
            circuit, environment, backend="native", full_recompute=True
        )
        evaluator.set_base(placement)
        # Corrupt the kernel's single-qubit delay buffer (private to this
        # evaluator): the python cross-check must catch the divergence.
        for index in range(len(evaluator._native._single)):
            evaluator._native._single[index] *= 2.0
        with pytest.raises(AssertionError, match="diverged"):
            evaluator.set_base(placement)

    def test_empty_circuit(self, crotonic):
        circuit = QuantumCircuit(["a", "b"], [], name="empty")
        placement = {"a": "M", "b": "C1"}
        for evaluator in _evaluators(circuit, crotonic, False).values():
            assert evaluator.runtime(placement) == 0.0
            assert evaluator.set_base(placement) == 0.0
            assert evaluator.runtime_with({"a": "C4"}) == 0.0


class TestPairMatrixCache:
    @needs_native
    def test_shared_across_evaluators_with_hit_counter(self, crotonic):
        crotonic.invalidate_caches()
        circuit = _random_circuit(5, 30, 13)
        before = STATS.snapshot()
        first = RuntimeEvaluator(circuit, crotonic, backend="native")
        second = RuntimeEvaluator(circuit, crotonic, backend="native")
        delta = STATS.delta_since(before)
        assert delta.get("scheduler.pair_matrix_cache_misses") == 1
        assert delta.get("scheduler.pair_matrix_cache_hits") == 1
        # Zero-copy sharing: both kernels read the same cached buffer.
        assert first._native._pair is second._native._pair
        assert first._native._pair is crotonic.pair_delay_table()

    def test_recalibration_invalidates(self, crotonic):
        flat = crotonic.pair_delay_table()
        assert crotonic.pair_delay_table() is flat
        crotonic.set_pair_delay("M", "C1", 123.0)
        rebuilt = crotonic.pair_delay_table()
        assert rebuilt is not flat
        nodes = crotonic.nodes
        count = len(nodes)
        i, j = nodes.index("M"), nodes.index("C1")
        assert rebuilt[i * count + j] == 123.0
        assert rebuilt[j * count + i] == 123.0

    def test_matches_pair_delay_for_every_entry(self, crotonic):
        nodes = crotonic.nodes
        count = len(nodes)
        flat = crotonic.pair_delay_table()
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                assert flat[i * count + j] == crotonic.pair_delay(a, b)

    def test_dropped_from_pickles(self, crotonic):
        import pickle

        crotonic.pair_delay_table()
        clone = pickle.loads(pickle.dumps(crotonic))
        assert clone._pair_table is None


class TestPlacerLevelBackendParity:
    @pytest.mark.parametrize("threshold", [100.0, 200.0])
    def test_place_circuit_identical_across_backends(self, crotonic, threshold):
        results = {}
        for backend in BACKEND_NAMES:
            result = place_circuit(
                qft_circuit(6),
                crotonic,
                PlacementOptions(threshold=threshold, scheduler_backend=backend),
            )
            results[backend] = (
                result.total_runtime,
                [sorted(stage.placement.items(), key=lambda kv: repr(kv[0]))
                 for stage in result.stages],
                [swap.runtime for swap in result.swap_stages],
            )
        for backend in BACKEND_NAMES[1:]:
            assert results[backend] == results["python"]

    def test_invalid_backend_option_rejected(self):
        with pytest.raises(PlacementError, match="scheduler_backend"):
            PlacementOptions(scheduler_backend="gpu")

    def test_native_backend_option_accepted(self):
        assert PlacementOptions(scheduler_backend="native").scheduler_backend == (
            "native"
        )

    def test_runner_backend_override(self):
        from repro.analysis.runner import (
            ExperimentRunner,
            ExperimentSpec,
            benchmark_circuit_factory,
            molecule_factory,
        )

        spec = ExperimentSpec(
            circuit_factory=benchmark_circuit_factory("qft6"),
            environment_factory=molecule_factory("trans-crotonic-acid"),
            threshold=200.0,
        )
        outcomes = {}
        for backend in BACKEND_NAMES:
            runner = ExperimentRunner(scheduler_backend=backend)
            outcome = runner.run([spec])[0].raise_if_infeasible()
            outcomes[backend] = (outcome.runtime_seconds, outcome.num_subcircuits)
        for backend in BACKEND_NAMES[1:]:
            assert outcomes[backend] == outcomes["python"]
        with pytest.raises(ExperimentError, match="scheduler_backend"):
            ExperimentRunner(scheduler_backend="gpu")
