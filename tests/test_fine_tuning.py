"""Unit tests for hill-climbing fine tuning."""

import random

import pytest

from repro.circuits import gates as g
from repro.circuits.circuit import QuantumCircuit
from repro.core.fine_tuning import (
    _first_improving_move,
    default_cost_function,
    fine_tune_workspace_placement,
    hill_climb,
    hill_climb_incremental,
)
from repro.core.stats import STATS
from repro.hardware.architectures import grid
from repro.hardware.molecules import acetyl_chloride, histidine, trans_crotonic_acid
from repro.timing import _native
from repro.timing.scheduler import RuntimeEvaluator, circuit_runtime

needs_native = pytest.mark.skipif(
    not _native.available(), reason="native kernel does not build here"
)

#: Every counter the hill climber moves; the native sweep must move each
#: by exactly as much as the per-candidate reference loop.
SCHEDULER_COUNTERS = (
    "scheduler.full_evals",
    "scheduler.incremental_evals",
    "scheduler.ops_replayed",
    "scheduler.ops_skipped",
)

HOSTS = {
    "acetyl": acetyl_chloride,
    "crotonic": trans_crotonic_acid,
    "histidine": histidine,
    "grid3x3": lambda: grid(3, 3),
}


class TestHillClimb:
    def test_finds_optimum_on_encoder(self, acetyl, encoder_circuit):
        cost = default_cost_function(encoder_circuit, acetyl)
        start = {"a": "M", "b": "C2", "c": "C1"}  # the 770-unit placement
        best, best_cost = hill_climb(
            start, cost, movable_qubits=["a", "b", "c"], allowed_nodes=list(acetyl.nodes)
        )
        assert best_cost == 136.0
        assert best == {"a": "C2", "b": "C1", "c": "M"}

    def test_never_worse_than_start(self, acetyl, encoder_circuit):
        cost = default_cost_function(encoder_circuit, acetyl)
        start = {"a": "C2", "b": "C1", "c": "M"}
        best, best_cost = hill_climb(
            start, cost, movable_qubits=["a", "b", "c"], allowed_nodes=list(acetyl.nodes)
        )
        assert best_cost <= cost(start)

    def test_zero_rounds_returns_start(self, acetyl, encoder_circuit):
        cost = default_cost_function(encoder_circuit, acetyl)
        start = {"a": "M", "b": "C2", "c": "C1"}
        best, best_cost = hill_climb(
            start, cost, movable_qubits=["a", "b", "c"],
            allowed_nodes=list(acetyl.nodes), max_rounds=0,
        )
        assert best == start
        assert best_cost == 770.0

    def test_moves_to_free_nodes(self, crotonic):
        circuit = QuantumCircuit(["q0", "q1"], [g.zz("q0", "q1", 90.0)])
        cost = default_cost_function(circuit, crotonic)
        # Start on the slowest bond; the climb should find a faster pair,
        # possibly using nodes that are currently free.
        start = {"q0": "C3", "q1": "C4"}
        best, best_cost = hill_climb(
            start, cost, movable_qubits=["q0", "q1"],
            allowed_nodes=list(crotonic.nodes),
        )
        assert best_cost <= crotonic.pair_delay("C3", "C4")

    def test_swap_move_keeps_placement_injective(self, acetyl, encoder_circuit):
        cost = default_cost_function(encoder_circuit, acetyl)
        start = {"a": "M", "b": "C2", "c": "C1"}
        best, _ = hill_climb(
            start, cost, movable_qubits=["a", "b", "c"], allowed_nodes=list(acetyl.nodes)
        )
        assert len(set(best.values())) == 3


class TestFineTuneWorkspacePlacement:
    def test_improves_encoder_placement(self, acetyl, encoder_circuit):
        placement, runtime = fine_tune_workspace_placement(
            encoder_circuit,
            {"a": "M", "b": "C2", "c": "C1"},
            acetyl,
            allowed_nodes=list(acetyl.nodes),
        )
        assert runtime == 136.0
        assert circuit_runtime(encoder_circuit, placement, acetyl) == 136.0

    def test_extra_cost_influences_result(self, acetyl, encoder_circuit):
        # An extra cost that heavily penalises moving qubit "a" off node M
        # keeps it pinned there even though the runtime alone prefers C2.
        def penalty(placement):
            return 0.0 if placement["a"] == "M" else 1e9

        placement, _ = fine_tune_workspace_placement(
            encoder_circuit,
            {"a": "M", "b": "C2", "c": "C1"},
            acetyl,
            allowed_nodes=list(acetyl.nodes),
            extra_cost=penalty,
        )
        assert placement["a"] == "M"

    def test_circuit_without_two_qubit_gates(self, acetyl):
        circuit = QuantumCircuit(["a"], [g.ry("a", 90.0)])
        placement, runtime = fine_tune_workspace_placement(
            circuit, {"a": "M"}, acetyl, allowed_nodes=list(acetyl.nodes)
        )
        assert runtime == 1.0  # moved to C2, the fastest nucleus


def _random_circuit(num_qubits, num_gates, seed):
    """Random circuit; the last qubit is left idle when there are >= 3."""
    rng = random.Random(seed)
    qubits = list(range(num_qubits))
    active = qubits[:-1] if num_qubits >= 3 else qubits
    gate_list = []
    for _ in range(num_gates):
        kind = rng.random()
        if kind < 0.5 and len(active) >= 2:
            a, b = rng.sample(active, 2)
            gate_list.append(g.zz(a, b, rng.choice([45.0, 90.0, 180.0])))
        elif kind < 0.85:
            gate_list.append(g.rx(rng.choice(active), rng.choice([90.0, 180.0])))
        else:
            gate_list.append(g.rz(rng.choice(active), 90.0))  # free gate
    return QuantumCircuit(qubits, gate_list, name=f"rand{seed}")


def _climb(circuit, environment, placement, movable, allowed, backend, **kwargs):
    """Run the incremental hill climb; return its result and counter deltas."""
    evaluator = RuntimeEvaluator(
        circuit, environment, apply_interaction_cap=True, backend=backend,
        full_recompute=kwargs.pop("full_recompute", False),
    )
    assert evaluator.backend == backend
    before = STATS.snapshot()
    result = hill_climb_incremental(placement, evaluator, movable, allowed, **kwargs)
    delta = STATS.delta_since(before)
    return result, {name: delta.get(name, 0) for name in SCHEDULER_COUNTERS}


def _random_case(host, seed):
    """A random <= 8-qubit climb on ``host``: circuit, placement, operands."""
    rng = random.Random(seed)
    environment = HOSTS[host]()
    nodes = list(environment.nodes)
    num_qubits = rng.randint(2, min(8, len(nodes)))
    circuit = _random_circuit(num_qubits, rng.randint(1, 30), seed)
    placement = dict(zip(circuit.qubits, rng.sample(nodes, num_qubits)))
    # Every qubit is movable (idle ones included), and the allowed nodes
    # are a shuffled superset of the placed ones: node-minor order matters.
    movable = list(circuit.qubits)
    rng.shuffle(movable)
    allowed = list(placement.values()) + [
        node for node in nodes
        if node not in placement.values() and rng.random() < 0.7
    ]
    rng.shuffle(allowed)
    return environment, circuit, placement, movable, allowed


@needs_native
class TestNativeSweepParity:
    """The native sweep against the per-candidate reference loop."""

    @pytest.mark.parametrize("host", sorted(HOSTS))
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("max_rounds", [1, 10])
    def test_random_climbs_match_reference(self, host, seed, max_rounds):
        environment, circuit, placement, movable, allowed = _random_case(host, seed)
        expected = _climb(
            circuit, environment, placement, movable, allowed, "python",
            max_rounds=max_rounds,
        )
        actual = _climb(
            circuit, environment, placement, movable, allowed, "native",
            max_rounds=max_rounds,
        )
        assert actual == expected

    def test_swaps_onto_occupied_nodes(self):
        # Every node is occupied, so every candidate is a swap.
        environment = trans_crotonic_acid()
        nodes = list(environment.nodes)
        circuit = _random_circuit(len(nodes), 40, 5)
        placement = dict(zip(circuit.qubits, reversed(nodes)))
        args = (circuit, environment, placement, list(circuit.qubits), nodes)
        expected = _climb(*args, "python")
        actual = _climb(*args, "native")
        assert actual == expected
        assert actual[0][0] != placement  # at least one swap was accepted
        assert sorted(actual[0][0].values()) == sorted(nodes)

    def test_idle_qubits_cost_the_base_runtime(self, crotonic):
        # Qubit 2 has no ops (first_touch == num_ops): moving it to a free
        # node replays nothing, and neither path counts an evaluation.
        circuit = QuantumCircuit([0, 1, 2], [g.zz(0, 1, 90.0), g.rx(0, 90.0)])
        placement = {0: "C1", 1: "C2", 2: "C3"}
        free = [node for node in crotonic.nodes if node not in placement.values()]
        args = (circuit, crotonic, placement, [2], free)
        expected = _climb(*args, "python")
        actual = _climb(*args, "native")
        assert actual == expected
        assert actual[0] == (placement, expected[0][1])
        assert actual[1]["scheduler.incremental_evals"] == 0

    def test_zero_op_evaluator(self, crotonic):
        circuit = QuantumCircuit([0, 1], [g.rz(0, 90.0)])  # free gates only
        placement = {0: "C1", 1: "C2"}
        args = (circuit, crotonic, placement, [0, 1], list(crotonic.nodes))
        expected = _climb(*args, "python")
        actual = _climb(*args, "native")
        assert actual == expected
        assert actual[0] == (placement, 0.0)

    @pytest.mark.parametrize("max_rounds", [0, 1, 2, 3])
    def test_round_budget_exhaustion(self, max_rounds):
        # A climb that keeps improving over several rounds, cut short.
        environment, circuit, placement, movable, allowed = _random_case(
            "histidine", 3
        )
        expected = _climb(
            circuit, environment, placement, movable, allowed, "python",
            max_rounds=max_rounds,
        )
        actual = _climb(
            circuit, environment, placement, movable, allowed, "native",
            max_rounds=max_rounds,
        )
        assert actual == expected
        if max_rounds == 0:
            assert actual[0][0] == placement

    def test_full_recompute_takes_the_reference_path(self):
        environment, circuit, placement, movable, allowed = _random_case("crotonic", 4)
        expected = _climb(
            circuit, environment, placement, movable, allowed, "python",
            full_recompute=True,
        )
        evaluator = RuntimeEvaluator(
            circuit, environment, apply_interaction_cap=True, backend="native",
            full_recompute=True,
        )
        assert evaluator.native_sweep(placement, movable, allowed) is None
        actual = _climb(
            circuit, environment, placement, movable, allowed, "native",
            full_recompute=True,
        )
        assert actual == expected

    def test_extra_cost_takes_the_reference_path(self, monkeypatch):
        environment, circuit, placement, movable, allowed = _random_case("grid3x3", 6)
        anchor = movable[0]

        def extra(candidate):
            return 0.0 if candidate[anchor] == placement[anchor] else 25.0

        def no_sweep(self, *args):
            raise AssertionError("extra_cost must not use the native sweep")

        expected = _climb(
            circuit, environment, placement, movable, allowed, "python",
            extra_cost=extra,
        )
        monkeypatch.setattr(RuntimeEvaluator, "native_sweep", no_sweep)
        actual = _climb(
            circuit, environment, placement, movable, allowed, "native",
            extra_cost=extra,
        )
        assert actual == expected

    @pytest.mark.parametrize("bad", ["extra_key", "shared_node"])
    def test_placement_not_matching_the_evaluator_is_rejected(self, crotonic, bad):
        circuit = QuantumCircuit([0, 1], [g.zz(0, 1, 90.0)])
        evaluator = RuntimeEvaluator(circuit, crotonic, backend="native")
        placement = {0: "C1", 1: "C2"}
        if bad == "extra_key":
            # Qubit 9 is unknown to the evaluator: its node must not pass
            # for free in the kernel's occupancy.
            placement[9] = "C3"
        else:
            placement[1] = "C1"
        with pytest.raises(ValueError, match="injective placement"):
            hill_climb_incremental(placement, evaluator, [0, 1], list(crotonic.nodes))


class TestSweepFreshness:
    @pytest.mark.parametrize(
        "backend", ["python"] + (["native"] if _native.available() else [])
    )
    def test_recalibration_after_set_base_raises(self, backend):
        environment = trans_crotonic_acid()
        circuit = QuantumCircuit([0, 1], [g.zz(0, 1, 90.0)])
        placement = {0: "C1", 1: "C2"}
        allowed = list(environment.nodes)
        evaluator = RuntimeEvaluator(circuit, environment, backend=backend)
        base = evaluator.set_base(placement)
        environment.set_pair_delay("C1", "C2", 1.0)
        sweep = evaluator.native_sweep(placement, [0, 1], allowed)
        assert (sweep is None) == (backend == "python")
        with pytest.raises(RuntimeError, match="recalibrated"):
            if sweep is None:
                _first_improving_move(
                    evaluator, placement, [0, 1], allowed, None, 0, base
                )
            else:
                sweep(0, base)
