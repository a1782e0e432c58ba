"""Output checks that do not trust the placer.

Every check re-derives what it needs from the environment's raw delay
table and the input circuit: it never reads the placer's adjacency graph,
workspace list or cached schedule.  The checks run after the timed region;
each failed job counts once into ``failed``.

Checks per feasible result:

* every stage placement is an injective map of all circuit qubits onto
  known nodes;
* every two-qubit gate of a workspace sits on a node pair whose raw
  ``pair_delay`` is at most the threshold, for stages the placer did not
  move afterwards.  Fine tuning (the paper's "shuffle" step) and the
  annealer may move a qubit off the threshold graph when that shortens
  the stage, so their stages are checked for a finite delay instead, and
  each workspace's interaction graph must embed into the independently
  built threshold graph: either the stage placement itself is the witness,
  or, on hosts of at most 14 nodes, a networkx VF2 search (not the
  placer's bitset search) finds one;
* replaying each swap stage's layers (every swap on a threshold pair,
  layers node-disjoint) carries stage *i*'s placement onto stage *i+1*'s;
* the physical circuit equals an independent assembly of the remapped
  workspaces and swap layers, and ``total_runtime`` equals a pure-Python
  ``circuit_runtime`` of it;
* ``total_runtime`` is at least ``runtime_lower_bound``;
* for circuits with defined unitaries on hosts of at most 14 nodes,
  ``verify_placement`` passes by statevector (once per distinct output).

Feasibility is checked both ways against an independent threshold graph:
a cell is N/A exactly when fewer connected nodes than circuit qubits
survive the threshold (or no interaction does), and the paper's own
answers (Table 2 row 1, the search-space column, the iron complex's N/A
cells) must hold.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from typing import Dict, List, Optional, Sequence, Set

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

from repro.circuits import gates as gate_library
from repro.circuits.circuit import QuantumCircuit
from repro.exceptions import SimulationError
from repro.hardware.environment import PhysicalEnvironment
from repro.simulation.verify import verify_placement
from repro.timing.scheduler import circuit_runtime, runtime_lower_bound

#: Largest host the statevector check simulates.
MAX_VERIFY_NODES = 14


def result_digest(label: str, result, error_type: Optional[str]) -> str:
    """Canonical digest of one job's output: placements, swaps, runtime."""
    if result is None:
        body: object = {"label": label, "na": error_type}
    else:
        body = {
            "label": label,
            "threshold": repr(result.threshold),
            "total_runtime": repr(result.total_runtime),
            "stages": [
                [stage.start, stage.stop,
                 sorted([repr(q), repr(n)] for q, n in stage.placement.items())]
                for stage in result.stages
            ],
            "swaps": [
                [[[repr(a), repr(b)] for a, b in layer]
                 for layer in swap.routing.layers]
                for swap in result.swap_stages
            ],
        }
    encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()[:20]


def row_string(
    circuit_name: str,
    environment_name: str,
    threshold: Optional[float],
    runtime_seconds: Optional[float],
    num_subcircuits: Optional[int],
) -> str:
    """A sweep cell's deterministic fields as one comparable string."""
    return (
        f"{circuit_name}|{environment_name}|{threshold!r}|"
        f"{runtime_seconds!r}|{num_subcircuits!r}"
    )


@functools.lru_cache(maxsize=64)
def threshold_graph(environment: PhysicalEnvironment, threshold: float) -> nx.Graph:
    """Pairs with raw delay at most ``threshold``, built from the delay table.

    Only explicit pairs can qualify when the default delay is above the
    threshold, which keeps a 1024-node grid at O(pairs), not O(n^2).
    """
    graph = nx.Graph()
    nodes = list(environment.nodes)
    graph.add_nodes_from(nodes)
    if environment.default_pair_delay <= threshold:
        graph.add_edges_from(
            (a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]
            if environment.pair_delay(a, b) <= threshold
        )
    else:
        graph.add_edges_from(
            pair for pair, delay in environment.explicit_pairs().items()
            if delay <= threshold
        )
    return graph


def expected_feasible(
    circuit: QuantumCircuit,
    environment: PhysicalEnvironment,
    threshold: Optional[float],
) -> bool:
    """Whether the cell must place (``False``: the paper's N/A)."""
    if circuit.num_qubits > environment.num_qubits:
        return False
    if threshold is None:
        return True
    graph = threshold_graph(environment, threshold)
    if circuit.num_two_qubit_gates and graph.number_of_edges() == 0:
        return False
    largest = max((len(c) for c in nx.connected_components(graph)), default=0)
    return largest >= circuit.num_qubits


def _check_placement(placement, circuit, environment, where: str) -> List[str]:
    problems = []
    if set(placement) != set(circuit.qubits):
        problems.append(f"{where}: placement does not cover exactly the circuit qubits")
    nodes = list(placement.values())
    if len(set(nodes)) != len(nodes):
        problems.append(f"{where}: placement is not injective")
    unknown = [node for node in nodes if node not in environment]
    if unknown:
        problems.append(f"{where}: unknown nodes {unknown!r}")
    return problems


def check_result(
    circuit: QuantumCircuit,
    environment: PhysicalEnvironment,
    result,
    apply_interaction_cap: bool,
    moved_after_embedding: bool,
) -> List[str]:
    """Every structural and runtime invariant of one placement result.

    ``moved_after_embedding`` says whether the placer may move qubits off
    the monomorphism's threshold edges (fine tuning, annealing).
    """
    problems: List[str] = []
    threshold = result.threshold
    gates = circuit.gates
    small_host = environment.num_qubits <= MAX_VERIFY_NODES
    expected_start = 0
    for stage in result.stages:
        where = f"stage {stage.index}"
        problems += _check_placement(stage.placement, circuit, environment, where)
        if stage.start != expected_start:
            problems.append(f"{where}: starts at gate {stage.start}, expected {expected_start}")
        expected_start = stage.stop
        if problems:
            continue
        pattern = nx.Graph()
        witness = True
        for gate in gates[stage.start:stage.stop]:
            if gate.is_two_qubit:
                pattern.add_edge(*gate.qubits)
                a, b = (stage.placement[q] for q in gate.qubits)
                delay = environment.pair_delay(a, b)
                witness = witness and delay <= threshold
                allowed = math.isfinite(delay) if moved_after_embedding else delay <= threshold
                if not allowed:
                    problems.append(
                        f"{where}: gate on {gate.qubits!r} sits on ({a!r}, {b!r}) "
                        f"with delay {delay!r} (threshold {threshold!r})"
                    )
        if not witness and small_host and not GraphMatcher(
            threshold_graph(environment, threshold), pattern
        ).subgraph_is_monomorphic():
            problems.append(f"{where}: workspace does not embed into the threshold graph")
    if expected_start != len(gates):
        problems.append(f"stages cover gates [0, {expected_start}) of {len(gates)}")
    if len(result.swap_stages) != max(len(result.stages) - 1, 0):
        problems.append("swap stage count is not one less than the stage count")
    if problems:
        return problems

    for swap_stage, before, after in zip(
        result.swap_stages, result.stages, result.stages[1:]
    ):
        where = f"swap stage {swap_stage.index}"
        occupant = {node: qubit for qubit, node in before.placement.items()}
        for layer in swap_stage.routing.layers:
            touched: Set = set()
            for a, b in layer:
                if a in touched or b in touched:
                    problems.append(f"{where}: layer reuses a node in ({a!r}, {b!r})")
                touched.update((a, b))
                if not environment.pair_delay(a, b) <= threshold:
                    problems.append(f"{where}: swap ({a!r}, {b!r}) is above the threshold")
                qa, qb = occupant.pop(a, None), occupant.pop(b, None)
                if qa is not None:
                    occupant[b] = qa
                if qb is not None:
                    occupant[a] = qb
        reached = {qubit: node for node, qubit in occupant.items()}
        if reached != after.placement:
            problems.append(f"{where}: swaps do not carry stage {before.index} onto stage {after.index}")
    if problems:
        return problems

    assembled = QuantumCircuit(environment.nodes, name="assembled")
    for position, stage in enumerate(result.stages):
        for gate in gates[stage.start:stage.stop]:
            assembled.append(gate.remap(stage.placement))
        if position < len(result.swap_stages):
            for layer in result.swap_stages[position].routing.layers:
                for a, b in layer:
                    assembled.append(gate_library.swap(a, b))
    if list(assembled.gates) != list(result.physical_circuit.gates):
        problems.append("physical circuit differs from the independent assembly")
    identity = {node: node for node in environment.nodes}
    reference = circuit_runtime(
        assembled, identity, environment,
        apply_interaction_cap=apply_interaction_cap, validate=True,
    )
    if reference != result.total_runtime:
        problems.append(
            f"total_runtime {result.total_runtime!r} != rescheduled {reference!r}"
        )
    if result.total_runtime < runtime_lower_bound(circuit, environment):
        problems.append("total_runtime is below the placement-free lower bound")
    return problems


def has_unitaries(circuit: QuantumCircuit) -> bool:
    """Whether every gate of ``circuit`` can be simulated."""
    from repro.simulation.unitaries import gate_unitary

    try:
        for gate in circuit.gates:
            gate_unitary(gate)
    except SimulationError:
        return False
    return True


def statevector_problems(
    circuit: QuantumCircuit, environment: PhysicalEnvironment, result
) -> List[str]:
    """``verify_placement`` on hosts small enough to simulate."""
    if environment.num_qubits > MAX_VERIFY_NODES or not has_unitaries(circuit):
        return []
    report = verify_placement(circuit, result, environment)
    if report.equivalent:
        return []
    return [f"statevector check failed (worst fidelity {report.worst_fidelity:.6f})"]


def check_expectations(expect: Dict, result, circuit, environment) -> List[str]:
    """The paper's own answers attached to a job (see ``workloads.py``)."""
    problems = []
    if "runtime_seconds" in expect:
        measured = None if result is None else result.runtime_seconds
        if measured is None or abs(measured - expect["runtime_seconds"]) > 1e-9:
            problems.append(
                f"paper runtime {expect['runtime_seconds']} s, measured {measured!r}"
            )
    if "search_space" in expect:
        size = math.perm(environment.num_qubits, circuit.num_qubits)
        if size != expect["search_space"]:
            problems.append(f"search space {size} != paper {expect['search_space']}")
    if expect.get("na") and result is not None:
        problems.append("the paper reports N/A but the cell placed")
    return problems


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (0.0 for an empty sequence)."""
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
