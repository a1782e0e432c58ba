"""Unit tests for greedy workspace extraction."""

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import gates as g
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import qft_circuit
from repro.core._bitset import encode_host
from repro.core.stats import STATS
from repro.core.workspace import _embeds, extract_workspaces, workspace_boundaries
from repro.exceptions import PlacementError
from repro.registry import load_circuit, load_environment


@pytest.fixture
def chain_host():
    return nx.path_graph(4)  # 0-1-2-3


class TestExtraction:
    def test_single_workspace_when_circuit_fits(self, chain_host):
        circuit = QuantumCircuit(
            ["a", "b", "c"], [g.zz("a", "b"), g.zz("b", "c"), g.zz("a", "b")]
        )
        workspaces = extract_workspaces(circuit, chain_host)
        assert len(workspaces) == 1
        assert workspaces[0].start == 0
        assert workspaces[0].stop == 3

    def test_star_interaction_splits_on_chain_host(self, chain_host):
        # A degree-3 star cannot embed in a path (max degree 2).
        circuit = QuantumCircuit(
            ["a", "b", "c", "d"],
            [g.zz("a", "b"), g.zz("a", "c"), g.zz("a", "d")],
        )
        workspaces = extract_workspaces(circuit, chain_host)
        assert len(workspaces) == 2
        assert workspaces[0].stop == 2
        assert workspaces[1].start == 2

    def test_workspaces_partition_the_gate_sequence(self, chain_host):
        circuit = qft_circuit(4)
        workspaces = extract_workspaces(circuit, chain_host)
        assert workspaces[0].start == 0
        assert workspaces[-1].stop == circuit.num_gates
        for previous, current in zip(workspaces, workspaces[1:]):
            assert previous.stop == current.start

    def test_each_workspace_embeds(self, chain_host):
        from repro.core.monomorphism import has_monomorphism

        circuit = qft_circuit(4)
        for workspace in extract_workspaces(circuit, chain_host):
            assert has_monomorphism(workspace.interaction_graph, chain_host)

    def test_single_qubit_gates_do_not_split(self, chain_host):
        circuit = QuantumCircuit(
            ["a", "b"], [g.ry("a"), g.zz("a", "b"), g.ry("b"), g.ry("a")]
        )
        assert len(extract_workspaces(circuit, chain_host)) == 1

    def test_circuit_without_two_qubit_gates(self, chain_host):
        circuit = QuantumCircuit(["a", "b"], [g.ry("a"), g.ry("b")])
        workspaces = extract_workspaces(circuit, chain_host)
        assert len(workspaces) == 1
        assert workspaces[0].num_two_qubit_gates == 0

    def test_empty_adjacency_graph_rejected(self):
        circuit = QuantumCircuit(["a", "b"], [g.zz("a", "b")])
        with pytest.raises(PlacementError):
            extract_workspaces(circuit, nx.empty_graph(3))

    def test_qft6_on_crotonic_bond_graph_needs_multiple_workspaces(self, crotonic):
        """The QFT interaction graph is complete; the bond tree cannot host it whole."""
        host = crotonic.adjacency_graph(100.0)
        workspaces = extract_workspaces(qft_circuit(6), host)
        assert len(workspaces) > 1

    def test_odd_cycle_pattern_refuted_on_bipartite_host(self):
        # A triangle cannot embed in a bipartite host (any subgraph of a
        # bipartite graph is bipartite), so the candidate must close the
        # workspace — via the O(V+E) parity shortcut, not a search.
        host = nx.grid_2d_graph(6, 6)
        circuit = QuantumCircuit(
            ["a", "b", "c"],
            [g.zz("a", "b"), g.zz("b", "c"), g.zz("a", "c")],
        )
        workspaces = extract_workspaces(circuit, host)
        assert len(workspaces) == 2
        assert workspaces[0].stop == 2

    def test_random_pattern_extraction_terminates_on_large_grid(self):
        # Regression: refuting an odd-cycle candidate pattern by search on
        # a 1024-node grid effectively never terminated; the bipartite
        # parity shortcut refutes it instantly.
        from repro.registry import load_circuit, load_environment

        circuit = load_circuit("random:24x72x11")
        host = load_environment("grid:32x32").adjacency_graph(10.0)
        workspaces = extract_workspaces(circuit, host)
        assert workspaces[0].start == 0
        assert workspaces[-1].stop == circuit.num_gates

    def test_repeated_interactions_do_not_grow_the_pattern(self, chain_host):
        circuit = QuantumCircuit(
            ["a", "b"], [g.zz("a", "b") for _ in range(10)]
        )
        workspaces = extract_workspaces(circuit, chain_host)
        assert len(workspaces) == 1
        assert workspaces[0].interaction_graph.number_of_edges() == 1


class TestWorkspaceObject:
    def test_active_qubits(self, chain_host):
        circuit = QuantumCircuit(
            ["a", "b", "c"], [g.ry("c"), g.zz("a", "b")]
        )
        workspace = extract_workspaces(circuit, chain_host)[0]
        assert set(workspace.active_qubits) == {"a", "b"}

    def test_subcircuit_round_trip(self, chain_host):
        circuit = qft_circuit(4)
        workspaces = extract_workspaces(circuit, chain_host)
        total = sum(ws.subcircuit(circuit).num_gates for ws in workspaces)
        assert total == circuit.num_gates

    def test_boundaries(self, chain_host):
        circuit = QuantumCircuit(
            ["a", "b", "c", "d"],
            [g.zz("a", "b"), g.zz("a", "c"), g.zz("a", "d")],
        )
        workspaces = extract_workspaces(circuit, chain_host)
        assert workspace_boundaries(workspaces) == [2]


# ---------------------------------------------------------------------------
# Witness carry against a fresh probe per interaction
# ---------------------------------------------------------------------------


def fresh_probe_workspaces(circuit, host, max_two_qubit_gates=None):
    """The greedy scan with one embeddability search per new interaction.

    Returns ``(start, stop, nodes, edges)`` per workspace; the reference
    for the witness-carrying scan, which must close at the same gates.
    """
    encoding = encode_host(host)
    bipartite = nx.is_bipartite(host)
    slices = []
    graph = nx.Graph()
    start = count = 0

    def close(stop):
        nonlocal graph, start, count
        if stop > start:
            slices.append((start, stop, list(graph.nodes()), list(graph.edges())))
            start, graph, count = stop, nx.Graph(), 0

    for position, gate in enumerate(circuit.gates):
        if not gate.is_two_qubit:
            continue
        a, b = gate.interaction()
        if max_two_qubit_gates is not None and count >= max_two_qubit_gates:
            close(position)
        if graph.has_edge(a, b):
            count += 1
            continue
        candidate = graph.copy()
        candidate.add_edge(a, b)
        if _embeds(candidate, host, encoding, bipartite):
            graph = candidate
            count += 1
            continue
        close(position)
        graph.add_edge(a, b)
        count = 1
        assert _embeds(graph, host, encoding, bipartite)
    close(len(circuit.gates))
    return slices


HOSTS = {
    "chain": lambda: load_environment("chain:7").adjacency_graph(10.0),
    "ring": lambda: load_environment("ring:8").adjacency_graph(10.0),
    "grid": lambda: load_environment("grid:3x3").adjacency_graph(10.0),
    "star": lambda: load_environment("star:6").adjacency_graph(10.0),
    "molecule": lambda: load_environment("trans-crotonic-acid").adjacency_graph(100.0),
}


class TestWitnessCarry:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.sampled_from(sorted(HOSTS)),
        st.sampled_from([None, 1, 3]),
        st.sampled_from(["random", "random-chain"]),
        st.integers(2, 6),
        st.integers(1, 40),
        st.integers(0, 10_000),
    )
    def test_matches_fresh_probes(self, host_name, cap, family, qubits, gates, seed):
        host = HOSTS[host_name]()
        circuit = load_circuit(f"{family}:{qubits}x{gates}x{seed}")
        before = STATS.snapshot()
        expected = fresh_probe_workspaces(circuit, host, cap)
        reference_searches = STATS.delta_since(before).get("monomorphism.searches", 0)
        before = STATS.snapshot()
        workspaces = extract_workspaces(circuit, host, cap)
        searches = STATS.delta_since(before).get("monomorphism.searches", 0)
        assert [
            (w.start, w.stop, list(w.interaction_graph.nodes()),
             list(w.interaction_graph.edges()))
            for w in workspaces
        ] == expected
        assert searches <= reference_searches

    def test_carried_interactions_skip_the_search(self):
        # A nearest-neighbour ladder on a chain extends the first proven
        # embedding edge by edge: one workspace and no search at all.
        circuit = QuantumCircuit(
            list("abcde"),
            [g.zz("a", "b"), g.zz("b", "c"), g.zz("c", "d"), g.zz("d", "e")],
        )
        before = STATS.snapshot()
        workspaces = extract_workspaces(circuit, nx.path_graph(6))
        assert len(workspaces) == 1
        assert STATS.delta_since(before).get("monomorphism.searches", 0) == 0

    def test_closing_a_workspace_resets_the_carry(self):
        # With one gate per workspace on a one-edge host, each workspace's
        # edge fits only once the previous workspace's images are freed.
        circuit = QuantumCircuit(
            list("abcd"), [g.zz("a", "b"), g.zz("c", "d"), g.zz("a", "c")]
        )
        before = STATS.snapshot()
        workspaces = extract_workspaces(circuit, nx.path_graph(2), 1)
        assert workspace_boundaries(workspaces) == [1, 2]
        assert STATS.delta_since(before).get("monomorphism.searches", 0) == 0

    def test_recorded_packing_blow_up_stays_within_budget(self):
        # hidden-stage:32x441001 on chain:32 used to explore 45,045,594
        # search nodes (tens of seconds): zero-slack packings of path
        # components whose first component, placed mid-chain, stranded
        # gaps too small for the rest.  The boundaries are those recorded
        # before the free-region pruning and the witness carry.
        circuit = load_circuit("hidden-stage:32x441001")
        host = load_environment("chain:32").adjacency_graph(10.0)
        before = STATS.snapshot()
        workspaces = extract_workspaces(circuit, host)
        explored = STATS.delta_since(before)["monomorphism.nodes_explored"]
        assert workspace_boundaries(workspaces) == [160, 320, 480, 640]
        assert workspaces[-1].stop == circuit.num_gates
        assert explored < 2_000_000
