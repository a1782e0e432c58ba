"""Unit tests for balanced connected bisection and separability."""

import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core._bitset import node_index_table
from repro.exceptions import RoutingError
from repro.registry import load_environment
from repro.routing.separators import (
    _bfs_tree_edges,
    _bisection_from_parts,
    _dfs_tree_edges,
    _refine_by_moving_boundary,
    balanced_connected_bisection,
    degree_separability_bound,
    recursive_bisections,
    separability,
)


def _is_valid_bisection(graph, bisection):
    part_one, part_two = set(bisection.part_one), set(bisection.part_two)
    assert part_one | part_two == set(graph.nodes())
    assert not part_one & part_two
    assert nx.is_connected(graph.subgraph(part_one))
    assert nx.is_connected(graph.subgraph(part_two))
    return True


class TestBisection:
    def test_path_graph_split_in_half(self):
        graph = nx.path_graph(8)
        bisection = balanced_connected_bisection(graph)
        assert _is_valid_bisection(graph, bisection)
        assert bisection.balance == 0

    def test_odd_path_split_off_by_one(self):
        graph = nx.path_graph(7)
        bisection = balanced_connected_bisection(graph)
        assert _is_valid_bisection(graph, bisection)
        assert bisection.balance == 1

    def test_cycle_graph(self):
        graph = nx.cycle_graph(10)
        bisection = balanced_connected_bisection(graph)
        assert _is_valid_bisection(graph, bisection)
        assert bisection.ratio >= 0.5

    def test_grid_graph(self):
        graph = nx.convert_node_labels_to_integers(nx.grid_2d_graph(4, 4))
        bisection = balanced_connected_bisection(graph)
        assert _is_valid_bisection(graph, bisection)
        assert bisection.ratio >= 0.5

    def test_star_graph_ratio_matches_bound(self):
        graph = nx.star_graph(6)  # center 0, leaves 1..6
        bisection = balanced_connected_bisection(graph)
        assert _is_valid_bisection(graph, bisection)
        # Only a single leaf can be split off a star.
        assert len(bisection.part_two) == 1

    def test_channel_edges_cross_the_cut(self):
        graph = nx.path_graph(6)
        bisection = balanced_connected_bisection(graph)
        for a, b in bisection.channel_edges:
            assert (a in bisection.part_one) != (b in bisection.part_one)

    def test_crotonic_acid_cut_matches_figure3(self, crotonic):
        graph = crotonic.adjacency_graph(100.0)
        bisection = balanced_connected_bisection(graph)
        parts = {frozenset(bisection.part_one), frozenset(bisection.part_two)}
        assert frozenset({"C3", "C4", "H2"}) in parts or frozenset({"M", "C1", "H1"}) in parts or bisection.balance <= 1

    def test_single_node_rejected(self):
        with pytest.raises(RoutingError):
            balanced_connected_bisection(nx.path_graph(1))

    def test_disconnected_graph_rejected(self):
        graph = nx.Graph([(0, 1), (2, 3)])
        with pytest.raises(RoutingError):
            balanced_connected_bisection(graph)


class TestSeparability:
    def test_single_node_is_perfectly_separable(self):
        assert separability(nx.path_graph(1)) == 1.0

    def test_chain_separability_at_least_half(self):
        assert separability(nx.path_graph(16)) >= 0.5

    def test_grid_separability_at_least_half(self):
        graph = nx.convert_node_labels_to_integers(nx.grid_2d_graph(4, 4))
        assert separability(graph) >= 0.5

    def test_crotonic_separability_is_half(self, crotonic):
        """The paper: liquid-state NMR molecules have s = 1/2."""
        graph = crotonic.adjacency_graph(100.0)
        assert separability(graph) == pytest.approx(0.5)

    def test_separability_never_below_degree_bound(self):
        for graph in (
            nx.path_graph(9),
            nx.cycle_graph(7),
            nx.star_graph(5),
            nx.convert_node_labels_to_integers(nx.grid_2d_graph(3, 5)),
        ):
            assert separability(graph) >= degree_separability_bound(graph) - 1e-12

    def test_recursive_bisections_cover_whole_graph(self):
        graph = nx.path_graph(8)
        bisections = recursive_bisections(graph)
        # A binary recursion over 8 nodes performs 7 cuts.
        assert len(bisections) == 7

    def test_degree_bound_values(self):
        assert degree_separability_bound(nx.path_graph(5)) == pytest.approx(0.5)
        assert degree_separability_bound(nx.star_graph(4)) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# The one-pass spanning-tree cut against the remove-edge reference
# ---------------------------------------------------------------------------


def _reference_tree_edge_split(graph, tree, order):
    """The per-edge remove / ``connected_components`` scan, kept as the reference."""
    total = graph.number_of_nodes()
    best = None
    for edge in list(tree.edges()):
        tree.remove_edge(*edge)
        components = list(nx.connected_components(tree))
        tree.add_edge(*edge)
        if len(components) != 2:
            continue
        part_a, part_b = components
        candidate = _bisection_from_parts(graph, set(part_a), set(part_b), order)
        if best is None or abs(candidate.balance) < abs(best.balance):
            best = candidate
        if best.balance <= total % 2:
            break
    return best


def reference_bisection(graph):
    """``balanced_connected_bisection`` as it was with networkx spanning trees."""
    order = node_index_table(graph.nodes())
    nodes = sorted(graph.nodes(), key=order.__getitem__)
    best = None
    for root in dict.fromkeys([nodes[0], nodes[len(nodes) // 2], nodes[-1]]):
        for tree_builder in (_bfs_tree_edges, _dfs_tree_edges):
            tree = nx.Graph(tree_builder(graph, root, order))
            tree.add_nodes_from(nodes)
            candidate = _reference_tree_edge_split(graph, tree, order)
            if best is None or abs(candidate.balance) < abs(best.balance):
                best = candidate
    return _refine_by_moving_boundary(graph, best, order)


def _assert_same_recursion(graph):
    stack = [graph]
    while stack:
        current = stack.pop()
        if current.number_of_nodes() < 2:
            continue
        ours = balanced_connected_bisection(current)
        expected = reference_bisection(current)
        assert ours.part_one == expected.part_one
        assert ours.part_two == expected.part_two
        assert ours.channel_edges == expected.channel_edges
        stack.append(graph.subgraph(ours.part_one).copy())
        stack.append(graph.subgraph(ours.part_two).copy())


@st.composite
def connected_graphs(draw):
    kind = draw(st.sampled_from(["tree", "grid", "ring", "small-world", "gnp"]))
    seed = draw(st.integers(0, 10_000))
    size = draw(st.integers(2, 24))
    if kind == "tree":
        rng = random.Random(seed)
        graph = nx.Graph()
        graph.add_node(0)
        for node in range(1, size):
            graph.add_edge(node, rng.randrange(node))
    elif kind == "grid":
        graph = nx.grid_2d_graph(draw(st.integers(1, 5)), draw(st.integers(2, 6)))
    elif kind == "ring":
        graph = nx.cycle_graph(max(3, size))
    elif kind == "small-world":
        graph = nx.connected_watts_strogatz_graph(max(5, size), 4, 0.3, seed=seed)
    else:
        graph = nx.gnp_random_graph(size, 0.25, seed=seed)
        graph = graph.subgraph(max(nx.connected_components(graph), key=len)).copy()
        if graph.number_of_nodes() < 2:
            graph = nx.path_graph(2)
    if draw(st.booleans()):
        # Shuffled insertion order and mixed labels: only the canonical
        # node order may decide the cut.
        labels = {node: [node, f"n{index}", ("t", index)][index % 3]
                  for index, node in enumerate(graph.nodes())}
        edges = [(labels[a], labels[b]) for a, b in graph.edges()]
        random.Random(seed).shuffle(edges)
        graph = nx.Graph(edges)
    return graph


class TestOnePassTreeSplit:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(connected_graphs())
    def test_matches_remove_edge_reference(self, graph):
        _assert_same_recursion(graph)

    @pytest.mark.parametrize(
        "spec, threshold",
        [
            ("chain:17", 10.0),
            ("ring:12", 10.0),
            ("grid:5x6", 10.0),
            ("heavy-hex:3", 10.0),
            ("star:7", 10.0),
            ("complete:6", 10.0),
            ("trans-crotonic-acid", 100.0),
            ("histidine", 200.0),
            ("boc-glycine-fluoride", 200.0),
        ],
    )
    def test_library_architectures_match_reference(self, spec, threshold):
        environment = load_environment(spec)
        graph = environment.largest_component_graph(threshold)
        assert graph.number_of_nodes() >= 2
        _assert_same_recursion(graph)
