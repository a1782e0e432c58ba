"""Equivalence of the environment's sparse graph builders with a dense scan.

``adjacency_graph``, ``to_networkx``, ``finite_pairs`` and
``minimal_connecting_threshold`` walk only the explicit pairs while the
default delay is not admitted.  Every result must still equal — down to
node, edge and adjacency-dict order — what the straightforward nested loop
over all node pairs produces, because downstream traversals (workspace
probes, routing, tie-breaks) iterate those dicts.  The references below are
that nested loop, written out here independently of the library.
"""

import math

import networkx as nx
import pytest

from repro.exceptions import EnvironmentError_
from repro.hardware.architectures import linear_chain
from repro.hardware.environment import PhysicalEnvironment
from repro.hardware.molecules import MOLECULE_FACTORIES
from repro.registry import load_environment

# ---------------------------------------------------------------------------
# Dense references: the O(n^2) nested loop over declaration-order pairs
# ---------------------------------------------------------------------------


def _dense_pairs(env, admit):
    nodes = env.nodes
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            delay = env.pair_delay(a, b)
            if admit(delay):
                yield a, b, delay


def _dense_graph(env, admit, name):
    graph = nx.Graph(name=name)
    for node in env.nodes:
        graph.add_node(node, delay=env.single_qubit_delay(node))
    for a, b, delay in _dense_pairs(env, admit):
        graph.add_edge(a, b, delay=delay)
    return graph


def _dense_finite_pairs(env):
    result = {}
    for a, b, delay in _dense_pairs(env, math.isfinite):
        result[(a, b) if repr(a) <= repr(b) else (b, a)] = delay
    return result


def _dense_minimal_threshold(env):
    """The bottleneck edge of networkx's MST, or None where none exists."""
    graph = _dense_graph(env, math.isfinite, env.name)
    if graph.number_of_edges() == 0 or not nx.is_connected(graph):
        return None
    tree = nx.minimum_spanning_tree(graph, weight="delay")
    return max(data["delay"] for _, _, data in tree.edges(data=True))


def _layout(graph):
    """Everything a traversal can observe about a graph, in order."""
    return (
        dict(graph.graph),
        list(graph.nodes(data=True)),
        list(graph.edges(data=True)),
        [list(graph.adj[node]) for node in graph],
    )


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------


def _mixed_labels():
    # Declaration order (b, (2, 1), a, (0, 1), c) differs from repr order
    # (a, b, c, (0, 1), (2, 1)), pairs are given in both orientations, one
    # explicit pair is infinite and the default is finite.
    single = {"b": 2.0, (2, 1): 1.0, "a": 3.0, (0, 1): 1.5, "c": 1.0}
    pairs = {
        ((0, 1), "b"): 20.0,
        ("a", "b"): 10.0,
        ("c", (2, 1)): 30.0,
        ((2, 1), "a"): 10.0,
        ("c", "a"): math.inf,
    }
    return PhysicalEnvironment(single, pairs, default_pair_delay=500.0, name="mixed")


def _sparse_strings():
    # Infinite default, so only explicit pairs are ever edges.
    single = {"q10": 1.0, "q2": 1.0, "q1": 1.0, "q3": 1.0}
    pairs = {
        ("q1", "q10"): 7.0,
        ("q3", "q2"): 5.0,
        ("q2", "q10"): 9.0,
        ("q3", "q1"): math.inf,
    }
    return PhysicalEnvironment(single, pairs, name="strings")


ENVIRONMENTS = {
    **{
        spec: (lambda spec=spec: load_environment(spec))
        for spec in (
            "grid:4x5",
            "grid:1x7",
            "ring:9",
            "heavy-hex:3",
            "star:8",
            "complete:6",
            "chain:6",
        )
    },
    **MOLECULE_FACTORIES,
    "chain-finite-default": lambda: linear_chain(6, slow_pair_delay=250.0),
    "mixed-labels": _mixed_labels,
    "sparse-strings": _sparse_strings,
}


def _thresholds(env):
    values = sorted(set(env.explicit_pairs().values()) | {env.default_pair_delay})
    finite = [value for value in values if math.isfinite(value)]
    between = [value + 0.5 for value in finite]
    return sorted(set([0.0, -1.0, math.inf] + values + between))


@pytest.fixture(params=sorted(ENVIRONMENTS))
def env(request):
    return ENVIRONMENTS[request.param]()


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestSparseBuildersMatchDenseScan:
    def test_adjacency_graph_at_every_threshold(self, env):
        thresholds = _thresholds(env)
        # At least one threshold admits the defaulted pairs (dense path).
        assert any(env.default_pair_delay <= t for t in thresholds)
        for threshold in thresholds:
            env.invalidate_caches()  # the graph name records the threshold
            ours = env.adjacency_graph(threshold)
            reference = _dense_graph(
                env, lambda delay: delay <= threshold, f"{env.name}@{threshold:g}"
            )
            assert _layout(ours) == _layout(reference), threshold

    @pytest.mark.parametrize("include_infinite", [False, True])
    def test_to_networkx(self, env, include_infinite):
        admit = (lambda delay: True) if include_infinite else math.isfinite
        assert _layout(env.to_networkx(include_infinite)) == _layout(
            _dense_graph(env, admit, env.name)
        )

    def test_finite_pairs_including_key_order(self, env):
        ours = env.finite_pairs()
        reference = _dense_finite_pairs(env)
        assert list(ours.items()) == list(reference.items())

    def test_delay_values(self, env):
        assert env.delay_values() == sorted(set(_dense_finite_pairs(env).values()))

    def test_minimal_connecting_threshold(self, env):
        expected = _dense_minimal_threshold(env)
        if expected is None:
            with pytest.raises(EnvironmentError_):
                env.minimal_connecting_threshold()
        else:
            assert env.minimal_connecting_threshold() == expected


class TestMinimalThresholdRaisesLikeTheMst:
    @pytest.mark.parametrize(
        "single, pairs, default",
        [
            ({"x": 1.0}, {}, math.inf),  # one node: no edge at all
            ({"x": 1.0}, {}, 5.0),
            ({0: 1.0, 1: 1.0, 2: 1.0}, {}, math.inf),  # no finite pair
            ({0: 1.0, 1: 1.0}, {(0, 1): math.inf}, math.inf),
            ({0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}, {(0, 1): 3.0, (3, 2): 4.0}, math.inf),
        ],
    )
    def test_no_connected_finite_graph(self, single, pairs, default):
        env = PhysicalEnvironment(single, pairs, default_pair_delay=default)
        assert _dense_minimal_threshold(env) is None
        with pytest.raises(EnvironmentError_, match="no connected finite-delay graph"):
            env.minimal_connecting_threshold()

    def test_bottleneck_with_finite_default(self):
        # The default (40) is cheaper than joining the two explicit islands
        # through the 90 pair, so the bottleneck is the default delay.
        single = {n: 1.0 for n in range(4)}
        pairs = {(0, 1): 3.0, (2, 3): 4.0, (1, 2): 90.0}
        env = PhysicalEnvironment(single, pairs, default_pair_delay=40.0)
        assert env.minimal_connecting_threshold() == 40.0
        assert _dense_minimal_threshold(env) == 40.0

    def test_cached_until_recalibration(self):
        env = load_environment("chain:5")
        assert env.minimal_connecting_threshold() == 10.0
        env.set_pair_delay(2, 3, 70.0)
        assert env.minimal_connecting_threshold() == 70.0
        assert _dense_minimal_threshold(env) == 70.0


def test_large_grid_layout_matches_dense_scan():
    """The 1024-node grid of the large-host benchmark, at its default threshold."""
    env = load_environment("grid:32x32")
    threshold = env.minimal_connecting_threshold()
    reference = _dense_graph(
        env, lambda delay: delay <= threshold, f"{env.name}@{threshold:g}"
    )
    assert _layout(env.adjacency_graph(threshold)) == _layout(reference)
    assert list(env.finite_pairs()) == list(_dense_finite_pairs(env))
