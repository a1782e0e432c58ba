"""Equivalence tests for the bitset monomorphism enumerator.

Three independent referees keep the rewritten engine honest:

* ``networkx``'s :class:`GraphMatcher` in subgraph-monomorphism mode, for
  *counts* on random pattern/host pairs (the engines need not agree on
  order, only on the set of solutions);
* a verbatim copy of the original scan-based enumerator from the seed
  implementation, for *order*: the first ``k`` mappings must match the
  seed's deterministic enumeration exactly, because experiment
  reproducibility depends on the capped candidate list being stable;
* :func:`verify_monomorphism`, for soundness of every produced mapping.
"""

import itertools
from unittest import mock

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core._bitset import HostEncoding, encode_host
from repro.core.monomorphism import (
    _candidate_domains,
    _pattern_order,
    find_monomorphisms,
    has_monomorphism,
    iter_monomorphisms,
    verify_monomorphism,
)
from repro.core.stats import STATS

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# The seed implementation, kept verbatim as the order reference
# ---------------------------------------------------------------------------


def _seed_pattern_order(pattern):
    if pattern.number_of_nodes() == 0:
        return []
    remaining = set(pattern.nodes())
    order = []
    start = max(remaining, key=lambda n: (pattern.degree(n), repr(n)))
    order.append(start)
    remaining.remove(start)
    while remaining:
        frontier = [
            node
            for node in remaining
            if any(neighbour in order for neighbour in pattern.neighbors(node))
        ]
        pool = frontier if frontier else list(remaining)
        nxt = max(
            pool,
            key=lambda n: (
                sum(1 for nb in pattern.neighbors(n) if nb in order),
                pattern.degree(n),
                repr(n),
            ),
        )
        order.append(nxt)
        remaining.remove(nxt)
    return order


def seed_iter_monomorphisms(pattern, host, max_count=None):
    """The original (pre-bitset) enumerator, word for word."""
    if pattern.number_of_nodes() > host.number_of_nodes():
        return
    order = _seed_pattern_order(pattern)
    host_nodes = sorted(host.nodes(), key=repr)
    host_degree = dict(host.degree())
    pattern_degree = dict(pattern.degree())

    yielded = 0
    assignment = {}
    used_hosts = set()

    def backtrack(position):
        nonlocal yielded
        if max_count is not None and yielded >= max_count:
            return
        if position == len(order):
            yielded += 1
            yield dict(assignment)
            return
        pattern_node = order[position]
        mapped_neighbours = [
            assignment[nb]
            for nb in pattern.neighbors(pattern_node)
            if nb in assignment
        ]
        for host_node in host_nodes:
            if host_node in used_hosts:
                continue
            if host_degree.get(host_node, 0) < pattern_degree.get(pattern_node, 0):
                continue
            if any(not host.has_edge(host_node, image) for image in mapped_neighbours):
                continue
            assignment[pattern_node] = host_node
            used_hosts.add(host_node)
            yield from backtrack(position + 1)
            del assignment[pattern_node]
            used_hosts.remove(host_node)
            if max_count is not None and yielded >= max_count:
                return
    yield from backtrack(0)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def pattern_host_pairs(draw):
    host_seed = draw(st.integers(0, 10_000))
    pattern_seed = draw(st.integers(0, 10_000))
    host_nodes = draw(st.integers(4, 9))
    pattern_nodes = draw(st.integers(2, 5))
    host = nx.gnp_random_graph(host_nodes, draw(st.floats(0.2, 0.7)), seed=host_seed)
    pattern = nx.gnp_random_graph(
        pattern_nodes, draw(st.floats(0.3, 0.9)), seed=pattern_seed
    )
    return pattern, host


@st.composite
def order_patterns(draw):
    """Patterns for the ordering rule: often disconnected, some mixed-type labels."""
    pattern = nx.gnp_random_graph(
        draw(st.integers(0, 14)), draw(st.floats(0.0, 0.6)), seed=draw(st.integers(0, 10_000))
    )
    if draw(st.booleans()):
        labels = [lambda i: i, lambda i: f"q{i}", lambda i: ("t", i)]
        pattern = nx.relabel_nodes(pattern, {i: labels[i % 3](i) for i in pattern})
    return pattern


@st.composite
def linear_forest_packings(draw):
    """Path forests filling a small host to within 0-2 nodes.

    Zero- and near-zero-slack packings are where a component placed in
    the middle of the host strands gaps too small for the rest, the case
    the free-region pruning cuts off; random gnp patterns almost never
    reach it.  Components have 2-5 nodes, plus at most one isolated node,
    so full enumerations stay small.
    """
    kind = draw(st.sampled_from(["path", "cycle", "grid"]))
    if kind == "path":
        host = nx.path_graph(draw(st.integers(4, 10)))
    elif kind == "cycle":
        host = nx.cycle_graph(draw(st.integers(4, 9)))
    else:
        host = nx.grid_2d_graph(draw(st.integers(2, 3)), draw(st.integers(2, 3)))
    budget = host.number_of_nodes() - draw(st.integers(0, 2))
    sizes = []
    while budget - sum(sizes) >= 2:
        sizes.append(draw(st.integers(2, min(5, budget - sum(sizes)))))
    if draw(st.booleans()) and sum(sizes) < budget:
        sizes.append(1)
    labels = draw(st.permutations(range(sum(sizes))))
    pattern = nx.Graph()
    offset = 0
    for size in sizes:
        nx.add_path(pattern, labels[offset:offset + size])
        offset += size
    return pattern, host


# ---------------------------------------------------------------------------
# Count equivalence against networkx
# ---------------------------------------------------------------------------


class TestCountsAgainstNetworkx:
    @RELAXED
    @given(pattern_host_pairs())
    def test_counts_match_graphmatcher(self, pair):
        pattern, host = pair
        ours = find_monomorphisms(pattern, host, max_count=100_000)
        matcher = nx.algorithms.isomorphism.GraphMatcher(host, pattern)
        expected = sum(1 for _ in matcher.subgraph_monomorphisms_iter())
        assert len(ours) == expected
        for mapping in ours:
            assert verify_monomorphism(pattern, host, mapping)
        # Injectivity of the enumeration itself: no duplicate mappings.
        keys = {tuple(sorted(m.items())) for m in ours}
        assert len(keys) == len(ours)

    @RELAXED
    @given(pattern_host_pairs())
    def test_existence_matches_graphmatcher(self, pair):
        pattern, host = pair
        matcher = nx.algorithms.isomorphism.GraphMatcher(host, pattern)
        assert has_monomorphism(pattern, host) == matcher.subgraph_is_monomorphic()


# ---------------------------------------------------------------------------
# Order parity against the seed enumerator
# ---------------------------------------------------------------------------


class TestOrderParityWithSeed:
    @RELAXED
    @given(pattern_host_pairs(), st.integers(1, 30))
    def test_first_k_mappings_match_seed_order(self, pair, k):
        pattern, host = pair
        ours = list(iter_monomorphisms(pattern, host, max_count=k))
        reference = list(seed_iter_monomorphisms(pattern, host, max_count=k))
        assert ours == reference

    def test_full_enumeration_order_on_molecule_host(self, crotonic):
        host = crotonic.adjacency_graph(200.0)
        for pattern in (nx.path_graph(4), nx.star_graph(3), nx.cycle_graph(4)):
            ours = list(iter_monomorphisms(pattern, host))
            reference = list(seed_iter_monomorphisms(pattern, host))
            assert ours == reference

    def test_unbounded_equals_seed_on_complete_host(self):
        pattern = nx.path_graph(3)
        host = nx.complete_graph(5)
        assert list(iter_monomorphisms(pattern, host)) == list(
            seed_iter_monomorphisms(pattern, host)
        )


# ---------------------------------------------------------------------------
# Pattern order and free-region pruning
# ---------------------------------------------------------------------------


class TestPatternOrder:
    @settings(max_examples=150, deadline=None)
    @given(order_patterns())
    def test_heap_order_matches_seed_rescans(self, pattern):
        assert _pattern_order(pattern) == _seed_pattern_order(pattern)

    def test_disconnected_mixed_label_pattern(self):
        pattern = nx.Graph([("a", (1, 2)), ((1, 2), 3), (3, "a"), (7.5, "z")])
        nx.add_star(pattern, [("hub",), "x", "y", "w"])
        pattern.add_nodes_from(["lone", 0])
        order = _pattern_order(pattern)
        assert order == _seed_pattern_order(pattern)
        assert sorted(map(repr, order)) == sorted(map(repr, pattern.nodes()))

    def test_components_take_contiguous_positions(self):
        pattern = nx.disjoint_union_all(
            [nx.path_graph(3), nx.star_graph(3), nx.cycle_graph(5), nx.empty_graph(1)]
        )
        component_of = {
            node: index
            for index, component in enumerate(nx.connected_components(pattern))
            for node in component
        }
        runs = [component_of[node] for node in _pattern_order(pattern)]
        changes = [i for i in range(1, len(runs)) if runs[i] != runs[i - 1]]
        assert len(changes) == 3  # four components, each in one run


def _unpruned():
    """Disable the free-region pruning (the degree prunings stay on)."""
    return mock.patch(
        "repro.core.monomorphism._free_space_suffices", lambda *args: True
    )


class TestFreeRegionPruning:
    @settings(max_examples=60, deadline=None)
    @given(linear_forest_packings(), st.sampled_from([None, 1, 100]))
    def test_packing_order_matches_seed(self, packing, max_count):
        pattern, host = packing
        ours = list(iter_monomorphisms(pattern, host, max_count=max_count))
        assert ours == list(seed_iter_monomorphisms(pattern, host, max_count=max_count))

    def test_pruning_removes_only_dead_subtrees(self):
        fired = 0
        cases = [
            (nx.path_graph(n), sizes)
            for n, sizes in [(9, [3, 3, 3]), (10, [2, 3, 5]), (8, [4, 4]), (11, [2, 2, 3, 4])]
        ] + [
            (nx.cycle_graph(8), [3, 5]),
            (nx.grid_2d_graph(3, 3), [3, 3, 3]),
            (nx.grid_2d_graph(2, 4), [2, 2, 4]),
        ]
        for host, sizes in cases:
            pattern = nx.disjoint_union_all([nx.path_graph(size) for size in sizes])
            before = STATS.snapshot()
            pruned = list(iter_monomorphisms(pattern, host))
            pruned_nodes = STATS.delta_since(before)["monomorphism.nodes_explored"]
            with _unpruned():
                before = STATS.snapshot()
                full = list(iter_monomorphisms(pattern, host))
                full_nodes = STATS.delta_since(before)["monomorphism.nodes_explored"]
            assert pruned == full
            assert pruned_nodes <= full_nodes
            fired += pruned_nodes < full_nodes
        assert fired >= 5

    def test_zero_slack_chain_refutes_without_enumerating_placements(self):
        # Three 3-paths and a 4-path fill a 13-node chain exactly: a path
        # placed away from the packed prefix strands a gap too small for
        # the rest, and without the pruning the search tries every
        # placement of the later paths before it backtracks.
        pattern = nx.disjoint_union_all([nx.path_graph(s) for s in (4, 3, 3, 3)])
        host = nx.path_graph(13)
        before = STATS.snapshot()
        assert has_monomorphism(pattern, host)
        pruned = STATS.delta_since(before)["monomorphism.nodes_explored"]
        with _unpruned():
            before = STATS.snapshot()
            assert has_monomorphism(pattern, host)
            full = STATS.delta_since(before)["monomorphism.nodes_explored"]
        assert pruned < full


# ---------------------------------------------------------------------------
# Mixed node types (the repr-keyed index table must not choke or reorder)
# ---------------------------------------------------------------------------


class TestMixedNodeTypes:
    def _mixed_host(self):
        # Integers, strings and tuples as node labels in one host graph:
        # sorting such nodes directly would raise TypeError; the engine's
        # repr-keyed node-index table must handle them.
        host = nx.Graph()
        host.add_edges_from(
            [
                (0, "a"),
                ("a", (1, 2)),
                ((1, 2), 7),
                (7, "b"),
                ("b", 0),
                ((1, 2), "a-b"),
            ]
        )
        return host

    def test_mixed_node_host_enumerates(self):
        host = self._mixed_host()
        pattern = nx.path_graph(3)
        mappings = find_monomorphisms(pattern, host, max_count=50)
        assert mappings
        for mapping in mappings:
            assert verify_monomorphism(pattern, host, mapping)

    def test_mixed_node_order_matches_seed(self):
        host = self._mixed_host()
        for pattern in (nx.path_graph(3), nx.star_graph(2), nx.cycle_graph(3)):
            assert list(iter_monomorphisms(pattern, host)) == list(
                seed_iter_monomorphisms(pattern, host)
            )

    def test_mixed_node_pattern(self):
        pattern = nx.Graph([(("x",), "y"), ("y", 3)])
        host = self._mixed_host()
        mappings = find_monomorphisms(pattern, host, max_count=10)
        for mapping in mappings:
            assert verify_monomorphism(pattern, host, mapping)
        assert mappings == list(seed_iter_monomorphisms(pattern, host, max_count=10))


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


class TestSearchCounters:
    def test_nodes_explored_counter_advances(self):
        before = STATS.snapshot()
        find_monomorphisms(nx.path_graph(3), nx.complete_graph(5), max_count=10)
        delta = STATS.delta_since(before)
        assert delta.get("monomorphism.searches", 0) == 1
        assert delta.get("monomorphism.nodes_explored", 0) > 0
        assert delta.get("monomorphism.mappings_yielded", 0) == 10

    def test_counters_flushed_on_early_break(self):
        before = STATS.snapshot()
        iterator = iter_monomorphisms(nx.path_graph(2), nx.complete_graph(6))
        next(iterator)
        iterator.close()  # abandoning the generator must still flush counts
        delta = STATS.delta_since(before)
        assert delta.get("monomorphism.mappings_yielded", 0) == 1


# ---------------------------------------------------------------------------
# Candidate domains: profile classes + memo vs a per-node scan
# ---------------------------------------------------------------------------


def reference_domains(pattern, order, encoding):
    """The per-host-node domain scan the profile classes replace."""
    domains = []
    for pattern_node in order:
        pattern_degree = pattern.degree(pattern_node)
        pattern_profile = sorted(
            (pattern.degree(nb) for nb in pattern.neighbors(pattern_node)),
            reverse=True,
        )
        mask = 0
        for i in range(encoding.num_nodes):
            if encoding.degree[i] < pattern_degree:
                continue
            host_profile = encoding.neighbor_degrees[i]
            if any(
                host_profile[t] < pattern_profile[t] for t in range(pattern_degree)
            ):
                continue
            mask |= 1 << i
        domains.append(mask)
    return domains


@st.composite
def domain_pattern_host_pairs(draw):
    """Hosts with repeated degree profiles (lattices) and irregular ones."""
    kind = draw(st.sampled_from(["gnp", "grid", "hex", "regular"]))
    seed = draw(st.integers(0, 10_000))
    if kind == "grid":
        host = nx.grid_2d_graph(draw(st.integers(1, 6)), draw(st.integers(2, 6)))
    elif kind == "hex":
        host = nx.hexagonal_lattice_graph(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    elif kind == "regular":
        host = nx.random_regular_graph(3, 2 * draw(st.integers(2, 6)), seed=seed)
    else:
        host = nx.gnp_random_graph(draw(st.integers(1, 14)), draw(st.floats(0.1, 0.8)), seed=seed)
    pattern = nx.gnp_random_graph(
        draw(st.integers(1, 7)), draw(st.floats(0.2, 0.9)), seed=draw(st.integers(0, 10_000))
    )
    return pattern, host


class TestCandidateDomains:
    @RELAXED
    @given(domain_pattern_host_pairs(), domain_pattern_host_pairs())
    def test_class_domains_equal_per_node_scan(self, first, second):
        # A fresh encoding, then a second pattern against the same (now
        # partly memoised) encoding, then the first pattern again.
        pattern, host = first
        other = second[0]
        encoding = HostEncoding(host)
        for current in (pattern, other, pattern):
            order = _pattern_order(current)
            expected = reference_domains(current, order, encoding)
            assert _candidate_domains(current, order, encoding) == expected

    def test_profile_classes_partition_the_host(self):
        encoding = HostEncoding(nx.grid_2d_graph(32, 32))
        # Corner, edge-next-to-corner, edge, next-to-edge-corner, interior...
        assert len(encoding.profile_classes) < 10
        masks = [mask for _, mask in encoding.profile_classes]
        assert sum(bin(mask).count("1") for mask in masks) == encoding.num_nodes
        union = 0
        for mask in masks:
            assert union & mask == 0
            union |= mask
        assert union == encoding.full_mask

    def test_in_place_mutation_gets_fresh_classes_and_memo(self):
        host = nx.path_graph(6)
        star = nx.star_graph(3)  # needs a host node of degree 3
        stale = encode_host(host)
        order = _pattern_order(star)
        assert _candidate_domains(star, order, stale)[0] == 0
        assert find_monomorphisms(star, host) == []

        host.add_edges_from([(2, 5), (2, 0)])  # node 2 now has degree 4
        fresh = encode_host(host)
        assert fresh is not stale
        assert fresh.matches(host) and not stale.matches(host)
        assert fresh.profile_classes != stale.profile_classes
        domains = _candidate_domains(star, order, fresh)
        assert domains == reference_domains(star, order, fresh)
        assert domains[0] == 1 << fresh.index[2]
        assert list(iter_monomorphisms(star, host)) == list(
            seed_iter_monomorphisms(star, host)
        )
        assert find_monomorphisms(star, host)
