"""Subgraph monomorphism enumeration (the VFLib role of the original code).

The original implementation used the VFLib graph matching library to align a
subcircuit's interaction graph with the adjacency graph of fast physical
interactions.  This module provides a self-contained backtracking enumerator
with the same contract:

* a *monomorphism* is an injective map from pattern nodes to host nodes that
  sends every pattern edge to a host edge (the host may have extra edges —
  this is subgraph monomorphism, not induced-subgraph isomorphism);
* enumeration is capped (the paper uses ``k = 100`` candidate mappings per
  workspace) and deterministic, so experiments are reproducible.

The search itself runs over integer bitmasks (:mod:`repro.core._bitset`):
the host is relabelled to contiguous ints once (and cached per graph), its
adjacency is stored as one Python-int mask per node, and every backtracking
step computes the candidate set for the next pattern node with a handful of
``&`` operations instead of a ``for host_node in host_nodes`` scan with
``has_edge`` calls.  Per-pattern-node candidate *domains* are precomputed
from two sound necessary conditions — host degree at least the pattern
degree, and the host neighbourhood's degree multiset dominating the pattern
neighbourhood's — so impossible candidates never enter the search at all.

A third pruning works on free space.  The pattern order places each
connected component of the pattern in one contiguous run of positions, so
a position with no placed neighbour starts a new component.  On entering
such a position the free host nodes are flood-filled into connected
regions; a component's image is connected and lies on free nodes, so a
region smaller than the smallest unplaced component can host none of
them.  When the remaining usable free nodes are fewer than the unplaced
pattern nodes, the position gets no candidates.  On a chain this cuts off
packings that strand too-small gaps between components, which would
otherwise enumerate every placement of the later components before
backtracking.

All three prunings only remove search subtrees that contain no complete
monomorphism, and candidate bits are visited lowest-index-first, i.e. in
the canonical ``repr``-sorted host order; the sequence of yielded mappings
is therefore exactly the one the original scan-based enumerator produced
(property-tested in ``tests/test_monomorphism_equivalence.py``).  Only the
``monomorphism.nodes_explored`` counter reflects the pruning.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterator, List, Optional

import networkx as nx

from repro.core._bitset import HostEncoding, encode_host, iter_bits, node_index_table
from repro.core.stats import STATS
from repro.exceptions import MonomorphismError

Node = Hashable
Mapping_ = Dict[Node, Node]


def _pattern_order(pattern: nx.Graph) -> List[Node]:
    """Order pattern nodes: highest degree first, then keep the frontier connected.

    The next node is the remaining one with the most placed neighbours,
    ties broken by degree and then canonical index.  Nodes off the
    frontier have no placed neighbour, so the rule picks a frontier node
    while one exists and otherwise the highest-degree remaining node,
    which starts the next connected component.  A lazy max-heap keyed on
    that triple makes the scan O(E log V): a node's key only grows, so a
    popped entry whose count is stale is simply skipped.
    """
    node_order = node_index_table(pattern.nodes())
    nodes = list(node_order)
    degree = [pattern.degree(node) for node in nodes]
    placed_neighbours = [0] * len(nodes)
    placed = [False] * len(nodes)
    heap = [(0, -degree[i], -i) for i in range(len(nodes))]
    heapq.heapify(heap)
    order: List[Node] = []
    while heap:
        negative_count, _, negative_index = heapq.heappop(heap)
        index = -negative_index
        if placed[index] or placed_neighbours[index] != -negative_count:
            continue
        placed[index] = True
        order.append(nodes[index])
        for neighbour in pattern.neighbors(nodes[index]):
            j = node_order[neighbour]
            if not placed[j]:
                placed_neighbours[j] += 1
                heapq.heappush(heap, (-placed_neighbours[j], -degree[j], -j))
    return order


def _candidate_domains(
    pattern: nx.Graph,
    order: List[Node],
    host: HostEncoding,
) -> List[int]:
    """Per-position candidate masks from sound degree-based pruning.

    A host node can only be the image of pattern node ``p`` if its degree is
    at least ``deg(p)`` and if, matching neighbourhoods greedily by degree,
    its ``t``-th best neighbour is at least as connected as ``p``'s ``t``-th
    best neighbour (every pattern neighbour must map to a *distinct* host
    neighbour of no smaller degree).  Both conditions are necessary for
    membership in a complete monomorphism, so filtering by them cannot drop
    or reorder any yielded mapping.  Both depend on the host node only
    through its neighbour-degree profile, so the masks come from the
    encoding's profile classes (:meth:`HostEncoding.domain_mask`).
    """
    return [
        host.domain_mask(
            tuple(
                sorted(
                    (pattern.degree(nb) for nb in pattern.neighbors(pattern_node)),
                    reverse=True,
                )
            )
        )
        for pattern_node in order
    ]


def _component_floors(anchors: List[List[int]]) -> List[int]:
    """Per position, the smallest unplaced component size where the check applies.

    A position with no anchor after position 0 starts a new component of
    the pattern; its entry is the smallest size among the components from
    there on.  Every other entry is 0, as is a floor of 1: a single node
    fits any free node, and there are always enough free nodes for the
    unplaced ones.
    """
    positions = len(anchors)
    starts = [position for position in range(positions) if not anchors[position]]
    floors = [0] * positions
    smallest = positions
    for start, stop in reversed(list(zip(starts, starts[1:] + [positions]))):
        smallest = min(smallest, stop - start)
        if start > 0 and smallest > 1:
            floors[start] = smallest
    return floors


def _free_space_suffices(
    free: int, adjacency: List[int], min_size: int, needed: int
) -> bool:
    """Whether ``needed`` free nodes lie in free regions of ``min_size`` or more.

    Flood-fills the free host nodes region by region over the adjacency
    masks and stops as soon as the answer is known, so a roomy host costs
    about ``needed`` node expansions, not one per free node.
    """
    usable = 0
    while free:
        region = free & -free
        frontier = region
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= adjacency[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & free & ~region
            region |= frontier
            size = region.bit_count()
            if size >= min_size and usable + size >= needed:
                return True
        free ^= region
        if size >= min_size:
            usable += size
    return False


def iter_monomorphisms(
    pattern: nx.Graph,
    host: nx.Graph,
    max_count: Optional[int] = None,
    host_encoding: Optional[HostEncoding] = None,
) -> Iterator[Mapping_]:
    """Yield injective pattern-to-host maps preserving pattern edges.

    Parameters
    ----------
    pattern:
        The (small) graph to embed — a subcircuit's interaction graph.
    host:
        The (larger) graph to embed into — the adjacency graph.
    max_count:
        Stop after yielding this many mappings (``None`` = unbounded).
    host_encoding:
        Optional precomputed :class:`~repro.core._bitset.HostEncoding` of
        ``host``; callers embedding many patterns into one host (workspace
        extraction, candidate placement) pass it to skip the per-call cache
        lookup entirely.
    """
    if max_count is not None and max_count <= 0:
        return
    if pattern.number_of_nodes() > host.number_of_nodes():
        return
    order = _pattern_order(pattern)
    positions = len(order)
    if positions == 0:
        STATS.increment("monomorphism.searches")
        STATS.increment("monomorphism.mappings_yielded")
        yield {}
        return

    encoding = host_encoding if host_encoding is not None else encode_host(host)
    domains = _candidate_domains(pattern, order, encoding)
    # For each position, the earlier positions holding its pattern neighbours
    # (the adjacency constraints active when this position is assigned).
    position_of = {node: position for position, node in enumerate(order)}
    anchors: List[List[int]] = [
        sorted(
            position_of[nb]
            for nb in pattern.neighbors(order[position])
            if position_of[nb] < position
        )
        for position in range(positions)
    ]

    floors = _component_floors(anchors)

    host_nodes = encoding.nodes
    adjacency = encoding.adjacency
    full_mask = encoding.full_mask
    last = positions - 1

    images = [0] * positions  # host bit index chosen at each position
    available = [0] * positions  # still-untried candidate masks per position
    available[0] = domains[0]
    used = 0
    position = 0
    yielded = 0
    explored = 0

    try:
        while True:
            mask = available[position]
            if mask:
                low_bit = mask & -mask
                available[position] = mask ^ low_bit
                bit_index = low_bit.bit_length() - 1
                explored += 1
                images[position] = bit_index
                if position == last:
                    yielded += 1
                    yield {
                        order[p]: host_nodes[images[p]] for p in range(positions)
                    }
                    if max_count is not None and yielded >= max_count:
                        return
                    continue  # next candidate at the same position
                used |= low_bit
                position += 1
                candidate_mask = domains[position] & ~used
                for anchor in anchors[position]:
                    candidate_mask &= adjacency[images[anchor]]
                floor = floors[position]
                if (
                    floor
                    and candidate_mask
                    and not _free_space_suffices(
                        full_mask & ~used, adjacency, floor, positions - position
                    )
                ):
                    candidate_mask = 0
                available[position] = candidate_mask
            else:
                position -= 1
                if position < 0:
                    return
                used &= ~(1 << images[position])
    finally:
        STATS.increment("monomorphism.searches")
        STATS.increment("monomorphism.nodes_explored", explored)
        STATS.increment("monomorphism.mappings_yielded", yielded)


def find_monomorphisms(
    pattern: nx.Graph,
    host: nx.Graph,
    max_count: int = 100,
    host_encoding: Optional[HostEncoding] = None,
) -> List[Mapping_]:
    """Collect up to ``max_count`` monomorphisms (the paper's ``k``)."""
    return list(
        iter_monomorphisms(
            pattern, host, max_count=max_count, host_encoding=host_encoding
        )
    )


def has_monomorphism(
    pattern: nx.Graph,
    host: nx.Graph,
    host_encoding: Optional[HostEncoding] = None,
    witness: Optional[Mapping_] = None,
) -> bool:
    """Whether at least one monomorphism exists.

    ``witness``, when given, receives the first mapping found (pattern
    node to host node), so a caller can extend it without a new search.
    """
    for mapping in iter_monomorphisms(
        pattern, host, max_count=1, host_encoding=host_encoding
    ):
        if witness is not None:
            witness.update(mapping)
        return True
    return pattern.number_of_nodes() == 0


def first_monomorphism(pattern: nx.Graph, host: nx.Graph) -> Mapping_:
    """The first monomorphism in enumeration order; raises if none exists."""
    for mapping in iter_monomorphisms(pattern, host, max_count=1):
        return mapping
    if pattern.number_of_nodes() == 0:
        return {}
    raise MonomorphismError(
        f"no monomorphism of a {pattern.number_of_nodes()}-node pattern into a "
        f"{host.number_of_nodes()}-node host exists"
    )


def count_monomorphisms(
    pattern: nx.Graph,
    host: nx.Graph,
    limit: Optional[int] = None,
) -> int:
    """Number of monomorphisms, optionally stopping at ``limit``."""
    count = 0
    for _ in iter_monomorphisms(pattern, host, max_count=limit):
        count += 1
    return count


def verify_monomorphism(pattern: nx.Graph, host: nx.Graph, mapping: Mapping_) -> bool:
    """Check that ``mapping`` really is an injective edge-preserving map."""
    if set(mapping.keys()) != set(pattern.nodes()):
        return False
    images = list(mapping.values())
    if len(set(images)) != len(images):
        return False
    if any(image not in host for image in images):
        return False
    return all(host.has_edge(mapping[a], mapping[b]) for a, b in pattern.edges())
