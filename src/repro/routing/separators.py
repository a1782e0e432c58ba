"""Balanced connected graph bisection and well-separability.

The routing algorithm of the paper recursively cuts the adjacency graph into
two *connected* subgraphs of as equal size as possible ("cut the graph into
two connected subgraphs with the number of vertices equal to or as close to
n/2 as possible").  The quality of the cut is captured by the separability
parameter ``s``: the ratio of the smaller part to the larger part, taken over
the whole recursion.  The appendix of the paper shows every graph of maximal
degree ``k`` admits ``s >= 1/k``; chains and 2D lattices achieve ``s >= 1/2``.

Every tie-break in this module — spanning-tree traversal order, channel-edge
orientation, boundary-refinement order — is resolved through one
:func:`repro.core._bitset.node_index_table` per call, so the bisection found
for a given node/edge set is independent of the input graph's internal
iteration order (and hence of ``PYTHONHASHSEED``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.core._bitset import node_index_table
from repro.exceptions import RoutingError

Node = Hashable


@dataclass(frozen=True)
class Bisection:
    """A connected bisection of a graph into two parts.

    Attributes
    ----------
    part_one, part_two:
        The node sets; ``part_one`` is never smaller than ``part_two``.
    channel_edges:
        The graph edges with one endpoint in each part (the "communication
        channels" of the paper), each oriented lower-index endpoint first
        and listed in node-index order.
    """

    part_one: FrozenSet[Node]
    part_two: FrozenSet[Node]
    channel_edges: Tuple[Tuple[Node, Node], ...]

    @property
    def ratio(self) -> float:
        """Smaller-to-larger size ratio (the local separability)."""
        return len(self.part_two) / len(self.part_one)

    @property
    def balance(self) -> int:
        """Absolute size difference (0 means a perfect split)."""
        return len(self.part_one) - len(self.part_two)


def _channel_edges(
    graph: nx.Graph,
    part_one: Set[Node],
    part_two: Set[Node],
    order: Dict[Node, int],
) -> Tuple:
    """Cut edges, canonically oriented and sorted by node index."""
    edges = []
    for a, b in graph.edges():
        if (a in part_one and b in part_two) or (a in part_two and b in part_one):
            if order[b] < order[a]:
                a, b = b, a
            edges.append((a, b))
    edges.sort(key=lambda edge: (order[edge[0]], order[edge[1]]))
    return tuple(edges)


def _bisection_from_parts(
    graph: nx.Graph,
    part_a: Set[Node],
    part_b: Set[Node],
    order: Dict[Node, int],
) -> Bisection:
    if len(part_a) < len(part_b):
        part_a, part_b = part_b, part_a
    return Bisection(
        frozenset(part_a),
        frozenset(part_b),
        _channel_edges(graph, set(part_a), set(part_b), order),
    )


def bfs_tree_parents(
    graph: nx.Graph,
    root: Node,
    order: Dict[Node, int],
    nodes: Optional[Set[Node]] = None,
) -> Dict[Node, Node]:
    """Index-ordered BFS spanning-tree parent pointers (discovery order).

    Each node's neighbours are visited in node-index order, so the tree is
    independent of the graph's adjacency insertion order.  ``nodes``
    optionally restricts the traversal to an induced subset.  The dict's
    insertion order is BFS discovery order — the determinism-critical
    traversal shared by this module's spanning-tree cuts and the bubble
    router's per-side trees (:mod:`repro.routing.bubble`).
    """
    parents: Dict[Node, Node] = {}
    visited: Set[Node] = {root}
    queue: deque = deque([root])
    while queue:
        parent = queue.popleft()
        for child in sorted(graph.adj[parent], key=order.__getitem__):
            if (nodes is None or child in nodes) and child not in visited:
                visited.add(child)
                parents[child] = parent
                queue.append(child)
    return parents


def _bfs_tree_edges(
    graph: nx.Graph, root: Node, order: Dict[Node, int]
) -> List[Tuple[Node, Node]]:
    """BFS spanning-tree edges with neighbours visited in node-index order."""
    return [
        (parent, child)
        for child, parent in bfs_tree_parents(graph, root, order).items()
    ]


def _dfs_tree_edges(
    graph: nx.Graph, root: Node, order: Dict[Node, int]
) -> List[Tuple[Node, Node]]:
    """DFS spanning-tree edges with neighbours visited in node-index order."""
    edges: List[Tuple[Node, Node]] = []
    visited: Set[Node] = {root}
    stack: List[Tuple[Node, Iterable[Node]]] = [
        (root, iter(sorted(graph.adj[root], key=order.__getitem__)))
    ]
    while stack:
        parent, children = stack[-1]
        advanced = False
        for child in children:
            if child not in visited:
                visited.add(child)
                edges.append((parent, child))
                stack.append(
                    (child, iter(sorted(graph.adj[child], key=order.__getitem__)))
                )
                advanced = True
                break
        if not advanced:
            stack.pop()
    return edges


def _tree_edge_split(
    graph: nx.Graph,
    root: Node,
    edges: List[Tuple[Node, Node]],
    order: Dict[Node, int],
) -> Bisection:
    """Best bisection obtained by deleting a single spanning-tree edge.

    ``edges`` are the ``(parent, child)`` edges of a spanning tree rooted
    at ``root``, each child after its parent.  Deleting an edge cuts off
    the child's subtree, so one bottom-up pass over subtree sizes prices
    every cut.  Cuts are tried in the edge order of ``nx.Graph(edges)``
    (each node's children, nodes in first-appearance order); the first
    strictly most balanced cut wins, and the scan stops once no cut can
    do better.  The root's side is passed first, so on an even split it
    becomes ``part_one``.
    """
    total = graph.number_of_nodes()
    children: Dict[Node, List[Node]] = {root: []}
    for parent, child in edges:
        children[parent].append(child)
        children[child] = []
    size = dict.fromkeys(children, 1)
    for parent, child in reversed(edges):
        size[parent] += size[child]
    best_child = None
    best_balance = total
    for parent in children:
        for child in children[parent]:
            balance = abs(total - 2 * size[child])
            if balance < best_balance:
                best_child, best_balance = child, balance
        if best_balance <= total % 2:
            break
    subtree = {best_child}
    stack = [best_child]
    while stack:
        for child in children[stack.pop()]:
            subtree.add(child)
            stack.append(child)
    return _bisection_from_parts(graph, set(children) - subtree, subtree, order)


def _refine_by_moving_boundary(
    graph: nx.Graph, bisection: Bisection, order: Dict[Node, int]
) -> Bisection:
    """Greedy local improvement: move boundary nodes from the big part to the small one.

    A node is moved only when both induced subgraphs stay connected, so the
    result is always a valid connected bisection at least as balanced as the
    input.
    """
    part_one = set(bisection.part_one)
    part_two = set(bisection.part_two)
    improved = True
    while improved and len(part_one) - len(part_two) >= 2:
        improved = False
        for a, b in _channel_edges(graph, part_one, part_two, order):
            candidate = a if a in part_one else b
            new_one = part_one - {candidate}
            new_two = part_two | {candidate}
            if not new_one:
                continue
            if nx.is_connected(graph.subgraph(new_one)) and nx.is_connected(
                graph.subgraph(new_two)
            ):
                part_one, part_two = new_one, new_two
                improved = True
                break
    return _bisection_from_parts(graph, part_one, part_two, order)


def balanced_connected_bisection(
    graph: nx.Graph, order: Optional[Dict[Node, int]] = None
) -> Bisection:
    """Cut a connected graph into two connected parts of near-equal size.

    The cut is found by deleting single edges of several spanning trees (BFS
    trees rooted at a few different nodes plus a DFS tree) and keeping the
    most balanced result, followed by a connectivity-preserving local
    improvement.  For trees this is exactly the optimal single-edge cut; for
    general bounded-degree graphs it comfortably achieves the ``s >= 1/k``
    guarantee of the appendix on all the architectures used in this project.

    ``order`` may supply an existing node-index table covering (a superset
    of) the graph's nodes — the bubble router passes its whole-graph table
    so the recursion does not re-``repr``-sort every subgraph.  Only the
    relative order of the graph's own nodes is used, so any consistent
    table yields the same cut as the freshly built default.
    """
    if graph.number_of_nodes() < 2:
        raise RoutingError("cannot bisect a graph with fewer than two nodes")
    if not nx.is_connected(graph):
        raise RoutingError("cannot bisect a disconnected graph")

    if order is None:
        order = node_index_table(graph.nodes())
    nodes = sorted(graph.nodes(), key=order.__getitem__)
    roots = [nodes[0], nodes[len(nodes) // 2], nodes[-1]]
    best: Optional[Bisection] = None
    seen_roots = set()
    for root in roots:
        if root in seen_roots:
            continue
        seen_roots.add(root)
        for tree_builder in (_bfs_tree_edges, _dfs_tree_edges):
            candidate = _tree_edge_split(
                graph, root, tree_builder(graph, root, order), order
            )
            if best is None or abs(candidate.balance) < abs(best.balance):
                best = candidate
    if best is None:  # pragma: no cover - a connected graph always has a spanning tree
        raise RoutingError("failed to bisect the graph")
    return _refine_by_moving_boundary(graph, best, order)


def recursive_bisections(graph: nx.Graph) -> List[Bisection]:
    """All bisections performed by the full recursion (in discovery order)."""
    result: List[Bisection] = []
    stack = [graph]
    while stack:
        current = stack.pop()
        if current.number_of_nodes() < 2:
            continue
        bisection = balanced_connected_bisection(current)
        result.append(bisection)
        stack.append(graph.subgraph(bisection.part_one).copy())
        stack.append(graph.subgraph(bisection.part_two).copy())
    return result


def separability(graph: nx.Graph) -> float:
    """The separability parameter ``s`` achieved by the recursive bisection.

    Defined as the minimum, over every cut of the recursion, of the ratio of
    the smaller to the larger part.  Graphs with a single node have
    separability 1 by convention.
    """
    if graph.number_of_nodes() <= 1:
        return 1.0
    ratios = [bisection.ratio for bisection in recursive_bisections(graph)]
    return min(ratios) if ratios else 1.0


def degree_separability_bound(graph: nx.Graph) -> float:
    """The appendix's guaranteed lower bound ``s >= 1 / max_degree``."""
    degrees = [d for _, d in graph.degree()]
    max_degree = max(degrees) if degrees else 1
    return 1.0 / max(1, max_degree)
