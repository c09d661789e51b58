"""The universal optimal broadcast tree (Definitions 2.3 and 2.4).

The universal tree ``B`` for parameters ``(L, o, g)`` is the infinite
labeled ordered tree whose root has label 0 and in which a node with label
``s`` has children labeled ``s + i*g + L + 2o`` for ``i >= 0``.  The label
of a node is the *delay* of the corresponding processor: the time at which
it first holds the datum.

``B(P)`` — viewed here by :func:`optimal_tree` — is the rooted subtree
consisting of the ``P`` nodes with smallest labels, and Theorem 2.1
states it is an optimal single-item broadcast: all informed processors
relay the datum as early and as often as possible.  Its labeling is
owned by :class:`~repro.schedule.implicit.OptimalTreeFamily`: rank order
is (delay, parent rank), so ``B(P)`` is a prefix of every larger ``B(P')``.

:func:`tree_for_time` builds the *complete* subtree of all nodes with label
at most ``t`` (``P(t)`` nodes), which is the unique optimal tree used by the
continuous-broadcast machinery of Section 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import networkx as nx

from repro.params import LogPParams
from repro.schedule.implicit import OptimalTreeFamily

__all__ = ["TreeNode", "BroadcastTree", "optimal_tree", "tree_for_time"]


@dataclass(slots=True)
class TreeNode:
    """One node of a broadcast tree.

    ``index`` is the node's position in the tree's node list (root is 0);
    ``delay`` is its label (the time the corresponding processor is first
    informed); ``children`` are node indices ordered by increasing delay.
    """

    index: int
    delay: int
    parent: int | None
    children: list[int] = field(default_factory=list)

    @property
    def out_degree(self) -> int:
        return len(self.children)

    @property
    def is_leaf(self) -> bool:
        return not self.children


class BroadcastTree:
    """A finite subtree of the universal optimal broadcast tree.

    Nodes are held in creation order (root first, then by increasing
    delay).  The tree knows its LogP parameters so it can reason about
    send times: a node with delay ``d`` and ``r`` children starts its
    ``j``-th send (0-based) at time ``d + j*g``, which is received at
    ``d + j*g + L + 2o`` — precisely the child's delay.
    """

    def __init__(self, params: LogPParams, nodes: list[TreeNode]):
        if not nodes:
            raise ValueError("a broadcast tree needs at least a root node")
        if nodes[0].parent is not None or nodes[0].delay != 0:
            raise ValueError("node 0 must be the root with delay 0")
        self.params = params
        self.nodes = nodes

    # -- basic shape -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[TreeNode]:
        return iter(self.nodes)

    @property
    def P(self) -> int:
        """Number of processors in the tree (including the root)."""
        return len(self.nodes)

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    @property
    def completion_time(self) -> int:
        """The broadcast's running time: the largest delay in the tree."""
        return max(node.delay for node in self.nodes)

    def delays(self) -> list[int]:
        """Delays of all nodes, in node order."""
        return [node.delay for node in self.nodes]

    def delay_census(self) -> dict[int, int]:
        """Map delay -> number of nodes informed exactly at that delay."""
        census: dict[int, int] = {}
        for node in self.nodes:
            census[node.delay] = census.get(node.delay, 0) + 1
        return census

    def out_degree_census(self) -> dict[int, int]:
        """Map out-degree -> number of nodes with that many children."""
        census: dict[int, int] = {}
        for node in self.nodes:
            census[node.out_degree] = census.get(node.out_degree, 0) + 1
        return census

    def internal_nodes(self) -> list[TreeNode]:
        return [node for node in self.nodes if node.children]

    def leaves(self) -> list[TreeNode]:
        return [node for node in self.nodes if not node.children]

    def nodes_at_delay(self, delay: int) -> list[TreeNode]:
        return [node for node in self.nodes if node.delay == delay]

    # -- structural checks -----------------------------------------------

    def validate(self) -> None:
        """Check internal consistency and the universal-tree labeling rule.

        Raises ``ValueError`` on the first violated invariant.
        """
        cost = self.params.send_cost
        g = self.params.g
        seen_children: set[int] = set()
        for node in self.nodes:
            for j, child_index in enumerate(node.children):
                child = self.nodes[child_index]
                if child.parent != node.index:
                    raise ValueError(
                        f"node {child_index} has parent {child.parent}, "
                        f"expected {node.index}"
                    )
                expected = node.delay + j * g + cost
                if child.delay != expected:
                    raise ValueError(
                        f"child {child_index} of node {node.index} has delay "
                        f"{child.delay}, expected {expected}"
                    )
                if child_index in seen_children:
                    raise ValueError(f"node {child_index} has two parents")
                seen_children.add(child_index)
        if len(seen_children) != len(self.nodes) - 1:
            raise ValueError("tree is not connected")

    # -- conversions -------------------------------------------------------

    def to_networkx(self) -> nx.DiGraph:
        """Export as a networkx DiGraph with ``delay`` node attributes."""
        graph = nx.DiGraph()
        for node in self.nodes:
            graph.add_node(node.index, delay=node.delay)
        for node in self.nodes:
            for child in node.children:
                graph.add_edge(node.index, child)
        return graph

    def parent_of(self, index: int) -> int | None:
        return self.nodes[index].parent

    def child_rank(self, index: int) -> int:
        """Position of node ``index`` among its parent's ordered children."""
        parent = self.nodes[index].parent
        if parent is None:
            raise ValueError("the root has no child rank")
        return self.nodes[parent].children.index(index)


def optimal_tree(params: LogPParams) -> BroadcastTree:
    """Build ``B(P)``: the optimal single-item broadcast tree (Thm 2.1).

    A node view of :class:`~repro.schedule.implicit.OptimalTreeFamily`'s
    run table; each node's children are in ascending index order.
    """
    delays, parents = OptimalTreeFamily(params).rank_table()
    nodes = list(map(TreeNode, range(params.P), delays.tolist(), parents.tolist()))
    nodes[0].parent = None
    for index, parent in enumerate(parents[1:].tolist(), start=1):
        nodes[parent].children.append(index)
    return BroadcastTree(params, nodes)


def tree_for_time(t: int, params: LogPParams) -> BroadcastTree:
    """Build the complete optimal tree of all nodes with label <= ``t``.

    This is the unique optimal tree on ``P(t)`` processors; Section 3 uses
    it (in the postal model) as the per-item tree of continuous broadcast.
    The ``P`` field of ``params`` is ignored.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    cost = params.send_cost
    g = params.g
    nodes = [TreeNode(index=0, delay=0, parent=None)]
    frontier = [0]
    while frontier:
        next_frontier: list[int] = []
        for parent in frontier:
            delay = nodes[parent].delay + cost
            while delay <= t:
                index = len(nodes)
                nodes.append(TreeNode(index=index, delay=delay, parent=parent))
                nodes[parent].children.append(index)
                next_frontier.append(index)
                delay += g
        frontier = next_frontier
    nodes.sort(key=lambda n: (n.delay, n.index))
    remap = {node.index: i for i, node in enumerate(nodes)}
    for i, node in enumerate(nodes):
        node.index = i
        node.parent = None if node.parent is None else remap[node.parent]
        node.children = sorted(remap[c] for c in node.children)
    tree = BroadcastTree(params.with_processors(len(nodes)), nodes)
    return tree
