"""Continuous broadcast with ``L = 2`` (Theorems 3.4 and 3.5).

For ``L = 2`` the delay lower bound ``L + B(P-1)`` is *not* generally
achievable: with only two lowercase letters the correctness and
non-interference requirements contradict each other once ``t >= 7``
(Theorem 3.4).  :func:`block_cyclic_feasible` verifies this
computationally — the exact-cover search of
:mod:`repro.core.continuous.assignment` comes up empty.

Theorem 3.5 recovers a delay of ``L + B(P-1) + 1`` by *pruning* the
optimal tree for ``t + 1`` down to ``P(t)`` nodes — removing both leaf
children from every node with >= 4 children and from ``x`` of the 3-child
nodes, and the later leaf child from every 2-child node and ``y`` of the
1-child nodes — then solving the resulting generalized word-assignment
problem.  :func:`delay_plus_one_schedule` searches the ``(x, y)`` space,
solves the word problem in general (delay-based) form, and returns a
machine-checked :class:`~repro.core.continuous.schedule.GeneralAssignment`.
"""

from __future__ import annotations

from collections import Counter

from repro.core.continuous.assignment import solve_instance
from repro.core.continuous.relative import instance_for
from repro.core.continuous.schedule import GeneralAssignment
from repro.core.continuous.general import solve_general_words
from repro.core.fib import reachable_postal
from repro.core.tree import BroadcastTree, TreeNode, tree_for_time
from repro.params import postal

__all__ = [
    "block_cyclic_feasible",
    "infeasible_range",
    "prune_tree",
    "delay_plus_one_assignment",
]

L2 = 2


def block_cyclic_feasible(t: int) -> bool:
    """Can a block-cyclic schedule achieve delay ``2 + t`` for ``L = 2``?

    Theorem 3.4 implies this fails for all ``t >= 7``; the search here is
    exhaustive over legal words, so ``False`` is a proof for the given
    ``t``.
    """
    return solve_instance(instance_for(t, L2)) is not None


def infeasible_range(t_max: int) -> list[int]:
    """All ``t <= t_max`` for which no block-cyclic optimum exists."""
    return [t for t in range(1, t_max + 1) if not block_cyclic_feasible(t)]


def _clone(tree: BroadcastTree) -> list[TreeNode]:
    return [
        TreeNode(
            index=n.index, delay=n.delay, parent=n.parent, children=list(n.children)
        )
        for n in tree.nodes
    ]


def prune_tree(T: int, x: int, y: int) -> BroadcastTree:
    """Prune the optimal ``T``-step tree (``L = 2``) per Theorem 3.5.

    Removes the two largest-delay (leaf) children from every node with
    >= 4 children and from the first ``x`` nodes with exactly 3 children;
    removes the largest-delay child from every 2-child node and from the
    first ``y`` 1-child nodes.  Children are always removed from the tail,
    so surviving children stay at consecutive delays — the property the
    block machinery needs for ``r`` consecutive sends.
    """
    full = tree_for_time(T, postal(P=1, L=L2))
    nodes = _clone(full)
    removed: set[int] = set()
    seen3 = seen1 = 0
    for node in nodes:
        degree = len(node.children)
        drop = 0
        if degree >= 4:
            drop = 2
        elif degree == 3:
            if seen3 < x:
                drop = 2
            seen3 += 1
        elif degree == 2:
            drop = 1
        elif degree == 1:
            if seen1 < y:
                drop = 1
            seen1 += 1
        for child in node.children[degree - drop:]:
            removed.add(child)
        del node.children[degree - drop:]
    if seen3 < x or seen1 < y:
        raise ValueError(f"not enough 3-child ({seen3}) or 1-child ({seen1}) nodes")
    survivors = [n for n in nodes if n.index not in removed]
    remap = {n.index: i for i, n in enumerate(survivors)}
    for i, node in enumerate(survivors):
        node.index = i
        node.parent = None if node.parent is None else remap[node.parent]
        node.children = [remap[c] for c in node.children]
    return BroadcastTree(postal(P=len(survivors), L=L2), survivors)


def delay_plus_one_assignment(t: int) -> GeneralAssignment | None:
    """Theorem 3.5: a continuous-broadcast assignment with delay
    ``2 + t + 1`` for ``P - 1 = P(t)`` processors, ``L = 2``.

    Searches the pruning parameters ``(x, y)`` and solves each candidate's
    word problem; returns the first assignment found (or ``None`` if the
    construction fails for this ``t`` — not observed for ``t >= 3``).
    """
    T = t + 1
    target = reachable_postal(t, L2)
    full = tree_for_time(T, postal(P=1, L=L2))
    degree_counts = Counter(n.out_degree for n in full.internal_nodes())
    c4plus = sum(c for d, c in degree_counts.items() if d >= 4)
    c3 = degree_counts.get(3, 0)
    c2 = degree_counts.get(2, 0)
    c1 = degree_counts.get(1, 0)
    must_remove = len(full) - target
    for x in range(c3 + 1):
        y = must_remove - 2 * c4plus - 2 * x - c2
        if not 0 <= y <= c1:
            continue
        pruned = prune_tree(T, x, y)
        assert len(pruned) == target
        assignment = solve_general_words(pruned, L2)
        if assignment is not None:
            return assignment
    return None
