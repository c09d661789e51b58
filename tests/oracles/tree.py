"""Heap oracle for :func:`repro.core.tree.optimal_tree` and the
optimal broadcast builder.

The greedy construction of Definition 2.3 written out directly: keep a
min-heap of candidate child labels and attach each next processor at
the smallest one, ties going to the earliest-created parent.  One
``TreeNode`` and two heap operations per processor — the library reads
the same tree from :class:`~repro.schedule.implicit.OptimalTreeFamily`'s
run table instead.
"""

from __future__ import annotations

import heapq

from repro.core.single_item import schedule_from_tree
from repro.core.tree import BroadcastTree, TreeNode
from repro.params import LogPParams
from repro.schedule.ops import Schedule


def optimal_tree_heap(params: LogPParams) -> BroadcastTree:
    """``B(P)`` by the per-processor heap loop."""
    P = params.P
    cost = params.send_cost
    g = params.g
    nodes = [TreeNode(index=0, delay=0, parent=None)]
    # heap entries: (candidate delay, parent index, child slot)
    heap: list[tuple[int, int, int]] = [(cost, 0, 0)]
    while len(nodes) < P:
        delay, parent, slot = heapq.heappop(heap)
        index = len(nodes)
        nodes.append(TreeNode(index=index, delay=delay, parent=parent))
        nodes[parent].children.append(index)
        heapq.heappush(heap, (delay + g, parent, slot + 1))
        heapq.heappush(heap, (delay + cost, index, 0))
    return BroadcastTree(params, nodes)


def optimal_broadcast_schedule_heap(params: LogPParams) -> Schedule:
    """The optimal broadcast as the heap tree expanded send by send
    (the library builder before the run table owned the labeling)."""
    return schedule_from_tree(optimal_tree_heap(params))
