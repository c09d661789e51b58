"""Single-item broadcast (Section 2).

Builds the optimal schedule of Theorem 2.1 from the universal broadcast
tree: processor ``i`` is assigned to tree rank ``i`` (the root / source is
processor 0), and a node with delay ``d`` and children at delays
``d + j*g + L + 2o`` starts its ``j``-th send at cycle ``d + j*g``.

The schedule's running time equals ``B(P; L, o, g)`` by construction, and
:func:`repro.sim.validate.replay` verifies it is a legal LogP execution.
"""

from __future__ import annotations

import numpy as np

from repro.core.fib import broadcast_time
from repro.core.tree import BroadcastTree
from repro.params import LogPParams
from repro.schedule.columnar import ItemTable
from repro.schedule.implicit import OptimalTreeFamily
from repro.schedule.ops import Schedule

__all__ = [
    "schedule_from_tree",
    "optimal_broadcast_sends",
    "optimal_broadcast_schedule",
    "optimal_broadcast_time",
]


def schedule_from_tree(
    tree: BroadcastTree,
    item: object = 0,
    start_time: int = 0,
    proc_map: dict[int, int] | None = None,
) -> Schedule:
    """Expand a broadcast tree into an explicit schedule.

    All sends are emitted as one numpy batch (node ``i``'s ``j``-th send
    starts at ``delay_i + j*g``) into an array-backed schedule.

    Parameters
    ----------
    tree:
        Any :class:`BroadcastTree` (optimal or not — baselines reuse this).
    item:
        The datum's identity in the emitted ops.
    start_time:
        Cycle at which the root first holds the item (delays shift by it).
    proc_map:
        Optional map from tree-node index to physical processor id;
        defaults to the identity.
    """
    params = tree.params
    g = params.g
    n_nodes = len(tree.nodes)
    degrees = np.fromiter(
        (len(node.children) for node in tree.nodes), dtype=np.int64, count=n_nodes
    )
    total = int(degrees.sum())
    src_nodes = np.repeat(np.arange(n_nodes, dtype=np.int64), degrees)
    dst_nodes = np.fromiter(
        (child for node in tree.nodes for child in node.children),
        dtype=np.int64,
        count=total,
    )
    # j = each send's rank among its node's children
    group_starts = np.cumsum(degrees) - degrees
    ranks = np.arange(total, dtype=np.int64) - np.repeat(group_starts, degrees)
    delays = np.fromiter(
        (node.delay for node in tree.nodes), dtype=np.int64, count=n_nodes
    )
    times = start_time + np.repeat(delays, degrees) + ranks * g
    if proc_map is None:
        root_proc = 0
        srcs, dsts = src_nodes, dst_nodes
    else:
        root_proc = proc_map[0]
        lut = np.fromiter(
            (proc_map[i] for i in range(n_nodes)), dtype=np.int64, count=n_nodes
        )
        srcs, dsts = lut[src_nodes], lut[dst_nodes]
    return Schedule.from_arrays(
        params,
        times,
        srcs,
        dsts,
        item_table=ItemTable([item]),
        initial={root_proc: {item}},
        source_items={item: start_time},
    )


def optimal_broadcast_sends(
    params: LogPParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(times, srcs, dsts, informs)`` of the optimal broadcast's sends.

    The send columns are read off
    :class:`~repro.schedule.implicit.OptimalTreeFamily`'s run table and
    stored sender-major like :func:`schedule_from_tree`'s output;
    ``informs[r]`` is the cycle rank ``r`` first holds the item.
    Callers that only need the columns skip building a
    :class:`Schedule`.
    """
    delays, parents = OptimalTreeFamily(params).rank_table()
    order = parents[1:].argsort(kind="stable") + 1
    return delays[order] - params.send_cost, parents[order], order, delays


def optimal_broadcast_schedule(params: LogPParams) -> Schedule:
    """The optimal single-item broadcast schedule ``B(P)`` (Theorem 2.1)."""
    times, srcs, dsts, _ = optimal_broadcast_sends(params)
    return Schedule.from_arrays(
        params,
        times,
        srcs,
        dsts,
        initial={0: {0}},
        source_items={0: 0},
    )


def optimal_broadcast_time(params: LogPParams) -> int:
    """``B(P; L, o, g)``, the single-item broadcast complexity."""
    return broadcast_time(params.P, params)
