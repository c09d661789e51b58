"""Operand capacity of optimal summation (Section 5, Lemma 5.1).

A *lazy* summation algorithm on a ``(L, o, g, P)`` machine corresponds
one-to-one with a broadcast algorithm on ``(L+1, o, g, P)``: reverse
every message (a broadcast reception at delay ``d`` becomes a summation
send at ``t - d``).  If processor ``i`` sends at ``S_i`` and receives
``k_i`` messages, each reception costs ``o + 1`` cycles (receive
overhead plus the one-cycle add of the received partial sum), leaving
``S_i - (o+1) k_i`` cycles for the chain of input-summing additions —
which consumes ``S_i - (o+1) k_i + 1`` input operands (the first
addition folds two operands).  Hence for the whole machine::

    n(t) = sum_i (S_i - (o+1) k_i + 1)
         = sum_i (t - d_i) - (o+1)(P-1) + P

which is maximized exactly when ``sum_i d_i`` is minimized — i.e. by the
optimal broadcast pattern (the universal tree's ``P`` smallest labels).
"""

from __future__ import annotations

from repro.core.tree import BroadcastTree, optimal_tree
from repro.params import LogPParams

__all__ = [
    "summation_tree",
    "summation_capacity",
    "min_summation_time",
    "operand_distribution",
    "summation_machine",
]


def summation_tree(params: LogPParams) -> BroadcastTree:
    """The communication tree of optimal summation: the optimal broadcast
    tree for latency ``L + 1`` (same ``o``, ``g``, ``P``), to be read in
    time reversal.  Node ``i``'s broadcast delay ``d_i`` means processor
    ``i`` sends its partial sum at ``t - d_i`` (the root's "send" at ``t``
    is the final addition)."""
    shifted = LogPParams(P=params.P, L=params.L + 1, o=params.o, g=params.g)
    return optimal_tree(shifted)


def operand_distribution(t: int, params: LogPParams) -> list[int]:
    """Input operands summed directly by each processor (node order).

    Element ``i`` is ``S_i - (o+1) k_i + 1`` for the ``i``-th node of the
    summation tree.  Raises ``ValueError`` when ``t`` is too small for
    some processor to fit its receptions (negative local budget).
    """
    tree = summation_tree(params)
    counts: list[int] = []
    for node in tree.nodes:
        send_time = t - node.delay
        local = send_time - (params.o + 1) * node.out_degree
        if local < 0:
            raise ValueError(
                f"t={t} too small: node {node.index} has {node.out_degree} "
                f"receptions but only {send_time} cycles before its send"
            )
        counts.append(local + 1)
    return counts


def summation_capacity(t: int, params: LogPParams) -> int:
    """``n(t)``: the maximum number of operands summable in ``t`` cycles."""
    return sum(operand_distribution(t, params))


def min_summation_time(n: int, params: LogPParams) -> int:
    """Smallest ``t`` whose capacity reaches ``n`` operands.

    For very small ``n`` fewer processors may be preferable (a lone
    processor sums ``n`` operands in ``n - 1`` cycles); this routine
    optimizes over the number of participating processors as well.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    best = n - 1  # single-processor chain
    # node i's budget is t - c_i with c_i = d_i + (o+1) k_i; from the
    # first t where every budget is non-negative (t >= max c_i) the
    # capacity is sum_i (t - c_i + 1) = P (t + 1) - sum_i c_i.  The tree
    # on P processors is the first P nodes of the full one (Defn 2.4),
    # so one tree serves every P: adding node P-1 adds one child to its
    # parent.
    nodes = summation_tree(params).nodes
    costs = [node.delay for node in nodes]
    t_min = spent = 0
    for P, node in enumerate(nodes[1:], start=2):
        parent = node.parent or 0  # only the root has no parent
        costs[parent] += params.o + 1
        t_min = max(t_min, costs[parent], costs[P - 1])
        spent += node.delay + params.o + 1
        best = min(best, max(t_min, -(-(n + spent) // P) - 1))
    return best


def summation_machine(params: LogPParams, t: int, n: int) -> LogPParams:
    """The participating sub-machine for an optimal t-cycle summation.

    ``min_summation_time`` optimizes over the number of participating
    processors, so its ``t`` may only be feasible on fewer than ``P``
    processors (a lone processor sums ``n`` operands in ``n - 1`` cycles
    with no sends at all).  Pick the largest feasible processor count
    whose capacity covers ``n``.  The registry's summation build and
    ``repro plan-sum`` both plan on this machine.
    """
    for P in range(params.P, 0, -1):
        sub = params.with_processors(P)
        try:
            capacity = sum(operand_distribution(t, sub))
        except ValueError:
            continue
        if capacity >= n:
            return sub
    raise ValueError(
        f"summation: no subset of {params} sums {n} operands by t={t}"
    )
