"""Baseline single-item broadcast trees.

The classic structures MPI implementations use, expressed in the same
schedule IR as the optimal algorithms so the comparison is purely
algorithmic:

* **flat** — the root sends to everyone itself (optimal for tiny ``P`` or
  huge ``g``, terrible otherwise);
* **chain** — a linear pipeline (latency-dominated);
* **binary** — balanced binary tree, every internal node relays to two
  children;
* **binomial** — recursive doubling: the root hands off subtrees of
  halving sizes (optimal when ``L + 2o`` equals ``g``, i.e. when the
  universal tree degenerates to binomial, but suboptimal in general).

Each builder returns a :class:`~repro.schedule.ops.Schedule`; timings
follow the greedy rule "send your next message as soon as the gap
allows", so differences against ``B(P)`` measure tree *shape* only.
"""

from __future__ import annotations

from repro.params import LogPParams
from repro.schedule.ops import Schedule, SendOp

__all__ = [
    "flat_schedule",
    "chain_schedule",
    "binary_tree_schedule",
    "binomial_tree_schedule",
    "baseline_broadcast",
    "baseline_reduction",
]


def flat_schedule(params: LogPParams) -> Schedule:
    """Root sends to processors ``1 .. P-1`` back to back."""
    return Schedule(
        params=params,
        sends=[SendOp((i - 1) * params.g, 0, i) for i in range(1, params.P)],
    )


def chain_schedule(params: LogPParams) -> Schedule:
    """Linear pipeline ``0 -> 1 -> ... -> P-1``."""
    return Schedule(
        params=params,
        sends=[
            SendOp((i - 1) * params.send_cost, i - 1, i) for i in range(1, params.P)
        ],
    )


def binary_tree_schedule(params: LogPParams) -> Schedule:
    """Balanced binary tree: node ``i`` relays to ``2i+1`` and ``2i+2``."""
    sends: list[SendOp] = []
    available = {0: 0}
    for i in range(params.P):
        base = available.get(i)
        if base is None:
            continue
        for j, child in enumerate((2 * i + 1, 2 * i + 2)):
            if child < params.P:
                send = base + j * params.g
                sends.append(SendOp(send, i, child))
                available[child] = send + params.send_cost
    return Schedule(params=params, sends=sends)


def binomial_tree_schedule(params: LogPParams) -> Schedule:
    """Binomial (recursive-doubling) broadcast.

    At each round the informed half hands the item to the uninformed
    half; processor ``i``'s children are ``i + 2^j`` for decreasing
    subtree sizes.  Sends are issued greedily ``g`` apart, so this
    coincides with the optimal tree exactly when ``L + 2o`` is such that
    the universal tree is binomial (e.g. the postal model with ``L = 1``).
    """
    P = params.P
    sends: list[SendOp] = []
    span = 1
    while span < P:
        span *= 2

    def expand(root: int, size: int, available: int) -> None:
        # children get subtrees of sizes size/2, size/4, ... (largest first)
        sub = size // 2
        j = 0
        while sub >= 1:
            child = root + sub
            if child < P:
                send = available + j * params.g
                sends.append(SendOp(send, root, child))
                expand(child, sub, send + params.send_cost)
                j += 1
            sub //= 2

    expand(0, span, 0)
    return Schedule(params=params, sends=sends)


def baseline_broadcast(name: str, params: LogPParams) -> Schedule:
    """Dispatch by baseline name (``flat``/``chain``/``binary``/``binomial``)."""
    builders = {
        "flat": flat_schedule,
        "chain": chain_schedule,
        "binary": binary_tree_schedule,
        "binomial": binomial_tree_schedule,
    }
    try:
        return builders[name](params)
    except KeyError:
        raise ValueError(f"unknown baseline {name!r}; options: {sorted(builders)}")


def baseline_reduction(name: str, params: LogPParams) -> Schedule:
    """The named baseline tree, time-reversed into an all-to-one reduction.

    Exactly the paper's §4.2 correspondence, applied to the baselines the
    same way :func:`repro.core.combining.reduction_schedule` applies it
    to the optimal tree: one columnar reversal with every processor
    initially holding its own partial, so baseline reduction times equal
    baseline broadcast times tree-for-tree.
    """
    from repro.passes.kernels import reverse_columns

    return reverse_columns(
        baseline_broadcast(name, params),
        tag="red",
        initial={p: {("red", p)} for p in range(params.P)},
    )
