"""Baseline k-item broadcast strategies (postal model).

The strategies a practitioner would reach for before reading the paper:

* **repeated optimal broadcast** — run the single-item optimum ``k``
  times back to back: time ``k * B(P)`` (no pipelining across items);
* **staggered binomial pipeline** — per-item binomial trees with a fixed
  processor assignment, items staggered far enough apart that no
  processor's sends collide: time ``(k-1) * stagger + binomial``.  This
  is the flavor of pipelining whose running time grows like
  ``k * ceil(log2 P)`` — the gap to the paper's ``B + 2L + k - 2`` is the
  headline improvement;
* **scatter + ring allgather** — the classic large-message MPI approach:
  deal the items round-robin to the ``P - 1`` receivers, then circulate
  along a ring.

All return validated :class:`~repro.schedule.ops.Schedule` objects.
"""

from __future__ import annotations

from repro.baselines.trees import binomial_tree_schedule
from repro.core.single_item import optimal_broadcast_schedule
from repro.params import postal
from repro.schedule.ops import Schedule, SendOp

__all__ = [
    "repeated_broadcast_schedule",
    "staggered_binomial_schedule",
    "scatter_allgather_schedule",
]


def repeated_broadcast_schedule(k: int, P: int, L: int) -> Schedule:
    """``k`` sequential optimal single-item broadcasts: time ``k * B(P)``.

    Each item's broadcast starts only after the previous item has reached
    everyone (the "no pipelining" strawman).
    """
    params = postal(P=P, L=L)
    one = optimal_broadcast_schedule(params)
    span = max((op.arrival(params) for op in one.sends), default=0)
    return Schedule(
        params=params,
        sends=[
            SendOp(i * span + op.time, op.src, op.dst, i)
            for i in range(k)
            for op in one.sends
        ],
        initial={0: set(range(k))},
        source_items={i: 0 for i in range(k)},
    )


def staggered_binomial_schedule(k: int, P: int, L: int) -> Schedule:
    """Per-item binomial trees, pipelined with a collision-free stagger.

    With the identity processor assignment, a processor's sends for one
    item span at most ``max_degree`` consecutive steps, so launching a new
    item every ``max_degree`` steps keeps every processor's send slots
    disjoint.  Time: ``(k-1) * max_degree + binomial completion``.
    """
    params = postal(P=P, L=L)
    one = binomial_tree_schedule(params)
    degree: dict[int, int] = {}
    for op in one.sends:
        degree[op.src] = degree.get(op.src, 0) + 1
    stagger = max(degree.values(), default=1)
    return Schedule(
        params=params,
        sends=[
            SendOp(i * stagger + op.time, op.src, op.dst, i)
            for i in range(k)
            for op in one.sends
        ],
        initial={0: set(range(k))},
        source_items={i: 0 for i in range(k)},
    )


def scatter_allgather_schedule(k: int, P: int, L: int) -> Schedule:
    """Scatter the ``k`` items over the ``P - 1`` receivers, then ring.

    Phase 1 (scatter): the source sends item ``i`` to processor
    ``1 + (i mod (P-1))`` at step ``i``.  Phase 2 (ring allgather): once a
    processor holds an item it forwards it around the ring
    ``1 -> 2 -> ... -> P-1 -> 1``, one hop per free step.  Completion is
    roughly ``k + (P-2) * ceil(k / (P-1)) * ...`` — measured, not closed
    form; the point of the baseline is its shape (good for ``k >> P``,
    poor for small ``k``).
    """
    if P < 3:
        return repeated_broadcast_schedule(k, P, L)
    params = postal(P=P, L=L)
    ring = list(range(1, P))
    nxt = {p: ring[(j + 1) % len(ring)] for j, p in enumerate(ring)}
    sends: list[SendOp] = []
    # (availability step, proc, item, hops remaining)
    pending: list[tuple[int, int, int, int]] = []
    booked: set[tuple[int, int]] = set()  # (proc, step) reception slots
    for i in range(k):
        owner = 1 + (i % (P - 1))
        sends.append(SendOp(i, 0, owner, i))
        booked.add((owner, i + L))
        pending.append((i + L, owner, i, P - 2))
    next_free: dict[int, int] = {p: 0 for p in range(P)}
    while pending:
        pending.sort()
        avail, proc, item, hops = pending.pop(0)
        if hops == 0:
            continue
        dst = nxt[proc]
        send = max(avail, next_free[proc])
        while (dst, send + L) in booked:
            send += 1
        next_free[proc] = send + 1
        booked.add((dst, send + L))
        sends.append(SendOp(send, proc, dst, item))
        pending.append((send + L, dst, item, hops - 1))
    return Schedule(
        params=params,
        sends=sends,
        initial={0: set(range(k))},
        source_items={i: 0 for i in range(k)},
    )
