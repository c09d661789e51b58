"""Combining broadcast / all-reduce (Section 4.2, Theorem 4.1).

Every processor ``i`` holds a value ``x_i``; all processors must learn
``x_0 + ... + x_{P-1}`` (``+`` commutative and associative, assumed free)
in the postal model.  The paper's algorithm: at each step
``j = 0 .. T-L``, every processor sends its *current* combined value to
processor ``i + f_{j+L-1} (mod P)``; arrivals are folded into the
recipient's running value before its next send.  After ``T`` steps each
of the ``P = P(T; L, 0, 1)`` processors holds the full combination —
all-to-all combining costs no more than an all-to-one reduction.

:func:`simulate_combining` tracks the exact index *intervals* held by
each processor (Theorem 4.1's invariant: at time ``j`` processor ``i``
holds ``x[i - f_{j+L-1} + 1 : i]``, a cyclically contiguous window) and
returns the per-step holdings so tests can verify the invariant
literally; the message schedule itself has one owner,
:func:`combining_schedule`, which writes the sends straight from the
closed form as columns.

All-to-one *reduction* is the time reversal of an optimal broadcast
(:func:`reduction_schedule`), and the combining broadcast above matches
its ``T`` — a factor-2 saving over reduce-then-broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fib import fib, fib_sequence
from repro.core.single_item import optimal_broadcast_schedule
from repro.params import LogPParams, postal
from repro.schedule.columnar import ItemTable
from repro.schedule.ops import Schedule

__all__ = [
    "CombiningRun",
    "combining_schedule",
    "simulate_combining",
    "simulate_k_combining",
    "k_combining_time",
    "combining_time",
    "reduction_schedule",
]


def _window(i: int, width: int, P: int) -> frozenset[int]:
    """The cyclic interval ``{i - width + 1, ..., i} mod P``."""
    width = min(width, P)
    return frozenset((i - d) % P for d in range(width))


@dataclass
class CombiningRun:
    """Result of a combining-broadcast execution."""

    T: int
    L: int
    P: int
    schedule: Schedule
    # holdings[j][i]: indices combined into processor i's value at time j
    holdings: list[list[frozenset[int]]]

    def complete(self) -> bool:
        """True iff every processor holds all ``P`` indices at time ``T``."""
        full = frozenset(range(self.P))
        return all(h == full for h in self.holdings[self.T])

    def theorem_41_invariant(self) -> bool:
        """Check Theorem 4.1's invariant: at time ``j`` processor ``i``
        holds exactly the cyclic window ``x[i - f_j + 1 : i]`` of width
        ``f_j`` (so that the stride-``f_{j+L-1}`` send arriving at
        ``j + L`` extends the recipient's window contiguously:
        ``f_{j+L} = f_{j+L-1} + f_j``)."""
        for j in range(self.T + 1):
            width = fib(self.L, j)
            for i in range(self.P):
                if self.holdings[j][i] != _window(i, width, self.P):
                    return False
        return True


def combining_time(P: int, L: int) -> int:
    """Minimum ``T`` with ``P(T) >= P``: the combining broadcast time."""
    seq = [1]
    T = 0
    while seq[T] < P:
        T += 1
        seq = fib_sequence(L, T)
    return T


def combining_schedule(T: int, L: int) -> Schedule:
    """The Theorem 4.1 message schedule on ``P = P(T; L, 0, 1)`` processors.

    At step ``j = 0 .. T-L`` every processor ``i`` sends its partial
    ``("partial", i, j)`` to ``(i + f_{j+L-1}) mod P``.  The sends are
    stored step-major, rank-minor, one interned item per send.  A
    processor's step-``j`` partial is derived locally, so every partial
    it will ever emit is "initially held" as far as message causality
    goes.
    """
    if T < L:
        raise ValueError(f"need T >= L, got T={T}, L={L}")
    seq = fib_sequence(L, T)
    P = seq[T]
    steps = T - L + 1
    strides = np.asarray(seq[L - 1 : T], dtype=np.int64)
    srcs = np.tile(np.arange(P, dtype=np.int64), steps)
    dsts = (srcs + np.repeat(strides, P)) % P
    items = [("partial", i, j) for j in range(steps) for i in range(P)]
    return Schedule.from_arrays(
        postal(P=P, L=L),
        times=np.repeat(np.arange(steps, dtype=np.int64), P),
        srcs=srcs,
        dsts=dsts,
        item_codes=np.arange(len(items), dtype=np.int64),
        item_table=ItemTable.distinct(items),
        initial={i: items[i::P] for i in range(P)},
    )


def simulate_combining(T: int, L: int) -> CombiningRun:
    """Run the Theorem 4.1 algorithm for ``P = P(T; L, 0, 1)`` processors.

    Returns the message schedule of :func:`combining_schedule` (items are
    ``("partial", src, step)``) and the per-step holdings.  Arrivals at
    step ``m`` are combined before the sends of step ``m`` depart,
    matching the paper's zero-cost combining convention.
    """
    schedule = combining_schedule(T, L)
    P = schedule.params.P
    value: list[set[int]] = [{i} for i in range(P)]
    holdings: list[list[frozenset[int]]] = []
    pending: dict[int, list[tuple[int, frozenset[int]]]] = {}
    for j in range(0, T + 1):
        # deliveries scheduled for step j are folded in first ...
        for dst, payload in pending.pop(j, []):
            value[dst] |= payload
        # ... then the state at time j is snapshot and the sends depart
        holdings.append([frozenset(v) for v in value])
        if j <= T - L:
            stride = fib(L, j + L - 1)
            for i in range(P):
                pending.setdefault(j + L, []).append(
                    ((i + stride) % P, frozenset(value[i]))
                )
    return CombiningRun(T=T, L=L, P=P, schedule=schedule, holdings=holdings)


def simulate_k_combining(T: int, L: int, k: int) -> list[CombiningRun]:
    """Pipeline ``k`` combining broadcasts back to back.

    Every processor sends at every step ``0 .. T-L`` of a combining
    broadcast, so two rounds cannot overlap their send phases; the
    tightest legal pipelining starts round ``i`` at step ``i (T-L+1)``,
    giving total time ``k (T-L+1) + L - 1``.  Each round is validated
    independently (complete + window invariant); the caller composes the
    rounds' schedules with :func:`repro.schedule.transform.shift` /
    ``concat`` when a single-schedule artifact is needed.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return [simulate_combining(T, L) for _ in range(k)]


def k_combining_time(T: int, L: int, k: int) -> int:
    """Completion time of the pipelined k-round combining broadcast."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return (k - 1) * (T - L + 1) + T


def reduction_schedule(params: LogPParams) -> Schedule:
    """All-to-one reduction: the time reversal of optimal broadcast.

    A broadcast message sent at ``s`` and received at ``s + L + 2o``
    becomes a reduction message sent at ``B - (s + L + 2o)`` and received
    at ``B - s``, where ``B = B(P)``.  Leaf processors send first; the
    root receives the final partial at time ``B``.  Items are labeled
    ``("red", src)``.

    Built as a verified pass pipeline: ``reverse{tag=red}`` on the
    optimal broadcast, with every processor starting out holding its own
    partial and the lint verifier (SCHED001-003) confirming legality of
    the reversal.
    """
    # passes -> transform -> analysis sits below this module in the
    # import graph only at runtime; import lazily to keep repro.__init__
    # (which imports combining before the registry) cycle-free.
    from repro.passes import PassManager, ReversePass

    broadcast = optimal_broadcast_schedule(params)
    manager = PassManager(
        [
            ReversePass(
                tag="red",
                initial={p: {("red", p)} for p in range(params.P)},
            )
        ],
        verify="errors",
    )
    return manager.run(broadcast)
