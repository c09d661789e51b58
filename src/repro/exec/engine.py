"""The cooperative rank scheduler shared by every transport.

A transport's job is only to move ``(src, item_code, payload)``
envelopes between the places ranks live; *what a rank does* — the
instruction walk, matched-receive buffering, payload stores and
reduction folds — lives here once, so ``inproc``, ``mp`` and ``mpi``
cannot drift apart semantically.

:func:`run_ranks` drives a group of ranks in the calling thread.  Each
rank is a resumable cursor (instruction index, ``(src, code)`` mailbox,
delivered list, store or accumulator) that runs until it reaches a
matched receive with no envelope yet.  A send to a rank of the group
goes straight into that rank's mailbox and wakes it if it waits for
that pair; sends to other ranks are collected over one scheduling round
and handed to ``ship`` as one batch.  When every rank of the group
waits, the scheduler blocks in ``wait`` (the transport's inbound side)
until envelopes arrive or the deadline passes.  Causal legality of the
lowered schedule makes program-order execution deadlock-free, so no
clock is needed.

Two payload disciplines:

* **store mode** (default): each rank keeps ``{item_code: payload}``;
  sends read the store, receives write it, reductions fold operand
  payloads with ``reduce_op``.  With no payloads given, every item's
  payload is its own code — "token mode", enough to drive and trace
  the full message pattern.
* **combine mode** (``combine`` given): the rank keeps one running
  accumulator seeded from ``accumulator``; every receive folds into
  it and every send ships its current value.  This is the semantics
  of the paper's reduction/combining schedules, where an item name
  identifies a *slot* in the combining tree, not a distinct datum.
"""

from __future__ import annotations

import functools
import time
from collections import deque
from typing import Any, Callable, Iterable, Mapping

from repro.exec.program import KIND_RECV, KIND_SEND, RankProgram

__all__ = [
    "RankFailed",
    "RanksBlocked",
    "program_lists",
    "run_ranks",
]

Envelope = tuple[int, int, Any]  # (src rank, item code, payload)
Routed = tuple[int, Envelope]  # (dst rank, envelope)
# (rank, instruction index, program length, awaited src, awaited code)
Waiter = tuple[int, int, int, int, int]
# one rank's program as plain lists: kinds, peers, item codes and the
# reduction operands keyed by instruction index
Program = tuple[list[int], list[int], list[int], dict[int, tuple[int, ...]]]
Outcome = tuple[list[tuple[int, int]], Any]  # (delivered pairs, value)
Combine = Callable[[Any, Any], Any]


class RanksBlocked(Exception):
    """Every rank of a group still waits at the deadline.

    ``waiters`` holds one :data:`Waiter` per blocked rank; transports
    turn them into one :class:`~repro.exec.errors.ExecTimeout` with the
    simulator's blocked-rank formatting.
    """

    def __init__(self, waiters: list[Waiter]) -> None:
        super().__init__(f"{len(waiters)} rank(s) blocked")
        self.waiters = waiters


class RankFailed(Exception):
    """A rank's ``combine`` or ``reduce_op`` raised; chained from it."""

    def __init__(self, rank: int, error: Exception) -> None:
        super().__init__(f"rank {rank} failed: {error}")
        self.rank = rank


def program_lists(program: RankProgram) -> Program:
    """A :class:`RankProgram` as the plain lists the scheduler walks."""
    return (
        program.kinds.tolist(),
        program.peers.tolist(),
        program.items.tolist(),
        program.reduce_operands,
    )


class _Rank:
    """One rank's resumable cursor."""

    __slots__ = (
        "rank", "kinds", "peers", "items", "operands", "pc", "want",
        "pending", "delivered", "store", "acc",
    )

    def __init__(
        self, rank: int, program: Program, store: dict[int, Any], acc: Any
    ) -> None:
        self.rank = rank
        self.kinds, self.peers, self.items, self.operands = program
        self.pc = 0
        # the (src, code) pair this rank waits for, or None when runnable
        self.want: tuple[int, int] | None = None
        # unmatched envelopes; a deque holds duplicates (the same pair
        # may legitimately be sent more than once)
        self.pending: dict[tuple[int, int], deque[Any]] = {}
        self.delivered: list[tuple[int, int]] = []
        self.store = store
        self.acc = acc


def _post(
    target: _Rank, src: int, code: int, payload: Any, ready: deque[_Rank]
) -> None:
    key = (src, code)
    box = target.pending.get(key)
    if box is None:
        target.pending[key] = deque((payload,))
    else:
        box.append(payload)
    if target.want == key:
        target.want = None
        ready.append(target)


def _advance(
    r: _Rank,
    group: dict[int, _Rank],
    ready: deque[_Rank],
    outbound: list[Routed],
    combine: Combine | None,
    reduce_op: Combine | None,
) -> bool:
    """Run ``r`` until it finishes (True) or waits for an envelope."""
    kinds, peers, items = r.kinds, r.peers, r.items
    pending, store, acc, rank = r.pending, r.store, r.acc, r.rank
    i, total = r.pc, len(kinds)
    while i < total:
        kind = kinds[i]
        if kind == KIND_SEND:
            code = items[i]
            payload = acc if combine is not None else store[code]
            target = group.get(peers[i])
            if target is None:
                outbound.append((peers[i], (rank, code, payload)))
            else:
                _post(target, rank, code, payload, ready)
        elif kind == KIND_RECV:
            want = (peers[i], items[i])
            box = pending.get(want)
            if not box:
                r.pc, r.want, r.acc = i, want, acc
                return False
            payload = box.popleft()
            if not box:
                del pending[want]
            r.delivered.append(want)
            if combine is not None:
                acc = combine(acc, payload)
            else:
                store[want[1]] = payload
        else:  # KIND_REDUCE
            code = items[i]
            if reduce_op is not None:
                # ambient local operands (never received or produced)
                # fall back to their token value unless seeded
                store[code] = functools.reduce(
                    reduce_op, [store.get(c, c) for c in r.operands[i]]
                )
            else:
                store[code] = code  # token mode: the result is its name
        i += 1
    r.pc, r.acc = i, acc
    return True


def _unroutable(batch: list[Routed]) -> None:
    """The outbound side of a group that hosts every rank."""
    dst, (src, _code, _payload) = batch[0]
    raise RankFailed(src, LookupError(f"no program for destination rank {dst}"))


def _idle(timeout: float) -> Iterable[Routed]:
    """The inbound side of a group that hosts every rank: nothing can
    arrive, so waiting only runs out the clock."""
    time.sleep(timeout)
    return ()


def run_ranks(
    programs: Mapping[int, Program],
    *,
    stores: Mapping[int, dict[int, Any]],
    combine: Combine | None,
    accumulators: Mapping[int, Any],
    reduce_op: Combine | None,
    deadline: float,
    ship: Callable[[list[Routed]], None] = _unroutable,
    wait: Callable[[float], Iterable[Routed]] = _idle,
) -> dict[int, Outcome]:
    """Run a group of rank programs to completion in this thread.

    ``ship`` receives each round's batch of envelopes bound for ranks
    outside the group; ``wait(timeout)`` returns inbound
    ``(dst, envelope)`` pairs for ranks of the group (empty on timeout).
    Returns ``{rank: (delivered pairs, final store or accumulator)}``.
    Raises :class:`RanksBlocked` when every unfinished rank still waits
    at the absolute ``deadline`` (``time.monotonic()`` clock), and
    :class:`RankFailed` when a rank's fold raises.
    """
    group = {
        rank: _Rank(
            rank, programs[rank], stores.get(rank, {}), accumulators.get(rank)
        )
        for rank in sorted(programs)
    }
    ready = deque(group.values())
    outbound: list[Routed] = []
    live = len(group)
    while True:
        while ready:
            r = ready.popleft()
            try:
                finished = _advance(r, group, ready, outbound, combine, reduce_op)
            except Exception as exc:
                raise RankFailed(r.rank, exc) from exc
            if finished:
                live -= 1
        if outbound:
            ship(outbound)
            outbound = []
        if not live:
            break
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RanksBlocked(
                [
                    (r.rank, r.pc, len(r.kinds), *r.want)
                    for r in group.values()
                    if r.want is not None
                ]
            )
        for dst, (src, code, payload) in wait(min(remaining, 0.2)):
            _post(group[dst], src, code, payload, ready)
    return {
        rank: (r.delivered, r.acc if combine is not None else r.store)
        for rank, r in group.items()
    }
