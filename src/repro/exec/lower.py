"""Compile a schedule into per-rank programs (:class:`ExecPlan`).

The lowering turns the *global, timed* schedule IR into *local,
ordered* instruction streams: each LogP send becomes a ``SendInstr`` on
the sender and a matching ``RecvInstr`` on the receiver, each
``ComputeOp`` becomes a ``ReduceInstr``, and times are erased in favor
of program order plus data-dependency tokens.

Why erasing times is sound: within one rank, events are ordered by the
model's availability times (sends by start time, receives by payload
arrival ``t + L + 2o``, reductions by completion ``t + duration``),
with receives/reductions ordered before sends on ties.  For a legal
schedule this order is causal — a rank never sends an item before the
instruction that produced it — so executing each rank's stream in
program order with blocking matched receives reproduces exactly the
schedule's message multiset on any transport, with no deadlock.
Lowering checks the causal structure (every sent item is initially
held or produced earlier on that rank) and leaves timing legality to
the validator.

This module is on the ``repro check`` HOT list: it consumes the
columnar storage (or an implicit schedule's chunk stream) and computes
dependencies with vectorized segment scans — no per-``SendOp`` objects,
no ``.sends`` loops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from repro.exec.errors import LoweringError
from repro.exec.program import (
    KIND_RECV,
    KIND_REDUCE,
    KIND_SEND,
    ExecPlan,
    RankProgram,
)
from repro.params import LogPParams
from repro.schedule.columnar import ItemTable
from repro.schedule.implicit import DEFAULT_CHUNK_SENDS, ImplicitSchedule
from repro.schedule.ops import ComputeOp, Item, Schedule

if TYPE_CHECKING:
    from collections.abc import Sequence

__all__ = ["lower_schedule"]


def lower_schedule(
    schedule: Schedule | ImplicitSchedule,
    *,
    chunk_sends: int = DEFAULT_CHUNK_SENDS,
) -> ExecPlan:
    """Lower a (materialized or implicit) schedule to per-rank programs.

    Implicit schedules are materialized through their bounded
    ``iter_chunks(chunk_sends)`` stream — execution is inherently
    O(num_sends), so the columns are assembled once here.

    Raises :class:`LoweringError` when a rank sends an item it neither
    holds initially nor produces earlier in its own stream.
    """
    if isinstance(schedule, ImplicitSchedule):
        return _lower_implicit(schedule, chunk_sends)
    cols = schedule.columns()
    return _lower_columns(
        schedule.params,
        times=cols.times,
        srcs=cols.srcs,
        dsts=cols.dsts,
        codes=cols.items,
        arrivals=cols.arrivals,
        table=cols.table.copy(),
        initial=schedule.initial,
        computes=schedule.computes,
    )


def _lower_implicit(schedule: ImplicitSchedule, chunk_sends: int) -> ExecPlan:
    params = schedule.params
    table = ItemTable()
    parts_t: list[np.ndarray] = []
    parts_s: list[np.ndarray] = []
    parts_d: list[np.ndarray] = []
    parts_i: list[np.ndarray] = []
    for chunk in schedule.iter_chunks(chunk_sends):
        recode = np.fromiter(
            (table.intern(item) for item in chunk.table.items),
            dtype=np.int64,
            count=len(chunk.table),
        )
        parts_t.append(chunk.times)
        parts_s.append(chunk.srcs)
        parts_d.append(chunk.dsts)
        parts_i.append(recode[chunk.items])
    empty = np.empty(0, dtype=np.int64)
    times = np.concatenate(parts_t) if parts_t else empty
    srcs = np.concatenate(parts_s) if parts_s else empty
    dsts = np.concatenate(parts_d) if parts_d else empty
    codes = np.concatenate(parts_i) if parts_i else empty
    return _lower_columns(
        params,
        times=times,
        srcs=srcs,
        dsts=dsts,
        codes=codes,
        arrivals=times + params.send_cost,
        table=table,
        initial=schedule.initial_placement(),
        computes=[],
    )


def _lower_columns(
    params: LogPParams,
    *,
    times: np.ndarray,
    srcs: np.ndarray,
    dsts: np.ndarray,
    codes: np.ndarray,
    arrivals: np.ndarray,
    table: ItemTable,
    initial: Mapping[int, Iterable[Item]],
    computes: "Sequence[ComputeOp]",
) -> ExecPlan:
    n = int(times.shape[0])
    c = len(computes)
    m = 2 * n + c

    # Event table: one send + one recv event per message, one reduce
    # event per ComputeOp.  Keys are per-rank availability times; kind
    # doubles as the same-time priority (recv < reduce < send).
    ranks = np.concatenate(
        (srcs, dsts, np.fromiter((op.proc for op in computes), np.int64, c))
    )
    keys = np.concatenate(
        (
            times,
            arrivals,
            np.fromiter((op.time + op.duration for op in computes), np.int64, c),
        )
    )
    kinds = np.concatenate(
        (
            np.full(n, KIND_SEND, dtype=np.int8),
            np.full(n, KIND_RECV, dtype=np.int8),
            np.full(c, KIND_REDUCE, dtype=np.int8),
        )
    )
    peers = np.concatenate((dsts, srcs, np.full(c, -1, dtype=np.int64)))
    compute_codes = np.fromiter(
        (table.intern(op.result) for op in computes), np.int64, c
    )
    items = np.concatenate((codes, codes, compute_codes))
    # aux points reduce events back at their ComputeOp (operand lists
    # are tiny and ragged; they stay a Python side table)
    aux = np.concatenate(
        (np.full(2 * n, -1, dtype=np.int64), np.arange(c, dtype=np.int64))
    )

    order = np.lexsort((items, peers, kinds, keys, ranks))
    ranks_s = ranks[order]
    kinds_s = kinds[order]
    peers_s = peers[order]
    items_s = items[order]
    aux_s = aux[order]

    # Per-rank local instruction indices.
    uniq_ranks, first = np.unique(ranks_s, return_index=True)
    starts = first[np.searchsorted(uniq_ranks, ranks_s)]
    local = np.arange(m, dtype=np.int64) - starts

    deps_s = _send_deps(ranks_s, kinds_s, items_s, local)

    # sort before interning: set iteration order must not leak into the
    # code assignment (plans should be bit-stable across runs)
    initial_codes: dict[int, tuple[int, ...]] = {
        rank: tuple(
            sorted(table.intern(item) for item in sorted(held, key=repr))
        )
        for rank, held in sorted(initial.items())
    }
    _check_send_sources(
        ranks_s, kinds_s, items_s, deps_s, initial_codes, table
    )

    operands: dict[int, dict[int, tuple[int, ...]]] = {}
    for pos in np.flatnonzero(kinds_s == KIND_REDUCE):
        op = computes[int(aux_s[pos])]
        operands.setdefault(int(ranks_s[pos]), {})[int(local[pos])] = tuple(
            table.intern(operand) for operand in op.operands
        )

    programs: dict[int, RankProgram] = {}
    bounds = np.append(first, m)
    for idx, rank in enumerate(uniq_ranks.tolist()):
        lo, hi = int(bounds[idx]), int(bounds[idx + 1])
        programs[rank] = RankProgram(
            rank=rank,
            kinds=kinds_s[lo:hi].copy(),
            peers=peers_s[lo:hi].copy(),
            items=items_s[lo:hi].copy(),
            deps=deps_s[lo:hi].copy(),
            reduce_operands=operands.get(rank, {}),
            table=table,
        )
    if operands:
        _check_reduce_operands(programs, initial_codes, table)
    return ExecPlan(
        params=params,
        table=table,
        programs=programs,
        initial=initial_codes,
        num_sends=n,
    )


def _send_deps(
    ranks_s: np.ndarray,
    kinds_s: np.ndarray,
    items_s: np.ndarray,
    local: np.ndarray,
) -> np.ndarray:
    """Vectorized dependency tokens: for each send, the local index of
    the latest earlier producer (recv or reduce) of the same item on the
    same rank, or ``-1`` if none.

    Segment scan: regroup events by ``(rank, item)`` keeping program
    order, then take an exclusive running maximum of producer indices,
    offset per group so groups never bleed into each other.
    """
    m = int(ranks_s.shape[0])
    deps = np.full(m, -1, dtype=np.int64)
    if m == 0:
        return deps
    ord2 = np.lexsort((np.arange(m), items_s, ranks_s))
    g_rank = ranks_s[ord2]
    g_item = items_s[ord2]
    new_group = np.ones(m, dtype=bool)
    new_group[1:] = (g_rank[1:] != g_rank[:-1]) | (g_item[1:] != g_item[:-1])
    group_id = np.cumsum(new_group) - 1
    produced = kinds_s[ord2] != KIND_SEND
    prod_local = np.where(produced, local[ord2], -1)
    big = np.int64(m + 2)
    keyed = group_id * big + np.where(produced, prod_local + 1, 0)
    running = np.maximum.accumulate(keyed)
    excl = np.empty(m, dtype=np.int64)
    excl[0] = -1
    excl[1:] = running[:-1]
    base = group_id * big
    dep_here = np.where(excl >= base + 1, excl - base - 1, -1)
    is_send = kinds_s[ord2] == KIND_SEND
    deps[ord2[is_send]] = dep_here[is_send]
    return deps


def _check_send_sources(
    ranks_s: np.ndarray,
    kinds_s: np.ndarray,
    items_s: np.ndarray,
    deps_s: np.ndarray,
    initial_codes: dict[int, tuple[int, ...]],
    table: ItemTable,
) -> None:
    """Every dependency-free send must draw on the initial placement."""
    rootless = (kinds_s == KIND_SEND) & (deps_s == -1)
    if not bool(rootless.any()):
        return
    num_items = np.int64(len(table) + 1)
    held_keys = np.fromiter(
        (
            np.int64(rank) * num_items + code
            for rank, held in initial_codes.items()
            for code in held
        ),
        dtype=np.int64,
    )
    send_keys = ranks_s[rootless] * num_items + items_s[rootless]
    ok = np.isin(send_keys, held_keys)
    if bool(ok.all()):
        return
    bad = int(np.flatnonzero(rootless)[np.flatnonzero(~ok)[0]])
    rank = int(ranks_s[bad])
    item = table.decode(int(items_s[bad]))
    raise LoweringError(
        f"cannot lower: rank {rank} sends item {item!r} but never holds "
        f"it (not in the initial placement and not received or reduced "
        f"earlier on that rank)"
    )


def _check_reduce_operands(
    programs: dict[int, RankProgram],
    initial_codes: dict[int, tuple[int, ...]],
    table: ItemTable,
) -> None:
    """Walk only the ranks hosting reductions and confirm each operand
    is available (initial, received or reduced) before the fold.

    Operands that are never defined anywhere on the rank — no initial
    placement, no receive, no reduction result — are *ambient local
    inputs* (e.g. the summation schedule's ``("input", i, seq)``
    operands and its symbolic running accumulator): they exist outside
    the message causality this check guards, so they are exempt.  Only
    a defined-but-not-yet operand is a real ordering violation."""
    for rank, program in programs.items():
        if not program.reduce_operands:
            continue
        available = set(initial_codes.get(rank, ()))
        defined = set(available)
        produced = program.kinds != KIND_SEND
        defined.update(int(code) for code in program.items[produced])
        for i in range(len(program)):
            kind = int(program.kinds[i])
            if kind == KIND_RECV:
                available.add(int(program.items[i]))
            elif kind == KIND_REDUCE:
                missing = [
                    code
                    for code in program.reduce_operands[i]
                    if code not in available and code in defined
                ]
                if missing:
                    raise LoweringError(
                        f"cannot lower: rank {rank} reduces into "
                        f"{table.decode(int(program.items[i]))!r} but "
                        f"operand {table.decode(missing[0])!r} is not "
                        f"available at that point"
                    )
                available.add(int(program.items[i]))
