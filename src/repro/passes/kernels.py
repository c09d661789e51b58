"""Vectorized columnar kernels behind the schedule passes.

Every kernel consumes a schedule's cached
:class:`~repro.schedule.columnar.ScheduleColumns` view and emits a fresh
array-backed :class:`~repro.schedule.ops.Schedule` via
:meth:`Schedule.from_arrays` (or, when ``canonicalize`` or
``prune-dead-sends`` has nothing to change, its input, so the facts
memoized on it carry over) — no ``SendOp`` object is ever constructed,
so a pipeline over the P=1024 all-to-all (~1M sends) stays in numpy end
to end.  The pure-Python oracles with identical observable behaviour
(byte-identical serialized JSON, property-tested) live in
``tests/oracles/transform.py``; checker REPRO001 (``repro check``)
keeps per-send Python loops out of this package.

Column arrays are read-only, so kernels share the input's
arrays and :class:`~repro.schedule.columnar.ItemTable` whenever a column
passes through unchanged (``shift`` shares ``srcs``/``dsts``/``items``,
``restrict`` shares the table, ...) — transforming is O(changed
columns), not O(schedule).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Hashable, Iterable, Mapping

import numpy as np

from repro.schedule.analysis_np import receiver_hold_times
from repro.schedule.columnar import ItemTable, sort_order
from repro.schedule.ops import Schedule

__all__ = [
    "SHIFT_BEFORE_ZERO",
    "merge_source_items",
    "shift_columns",
    "remap_columns",
    "reverse_columns",
    "concat_columns",
    "restrict_columns",
    "canonicalize_columns",
    "prune_dead_sends_columns",
    "compact_time_columns",
]

Item = Hashable

#: Shared shift-guard message, raised at transform time (the objects
#: oracle imports it; ``repro.schedule.implicit`` keeps a textually
#: identical copy, pinned equal by the test suite) so a negative-time
#: schedule can never silently materialize and only fail later at lint
#: time.
SHIFT_BEFORE_ZERO = "shift would move a send or item creation before cycle 0"


def merge_source_items(
    first: Mapping[Item, int], second: Mapping[Item, int]
) -> dict[Item, int]:
    """Merge two ``item -> creation time`` maps, refusing conflicts.

    A key present in both with *different* times is a real authorship
    conflict (two schedules disagree about when the item exists) and
    raises ``ValueError``; silently letting the second map win — the
    pre-PR-5 ``concat`` behaviour — masked exactly that bug.
    """
    merged = dict(first)
    for item, when in second.items():
        known = merged.get(item)
        if known is not None and known != when:
            raise ValueError(
                f"conflicting source_items entries for {item!r}: "
                f"{known} vs {when}"
            )
        merged[item] = when
    return merged


def _is_identity(order: np.ndarray) -> bool:
    return bool((order == np.arange(len(order))).all())


def shift_columns(schedule: Schedule, offset: int) -> Schedule:
    """Columnar :func:`repro.schedule.transform.shift`."""
    cols = schedule.columns()
    floor = list(schedule.source_items.values())
    floor.extend(op.time for op in schedule.computes)
    if len(cols):
        floor.append(int(cols.times.min()))
    if floor and min(floor) + offset < 0:
        raise ValueError(SHIFT_BEFORE_ZERO)
    return Schedule.from_arrays(
        schedule.params,
        cols.times + offset,
        cols.srcs,
        cols.dsts,
        cols.items,
        cols.table,
        initial=schedule.initial,
        computes=[replace(op, time=op.time + offset) for op in schedule.computes],
        source_items={
            item: when + offset for item, when in schedule.source_items.items()
        },
        machine=schedule.machine,
    )


def remap_columns(schedule: Schedule, mapping: Mapping[int, int]) -> Schedule:
    """Columnar :func:`repro.schedule.transform.remap`."""
    cols = schedule.columns()
    used = set(schedule.initial)
    used.update(op.proc for op in schedule.computes)
    if len(cols):
        used.update(np.union1d(cols.srcs, cols.dsts).tolist())
    image = {mapping.get(p, p) for p in used}
    if len(image) != len(used):
        raise ValueError("processor mapping is not injective on used processors")
    size = max(used, default=-1) + 1
    lut = np.arange(size, dtype=np.int64)
    for old, new in mapping.items():
        if 0 <= old < size:
            lut[old] = new
    return Schedule.from_arrays(
        schedule.params,
        cols.times,
        lut[cols.srcs],
        lut[cols.dsts],
        cols.items,
        cols.table,
        initial={
            mapping.get(p, p): set(items)
            for p, items in schedule.initial.items()
        },
        computes=[
            replace(op, proc=mapping.get(op.proc, op.proc))
            for op in schedule.computes
        ],
        source_items=schedule.source_items,
        machine=schedule.machine,
    )


def reverse_columns(
    schedule: Schedule,
    tag: str = "rev",
    initial: dict[int, set[Item]] | None = None,
) -> Schedule:
    """Columnar :func:`repro.schedule.transform.reverse` (default labels).

    Items become ``(tag, old_dst)``; ``source_items`` records each new
    item's earliest send time, the tightest creation times consistent
    with the reversed schedule (so causality re-validation stays
    meaningful — see the transform docstring).
    """
    params = schedule.params
    cols = schedule.columns()
    if len(cols) == 0:
        return Schedule(
            params=params,
            initial=schedule.initial if initial is None else initial,
            machine=schedule.machine,
        )
    completion = int(cols.arrivals.max())
    new_times = completion - cols.arrivals
    uniq_dsts, inverse = np.unique(cols.dsts, return_inverse=True)
    table = ItemTable.distinct((tag, d) for d in uniq_dsts.tolist())
    earliest = np.full(len(uniq_dsts), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(earliest, inverse, new_times)
    source_items = dict(zip(table.items, earliest.tolist()))
    if initial is None:
        initial = {int(d): {(tag, int(d))} for d in uniq_dsts.tolist()}
    return Schedule.from_arrays(
        params,
        new_times,
        cols.dsts,
        cols.srcs,
        inverse.astype(np.int64),
        table,
        initial=initial,
        source_items=source_items,
        machine=schedule.machine,
    )


def concat_columns(first: Schedule, second: Schedule) -> Schedule:
    """Columnar :func:`repro.schedule.transform.concat`."""
    if first.params != second.params:
        raise ValueError("cannot concatenate schedules for different machines")
    if first.machine != second.machine:
        raise ValueError("cannot concatenate schedules for different machines")
    params = first.params
    c1, c2 = first.columns(), second.columns()
    finish = int(c1.arrivals.max()) if len(c1) else 0
    if first.machine is not None and not first.machine.is_flat:
        # pad by the worst level: the flat envelope's g can undershoot a
        # slower intra level, which would leak gap violations across the
        # seam
        pad = max(max(p.g, p.o) for p in first.machine.levels)
    else:
        pad = max(params.g, params.o)
    offset = finish + pad
    if len(c2) and int(c2.times.min()) + offset < 0:
        raise ValueError(SHIFT_BEFORE_ZERO)
    table = c1.table.copy()
    code_map = table.encode(c2.table.items, count=len(c2.table))
    initial = {p: set(items) for p, items in first.initial.items()}
    for p, items in second.initial.items():
        initial.setdefault(p, set()).update(items)
    return Schedule.from_arrays(
        params,
        np.concatenate([c1.times, c2.times + offset]),
        np.concatenate([c1.srcs, c2.srcs]),
        np.concatenate([c1.dsts, c2.dsts]),
        np.concatenate([c1.items, code_map[c2.items]]),
        table,
        initial=initial,
        source_items=merge_source_items(
            first.source_items,
            {
                item: when + offset
                for item, when in second.source_items.items()
            },
        ),
        machine=first.machine,
    )


def restrict_columns(schedule: Schedule, procs: Iterable[int]) -> Schedule:
    """Columnar :func:`repro.schedule.transform.restrict`."""
    keep = set(procs)
    cols = schedule.columns()
    procs_arr = np.fromiter(keep, dtype=np.int64, count=len(keep))
    mask = np.isin(cols.srcs, procs_arr) & np.isin(cols.dsts, procs_arr)
    return Schedule.from_arrays(
        schedule.params,
        cols.times[mask],
        cols.srcs[mask],
        cols.dsts[mask],
        cols.items[mask],
        cols.table,
        initial={
            p: set(items)
            for p, items in schedule.initial.items()
            if p in keep
        },
        source_items=merge_source_items(schedule.source_items, {}),
        machine=schedule.machine,
    )


def canonicalize_columns(schedule: Schedule) -> tuple[Schedule, int]:
    """Stable ``(time, src, dst)`` sort + item-table compaction.

    Returns ``(canonical schedule, number of item-table entries
    dropped)``.  The surviving table is re-interned in first-use order of
    the sorted send stream, so two schedules with the same canonical JSON
    also get identical column storage.  An input that is already
    canonical is returned as is (:meth:`Schedule.array_backed
    <repro.schedule.ops.Schedule.array_backed>`).
    """
    cols = schedule.columns()
    order = sort_order(cols)
    items_sorted = cols.items[order]
    uniq_codes, first_pos, inverse = np.unique(
        items_sorted, return_index=True, return_inverse=True
    )
    perm = np.argsort(first_pos, kind="stable")
    if (
        len(uniq_codes) == len(cols.table)
        and _is_identity(order)
        and _is_identity(perm)
    ):
        # already canonical: the result is the input (as array storage),
        # so a verifier's next look at it reuses the facts memoized on it
        return schedule.array_backed(), 0
    new_code_of = np.empty(len(uniq_codes), dtype=np.int64)
    new_code_of[perm] = np.arange(len(uniq_codes), dtype=np.int64)
    old_items = cols.table.items
    table = ItemTable(old_items[int(uniq_codes[i])] for i in perm.tolist())
    dropped = len(cols.table) - len(table)
    return (
        Schedule.from_arrays(
            schedule.params,
            cols.times[order],
            cols.srcs[order],
            cols.dsts[order],
            new_code_of[inverse],
            table,
            initial=schedule.initial,
            computes=list(schedule.computes),
            source_items=schedule.source_items,
            machine=schedule.machine,
        ),
        dropped,
    )


def prune_dead_sends_columns(schedule: Schedule) -> tuple[Schedule, int]:
    """Drop every SCHED004 dead send; returns ``(schedule, removed)``.

    A send is *dead* when its destination already holds the item at the
    send's start time (exactly the lint engine's SCHED004 predicate —
    both read the schedule's memoized
    :func:`~repro.schedule.analysis_np.receiver_hold_times`).  With
    nothing to drop, the input itself is returned.  One
    pass reaches the fixpoint: for each ``(dst, item)`` pair the
    earliest-availability witness is either an initial placement or the
    minimum-arrival send, and a minimum-arrival send can itself be dead
    only when an initial placement outranks it — so removing dead sends
    never changes any first-availability time.
    """
    cols = schedule.columns()
    alive = receiver_hold_times(schedule) > cols.times
    removed = int(len(cols) - int(alive.sum()))
    if removed == 0:
        return schedule, 0
    return (
        Schedule.from_arrays(
            schedule.params,
            cols.times[alive],
            cols.srcs[alive],
            cols.dsts[alive],
            cols.items[alive],
            cols.table,
            initial=schedule.initial,
            computes=list(schedule.computes),
            source_items=schedule.source_items,
            machine=schedule.machine,
        ),
        removed,
    )


def compact_time_columns(schedule: Schedule) -> tuple[Schedule, int]:
    """Left-shift globally idle cycles out of the timeline.

    Returns ``(compacted schedule, reclaimed cycles)``.  Every send at
    ``t`` reserves the closed window ``[t, t + L + 2o + g]`` — the
    furthest horizon any LogP constraint (availability ``t + L + 2o``,
    send/receive gaps ``+ g``, overheads ``+ o``) can reach forward from
    it — and every ``source_items`` creation time reserves its own
    cycle.  Cycles covered by no reservation are *globally idle*:
    deleting such a gap shrinks every cross-gap time difference to at
    least ``L + 2o + g + 1``, which still clears every constraint floor,
    and leaves within-region differences untouched.  Per-processor slack
    (SCHED007) inside busy regions is intentionally not touched — that
    would need rescheduling, not translation.  Creation times are
    remapped by the same compaction, and the schedule's start time is
    preserved (use ``shift`` to translate to cycle 0).
    """
    params = schedule.params
    cols = schedule.columns()
    if schedule.machine is not None and not schedule.machine.is_flat:
        # the reservation horizon must cover the slowest level's reach
        reserve = max(p.L + 2 * p.o + p.g for p in schedule.machine.levels)
    else:
        reserve = params.L + 2 * params.o + params.g
    markers = np.fromiter(
        schedule.source_items.values(),
        dtype=np.int64,
        count=len(schedule.source_items),
    )
    starts = np.concatenate([cols.times, markers])
    ends = np.concatenate([cols.times + reserve + 1, markers + 1])
    if len(starts) == 0:
        return (
            Schedule.from_arrays(
                params,
                cols.times,
                cols.srcs,
                cols.dsts,
                cols.items,
                cols.table,
                initial=schedule.initial,
                source_items={},
                machine=schedule.machine,
            ),
            0,
        )
    bounds = np.concatenate([starts, ends])
    deltas = np.concatenate(
        [
            np.ones(len(starts), dtype=np.int64),
            -np.ones(len(ends), dtype=np.int64),
        ]
    )
    coords, inverse = np.unique(bounds, return_inverse=True)
    agg = np.zeros(len(coords), dtype=np.int64)
    np.add.at(agg, inverse, deltas)
    coverage = np.cumsum(agg)
    idle = coverage[:-1] == 0
    seg_lens = np.diff(coords)
    gap_ends = coords[1:][idle]
    removed = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(seg_lens[idle])]
    )

    def compacted(times: np.ndarray) -> np.ndarray:
        # every input time sits inside a reservation, never inside a gap,
        # so "gaps ending at or before t" is exactly the idle time before t
        return times - removed[np.searchsorted(gap_ends, times, side="right")]

    src_pairs = list(schedule.source_items.items())
    if src_pairs:
        creation = np.fromiter(
            (when for _, when in src_pairs),
            dtype=np.int64,
            count=len(src_pairs),
        )
        shifted = compacted(creation)
        source_items = {
            item: int(when)
            for (item, _), when in zip(src_pairs, shifted.tolist())
        }
    else:
        source_items = {}
    return (
        Schedule.from_arrays(
            params,
            compacted(cols.times),
            cols.srcs,
            cols.dsts,
            cols.items,
            cols.table,
            initial=schedule.initial,
            source_items=source_items,
            machine=schedule.machine,
        ),
        int(removed[-1]),
    )
