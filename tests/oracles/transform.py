"""Per-send loop oracles for the schedule passes.

One function per registered pass, each the executable specification of
its columnar kernel in :mod:`repro.passes.kernels`: hypothesis twins
assert byte-identical canonical JSON (and identical ``computes``)
between the two.  :func:`run_pass_objects` runs the oracle for a pass
given the same keyword parameters :func:`repro.passes.make_pass` takes.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Hashable, Iterable, Mapping

from repro.passes.kernels import SHIFT_BEFORE_ZERO, merge_source_items
from repro.schedule.ops import ComputeOp, Schedule, SendOp

from tests.oracles.analysis import availability_objects

Item = Hashable


def _copy_initial(schedule: Schedule) -> dict[int, set[Item]]:
    return {p: set(items) for p, items in schedule.initial.items()}


def shift_objects(schedule: Schedule, offset: int) -> Schedule:
    """Oracle for the ``shift`` pass."""
    floor = list(schedule.source_items.values())
    floor.extend(op.time for op in schedule.sends)
    floor.extend(op.time for op in schedule.computes)
    if floor and min(floor) + offset < 0:
        raise ValueError(SHIFT_BEFORE_ZERO)
    return Schedule(
        params=schedule.params,
        sends=[
            SendOp(time=op.time + offset, src=op.src, dst=op.dst, item=op.item)
            for op in schedule.sends
        ],
        initial=_copy_initial(schedule),
        computes=[
            ComputeOp(op.time + offset, op.proc, op.result, op.operands, op.duration)
            for op in schedule.computes
        ],
        source_items={
            item: when + offset for item, when in schedule.source_items.items()
        },
        machine=schedule.machine,
    )


def remap_objects(schedule: Schedule, mapping: Mapping[int, int]) -> Schedule:
    """Oracle for the ``remap`` pass."""
    used = schedule.processors() | {op.proc for op in schedule.computes}
    if len({mapping.get(p, p) for p in used}) != len(used):
        raise ValueError("processor mapping is not injective on used processors")

    def m(p: int) -> int:
        return mapping.get(p, p)

    return Schedule(
        params=schedule.params,
        sends=[
            SendOp(time=op.time, src=m(op.src), dst=m(op.dst), item=op.item)
            for op in schedule.sends
        ],
        initial={m(p): set(items) for p, items in schedule.initial.items()},
        computes=[
            ComputeOp(op.time, m(op.proc), op.result, op.operands, op.duration)
            for op in schedule.computes
        ],
        source_items=dict(schedule.source_items),
        machine=schedule.machine,
    )


def reverse_objects(
    schedule: Schedule,
    tag: str = "rev",
    initial: dict[int, set[Item]] | None = None,
    item_of: Callable[[SendOp], Item] | None = None,
) -> Schedule:
    """Oracle for the ``reverse`` pass.

    ``item_of`` relabels each reversed send's item (the pass always
    uses ``(tag, old_dst)``).
    """
    params = schedule.params
    if not schedule.sends:
        return Schedule(
            params=params,
            initial=initial or dict(schedule.initial),
            machine=schedule.machine,
        )
    completion = max(op.arrival(params) for op in schedule.sends)
    label = item_of or (lambda op: (tag, op.dst))
    sends = [
        SendOp(
            time=completion - op.arrival(params),
            src=op.dst,
            dst=op.src,
            item=label(op),
        )
        for op in schedule.sends
    ]
    source_items: dict[Item, int] = {}
    for op in sends:
        known = source_items.get(op.item)
        if known is None or op.time < known:
            source_items[op.item] = op.time
    if initial is None:
        initial = {}
        for op in sends:
            initial.setdefault(op.src, set()).add(op.item)
    return Schedule(
        params=params,
        sends=sorted(sends),
        initial=initial,
        source_items=source_items,
        machine=schedule.machine,
    )


def concat_objects(first: Schedule, second: Schedule) -> Schedule:
    """Oracle for the ``concat`` pass (flat machines)."""
    if first.params != second.params or first.machine != second.machine:
        raise ValueError("cannot concatenate schedules for different machines")
    params = first.params
    finish = max((op.arrival(params) for op in first.sends), default=0)
    moved = shift_objects(second, finish + max(params.g, params.o))
    initial = _copy_initial(first)
    for p, items in moved.initial.items():
        initial.setdefault(p, set()).update(items)
    return Schedule(
        params=params,
        sends=sorted(first.sends + moved.sends),
        initial=initial,
        source_items=merge_source_items(first.source_items, moved.source_items),
        machine=first.machine,
    )


def restrict_objects(schedule: Schedule, procs: Iterable[int]) -> Schedule:
    """Oracle for the ``restrict`` pass."""
    keep = set(procs)
    return Schedule(
        params=schedule.params,
        sends=[op for op in schedule.sends if op.src in keep and op.dst in keep],
        initial={
            p: set(items) for p, items in schedule.initial.items() if p in keep
        },
        source_items=dict(schedule.source_items),
        machine=schedule.machine,
    )


def canonicalize_objects(schedule: Schedule) -> Schedule:
    """Oracle for the ``canonicalize`` pass."""
    return Schedule(
        params=schedule.params,
        sends=sorted(schedule.sends, key=lambda op: (op.time, op.src, op.dst)),
        initial=_copy_initial(schedule),
        computes=list(schedule.computes),
        source_items=dict(schedule.source_items),
        machine=schedule.machine,
    )


def prune_dead_sends_objects(schedule: Schedule) -> Schedule:
    """Oracle for the ``prune-dead-sends`` pass (flat machines)."""
    avail = availability_objects(schedule)
    return Schedule(
        params=schedule.params,
        sends=[op for op in schedule.sends if avail[(op.dst, op.item)] > op.time],
        initial=_copy_initial(schedule),
        computes=list(schedule.computes),
        source_items=dict(schedule.source_items),
        machine=schedule.machine,
    )


def compact_time_objects(schedule: Schedule) -> Schedule:
    """Oracle for the ``compact-time`` pass (flat machines).

    Every send reserves ``[t, t + L + 2o + g]``, creation times reserve
    their own cycle, and uncovered cycles are deleted from the timeline.
    """
    params = schedule.params
    reserve = params.L + 2 * params.o + params.g
    deltas: dict[int, int] = {}
    for op in schedule.sends:
        deltas[op.time] = deltas.get(op.time, 0) + 1
        deltas[op.time + reserve + 1] = deltas.get(op.time + reserve + 1, 0) - 1
    for when in schedule.source_items.values():
        deltas[when] = deltas.get(when, 0) + 1
        deltas[when + 1] = deltas.get(when + 1, 0) - 1
    coords = sorted(deltas)
    gap_ends: list[int] = []
    removed_cum = [0]
    coverage = 0
    for left, right in zip(coords, coords[1:]):
        coverage += deltas[left]
        if coverage == 0:
            gap_ends.append(right)
            removed_cum.append(removed_cum[-1] + (right - left))

    def compacted(when: int) -> int:
        return when - removed_cum[bisect.bisect_right(gap_ends, when)]

    return Schedule(
        params=params,
        sends=[
            SendOp(time=compacted(op.time), src=op.src, dst=op.dst, item=op.item)
            for op in schedule.sends
        ],
        initial=_copy_initial(schedule),
        source_items={
            item: compacted(when) for item, when in schedule.source_items.items()
        },
        machine=schedule.machine,
    )


def run_pass_objects(name: str, schedule: Schedule, **args: Any) -> Schedule:
    """Run the oracle of the pass registered as ``name``.

    ``args`` are the pass's constructor keywords (``offset=``,
    ``perm="reverse"``/``mapping=``, ``second=``, ``procs=``, ``tag=``).
    """
    if name == "shift":
        return shift_objects(schedule, args.get("offset", 0))
    if name == "remap":
        mapping = args.get("mapping")
        if mapping is None:
            top = schedule.params.P - 1
            mapping = {p: top - p for p in range(schedule.params.P)}
        return remap_objects(schedule, mapping)
    if name == "reverse":
        return reverse_objects(schedule, tag=args.get("tag", "rev"))
    if name == "concat":
        return concat_objects(schedule, args["second"])
    if name == "restrict":
        return restrict_objects(schedule, args["procs"])
    if name == "canonicalize":
        return canonicalize_objects(schedule)
    if name == "prune-dead-sends":
        return prune_dead_sends_objects(schedule)
    if name == "compact-time":
        return compact_time_objects(schedule)
    raise ValueError(f"no objects oracle for pass {name!r}")
