"""Per-send loop oracles for :mod:`repro.schedule.analysis`.

Flat-machine only: every send is priced with ``schedule.params``.
"""

from __future__ import annotations

from typing import Hashable

from repro.schedule.ops import Schedule

Item = Hashable


def availability_objects(schedule: Schedule) -> dict[tuple[int, Item], int]:
    """Oracle for :func:`repro.schedule.analysis.availability`."""
    avail: dict[tuple[int, Item], int] = {}
    for proc, items in schedule.initial.items():
        for item in items:
            created = schedule.item_creation_time(item)
            key = (proc, item)
            avail[key] = min(avail.get(key, created), created)
    for op in schedule.sends:
        arrival = op.arrival(schedule.params)
        key = (op.dst, op.item)
        if key not in avail or arrival < avail[key]:
            avail[key] = arrival
    return avail


def completion_time_objects(schedule: Schedule) -> int:
    """Oracle for :func:`repro.schedule.analysis.completion_time`."""
    return max((op.arrival(schedule.params) for op in schedule.sends), default=0)


def item_completion_times_objects(
    schedule: Schedule, procs: set[int] | None = None
) -> dict[Item, int]:
    """Oracle for :func:`repro.schedule.analysis.item_completion_times`."""
    if procs is None:
        procs = schedule.processors()
    avail = availability_objects(schedule)
    out: dict[Item, int] = {}
    for item in schedule.items():
        worst = 0
        for proc in procs:
            when = avail.get((proc, item))
            if when is None:
                raise ValueError(f"item {item!r} never reaches processor {proc}")
            worst = max(worst, when)
        out[item] = worst
    return out


def broadcast_delay_per_proc_objects(
    schedule: Schedule, item: Item = 0
) -> dict[int, int]:
    """Oracle for :func:`repro.schedule.analysis.broadcast_delay_per_proc`."""
    return {
        proc: when
        for (proc, it), when in availability_objects(schedule).items()
        if it == item
    }
