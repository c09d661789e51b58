"""Execution traces: per-processor activity timelines.

A :class:`Trace` records what each processor is doing in every cycle
interval — sending overhead, receive overhead, computing, or idle — which
is exactly the information rendered in the paper's Figure 1 (processor
activity over time) and Figure 6 (computation schedule).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from repro.machine.model import FlatMachine
from repro.params import LogPParams
from repro.schedule.columnar import sort_order
from repro.schedule.ops import Schedule

__all__ = ["Activity", "Trace", "trace_from_schedule"]

Item = Hashable


@dataclass(frozen=True, slots=True, order=True)
class Activity:
    """One busy interval ``[start, end)`` of a processor.

    ``kind`` is ``"send"``, ``"recv"`` or ``"compute"``; ``peer`` is the
    other endpoint for communication activities (or ``None``).
    """

    start: int
    end: int
    kind: str
    proc: int
    item: Item = 0
    peer: int | None = None


@dataclass
class Trace:
    """All activities of an execution, grouped per processor."""

    params: LogPParams
    activities: dict[int, list[Activity]] = field(default_factory=dict)

    def add(self, activity: Activity) -> None:
        self.activities.setdefault(activity.proc, []).append(activity)

    def finalize(self) -> "Trace":
        for acts in self.activities.values():
            acts.sort()
        return self

    def horizon(self) -> int:
        """The last cycle at which any processor is busy."""
        ends = [a.end for acts in self.activities.values() for a in acts]
        return max(ends) if ends else 0

    def busy_cycles(self, proc: int) -> int:
        """Total busy cycles of ``proc`` (overheads + computation)."""
        return sum(a.end - a.start for a in self.activities.get(proc, []))

    def utilization(self, proc: int) -> float:
        """Fraction of the horizon during which ``proc`` is busy."""
        horizon = self.horizon()
        return self.busy_cycles(proc) / horizon if horizon else 0.0


def trace_from_schedule(schedule: Schedule) -> Trace:
    """Expand a schedule into explicit per-processor busy intervals.

    Each send is priced by its edge's level on the schedule's machine
    (``o_e`` is that level's overhead), exactly as the legality kernel
    prices it: send overhead occupies the sender over ``[t, t + o_e)``
    and receive overhead occupies the receiver from ``arrival - o_e``,
    where ``arrival`` is the per-edge ``cols.arrivals``.  In the postal
    model (``o_e = 0``) the intervals are rendered with unit width so
    timelines stay legible.
    """
    params = schedule.params
    machine = schedule.machine or FlatMachine(params)
    cols = schedule.columns()
    level_o = np.array([p.o for p in machine.levels], dtype=np.int64)
    overheads = level_o[machine.edge_levels_np(cols.srcs, cols.dsts)]
    order = sort_order(cols)
    items = cols.table.items
    trace = Trace(params=params)
    for t, src, dst, code, arrival, o_e in zip(
        cols.times[order].tolist(),
        cols.srcs[order].tolist(),
        cols.dsts[order].tolist(),
        cols.items[order].tolist(),
        cols.arrivals[order].tolist(),
        overheads[order].tolist(),
    ):
        item = items[code]
        width = max(o_e, 1)
        trace.add(
            Activity(
                start=t, end=t + width, kind="send", proc=src, item=item, peer=dst
            )
        )
        rs = arrival - o_e
        trace.add(
            Activity(
                start=rs, end=rs + width, kind="recv", proc=dst, item=item, peer=src
            )
        )
    for cop in sorted(schedule.computes):
        trace.add(
            Activity(
                start=cop.time,
                end=cop.time + cop.duration,
                kind="compute",
                proc=cop.proc,
                item=cop.result,
            )
        )
    return trace.finalize()
