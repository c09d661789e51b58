"""Shared per-run state for the lint rules.

Every rule consumes the same handful of derived arrays (the columnar
view, the availability table, the replay order, per-send availability
lookups).  :class:`LintContext` reads each of them from the schedule's
memo (:meth:`~repro.schedule.ops.Schedule.memo`), where it is computed
lazily and exactly once per plan object: a ten-rule sweep over a
million-send schedule costs one availability sort, not ten, and
repeated lint runs, the passes and the legality kernel over one plan
share that sort and every other fact.
Everything here is numpy over
:class:`~repro.schedule.columnar.ScheduleColumns` — no rule or helper
ever iterates ``schedule.sends`` (checker REPRO001, ``repro check``,
enforces this).

Workload detection (:func:`detect_workload`) classifies the *shape* of
the initial placement so the paper-specific rules (optimality gaps,
single-sending, Theorem 3.2 endgame) know which closed forms apply:

* ``broadcast`` — one processor holds one item (Section 2);
* ``kitem`` — one processor holds ``k > 1`` items (Section 3);
* ``scattered`` — every initial processor holds its own disjoint items
  (all-to-all, reductions, combining broadcasts; Sections 4-5);
* ``empty`` / ``unknown`` — nothing to say structurally.

Detection reads only the initial placement; rules that need to know
whether a scattered schedule is genuinely an all-to-all (every item
reaches every participant) ask :attr:`LintContext.holders_per_item`.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.params import LogPParams
from repro.schedule.analysis_np import (
    availability_arrays,
    receiver_hold_times,
    sender_hold_times,
)
from repro.schedule.columnar import ScheduleColumns, _read_only
from repro.schedule.ops import Schedule

__all__ = ["Workload", "detect_workload", "LintContext"]


class Workload:
    """Workload-shape constants (plain strings, so reports serialize)."""

    EMPTY = "empty"
    BROADCAST = "broadcast"
    KITEM = "kitem"
    SCATTERED = "scattered"
    UNKNOWN = "unknown"


def detect_workload(schedule: Schedule) -> str:
    """Classify the schedule's initial placement (see module docstring)."""
    placements = [items for items in schedule.initial.values() if items]
    if not placements:
        return Workload.EMPTY if schedule.num_sends == 0 else Workload.UNKNOWN
    if len(placements) == 1:
        return Workload.BROADCAST if len(placements[0]) == 1 else Workload.KITEM
    # scattered: the placements are pairwise disjoint
    if len(frozenset().union(*placements)) == sum(map(len, placements)):
        return Workload.SCATTERED
    return Workload.UNKNOWN


def _broadcast_source(schedule: Schedule) -> int | None:
    workload = schedule.memo("workload", detect_workload)
    if workload not in (Workload.BROADCAST, Workload.KITEM):
        return None
    return next(proc for proc, items in schedule.initial.items() if items)


def _initial_keys(schedule: Schedule) -> np.ndarray:
    _, _, item_ids, n_items = availability_arrays(schedule)
    entries = [
        proc * n_items + item_ids[item]
        for proc, items in schedule.initial.items()
        for item in items
    ]
    keys = np.array(sorted(entries), dtype=np.int64)
    _read_only(keys)
    return keys


def _replay_order(schedule: Schedule) -> np.ndarray:
    cols = schedule.columns()
    order = np.lexsort((cols.dsts, cols.srcs, cols.times))
    _read_only(order)
    return order


def _participants(schedule: Schedule) -> np.ndarray:
    cols = schedule.columns()
    procs = np.union1d(cols.srcs, cols.dsts)
    initial = np.fromiter(
        (p for p, items in schedule.initial.items() if items), dtype=np.int64
    )
    participants = np.union1d(procs, initial)
    machine = schedule.machine
    if machine is not None:
        expected = machine.expected_participants()
        if expected is not None:
            participants = np.union1d(participants, expected)
    _read_only(participants)
    return participants


def _holders_per_item(schedule: Schedule) -> np.ndarray:
    keys, _, _, n_items = availability_arrays(schedule)
    holders = np.bincount(keys % n_items, minlength=n_items).astype(np.int64)
    _read_only(holders)
    return holders


def _source_item_send_counts(schedule: Schedule) -> np.ndarray:
    cols = schedule.columns()
    source = _broadcast_source(schedule)
    if source is None:
        counts = np.zeros(0, dtype=np.int64)
    else:
        counts = np.bincount(
            cols.items[cols.srcs == source], minlength=len(cols.table.items)
        ).astype(np.int64)
    _read_only(counts)
    return counts


class LintContext:
    """The rules' view of one schedule's lint facts.

    Every derived fact (workload, replay order, participants, ...) is
    memoized on the schedule (:meth:`~repro.schedule.ops.Schedule.memo`),
    not here: each lint run over one plan object reads the same
    evaluation.
    """

    def __init__(self, schedule: Schedule):
        self.schedule = schedule
        self.params: LogPParams = schedule.params
        self.cols: ScheduleColumns = schedule.columns()

    # -- basic shape -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.cols)

    @property
    def start_time(self) -> int:
        """Earliest send start (the schedule's time origin for bounds).

        Note ``min(initial=0)`` would be wrong here: ``initial`` joins
        the reduction, which would pin the origin to 0 and break shift
        invariance for schedules starting later.
        """
        if len(self.cols) == 0:
            return 0
        return int(self.cols.times.min())

    @property
    def makespan(self) -> int:
        """Completion relative to :attr:`start_time` (shift-invariant)."""
        if len(self.cols) == 0:
            return 0
        return int(self.cols.arrivals.max()) - self.start_time

    @property
    def workload(self) -> str:
        """:func:`detect_workload` of the schedule."""
        return self.schedule.memo("workload", detect_workload)

    @property
    def source(self) -> int | None:
        """The single initial processor for broadcast/kitem workloads."""
        return _broadcast_source(self.schedule)

    # -- availability ----------------------------------------------------

    @property
    def avail(self) -> tuple[np.ndarray, np.ndarray, dict[Hashable, int], int]:
        """``(keys, times, item_ids, n_items)`` availability table.

        ``keys`` is sorted ``proc * n_items + item_id``; ``times[i]`` is
        the earliest cycle that pair holds the item (initial placements
        and arrivals folded together).  See
        :func:`repro.schedule.analysis_np.availability_arrays`; built
        once per plan and shared with the passes and the kernel.
        """
        return availability_arrays(self.schedule)

    @property
    def n_items(self) -> int:
        """Distinct items across sends *and* initial placements."""
        return self.avail[3]

    def item_of(self, code: int) -> Hashable:
        """Decode an extended item id back to the item value."""
        _, _, item_ids, _ = self.avail
        table = self.cols.table.items
        if code < len(table):
            return table[code]
        for item, idx in item_ids.items():
            if idx == code:
                return item
        raise KeyError(code)

    @property
    def dst_keys(self) -> np.ndarray:
        return self.cols.dsts * self.n_items + self.cols.items

    # -- the send-facts view (repro.analyze.rules.SendFacts) --------------

    #: Storage index of ``cols`` row 0: the whole schedule starts at 0.
    lo = 0

    @property
    def send_found(self) -> np.ndarray:
        """Per send: does the sender ever hold the item?"""
        return sender_hold_times(self.schedule)[0]

    @property
    def send_avail(self) -> np.ndarray:
        """Per send: first cycle the sender holds the item (0 if never)."""
        return sender_hold_times(self.schedule)[1]

    @property
    def dst_avail(self) -> np.ndarray:
        """Per send: first cycle the *destination* holds the sent item.

        Always found — the send's own arrival is in the table.
        """
        return receiver_hold_times(self.schedule)

    @property
    def initial_keys(self) -> np.ndarray:
        """Sorted encoded (proc, item) pairs of the initial placement."""
        return self.schedule.memo("initial_keys", _initial_keys)

    # -- orders and aggregates -------------------------------------------

    @property
    def replay_order(self) -> np.ndarray:
        """Indices ordering sends by ``(time, src, dst)`` (stable)."""
        return self.schedule.memo("replay_order", _replay_order)

    @property
    def participants(self) -> np.ndarray:
        """Sorted processor ids that appear anywhere in the schedule.

        On a fault-masked machine the expected survivor set joins the
        union: a surviving leaf that an over-eager ``restrict`` removed
        from every send would otherwise vanish from the observed
        participants and slip past coverage lint (SCHED010).
        """
        return self.schedule.memo("participants", _participants)

    @property
    def holders_per_item(self) -> np.ndarray:
        """Distinct processors that ever hold each item (by extended id)."""
        return self.schedule.memo("holders_per_item", _holders_per_item)

    @property
    def source_item_send_counts(self) -> np.ndarray:
        """How often the broadcast source transmits each item code.

        Indexed by the *column table's* dense item codes; only meaningful
        for broadcast/kitem workloads (empty array otherwise).
        """
        return self.schedule.memo(
            "source_item_send_counts", _source_item_send_counts
        )
