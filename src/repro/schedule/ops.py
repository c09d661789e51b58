"""Schedule intermediate representation.

All algorithms in this library — the paper's optimal constructions and the
baselines alike — emit the same IR: a :class:`Schedule` holding
:class:`SendOp` records plus the machine parameters and the initial item
placement.  The simulator (:mod:`repro.sim`) replays this IR, enforcing
every LogP constraint, and the analysis helpers compute completion times
and per-item delays from it.

Two storage modes back the same interface:

* **object-backed** (the default): a plain list of frozen ``SendOp``
  dataclasses, built one :meth:`Schedule.add` at a time;
* **array-backed** (:meth:`Schedule.from_arrays`): struct-of-arrays
  ``int64`` columns from :mod:`repro.schedule.columnar`, used by the
  vectorized builders.  ``schedule.sends`` lazily materializes the
  ``SendOp`` objects on first access, so legacy consumers see no
  difference; vectorized consumers read :meth:`Schedule.columns` and
  never pay for the objects.

``columns()`` and ``sorted_sends()`` are cached and invalidated on
:meth:`add`/:meth:`extend` (or when the send count changes), so
repeated validate/analyze calls stop re-deriving them.

Timing convention (integer cycles):

* a ``SendOp`` with start time ``s`` occupies the **sender** during
  ``[s, s+o)``;
* the message is in transit during ``[s+o, s+o+L)``;
* it occupies the **receiver** during ``[s+o+L, s+o+L+o)``;
* the payload is **available** at the receiver at ``s + L + 2o``.

In the postal model (``o=0``) this degenerates to: sent at ``s``,
available at ``s + L``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator

import numpy as np

from repro.params import LogPParams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.analyze.diagnostics import LintReport
    from repro.machine.model import MachineModel
    from repro.schedule.columnar import ItemTable, ScheduleColumns

__all__ = ["SendOp", "ComputeOp", "Schedule"]

Item = Hashable


@dataclass(frozen=True, slots=True, order=True)
class SendOp:
    """A single point-to-point message.

    Ordering is by ``(time, src, dst)`` so sorted schedules replay in
    chronological order.
    """

    time: int
    src: int
    dst: int
    item: Item = 0

    def arrival(self, params: LogPParams) -> int:
        """Cycle at which the payload becomes available at ``dst``."""
        return self.time + params.L + 2 * params.o

    def receive_start(self, params: LogPParams) -> int:
        """Cycle at which the receive overhead begins at ``dst``."""
        return self.time + params.o + params.L


@dataclass(frozen=True, slots=True, order=True)
class ComputeOp:
    """A unit-time local computation (used by summation schedules).

    ``operands`` names the values combined and ``result`` the value
    produced; the processor is busy during ``[time, time + duration)``.
    """

    time: int
    proc: int
    result: Item = 0
    operands: tuple[Item, ...] = ()
    duration: int = 1


def _chronological(op: SendOp) -> tuple[int, int, int]:
    # sort key for replay order: (time, src, dst), ties kept in storage
    # order — total even when distinct items are not mutually orderable
    return (op.time, op.src, op.dst)


class Schedule:
    """A complete communication (and optionally computation) schedule.

    Parameters
    ----------
    params:
        The LogP machine this schedule targets.
    sends:
        All messages; need not be pre-sorted.
    initial:
        Map ``proc -> set of items`` available at time 0.  Defaults to the
        single item ``0`` at processor 0 (the classic broadcast setup).
    computes:
        Optional local-computation ops (summation schedules).
    source_items:
        For multi-item broadcasts: map ``item -> time it is created`` at
        the source.  Items default to being available at time 0.
    machine:
        Optional :class:`~repro.machine.model.MachineModel` the schedule
        targets.  ``None`` (the default) and ``FlatMachine`` both mean
        the classic flat machine described by ``params``; hierarchical
        or fault-masked machines switch arrival times, validation, and
        lint to per-edge pricing.  ``params`` stays the machine's flat
        envelope so legacy consumers keep working.
    """

    def __init__(
        self,
        params: LogPParams,
        sends: list[SendOp] | None = None,
        initial: dict[int, set[Item]] | None = None,
        computes: list[ComputeOp] | None = None,
        source_items: dict[Item, int] | None = None,
        machine: MachineModel | None = None,
    ):
        if machine is not None and machine.num_procs != params.P:
            raise ValueError(
                f"machine has {machine.num_procs} ranks but params.P is "
                f"{params.P}"
            )
        self.params = params
        self.machine = machine
        self.initial = initial if initial else {0: {0}}
        self.computes = computes if computes is not None else []
        self.source_items = source_items if source_items is not None else {}
        self._sends: list[SendOp] | None = (
            sends if isinstance(sends, list) else list(sends or [])
        )
        self._columns: ScheduleColumns | None = None
        self._sorted: list[SendOp] | None = None

    @classmethod
    def from_arrays(
        cls,
        params: LogPParams,
        times: np.ndarray,
        srcs: np.ndarray,
        dsts: np.ndarray,
        item_codes: np.ndarray | None = None,
        item_table: ItemTable | None = None,
        initial: dict[int, set[Item]] | None = None,
        computes: list[ComputeOp] | None = None,
        source_items: dict[Item, int] | None = None,
        machine: MachineModel | None = None,
    ) -> Schedule:
        """Build an array-backed schedule from ``int64`` column arrays.

        ``item_codes[i]`` indexes ``item_table``; omit both for the
        classic single-item (item ``0``) case.  ``SendOp`` objects are
        only created if ``schedule.sends`` is later touched.
        """
        from repro.schedule.columnar import arrays_to_columns

        schedule = cls(
            params=params,
            initial=initial,
            computes=computes,
            source_items=source_items,
            machine=machine,
        )
        schedule._sends = None
        schedule._columns = arrays_to_columns(
            params,
            times,
            srcs,
            dsts,
            item_codes,
            item_table,
            schedule.initial,
            machine=machine,
        )
        return schedule

    # -- storage ---------------------------------------------------------

    @property
    def sends(self) -> list[SendOp]:
        """The send list (lazily materialized for array-backed schedules)."""
        if self._sends is None:
            from repro.schedule.columnar import materialize_sends

            self._sends = materialize_sends(self._columns)
        return self._sends

    @sends.setter
    def sends(self, value: Iterable[SendOp]) -> None:
        self._sends = value if isinstance(value, list) else list(value)
        self._invalidate()

    @property
    def num_sends(self) -> int:
        """Send count without materializing an array-backed schedule."""
        if self._sends is None:
            return len(self._columns.times)
        return len(self._sends)

    @property
    def is_array_backed(self) -> bool:
        """True while the columns are the only storage (nothing materialized)."""
        return self._sends is None

    def columns(self) -> ScheduleColumns:
        """The cached column view consumed by the vectorized kernels.

        Array-backed schedules return their storage directly (zero-copy);
        object-backed schedules convert once and reuse the result until
        the send count changes.
        """
        if self._columns is not None and (
            self._sends is None or len(self._columns) == len(self._sends)
        ):
            return self._columns
        from repro.schedule.columnar import sends_to_columns

        self._columns = sends_to_columns(
            self._sends, self.params, self.initial, machine=self.machine
        )
        return self._columns

    def _invalidate(self) -> None:
        if self._sends is not None:
            self._columns = None
        self._sorted = None

    # -- mutation --------------------------------------------------------

    def add(self, time: int, src: int, dst: int, item: Item = 0) -> SendOp:
        op = SendOp(time=time, src=src, dst=dst, item=item)
        self.sends.append(op)
        self._invalidate()
        return op

    def extend(self, ops: Iterable[SendOp]) -> None:
        self.sends.extend(ops)
        self._invalidate()

    # -- derived views (cached) ------------------------------------------

    def sorted_sends(self) -> list[SendOp]:
        """Sends in replay order ``(time, src, dst)`` (cached; read-only)."""
        if self._sorted is None or len(self._sorted) != self.num_sends:
            self._sorted = sorted(self.sends, key=_chronological)
        return self._sorted

    # -- queries ---------------------------------------------------------

    def items(self) -> set[Item]:
        found: set[Item] = set()
        for items in self.initial.values():
            found |= items
        if self._sends is None:
            cols = self._columns
            table = cols.table.items
            found.update(table[c] for c in np.unique(cols.items).tolist())
        else:
            for op in self._sends:
                found.add(op.item)
        return found

    def processors(self) -> set[int]:
        procs = set(self.initial)
        if self._sends is None:
            cols = self._columns
            procs.update(np.unique(cols.srcs).tolist())
            procs.update(np.unique(cols.dsts).tolist())
        else:
            for op in self._sends:
                procs.add(op.src)
                procs.add(op.dst)
        return procs

    def item_creation_time(self, item: Item) -> int:
        return self.source_items.get(item, 0)

    def lint(self) -> "LintReport":
        """Run the static rule sweep (:func:`repro.analyze.lint_schedule`).

        Pure analysis over the cached column view — no simulation, and
        array-backed schedules are not materialized.
        """
        from repro.analyze import lint_schedule

        return lint_schedule(self)

    # -- protocol --------------------------------------------------------

    def __len__(self) -> int:
        return self.num_sends

    def __iter__(self) -> Iterator[SendOp]:
        return iter(self.sorted_sends())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return (
            self.params == other.params
            and self.machine == other.machine
            and self.sends == other.sends
            and self.initial == other.initial
            and self.computes == other.computes
            and self.source_items == other.source_items
        )

    # mutable container, like the previous dataclass
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        backing = "arrays" if self._sends is None else "objects"
        return (
            f"Schedule(params={self.params!r}, sends=<{self.num_sends} ops, "
            f"{backing}>, initial={len(self.initial)} procs, "
            f"computes={len(self.computes)}, "
            f"source_items={len(self.source_items)})"
        )
