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

``columns()``, ``sorted_sends()`` and the per-plan memo of legality
facts (:meth:`Schedule.memo`) are cached and invalidated by any edit of
the send list — :meth:`add`, :meth:`extend`, the ``sends`` setter or an
in-place edit such as ``schedule.sends[i] = op`` — so repeated
validate/analyze/lint calls stop re-deriving them.  Everything else a
legality fact depends on is read-only after construction: the column
arrays, ``params``, ``initial``, ``source_items`` and ``machine``.

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
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    TypeVar,
)

import numpy as np

from repro.params import LogPParams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.analyze.diagnostics import LintReport
    from repro.machine.model import MachineModel
    from repro.schedule.columnar import ItemTable, ScheduleColumns

__all__ = ["SendOp", "ComputeOp", "SendList", "Schedule"]

Item = Hashable
T = TypeVar("T")


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


class SendList(list[SendOp]):
    """An object-backed schedule's send list.

    Every in-place edit (``append``, ``sends[i] = op``, ``sort``, ...)
    bumps :attr:`version`; the owning schedule compares it to the version
    its columns were derived from, so an edit that keeps the length —
    or bypasses :meth:`Schedule.add` — still invalidates them.
    """

    version = 0


def _bumps_version(name: str) -> Callable[..., Any]:
    edit = getattr(list, name)

    def method(self: SendList, *args: Any, **kwargs: Any) -> Any:
        result = edit(self, *args, **kwargs)
        self.version += 1
        return result

    method.__name__ = name
    method.__qualname__ = f"SendList.{name}"
    method.__doc__ = edit.__doc__
    return method


for _name in (
    "__setitem__",
    "__delitem__",
    "__iadd__",
    "__imul__",
    "append",
    "extend",
    "insert",
    "pop",
    "remove",
    "clear",
    "sort",
    "reverse",
):
    setattr(SendList, _name, _bumps_version(_name))
del _name


# shared read-only defaults: processor 0 holds item 0; no creation times
_SOURCE_HOLDS_ITEM_0: Mapping[int, frozenset[Item]] = MappingProxyType(
    {0: frozenset({0})}
)
_NO_SOURCES: Mapping[Item, int] = MappingProxyType({})


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
        Map ``proc -> set of items`` available at time 0.  ``None`` (the
        default) means the single item ``0`` at processor 0 (the classic
        broadcast setup); an empty mapping means no processor holds
        anything.
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

    ``params``, ``initial``, ``source_items`` and ``machine`` are
    read-only after construction (``initial`` maps each processor to a
    ``frozenset``), so the legality facts memoized on the schedule
    (:meth:`memo`) can never go stale behind its back.  ``sends`` is the
    schedule's own :class:`SendList` copy of the given ops.
    """

    def __init__(
        self,
        params: LogPParams,
        sends: Iterable[SendOp] | None = None,
        initial: Mapping[int, Iterable[Item]] | None = None,
        computes: list[ComputeOp] | None = None,
        source_items: Mapping[Item, int] | None = None,
        machine: MachineModel | None = None,
    ):
        if machine is not None and machine.num_procs != params.P:
            raise ValueError(
                f"machine has {machine.num_procs} ranks but params.P is "
                f"{params.P}"
            )
        self._params = params
        self._machine = machine
        self._initial: Mapping[int, frozenset[Item]] = (
            _SOURCE_HOLDS_ITEM_0
            if initial is None
            else MappingProxyType(dict(zip(initial, map(frozenset, initial.values()))))
        )
        self.computes = computes if computes is not None else []
        self._source_items: Mapping[Item, int] = (
            MappingProxyType(dict(source_items)) if source_items else _NO_SOURCES
        )
        self._sends: SendList | None = SendList(sends or ())
        self._columns: ScheduleColumns | None = None
        # the send-list version the columns (and the memo) derive from;
        # -1 = not derived yet
        self._synced = -1
        self._sorted: list[SendOp] | None = None
        self._sorted_at = -1
        self._memo: dict[str, Any] = {}

    @classmethod
    def from_arrays(
        cls,
        params: LogPParams,
        times: np.ndarray,
        srcs: np.ndarray,
        dsts: np.ndarray,
        item_codes: np.ndarray | None = None,
        item_table: ItemTable | None = None,
        initial: Mapping[int, Iterable[Item]] | None = None,
        computes: list[ComputeOp] | None = None,
        source_items: Mapping[Item, int] | None = None,
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
            schedule._initial,
            machine=machine,
        )
        return schedule

    # -- read-only inputs ------------------------------------------------

    @property
    def params(self) -> LogPParams:
        return self._params

    @property
    def machine(self) -> MachineModel | None:
        return self._machine

    @property
    def initial(self) -> Mapping[int, frozenset[Item]]:
        """Read-only map ``proc -> items`` held at time 0."""
        return self._initial

    @property
    def source_items(self) -> Mapping[Item, int]:
        """Read-only map ``item -> creation time`` at the source."""
        return self._source_items

    # -- storage ---------------------------------------------------------

    @property
    def sends(self) -> SendList:
        """The send list (lazily materialized for array-backed schedules)."""
        if self._sends is None:
            from repro.schedule.columnar import materialize_sends

            self._sends = SendList(materialize_sends(self._columns))
            self._synced = self._sends.version
        return self._sends

    @sends.setter
    def sends(self, value: Iterable[SendOp]) -> None:
        self._sends = SendList(value)
        self._synced = -1
        self._sorted = None
        self._memo = {}

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
        the send list is edited, which also drops the :meth:`memo`.
        """
        sends = self._sends
        if sends is not None and self._synced != sends.version:
            from repro.schedule.columnar import sends_to_columns

            self._columns = sends_to_columns(
                sends, self._params, self._initial, machine=self._machine
            )
            self._synced = sends.version
            self._memo = {}
        return self._columns

    def memo(self, key: str, compute: Callable[[Schedule], T]) -> T:
        """``compute(self)``, evaluated once per plan and kept on the schedule.

        For facts derived from the columns, ``initial``, ``source_items``
        and the machine — the availability table, hold times and the
        legality verdict — so every pass, lint and verification step
        over one schedule object shares one evaluation.  The memo is
        dropped whenever the columns are; treat the values (never
        ``None``) as read-only.
        """
        sends = self._sends
        if sends is not None and self._synced != sends.version:
            self.columns()
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = compute(self)
        return value

    def array_backed(self) -> Schedule:
        """This plan with its columns as the only storage.

        ``self`` when already array-backed; otherwise a twin that shares
        this schedule's columns and its :meth:`memo` (the facts there are
        facts about those columns), so nothing is re-derived for it.
        """
        if self._sends is None:
            return self
        twin = Schedule(
            self._params,
            initial=self._initial,
            computes=list(self.computes),
            source_items=self._source_items,
            machine=self._machine,
        )
        twin._sends = None
        twin._columns = self.columns()
        twin._memo = self._memo
        return twin

    # -- mutation --------------------------------------------------------

    def add(self, time: int, src: int, dst: int, item: Item = 0) -> SendOp:
        op = SendOp(time=time, src=src, dst=dst, item=item)
        sends = self.sends
        list.append(sends, op)  # the builders' hot path: no wrapper call
        sends.version += 1
        return op

    def extend(self, ops: Iterable[SendOp]) -> None:
        self.sends.extend(ops)

    # -- derived views (cached) ------------------------------------------

    def sorted_sends(self) -> list[SendOp]:
        """Sends in replay order ``(time, src, dst)`` (cached; read-only)."""
        sends = self.sends
        if self._sorted is None or self._sorted_at != sends.version:
            self._sorted = sorted(sends, key=_chronological)
            self._sorted_at = sends.version
        return self._sorted

    # -- queries ---------------------------------------------------------

    def items(self) -> set[Item]:
        found: set[Item] = set()
        for items in self._initial.values():
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
        procs = set(self._initial)
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
        return self._source_items.get(item, 0)

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

    def __getstate__(self) -> dict[str, Any]:
        # mapping proxies do not pickle, and the memo is derived state
        state = dict(self.__dict__)
        state["_initial"] = dict(self._initial)
        state["_source_items"] = dict(self._source_items)
        state["_memo"] = {}
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._initial = MappingProxyType(self._initial)
        self._source_items = MappingProxyType(self._source_items)
        if self._columns is not None:
            from repro.schedule.columnar import _read_only

            cols = self._columns
            _read_only(cols.times, cols.srcs, cols.dsts, cols.items, cols.arrivals)

    def __repr__(self) -> str:
        backing = "arrays" if self._sends is None else "objects"
        return (
            f"Schedule(params={self.params!r}, sends=<{self.num_sends} ops, "
            f"{backing}>, initial={len(self.initial)} procs, "
            f"computes={len(self.computes)}, "
            f"source_items={len(self.source_items)})"
        )
