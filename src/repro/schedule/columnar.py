"""Columnar (struct-of-arrays) schedule storage.

The object IR in :mod:`repro.schedule.ops` stores one frozen
:class:`~repro.schedule.ops.SendOp` per message; at the P=1024 all-to-all
scale (1,047,552 sends) just *constructing* those objects dominates the
pipeline.  This module provides the array-backed alternative: four
``int64`` numpy columns (``times``/``srcs``/``dsts``/``items``) plus an
:class:`ItemTable` interning the distinct item payloads to dense codes.

The pieces fit together as follows:

* builders construct columns directly with numpy broadcasting and hand
  them to :meth:`repro.schedule.ops.Schedule.from_arrays`;
* :meth:`Schedule.columns` caches a :class:`ScheduleColumns` view (built
  zero-copy for array-backed schedules, converted once for object-backed
  ones) which the vectorized validator/analysis kernels consume;
* :func:`materialize_sends` lazily expands columns back into ``SendOp``
  objects the first time legacy code touches ``schedule.sends``.

Both storage modes are observationally identical: the property suite in
``tests/test_columnar_properties.py`` asserts byte-identical
``violations``/``violations_np`` output and serialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.params import LogPParams
from repro.schedule.ops import SendOp

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.machine.model import MachineModel

__all__ = [
    "ItemTable",
    "ScheduleColumns",
    "sends_to_columns",
    "arrays_to_columns",
    "materialize_sends",
    "sort_order",
]

Item = Hashable


class ItemTable:
    """Deterministic item interning: item <-> dense ``int64`` code.

    Codes are assigned in *insertion order* (first occurrence wins), so a
    table built from the same item stream is always identical — the
    interning never depends on item *ordering*, only hashability, which
    is what lets schedules mix, say, ``int`` and ``tuple`` items.
    """

    __slots__ = ("_codes", "_items")

    def __init__(self, items: Iterable[Item] = ()):
        self._codes: dict[Item, int] = {}
        self._items: list[Item] = []
        for item in items:
            self.intern(item)

    @classmethod
    def distinct(cls, items: Iterable[Item]) -> ItemTable:
        """A table of ``items`` that are distinct by construction, built
        in one ``dict`` pass; raises ``ValueError`` if one repeats."""
        table = cls()
        table._items = list(items)
        table._codes = dict(zip(table._items, range(len(table._items))))
        if len(table._codes) != len(table._items):
            seen: set[Item] = set()
            for item in table._items:
                if item in seen:
                    raise ValueError(f"item {item!r} repeats in a distinct ItemTable")
                seen.add(item)
        return table

    def intern(self, item: Item) -> int:
        """Return the code for ``item``, assigning the next one if new."""
        code = self._codes.get(item)
        if code is None:
            code = len(self._items)
            self._codes[item] = code
            self._items.append(item)
        return code

    def encode(self, items: Iterable[Item], count: int = -1) -> np.ndarray:
        """Intern a stream of items and return their codes as an array."""
        return np.fromiter(
            (self.intern(item) for item in items), dtype=np.int64, count=count
        )

    def decode(self, code: int) -> Item:
        # plain list indexing would silently wrap negative codes to the
        # *wrong item* — corrupted columns must fail, not misdecode
        if not 0 <= code < len(self._items):
            raise IndexError(
                f"item code {code} out of range for table of "
                f"{len(self._items)} item(s)"
            )
        return self._items[code]

    __getitem__ = decode

    @property
    def codes(self) -> dict[Item, int]:
        """The ``item -> code`` mapping (treat as read-only)."""
        return self._codes

    @property
    def items(self) -> list[Item]:
        """Items in code order (treat as read-only; ``items[code]`` = item)."""
        return self._items

    def copy(self) -> ItemTable:
        table = ItemTable()
        table._codes = dict(self._codes)
        table._items = list(self._items)
        return table

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: Item) -> bool:
        return item in self._codes

    def __iter__(self) -> Iterator[Item]:
        return iter(self._items)

    def __repr__(self) -> str:
        return f"ItemTable({self._items!r})"


@dataclass
class ScheduleColumns:
    """Column-oriented view of a schedule's sends.

    ``items`` stores dense codes into ``table``; ``arrivals`` is the
    precomputed ``times + L + 2o`` column every consumer needs.  A
    schedule's column arrays are read-only (:func:`sends_to_columns`
    and :func:`arrays_to_columns` set ``writeable=False``): schedules
    and passes share them, and the legality facts memoized on a
    schedule are keyed on the schedule object alone.
    """

    times: np.ndarray
    srcs: np.ndarray
    dsts: np.ndarray
    items: np.ndarray
    arrivals: np.ndarray
    table: ItemTable
    num_procs: int

    @property
    def item_ids(self) -> dict[Item, int]:
        """Legacy alias for the interning map (item -> dense code)."""
        return self.table.codes

    def __len__(self) -> int:
        return len(self.times)

    @property
    def nbytes(self) -> int:
        """Bytes held by the four storage columns (excludes the table)."""
        return (
            self.times.nbytes
            + self.srcs.nbytes
            + self.dsts.nbytes
            + self.items.nbytes
        )


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.setflags(write=False)


def _num_procs(
    srcs: np.ndarray, dsts: np.ndarray, initial: Mapping[int, Iterable[Item]]
) -> int:
    n = len(srcs)
    procs = int(max(srcs.max(initial=-1), dsts.max(initial=-1))) + 1 if n else 0
    return max(procs, (max(initial) + 1) if initial else 0)


def _arrivals(
    times: np.ndarray,
    srcs: np.ndarray,
    dsts: np.ndarray,
    params: LogPParams,
    machine: "MachineModel | None",
) -> np.ndarray:
    """Per-send availability times — the single pricing choke point.

    Flat machines (and ``machine=None``) keep the scalar broadcast
    ``times + L + 2o``; any other machine prices each send by its
    (src, dst) edge level.  Everything downstream of ``cols.arrivals``
    (causality, completion time, lint, exec lowering, reversal) becomes
    machine-aware through this one branch.
    """
    if machine is None or machine.is_flat:
        return times + params.send_cost
    return times + machine.send_cost_np(srcs, dsts)


def sends_to_columns(
    sends: Sequence[SendOp],
    params: LogPParams,
    initial: Mapping[int, Iterable[Item]],
    machine: "MachineModel | None" = None,
) -> ScheduleColumns:
    """Convert an object-backed send list to column arrays (one pass)."""
    n = len(sends)
    times = np.fromiter((op.time for op in sends), dtype=np.int64, count=n)
    srcs = np.fromiter((op.src for op in sends), dtype=np.int64, count=n)
    dsts = np.fromiter((op.dst for op in sends), dtype=np.int64, count=n)
    table = ItemTable()
    items = table.encode((op.item for op in sends), count=n)
    arrivals = _arrivals(times, srcs, dsts, params, machine)
    _read_only(times, srcs, dsts, items, arrivals)
    return ScheduleColumns(
        times=times,
        srcs=srcs,
        dsts=dsts,
        items=items,
        arrivals=arrivals,
        table=table,
        num_procs=_num_procs(srcs, dsts, initial),
    )


def arrays_to_columns(
    params: LogPParams,
    times: np.ndarray,
    srcs: np.ndarray,
    dsts: np.ndarray,
    item_codes: np.ndarray | None,
    table: ItemTable | None,
    initial: Mapping[int, Iterable[Item]],
    machine: "MachineModel | None" = None,
) -> ScheduleColumns:
    """Wrap caller-provided arrays as columns (zero-copy when ``int64``).

    Structural validation only — the result may still be an *illegal*
    LogP schedule (the validators exist to say so), but the arrays must
    be consistent: equal 1-D lengths, non-negative processor ids, and
    every item code resolvable in ``table``.
    """
    times = np.ascontiguousarray(times, dtype=np.int64)
    srcs = np.ascontiguousarray(srcs, dtype=np.int64)
    dsts = np.ascontiguousarray(dsts, dtype=np.int64)
    if times.ndim != 1 or srcs.shape != times.shape or dsts.shape != times.shape:
        raise ValueError(
            "times/srcs/dsts must be 1-D arrays of identical length, got "
            f"shapes {times.shape}, {srcs.shape}, {dsts.shape}"
        )
    if table is None:
        if item_codes is not None:
            raise ValueError("item_codes given without an item_table")
        table = ItemTable([0])
    if item_codes is None:
        if len(table) != 1:
            raise ValueError(
                "item_codes may only be omitted for a single-item table"
            )
        item_codes = np.zeros(len(times), dtype=np.int64)
    else:
        item_codes = np.ascontiguousarray(item_codes, dtype=np.int64)
        if item_codes.shape != times.shape:
            raise ValueError(
                f"item_codes shape {item_codes.shape} != times shape {times.shape}"
            )
    if len(times):
        if min(srcs.min(), dsts.min()) < 0:
            raise ValueError("processor ids must be non-negative")
        lo = int(item_codes.min())
        hi = int(item_codes.max())
        if lo < 0 or hi >= len(table):
            raise ValueError(
                f"item codes must lie in [0, {len(table)}), got [{lo}, {hi}]"
            )
    arrivals = _arrivals(times, srcs, dsts, params, machine)
    _read_only(times, srcs, dsts, item_codes, arrivals)
    return ScheduleColumns(
        times=times,
        srcs=srcs,
        dsts=dsts,
        items=item_codes,
        arrivals=arrivals,
        table=table,
        num_procs=_num_procs(srcs, dsts, initial),
    )


def materialize_sends(cols: ScheduleColumns) -> list[SendOp]:
    """Expand columns into ``SendOp`` objects, preserving storage order."""
    items = cols.table.items
    return [
        SendOp(time=t, src=s, dst=d, item=items[c])
        for t, s, d, c in zip(
            cols.times.tolist(),
            cols.srcs.tolist(),
            cols.dsts.tolist(),
            cols.items.tolist(),
        )
    ]


def sort_order(cols: ScheduleColumns) -> np.ndarray:
    """Indices ordering sends by ``(time, src, dst)``, ties by position.

    This is the canonical replay order used by ``Schedule.sorted_sends``
    and the serializer; the positional tie-break (lexsort is stable) keeps
    it total even when distinct items at identical coordinates are not
    mutually orderable.
    """
    return np.lexsort((cols.dsts, cols.srcs, cols.times))
