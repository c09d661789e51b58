"""Delivered-items traces and exec-vs-simulator verification.

An :class:`ExecTrace` records what a real transport actually delivered
— the multiset of ``(src, dst, item)`` triples — in the same canonical
JSON shape the simulator's realized schedule reduces to, so the two
can be compared *byte for byte*: both sides are written by one
canonical writer, with the schedule serializer's item encoding
(:func:`~repro.schedule.serialize.item_json`), and
:func:`verify_against_sim` asserts they agree.

This is a keying module (REPRO005/006): every ``json.dumps`` is
canonical and nothing here may consult clocks or randomness — a trace
for a given execution outcome is one exact byte sequence.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.exec.errors import ExecVerificationError
from repro.params import LogPParams
from repro.schedule.columnar import ItemTable, ScheduleColumns
from repro.schedule.ops import Item, Schedule
from repro.schedule.serialize import CANONICAL_DUMPS, item_json, params_json

__all__ = [
    "TRACE_FORMAT",
    "ExecTrace",
    "delivered_json",
    "sim_delivered",
    "verify_against_sim",
]

TRACE_FORMAT = "logp-exec-trace/1"

Triple = tuple[int, int, Item]
Row = tuple[int, int, str]

_FORMAT_JSON = json.dumps(TRACE_FORMAT, **CANONICAL_DUMPS)


def _rows(
    triples: Iterable[Triple], memo: dict[Any, str] | None = None
) -> list[Row]:
    """``(src, dst, canonical item JSON)`` rows in canonical order.

    ``memo`` (see :func:`~repro.schedule.serialize.item_json`) encodes
    each distinct tuple once; without it every item is encoded on its
    own, exact even when equal items encode differently.
    """
    return sorted([(src, dst, item_json(item, memo)) for src, dst, item in triples])


def delivered_json(params: LogPParams, triples: Iterable[Triple]) -> str:
    """Canonical JSON of a delivered multiset.

    The triples are sorted by ``(src, dst, canonical item JSON)``, so
    any two executions delivering the same multiset — simulator or real
    transport, any thread interleaving — produce identical bytes.
    """
    delivered = ",".join(
        [f"[{src},{dst},{text}]" for src, dst, text in _rows(triples, {})]
    )
    return (
        f'{{"delivered":[{delivered}],"format":{_FORMAT_JSON},'
        f'"params":{params_json(params)}}}'
    )


@dataclass(frozen=True)
class ExecTrace:
    """What one execution delivered, plus which transport ran it."""

    params: LogPParams
    transport: str
    delivered: tuple[Triple, ...]

    @property
    def num_delivered(self) -> int:
        return len(self.delivered)

    def to_json(self) -> str:
        """Canonical JSON (transport-independent by design: the same
        plan on ``inproc`` and ``mp`` must yield identical bytes)."""
        return delivered_json(self.params, self.delivered)


def _legal_columns(schedule: Schedule) -> ScheduleColumns:
    """The schedule's columns, once the validator accepts it."""
    from repro.sim.validate_np import plan_violations

    problems = plan_violations(schedule)
    if problems:
        raise ValueError(
            f"schedule is not a legal LogP execution "
            f"({len(problems)} violation(s)); first: {problems[0]}"
        )
    return schedule.columns()


def sim_delivered(schedule: Schedule) -> list[Triple]:
    """The simulator's delivered multiset for a schedule.

    For a schedule that passes the LogP validator, the realized
    execution delivers exactly one ``(src, dst, item)`` per send — this
    reads it off the columnar storage without materializing ``SendOp``
    objects.  Invalid schedules are rejected first (``ValueError`` from
    the validator), so the result genuinely is what :func:`replay`
    would realize.
    """
    cols = _legal_columns(schedule)
    items = cols.table.items
    return [
        (src, dst, items[code])
        for src, dst, code in zip(
            cols.srcs.tolist(), cols.dsts.tolist(), cols.items.tolist()
        )
    ]


def _trace_codes(table: ItemTable, items: Iterable[Item]) -> np.ndarray:
    """Code trace items by the schedule's item table, byte-exactly.

    An item takes a table code only when its canonical JSON equals that
    table item's (``True`` does not take the code of ``1``, although
    the two are equal); any other item gets a code past the table, one
    per distinct text.  Two items share a code exactly when they encode
    to the same bytes.
    """
    codes = table.codes
    known = table.items
    extra: dict[str, int] = {}

    def code(item: Item) -> int:
        found = codes.get(item)
        if found is not None and known[found] is item:
            return found
        text = item_json(item)
        if found is not None and item_json(known[found]) == text:
            return found
        return extra.setdefault(text, len(known) + len(extra))

    return np.array([code(item) for item in items], dtype=np.int64)


def _sorted_rows(srcs: Any, dsts: Any, codes: np.ndarray) -> np.ndarray:
    rows = np.stack(
        [np.asarray(srcs, dtype=np.int64), np.asarray(dsts, dtype=np.int64), codes]
    )
    return rows[:, np.lexsort(rows[::-1])]


def verify_against_sim(schedule: Schedule, trace: ExecTrace) -> None:
    """Assert the trace's delivered multiset matches the simulator's,
    byte for byte in canonical form.

    Both sides become ``(src, dst, item code)`` rows, coded through the
    schedule's item table so that two items share a code exactly when
    their canonical JSON is equal (:func:`_trace_codes`); after one
    ``lexsort`` per side the rows are equal exactly when the bytes of
    :func:`delivered_json` are.  Text is written only for the diff:
    raises :class:`ExecVerificationError` with a counted diff (missing
    and unexpected triples) on divergence.
    """
    cols = _legal_columns(schedule)
    delivered = trace.delivered
    if len(delivered) == len(cols) and schedule.params == trace.params:
        if not delivered:
            return
        srcs, dsts, items = zip(*delivered)
        got = _sorted_rows(srcs, dsts, _trace_codes(cols.table, items))
        if np.array_equal(_sorted_rows(cols.srcs, cols.dsts, cols.items), got):
            return
    want = Counter(_rows(sim_delivered(schedule)))
    got_rows = Counter(_rows(delivered))
    missing = want - got_rows
    extra = got_rows - want
    parts = [
        f"delivered multiset diverges from the simulator on "
        f"{trace.transport}: {sum(missing.values())} missing, "
        f"{sum(extra.values())} unexpected"
    ]
    if missing:
        src, dst, item = min(missing)
        parts.append(f"first missing: {src} -> {dst} item {item}")
    if extra:
        src, dst, item = min(extra)
        parts.append(f"first unexpected: {src} -> {dst} item {item}")
    raise ExecVerificationError("; ".join(parts))
