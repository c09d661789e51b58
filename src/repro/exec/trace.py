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

from repro.exec.errors import ExecVerificationError
from repro.params import LogPParams
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


def _rows(triples: Iterable[Triple], memo: dict[Any, str]) -> list[Row]:
    """``(src, dst, canonical item JSON)`` rows in canonical order."""
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


def sim_delivered(schedule: Schedule) -> list[Triple]:
    """The simulator's delivered multiset for a schedule.

    For a schedule that passes the LogP validator, the realized
    execution delivers exactly one ``(src, dst, item)`` per send — this
    reads it off the columnar storage without materializing ``SendOp``
    objects.  Invalid schedules are rejected first (``ValueError`` from
    the validator), so the result genuinely is what :func:`replay`
    would realize.
    """
    from repro.sim.validate_np import violations_np

    problems = violations_np(schedule)
    if problems:
        raise ValueError(
            f"schedule is not a legal LogP execution "
            f"({len(problems)} violation(s)); first: {problems[0]}"
        )
    cols = schedule.columns()
    items = cols.table.items
    return [
        (src, dst, items[code])
        for src, dst, code in zip(
            cols.srcs.tolist(), cols.dsts.tolist(), cols.items.tolist()
        )
    ]


def verify_against_sim(schedule: Schedule, trace: ExecTrace) -> None:
    """Assert the trace's delivered multiset matches the simulator's,
    byte for byte in canonical form.

    Both sides are reduced once to the sorted rows their canonical JSON
    is written from (:func:`delivered_json`), sharing one item memo; the
    rows are equal exactly when the bytes are.  Raises
    :class:`ExecVerificationError` with a counted diff (missing and
    unexpected triples) on divergence.
    """
    memo: dict[Any, str] = {}
    want = _rows(sim_delivered(schedule), memo)
    got = _rows(trace.delivered, memo)
    if want == got and schedule.params == trace.params:
        return
    missing = Counter(want) - Counter(got)
    extra = Counter(got) - Counter(want)
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
