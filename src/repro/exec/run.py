"""Execute lowered plans on a transport and collect results + trace.

:func:`execute` is the one entry point: give it a schedule (columnar
or implicit) or an already-lowered :class:`ExecPlan`, pick a transport
by name or instance, optionally attach real payloads, and get back an
:class:`ExecResult` — per-rank values, the delivered-items
:class:`ExecTrace`, and the wall-clock cost.  ``verify=True`` asserts
the delivered multiset matches the simulator byte-for-byte before
returning.

Payload disciplines (see :mod:`repro.exec.engine`): *store mode* maps
items to payloads per rank (token payloads by default), *combine mode*
(``combine=`` + ``accumulators=``) folds every delivery into one
running value per rank, matching the paper's reduction semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Union

from repro.exec.errors import ExecError
from repro.exec.lower import lower_schedule
from repro.exec.program import ExecPlan
from repro.exec.trace import ExecTrace, Triple, verify_against_sim
from repro.exec.transport import MpTransport, Transport, get_transport
from repro.schedule.implicit import ImplicitSchedule
from repro.schedule.ops import Item, Schedule

__all__ = ["ExecResult", "execute"]

DEFAULT_TIMEOUT_S = 30.0

Combine = Callable[[Any, Any], Any]
Source = Union[Schedule, ImplicitSchedule, ExecPlan]


@dataclass
class ExecResult:
    """Outcome of one execution."""

    transport: str
    trace: ExecTrace
    values: dict[int, Any]
    wall_s: float

    @property
    def num_delivered(self) -> int:
        return self.trace.num_delivered


def _resolve(source: Source) -> ExecPlan:
    if isinstance(source, ExecPlan):
        return source
    return lower_schedule(source)


def _initial_stores(
    plan: ExecPlan, payloads: dict[int, dict[Item, Any]] | None
) -> dict[int, dict[int, Any]]:
    """Per-rank ``{code: payload}`` stores: token payloads (an item's
    payload is its own code) for every initially held item, overridden
    by the caller's ``payloads``."""
    stores: dict[int, dict[int, Any]] = {
        rank: {code: code for code in codes}
        for rank, codes in plan.initial.items()
    }
    for rank, mapping in (payloads or {}).items():
        store = stores.setdefault(rank, {})
        for item, value in mapping.items():
            store[plan.encode(item)] = value
    return stores


def execute(
    source: Source,
    *,
    transport: str | Transport = "inproc",
    payloads: dict[int, dict[Item, Any]] | None = None,
    combine: Combine | None = None,
    accumulators: dict[int, Any] | None = None,
    reduce_op: Combine | None = None,
    timeout: float = DEFAULT_TIMEOUT_S,
    verify: bool = False,
) -> ExecResult:
    """Lower (if needed) and execute ``source`` on a transport.

    A transport named by string is built for this call and closed after
    it; pass an instance (an :class:`~repro.exec.transport.MpTransport`,
    say) to keep its worker pool across calls.

    ``verify=True`` requires a schedule source (the simulator side of
    the comparison needs the schedule, not just the lowered plan) and
    raises :class:`~repro.exec.errors.ExecVerificationError` if the
    transport's delivered multiset diverges from the simulator's.
    """
    if combine is not None and accumulators is None:
        raise ExecError(
            "execute: combine= needs accumulators= (the per-rank seed "
            "values the deliveries fold into)"
        )
    schedule: Schedule | None = None
    if verify:
        if isinstance(source, ImplicitSchedule):
            schedule = source.materialize()
        elif isinstance(source, Schedule):
            schedule = source
        else:
            raise ExecError(
                "execute: verify=True needs a Schedule (or implicit "
                "schedule) source; an ExecPlan no longer carries the "
                "timed schedule the simulator replays"
            )
    plan = _resolve(source)
    owned = isinstance(transport, str)
    if isinstance(transport, str):
        transport = get_transport(transport)
    stores = _initial_stores(plan, payloads)
    started = time.monotonic()
    try:
        run = transport.run(
            plan,
            stores=stores,
            combine=combine,
            accumulators=dict(accumulators or {}),
            reduce_op=reduce_op,
            timeout=timeout,
        )
        wall_s = time.monotonic() - started
    finally:
        # a transport named by string lives for this call only
        if owned and isinstance(transport, MpTransport):
            transport.close()
    decode = plan.table.decode
    triples: list[Triple] = [
        (src, rank, decode(code))
        for rank in sorted(run.delivered)
        for src, code in run.delivered[rank]
    ]
    trace = ExecTrace(
        params=plan.params,
        transport=transport.name,
        delivered=tuple(triples),
    )
    values: dict[int, Any] = {}
    if combine is None:
        # ranks with no instructions never ran; their value is just the
        # initial store (mp workers return copies, inproc the originals)
        for rank, store in stores.items():
            values[rank] = store
        for rank, value in run.values.items():
            values[rank] = value
        values = {
            rank: {decode(code): payload for code, payload in store.items()}
            for rank, store in sorted(values.items())
        }
    else:
        for rank, seed in sorted((accumulators or {}).items()):
            values[rank] = seed
        for rank, value in run.values.items():
            values[rank] = value
    result = ExecResult(
        transport=transport.name,
        trace=trace,
        values=values,
        wall_s=wall_s,
    )
    if schedule is not None:
        verify_against_sim(schedule, trace)
    return result
