"""The scalar LogP legality checker: oracle for
:func:`repro.sim.validate.violations` on flat machines.

Walks the sends check by check (causality, self-send, send gap,
receive gap, overhead exclusivity, capacity) and must report exactly
the kernel's violation strings, as a multiset.
"""

from __future__ import annotations

from repro.schedule.ops import Schedule, SendOp

from tests.oracles.analysis import availability_objects


def sends_by_proc(schedule: Schedule) -> dict[int, list[SendOp]]:
    """Map processor -> its outgoing sends in chronological order."""
    out: dict[int, list[SendOp]] = {}
    for op in schedule.sorted_sends():
        out.setdefault(op.src, []).append(op)
    return out


def receives_by_proc(schedule: Schedule) -> dict[int, list[SendOp]]:
    """Map processor -> incoming sends ordered by receive time."""
    incoming: dict[int, list[SendOp]] = {}
    for op in schedule.sends:
        incoming.setdefault(op.dst, []).append(op)
    for ops in incoming.values():
        ops.sort(key=lambda op: (op.receive_start(schedule.params), op.src))
    return incoming


def _interval_overlap(a0: int, a1: int, b0: int, b1: int) -> bool:
    return a0 < b1 and b0 < a1


def violations_objects(schedule: Schedule) -> list[str]:
    """All LogP-model violations in a flat-machine ``schedule``."""
    params = schedule.params
    problems: list[str] = []

    avail = availability_objects(schedule)

    # Causality: the item must be available at the sender at send start.
    for op in schedule.sorted_sends():
        have = avail.get((op.src, op.item))
        if have is None:
            problems.append(
                f"causality: proc {op.src} sends item {op.item!r} at t={op.time} "
                f"but never holds it"
            )
        elif op.time < have:
            problems.append(
                f"causality: proc {op.src} sends item {op.item!r} at t={op.time} "
                f"but only holds it from t={have}"
            )
        if op.src == op.dst:
            problems.append(f"self-send: proc {op.src} at t={op.time}")

    # Gap between consecutive sends at one processor.
    for proc, ops in sends_by_proc(schedule).items():
        for prev, cur in zip(ops, ops[1:]):
            if cur.time - prev.time < params.g:
                problems.append(
                    f"send gap: proc {proc} sends at t={prev.time} and "
                    f"t={cur.time} (< g={params.g} apart)"
                )

    # Gap between consecutive receives at one processor.
    for proc, ops in receives_by_proc(schedule).items():
        starts = [op.receive_start(params) for op in ops]
        for prev, cur in zip(starts, starts[1:]):
            if cur - prev < params.g:
                problems.append(
                    f"receive gap: proc {proc} receives at t={prev} and "
                    f"t={cur} (< g={params.g} apart)"
                )

    # Overhead exclusivity (only binding when o > 0).
    if params.o > 0:
        busy: dict[int, list[tuple[int, int, str]]] = {}
        for op in schedule.sends:
            busy.setdefault(op.src, []).append(
                (op.time, op.time + params.o, f"send@{op.time}")
            )
            rs = op.receive_start(params)
            busy.setdefault(op.dst, []).append((rs, rs + params.o, f"recv@{rs}"))
        for proc, intervals in busy.items():
            intervals.sort()
            for (a0, a1, what_a), (b0, b1, what_b) in zip(intervals, intervals[1:]):
                if _interval_overlap(a0, a1, b0, b1):
                    problems.append(
                        f"overhead overlap: proc {proc} busy with {what_a} "
                        f"and {what_b}"
                    )

    # Network capacity: <= ceil(L/g) in transit per source and per dest.
    cap = params.capacity
    events: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for op in schedule.sends:
        t0 = op.time + params.o
        t1 = t0 + params.L
        events.setdefault(("from", op.src), []).append((t0, +1))
        events.setdefault(("from", op.src), []).append((t1, -1))
        events.setdefault(("to", op.dst), []).append((t0, +1))
        events.setdefault(("to", op.dst), []).append((t1, -1))
    for (direction, proc), evs in events.items():
        evs.sort()
        in_flight = 0
        for _t, delta in evs:
            in_flight += delta
            if in_flight > cap:
                problems.append(
                    f"capacity: > {cap} messages in transit "
                    f"{direction} proc {proc}"
                )
                break

    return problems
