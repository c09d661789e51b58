"""Vectorized (numpy) LogP legality checking: the one legality kernel.

:func:`violations_np` checks rank range, causality, self-send, send
gap, receive gap, overhead exclusivity and per-endpoint capacity over the
schedule's struct-of-arrays columns
(:class:`repro.schedule.analysis_np.ScheduleColumns`) instead of
per-op Python loops.  A flat machine is the one-level case of the
per-level checks; hierarchical and fault-masked machines run the same
code over each level's sends.  Only violating ops are ever formatted
in Python, so legal schedules stay entirely in numpy.

:func:`plan_violations` memoizes its verdict on the schedule, and
:func:`repro.sim.validate.violations` reads that memo.  The
pure-Python checker in ``tests/oracles/validate.py`` is its
differential oracle: hypothesis twins assert the same violation
strings as a multiset.  At the P=256 all-to-all scale (65,280 sends)
the kernel is roughly 7-8x faster than that oracle (see
``BENCH_PR1.json``).

:func:`violations_np_implicit` streams the rank-range, causality and
gap checks over an implicit plan's chunks.
"""

from __future__ import annotations

import numpy as np

from repro.machine.model import FlatMachine
from repro.schedule.analysis_np import ScheduleColumns, columns, sender_hold_times
from repro.schedule.implicit import DEFAULT_CHUNK_SENDS, ImplicitSchedule
from repro.schedule.ops import Schedule

__all__ = ["violations_np", "plan_violations", "violations_np_implicit"]


def _format_causality(
    cols: ScheduleColumns,
    have: np.ndarray,
    early: np.ndarray,
    never: np.ndarray | None,
    problems: list[str],
) -> None:
    """Causality and self-send strings for the flagged sends of ``cols``.

    ``have`` is each send's hold time and ``early`` flags sends before
    it; ``never`` (whole-schedule checks only) flags sends of an item
    the sender never holds.  Reports come in replay order (time, src,
    dst) with positional tie-break, causality before self-send per op.
    """
    selfsend = cols.srcs == cols.dsts
    flagged = early | selfsend if never is None else never | early | selfsend
    if not flagged.any():
        return
    order = np.lexsort((cols.dsts, cols.srcs, cols.times))
    items = cols.table.items
    for i in order[flagged[order]].tolist():
        t, src = int(cols.times[i]), int(cols.srcs[i])
        item = items[int(cols.items[i])]
        if never is not None and never[i]:
            problems.append(
                f"causality: proc {src} sends item {item!r} at t={t} "
                f"but never holds it"
            )
        elif early[i]:
            problems.append(
                f"causality: proc {src} sends item {item!r} at t={t} "
                f"but only holds it from t={int(have[i])}"
            )
        if selfsend[i]:
            problems.append(f"self-send: proc {src} at t={t}")


def _out_of_range(cols: ScheduleColumns, P: int, problems: list[str]) -> None:
    """One string per endpoint of a send outside the ranks ``[0, P)``."""
    for role, procs in (("sends", cols.srcs), ("receives", cols.dsts)):
        bad = (procs < 0) | (procs >= P)
        for i in np.flatnonzero(bad).tolist():
            problems.append(
                f"rank out of range: proc {int(procs[i])} {role} at "
                f"t={int(cols.times[i])} but P={P}"
            )


def _causality(
    schedule: Schedule, cols: ScheduleColumns, problems: list[str]
) -> None:
    found, have = sender_hold_times(schedule)
    _format_causality(cols, have, found & (cols.times < have), ~found, problems)


def _adjacent_gap(
    procs: np.ndarray,
    starts: np.ndarray,
    minor: np.ndarray,
    g: int,
    fmt: str,
    problems: list[str],
) -> None:
    """Report adjacent same-proc event pairs closer than ``g`` apart."""
    order = np.lexsort((minor, starts, procs))
    p, s = procs[order], starts[order]
    bad = (p[1:] == p[:-1]) & (s[1:] - s[:-1] < g)
    for i in np.flatnonzero(bad).tolist():
        problems.append(fmt.format(proc=int(p[i]), prev=int(s[i]), cur=int(s[i + 1])))


def _overhead(
    send_starts: np.ndarray,
    send_procs: np.ndarray,
    recv_starts: np.ndarray,
    recv_procs: np.ndarray,
    o: int,
    problems: list[str],
) -> None:
    # busy intervals: send overhead [t, t+o) at src, receive overhead
    # [t+o+L, t+o+L+o) at dst; all have length o, so sorted adjacency
    # suffices for overlap detection
    starts = np.concatenate([send_starts, recv_starts])
    procs = np.concatenate([send_procs, recv_procs])
    # ties order "recv@..." before "send@..." (label order)
    kind = np.concatenate(
        [
            np.ones(len(send_starts), np.int64),
            np.zeros(len(recv_starts), np.int64),
        ]
    )
    order = np.lexsort((kind, starts, procs))
    p, s, k = procs[order], starts[order], kind[order]
    bad = (p[1:] == p[:-1]) & (s[1:] < s[:-1] + o)
    for i in np.flatnonzero(bad).tolist():
        what_a = f"send@{int(s[i])}" if k[i] else f"recv@{int(s[i])}"
        what_b = f"send@{int(s[i + 1])}" if k[i + 1] else f"recv@{int(s[i + 1])}"
        problems.append(
            f"overhead overlap: proc {int(p[i])} busy with {what_a} and {what_b}"
        )


def _capacity_peaks(procs: np.ndarray, t0: np.ndarray, t1: np.ndarray):
    """Per-proc peak of simultaneously open [t0, t1) intervals."""
    ev_proc = np.concatenate([procs, procs])
    ev_time = np.concatenate([t0, t1])
    ev_delta = np.concatenate(
        [np.ones(len(t0), np.int64), -np.ones(len(t1), np.int64)]
    )
    # -1 sorts before +1 at equal times: an interval closing at t frees its slot
    order = np.lexsort((ev_delta, ev_time, ev_proc))
    p, d = ev_proc[order], ev_delta[order]
    running = np.cumsum(d)
    starts = np.flatnonzero(np.concatenate(([True], p[1:] != p[:-1])))
    base = np.concatenate(([0], running[starts[1:] - 1]))
    counts = np.diff(np.concatenate((starts, [len(p)])))
    in_group = running - np.repeat(base, counts)
    return p[starts], np.maximum.reduceat(in_group, starts)


def violations_np(schedule: Schedule) -> list[str]:
    """Every LogP-model violation in ``schedule`` (empty if legal).

    The one legality kernel.  A flat machine (``schedule.machine`` is
    ``None`` or a :class:`~repro.machine.model.FlatMachine`) is the
    one-level case.  On a hierarchical machine (DESIGN S38) each level
    is an *independent interface*: gap, overhead-exclusivity and
    capacity constraints bind only among sends of the same level, each
    priced with that level's ``(L, o, g)`` — a node leader may drive
    its inter-node NIC and its intra-node bus in the same cycle.
    Causality and self-send are global and consume the per-edge
    ``cols.arrivals``; a send from or to a rank outside ``[0, P)`` is
    illegal outright, and so, on a fault-masked machine, is any send
    touching a dead rank.
    """
    problems: list[str] = []
    cols = columns(schedule)
    if len(cols.times) == 0:
        return problems
    machine = schedule.machine or FlatMachine(schedule.params)
    _out_of_range(cols, schedule.params.P, problems)
    _causality(schedule, cols, problems)

    alive = machine.alive_np()
    if len(alive) < machine.num_procs:
        for role, procs in (("sends", cols.srcs), ("receives", cols.dsts)):
            # a rank outside [0, P) is reported out of range, not dead
            bad = (procs >= 0) & (procs < machine.num_procs) & ~np.isin(procs, alive)
            for i in np.flatnonzero(bad).tolist():
                problems.append(
                    f"dead rank: proc {int(procs[i])} {role} at "
                    f"t={int(cols.times[i])} but is masked out"
                )

    edge_levels = machine.edge_levels_np(cols.srcs, cols.dsts)
    for level, p in enumerate(machine.levels):
        mask = edge_levels == level
        if not mask.any():
            continue
        times = cols.times[mask]
        srcs = cols.srcs[mask]
        dsts = cols.dsts[mask]
        recv_starts = cols.arrivals[mask] - p.o

        _adjacent_gap(
            srcs,
            times,
            dsts,
            p.g,
            "send gap: proc {proc} sends at t={prev} and t={cur} "
            f"(< g={p.g} apart)",
            problems,
        )
        _adjacent_gap(
            dsts,
            recv_starts,
            srcs,
            p.g,
            "receive gap: proc {proc} receives at t={prev} and t={cur} "
            f"(< g={p.g} apart)",
            problems,
        )
        if p.o > 0:
            _overhead(times, srcs, recv_starts, dsts, p.o, problems)
        cap = p.capacity
        t0 = times + p.o
        t1 = t0 + p.L
        for direction, endpoint in (("from", srcs), ("to", dsts)):
            procs, peaks = _capacity_peaks(endpoint, t0, t1)
            for proc in procs[peaks > cap].tolist():
                problems.append(
                    f"capacity: > {cap} messages in transit "
                    f"{direction} proc {proc}"
                )
    return problems


def plan_violations(schedule: Schedule) -> tuple[str, ...]:
    """:func:`violations_np`, evaluated once per plan.

    The verdict is memoized on the schedule (:meth:`Schedule.memo
    <repro.schedule.ops.Schedule.memo>`), so ``violations``,
    ``assert_valid``, ``replay`` and exec verification of one schedule
    object share a single kernel run.
    """
    return schedule.memo("violations", _verdict)


def _verdict(schedule: Schedule) -> tuple[str, ...]:
    return tuple(violations_np(schedule))


def violations_np_implicit(
    implicit: ImplicitSchedule, max_sends: int = DEFAULT_CHUNK_SENDS
) -> list[str]:
    """Chunk-streamed legality checks for an implicit plan.

    Runs, in memory bounded by ``max_sends`` and never by ``P``:

    * **rank range and causality** (exact): each endpoint against
      ``[0, P)`` (a remap may target larger labels), and each edge's send
      time against the sender's closed-form hold time
      (``ChunkFacts.send_avail``), plus self-sends — same strings as
      :func:`violations_np`;
    * **send gap / receive gap** (chunk-local): adjacency within each
      streamed block.  Every report is a genuine violation (two
      same-endpoint events < ``g`` apart stay < ``g`` apart globally),
      but a pair split across a chunk boundary is not seen — this check
      is *sound, not complete*.

    Overhead exclusivity and capacity need globally sorted busy
    intervals, so they are whole-schedule only: run
    ``violations_np(implicit.materialize())`` when full fidelity
    matters (the property suite does, at small P).
    """
    params = implicit.params
    problems: list[str] = []
    if max_sends < 1:
        raise ValueError(f"max_sends must be >= 1, got {max_sends}")
    for lo in range(0, implicit.num_sends, max_sends):
        hi = min(lo + max_sends, implicit.num_sends)
        facts = implicit.chunk_with_facts(lo, hi)
        cols = facts.cols
        _out_of_range(cols, params.P, problems)
        _format_causality(
            cols, facts.send_avail, cols.times < facts.send_avail, None, problems
        )
        _adjacent_gap(
            cols.srcs,
            cols.times,
            cols.dsts,
            params.g,
            "send gap: proc {proc} sends at t={prev} and t={cur} "
            f"(< g={params.g} apart)",
            problems,
        )
        _adjacent_gap(
            cols.dsts,
            cols.arrivals - params.o,
            cols.srcs,
            params.g,
            "receive gap: proc {proc} receives at t={prev} and t={cur} "
            f"(< g={params.g} apart)",
            problems,
        )
    return problems
