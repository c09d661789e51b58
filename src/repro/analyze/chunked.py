"""Chunked lint engine for implicit schedules (bounded-memory SCHED sweep).

:func:`lint_implicit` runs the registered SCHED rules over an
:class:`~repro.schedule.implicit.ImplicitSchedule` by streaming
fixed-size :class:`~repro.schedule.implicit.ChunkFacts` blocks, so a
P=10^6 broadcast plan lints in memory bounded by the chunk size — the
full column arrays are never held at once.

The rule split (documented here, asserted by the test suite):

**Per-chunk** (verdict depends only on one edge + closed-form facts):

* SCHED001 non-causal — send time vs the closed-form sender hold time;
* SCHED002 self-send;
* SCHED003 negative time;
* SCHED004 dead send — send time vs the closed-form destination hold;
* SCHED005 duplicate delivery — arrival vs the closed-form first hold.

**Aggregate** (O(1) closed-form facts, no column scan):

* SCHED008 optimality gap — the implicit makespan against the same
  :func:`repro.registry.closed_form_bound` query the full engine builds;
* SCHED010 coverage — edge counting over the dst-rank enumeration
  contract (each non-root rank owns exactly one delivery).

**Whole-schedule** (:data:`WHOLE_SCHEDULE_RULES`, skipped with a
documented reason; selecting one explicitly raises): SCHED006 and
SCHED009 need the source's full per-item send multiset (both are
kitem-only, so they would not apply to the implicit workloads anyway);
SCHED007 ranks idle gaps across each processor's complete send
sequence, which no chunk-local view can order.

Rule metadata (severity, names, message wording) is shared with
:mod:`repro.analyze.rules`, so reports render identically to the full
engine's; at small P the property suite pins ``rule_totals`` equal on
every rule both engines run.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

import numpy as np

from repro.analyze.diagnostics import (
    MAX_EMITTED_PER_RULE,
    Diagnostic,
    LintReport,
)
from repro.analyze.engine import resolve_rules
from repro.analyze.rules import Rule, get_rule
from repro.registry import closed_form_bound
from repro.registry.spec import BoundQuery
from repro.schedule.columnar import ScheduleColumns
from repro.schedule.implicit import (
    DEFAULT_CHUNK_SENDS,
    ChunkFacts,
    ImplicitSchedule,
)

__all__ = [
    "PER_CHUNK_RULES",
    "AGGREGATE_RULES",
    "WHOLE_SCHEDULE_RULES",
    "lint_implicit",
]

#: Rules evaluated per streamed chunk from closed-form facts.
PER_CHUNK_RULES = ("SCHED001", "SCHED002", "SCHED003", "SCHED004", "SCHED005")

#: Rules answered from O(1) aggregate closed forms after the stream.
AGGREGATE_RULES = ("SCHED008", "SCHED010")

#: Rules that need the whole schedule at once: rule id -> why.
WHOLE_SCHEDULE_RULES = {
    "SCHED006": "single-sending counts need the source's full send multiset",
    "SCHED007": "slack ranking orders each processor's complete send sequence",
    "SCHED009": "the Theorem 3.2 endgame is a property of the global prefix",
}


EmitFn = Callable[[ChunkFacts, int], Diagnostic]


def _describe(cols: ScheduleColumns, index: int) -> str:
    """Mirror ``LintContext.describe_send`` for a chunk-local index."""
    item = cols.table.items[int(cols.items[index])]
    return (
        f"t={int(cols.times[index])} "
        f"{int(cols.srcs[index])}->{int(cols.dsts[index])} "
        f"item {item!r}"
    )


class _RuleTally:
    """Accumulates one rule's findings across chunks, capping emission."""

    def __init__(self, rule: Rule):
        self.rule = rule
        self.total = 0
        self.diagnostics: list[Diagnostic] = []

    def add(self, facts: ChunkFacts, mask: np.ndarray, make: EmitFn) -> None:
        count = int(mask.sum())
        if not count:
            return
        self.total += count
        room = MAX_EMITTED_PER_RULE - len(self.diagnostics)
        if room <= 0:
            return
        for local in np.flatnonzero(mask)[:room].tolist():
            self.diagnostics.append(make(facts, int(local)))


def _chunk_masks(rule_id: str, facts: ChunkFacts) -> tuple[np.ndarray, EmitFn]:
    """The violation mask for one per-chunk rule, plus its emitter."""
    cols = facts.cols
    if rule_id == "SCHED001":
        mask = cols.times < facts.send_avail

        def emit_causal(f: ChunkFacts, i: int) -> Diagnostic:
            have = int(f.send_avail[i])
            return Diagnostic(
                rule="SCHED001",
                severity=get_rule("SCHED001").severity,
                message=(
                    f"non-causal: {_describe(f.cols, i)} — the sender only "
                    f"holds the item from t={have}"
                ),
                sends=(f.lo + i,),
                data={"holds_from": have},
                fixit=f"delay the send to t>={have}",
            )

        return mask, emit_causal
    if rule_id == "SCHED002":
        mask = cols.srcs == cols.dsts

        def emit_self(f: ChunkFacts, i: int) -> Diagnostic:
            return Diagnostic(
                rule="SCHED002",
                severity=get_rule("SCHED002").severity,
                message=f"self-send: {_describe(f.cols, i)}",
                sends=(f.lo + i,),
                fixit="drop the send; a processor already holds what it sends",
            )

        return mask, emit_self
    if rule_id == "SCHED003":
        mask = cols.times < 0

        def emit_negative(f: ChunkFacts, i: int) -> Diagnostic:
            return Diagnostic(
                rule="SCHED003",
                severity=get_rule("SCHED003").severity,
                message=(
                    f"negative time: {_describe(f.cols, i)} starts before "
                    f"cycle 0"
                ),
                sends=(f.lo + i,),
                fixit="shift the schedule so every send starts at t>=0",
            )

        return mask, emit_negative
    if rule_id == "SCHED004":
        mask = facts.dst_avail <= cols.times

        def emit_dead(f: ChunkFacts, i: int) -> Diagnostic:
            first = int(f.dst_avail[i])
            return Diagnostic(
                rule="SCHED004",
                severity=get_rule("SCHED004").severity,
                message=(
                    f"dead send: {_describe(f.cols, i)} — the destination "
                    f"already holds the item (since t={first}), so "
                    f"this send informs no new processor"
                ),
                sends=(f.lo + i,),
                data={"held_since": first},
                fixit="drop the send or retarget it at an uninformed processor",
            )

        return mask, emit_dead
    assert rule_id == "SCHED005"
    mask = facts.dst_avail < cols.arrivals

    def emit_duplicate(f: ChunkFacts, i: int) -> Diagnostic:
        first = int(f.dst_avail[i])
        return Diagnostic(
            rule="SCHED005",
            severity=get_rule("SCHED005").severity,
            message=(
                f"duplicate delivery: {_describe(f.cols, i)} — the "
                f"destination is already delivered this item "
                f"(first held at t={first})"
            ),
            sends=(f.lo + i,),
            data={"first_held": first},
            fixit="each (destination, item) pair should be delivered once",
        )

    return mask, emit_duplicate


def _optimality_gap(impl: ImplicitSchedule) -> tuple[list[Diagnostic], int]:
    """SCHED008 from closed forms (mirrors ``rules._rule_optimality_gap``)."""
    participants = impl.num_participants
    if participants < 2:
        return [], 0
    # full coverage: in reduction mode each partial is held by exactly
    # its sender and the receiving parent, so coverage is total only at
    # P == 2; broadcast workloads never take the scattered branch.
    full_coverage = impl.is_reduction and participants == 2
    bound_kind = closed_form_bound(
        BoundQuery(
            workload=impl.workload,
            params=impl.params,
            participants=participants,
            n_items=impl.n_items,
            single_sending=False,
            full_coverage=full_coverage,
        )
    )
    if bound_kind is None:
        return [], 0
    bound, kind = bound_kind
    makespan = impl.makespan
    gap = makespan - bound
    if gap == 0:
        return [], 0
    if gap > 0:
        msg = (
            f"optimality gap: completes in {makespan} cycles, "
            f"{gap} above the {kind} lower bound of {bound}"
        )
        fixit = "compare against the paper's optimal construction"
    else:
        msg = (
            f"impossible completion: {makespan} cycles is below the "
            f"{kind} lower bound of {bound} — the schedule cannot be "
            f"doing the detected workload"
        )
        fixit = "check the initial placement / workload detection"
    return [
        Diagnostic(
            rule="SCHED008",
            severity=get_rule("SCHED008").severity,
            message=msg,
            data={"makespan": makespan, "bound": bound, "gap": gap},
            fixit=fixit,
        )
    ], 1


def _coverage(impl: ImplicitSchedule) -> tuple[list[Diagnostic], int]:
    """SCHED010 by edge counting over the dst-rank enumeration contract:
    every non-root rank receives exactly one (distinct) delivery, so the
    broadcast item reaches ``1 + num_sends`` processors."""
    participants = impl.num_participants
    holders = 1 + impl.num_sends
    if holders >= participants:
        return [], 0
    return [
        Diagnostic(
            rule="SCHED010",
            severity=get_rule("SCHED010").severity,
            message=(
                f"incomplete coverage: item {0!r} "
                f"reaches only {holders} of {participants} participating "
                f"processors"
            ),
            data={"holders": holders, "participants": participants},
            fixit="extend the schedule until every processor is informed",
        )
    ], 1


def _applies(rule: Rule, impl: ImplicitSchedule) -> bool:
    """Mirror ``Rule.applies`` for an implicit schedule."""
    if impl.num_sends == 0:
        return False
    return not rule.workloads or impl.workload in rule.workloads


def lint_implicit(
    impl: ImplicitSchedule,
    max_sends: int = DEFAULT_CHUNK_SENDS,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> LintReport:
    """Lint an implicit schedule in streamed chunks of ``max_sends``.

    Runs every applicable per-chunk and aggregate rule (see module
    docstring for the split); whole-schedule rules are skipped silently
    on a default sweep but raise ``ValueError`` when named in
    ``select``, so a caller cannot believe SCHED007 ran when it cannot.
    Returns the same :class:`~repro.analyze.diagnostics.LintReport`
    shape as :func:`repro.analyze.lint_schedule`.
    """
    if max_sends < 1:
        raise ValueError(f"max_sends must be >= 1, got {max_sends}")
    started = time.perf_counter()
    chosen = resolve_rules(select, ignore)
    if select is not None:
        for rule in chosen:
            reason = WHOLE_SCHEDULE_RULES.get(rule.id)
            if reason is not None:
                raise ValueError(
                    f"rule {rule.id} needs the whole schedule and cannot "
                    f"run on an implicit plan ({reason}); materialize() "
                    f"first"
                )
    per_chunk = [
        _RuleTally(rule)
        for rule in chosen
        if rule.id in PER_CHUNK_RULES and _applies(rule, impl)
    ]
    aggregate = [
        rule
        for rule in chosen
        if rule.id in AGGREGATE_RULES and _applies(rule, impl)
    ]
    if per_chunk:
        for lo in range(0, impl.num_sends, max_sends):
            hi = min(lo + max_sends, impl.num_sends)
            facts = impl.chunk_with_facts(lo, hi)
            for tally in per_chunk:
                mask, make = _chunk_masks(tally.rule.id, facts)
                tally.add(facts, mask, make)
    diagnostics: list[Diagnostic] = []
    rules_run: list[str] = []
    totals: dict[str, int] = {}
    for tally in per_chunk:
        rules_run.append(tally.rule.id)
        totals[tally.rule.id] = tally.total
        diagnostics.extend(tally.diagnostics)
    for rule in aggregate:
        emitted, total = (
            _optimality_gap(impl)
            if rule.id == "SCHED008"
            else _coverage(impl)
        )
        rules_run.append(rule.id)
        totals[rule.id] = total
        diagnostics.extend(emitted)
    diagnostics.sort(key=lambda d: (d.rule, d.sends or (-1,)))
    return LintReport(
        diagnostics=diagnostics,
        rules_run=rules_run,
        rule_totals=totals,
        num_sends=impl.num_sends,
        workload=impl.workload,
        elapsed_s=time.perf_counter() - started,
    )
