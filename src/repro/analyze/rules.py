"""The schedule lint rules (tier 1 of the static-analysis engine).

Each rule is a pure function from :class:`~repro.analyze.context.LintContext`
to a capped list of :class:`~repro.analyze.diagnostics.Diagnostic` plus
the *uncapped* total, registered in :data:`RULES`.  All rules are
vectorized over the columnar IR: per-send work happens in numpy, and
Python-level formatting only ever touches flagged sends (at most
:data:`~repro.analyze.diagnostics.MAX_EMITTED_PER_RULE` per rule), so a
clean million-send schedule sweeps in milliseconds.

Rule catalogue (severities in :mod:`repro.analyze.diagnostics`):

========== ========= ==================================================
id         severity  checks
========== ========= ==================================================
SCHED001   error     non-causal provenance: sender lacks the item
SCHED002   error     self-send
SCHED003   error     send scheduled before cycle 0
SCHED004   warning   dead send: destination already holds the item
SCHED005   warning   duplicate delivery of one (dst, item) pair
SCHED006   info      single-sending violation (k-item source resends)
SCHED007   info      idle slack against the earliest-start critical path
SCHED008   warning   completion vs. the paper's closed-form lower bounds
SCHED009   info      Theorem 3.2 endgame structure for k-item schedules
SCHED010   warning   incomplete coverage: an item misses processors
========== ========= ==================================================

The closed forms behind SCHED008 — ``B(P; L, o, g)`` (Theorem 2.1) for
single-item broadcast, Theorem 3.1's counting bound (tightened to the
Theorem 3.6/3.7 single-sending bound when the source actually is
single-sending) for k-item postal broadcast, and
``L + 2o + (m(P-1) - 1) g`` (Section 4.1) for m-item all-to-all — are
supplied by the collective registry: the rule adapts its context into a
:class:`~repro.registry.spec.BoundQuery` and the
:class:`~repro.registry.spec.CollectiveSpec` owning the detected
workload answers (see :func:`repro.registry.closed_form_bound`).

Each rule is defined here and nowhere else.  SCHED001-005 are a
per-send mask plus an emitter over a :class:`SendFacts` view:
:func:`~repro.analyze.lint_schedule` runs them over a whole schedule's
:class:`~repro.analyze.context.LintContext`, and the chunked engine
(:mod:`repro.analyze.chunked`) runs :data:`CHUNK_RULES` over each
streamed chunk of an implicit plan.  SCHED008 and SCHED010 have one
diagnostic builder each (:func:`optimality_gap`,
:func:`coverage_diagnostic`) that both engines feed with their own facts.

SCHED006 is INFO, not an error: single-sending (Section 3.4) is a
*restricted schedule class*, so falling outside it is an observation
about structure, not a defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Protocol

import numpy as np

from repro.analyze.context import LintContext, Workload
from repro.analyze.diagnostics import (
    MAX_EMITTED_PER_RULE,
    Diagnostic,
    Severity,
)
from repro.registry import closed_form_bound
from repro.registry.spec import BoundQuery
from repro.schedule.columnar import ScheduleColumns

__all__ = [
    "Rule",
    "RULES",
    "rule_ids",
    "get_rule",
    "SendFacts",
    "CHUNK_RULES",
    "describe_send",
    "optimality_gap",
    "coverage_diagnostic",
]

RuleFn = Callable[[LintContext], tuple[list[Diagnostic], int]]


class SendFacts(Protocol):
    """The per-send facts SCHED001-005 read.

    :class:`~repro.analyze.context.LintContext` is this view over a whole
    schedule (each array derived lazily, once);
    :class:`~repro.schedule.implicit.ChunkFacts` is the view over one
    streamed chunk of an implicit plan, whose closed-form hold times are
    always found.  Row ``i`` of ``cols`` is storage index ``lo + i``.
    """

    @property
    def cols(self) -> ScheduleColumns: ...

    @property
    def lo(self) -> int: ...

    @property
    def send_found(self) -> np.ndarray: ...

    @property
    def send_avail(self) -> np.ndarray: ...

    @property
    def dst_avail(self) -> np.ndarray: ...


MaskFn = Callable[[SendFacts], np.ndarray]
EmitFn = Callable[[SendFacts, int], Diagnostic]


@dataclass(frozen=True)
class Rule:
    """A registered lint rule (id, fixed severity, runner)."""

    id: str
    name: str
    severity: Severity
    summary: str
    run: RuleFn
    workloads: tuple[str, ...] = ()  # empty = applies to every workload

    def applies(self, workload: str, num_sends: int) -> bool:
        if num_sends == 0:
            return False
        return not self.workloads or workload in self.workloads


def describe_send(cols: ScheduleColumns, index: int) -> str:
    """``t=<time> <src>-><dst> item <item>`` for one row of ``cols``."""
    item = cols.table.items[int(cols.items[index])]
    return (
        f"t={int(cols.times[index])} "
        f"{int(cols.srcs[index])}->{int(cols.dsts[index])} "
        f"item {item!r}"
    )


def _flagged_in_replay_order(
    ctx: LintContext, mask: np.ndarray
) -> tuple[list[int], int]:
    """Flagged storage indices in replay order, capped; plus the total."""
    total = int(mask.sum())
    if total == 0:
        return [], 0
    order = ctx.replay_order
    flagged = order[mask[order]]
    return flagged[:MAX_EMITTED_PER_RULE].tolist(), total


def _per_send(mask: Callable[[LintContext], np.ndarray], emit: EmitFn) -> RuleFn:
    """A whole-schedule rule: emit the masked sends in replay order."""

    def run(ctx: LintContext) -> tuple[list[Diagnostic], int]:
        indices, total = _flagged_in_replay_order(ctx, mask(ctx))
        return [emit(ctx, i) for i in indices], total

    return run


# -- SCHED001: non-causal provenance ------------------------------------


def _non_causal_mask(f: SendFacts) -> np.ndarray:
    return ~f.send_found | (f.cols.times < f.send_avail)


def _emit_non_causal(f: SendFacts, i: int) -> Diagnostic:
    if f.send_found[i]:
        have: int | None = int(f.send_avail[i])
        detail = f"the sender only holds the item from t={have}"
        fixit = f"delay the send to t>={have}"
    else:
        have = None
        detail = "the sender never holds this item"
        fixit = "route the item to the sender first, or drop the send"
    return Diagnostic(
        rule="SCHED001",
        severity=Severity.ERROR,
        message=f"non-causal: {describe_send(f.cols, i)} — {detail}",
        sends=(f.lo + i,),
        data={"holds_from": have},
        fixit=fixit,
    )


# -- SCHED002: self-send -------------------------------------------------


def _self_send_mask(f: SendFacts) -> np.ndarray:
    return f.cols.srcs == f.cols.dsts


def _emit_self_send(f: SendFacts, i: int) -> Diagnostic:
    return Diagnostic(
        rule="SCHED002",
        severity=Severity.ERROR,
        message=f"self-send: {describe_send(f.cols, i)}",
        sends=(f.lo + i,),
        fixit="drop the send; a processor already holds what it sends",
    )


# -- SCHED003: negative time ---------------------------------------------


def _negative_time_mask(f: SendFacts) -> np.ndarray:
    return f.cols.times < 0


def _emit_negative_time(f: SendFacts, i: int) -> Diagnostic:
    return Diagnostic(
        rule="SCHED003",
        severity=Severity.ERROR,
        message=f"negative time: {describe_send(f.cols, i)} starts before cycle 0",
        sends=(f.lo + i,),
        fixit="shift the schedule so every send starts at t>=0",
    )


# -- SCHED004: dead sends ------------------------------------------------


def _dead_send_mask(f: SendFacts) -> np.ndarray:
    return f.dst_avail <= f.cols.times


def _emit_dead_send(f: SendFacts, i: int) -> Diagnostic:
    first = int(f.dst_avail[i])
    return Diagnostic(
        rule="SCHED004",
        severity=Severity.WARNING,
        message=(
            f"dead send: {describe_send(f.cols, i)} — the destination "
            f"already holds the item (since t={first}), so "
            f"this send informs no new processor"
        ),
        sends=(f.lo + i,),
        data={"held_since": first},
        fixit="drop the send or retarget it at an uninformed processor",
    )


# -- SCHED005: duplicate delivery ----------------------------------------


def _duplicate_mask(ctx: LintContext) -> np.ndarray:
    n = len(ctx)
    keys = ctx.dst_keys
    # within each (dst, item) group the earliest arrival (ties: storage
    # order, lexsort is stable) is the primary delivery; later copies and
    # any delivery of an initially-held pair are duplicates
    order = np.lexsort((ctx.cols.arrivals, keys))
    k_sorted = keys[order]
    later_copy_sorted = np.concatenate(
        ([False], k_sorted[1:] == k_sorted[:-1])
    )
    dup = np.zeros(n, dtype=bool)
    dup[order] = later_copy_sorted
    if len(ctx.initial_keys):
        dup |= np.isin(keys, ctx.initial_keys)
    return dup


def _duplicate_chunk_mask(f: SendFacts) -> np.ndarray:
    # a chunk sees no other delivery, but the closed form knows when the
    # destination first holds the item: any later arrival is a copy
    return f.dst_avail < f.cols.arrivals


def _emit_duplicate(f: SendFacts, i: int) -> Diagnostic:
    first = int(f.dst_avail[i])
    return Diagnostic(
        rule="SCHED005",
        severity=Severity.WARNING,
        message=(
            f"duplicate delivery: {describe_send(f.cols, i)} — the "
            f"destination is already delivered this item "
            f"(first held at t={first})"
        ),
        sends=(f.lo + i,),
        data={"first_held": first},
        fixit="each (destination, item) pair should be delivered once",
    )


#: The per-send rules one streamed chunk decides alone: rule id ->
#: (mask, emitter) over a :class:`SendFacts` view.  SCHED001-004 share
#: their mask with the whole-schedule rule; SCHED005 swaps the grouped
#: duplicate scan for the closed-form first hold.
CHUNK_RULES: dict[str, tuple[MaskFn, EmitFn]] = {
    "SCHED001": (_non_causal_mask, _emit_non_causal),
    "SCHED002": (_self_send_mask, _emit_self_send),
    "SCHED003": (_negative_time_mask, _emit_negative_time),
    "SCHED004": (_dead_send_mask, _emit_dead_send),
    "SCHED005": (_duplicate_chunk_mask, _emit_duplicate),
}


# -- SCHED006: single-sending violations ---------------------------------


def _rule_single_sending(ctx: LintContext) -> tuple[list[Diagnostic], int]:
    source = ctx.source
    assert source is not None  # guarded by workloads=("kitem",)
    cols = ctx.cols
    from_source = cols.srcs == source
    counts = ctx.source_item_send_counts
    offenders = np.flatnonzero(counts >= 2)
    total = len(offenders)
    diags = []
    for code in offenders[:MAX_EMITTED_PER_RULE].tolist():
        sends = np.flatnonzero(from_source & (cols.items == code))
        diags.append(
            Diagnostic(
                rule="SCHED006",
                severity=Severity.INFO,
                message=(
                    f"single-sending violation: the source (proc {source}) "
                    f"transmits item {cols.table.items[code]!r} "
                    f"{int(counts[code])} times (Section 3.4 schedules "
                    f"send each item exactly once)"
                ),
                sends=tuple(sends[:10].tolist()),
                data={"times_sent": int(counts[code])},
                fixit="let an informed relay forward the repeat copies",
            )
        )
    return diags, total


# -- SCHED007: idle slack vs. the earliest-start critical path -----------


def _rule_idle_slack(ctx: LintContext) -> tuple[list[Diagnostic], int]:
    cols = ctx.cols
    n = len(ctx)
    g = ctx.params.g
    start = ctx.start_time
    # earliest legal start per send: the item is in hand, the schedule
    # has begun, and the sender's previous send is >= g behind
    earliest = np.maximum(
        np.where(ctx.send_found, ctx.send_avail, cols.times), start
    )
    order = np.lexsort((cols.times, cols.srcs))
    t_sorted = cols.times[order]
    same_src = cols.srcs[order][1:] == cols.srcs[order][:-1]
    gap_floor = np.full(n, start, dtype=np.int64)
    gap_floor[1:] = np.where(same_src, t_sorted[:-1] + g, start)
    earliest_sorted = np.maximum(earliest[order], gap_floor)
    slack_sorted = np.maximum(t_sorted - earliest_sorted, 0)
    slack = np.zeros(n, dtype=np.int64)
    slack[order] = slack_sorted
    flagged = int((slack > 0).sum())
    if flagged == 0:
        return [], 0
    worst = np.argsort(-slack, kind="stable")[:10]
    return [
        Diagnostic(
            rule="SCHED007",
            severity=Severity.INFO,
            message=(
                f"idle slack: {flagged} of {n} sends start later than the "
                f"earliest-start critical path allows "
                f"(total {int(slack.sum())} idle cycles, worst "
                f"{int(slack[worst[0]])} at {describe_send(cols, int(worst[0]))})"
            ),
            sends=tuple(worst.tolist()),
            data={
                "sends_with_slack": flagged,
                "total_slack": int(slack.sum()),
                "max_slack": int(slack[worst[0]]),
            },
        )
    ], 1


# -- SCHED008: optimality gap vs. closed-form bounds ---------------------


def _optimality_bound(ctx: LintContext) -> tuple[int, str] | None:
    """The applicable closed-form lower bound, or ``None`` to skip.

    The closed forms themselves live on the :class:`CollectiveSpec`
    records in :mod:`repro.registry.specs` (each spec owns the bound for
    the workload shape it produces); this adapter distils the lint
    context into the structured facts a spec's ``lint_bound`` needs.
    """
    machine = ctx.schedule.machine
    if machine is not None and not machine.has_flat_pricing:
        # per-edge pricing can legitimately beat the flat closed forms
        # (that is the point of hierarchical planning) — no bound applies
        return None
    P = len(ctx.participants)
    if P < 2:
        return None
    single_sending = False
    if ctx.workload == Workload.KITEM:
        counts = ctx.source_item_send_counts
        single_sending = bool(len(counts)) and counts.max(initial=0) <= 1
    full_coverage = False
    if ctx.workload == Workload.SCATTERED:
        holders = ctx.holders_per_item
        full_coverage = bool(len(holders)) and bool((holders == P).all())
    return closed_form_bound(
        BoundQuery(
            workload=ctx.workload,
            params=ctx.params,
            participants=P,
            n_items=ctx.n_items,
            single_sending=single_sending,
            full_coverage=full_coverage,
        )
    )


def optimality_gap(
    makespan: int, bound_kind: tuple[int, str] | None
) -> tuple[list[Diagnostic], int]:
    """SCHED008 for one makespan against its closed-form ``(bound, kind)``.

    Silent when no bound applies (``None``) or the bound is met.
    """
    if bound_kind is None:
        return [], 0
    bound, kind = bound_kind
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
            severity=Severity.WARNING,
            message=msg,
            data={"makespan": makespan, "bound": bound, "gap": gap},
            fixit=fixit,
        )
    ], 1


def _rule_optimality_gap(ctx: LintContext) -> tuple[list[Diagnostic], int]:
    return optimality_gap(ctx.makespan, _optimality_bound(ctx))


# -- SCHED009: Theorem 3.2 endgame structure -----------------------------


def _rule_endgame_structure(ctx: LintContext) -> tuple[list[Diagnostic], int]:
    if not ctx.params.is_postal:
        return [], 0
    source = ctx.source
    assert source is not None  # guarded by workloads=("kitem",)
    cols = ctx.cols
    k = ctx.n_items
    order = ctx.replay_order
    src_order = order[cols.srcs[order] == source]
    if len(src_order) < k:
        return [], 0  # coverage (SCHED010) reports the missing items
    first_k = src_order[:k]
    items_first_k = cols.items[first_k]
    distinct = len(np.unique(items_first_k))
    if distinct == k:
        return [], 0
    # find the first repeat for the message (k is small; numpy scan)
    seen_before = np.zeros(len(cols.table.items) + 1, dtype=bool)
    repeat_pos = 0
    for pos, code in enumerate(items_first_k.tolist()):
        if seen_before[code]:
            repeat_pos = pos
            break
        seen_before[code] = True
    i = int(first_k[repeat_pos])
    return [
        Diagnostic(
            rule="SCHED009",
            severity=Severity.INFO,
            message=(
                f"endgame structure: the source's first {k} sends carry "
                f"only {distinct} distinct items (repeat at "
                f"{describe_send(cols, i)}); Theorem 3.2's continuous phase "
                f"sends all {k} items before any repeat"
            ),
            sends=(i,),
            data={"k": k, "distinct_in_prefix": distinct},
        )
    ], 1


# -- SCHED010: coverage --------------------------------------------------


def coverage_diagnostic(
    item: Hashable, holders: int, participants: int
) -> Diagnostic:
    """SCHED010 for one item that reaches too few processors."""
    return Diagnostic(
        rule="SCHED010",
        severity=Severity.WARNING,
        message=(
            f"incomplete coverage: item {item!r} "
            f"reaches only {holders} of {participants} participating "
            f"processors"
        ),
        data={"holders": holders, "participants": participants},
        fixit="extend the schedule until every processor is informed",
    )


def _rule_coverage(ctx: LintContext) -> tuple[list[Diagnostic], int]:
    holders = ctx.holders_per_item
    P = len(ctx.participants)
    missing = np.flatnonzero(holders < P)
    return [
        coverage_diagnostic(ctx.item_of(code), int(holders[code]), P)
        for code in missing[:MAX_EMITTED_PER_RULE].tolist()
    ], len(missing)


RULES: tuple[Rule, ...] = (
    Rule(
        id="SCHED001",
        name="non-causal",
        severity=Severity.ERROR,
        summary="a processor sends an item before (or without ever) holding it",
        run=_per_send(_non_causal_mask, _emit_non_causal),
    ),
    Rule(
        id="SCHED002",
        name="self-send",
        severity=Severity.ERROR,
        summary="a processor sends a message to itself",
        run=_per_send(_self_send_mask, _emit_self_send),
    ),
    Rule(
        id="SCHED003",
        name="negative-time",
        severity=Severity.ERROR,
        summary="a send starts before cycle 0",
        run=_per_send(_negative_time_mask, _emit_negative_time),
    ),
    Rule(
        id="SCHED004",
        name="dead-send",
        severity=Severity.WARNING,
        summary="a send whose destination already holds the item",
        run=_per_send(_dead_send_mask, _emit_dead_send),
    ),
    Rule(
        id="SCHED005",
        name="duplicate-delivery",
        severity=Severity.WARNING,
        summary="a (destination, item) pair is delivered more than once",
        run=_per_send(_duplicate_mask, _emit_duplicate),
    ),
    Rule(
        id="SCHED006",
        name="single-sending",
        severity=Severity.INFO,
        summary="the k-item source transmits some item more than once",
        run=_rule_single_sending,
        workloads=(Workload.KITEM,),
    ),
    Rule(
        id="SCHED007",
        name="idle-slack",
        severity=Severity.INFO,
        summary="sends start later than the earliest-start critical path",
        run=_rule_idle_slack,
    ),
    Rule(
        id="SCHED008",
        name="optimality-gap",
        severity=Severity.WARNING,
        summary="completion time misses the paper's closed-form lower bound",
        run=_rule_optimality_gap,
        workloads=(Workload.BROADCAST, Workload.KITEM, Workload.SCATTERED),
    ),
    Rule(
        id="SCHED009",
        name="endgame-structure",
        severity=Severity.INFO,
        summary="k-item source prefix violates Theorem 3.2's continuous phase",
        run=_rule_endgame_structure,
        workloads=(Workload.KITEM,),
    ),
    Rule(
        id="SCHED010",
        name="coverage",
        severity=Severity.WARNING,
        summary="an item fails to reach every participating processor",
        run=_rule_coverage,
        workloads=(Workload.BROADCAST, Workload.KITEM),
    ),
)


def rule_ids() -> list[str]:
    return [rule.id for rule in RULES]


def get_rule(rule_id: str) -> Rule:
    for rule in RULES:
        if rule.id == rule_id:
            return rule
    raise KeyError(f"unknown rule {rule_id!r}; known: {rule_ids()}")
