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

Every rule is defined once, in :mod:`repro.analyze.rules`: the chunk
sweep applies each :data:`~repro.analyze.rules.CHUNK_RULES` mask and
emitter to the chunk's :class:`~repro.schedule.implicit.ChunkFacts`
(the same functions :func:`~repro.analyze.lint_schedule` runs over a
:class:`~repro.analyze.context.LintContext`), and the aggregate rules
hand their closed-form facts to the shared
:func:`~repro.analyze.rules.optimality_gap` and
:func:`~repro.analyze.rules.coverage_diagnostic` builders.  This module
holds no rule wording; at small P the property suite pins every
diagnostic field and ``rule_totals`` equal on every rule both engines
run.
"""

from __future__ import annotations

import time
from typing import Iterable

import numpy as np

from repro.analyze.diagnostics import (
    MAX_EMITTED_PER_RULE,
    Diagnostic,
    LintReport,
)
from repro.analyze.engine import resolve_rules
from repro.analyze.rules import (
    CHUNK_RULES,
    Rule,
    coverage_diagnostic,
    optimality_gap,
)
from repro.registry import closed_form_bound
from repro.registry.spec import BoundQuery
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
PER_CHUNK_RULES = tuple(CHUNK_RULES)

#: Rules answered from O(1) aggregate closed forms after the stream.
AGGREGATE_RULES = ("SCHED008", "SCHED010")

#: Rules that need the whole schedule at once: rule id -> why.
WHOLE_SCHEDULE_RULES = {
    "SCHED006": "single-sending counts need the source's full send multiset",
    "SCHED007": "slack ranking orders each processor's complete send sequence",
    "SCHED009": "the Theorem 3.2 endgame is a property of the global prefix",
}


class _RuleTally:
    """Accumulates one rule's findings across chunks, keeping the
    ``MAX_EMITTED_PER_RULE`` earliest in replay order.

    :func:`~repro.analyze.lint_schedule` emits a rule's first flagged
    sends in replay order ``(time, src, dst)``, storage index breaking
    ties; chunks stream in destination-rank order, so each chunk's
    earliest flagged sends merge into a shortlist that never outgrows
    the cap.
    """

    def __init__(self, rule: Rule):
        self.rule = rule
        self.mask, self.emit = CHUNK_RULES[rule.id]
        self.total = 0
        self._kept: list[tuple[tuple[int, int, int, int], Diagnostic]] = []

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return [diagnostic for _, diagnostic in self._kept]

    def add(self, facts: ChunkFacts) -> None:
        flagged = np.flatnonzero(self.mask(facts))
        if not len(flagged):
            return
        self.total += len(flagged)
        times = facts.cols.times[flagged]
        srcs = facts.cols.srcs[flagged]
        dsts = facts.cols.dsts[flagged]
        # lexsort is stable and flagged ascends: storage order breaks ties
        earliest = np.lexsort((dsts, srcs, times))[:MAX_EMITTED_PER_RULE]
        worst = self._kept[-1][0] if len(self._kept) == MAX_EMITTED_PER_RULE else None
        for at in earliest.tolist():
            local = int(flagged[at])
            key = (int(times[at]), int(srcs[at]), int(dsts[at]), facts.lo + local)
            if worst is not None and key >= worst:
                break
            self._kept.append((key, self.emit(facts, local)))
        self._kept.sort(key=lambda entry: entry[0])
        del self._kept[MAX_EMITTED_PER_RULE:]


def _optimality_gap(impl: ImplicitSchedule) -> tuple[list[Diagnostic], int]:
    """SCHED008 from closed forms: the same bound query the full engine
    builds, answered for the implicit makespan."""
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
    return optimality_gap(impl.makespan, bound_kind)


def _coverage(impl: ImplicitSchedule) -> tuple[list[Diagnostic], int]:
    """SCHED010 by edge counting over the dst-rank enumeration contract:
    every non-root rank receives exactly one (distinct) delivery, so the
    broadcast item reaches ``1 + num_sends`` processors."""
    participants = impl.num_participants
    holders = 1 + impl.num_sends
    if holders >= participants:
        return [], 0
    return [coverage_diagnostic(0, holders, participants)], 1


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
        if rule.id in PER_CHUNK_RULES
        and rule.applies(impl.workload, impl.num_sends)
    ]
    aggregate = [
        rule
        for rule in chosen
        if rule.id in AGGREGATE_RULES
        and rule.applies(impl.workload, impl.num_sends)
    ]
    if per_chunk:
        for lo in range(0, impl.num_sends, max_sends):
            hi = min(lo + max_sends, impl.num_sends)
            facts = impl.chunk_with_facts(lo, hi)
            for tally in per_chunk:
                tally.add(facts)
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
