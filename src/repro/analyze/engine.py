"""The lint engine: run the rule registry over one schedule.

:func:`lint_schedule` is the single entry point — it builds a
:class:`~repro.analyze.context.LintContext` (one shared set of derived
arrays), runs every applicable rule from
:data:`~repro.analyze.rules.RULES`, and returns a
:class:`~repro.analyze.diagnostics.LintReport`.  No simulation happens:
every rule is a static property of the columnar IR, so linting a
schedule is orders of magnitude cheaper than replaying it.

Rule selection accepts both rule ids (``SCHED004``) and rule names
(``dead-send``); ``select`` restricts the sweep, ``ignore`` drops rules
from it.  Unknown ids raise immediately so typos cannot silently skip
checks.
"""

from __future__ import annotations

import time
from typing import Iterable

from repro.analyze.context import LintContext
from repro.analyze.diagnostics import Diagnostic, LintReport, Severity
from repro.analyze.rules import RULES, Rule
from repro.schedule.ops import Schedule

__all__ = ["lint_schedule", "assert_lint_clean", "resolve_rules"]


_BY_KEY: dict[str, Rule] = {
    **{rule.id: rule for rule in RULES},
    **{rule.name: rule for rule in RULES},
}


def resolve_rules(
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Rule]:
    """Resolve id/name selections against the registry (order-preserving)."""

    def lookup(key: str) -> Rule:
        try:
            return _BY_KEY[key]
        except KeyError:
            known = sorted({r.id for r in RULES} | {r.name for r in RULES})
            raise ValueError(
                f"unknown rule {key!r}; known rules: {known}"
            ) from None

    chosen = (
        list(RULES)
        if select is None
        else [lookup(key) for key in select]
    )
    if ignore:
        dropped = {lookup(key).id for key in ignore}
        chosen = [rule for rule in chosen if rule.id not in dropped]
    # registry order, deduplicated
    chosen_ids = {rule.id for rule in chosen}
    return [rule for rule in RULES if rule.id in chosen_ids]


def lint_schedule(
    schedule: Schedule,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> LintReport:
    """Run the static rule sweep over ``schedule`` (no simulation).

    Consumes the schedule's cached :class:`ScheduleColumns` zero-copy —
    array-backed schedules are never materialized into ``SendOp``
    objects.  Returns the structured report; ``report.errors`` empty
    means the schedule passes every structural check the paper's
    theorems give us.
    """
    started = time.perf_counter()
    ctx = LintContext(schedule)
    workload = ctx.workload
    diagnostics: list[Diagnostic] = []
    rules_run: list[str] = []
    totals: dict[str, int] = {}
    for rule in resolve_rules(select, ignore):
        if not rule.applies(workload, len(ctx)):
            continue
        emitted, total = rule.run(ctx)
        rules_run.append(rule.id)
        totals[rule.id] = total
        diagnostics.extend(emitted)
    diagnostics.sort(key=lambda d: (d.rule, d.sends or (-1,)))
    return LintReport(
        diagnostics=diagnostics,
        rules_run=rules_run,
        rule_totals=totals,
        num_sends=len(ctx),
        workload=workload,
        elapsed_s=time.perf_counter() - started,
    )


def assert_lint_clean(
    schedule: Schedule, severity: Severity = Severity.ERROR
) -> LintReport:
    """Lint and raise ``ValueError`` if anything at/above ``severity`` fired.

    The test-suite smoke helper: builders call this to assert their
    output is structurally sound without running the simulator.
    """
    report = lint_schedule(schedule)
    offending = report.at_least(severity)
    if offending:
        preview = "\n  ".join(d.message for d in offending[:10])
        more = (
            f"\n  ... and {len(offending) - 10} more"
            if len(offending) > 10
            else ""
        )
        raise ValueError(f"schedule fails lint:\n  {preview}{more}")
    return report
