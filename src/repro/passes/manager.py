"""`PassManager`: chain passes with lint verification between them.

The manager is the "verified" half of the framework: after every pass it
can re-run the lint engine (:mod:`repro.analyze`) as an IR verifier.
The legality rules SCHED001-003 (causality, self-send, negative time)
play the role of MLIR's structural verifier; warnings and info rules can
ride along with ``verify="all"`` for diagnosis but never fail a run.

Verification is *differential*: the input schedule's pre-existing error
rules form a baseline, and a pass fails verification only when it
**introduces** an error rule id that was not already present — so
normalization pipelines (e.g. ``canonicalize``) run cleanly over the
deliberately-broken lint corpus, while a buggy rewrite of a clean
schedule is caught immediately.  Passes declaring
``preserves_completion`` additionally have their makespan (completion
minus start time) checked.

The baseline is taken on demand: the pipeline input is linted only
when a pass output has an error rule, because a clean output introduces
nothing whatever the input held.  A pass with nothing to change returns
its input, and the manager then reuses the report it already has for
that object, so a clean plan through no-op passes is linted once.  The
facts under the rules (the availability table and hold times) are
memoized on the schedule object
(:meth:`~repro.schedule.ops.Schedule.memo`) either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.passes.base import SchedulePass
from repro.passes.pipeline import parse_pipeline
from repro.schedule.ops import Schedule

if TYPE_CHECKING:
    from repro.analyze import LintReport

__all__ = [
    "ERROR_RULES",
    "PassManager",
    "PassRecord",
    "PassVerificationError",
    "run_pipeline",
]

#: The legality rules used as the IR verifier (errors; SCHED004+ are
#: warnings/info and never fail verification).
ERROR_RULES = ("SCHED001", "SCHED002", "SCHED003")


class PassVerificationError(RuntimeError):
    """A pass broke a declared invariant (new lint errors or makespan)."""


@dataclass(frozen=True)
class PassRecord:
    """What one pass did: sizes, makespans, timing, stats, lint report."""

    index: int
    name: str
    description: str
    sends_before: int
    sends_after: int
    makespan_before: int
    makespan_after: int
    elapsed_s: float
    stats: dict[str, Any] = field(default_factory=dict)
    report: "LintReport | None" = None


def _makespan(schedule: Schedule) -> int:
    """Completion time minus start time (0 for an empty schedule).

    Local computations count on both ends, as in
    :func:`repro.registry.completion`: the end of the last one can be
    the completion time, and the first one can start before any send.
    """
    cols = schedule.columns()
    starts = [op.time for op in schedule.computes]
    ends = [op.time + op.duration for op in schedule.computes]
    if len(cols):
        starts.append(int(cols.times.min()))
        ends.append(int(cols.arrivals.max()))
    if not starts:
        return 0
    return max(ends) - min(starts)


class PassManager:
    """Run a pass sequence over a schedule, verifying between passes.

    ``passes`` is either a list of :class:`SchedulePass` instances or
    pipeline text for :func:`repro.passes.pipeline.parse_pipeline`.
    ``verify`` is ``"errors"`` (default: re-lint SCHED001-003 after each
    pass), ``"all"`` (run every lint rule; reports carry warnings too,
    but only *introduced* errors fail), or ``"off"``.  After
    :meth:`run`, :attr:`records` holds one :class:`PassRecord` per
    executed pass.
    """

    def __init__(
        self,
        passes: list[SchedulePass] | str,
        verify: str = "errors",
    ):
        if verify not in ("errors", "all", "off"):
            raise ValueError(
                f"verify must be 'errors', 'all' or 'off', got {verify!r}"
            )
        self.passes = parse_pipeline(passes) if isinstance(passes, str) else list(passes)
        self.verify = verify
        self.records: list[PassRecord] = []

    def _lint(self, schedule: Schedule) -> "LintReport":
        # analyze transitively imports repro.registry; resolving lazily
        # keeps the passes package importable from anywhere in the core.
        from repro.analyze import lint_schedule

        if self.verify == "all":
            return lint_schedule(schedule)
        return lint_schedule(schedule, select=ERROR_RULES)

    def run(self, schedule: Schedule) -> Schedule:
        """Apply every pass in order; returns the final schedule."""
        from repro.schedule.implicit import ImplicitSchedule

        if isinstance(schedule, ImplicitSchedule):
            raise TypeError(
                "PassManager verifies materialized schedules; apply "
                "shift/remap to an implicit plan via pass.run_implicit() "
                "or materialize() it first"
            )
        self.records = []
        # the lint report of `current`; None until something needs it
        # (the pipeline input is linted only on demand, see module doc)
        previous: "LintReport | None" = None
        current = schedule
        for index, p in enumerate(self.passes):
            sends_before = current.num_sends
            makespan_before = _makespan(current)
            started = time.perf_counter()
            result = p.run(current)
            elapsed = time.perf_counter() - started
            report: "LintReport | None" = None
            if self.verify != "off":
                if result is current and previous is not None:
                    report = previous
                else:
                    report = self._lint(result)
                post = {d.rule for d in report.errors}
                introduced: set[str] = set()
                if post:
                    if previous is None:
                        previous = report if result is current else self._lint(current)
                    introduced = post - {d.rule for d in previous.errors}
                if introduced and p.preserves_legality:
                    raise PassVerificationError(
                        f"pass {p.describe()!r} (step {index + 1}) introduced "
                        f"lint errors: {', '.join(sorted(introduced))}"
                    )
                previous = report
                if (
                    p.preserves_completion
                    and _makespan(result) != makespan_before
                ):
                    raise PassVerificationError(
                        f"pass {p.describe()!r} (step {index + 1}) changed "
                        f"the makespan from {makespan_before} to "
                        f"{_makespan(result)} despite declaring "
                        "preserves_completion"
                    )
            self.records.append(
                PassRecord(
                    index=index,
                    name=p.name,
                    description=p.describe(),
                    sends_before=sends_before,
                    sends_after=result.num_sends,
                    makespan_before=makespan_before,
                    makespan_after=_makespan(result),
                    elapsed_s=elapsed,
                    stats=dict(p.stats),
                    report=report,
                )
            )
            current = result
        return current


def run_pipeline(
    pipeline: str | list[SchedulePass],
    schedule: Schedule,
    verify: str = "off",
) -> Schedule:
    """One-shot convenience: build a manager, run it, return the result."""
    return PassManager(pipeline, verify=verify).run(schedule)
