"""The built-in passes: five ported transforms + three normalizers.

Each pass runs its vectorized columnar kernel
(:mod:`repro.passes.kernels`).  The pure-Python oracles in
``tests/oracles/transform.py`` are property-tested to produce
byte-identical canonical JSON, so the oracle is the specification and
the kernel is the implementation.

Invariant table (see :class:`repro.passes.base.SchedulePass`):

=================  ==================  ====================  ========
pass               preserves_legality  preserves_completion  computes
=================  ==================  ====================  ========
shift              yes                 yes (makespan)        shifted
remap              yes                 yes                   renamed
reverse            yes                 yes                   refused
concat             yes                 no                    refused
restrict           yes                 no                    refused
heal               yes                 no                    refused
canonicalize       yes                 yes                   kept
prune-dead-sends   yes                 no                    kept
compact-time       yes                 no                    refused
=================  ==================  ====================  ========
"""

from __future__ import annotations

from typing import Any, ClassVar, Hashable, Iterable, Mapping

from repro.passes import kernels
from repro.passes.base import (
    SchedulePass,
    refuse_computes,
    refuse_implicit,
    register_pass,
)
from repro.schedule.implicit import ImplicitSchedule
from repro.schedule.ops import Schedule

__all__ = [
    "ShiftPass",
    "RemapPass",
    "ReversePass",
    "ConcatPass",
    "RestrictPass",
    "HealPass",
    "CanonicalizePass",
    "PruneDeadSendsPass",
    "CompactTimePass",
]

Item = Hashable


@register_pass
class ShiftPass(SchedulePass):
    """Translate every send and creation time by a constant offset."""

    name: ClassVar[str] = "shift"
    summary: ClassVar[str] = "translate all times by a constant offset"
    params_doc: ClassVar[str] = "offset=<int> (may be negative)"
    preserves_legality: ClassVar[bool] = True
    preserves_completion: ClassVar[bool] = True

    def __init__(self, offset: int = 0):
        super().__init__()
        self.offset = int(offset)

    def params(self) -> dict[str, Any]:
        return {"offset": self.offset}

    def run(self, schedule: Schedule) -> Schedule:
        return kernels.shift_columns(schedule, self.offset)

    def run_implicit(self, schedule: ImplicitSchedule) -> ImplicitSchedule:
        return schedule.shifted(self.offset)


@register_pass
class RemapPass(SchedulePass):
    """Relabel processors by an injective mapping.

    Programmatic use passes ``mapping={old: new, ...}``; pipeline text
    uses the named permutation ``perm=reverse`` (``p -> P-1-p``).
    """

    name: ClassVar[str] = "remap"
    summary: ClassVar[str] = "relabel processors by an injective mapping"
    params_doc: ClassVar[str] = "perm=reverse | mapping={old: new} (API only)"
    preserves_legality: ClassVar[bool] = True
    preserves_completion: ClassVar[bool] = True

    def __init__(
        self,
        mapping: Mapping[int, int] | None = None,
        perm: str | None = None,
    ):
        super().__init__()
        if (mapping is None) == (perm is None):
            raise ValueError("remap needs exactly one of mapping= or perm=")
        if perm is not None and perm != "reverse":
            raise ValueError(f"unknown remap perm {perm!r} (known: reverse)")
        self.mapping = dict(mapping) if mapping is not None else None
        self.perm = perm

    def params(self) -> dict[str, Any]:
        if self.perm is not None:
            return {"perm": self.perm}
        return {}

    def _mapping_for(
        self, schedule: Schedule | ImplicitSchedule
    ) -> dict[int, int]:
        if self.mapping is not None:
            return self.mapping
        top = schedule.params.P - 1
        return {p: top - p for p in range(schedule.params.P)}

    def run(self, schedule: Schedule) -> Schedule:
        return kernels.remap_columns(schedule, self._mapping_for(schedule))

    def run_implicit(self, schedule: ImplicitSchedule) -> ImplicitSchedule:
        return schedule.remapped(self._mapping_for(schedule))


@register_pass
class ReversePass(SchedulePass):
    """Time-reverse the schedule (broadcast -> reduction, paper §4.2).

    Sends swap direction and run backwards from the completion time;
    items are relabelled ``(tag, original_dst)``.  ``initial`` overrides
    the default "every sender starts holding its item" placement (the
    reduction rewiring passes all-processors initial ownership).
    """

    name: ClassVar[str] = "reverse"
    summary: ClassVar[str] = "time-reverse sends (broadcast <-> reduction)"
    params_doc: ClassVar[str] = "tag=<str> (item label prefix, default rev)"
    preserves_legality: ClassVar[bool] = True
    preserves_completion: ClassVar[bool] = True
    run_implicit = refuse_implicit("time reversal relabels every send's item")

    def __init__(
        self,
        tag: str = "rev",
        initial: dict[int, set[Item]] | None = None,
    ):
        super().__init__()
        self.tag = tag
        self.initial = initial

    def params(self) -> dict[str, Any]:
        if self.tag == "rev":
            return {}
        return {"tag": self.tag}

    def run(self, schedule: Schedule) -> Schedule:
        refuse_computes(self.name, schedule)
        return kernels.reverse_columns(schedule, tag=self.tag, initial=self.initial)


@register_pass
class ConcatPass(SchedulePass):
    """Append a second schedule after this one finishes (API only).

    The second schedule's parameter is a live :class:`Schedule`, so this
    pass is constructed programmatically, not from pipeline text.
    """

    name: ClassVar[str] = "concat"
    summary: ClassVar[str] = "run a second schedule after the first finishes"
    params_doc: ClassVar[str] = "second=<Schedule> (API only)"
    preserves_legality: ClassVar[bool] = True
    preserves_completion: ClassVar[bool] = False
    run_implicit = refuse_implicit(
        "the appended schedule is already materialized columns"
    )

    def __init__(self, second: Schedule):
        super().__init__()
        self.second = second

    def run(self, schedule: Schedule) -> Schedule:
        refuse_computes(self.name, schedule)
        refuse_computes(self.name, self.second)
        return kernels.concat_columns(schedule, self.second)


def parse_procs(spec: str) -> set[int]:
    """Parse the pipeline-text processor-set grammar.

    ``"lo:hi"`` is the half-open range ``lo..hi-1``; ``"a+b+c"`` is an
    explicit set; a single integer is a singleton.
    """
    text = spec.strip()
    if ":" in text:
        lo_text, _, hi_text = text.partition(":")
        lo, hi = int(lo_text), int(hi_text)
        if hi <= lo:
            raise ValueError(f"empty processor range {spec!r}")
        return set(range(lo, hi))
    return {int(part) for part in text.split("+")}


@register_pass
class RestrictPass(SchedulePass):
    """Keep only sends whose endpoints both lie in a processor set."""

    name: ClassVar[str] = "restrict"
    summary: ClassVar[str] = "drop sends leaving a processor subset"
    params_doc: ClassVar[str] = "procs=<lo:hi | a+b+c>"
    preserves_legality: ClassVar[bool] = True
    preserves_completion: ClassVar[bool] = False
    run_implicit = refuse_implicit(
        "the surviving send set is data-dependent, not a closed form"
    )

    def __init__(self, procs: Iterable[int] | str):
        super().__init__()
        self.procs = parse_procs(procs) if isinstance(procs, str) else set(procs)

    def params(self) -> dict[str, Any]:
        return {"procs": "+".join(str(p) for p in sorted(self.procs))}

    def run(self, schedule: Schedule) -> Schedule:
        refuse_computes(self.name, schedule)
        return kernels.restrict_columns(schedule, self.procs)


@register_pass
class HealPass(SchedulePass):
    """Re-inform survivors orphaned by rank removal (broadcast only).

    The companion of ``restrict`` and of :class:`~repro.machine.model.
    FaultMaskedMachine`: drops every send touching a dead or removed
    rank (transitively — orphaned subtrees fall with their parent) and
    greedily re-attaches each orphaned survivor to the earliest
    informed sender, respecting per-level gap spacing.  ``procs``
    overrides the survivor set; by default every rank the machine
    reports alive must end up covered.  Sets ``stats`` from
    :class:`~repro.machine.heal.HealStats` (dropped/healed send counts,
    coverage before/after, makespans, and the survivor-count broadcast
    bound under flat pricing).
    """

    name: ClassVar[str] = "heal"
    summary: ClassVar[str] = "re-inform survivors orphaned by rank removal"
    params_doc: ClassVar[str] = "procs=<lo:hi | a+b+c> (optional survivor set)"
    preserves_legality: ClassVar[bool] = True
    preserves_completion: ClassVar[bool] = False
    run_implicit = refuse_implicit(
        "healing replays per-processor availability against the survivor set"
    )

    def __init__(self, procs: Iterable[int] | str | None = None):
        super().__init__()
        if procs is None:
            self.procs = None
        else:
            self.procs = (
                parse_procs(procs) if isinstance(procs, str) else set(procs)
            )

    def params(self) -> dict[str, Any]:
        if self.procs is None:
            return {}
        return {"procs": "+".join(str(p) for p in sorted(self.procs))}

    def run(self, schedule: Schedule) -> Schedule:
        # the fixpoint has no objects oracle (legality is re-verified by
        # the manager / validator instead)
        from repro.machine.heal import heal_columns

        refuse_computes(self.name, schedule)
        result, heal_stats = heal_columns(schedule, procs=self.procs)
        self.stats.update(
            {
                "dropped_sends": heal_stats.dropped_sends,
                "healed_sends": heal_stats.healed_sends,
                "uncovered_before": heal_stats.uncovered_before,
                "uncovered_after": heal_stats.uncovered_after,
                "makespan_before": heal_stats.makespan_before,
                "makespan_after": heal_stats.makespan_after,
                "completion_bound": heal_stats.completion_bound,
            }
        )
        return result


@register_pass
class CanonicalizePass(SchedulePass):
    """Stable ``(time, src, dst)`` sort + item-table compaction.

    After this pass, column storage order equals canonical JSON order and
    the item table holds exactly the referenced items in first-use order.
    Sets ``stats["dropped_items"]``.
    """

    name: ClassVar[str] = "canonicalize"
    summary: ClassVar[str] = "sort sends canonically, compact the item table"
    preserves_legality: ClassVar[bool] = True
    preserves_completion: ClassVar[bool] = True
    run_implicit = refuse_implicit(
        "canonical storage order is a property of materialized columns"
    )

    def run(self, schedule: Schedule) -> Schedule:
        result, dropped = kernels.canonicalize_columns(schedule)
        self.stats["dropped_items"] = dropped
        return result


@register_pass
class PruneDeadSendsPass(SchedulePass):
    """Delete every SCHED004 dead send (destination already holds item).

    Sets ``stats["removed_sends"]``; the result re-lints SCHED004-clean
    in a single application (removal never changes first availability).
    """

    name: ClassVar[str] = "prune-dead-sends"
    summary: ClassVar[str] = "delete sends whose payload the dst already holds"
    preserves_legality: ClassVar[bool] = True
    preserves_completion: ClassVar[bool] = False
    run_implicit = refuse_implicit(
        "dead-send detection replays per-processor item availability"
    )

    def run(self, schedule: Schedule) -> Schedule:
        result, removed = kernels.prune_dead_sends_columns(schedule)
        self.stats["removed_sends"] = removed
        return result


@register_pass
class CompactTimePass(SchedulePass):
    """Left-shift globally idle cycles without violating L/o/g spacing.

    Collapses timeline gaps no send's constraint horizon
    (``L + 2o + g``) reaches across; sets ``stats["reclaimed_cycles"]``.
    """

    name: ClassVar[str] = "compact-time"
    summary: ClassVar[str] = "collapse globally idle cycles in the timeline"
    preserves_legality: ClassVar[bool] = True
    preserves_completion: ClassVar[bool] = False
    run_implicit = refuse_implicit(
        "idle-gap detection scans the full materialized timeline"
    )

    def run(self, schedule: Schedule) -> Schedule:
        refuse_computes(self.name, schedule)
        result, reclaimed = kernels.compact_time_columns(schedule)
        self.stats["reclaimed_cycles"] = reclaimed
        return result
