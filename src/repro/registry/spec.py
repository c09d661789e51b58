"""Declarative collective specifications.

A :class:`CollectiveSpec` is one record per paper collective: canonical
name and aliases, the builder behind a *normalized* keyword schema
(machine parameters always travel as a :class:`~repro.params.LogPParams`;
per-collective extras like ``k``/``n``/``t`` are declared as
:class:`ParamField`\\ s with domains), the closed-form lower bound and
its optimality-theorem tag, and — for the static analyzer — the
workload shape whose SCHED008 closed form this spec owns.

The records themselves live in :mod:`repro.registry.specs`; the lookup
and the :func:`~repro.registry.plan` entry point live in
:mod:`repro.registry`.  Everything here is import-light (params + ops
only), so the registry can be consumed by the CLI, the bench harness and
the lint engine without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.params import LogPParams
from repro.schedule.ops import Schedule

__all__ = ["ParamField", "BoundQuery", "CollectiveSpec"]


@dataclass(frozen=True)
class ParamField:
    """One collective-specific keyword parameter and its domain.

    ``default=None`` marks the parameter required (unless the spec's
    ``normalize_extra`` hook fills it, as summation's ``n``/``t`` pair
    does); ``minimum`` is the smallest legal value, enforced by
    :func:`~repro.registry.canonical_request` with a uniform
    ``ValueError`` before the builder runs.
    """

    name: str
    doc: str
    default: int | None = None
    minimum: int | None = None
    required: bool = True


@dataclass(frozen=True)
class BoundQuery:
    """What the lint engine knows about a schedule when asking for a bound.

    Deliberately *not* a ``LintContext``: the registry must stay
    importable from :mod:`repro.analyze.rules` without a cycle, so the
    rule adapts its context into this plain record and each spec's
    ``lint_bound`` works from structured facts alone.
    """

    workload: str  # repro.analyze.context.Workload constant (plain string)
    params: LogPParams
    participants: int  # processors taking part in the communication
    n_items: int  # distinct items carried by sends
    single_sending: bool  # kitem only: the source sends each item once
    full_coverage: bool  # every item reaches every participant


@dataclass(frozen=True)
class CollectiveSpec:
    """A registered collective: builder, domain, bounds and metadata."""

    name: str
    aliases: tuple[str, ...]
    summary: str
    paper: str  # paper section / figure reference
    theorem: str  # optimality theorem tag
    build: Callable[..., Schedule]  # build(params, **extra)
    #: Optional O(log P)-state builder returning a
    #: ``repro.schedule.implicit.ImplicitSchedule`` (typed ``Any`` to keep
    #: this module import-light); reached via ``plan(storage="implicit")``.
    implicit_build: Callable[..., Any] | None = None
    extra_params: tuple[ParamField, ...] = ()
    check_machine: Callable[[LogPParams], None] | None = None
    normalize_extra: (
        Callable[[LogPParams, dict[str, Any]], dict[str, Any]] | None
    ) = None
    lower_bound: Callable[..., int] | None = None  # lower_bound(params, **extra)
    tight: Callable[..., bool] | None = None  # construction meets the bound?
    #: The builder accepts a ``machine=`` topology (a
    #: ``repro.machine.model.MachineModel``, routed outside the int-only
    #: ``extra_params`` validation).  Non-aware specs reject non-flat
    #: machines at :func:`~repro.registry.canonical_request` time.
    machine_aware: bool = False
    workload: str | None = None  # lint workload whose closed form this spec owns
    lint_bound: Callable[[BoundQuery], tuple[int, str] | None] | None = None
    figures: tuple[tuple[str, str], ...] = ()  # (figure key, builder attr)
    sample_cases: tuple[dict[str, int], ...] = field(default=())

    def all_names(self) -> tuple[str, ...]:
        return (self.name, *self.aliases)

    def validate_extra(
        self, params: LogPParams, extra: dict[str, Any]
    ) -> dict[str, Any]:
        """Normalize + domain-check the collective-specific keywords.

        Returns the resolved keyword dict the builder (and the
        lower-bound callable) will receive; raises ``ValueError`` with a
        one-line, spec-prefixed message for anything out of domain.
        """
        known = {p.name for p in self.extra_params}
        unknown = sorted(set(extra) - known)
        if unknown:
            expected = ", ".join(sorted(known)) if known else "none"
            raise ValueError(
                f"{self.name}: unknown parameter(s) {', '.join(unknown)} "
                f"(accepted: {expected})"
            )
        resolved: dict[str, Any] = {}
        for p in self.extra_params:
            value = extra.get(p.name, p.default)
            if value is None:
                if p.required:
                    raise ValueError(
                        f"{self.name}: missing required parameter "
                        f"{p.name}= ({p.doc})"
                    )
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(
                    f"{self.name}: {p.name} must be an int, "
                    f"got {type(value).__name__}"
                )
            if p.minimum is not None and value < p.minimum:
                raise ValueError(
                    f"{self.name}: {p.name} must be >= {p.minimum}, got {value}"
                )
            resolved[p.name] = value
        if self.normalize_extra is not None:
            resolved = self.normalize_extra(params, resolved)
        return resolved
