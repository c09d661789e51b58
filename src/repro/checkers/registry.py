"""The checker registry: one decorator, one catalogue, one resolver.

Mirrors :data:`repro.analyze.rules.RULES` at the codebase tier.  A
:class:`Checker` couples a REPRO rule id with its category, default
severity and target-profile predicate; :func:`register_checker` is the
decorator the rule functions in :mod:`repro.checkers.rules` register
through, and :func:`resolve_checkers` turns ``--select``/``--ignore``
spellings (ids or names) into an ordered, deduplicated run list —
unknown spellings raise immediately so typos cannot silently skip
checks.

Rule functions return plain :class:`Finding` records (line, message,
optional fix-it); the engine stamps them with the checker's id,
severity and the file's path, so a rule body never repeats its own
metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.checkers.context import FileContext
from repro.checkers.diagnostics import Severity

__all__ = [
    "Finding",
    "Checker",
    "CHECKERS",
    "register_checker",
    "checker_ids",
    "get_checker",
    "resolve_checkers",
]


@dataclass(frozen=True)
class Finding:
    """One raw rule hit before the engine stamps rule id and path."""

    line: int
    message: str
    fixit: str | None = None


CheckerFn = Callable[[FileContext], list[Finding]]


@dataclass(frozen=True)
class Checker:
    """A registered codebase rule (id, category, severity, targets).

    ``profiles`` selects target files: the empty tuple applies the rule
    to every file; otherwise a file must belong to one of the named
    profiles.
    """

    id: str
    name: str
    category: str
    severity: Severity
    summary: str
    run: CheckerFn
    profiles: tuple[str, ...] = ()

    def applies(self, file_profiles: frozenset[str]) -> bool:
        return not self.profiles or any(p in file_profiles for p in self.profiles)


CHECKERS: list[Checker] = []


def register_checker(
    id: str,
    name: str,
    category: str,
    severity: Severity,
    summary: str,
    profiles: tuple[str, ...] = (),
) -> Callable[[CheckerFn], CheckerFn]:
    """Decorator: register ``fn`` as the runner for rule ``id``."""

    def decorate(fn: CheckerFn) -> CheckerFn:
        if any(c.id == id or c.name == name for c in CHECKERS):
            raise ValueError(f"checker {id}/{name} is already registered")
        CHECKERS.append(
            Checker(
                id=id,
                name=name,
                category=category,
                severity=severity,
                summary=summary,
                run=fn,
                profiles=profiles,
            )
        )
        return fn

    return decorate


def checker_ids() -> list[str]:
    """Registered rule ids in registration (catalogue) order."""
    return [c.id for c in CHECKERS]


def get_checker(key: str) -> Checker:
    """Resolve a rule id or name to its :class:`Checker`."""
    for checker in CHECKERS:
        if key in (checker.id, checker.name):
            return checker
    known = sorted({c.id for c in CHECKERS} | {c.name for c in CHECKERS})
    raise ValueError(f"unknown rule {key!r}; known rules: {known}")


def resolve_checkers(
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Checker]:
    """Resolve id/name selections against the registry (order-preserving)."""
    chosen = (
        list(CHECKERS)
        if select is None
        else [get_checker(key) for key in select]
    )
    if ignore:
        dropped = {get_checker(key).id for key in ignore}
        chosen = [checker for checker in chosen if checker.id not in dropped]
    chosen_ids = {checker.id for checker in chosen}
    return [checker for checker in CHECKERS if checker.id in chosen_ids]
