"""The check engine: expand paths, parse once, run every applicable rule.

Execution model (mirrors :mod:`repro.analyze.engine` one tier up):

1. ``--select``/``--ignore`` spellings resolve against the registry
   up front — unknown rules are a usage error, not a silent no-op.
2. Each file is read and parsed exactly once into a
   :class:`~repro.checkers.context.FileContext`; every rule whose
   profile predicate matches walks that same tree.
3. Raw :class:`~repro.checkers.registry.Finding` records are stamped
   with rule id, severity and display path, then filtered through the
   file's same-line suppressions.  A suppression that names a rule
   which ran on the file but matched nothing becomes a
   :data:`~repro.checkers.diagnostics.UNUSED_SUPPRESSION` warning —
   stale suppressions are how regressions sneak back in.

Diagnostics are sorted by ``(path, line, rule)`` so output is
byte-stable across dict-ordering and registration-order changes.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Iterable, Sequence

from repro.checkers.context import FileContext
from repro.checkers.diagnostics import (
    UNUSED_SUPPRESSION,
    CheckDiagnostic,
    CheckReport,
    Severity,
)
from repro.checkers.registry import Checker, resolve_checkers

import repro.checkers.rules  # noqa: F401  (registers the REPRO rules)

__all__ = ["expand_paths", "check_context", "check_paths"]


def expand_paths(paths: Sequence[str | Path]) -> list[Path]:
    """Explicit files plus every ``*.py`` under listed directories.

    Directories expand via sorted ``rglob`` so run order (and therefore
    rendered output) is independent of filesystem enumeration order.
    Missing paths raise ``ValueError`` — matching the old hot-loop
    linter, a misspelled target is a usage error, never a clean pass.
    """
    out: list[Path] = []
    missing: list[str] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            out.append(path)
        else:
            missing.append(str(raw))
    if missing:
        raise ValueError(f"missing files: {', '.join(missing)}")
    seen: set[str] = set()
    unique: list[Path] = []
    for path in out:
        key = path.resolve().as_posix()
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def check_context(
    ctx: FileContext, checkers: Sequence[Checker]
) -> tuple[list[CheckDiagnostic], list[str]]:
    """Run ``checkers`` over one parsed file.

    Returns ``(diagnostics, ran)`` where ``ran`` lists the rule ids
    whose profile predicate matched this file (whether or not they
    found anything) — the denominator the unused-suppression pass and
    the report's ``rules_run`` bookkeeping both need.
    """
    applicable = [c for c in checkers if c.applies(ctx.profiles)]
    ran = [c.id for c in applicable]
    diagnostics: list[CheckDiagnostic] = []
    used: set[tuple[int, str]] = set()
    for checker in applicable:
        for finding in checker.run(ctx):
            if checker.id in ctx.suppressions.get(finding.line, set()):
                used.add((finding.line, checker.id))
                continue
            diagnostics.append(
                CheckDiagnostic(
                    rule=checker.id,
                    severity=checker.severity,
                    path=ctx.path,
                    line=finding.line,
                    message=finding.message,
                    fixit=finding.fixit,
                )
            )
    ran_ids = set(ran)
    for line, rules in sorted(ctx.suppressions.items()):
        for rule in sorted(rules):
            if rule not in ran_ids or (line, rule) in used:
                continue
            diagnostics.append(
                CheckDiagnostic(
                    rule=UNUSED_SUPPRESSION,
                    severity=Severity.WARNING,
                    path=ctx.path,
                    line=line,
                    message=(
                        f"unused suppression: {rule} ran on this file but "
                        "matched nothing on this line (remove the stale "
                        "`# repro: ignore[...]`)"
                    ),
                )
            )
    return diagnostics, ran


def check_paths(
    paths: Sequence[str | Path],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    display_root: str | Path | None = None,
) -> CheckReport:
    """Check files/directories and aggregate one :class:`CheckReport`.

    ``display_root`` rewrites diagnostic paths relative to a root (the
    corpus tests pin output rendered relative to the corpus directory,
    so the pins survive checkout relocation).  Unknown rules, missing
    paths and unparseable files raise ``ValueError`` with a one-line
    message the CLI turns into a usage error.
    """
    checkers = resolve_checkers(select, ignore)
    files = expand_paths(paths)
    root = Path(display_root).resolve() if display_root is not None else None
    started = time.perf_counter()
    diagnostics: list[CheckDiagnostic] = []
    rules_run: list[str] = []
    seen_rules: set[str] = set()
    for path in files:
        display: str | None = None
        if root is not None:
            try:
                display = path.resolve().relative_to(root).as_posix()
            except ValueError:
                display = path.as_posix()
        ctx = FileContext.load(path, display=display)
        file_diags, ran = check_context(ctx, checkers)
        diagnostics.extend(file_diags)
        for rule in ran:
            if rule not in seen_rules:
                seen_rules.add(rule)
                rules_run.append(rule)
    diagnostics.sort(key=lambda d: (d.path, d.line, d.rule))
    totals: dict[str, int] = {}
    for diagnostic in diagnostics:
        totals[diagnostic.rule] = totals.get(diagnostic.rule, 0) + 1
    return CheckReport(
        diagnostics=diagnostics,
        rules_run=sorted(rules_run),
        rule_totals=totals,
        files_checked=len(files),
        elapsed_s=time.perf_counter() - started,
    )
