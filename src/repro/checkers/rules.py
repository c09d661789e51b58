"""The codebase checkers (REPRO001, REPRO003-REPRO008).

Each rule is a pure function from :class:`~repro.checkers.context.FileContext`
to a list of :class:`~repro.checkers.registry.Finding` records, registered
in :data:`~repro.checkers.registry.CHECKERS`.  All rules walk the one
AST the context parsed; none import the module under analysis, so a
broken or heavyweight module is as cheap to check as a clean one.

Rule catalogue (profiles in :mod:`repro.checkers.profiles`):

========== ======== ============= ==========================================
id         severity targets       checks
========== ======== ============= ==========================================
REPRO001   error    hot           Python loop / SendOp materializer over sends
REPRO003   warning  everywhere    unbounded ``lru_cache`` / module-level
                                  mutable cache
REPRO004   error    everywhere    lock-guarded attribute mutated outside a
                                  ``with self._lock:`` block
REPRO005   error    keying        ``json.dumps`` without ``**CANONICAL_DUMPS``
REPRO006   error    keying        nondeterminism feeding content keys
REPRO007   error    everywhere    registered pass missing invariant
                                  declarations or implicit contract
REPRO008   warning  cli           ``raise`` without a message
========== ======== ============= ==========================================

REPRO002 (a dispatch-threshold ownership gate) was retired together
with the objects-vs-numpy dispatch policy; its id is not reused.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.checkers.context import FileContext
from repro.checkers.diagnostics import Severity
from repro.checkers.profiles import BANNED_CALLS
from repro.checkers.registry import Finding, register_checker

__all__ = ["CACHE_NAME_RE", "NONDETERMINISTIC_CALLS", "RAISE_ALLOWLIST"]


def _walk(tree: ast.AST) -> Iterator[ast.AST]:
    return ast.walk(tree)


# -- REPRO001: hot-loop-over-sends ---------------------------------------


def _is_sends_attr(node: ast.expr) -> bool:
    """True for any expression shaped ``<something>.sends``."""
    return isinstance(node, ast.Attribute) and node.attr == "sends"


_LOOP_MESSAGE = (
    "python loop over `.sends` in a hot module (use the columnar arrays)"
)


@register_checker(
    id="REPRO001",
    name="hot-loop-over-sends",
    category="performance",
    severity=Severity.ERROR,
    summary="no Python-level loops over sends in the vectorized hot path",
    profiles=("hot",),
)
def check_hot_loops(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []
    for node in _walk(ctx.tree):
        iterables: list[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterables.append(node.iter)
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            iterables.extend(gen.iter for gen in node.generators)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in BANNED_CALLS:
                findings.append(
                    Finding(
                        line=node.lineno,
                        message=(
                            f"call to `{func.attr}()` materializes SendOp "
                            "objects in a hot module (use the columnar "
                            "arrays)"
                        ),
                    )
                )
            continue
        for iterable in iterables:
            if _is_sends_attr(iterable):
                findings.append(
                    Finding(line=node.lineno, message=_LOOP_MESSAGE)
                )
    return findings


# -- REPRO003: unbounded caches ------------------------------------------

#: Module-level names matching this are treated as caches / memo tables.
CACHE_NAME_RE = re.compile(r"cache|memo", re.IGNORECASE)

_MUTABLE_FACTORIES = frozenset(
    {"dict", "set", "list", "OrderedDict", "defaultdict"}
)


def _decorator_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _lru_cache_finding(deco: ast.expr) -> str | None:
    """The complaint for an unbounded cache decorator, or ``None``."""
    name = _decorator_name(deco)
    if name == "cache":
        return (
            "functools.cache is unbounded; use "
            "lru_cache(maxsize=<bound>) so long-running services have a "
            "memory ceiling"
        )
    if name == "lru_cache":
        return (
            "bare @lru_cache caches with the implicit default; declare an "
            "explicit maxsize=<bound> so the ceiling is visible and "
            "reviewed"
        )
    if isinstance(deco, ast.Call):
        name = _decorator_name(deco.func)
        if name not in ("lru_cache", "cache"):
            return None
        for keyword in deco.keywords:
            if keyword.arg == "maxsize":
                if (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is None
                ):
                    return (
                        "lru_cache(maxsize=None) is unbounded; give it an "
                        "explicit capacity"
                    )
                return None
        if deco.args:
            first = deco.args[0]
            if isinstance(first, ast.Constant) and first.value is None:
                return (
                    "lru_cache(None) is unbounded; give it an explicit "
                    "capacity"
                )
            return None
        return (
            "lru_cache() caches with the implicit default; declare an "
            "explicit maxsize=<bound> so the ceiling is visible and "
            "reviewed"
        )
    return None


def _is_mutable_container(value: ast.expr) -> bool:
    if isinstance(
        value,
        (ast.Dict, ast.DictComp, ast.List, ast.ListComp, ast.Set, ast.SetComp),
    ):
        return True
    if isinstance(value, ast.Call):
        name = _decorator_name(value.func)
        return name in _MUTABLE_FACTORIES
    return False


@register_checker(
    id="REPRO003",
    name="unbounded-cache",
    category="resource",
    severity=Severity.WARNING,
    summary="every cache declares an explicit, reviewable capacity",
)
def check_unbounded_caches(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []
    for node in _walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                message = _lru_cache_finding(deco)
                if message is not None:
                    findings.append(
                        Finding(
                            line=deco.lineno,
                            message=message,
                            fixit="@lru_cache(maxsize=1024)",
                        )
                    )
    for stmt in ctx.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        if value is None or not _is_mutable_container(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and CACHE_NAME_RE.search(
                target.id
            ):
                findings.append(
                    Finding(
                        line=stmt.lineno,
                        message=(
                            f"module-level mutable cache `{target.id}` "
                            "grows without bound for the process lifetime; "
                            "use a bounded structure or an instance-owned "
                            "cache with a capacity"
                        ),
                    )
                )
    return findings


# -- REPRO004: lock-guarded mutation discipline --------------------------

_LOCK_FACTORIES = frozenset({"Lock", "RLock"})


def _self_attr(node: ast.expr) -> str | None:
    """``X`` when ``node`` is exactly ``self.X``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _lock_attr_names(cls: ast.ClassDef) -> set[str]:
    """Attributes assigned ``threading.Lock()`` / ``RLock()`` anywhere."""
    locks: set[str] = set()
    for node in _walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        if _decorator_name(value.func) not in _LOCK_FACTORIES:
            continue
        for target in node.targets:
            attr = _self_attr(target)
            if attr is not None:
                locks.add(attr)
    return locks


def _target_attrs(target: ast.expr) -> Iterator[str]:
    """Every ``self.X`` attribute written by an assignment target."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_attrs(element)
    elif isinstance(target, ast.Starred):
        yield from _target_attrs(target.value)
    else:
        attr = _self_attr(target)
        if attr is not None:
            yield attr


def _holds_lock(node: ast.stmt, locks: set[str]) -> bool:
    if not isinstance(node, (ast.With, ast.AsyncWith)):
        return False
    return any(
        _self_attr(item.context_expr) in locks for item in node.items
    )


def _mutations(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, locks: set[str]
) -> Iterator[tuple[int, str, bool]]:
    """Yield ``(line, attr, under_lock)`` for every ``self.X`` write."""

    def visit(node: ast.AST, under: bool) -> Iterator[tuple[int, str, bool]]:
        for child in ast.iter_child_nodes(node):
            child_under = under or (
                isinstance(child, ast.stmt) and _holds_lock(child, locks)
            )
            targets: list[ast.expr] = []
            if isinstance(child, ast.Assign):
                targets = child.targets
            elif isinstance(child, ast.AugAssign):
                targets = [child.target]
            elif isinstance(child, ast.AnnAssign):
                targets = [child.target] if child.value is not None else []
            for target in targets:
                for attr in _target_attrs(target):
                    yield child.lineno, attr, child_under
            yield from visit(child, child_under)

    yield from visit(fn, False)


@register_checker(
    id="REPRO004",
    name="lock-guarded-mutation",
    category="concurrency",
    severity=Severity.ERROR,
    summary="attributes mutated under a lock are never mutated without it",
)
def check_lock_discipline(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []
    for node in _walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        locks = _lock_attr_names(node)
        if not locks:
            continue
        methods = [
            stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name != "__init__"
        ]
        writes = [
            (method, line, attr, under)
            for method in methods
            for line, attr, under in _mutations(method, locks)
        ]
        guarded = {attr for _, _, attr, under in writes if under}
        lock_name = sorted(locks)[0]
        for method, line, attr, under in writes:
            if under or attr not in guarded:
                continue
            findings.append(
                Finding(
                    line=line,
                    message=(
                        f"`self.{attr}` is written under "
                        f"`with self.{lock_name}:` elsewhere in "
                        f"`{node.name}` but mutated in `{method.name}` "
                        "outside the lock"
                    ),
                    fixit=f"wrap the mutation in `with self.{lock_name}:`",
                )
            )
    return findings


# -- REPRO005: canonical JSON in keying modules --------------------------


def _json_dump_calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in _walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dumps", "dump")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
        ):
            yield node


def _passes_canonical_dumps(call: ast.Call) -> bool:
    for keyword in call.keywords:
        if keyword.arg is not None:
            continue
        value = keyword.value
        if isinstance(value, ast.Name) and value.id == "CANONICAL_DUMPS":
            return True
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "CANONICAL_DUMPS"
        ):
            return True
    return False


@register_checker(
    id="REPRO005",
    name="non-canonical-json",
    category="determinism",
    severity=Severity.ERROR,
    summary="serialization in keyed paths routes through CANONICAL_DUMPS",
    profiles=("keying",),
)
def check_canonical_json(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []
    for call in _json_dump_calls(ctx.tree):
        if not _passes_canonical_dumps(call):
            findings.append(
                Finding(
                    line=call.lineno,
                    message=(
                        "json serialization in a keying module without "
                        "**CANONICAL_DUMPS: byte order becomes "
                        "insertion-order-dependent, which silently forks "
                        "content hashes"
                    ),
                    fixit="json.dumps(obj, **CANONICAL_DUMPS)",
                )
            )
    return findings


# -- REPRO006: nondeterminism in content-key paths -----------------------

#: ``module.attr`` call pairs that can never feed a content key.
NONDETERMINISTIC_CALLS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("os", "urandom"),
        ("uuid", "uuid1"),
        ("uuid", "uuid4"),
    }
)

_NONDETERMINISTIC_MODULES = frozenset({"random", "secrets"})


@register_checker(
    id="REPRO006",
    name="nondeterministic-content-key",
    category="determinism",
    severity=Severity.ERROR,
    summary="content-addressed paths never consult clocks, RNGs or set order",
    profiles=("keying",),
)
def check_content_key_determinism(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []
    for node in _walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
        ):
            continue
        module, attr = func.value.id, func.attr
        if (module, attr) in NONDETERMINISTIC_CALLS or (
            module in _NONDETERMINISTIC_MODULES
        ):
            findings.append(
                Finding(
                    line=node.lineno,
                    message=(
                        f"`{module}.{attr}()` in a keying module: "
                        "content keys must be pure functions of the "
                        "request, never of clocks or randomness"
                    ),
                )
            )
    for call in _json_dump_calls(ctx.tree):
        children = list(call.args) + [kw.value for kw in call.keywords]
        for child in children:
            for sub in _walk(child):
                if isinstance(sub, (ast.Set, ast.SetComp)):
                    findings.append(
                        Finding(
                            line=sub.lineno,
                            message=(
                                "set iteration feeds serialized output: "
                                "set order is hash-seed-dependent, so the "
                                "emitted bytes (and any content hash over "
                                "them) are nondeterministic"
                            ),
                            fixit="sorted(...) before serializing",
                        )
                    )
    return findings


# -- REPRO007: pass invariant declarations -------------------------------

_REQUIRED_INVARIANTS = ("preserves_legality", "preserves_completion")


def _class_assigned_names(cls: ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            names.update(
                target.id
                for target in stmt.targets
                if isinstance(target, ast.Name)
            )
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
    return names


def _is_registered_pass(cls: ast.ClassDef) -> bool:
    return any(
        _decorator_name(deco) == "register_pass"
        for deco in cls.decorator_list
    )


@register_checker(
    id="REPRO007",
    name="pass-invariant-declaration",
    category="contract",
    severity=Severity.ERROR,
    summary="registered passes declare their invariants and implicit contract",
)
def check_pass_declarations(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []
    for node in _walk(ctx.tree):
        if not isinstance(node, ast.ClassDef) or not _is_registered_pass(node):
            continue
        assigned = _class_assigned_names(node)
        methods = {
            stmt.name
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for invariant in _REQUIRED_INVARIANTS:
            if invariant not in assigned:
                findings.append(
                    Finding(
                        line=node.lineno,
                        message=(
                            f"registered pass `{node.name}` does not "
                            f"declare `{invariant}` explicitly; the "
                            "PassManager verifies declared invariants, so "
                            "inherited defaults hide what was promised"
                        ),
                        fixit=(
                            f"{invariant}: ClassVar[bool] = True  "
                            "# (or False)"
                        ),
                    )
                )
        if "run_implicit" not in methods and "run_implicit" not in assigned:
            findings.append(
                Finding(
                    line=node.lineno,
                    message=(
                        f"registered pass `{node.name}` neither implements "
                        "`run_implicit` nor declares an explicit refusal; "
                        "implicit plans must be rewritten in O(1) or "
                        "refused loudly, never silently materialized"
                    ),
                    fixit=(
                        'run_implicit = refuse_implicit("<why this pass '
                        'needs the full send set>")'
                    ),
                )
            )
    return findings


# -- REPRO008: opaque raises on the CLI surface --------------------------

#: Exception classes that are idiomatically raised without a message.
RAISE_ALLOWLIST = frozenset(
    {
        "NotImplementedError",
        "KeyboardInterrupt",
        "StopIteration",
        "StopAsyncIteration",
    }
)


@register_checker(
    id="REPRO008",
    name="opaque-raise",
    category="diagnostics",
    severity=Severity.WARNING,
    summary="CLI-reachable raises carry a one-line actionable message",
    profiles=("cli",),
)
def check_opaque_raises(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []
    for node in _walk(ctx.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        name: str | None = None
        if isinstance(exc, ast.Name):
            name = exc.id
        elif (
            isinstance(exc, ast.Call)
            and not exc.args
            and not exc.keywords
        ):
            name = _decorator_name(exc.func)
        if name is None or name in RAISE_ALLOWLIST:
            continue
        findings.append(
            Finding(
                line=node.lineno,
                message=(
                    f"`raise {name}` without a message in a CLI-reachable "
                    "module; the convention is a one-line diagnostic the "
                    "CLI can surface as `repro: error: ...`"
                ),
                fixit=f'raise {name}("<what went wrong and what to do>")',
            )
        )
    return findings
