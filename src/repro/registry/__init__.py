"""Unified collective registry and planner.

One lookup table for every collective the repo builds, and one front
door to build them::

    from repro.registry import plan

    sched = plan("broadcast", P=8, L=6, o=2, g=4)
    sched = plan("kitem", P=10, L=3, k=8)
    sched = plan("summation", P=8, L=5, o=2, g=4, n=79)

Every request goes through the same two steps.
:func:`canonical_request` resolves the collective by canonical name or
alias, validates the machine and the collective-specific parameters
against the spec's declared domain (uniform one-line, spec-prefixed
``ValueError``\\ s instead of builder-specific crashes) and returns a
hashable :class:`PlanRequest`; :func:`build` runs the spec's builder on
it.  :func:`plan` is the two composed, :func:`lower_bound` validates
through the same door, and the plan service (:mod:`repro.serve`) keys
and builds the same :class:`PlanRequest`, so every surface rejects a
bad request with the same line.

The same records drive the CLI's builder tables, the bench harness, the
figure scripts and SCHED008's closed-form optimality bounds
(:func:`closed_form_bound`), so a new collective added to
:mod:`repro.registry.specs` shows up everywhere at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.params import LogPParams
from repro.registry.spec import BoundQuery, CollectiveSpec, ParamField
from repro.registry.specs import SPECS
from repro.schedule.ops import Schedule

if TYPE_CHECKING:
    from repro.schedule.implicit import ImplicitSchedule

__all__ = [
    "BoundQuery",
    "CollectiveSpec",
    "ParamField",
    "SPECS",
    "specs",
    "spec_names",
    "all_names",
    "get_spec",
    "PlanRequest",
    "canonical_request",
    "build",
    "plan",
    "lower_bound",
    "closed_form_bound",
    "completion",
    "figure_builders",
]

MATERIALIZED = "materialized"
IMPLICIT = "implicit"

_BY_NAME: dict[str, CollectiveSpec] = {}
for _spec in SPECS:
    for _name in _spec.all_names():
        if _name in _BY_NAME:
            raise RuntimeError(f"duplicate collective name: {_name}")
        _BY_NAME[_name] = _spec
del _spec, _name


def specs() -> tuple[CollectiveSpec, ...]:
    """All registered collective specs, in registration order."""
    return SPECS


def spec_names() -> tuple[str, ...]:
    """Canonical names of all registered collectives."""
    return tuple(s.name for s in SPECS)


def all_names() -> tuple[str, ...]:
    """Every accepted collective name, canonical names first."""
    return tuple(s.name for s in SPECS) + tuple(
        a for s in SPECS for a in s.aliases
    )


def get_spec(name: str) -> CollectiveSpec:
    """Resolve a canonical name or alias to its spec.

    Raises a one-line ``ValueError`` naming the known collectives for
    anything unknown.
    """
    spec = _BY_NAME.get(name)
    if spec is None:
        known = ", ".join(s.name for s in SPECS)
        raise ValueError(f"unknown collective {name!r} (known: {known})")
    return spec


@dataclass(frozen=True)
class PlanRequest:
    """A fully canonicalized plan request — hashable, alias-free.

    ``extra`` is the spec-validated collective parameter dict as a
    sorted tuple of pairs; ``family`` is only set for implicit storage
    (defaulted to the builder's default so ``family=None`` and the
    explicit default produce the same key).
    """

    collective: str
    params: LogPParams
    extra: tuple[tuple[str, int], ...] = ()
    storage: str = MATERIALIZED
    family: str | None = None
    #: Optional machine topology (a frozen
    #: ``repro.machine.model.MachineModel``).  ``None`` means the classic
    #: flat machine; its canonical doc joins the serve layer's request
    #: key, so equal flat params with different topologies never collide.
    machine: Any | None = None


def canonical_request(
    name: str,
    params: LogPParams | None = None,
    *,
    storage: str = MATERIALIZED,
    family: str | None = None,
    machine: Any | None = None,
    **kwargs: Any,
) -> PlanRequest:
    """Validate and canonicalize a plan request (the surface of :func:`plan`).

    Machine parameters come either as ``params=LogPParams(...)`` or as
    the keywords ``P``/``L``/``o``/``g`` (postal defaults ``o=0, g=1``).
    ``machine=`` names the full topology (a
    :class:`~repro.machine.model.MachineModel`): when given, ``params``
    defaults to ``machine.flat_params`` (and must equal it if passed
    explicitly).  Machine-aware collectives (``hier-bcast``,
    ``hier-reduce``) receive the topology and attach it to the built
    schedule, switching validation/lint/exec to per-edge pricing; other
    collectives accept a :class:`~repro.machine.model.FlatMachine`
    (identical semantics, ignored) and reject anything else.
    Collective-specific parameters (``k``, ``n``, ``t``) are validated
    against the spec's declared domain and normalized (summation carries
    both ``n`` and ``t``).

    ``storage="implicit"`` asks for an O(log P)-state
    :class:`~repro.schedule.implicit.ImplicitSchedule`, for specs with a
    closed-form builder (broadcast and reduction); ``family=`` selects
    the tree family (``"optimal"``, the default, or ``"binomial"``).

    This is the only request validator: anything out of domain raises a
    one-line ``ValueError`` prefixed with the canonical spec name.
    """
    spec = get_spec(name)
    if machine is not None:
        if not spec.machine_aware and not machine.is_flat:
            aware = ", ".join(s.name for s in SPECS if s.machine_aware)
            raise ValueError(
                f"{spec.name}: does not accept a machine topology "
                f"(machine-aware collectives: {aware})"
            )
        if storage == IMPLICIT:
            raise ValueError(
                f"{spec.name}: machine= does not apply to "
                f"storage='implicit' (per-edge pricing needs materialized "
                f"columns)"
            )
        if params is None:
            params = machine.flat_params
        elif params != machine.flat_params:
            raise ValueError(
                f"{spec.name}: params {params} conflict with the machine's "
                f"flat envelope {machine.flat_params}"
            )
    if params is None:
        P = kwargs.pop("P", None)
        if P is None:
            raise ValueError(
                f"{spec.name}: machine parameters missing — pass "
                f"params=LogPParams(...) or at least P= and L="
            )
        L = kwargs.pop("L", None)
        if L is None:
            raise ValueError(f"{spec.name}: L= is required when P= is given")
        params = LogPParams(
            P=P, L=L, o=kwargs.pop("o", 0), g=kwargs.pop("g", 1)
        )
    elif "P" in kwargs or "L" in kwargs:
        raise ValueError(
            f"{spec.name}: give either params=LogPParams(...) or "
            f"P=/L= keywords, not both"
        )
    if storage not in (MATERIALIZED, IMPLICIT):
        raise ValueError(
            f"{spec.name}: storage must be {MATERIALIZED!r} or "
            f"{IMPLICIT!r}, got {storage!r}"
        )
    if storage == IMPLICIT:
        if spec.implicit_build is None:
            supported = ", ".join(
                s.name for s in SPECS if s.implicit_build is not None
            )
            raise ValueError(
                f"{spec.name}: no implicit builder "
                f"(storage='implicit' is supported by: {supported})"
            )
        if family is None:
            family = "optimal"
        else:
            from repro.schedule.implicit import implicit_families

            if family not in implicit_families():
                known = ", ".join(implicit_families())
                raise ValueError(
                    f"{spec.name}: unknown implicit family {family!r} "
                    f"(known: {known})"
                )
    elif family is not None:
        raise ValueError(
            f"{spec.name}: family= only applies to storage='implicit'"
        )
    if spec.check_machine is not None:
        spec.check_machine(params)
    extra = spec.validate_extra(params, kwargs)
    return PlanRequest(
        collective=spec.name,
        params=params,
        extra=tuple(sorted(extra.items())),
        storage=storage,
        family=family,
        machine=machine,
    )


def build(request: PlanRequest) -> Schedule | ImplicitSchedule:
    """Run the spec's builder on an already canonical request.

    The only caller of ``spec.build`` and ``spec.implicit_build``:
    ``request.extra`` is validated *and normalized* by
    :func:`canonical_request`, so nothing is checked again here.
    """
    spec = _BY_NAME[request.collective]
    extra = dict(request.extra)
    if request.storage == IMPLICIT:
        assert spec.implicit_build is not None  # canonical_request checked
        return spec.implicit_build(request.params, family=request.family, **extra)
    if spec.machine_aware:
        # machines travel outside the int-only extra_params validation
        extra["machine"] = request.machine
    return spec.build(request.params, **extra)


def plan(
    name: str, params: LogPParams | None = None, **kwargs: Any
) -> Schedule | ImplicitSchedule:
    """Build the named collective's schedule.

    ``build(canonical_request(name, params, **kwargs))``: see
    :func:`canonical_request` for the accepted keywords.  To cache the
    plan, ask a :class:`~repro.serve.PlanService` instead; to run it,
    hand the schedule to :func:`repro.exec.execute` with ``verify=True``.
    """
    return build(canonical_request(name, params, **kwargs))


def lower_bound(
    name: str, params: LogPParams, **kwargs: Any
) -> int | None:
    """The spec's closed-form lower bound for this instance, if any."""
    request = canonical_request(name, params, **kwargs)
    spec = _BY_NAME[request.collective]
    if spec.lower_bound is None:
        return None
    return spec.lower_bound(request.params, **dict(request.extra))


def closed_form_bound(query: BoundQuery) -> tuple[int, str] | None:
    """Answer a lint-engine bound query from the spec owning the workload.

    Returns ``(bound, kind)`` — the closed-form optimal completion time
    and a human-readable tag naming the theorem — or ``None`` when no
    registered collective has a closed form for the query's workload.
    """
    for spec in SPECS:
        if spec.workload == query.workload and spec.lint_bound is not None:
            return spec.lint_bound(query)
    return None


def completion(schedule: Schedule) -> int:
    """Cycle at which the schedule finishes: last payload arrival or the
    end of the last local computation, whichever is later."""
    from repro.schedule.analysis import completion_time

    done = completion_time(schedule)
    for op in schedule.computes:
        done = max(done, op.time + op.duration)
    return done


def figure_builders() -> dict[str, Any]:
    """Map figure key -> zero-argument figure builder, from the specs.

    Lazily imports :mod:`repro.experiments.figures` so the registry has
    no matplotlib-adjacent import cost on the hot paths.
    """
    from repro.experiments import figures as fig_mod

    out: dict[str, Any] = {}
    for spec in SPECS:
        for key, attr in spec.figures:
            out[key] = getattr(fig_mod, attr)
    return out
