"""Cache keys: canonical plan requests and content addressing.

The plan cache (:mod:`repro.serve.cache`) needs two identities:

* a **request key** — the byte-stable canonical form of *what was
  asked for*.  :func:`canonical_request` resolves collective aliases
  through the registry's :class:`~repro.registry.spec.CollectiveSpec`,
  validates and normalizes the per-collective extras against the spec's
  declared domain (so ``plan_many`` requests fail with the same one-line
  errors as :func:`repro.registry.plan`), and defaults ``family`` for
  implicit storage.

* a **content hash** — sha-256 of the plan's canonical serialized form
  (:func:`plan_content`).  Distinct requests that produce byte-identical
  plans (e.g. ``storage="columnar"`` vs ``storage="implicit"`` at small
  ``P``, where the universal tree and its closed-form twin emit the same
  sends) deduplicate onto one stored blob.  The canonical form drops
  ``source_items`` entries at time 0 — :meth:`Schedule.creation_time
  <repro.schedule.ops.Schedule.creation_time>` defaults to 0, so such
  entries are semantically redundant and only differ between builders
  that record the root item's creation explicitly and those that do not.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro import registry
from repro.params import LogPParams
from repro.schedule.ops import Schedule
from repro.schedule.serialize import CANONICAL_DUMPS, canonical_json

__all__ = [
    "PlanRequest",
    "canonical_request",
    "request_from_mapping",
    "request_key",
    "request_key_hash",
    "plan_content",
    "content_hash",
    "build_plan",
]

MATERIALIZED = "materialized"
IMPLICIT = "implicit"


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
    #: flat machine; its canonical doc joins the request key, so equal
    #: flat params with different topologies never collide.
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
    """Canonicalize a plan request (same surface as :func:`registry.plan`).

    Machine parameters come as ``params=LogPParams(...)`` or as
    ``P``/``L``/``o``/``g`` keywords; everything else is validated
    against the collective's spec.  Raises one-line ``ValueError``\\ s
    identical in spirit to the registry's for anything out of domain.
    """
    spec = registry.get_spec(name)
    if machine is not None:
        if not spec.machine_aware and not machine.is_flat:
            aware = ", ".join(
                s.name for s in registry.specs() if s.machine_aware
            )
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
        L = kwargs.pop("L", None)
        if P is None or L is None:
            raise ValueError(
                f"{spec.name}: machine parameters missing — pass "
                f"params=LogPParams(...) or at least P= and L="
            )
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
                s.name for s in registry.specs() if s.implicit_build is not None
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


def request_from_mapping(doc: Mapping[str, Any]) -> PlanRequest:
    """Canonicalize a JSON-shaped request document (the HTTP wire form).

    Expected keys: ``collective`` (required), ``P``/``L``/``o``/``g``,
    optional ``storage``/``family``, plus the collective's extras
    (``k``/``n``/``t``).  Unknown keys are rejected by the spec's domain
    validation.
    """
    body = dict(doc)
    name = body.pop("collective", None)
    if not isinstance(name, str):
        raise ValueError("request must name a 'collective'")
    storage = body.pop("storage", MATERIALIZED)
    family = body.pop("family", None)
    machine_doc = body.pop("machine", None)
    machine = None
    if machine_doc is not None:
        from repro.machine.model import machine_from_doc

        if not isinstance(machine_doc, Mapping):
            raise ValueError(
                f"'machine' must be a canonical machine doc, got "
                f"{machine_doc!r}"
            )
        machine = machine_from_doc(machine_doc)
    return canonical_request(
        name, storage=storage, family=family, machine=machine, **body
    )


def request_key(request: PlanRequest) -> str:
    """The byte-stable canonical key string for a request."""
    doc = {
        "collective": request.collective,
        "params": [
            request.params.P,
            request.params.L,
            request.params.o,
            request.params.g,
        ],
        "extra": dict(request.extra),
        "storage": request.storage,
        "family": request.family,
    }
    if request.machine is not None:
        # only present for machine-attached requests, so every existing
        # flat key (and its on-disk index hash) stays byte-identical
        doc["machine"] = request.machine.canonical_doc()
    return json.dumps(doc, **CANONICAL_DUMPS)


def request_key_hash(request: PlanRequest) -> str:
    """sha-256 of the canonical key (the on-disk index filename)."""
    return hashlib.sha256(request_key(request).encode()).hexdigest()


def plan_content(schedule: Schedule) -> str:
    """The plan's canonical content: the cached (and served) byte form.

    The schedule's canonical JSON
    (:func:`repro.schedule.serialize.canonical_json`) with semantically
    redundant time-0 ``source_items`` entries dropped (creation time
    defaults to 0), so builders that record the root item's creation
    explicitly and builders that do not hash to the same content
    address.
    """
    return canonical_json(schedule, drop_time0_sources=True)


def content_hash(content: str) -> str:
    """sha-256 of a plan's canonical content (its blob address)."""
    return hashlib.sha256(content.encode()).hexdigest()


def build_plan(request: PlanRequest) -> str:
    """Plan the request from scratch and return its canonical content.

    Calls the spec's builder directly: ``request.extra`` is already
    validated *and normalized* (e.g. summation carries both ``n`` and
    ``t`` after canonicalization, which the registry front door would
    reject as over-specified).

    Implicit requests are materialized: the service's product is a
    transportable serialized plan, and at equal parameters the
    materialized bytes are what content addressing deduplicates on.
    """
    spec = registry.get_spec(request.collective)
    extra = dict(request.extra)
    if request.storage == IMPLICIT:
        assert spec.implicit_build is not None  # canonical_request checked
        implicit = spec.implicit_build(
            request.params, family=request.family, **extra
        )
        return plan_content(implicit.materialize())
    if spec.machine_aware:
        extra["machine"] = request.machine
    built: Schedule = spec.build(request.params, **extra)
    return plan_content(built)
