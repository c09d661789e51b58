"""Cache keys: request keys and content addressing.

The plan cache (:mod:`repro.serve.cache`) needs two identities:

* a **request key** — the byte-stable canonical form of *what was
  asked for*: :func:`request_key` of the registry's
  :class:`~repro.registry.PlanRequest`.  Requests are validated and
  canonicalized by :func:`repro.registry.canonical_request`, the one
  front door shared with :func:`repro.registry.plan`, so a bad request
  fails here with the same one-line error as there;
  :func:`request_from_mapping` feeds it the JSON wire form.

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
from typing import Any, Mapping

from repro import registry
from repro.registry import PlanRequest
from repro.schedule.ops import Schedule
from repro.schedule.serialize import CANONICAL_DUMPS, canonical_json

__all__ = [
    "request_from_mapping",
    "request_key",
    "request_key_hash",
    "plan_content",
    "content_hash",
    "build_plan",
]


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
    machine_doc = body.pop("machine", None)
    if machine_doc is not None:
        from repro.machine.model import machine_from_doc

        if not isinstance(machine_doc, Mapping):
            raise ValueError(
                f"'machine' must be a canonical machine doc, got "
                f"{machine_doc!r}"
            )
        body["machine"] = machine_from_doc(machine_doc)
    return registry.canonical_request(name, **body)


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

    Implicit requests are materialized: the service's product is a
    transportable serialized plan, and at equal parameters the
    materialized bytes are what content addressing deduplicates on.
    """
    built = registry.build(request)
    if not isinstance(built, Schedule):  # storage="implicit"
        built = built.materialize()
    return plan_content(built)
