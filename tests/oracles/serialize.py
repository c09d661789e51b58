"""``json.dumps`` oracles for the canonical writers.

The library writes canonical plan JSON
(:func:`repro.schedule.serialize.canonical_json`) and delivered traces
(:func:`repro.exec.trace.delivered_json`) as text, straight from the
interned item table.  The functions here build the JSON-ready payload
with one encoded item per send and hand it to
``json.dumps(**CANONICAL_DUMPS)`` — the definition those writers must
match byte for byte.
"""

from __future__ import annotations

import json
from typing import Any

from repro.params import LogPParams
from repro.schedule.ops import Schedule
from repro.schedule.serialize import CANONICAL_DUMPS, encode_item, schedule_payload


def canonical_json_dumps(schedule: Schedule, drop_time0_sources: bool = False) -> str:
    """Canonical schedule JSON through ``json.dumps`` of the payload."""
    payload = schedule_payload(schedule)
    if drop_time0_sources:
        payload["source_items"] = [
            entry for entry in payload["source_items"] if entry[1] != 0
        ]
    return json.dumps(payload, **CANONICAL_DUMPS)


def plan_content_dumps(schedule: Schedule) -> str:
    """The plan cache's content form (time-0 sources dropped)."""
    return canonical_json_dumps(schedule, drop_time0_sources=True)


def delivered_json_dumps(params: LogPParams, triples: list[Any]) -> str:
    """Canonical delivered-multiset JSON, one ``json.dumps`` per triple key."""

    def key(triple: Any) -> tuple[int, int, str]:
        src, dst, item = triple
        return (src, dst, json.dumps(encode_item(item), **CANONICAL_DUMPS))

    payload = {
        "format": "logp-exec-trace/1",
        "params": {"P": params.P, "L": params.L, "o": params.o, "g": params.g},
        "delivered": [
            [src, dst, encode_item(item)] for src, dst, item in sorted(triples, key=key)
        ],
    }
    return json.dumps(payload, **CANONICAL_DUMPS)
