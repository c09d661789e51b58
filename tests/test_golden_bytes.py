"""Golden byte pins for every canonical writer.

The plan cache content-addresses ``plan_content`` and the exec layer
byte-compares ``ExecTrace.to_json()`` against the simulator, so any
drift in these bytes silently invalidates on-disk caches or changes
what a trace means.  The serve benchmark's own check compares the
service against ``plan_content`` itself and cannot see such a drift;
these digests can.  Each is one sha-256 over the concatenated outputs
(newline-separated) of a fixed request list.
"""

import hashlib

import pytest

from repro import registry
from repro.bench import serve_request_points
from repro.exec import execute
from repro.machine import heal_columns
from repro.machine.model import machine_from_spec
from repro.params import LogPParams
from repro.schedule.serialize import schedule_to_json
from repro.serve.keys import plan_content

LOGP = {"L": 6, "o": 2, "g": 4}
POSTAL = {"L": 3}
MASKED = "hier:6x6:12/1/2:2/0/1:dead=7+23"

# one request per kind of the run-mp workload, at fixed k, n and dead ranks
RUN_MP_REQUESTS = [
    ("broadcast", {"P": 48, **LOGP}),
    ("broadcast", {"P": 32, **POSTAL}),
    ("kitem", {"P": 16, **POSTAL, "k": 4}),
    ("continuous", {"P": 10, **POSTAL, "k": 4}),
    ("all-to-all", {"P": 12, **LOGP}),
    ("summation", {"P": 16, **LOGP, "n": 100}),
    ("allreduce", {"P": 20, **POSTAL}),
    ("reduction", {"P": 48, **LOGP}),
    ("hier-bcast", {"P": 40, **LOGP}),
    ("hier-reduce", {"P": 40, **LOGP}),
    ("hier-bcast", {"machine": MASKED}),
]

SERVE_DIGEST = "13c6fa53832f7cad9e400ef6c8f88c23ca0a380715fffe17e2542c68e2a0af64"
RUN_MP_PLAN_DIGEST = "234f9577d2e339c0bf99327681cf28b9e81446293fca13c8461a38d79989fd55"
RUN_MP_TRACE_DIGEST = "15f90858ddc95ba5759650d40f755b329ebda3ed8942b09d1ccc2b5111d70e36"


def digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def healed_plan():
    machine = machine_from_spec(MASKED)
    healed, _ = heal_columns(registry.plan("hier-bcast", machine=machine))
    return healed


def run_mp_plans():
    for name, kwargs in RUN_MP_REQUESTS:
        yield healed_plan() if "machine" in kwargs else registry.plan(name, **kwargs)


def serve_plans():
    for point in serve_request_points():
        extra = {
            k: v for k, v in point.items() if k not in ("collective", "P", "L", "o", "g")
        }
        params = LogPParams(
            P=point["P"], L=point["L"], o=point.get("o", 0), g=point.get("g", 1)
        )
        yield registry.plan(point["collective"], params, **extra)
    for name in ("hier-bcast", "hier-reduce"):
        yield registry.plan(name, P=40, **LOGP)
    yield healed_plan()


def test_serve_population_plan_content_is_pinned():
    assert len(serve_request_points()) == 2057
    assert digest(plan_content(s) for s in serve_plans()) == SERVE_DIGEST


def test_run_mp_canonical_schedule_json_is_pinned():
    texts = [schedule_to_json(s, canonical=True) for s in run_mp_plans()]
    assert digest(texts) == RUN_MP_PLAN_DIGEST


@pytest.mark.parametrize("transport", ["inproc", "mp"])
def test_run_mp_exec_traces_are_pinned(transport):
    texts = [
        execute(s, transport=transport, verify=True).trace.to_json()
        for s in run_mp_plans()
    ]
    assert digest(texts) == RUN_MP_TRACE_DIGEST
