"""Replay regression over the recorded reactive-machine corpus.

``tests/data/machine_corpus.json`` holds schedules realized by the
earliest-available reactive interpreter the library once shipped
(flood, greedy relay, ring, multi-sender and all-to-all programs at
nonzero overhead, postal and ``g > 1`` regimes).  Each is rebuilt from
its recorded ``sends``/``initial`` and must replay cleanly on the
strict validator; the broadcast cases must also respect the paper's
optimal time ``B(P)``.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.core.fib import broadcast_time
from repro.params import LogPParams
from repro.schedule.analysis import broadcast_delay_per_proc
from repro.schedule.ops import Schedule, SendOp
from repro.sim.validate import replay

CORPUS = Path(__file__).parent / "data" / "machine_corpus.json"


def _load_corpus():
    return json.loads(CORPUS.read_text())


def _rebuild(case) -> Schedule:
    """The recorded schedule, item reprs parsed back to items."""
    return Schedule(
        params=LogPParams(*case["params"]),
        sends=[
            SendOp(time=t, src=src, dst=dst, item=ast.literal_eval(item))
            for t, src, dst, item in case["sends"]
        ],
        initial={
            int(p): {ast.literal_eval(item) for item in items}
            for p, items in case["initial"].items()
        },
    )


@pytest.mark.parametrize("case", _load_corpus(), ids=lambda c: c["name"])
def test_corpus_reproduced_byte_identically(case):
    schedule = _rebuild(case)
    got = [[op.time, op.src, op.dst, repr(op.item)] for op in schedule.sends]
    assert got == case["sends"]
    got_initial = {
        str(p): sorted(map(repr, items)) for p, items in schedule.initial.items()
    }
    assert got_initial == case["initial"]
    replay(schedule)  # every corpus schedule is strictly legal
    if case["name"].startswith(("flood", "greedy")):
        # B(P) is optimal: no reactive broadcast finishes sooner
        params = schedule.params
        delays = broadcast_delay_per_proc(schedule)
        assert set(delays) == set(range(params.P))
        assert max(delays.values()) >= broadcast_time(params.P, params)


def test_corpus_covers_the_interesting_regimes():
    names = [c["name"] for c in _load_corpus()]
    assert len(names) == 8
    assert any("o2" in n for n in names)  # nonzero overhead
    assert any("postal" in n for n in names)  # o=0 postal regime
    assert any("g3" in n for n in names)  # send gap g > 1
