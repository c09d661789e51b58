"""Tests for execution traces."""

import pytest

from repro import registry
from repro.core.single_item import optimal_broadcast_schedule
from repro.core.summation.schedule import summation_schedule
from repro.machine.model import machine_from_spec
from repro.params import LogPParams, postal
from repro.schedule.analysis import completion_time
from repro.sim.trace import Trace, trace_from_schedule

FIG1 = LogPParams(P=8, L=6, o=2, g=4)


class TestTraceStructure:
    def test_horizon(self):
        trace = trace_from_schedule(optimal_broadcast_schedule(FIG1))
        assert trace.horizon() == 24  # last receive overhead ends at B

    def test_send_and_recv_intervals(self):
        trace = trace_from_schedule(optimal_broadcast_schedule(FIG1))
        root = trace.activities[0]
        sends = [a for a in root if a.kind == "send"]
        assert [a.start for a in sends] == [0, 4, 8, 12]
        assert all(a.end - a.start == 2 for a in sends)  # o = 2

    def test_postal_unit_width(self):
        trace = trace_from_schedule(optimal_broadcast_schedule(postal(P=4, L=2)))
        for acts in trace.activities.values():
            assert all(a.end - a.start == 1 for a in acts)

    def test_busy_cycles_and_utilization(self):
        trace = trace_from_schedule(optimal_broadcast_schedule(FIG1))
        assert trace.busy_cycles(0) == 8  # four sends, 2 cycles each
        assert 0 < trace.utilization(0) <= 1

    def test_compute_activities(self):
        plan = summation_schedule(28, LogPParams(P=8, L=5, o=2, g=4))
        trace = trace_from_schedule(plan.to_schedule())
        computes = [
            a for acts in trace.activities.values() for a in acts if a.kind == "compute"
        ]
        assert computes, "summation trace must show computation"

    def test_activities_sorted(self):
        trace = trace_from_schedule(optimal_broadcast_schedule(FIG1))
        for acts in trace.activities.values():
            assert acts == sorted(acts)

    def test_empty_trace(self):
        t = Trace(params=postal(P=1, L=1))
        assert t.horizon() == 0
        assert t.utilization(0) == 0.0


HIER_CASES = [
    ("hier-bcast", dict(P=40, L=6, o=2, g=4), 28),
    ("hier-reduce", dict(P=40, L=6, o=2, g=4), 28),
    (
        "hier-bcast",
        dict(
            machine=machine_from_spec(
                "hier:2x4:12/1/2:2/0/1", LogPParams(P=8, L=12, o=1, g=2)
            )
        ),
        19,
    ),
]


class TestMachinePricedTrace:
    """Activities are priced per edge level, as the legality kernel prices them."""

    @pytest.mark.parametrize(
        "name, kwargs, horizon",
        HIER_CASES,
        ids=["hier-bcast-P40", "hier-reduce-P40", "hier-bcast-2x4"],
    )
    def test_intervals_follow_edge_pricing(self, name, kwargs, horizon):
        schedule = registry.plan(name, **kwargs)
        cols = schedule.columns()
        levels = schedule.machine.edge_levels_np(cols.srcs, cols.dsts)
        overheads = [schedule.machine.levels[lv].o for lv in levels.tolist()]
        want = sorted(
            (dst, src, arrival - o_e)
            for src, dst, arrival, o_e in zip(
                cols.srcs.tolist(),
                cols.dsts.tolist(),
                cols.arrivals.tolist(),
                overheads,
            )
        )
        trace = trace_from_schedule(schedule)
        got = sorted(
            (a.proc, a.peer, a.start)
            for acts in trace.activities.values()
            for a in acts
            if a.kind == "recv"
        )
        assert got == want
        done = completion_time(schedule)
        assert all(
            a.end <= done + 1 for acts in trace.activities.values() for a in acts
        )
        assert trace.horizon() == horizon
