"""Tests for schedule analysis (availability, completion, delays)."""

import pytest

from repro.params import LogPParams, postal
from repro.schedule.analysis import (
    availability,
    broadcast_delay_per_proc,
    completion_time,
    item_completion_times,
    item_delays,
    max_delay,
)
from repro.schedule.ops import Schedule, SendOp


def make_chain(P: int, L: int) -> Schedule:
    return Schedule(
        params=postal(P=P, L=L),
        sends=[
            SendOp(time=(i - 1) * L, src=i - 1, dst=i, item=0) for i in range(1, P)
        ],
    )


class TestAvailability:
    def test_initial_at_zero(self):
        s = Schedule(params=postal(P=2, L=3))
        assert availability(s)[(0, 0)] == 0

    def test_chain_arrivals(self):
        s = make_chain(4, 3)
        av = availability(s)
        assert av[(1, 0)] == 3 and av[(2, 0)] == 6 and av[(3, 0)] == 9

    def test_earliest_arrival_wins(self):
        s = Schedule(
            params=postal(P=3, L=2),
            sends=[
                SendOp(time=0, src=0, dst=2, item=0),
                SendOp(time=5, src=0, dst=2, item=0),
            ],
        )
        assert availability(s)[(2, 0)] == 2

    def test_source_item_creation_time(self):
        s = Schedule(params=postal(P=2, L=1), source_items={0: 4})
        assert availability(s)[(0, 0)] == 4

    def test_overhead_included(self):
        p = LogPParams(P=2, L=6, o=2, g=4)
        s = Schedule(params=p, sends=[SendOp(time=0, src=0, dst=1, item=0)])
        assert availability(s)[(1, 0)] == 10  # L + 2o


class TestCompletion:
    def test_empty(self):
        assert completion_time(Schedule(params=postal(P=2, L=1))) == 0

    def test_chain(self):
        assert completion_time(make_chain(5, 2)) == 8

    def test_item_completion_requires_all_procs(self):
        s = Schedule(
            params=postal(P=3, L=1),
            sends=[SendOp(time=0, src=0, dst=1, item=0)],
        )
        with pytest.raises(ValueError):
            item_completion_times(s, procs={0, 1, 2})
        assert item_completion_times(s, procs={0, 1}) == {0: 1}


class TestDelays:
    def test_delay_subtracts_creation(self):
        s = Schedule(
            params=postal(P=2, L=3),
            initial={0: {0, 1}},
            source_items={0: 0, 1: 5},
            sends=[
                SendOp(time=0, src=0, dst=1, item=0),
                SendOp(time=5, src=0, dst=1, item=1),
            ],
        )
        d = item_delays(s, procs={1})
        assert d == {0: 3, 1: 3}
        assert max_delay(s, procs={1}) == 3

    def test_broadcast_delay_per_proc(self):
        s = make_chain(3, 4)
        d = broadcast_delay_per_proc(s)
        assert d == {0: 0, 1: 4, 2: 8}
