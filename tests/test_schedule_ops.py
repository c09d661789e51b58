"""Tests for the schedule IR."""

import pytest

from repro.params import LogPParams, postal
from repro.schedule.ops import ComputeOp, Schedule, SendOp
from tests.oracles.validate import receives_by_proc, sends_by_proc


class TestSendOp:
    def test_arrival_postal(self):
        op = SendOp(time=5, src=0, dst=1, item=0)
        assert op.arrival(postal(P=2, L=3)) == 8

    def test_arrival_with_overhead(self):
        op = SendOp(time=0, src=0, dst=1)
        p = LogPParams(P=2, L=6, o=2, g=4)
        assert op.receive_start(p) == 8  # o + L after send start
        assert op.arrival(p) == 10  # L + 2o

    def test_ordering_chronological(self):
        ops = [SendOp(time=3, src=0, dst=1), SendOp(time=1, src=2, dst=0), SendOp(time=1, src=0, dst=2)]
        s = sorted(ops)
        assert [o.time for o in s] == [1, 1, 3]
        assert s[0].src == 0  # ties broken by src

    def test_frozen(self):
        op = SendOp(time=0, src=0, dst=1)
        with pytest.raises(AttributeError):
            op.time = 5


class TestSchedule:
    def test_default_initial(self):
        s = Schedule(params=postal(P=2, L=1))
        assert s.initial == {0: {0}}

    def test_empty_initial_stays_empty(self):
        # only None means the default placement; {} holds nothing
        s = Schedule(params=postal(P=2, L=1), initial={})
        assert s.initial == {}

    def test_add_and_iter(self):
        s = Schedule(
            params=postal(P=3, L=1),
            sends=[SendOp(2, 0, 1, item=0), SendOp(0, 0, 2, item=0)],
        )
        assert [op.time for op in s] == [0, 2]
        assert len(s) == 2

    def test_sends_by_proc_sorted(self):
        s = Schedule(
            params=postal(P=3, L=2),
            sends=[SendOp(4, 0, 1), SendOp(0, 0, 2), SendOp(1, 1, 2)],
        )
        by = sends_by_proc(s)
        assert [op.time for op in by[0]] == [0, 4]
        assert [op.time for op in by[1]] == [1]

    def test_receives_by_proc_ordered_by_arrival(self):
        s = Schedule(params=postal(P=3, L=5), sends=[SendOp(3, 0, 2), SendOp(0, 1, 2)])
        by = receives_by_proc(s)
        assert [op.src for op in by[2]] == [1, 0]

    def test_items_and_processors(self):
        s = Schedule(
            params=postal(P=4, L=1),
            initial={0: {"a", "b"}},
            sends=[SendOp(0, 0, 3, item="a")],
        )
        assert s.items() == {"a", "b"}
        assert s.processors() == {0, 3}

    def test_item_creation_time(self):
        s = Schedule(params=postal(P=2, L=1), source_items={7: 3})
        assert s.item_creation_time(7) == 3
        assert s.item_creation_time(0) == 0

    def test_extend(self):
        # a schedule is built once: there is no extend, and the sends
        # given to the constructor are kept as a tuple
        rows = [SendOp(time=0, src=0, dst=1), SendOp(time=1, src=0, dst=2)]
        s = Schedule(params=postal(P=3, L=1), sends=rows)
        assert s.sends == tuple(rows)
        with pytest.raises(AttributeError):
            s.extend([SendOp(time=2, src=0, dst=1)])
        assert len(s) == 2


class TestComputeOp:
    def test_fields(self):
        c = ComputeOp(time=3, proc=1, result=("acc", 1), operands=(("x", 0),))
        assert c.duration == 1
        assert c.operands == (("x", 0),)

    def test_ordering(self):
        a = ComputeOp(time=1, proc=0)
        b = ComputeOp(time=0, proc=5)
        assert sorted([a, b])[0] is b
