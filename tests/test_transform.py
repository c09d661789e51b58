"""Tests for schedule transformations (legality-preserving algebra)."""

import pytest

from repro.core.fib import broadcast_time
from repro.core.single_item import optimal_broadcast_schedule
from repro.params import LogPParams, postal
from repro.schedule.analysis import availability, broadcast_delay_per_proc, completion_time
from repro.schedule.transform import concat, remap, restrict, reverse, shift
from repro.sim.validate import replay

FIG1 = LogPParams(P=8, L=6, o=2, g=4)


class TestShift:
    def test_preserves_legality_and_shape(self):
        s = optimal_broadcast_schedule(FIG1)
        moved = shift(s, 7)
        replay(moved)
        assert completion_time(moved) == completion_time(s) + 7

    def test_negative_shift_bounded(self):
        s = shift(optimal_broadcast_schedule(FIG1), 5)
        back = shift(s, -5)
        replay(back)
        with pytest.raises(ValueError):
            shift(back, -1)


class TestRemap:
    def test_rotation(self):
        s = optimal_broadcast_schedule(postal(P=6, L=2))
        rotated = remap(s, {p: (p + 2) % 6 for p in range(6)})
        replay(rotated)
        delays = broadcast_delay_per_proc(rotated)
        assert delays[2] == 0  # old root is now processor 2

    def test_non_injective_rejected(self):
        s = optimal_broadcast_schedule(postal(P=4, L=2))
        with pytest.raises(ValueError):
            remap(s, {0: 1, 1: 1})


class TestReverse:
    def test_broadcast_becomes_reduction(self):
        s = optimal_broadcast_schedule(FIG1)
        red = reverse(s)
        replay(red)
        av = availability(red)
        root_done = max(t for (p, _i), t in av.items() if p == 0)
        assert root_done == broadcast_time(8, FIG1)

    def test_double_reverse_times(self):
        s = optimal_broadcast_schedule(postal(P=9, L=3))
        rr = reverse(reverse(s))
        assert sorted(op.time for op in rr.sends) == sorted(
            op.time for op in s.sends
        )

    def test_empty(self):
        from repro.schedule.ops import Schedule

        empty = Schedule(params=postal(P=2, L=1))
        assert len(reverse(empty)) == 0

    def test_source_items_record_leaf_creation(self):
        # regression: reverse used to drop source_items entirely, so the
        # lint context treated every reversed item as never created
        s = optimal_broadcast_schedule(FIG1)
        red = reverse(s)
        assert red.source_items
        for item, when in red.source_items.items():
            first_send = min(op.time for op in red.sends if op.item == item)
            assert when == first_send


class TestConcat:
    def test_two_broadcasts_back_to_back(self):
        a = optimal_broadcast_schedule(postal(P=6, L=2))
        from repro.core.single_item import schedule_from_tree
        from repro.core.tree import optimal_tree

        b = schedule_from_tree(optimal_tree(postal(P=6, L=2)), item=1)
        combined = concat(a, b)
        replay(combined)
        assert len(combined) == len(a) + len(b)
        # the second broadcast completes after the first
        arrivals_b = [
            op.arrival(combined.params) for op in combined.sends if op.item == 1
        ]
        arrivals_a = [
            op.arrival(combined.params) for op in combined.sends if op.item == 0
        ]
        assert min(arrivals_b) > max(arrivals_a)

    def test_different_machines_rejected(self):
        a = optimal_broadcast_schedule(postal(P=4, L=2))
        b = optimal_broadcast_schedule(postal(P=4, L=3))
        with pytest.raises(ValueError):
            concat(a, b)

    def test_spacing_is_max_g_o(self):
        # the docstring promises a max(g, o) gap after the first
        # schedule's completion; g >= 1 makes the old max(g, o, 1)
        # floor unreachable, so the code now matches the docs
        a = optimal_broadcast_schedule(FIG1)
        from repro.core.single_item import schedule_from_tree
        from repro.core.tree import optimal_tree

        b = schedule_from_tree(optimal_tree(FIG1), item=1)
        combined = concat(a, b)
        finish = max(op.arrival(FIG1) for op in a.sends)
        second_start = min(op.time for op in combined.sends if op.item == 1)
        assert second_start == finish + max(FIG1.g, FIG1.o)

    def test_conflicting_source_items_rejected(self):
        from repro.schedule.ops import Schedule, SendOp

        params = postal(P=2, L=1)
        a = Schedule(
            params=params,
            sends=[SendOp(time=0, src=0, dst=1, item=0)],
            initial={0: {0}},
            source_items={0: 0},
        )
        b = Schedule(
            params=params,
            sends=[SendOp(time=0, src=0, dst=1, item=0)],
            initial={0: {0}},
            source_items={0: 0},
        )
        # after shifting, the second copy claims item 0 was created at a
        # different cycle than the first — silently overwriting would
        # corrupt the lint context, so concat refuses
        with pytest.raises(ValueError, match="conflicting source_items"):
            concat(a, b)


class TestRestrict:
    def test_subtree_survives(self):
        s = optimal_broadcast_schedule(postal(P=9, L=3))
        sub = restrict(s, {0, 1, 2, 3})
        replay(sub)
        assert all(op.src in {0, 1, 2, 3} and op.dst in {0, 1, 2, 3} for op in sub.sends)
        assert len(sub) < len(s)
