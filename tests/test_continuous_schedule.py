"""Tests for continuous-broadcast schedule expansion."""

import pytest

from repro.core.continuous.assignment import solve, solve_instance
from repro.core.continuous.relative import instance_for
from repro.core.continuous.schedule import (
    GBlock,
    continuous_delay_lower_bound,
    expand_assignment,
    general_form,
)
from repro.schedule.analysis import item_delays
from repro.sim.validate import replay
from repro.sim.validate import is_single_sending, single_reception_violations


def check_continuous(assignment_t, L, num_items):
    """Expand, replay and return the set of per-item delays."""
    a = solve(assignment_t, L) if isinstance(assignment_t, int) else assignment_t
    assert a is not None
    schedule = expand_assignment(a, num_items=num_items)
    replay(schedule)
    assert not single_reception_violations(schedule)
    assert is_single_sending(schedule)
    P = a.num_processors + 1
    delays = item_delays(schedule, procs=set(range(1, P)))
    return set(delays.values())


class TestGeneralForm:
    def test_fig2_conversion(self):
        a = solve_instance(instance_for(7, 3))
        g = general_form(a)
        g.validate()
        assert g.completion == 7 and g.delay == 10
        assert sorted(b.size for b in g.blocks) == [1, 2, 5]

    def test_gblock_word_length(self):
        with pytest.raises(ValueError):
            GBlock(upper_delay=0, size=3, word=(5,))


class TestExpansion:
    def test_fig2_delays_optimal(self):
        a = solve_instance(instance_for(7, 3))
        delays = check_continuous(a, 3, 8)
        assert delays == {10}  # L + B(P-1) for every item

    @pytest.mark.parametrize("L,t", [(3, 7), (3, 11), (4, 9), (5, 12)])
    def test_delay_equals_L_plus_t(self, L, t):
        a = solve(t, L)
        if a is None:
            pytest.skip(f"I({t}) unsolvable for L={L}")
        delays = check_continuous(a, L, 5)
        assert delays == {L + t}

    def test_matches_lower_bound(self):
        a = solve(7, 3)
        P = a.num_processors + 1
        assert a.delay == continuous_delay_lower_bound(P, 3)

    def test_every_processor_every_item(self):
        a = solve_instance(instance_for(7, 3))
        schedule = expand_assignment(a, num_items=4)
        received = {(op.dst, op.item) for op in schedule.sends}
        for p in range(1, 10):
            for item in range(4):
                assert (p, item) in received

    def test_source_sends_item_i_at_step_i(self):
        a = solve_instance(instance_for(7, 3))
        schedule = expand_assignment(a, num_items=5)
        source_sends = sorted(
            (op.time, op.item) for op in schedule.sends if op.src == 0
        )
        assert source_sends == [(i, i) for i in range(5)]

    def test_single_item_window(self):
        a = solve_instance(instance_for(7, 3))
        delays = check_continuous(a, 3, 1)
        assert delays == {10}

    def test_rejects_zero_items(self):
        a = solve_instance(instance_for(7, 3))
        with pytest.raises(ValueError):
            expand_assignment(a, num_items=0)


class TestSteadyState:
    def test_interior_steps_fully_loaded(self):
        # in steady state every non-source processor receives every step
        a = solve_instance(instance_for(7, 3))
        schedule = expand_assignment(a, num_items=12)
        arrivals: dict[int, set[int]] = {}
        for op in schedule.sends:
            arrivals.setdefault(op.arrival(schedule.params), set()).add(op.dst)
        # steady window: steps L+t .. L+num_items-1 (all trees active)
        for step in range(3 + 7, 3 + 12 - 1):
            assert arrivals[step] == set(range(1, 10)), step
