"""Tests for the L = 2 results (Theorems 3.4 and 3.5)."""

import pytest

from repro.core.continuous.l2 import (
    block_cyclic_feasible,
    delay_plus_one_assignment,
    infeasible_range,
    prune_tree,
)
from repro.core.continuous.schedule import expand
from repro.core.fib import reachable_postal
from repro.schedule.analysis import item_delays
from repro.sim.validate import replay
from repro.sim.validate import single_reception_violations


class TestTheorem34:
    def test_infeasible_from_small_t(self):
        # the exhaustive search refutes block-cyclic optimality; the paper
        # proves impossibility (for any schedule) from t >= 7
        infeasible = infeasible_range(9)
        assert set(range(7, 10)) <= set(infeasible)

    def test_tiny_t_feasible(self):
        # t <= 3 instances are trivially solvable (few letters)
        assert block_cyclic_feasible(2)
        assert block_cyclic_feasible(3)


class TestPruning:
    def test_prune_keeps_consecutive_children(self):
        tree = prune_tree(8, x=1, y=1)
        tree.validate()  # validate() checks the consecutive-delay labeling

    def test_prune_counts(self):
        # removing 2 from >=4-degree and 1 from 2-degree nodes exactly
        full = prune_tree(6, x=0, y=0)
        assert len(full) < reachable_postal(6, 2)

    def test_prune_rejects_excess(self):
        with pytest.raises(ValueError):
            prune_tree(5, x=100, y=0)


class TestTheorem35:
    @pytest.mark.parametrize("t", [3, 4, 5, 6, 7, 8])
    def test_delay_plus_one_achievable(self, t):
        a = delay_plus_one_assignment(t)
        assert a is not None, f"construction failed for t={t}"
        assert a.delay == 2 + t + 1
        # the tree really has P(t) nodes (not P(t+1))
        assert len(a.tree) == reachable_postal(t, 2)

    def test_expanded_schedule_valid(self):
        a = delay_plus_one_assignment(6)
        schedule = expand(a, num_items=5)
        replay(schedule)
        assert not single_reception_violations(schedule)
        P_minus_1 = len(a.tree)
        delays = item_delays(schedule, procs=set(range(1, P_minus_1 + 1)))
        assert set(delays.values()) == {2 + 6 + 1}
