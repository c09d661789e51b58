"""Tests for all-to-all broadcast and personalized communication (§4.1)."""

import pytest

from repro.core.all_to_all import (
    all_to_all_lower_bound,
    all_to_all_personalized_schedule,
    all_to_all_schedule,
    all_to_all_time,
    interleaving_gap,
    is_tight,
    k_item_all_to_all_lower_bound,
    k_item_all_to_all_schedule,
)
from repro.params import LogPParams, postal
from repro.schedule.analysis import availability, completion_time
from repro.sim.validate import replay


class TestLowerBounds:
    def test_formula(self):
        p = LogPParams(P=8, L=6, o=2, g=4)
        assert all_to_all_lower_bound(p) == 6 + 4 + 6 * 4  # L+2o+(P-2)g

    def test_k_item_formula(self):
        p = postal(P=5, L=3)
        assert k_item_all_to_all_lower_bound(p, 2) == 3 + (2 * 4 - 1)

    def test_degenerate(self):
        assert all_to_all_lower_bound(postal(P=1, L=3)) == 0


class TestOptimality:
    @pytest.mark.parametrize("params", [
        postal(P=2, L=1),
        postal(P=5, L=3),
        postal(P=9, L=2),
        LogPParams(P=6, L=3, o=1, g=5),
    ])
    def test_matches_lower_bound_when_tight(self, params):
        assert is_tight(params)
        s = all_to_all_schedule(params)
        replay(s)
        assert completion_time(s) == all_to_all_lower_bound(params)

    @pytest.mark.parametrize("params", [
        LogPParams(P=8, L=6, o=2, g=4),
        LogPParams(P=6, L=3, o=1, g=2),
    ])
    def test_non_interleaving_machines_pay_a_stretch(self, params):
        # the strict synchronous model forces spacing g' > g when send and
        # receive overheads cannot interleave at phase (o+L) mod g
        assert not is_tight(params)
        assert interleaving_gap(params) > params.g
        s = all_to_all_schedule(params)
        replay(s)  # still a legal execution
        assert completion_time(s) == all_to_all_time(params)
        assert all_to_all_time(params) >= all_to_all_lower_bound(params)

    def test_postal_always_tight(self):
        for P in (2, 4, 9):
            for L in (1, 2, 5):
                assert is_tight(postal(P=P, L=L))

    def test_everyone_gets_everything(self):
        params = postal(P=6, L=2)
        s = all_to_all_schedule(params)
        av = availability(s)
        for p in range(6):
            for src in range(6):
                assert (p, ("a2a", src)) in av

    def test_personalized_same_time(self):
        params = LogPParams(P=7, L=4, o=1, g=2)
        s = all_to_all_personalized_schedule(params)
        replay(s)
        assert completion_time(s) == all_to_all_lower_bound(params)
        # each processor receives exactly its own personalized items
        av = availability(s)
        for dst in range(7):
            for src in range(7):
                if src != dst:
                    assert (dst, ("p2p", src, dst)) in av

    def test_k_item_matches_bound(self):
        params = postal(P=4, L=2)
        s = k_item_all_to_all_schedule(params, 3)
        replay(s)
        assert completion_time(s) == k_item_all_to_all_lower_bound(params, 3)


class TestCustomOrders:
    def test_valid_custom_permutations(self):
        params = postal(P=4, L=2)
        # shift by 2 instead of 1 each round: still collision-free
        orders = [[(i + d) % 4 for d in (2, 1, 3)] for i in range(4)]
        s = all_to_all_schedule(params, orders=orders)
        replay(s)
        assert completion_time(s) == all_to_all_lower_bound(params)

    def test_colliding_orders_rejected(self):
        params = postal(P=3, L=2)
        orders = [[1, 2], [2, 1], [1, 2]]
        # round 0 targets: 1, 2, 1 -> proc 1 hit twice
        with pytest.raises(ValueError):
            all_to_all_schedule(params, orders=orders)

    def test_non_permutation_rejected(self):
        params = postal(P=3, L=2)
        with pytest.raises(ValueError):
            all_to_all_schedule(params, orders=[[1, 1], [0, 2], [0, 1]])

    def test_wrong_count_rejected(self):
        params = postal(P=3, L=2)
        with pytest.raises(ValueError):
            all_to_all_schedule(params, orders=[[1, 2]])
