"""Tests for k-item broadcast: bounds, blocks, single-sending schedules."""

import pytest

from repro.core.fib import broadcast_time_postal, reachable_postal
from repro.core.kitem.blocks import block_layout, block_transmission_digraph
from repro.core.kitem.bounds import (
    continuous_based_time,
    continuous_phase_length,
    endgame_length,
    kitem_lower_bound,
    kitem_upper_bound,
    single_sending_lower_bound,
)
from repro.core.kitem.single_sending import (
    completion,
    continuous_based_schedule,
    greedy_single_sending_schedule,
    pruned_tree_assignment,
    single_sending_schedule,
)
from repro.sim.validate import is_single_sending
from tests.conftest import assert_kitem_complete


class TestBounds:
    def test_ordering(self):
        # lower <= single-sending-lower <= upper for all params
        for L in (1, 2, 3, 4):
            for P in (2, 5, 10, 22):
                for k in (1, 3, 9):
                    lb = kitem_lower_bound(P, L, k)
                    ss = single_sending_lower_bound(P, L, k)
                    ub = kitem_upper_bound(P, L, k)
                    assert lb <= ss <= ub

    def test_upper_minus_ss_is_L_minus_1(self):
        for L in (1, 2, 3, 5):
            assert kitem_upper_bound(10, L, 7) - single_sending_lower_bound(10, L, 7) == L - 1

    def test_fig2_numbers(self):
        # P=10, L=3, k=8: lower bound 15, continuous-based time 17
        assert kitem_lower_bound(10, 3, 8) == 15
        assert continuous_based_time(10, 3, 8) == 17

    def test_phase_structure(self):
        # continuous phase + endgame covers all items
        P, L, k = 10, 3, 8
        assert continuous_phase_length(P, L, k) == 6  # k - k* = 8 - 2
        assert endgame_length(P, L) == 7  # B(9)


class TestBlocks:
    def test_fig3_layout(self):
        lay = block_layout(11, 3)
        assert lay.P_minus_1 == 41
        assert sorted(lay.blocks, reverse=True) == [9, 6, 5, 4, 3, 3, 2, 2, 2, 1, 1, 1, 1]

    def test_fig3_digraph_flow(self):
        g = block_transmission_digraph(11, 3)
        for node, data in g.nodes(data=True):
            size = data["size"]
            if size is None:
                continue
            inbound = sum(d["weight"] for *_e, d in g.in_edges(node, data=True))
            outbound = sum(d["weight"] for *_e, d in g.out_edges(node, data=True))
            assert inbound == (size if size else 1)
            if size:
                assert outbound == size

    def test_digraph_one_active_in_per_block(self):
        g = block_transmission_digraph(11, 3)
        for node, data in g.nodes(data=True):
            if data["size"]:
                actives = [
                    d for *_e, d in g.in_edges(node, data=True) if d["kind"] == "active"
                ]
                assert len(actives) == 1

    def test_other_odd_L_instances(self):
        # the accounting balances on other odd-L machines too
        for t, L in ((13, 3), (12, 5), (14, 5)):
            block_transmission_digraph(t, L)

    def test_even_L_rejected(self):
        with pytest.raises(ValueError):
            block_transmission_digraph(10, 4)


class TestContinuousBased:
    def test_fig2_k8(self):
        s = continuous_based_schedule(8, 7, 3)
        done = assert_kitem_complete(s, P=10, k=8)
        assert done == 17  # L + B + k - 1
        assert is_single_sending(s)

    def test_matches_formula(self):
        for t, L in ((7, 3), (8, 3), (9, 4)):
            s = continuous_based_schedule(5, t, L)
            if s is None:
                continue
            P = reachable_postal(t, L) + 1
            assert assert_kitem_complete(s, P=P, k=5) == continuous_based_time(P, L, 5)

    def test_l2_returns_none(self):
        assert continuous_based_schedule(5, 7, 2) is None


class TestPrunedTreeRoute:
    @pytest.mark.parametrize("P,L", [(6, 2), (11, 3), (12, 4), (20, 2), (15, 5)])
    def test_assignment_found_and_bounded(self, P, L):
        a = pruned_tree_assignment(P, L)
        assert a is not None
        t = broadcast_time_postal(P - 1, L)
        assert t <= a.completion <= t + L - 1


class TestSingleSending:
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    @pytest.mark.parametrize("P", [2, 3, 5, 9, 10, 14, 22])
    def test_meets_theorem_36(self, P, L):
        k = 5
        s = single_sending_schedule(k, P, L)
        done = assert_kitem_complete(s, P=P, k=k)
        assert is_single_sending(s)
        assert done <= kitem_upper_bound(P, L, k)
        assert done >= kitem_lower_bound(P, L, k)

    def test_often_hits_single_sending_lb(self):
        # measured: for most P the scheduler is exactly optimal
        hits = 0
        for P in range(3, 20):
            s = single_sending_schedule(4, P, 3)
            if completion(s) == single_sending_lower_bound(P, 3, 4):
                hits += 1
        assert hits >= 14

    def test_two_processors_stream(self):
        s = single_sending_schedule(6, 2, 4)
        assert assert_kitem_complete(s, P=2, k=6) == 4 + 6 - 1

    def test_k1_is_single_item_broadcast(self):
        s = single_sending_schedule(1, 10, 3)
        done = assert_kitem_complete(s, P=10, k=1)
        assert done == 3 + broadcast_time_postal(9, 3)

    def test_rejects_P1(self):
        with pytest.raises(ValueError):
            single_sending_schedule(3, 1, 2)


class TestGreedyFallback:
    def test_greedy_valid_and_single_sending(self):
        s = greedy_single_sending_schedule(4, 7, 2)
        assert_kitem_complete(s, P=7, k=4)
        assert is_single_sending(s)


class TestLargeLatencyRegime:
    """Machines where L dwarfs P: the star-tree route must hold Thm 3.6."""

    @pytest.mark.parametrize("P,L", [(10, 12), (16, 15), (8, 20), (5, 9)])
    def test_meets_theorem_36(self, P, L):
        k = 5
        s = single_sending_schedule(k, P, L)
        done = assert_kitem_complete(s, P=P, k=k)
        assert is_single_sending(s)
        assert done <= kitem_upper_bound(P, L, k)


class TestTheorem32Structure:
    """Bound-meeting schedules have the continuous-phase structure."""

    def test_source_sends_distinct_items_first(self):
        # Thm 3.2: a schedule meeting the Thm 3.1 bound sends distinct
        # items from the source in the first k - k* steps
        from repro.core.fib import k_star

        P, L, k = 10, 3, 8
        s = continuous_based_schedule(k, 7, L)
        source_sends = sorted(
            (op.time, op.item) for op in s.sends if op.src == 0
        )
        phase_len = k - k_star(P, L)
        first_phase_items = [item for t, item in source_sends[:phase_len]]
        assert len(set(first_phase_items)) == phase_len

    def test_source_single_sends_throughout(self):
        # our continuous-based schedules are single-sending, a stronger
        # property than Thm 3.2 requires for the endgame
        s = continuous_based_schedule(8, 7, 3)
        from collections import Counter

        counts = Counter(op.item for op in s.sends if op.src == 0)
        assert all(c == 1 for c in counts.values())
