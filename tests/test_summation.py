"""Tests for optimal summation (Section 5, Lemma 5.1, Figure 6)."""

import pytest

from repro import registry
from repro.cli import main
from repro.core.summation.capacity import (
    min_summation_time,
    operand_distribution,
    summation_capacity,
    summation_tree,
)
from repro.core.summation.schedule import summation_schedule, verify_summation
from repro.params import LogPParams, postal
from repro.sim.validate import replay

FIG6 = LogPParams(P=8, L=5, o=2, g=4)


class TestSummationTree:
    def test_is_broadcast_tree_for_L_plus_1(self):
        # Fig 6 uses t=28, P=8, L=5, g=4, o=2; the communication tree is
        # the optimal broadcast tree for L=6 — exactly Figure 1's tree
        tree = summation_tree(FIG6)
        assert sorted(tree.delays()) == [0, 10, 14, 18, 20, 22, 24, 24]

    def test_postal_case(self):
        tree = summation_tree(postal(P=9, L=2))
        assert tree.params.L == 3


class TestCapacity:
    def test_fig6_capacity(self):
        assert summation_capacity(28, FIG6) == 79

    def test_distribution_sums_to_capacity(self):
        for t in (26, 28, 35):
            assert sum(operand_distribution(t, FIG6)) == summation_capacity(t, FIG6)

    def test_capacity_increases_by_P_per_cycle(self):
        # each extra cycle buys one more operand per processor
        assert summation_capacity(29, FIG6) - summation_capacity(28, FIG6) == 8

    def test_too_small_t_rejected(self):
        with pytest.raises(ValueError):
            operand_distribution(5, FIG6)

    def test_single_processor(self):
        p = LogPParams(P=1, L=3, o=1, g=2)
        assert summation_capacity(7, p) == 8  # n-1 additions in t cycles


class TestMinTime:
    def test_inverse_of_capacity(self):
        for n in (2, 9, 30, 79):
            t = min_summation_time(n, FIG6)
            # some P' <= P achieves n by time t, none by t-1
            assert any(
                summation_capacity(t, FIG6.with_processors(P)) >= n
                for P in range(1, 9)
                if _feasible(t, FIG6.with_processors(P))
            ) or t == n - 1

    def test_small_n_prefers_fewer_processors(self):
        # two operands: a single processor adds them in 1 cycle; any
        # communication costs at least L + 2o + 1 = 10
        assert min_summation_time(2, FIG6) == 1

    def test_n1_is_free(self):
        assert min_summation_time(1, FIG6) == 0

    def test_monotone(self):
        times = [min_summation_time(n, FIG6) for n in range(1, 100, 7)]
        assert times == sorted(times)


def _feasible(t: int, params: LogPParams) -> bool:
    try:
        operand_distribution(t, params)
        return True
    except ValueError:
        return False


class TestSchedule:
    def test_fig6_verifies(self):
        plan = summation_schedule(28, FIG6)
        assert plan.n == 79
        assert verify_summation(plan) == plan.total()

    def test_comm_part_is_legal_logp(self):
        plan = summation_schedule(28, FIG6)
        replay(plan.to_schedule())

    def test_custom_operands(self):
        n = summation_capacity(28, FIG6)
        values = [3] * n
        plan = summation_schedule(28, FIG6, operands=values)
        assert verify_summation(plan) == 3 * n

    def test_wrong_operand_count_rejected(self):
        with pytest.raises(ValueError):
            summation_schedule(28, FIG6, operands=[1, 2, 3])

    @pytest.mark.parametrize("params", [
        postal(P=4, L=2),
        postal(P=9, L=3),
        LogPParams(P=5, L=3, o=1, g=2),
        LogPParams(P=2, L=1, o=0, g=1),
    ])
    def test_verifies_across_machines(self, params):
        tree = summation_tree(params)
        t_min = max(
            nd.delay + (params.o + 1) * nd.out_degree for nd in tree.nodes
        )
        for t in (t_min, t_min + 5):
            plan = summation_schedule(t, params)
            verify_summation(plan)
            replay(plan.to_schedule())

    def test_every_processor_busy_until_send(self):
        # optimality hinges on zero idle cycles before each send
        plan = summation_schedule(28, FIG6)
        spans = {}
        for cop in plan.computes:
            lo, hi = spans.get(cop.proc, (10**9, -1))
            spans[cop.proc] = (min(lo, cop.time), max(hi, cop.time + cop.duration))
        for node in plan.tree.nodes:
            S = plan.t - node.delay
            if S > 0:
                lo, hi = spans[node.index]
                assert hi == S  # last computation ends exactly at the send


class TestLemma51Domain:
    """Each reception plus its add blocks ``o + 1`` cycles, receptions
    come ``g`` apart: at ``o == g > 0`` the windows overlap, so Lemma
    5.1's ``S - (o+1)k`` count no longer holds and the spec refuses."""

    def test_o_equal_g_fails_with_one_line_value_error(self, capsys):
        with pytest.raises(ValueError, match=r"^summation: Lemma 5\.1 assumes g > o"):
            registry.plan("summation", P=3, L=1, o=1, g=1, n=10)
        machine = ["--P", "3", "--L", "1", "--o", "1", "--g", "1", "--n", "10"]
        for argv in (["plan", "summation", *machine], ["plan-sum", *machine]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("repro: error: summation: Lemma 5.1"), argv
            assert err.count("\n") == 1, err
        # a lone processor sends nothing, so o == g stays in its domain
        assert registry.plan("summation", P=1, L=1, o=1, g=1, n=10).num_sends == 0
