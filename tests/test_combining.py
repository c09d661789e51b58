"""Tests for combining broadcast and reduction (§4.2, Theorem 4.1)."""

import pytest

from repro.core.combining import (
    combining_schedule,
    combining_time,
    reduction_schedule,
    simulate_combining,
)
from repro.core.fib import broadcast_time, fib
from repro.params import postal
from repro.schedule.analysis import availability
from repro.serve.keys import plan_content
from repro.sim.validate import replay

from tests.oracles.builders import combining_schedule_objects


class TestTheorem41:
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_all_processors_complete(self, L):
        for T in range(L, L + 6):
            run = simulate_combining(T, L)
            assert run.P == fib(L, T)
            assert run.complete()

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_window_invariant(self, L):
        for T in range(L, L + 6):
            assert simulate_combining(T, L).theorem_41_invariant()

    def test_schedule_is_legal(self):
        run = simulate_combining(6, 3)
        replay(run.schedule)

    def test_combining_matches_all_to_one_time(self):
        # all-to-all combining takes no longer than all-to-one reduction:
        # T steps reach P(T) processors, exactly the broadcast bound
        for L in (1, 2, 3):
            for T in range(L, L + 5):
                P = fib(L, T)
                assert combining_time(P, L) <= T

    def test_rejects_T_below_L(self):
        with pytest.raises(ValueError):
            simulate_combining(1, 3)

    def test_factor_two_saving_vs_reduce_then_broadcast(self):
        # reduce-then-broadcast needs 2B(P); combining needs B(P)
        L = 3
        T = 8
        P = fib(L, T)
        assert combining_time(P, L) == T
        # so the saving is exactly 2x
        assert 2 * T > T


class TestReduction:
    def test_reversal_completes_at_B(self, fig1_params):
        s = reduction_schedule(fig1_params)
        replay(s)
        av = availability(s)
        root_done = max(t for (p, _i), t in av.items() if p == 0)
        assert root_done == broadcast_time(8, fig1_params)

    def test_root_receives_all_partials(self):
        params = postal(P=9, L=3)
        s = reduction_schedule(params)
        replay(s)
        av = availability(s)
        # every processor's contribution reaches processor 0 (directly or
        # folded; here messages carry the sender's id)
        senders = {op.src for op in s.sends}
        assert senders == set(range(1, 9))

    def test_each_proc_sends_once(self):
        params = postal(P=13, L=2)
        s = reduction_schedule(params)
        counts = {}
        for op in s.sends:
            counts[op.src] = counts.get(op.src, 0) + 1
        assert all(c == 1 for c in counts.values())
        assert len(counts) == 12


class TestKCombining:
    def test_rounds_all_valid(self):
        from repro.core.combining import simulate_k_combining

        runs = simulate_k_combining(6, 3, 4)
        assert len(runs) == 4
        for run in runs:
            assert run.complete() and run.theorem_41_invariant()

    def test_pipelined_time_formula(self):
        from repro.core.combining import k_combining_time

        # one round: exactly T
        assert k_combining_time(7, 3, 1) == 7
        # each extra round adds the send-phase length T-L+1
        assert k_combining_time(7, 3, 3) == 2 * (7 - 3 + 1) + 7

    def test_pipelining_beats_sequential(self):
        from repro.core.combining import k_combining_time

        T, L, k = 8, 3, 5
        assert k_combining_time(T, L, k) < k * T

    def test_composed_schedule_replays(self):
        from repro.core.combining import simulate_k_combining
        from repro.schedule.transform import concat

        runs = simulate_k_combining(5, 2, 3)
        combined = runs[0].schedule
        for run in runs[1:]:
            # items collide across rounds (same labels); relabel by shift
            from repro.schedule.ops import Schedule, SendOp

            relabeled = Schedule(
                params=run.schedule.params,
                sends=[
                    SendOp(op.time, op.src, op.dst, (id(run), *op.item))
                    for op in run.schedule.sends
                ],
                initial={
                    p: {(id(run), *i) for i in items}
                    for p, items in run.schedule.initial.items()
                },
            )
            combined = concat(combined, relabeled)
        replay(combined)


def _combining_points(max_P):
    """Every (T, L) with L <= 6, T >= L and P(T; L, 0, 1) <= max_P."""
    for L in range(1, 7):
        T = L
        while fib(L, T) <= max_P:
            yield T, L
            T += 1


class TestClosedForm:
    """`combining_schedule` writes Theorem 4.1's sends from the closed
    form; the per-send twin in ``tests/oracles/builders.py`` pins it."""

    def test_plan_content_matches_step_by_step_twin(self):
        points = list(_combining_points(2000))
        assert len(points) == 119
        for T, L in points:
            closed = combining_schedule(T, L)
            assert closed.is_array_backed
            twin = combining_schedule_objects(T, L)
            assert not twin.is_array_backed
            assert plan_content(closed) == plan_content(twin), (T, L)
            if closed.params.P <= 300:
                run = simulate_combining(T, L)
                assert run.complete() and run.theorem_41_invariant(), (T, L)
