"""End-to-end integration tests across modules.

These replicate the paper's headline claims whole: build the schedule with
the core algorithms, execute it on the simulator substrate, measure with
the analysis tools, and compare against the closed-form bounds.
"""

from repro import (
    LogPParams,
    broadcast_time_postal,
    buffered_schedule,
    combining_time,
    continuous_based_schedule,
    continuous_delay_lower_bound,
    expand_assignment,
    instance_for,
    kitem_lower_bound,
    kitem_upper_bound,
    min_summation_time,
    optimal_broadcast_schedule,
    postal,
    reachable_postal,
    replay,
    simulate_combining,
    single_sending_lower_bound,
    single_sending_schedule,
    solve_instance,
    summation_capacity,
    summation_schedule,
    verify_summation,
)
from repro.baselines.kitem import repeated_broadcast_schedule
from repro.baselines.trees import binomial_tree_schedule
from repro.schedule.analysis import (
    broadcast_delay_per_proc,
    item_completion_times,
    item_delays,
)
from repro.sim.validate import is_single_sending, single_reception_violations


class TestHeadlineSingleItem:
    def test_optimal_beats_binomial_on_fig1_machine(self):
        machine = LogPParams(P=8, L=6, o=2, g=4)
        opt = optimal_broadcast_schedule(machine)
        bino = binomial_tree_schedule(machine)
        replay(opt)
        replay(bino)
        t_opt = max(broadcast_delay_per_proc(opt).values())
        t_bino = max(broadcast_delay_per_proc(bino).values())
        assert t_opt == 24 < t_bino == 30


class TestHeadlineKItem:
    def test_pipelining_factor(self):
        # the whole point of Section 3: pipelined optimal trees turn
        # k*B into B + O(k + L)
        P, L, k = 10, 3, 20
        ours = single_sending_schedule(k, P, L)
        naive = repeated_broadcast_schedule(k, P, L)
        replay(ours)
        replay(naive)
        t_ours = max(item_completion_times(ours, set(range(P))).values())
        t_naive = max(item_completion_times(naive, set(range(P))).values())
        assert t_ours <= kitem_upper_bound(P, L, k)
        assert t_naive >= 3 * t_ours  # big win, grows with k

    def test_sandwich_for_many_machines(self):
        for P, L, k in [(5, 2, 7), (10, 3, 4), (14, 4, 6), (22, 2, 9)]:
            s = single_sending_schedule(k, P, L)
            replay(s)
            assert is_single_sending(s)
            assert not single_reception_violations(s)
            done = max(item_completion_times(s, set(range(P))).values())
            assert kitem_lower_bound(P, L, k) <= done <= kitem_upper_bound(P, L, k)


class TestHeadlineContinuous:
    def test_fig2_end_to_end(self):
        # solve I(7) for L=3, expand over 8 items, verify delay = bound
        assignment = solve_instance(instance_for(7, 3))
        schedule = expand_assignment(assignment, num_items=8)
        replay(schedule)
        delays = item_delays(schedule, procs=set(range(1, 10)))
        assert set(delays.values()) == {continuous_delay_lower_bound(10, 3)}


class TestHeadlineBuffered:
    def test_buffering_buys_the_last_L_minus_1_steps(self):
        # plain single-sending meets B+2L+k-2; buffering reaches B+L+k-1
        k, t, L = 10, 8, 3
        P = reachable_postal(t, L) + 1
        buffered = buffered_schedule(k, t, L)
        buffered.validate()
        assert buffered.completion == single_sending_lower_bound(P, L, k)


class TestHeadlineCombining:
    def test_allreduce_in_reduce_time(self):
        # all-to-all combining completes in T where P = P(T): the same
        # time an all-to-one reduction needs — a 2x saving over
        # reduce-then-broadcast
        run = simulate_combining(8, 3)
        assert run.complete()
        assert combining_time(run.P, 3) == 8
        replay(run.schedule)


class TestHeadlineSummation:
    def test_summation_pipeline(self):
        machine = LogPParams(P=8, L=5, o=2, g=4)
        n = summation_capacity(28, machine)
        t = min_summation_time(n, machine)
        assert t == 28
        plan = summation_schedule(t, machine)
        assert verify_summation(plan) == plan.total()
        replay(plan.to_schedule())


class TestCrossChecks:
    def test_continuous_schedule_is_also_optimal_kitem(self):
        # Cor 3.1: the continuous solution solves k-item broadcast in
        # L + B + k - 1 = the single-sending lower bound
        k, t, L = 6, 7, 3
        s = continuous_based_schedule(k, t, L)
        P = reachable_postal(t, L) + 1
        done = max(item_completion_times(s, set(range(P))).values())
        assert done == single_sending_lower_bound(P, L, k)

    def test_B_values_consistent_across_apis(self):
        for P in (2, 5, 9, 13, 41):
            for L in (1, 2, 3):
                t = broadcast_time_postal(P, L)
                sched = optimal_broadcast_schedule(postal(P=P, L=L))
                measured = max(broadcast_delay_per_proc(sched).values())
                assert measured == t
