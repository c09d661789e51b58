"""Property-based tests (hypothesis) for core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.continuous.relative import instance_for
from repro.core.continuous.words import (
    enumerate_legal_words,
    family_f1,
    is_legal_pattern,
    is_legal_word,
)
from repro.core.fib import (
    broadcast_time,
    broadcast_time_postal,
    fib_sequence,
    k_star,
    reachable,
    reachable_postal,
)
from repro.core.single_item import optimal_broadcast_schedule
from repro.core.summation.capacity import operand_distribution, summation_capacity
from repro.core.tree import optimal_tree, tree_for_time
from repro.params import LogPParams, postal
from repro.schedule.analysis import broadcast_delay_per_proc
from repro.sim.validate import replay

@st.composite
def _logp_params(draw):
    g = draw(st.integers(min_value=1, max_value=5))
    return LogPParams(
        P=draw(st.integers(min_value=1, max_value=40)),
        L=draw(st.integers(min_value=1, max_value=8)),
        o=draw(st.integers(min_value=0, max_value=min(3, g))),
        g=g,
    )


params_strategy = _logp_params()

postal_strategy = st.builds(
    postal,
    P=st.integers(min_value=2, max_value=60),
    L=st.integers(min_value=1, max_value=8),
)


class TestFibProperties:
    @given(L=st.integers(1, 10), t=st.integers(0, 40))
    def test_prefix_sum_identity(self, L, t):
        seq = fib_sequence(L, t + L)
        assert 1 + sum(seq[: t + 1]) == seq[t + L]

    @given(L=st.integers(1, 8), t=st.integers(0, 25))
    def test_monotone_nondecreasing(self, L, t):
        seq = fib_sequence(L, t + 1)
        assert seq[t + 1] >= seq[t]

    @given(p=postal_strategy)
    def test_B_and_P_are_inverse(self, p):
        t = broadcast_time_postal(p.P, p.L)
        assert reachable_postal(t, p.L) >= p.P
        if t:
            assert reachable_postal(t - 1, p.L) < p.P

    @given(p=params_strategy)
    def test_general_B_inverse(self, p):
        t = broadcast_time(p.P, p)
        assert reachable(t, p) >= p.P
        if t:
            assert reachable(t - 1, p) < p.P

    @given(P=st.integers(3, 80), L=st.integers(1, 8))
    def test_k_star_bounded(self, P, L):
        assert 0 <= k_star(P, L) <= L


class TestTreeProperties:
    @given(p=params_strategy)
    @settings(max_examples=60)
    def test_optimal_tree_invariants(self, p):
        tree = optimal_tree(p)
        tree.validate()
        assert len(tree) == p.P
        assert tree.completion_time == broadcast_time(p.P, p)

    @given(p=params_strategy)
    @settings(max_examples=40)
    def test_schedule_replays_and_is_optimal(self, p):
        schedule = optimal_broadcast_schedule(p)
        replay(schedule)
        delays = broadcast_delay_per_proc(schedule)
        assert len(delays) == p.P
        assert max(delays.values()) == broadcast_time(p.P, p)

    @given(t=st.integers(0, 14), L=st.integers(1, 6))
    def test_tree_for_time_size(self, t, L):
        p = postal(P=1, L=L)
        assert len(tree_for_time(t, p)) == reachable(t, p)


class TestWordProperties:
    @given(
        pattern=st.lists(st.integers(0, 8), min_size=1, max_size=7),
    )
    def test_legality_is_rotation_invariant(self, pattern):
        n = len(pattern)
        rotations = [pattern[i:] + pattern[:i] for i in range(n)]
        results = {is_legal_pattern(r) for r in rotations}
        assert len(results) == 1

    @given(
        L=st.integers(3, 6),
        r=st.integers(2, 7),
    )
    @settings(max_examples=40)
    def test_f1_always_legal(self, L, r):
        for w in family_f1(r, L):
            assert is_legal_word(r, w, L)

    @given(L=st.integers(2, 4), r=st.integers(2, 6))
    @settings(max_examples=30)
    def test_enumeration_sound(self, L, r):
        for w in enumerate_legal_words(r, L):
            assert is_legal_word(r, w, L)

    @given(
        L=st.integers(2, 5),
        r=st.integers(2, 6),
        word=st.lists(st.integers(0, 4), min_size=1, max_size=5),
    )
    @settings(max_examples=60)
    def test_enumeration_complete(self, L, r, word):
        # any legal word of the right shape appears in the enumeration
        w = tuple(m % L for m in word)
        if len(w) != r - 1:
            return
        if is_legal_word(r, w, L):
            assert w in set(enumerate_legal_words(r, L))


class TestInstanceProperties:
    @given(L=st.integers(2, 6), t=st.integers(2, 14))
    @settings(max_examples=50)
    def test_instances_consistent(self, L, t):
        if t < L:
            return
        inst = instance_for(t, L)
        assert inst.consistent()
        assert inst.P_minus_1 == reachable_postal(t, L)


class TestSummationProperties:
    @given(
        P=st.integers(1, 12),
        L=st.integers(1, 6),
        o=st.integers(0, 3),
        g=st.integers(1, 4),
        slack=st.integers(0, 15),
    )
    @settings(max_examples=50)
    def test_capacity_formula_consistency(self, P, L, o, g, slack):
        p = LogPParams(P=P, L=L, o=min(o, g), g=g)
        o = p.o
        from repro.core.summation.capacity import summation_tree

        tree = summation_tree(p)
        t_min = max(nd.delay + (o + 1) * nd.out_degree for nd in tree.nodes)
        t = t_min + slack
        dist = operand_distribution(t, p)
        assert all(c >= 1 for c in dist)
        assert sum(dist) == summation_capacity(t, p)
        # closed form: sum(t - d_i) - (o+1)(P-1) + P
        delays = tree.delays()
        assert sum(dist) == sum(t - d for d in delays) - (o + 1) * (P - 1) + P


class TestExpansionFuzz:
    """Randomized continuous-broadcast expansions are always legal."""

    @given(
        t=st.integers(4, 11),
        L=st.integers(3, 5),
        window=st.integers(1, 9),
    )
    @settings(max_examples=25, deadline=None)
    def test_expansion_always_validates(self, t, L, window):
        from repro.core.continuous.assignment import solve_instance
        from repro.core.continuous.relative import instance_for
        from repro.core.continuous.schedule import expand_assignment
        from repro.sim.validate import replay as _replay
        from repro.sim.validate import single_reception_violations
        from repro.schedule.analysis import item_delays

        if t < L:
            return  # degenerate: the t-step tree is a single node
        assignment = solve_instance(instance_for(t, L))
        if assignment is None:
            return  # legitimately unsolvable instance (e.g. L=4, t=8)
        schedule = expand_assignment(assignment, num_items=window)
        _replay(schedule)
        assert not single_reception_violations(schedule)
        P_minus_1 = assignment.num_processors
        delays = item_delays(schedule, procs=set(range(1, P_minus_1 + 1)))
        assert set(delays.values()) == {L + t}

    @given(P=st.integers(3, 30), L=st.integers(2, 40), k=st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_star_or_search_always_within_thm36(self, P, L, k):
        from repro.core.kitem.bounds import kitem_upper_bound
        from repro.core.kitem.single_sending import (
            completion,
            single_sending_schedule,
        )
        from repro.core.kitem.star import star_fits
        from repro.sim.validate import replay as _replay

        if not star_fits(P, L) and L > 7:
            return  # outside both the verified small-L range and the star regime
        schedule = single_sending_schedule(k, P, L)
        _replay(schedule)
        assert completion(schedule) <= kitem_upper_bound(P, L, k)
