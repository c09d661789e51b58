"""Tests for relative addressing and the per-step multiset (Section 3.2)."""

from repro.core.continuous.relative import (
    delay_of_offset,
    instance_for,
    letter_name,
    offset_of_delay,
    step_multiset,
    uppercase_offset,
)
from repro.core.fib import reachable_postal


class TestAddressing:
    def test_offset_delay_roundtrip(self):
        for t in (5, 7, 10):
            for d in range(t + 1):
                assert delay_of_offset(offset_of_delay(d, t), t) == d

    def test_uppercase_offsets_match_paper(self):
        # L=3: H5 has offset 7, E2 offset 4, D1 offset 3
        assert uppercase_offset(5, 3) == 7
        assert uppercase_offset(2, 3) == 4
        assert uppercase_offset(1, 3) == 3

    def test_letter_names(self):
        assert letter_name(0, 3) == "a"
        assert letter_name(2, 3) == "c"
        assert letter_name(7, 3) == "H5"
        assert letter_name(4, 3) == "E2"
        assert letter_name(3, 3) == "D1"


class TestStepMultiset:
    def test_paper_s7(self):
        # S7 = {a, a, a, b, b, c, D1, E2, H5}
        s = step_multiset(7, 3)
        assert s.letters() == ["a", "a", "a", "b", "b", "c", "D1", "E2", "H5"]

    def test_total_equals_processors(self):
        for L in (2, 3, 4):
            for t in range(L, 12):
                s = step_multiset(t, L)
                assert s.total == reachable_postal(t, L)

    def test_leaf_offsets_below_L(self):
        s = step_multiset(9, 4)
        assert all(0 <= m < 4 for m in s.leaves)


class TestInstance:
    def test_fig2_instance(self):
        inst = instance_for(7, 3)
        assert dict(inst.block_sizes) == {5: 1, 2: 1, 1: 1}
        assert dict(inst.letter_census) == {0: 3, 1: 2, 2: 1}
        assert inst.P_minus_1 == 9

    def test_budget_matches_census(self):
        for L in (2, 3, 4, 5):
            for t in range(L, 14):
                inst = instance_for(t, L)
                assert inst.consistent()

    def test_word_budget_formula(self):
        inst = instance_for(7, 3)
        # sum (r-1) over blocks + 1 = 4 + 1 + 0 + 1 = 6 letters
        assert inst.word_budget() == 6
