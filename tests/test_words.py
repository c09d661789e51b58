"""Tests for legal reception words and the automaton (Section 3.2)."""

import pytest

from repro.core.continuous.words import (
    enumerate_legal_words,
    family_f1,
    family_words,
    is_legal_general_pattern,
    is_legal_pattern,
    is_legal_word,
    word_automaton,
    word_to_str,
)


class TestCollisionRule:
    def test_same_item_detected(self):
        # offsets m1=2 then m2=0 two steps later name the same item
        assert not is_legal_pattern([2, 9, 0])  # period 3: c.., ..a collide?
        # (2 at phase 0, 0 at phase 2: diff 2, (2-0)%3 = 2 -> collision)

    def test_b_then_a_collides(self):
        # b at step t and a at t+1 are the same item
        assert not is_legal_pattern([1, 0])

    def test_constant_highest_letter_legal(self):
        for L in (2, 3, 4, 6):
            for n in (1, 2, 5):
                assert is_legal_pattern([L - 1] * n)

    def test_empty_and_singleton(self):
        assert is_legal_pattern([])
        assert is_legal_pattern([0])
        assert is_legal_pattern([5])


class TestLegalWords:
    def test_paper_h5_block(self):
        # the paper: exactly {cccc, acab, abca, abbb} are legal for r=5, L=3
        words = {word_to_str(w) for w in enumerate_legal_words(5, 3)}
        assert words == {"cccc", "acab", "abca", "abbb"}

    def test_uppercase_collisions_enforced(self):
        # H5 at time t equals c at t+5, b at t+6, a at t+7 (paper's example):
        # so words starting with 'b' or with 'a' second are illegal
        for w in enumerate_legal_words(5, 3):
            assert w[0] != 1  # no 'b' first
            assert w[1] != 0  # no 'a' second

    def test_is_legal_word_checks_length(self):
        assert not is_legal_word(5, (0, 1), 3)

    def test_is_legal_word_checks_alphabet(self):
        assert not is_legal_word(3, (0, 5), 3)

    def test_enumeration_census_restricted(self):
        from collections import Counter

        census = Counter({0: 1, 1: 1, 2: 4})
        words = enumerate_legal_words(5, 3, census=census)
        assert all(
            all(Counter(w)[m] <= census[m] for m in range(3)) for w in words
        )
        assert ("cccc" in {word_to_str(w) for w in words})
        assert ("abbb" not in {word_to_str(w) for w in words})

    def test_counts_grow_with_r(self):
        counts = [len(enumerate_legal_words(r, 3)) for r in range(2, 8)]
        assert counts == sorted(counts)
        assert counts[0] == 2  # {'a', 'c'}


class TestFamilies:
    def test_f1_words_are_legal(self):
        for L in (3, 4, 5, 6):
            for r in range(L - 1, L + 8):
                for w in family_f1(r, L):
                    assert is_legal_word(r, w, L)

    def test_f1_includes_paper_choice(self):
        # a(ca)b = 'acab' for the H5 block
        assert (0, 2, 0, 1) in set(family_f1(5, 3))

    def test_f1_closed_under_appending_b(self):
        # the induction of Section 3.3 appends 'b' to the largest block's word
        for L in (3, 4, 5):
            for r in range(L, L + 6):
                for w in family_f1(r, L):
                    assert is_legal_word(r + 1, w + (1,), L)

    def test_family_words_all_legal(self):
        for L in (3, 4, 5):
            for r in (2, 3, 5, 8):
                for w in family_words(r, L):
                    assert is_legal_word(r, w, L)


class TestGeneralPattern:
    def test_single_uppercase_spacing(self):
        # degree-3 node in a period-3 block (L=3 offsets: R3=5, word 'ab')
        assert is_legal_general_pattern([(5, 3), (0, 0), (1, 0)])

    def test_degree_exceeding_period_rejected(self):
        assert not is_legal_general_pattern([(5, 4), (0, 0), (1, 0)])

    def test_two_uppercase_too_close(self):
        # two internal duties 1 apart but first needs 2 consecutive sends
        assert not is_legal_general_pattern([(9, 2), (8, 2)])

    def test_two_uppercase_spaced_ok(self):
        entries = [(9, 2), (0, 0), (7, 2), (1, 0)]
        # offsets must also be injective-compatible; just check send logic
        result = is_legal_general_pattern(entries)
        assert isinstance(result, bool)

    def test_correctness_still_checked(self):
        # offsets 1 then 0 collide regardless of degrees
        assert not is_legal_general_pattern([(1, 0), (0, 0)])


class TestAutomaton:
    def test_l3_structure(self):
        auto = word_automaton(3)
        # states are 2-letter windows free of internal collisions
        assert all(len(s) == 2 for s in auto.nodes)
        # 'ba' is an illegal window (b then a = same item)
        assert (1, 0) not in auto.nodes

    def test_walks_yield_legal_words(self):
        # every closed walk through the automaton from a start state
        # corresponds to a legal cyclic lowercase pattern
        import networkx as nx

        auto = word_automaton(3)
        for cycle in nx.simple_cycles(auto):
            if len(cycle) < 2:
                continue
            word = tuple(state[-1] for state in cycle)
            # cyclic rotation of a legal word must be collision-free as a
            # pure lowercase pattern
            assert is_legal_pattern(list(word)), word

    def test_start_states_match_paper(self):
        # the paper's legend: legal patterns are ca(...)* and cc* — the
        # start (double-circle) states are exactly 'ca' and 'cc'
        auto = word_automaton(3)
        starts = {d["label"] for s, d in auto.nodes(data=True) if d["start"]}
        assert starts == {"ca", "cc"}

    def test_recipe_reproduces_legal_words_exactly(self):
        # the paper: the three-step walk recipe gives "precisely those
        # words ... that satisfy the second restriction"
        from repro.core.continuous.words import words_from_automaton

        for r in range(2, 9):
            recipe = words_from_automaton(r, 3)
            exact = set(enumerate_legal_words(r, 3))
            assert recipe == exact, f"r={r}"

    def test_recipe_limited_to_L3(self):
        from repro.core.continuous.words import words_from_automaton

        with pytest.raises(ValueError):
            words_from_automaton(4, 4)
