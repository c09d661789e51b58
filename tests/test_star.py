"""Tests for the star-tree construction (large-latency k-item broadcast)."""

import pytest

from repro.core.continuous.schedule import expand
from repro.core.kitem.bounds import kitem_upper_bound
from repro.core.kitem.star import (
    _near_complete_mapping,
    star_assignment,
    star_fits,
    star_tree,
)
from repro.schedule.analysis import item_completion_times
from repro.sim.validate import replay
from repro.sim.validate import is_single_sending, single_reception_violations


class TestMapping:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 14, 30, 48, 101, 200])
    @pytest.mark.parametrize("L", [2, 7, 30])
    def test_properties(self, n, L):
        x = _near_complete_mapping(n, L)
        assert x is not None and len(x) == n - 1
        assert len(set(x)) == n - 1  # distinct letters
        sums = [(j + m) % n for j, m in enumerate(x, start=1)]
        assert len(set(sums)) == n - 1  # distinct sums mod n
        for j, m in enumerate(x, start=1):
            assert m != (L - 1 - j) % n  # avoids the uppercase diagonal

    def test_odd_n_is_affine(self):
        x = _near_complete_mapping(9, 4)
        assert x == [(j + 3) % 9 for j in range(1, 9)]

    def test_n1(self):
        assert _near_complete_mapping(1, 5) == []


class TestStarTree:
    def test_shape(self):
        tree = star_tree(8, 10)
        tree.validate()
        assert tree.root.out_degree == 7
        assert sorted(n.delay for n in tree.leaves()) == list(range(10, 17))

    def test_fits_predicate(self):
        assert star_fits(10, 12)       # B(9, 12) = big, P-2 = 8
        assert not star_fits(20, 3)    # B(19, 3) = 10 < 18
        assert not star_fits(2, 5)


class TestStarAssignment:
    @pytest.mark.parametrize("P,L", [(3, 2), (10, 12), (16, 15), (32, 22), (50, 40)])
    def test_validates(self, P, L):
        a = star_assignment(P, L)
        assert a is not None
        assert a.completion == L + P - 3

    @pytest.mark.parametrize("P,L,k", [(32, 22, 16), (24, 30, 10), (10, 12, 5)])
    def test_expansion_legal_and_bounded(self, P, L, k):
        a = star_assignment(P, L)
        s = expand(a, num_items=k)
        replay(s)
        assert is_single_sending(s)
        assert not single_reception_violations(s)
        done = max(item_completion_times(s, set(range(P))).values())
        assert done == (k - 1) + L + (L + P - 3)
        if star_fits(P, L):
            assert done <= kitem_upper_bound(P, L, k)

    def test_none_for_tiny(self):
        assert star_assignment(2, 5) is None
