"""Tests for the buffered (modified) model schedules (Theorem 3.8)."""

import pytest

from repro.core.fib import reachable_postal, single_sending_lower_bound
from repro.core.kitem.buffered import buffered_schedule


class TestFig5:
    def test_exact_parameters(self):
        # L=3, P-1 = 13 = P(8), k=14: completion must be B + L + k - 1 = 24
        s = buffered_schedule(14, 8, 3)
        s.validate()
        assert s.P == 14
        assert s.completion == 24
        assert s.completion == s.bound

    def test_buffer_at_most_two(self):
        s = buffered_schedule(14, 8, 3)
        assert s.buffer_peak <= 2

    def test_has_delayed_items(self):
        # Figure 5 shows boxed (delayed) entries; our schedule has them too
        s = buffered_schedule(14, 8, 3)
        assert len(s.delayed_items()) > 0

    def test_single_sending(self):
        s = buffered_schedule(14, 8, 3)
        source_sends = [op for op in s.sends if op.src == 0]
        assert sorted(op.item for op in source_sends) == list(range(14))
        assert sorted(op.time for op in source_sends) == list(range(14))


class TestSweep:
    @pytest.mark.parametrize("L,t", [(2, 5), (2, 8), (3, 6), (3, 9), (4, 8), (5, 9)])
    @pytest.mark.parametrize("k", [1, 4, 11])
    def test_achieves_single_sending_bound(self, L, t, k):
        if reachable_postal(t, L) < 2:
            pytest.skip("degenerate machine")
        s = buffered_schedule(k, t, L)
        s.validate()
        assert s.completion <= single_sending_lower_bound(s.P, L, k)

    def test_every_processor_every_item(self):
        s = buffered_schedule(5, 6, 3)
        for p in range(1, s.P):
            items = {item for (proc, item) in s.receptions if proc == p}
            assert items == set(range(5))

    def test_one_reception_per_step(self):
        s = buffered_schedule(7, 7, 3)
        steps: dict[tuple[int, int], int] = {}
        for (p, _item), (_a, recv, _act) in s.receptions.items():
            key = (p, recv)
            assert key not in steps, "double reception"
            steps[key] = 1

    def test_receive_after_arrival(self):
        s = buffered_schedule(6, 6, 2)
        for (_p, _item), (arrival, recv, _act) in s.receptions.items():
            assert recv >= arrival


class TestValidation:
    def test_validate_catches_overfull_buffer(self):
        s = buffered_schedule(4, 5, 3)
        s.buffer_peak = 3
        with pytest.raises(ValueError, match="buffer"):
            s.validate()

    def test_validate_catches_missing_reception(self):
        s = buffered_schedule(4, 5, 3)
        key = next(iter(s.receptions))
        del s.receptions[key]
        with pytest.raises(ValueError):
            s.validate()
