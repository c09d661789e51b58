"""Tests for replay: the validator-backed simulator entry point."""

import pytest

from repro.core.single_item import optimal_broadcast_schedule
from repro.params import postal
from repro.schedule.ops import Schedule
from repro.sim.validate import replay


class TestReplay:
    def test_optimal_broadcast_replays(self, fig1_params):
        trace = replay(optimal_broadcast_schedule(fig1_params))
        assert trace.horizon() == 24

    def test_replay_rejects_illegal(self):
        s = Schedule(params=postal(P=3, L=2))
        s.add(time=0, src=1, dst=2, item=0)
        with pytest.raises(ValueError):
            replay(s)
