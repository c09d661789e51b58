"""Tests for the LogP legality validator."""

import pytest

from repro.params import LogPParams, postal
from repro.schedule.ops import Schedule
from repro.sim.validate import (
    assert_valid,
    is_single_sending,
    single_reception_violations,
    violations,
)


def postal_sched(P=4, L=3) -> Schedule:
    return Schedule(params=postal(P=P, L=L))


class TestCausality:
    def test_sending_unheld_item(self):
        s = postal_sched()
        s.add(time=0, src=1, dst=2, item=0)  # proc 1 never holds item 0
        assert any("causality" in v for v in violations(s))

    def test_sending_before_arrival(self):
        s = postal_sched(L=5)
        s.add(time=0, src=0, dst=1, item=0)  # arrives at 5
        s.add(time=3, src=1, dst=2, item=0)  # too early
        assert any("causality" in v for v in violations(s))

    def test_forward_after_arrival_ok(self):
        s = postal_sched(L=5)
        s.add(time=0, src=0, dst=1, item=0)
        s.add(time=5, src=1, dst=2, item=0)
        assert violations(s) == []

    def test_self_send_rejected(self):
        s = postal_sched()
        s.add(time=0, src=0, dst=0, item=0)
        assert any("self-send" in v for v in violations(s))


class TestGaps:
    def test_send_gap_violation(self):
        p = LogPParams(P=4, L=3, o=0, g=2)
        s = Schedule(params=p)
        s.add(time=0, src=0, dst=1, item=0)
        s.add(time=1, src=0, dst=2, item=0)  # < g apart
        assert any("send gap" in v for v in violations(s))

    def test_receive_gap_violation(self):
        # two messages land at proc 2 in the same step
        s = Schedule(params=postal(P=3, L=3), initial={0: {0}, 1: {1}})
        s.add(time=0, src=0, dst=2, item=0)
        s.add(time=0, src=1, dst=2, item=1)
        assert any("receive gap" in v for v in violations(s))

    def test_gap_exactly_g_ok(self):
        p = LogPParams(P=4, L=3, o=0, g=2)
        s = Schedule(params=p)
        s.add(time=0, src=0, dst=1, item=0)
        s.add(time=2, src=0, dst=2, item=0)
        assert violations(s) == []


class TestOverhead:
    def test_send_recv_overlap_rejected(self):
        # proc 1 receives during [8, 10) (o=2, L=6) and tries to send at 9
        p = LogPParams(P=3, L=6, o=2, g=4)
        s = Schedule(params=p, initial={0: {0}, 1: {1}})
        s.add(time=0, src=0, dst=1, item=0)
        s.add(time=9, src=1, dst=2, item=1)
        assert any("overhead" in v for v in violations(s))

    def test_back_to_back_ok(self):
        p = LogPParams(P=3, L=6, o=2, g=4)
        s = Schedule(params=p, initial={0: {0}, 1: {1}})
        s.add(time=0, src=0, dst=1, item=0)
        s.add(time=10, src=1, dst=2, item=1)  # right after recv overhead ends
        assert violations(s) == []


class TestCapacity:
    def test_gap_respecting_pipeline_is_within_capacity(self):
        # the capacity bound ceil(L/g) is exactly what a g-spaced sender
        # produces, so a legal pipeline never trips it
        s = Schedule(params=postal(P=6, L=3))
        for i in range(4):
            s.add(time=i, src=0, dst=i + 1, item=0)
        assert violations(s) == []

    def test_burst_to_one_destination_over_capacity(self):
        # g=2 -> capacity ceil(4/2)=2, but three messages from proc 0 are
        # in transit simultaneously when sent 2 apart with L=8
        p = LogPParams(P=5, L=8, o=0, g=2)
        s = Schedule(params=p)
        s.add(time=0, src=0, dst=1, item=0)
        s.add(time=2, src=0, dst=2, item=0)
        s.add(time=4, src=0, dst=3, item=0)
        # in transit from proc 0 during [4, 8): three messages > capacity 4?
        # capacity = ceil(8/2) = 4 -> legal; shrink to L=3, g=2 (capacity 2)
        p2 = LogPParams(P=5, L=3, o=0, g=2)
        s2 = Schedule(params=p2)
        s2.add(time=0, src=0, dst=1, item=0)
        s2.add(time=1, src=0, dst=2, item=0)  # violates send gap AND capacity
        s2.add(time=2, src=0, dst=3, item=0)
        msgs = violations(s2)
        assert any("capacity" in v for v in msgs)


class TestAssertValid:
    def test_raises_with_details(self):
        s = postal_sched()
        s.add(time=0, src=2, dst=1, item=0)
        with pytest.raises(ValueError, match="causality"):
            assert_valid(s)

    def test_passes_clean(self):
        s = postal_sched(L=2)
        s.add(time=0, src=0, dst=1, item=0)
        assert_valid(s)


class TestProblemSpecific:
    def test_duplicate_reception_flagged(self):
        s = postal_sched(L=2)
        s.add(time=0, src=0, dst=1, item=0)
        s.add(time=3, src=0, dst=1, item=0)
        assert len(single_reception_violations(s)) == 1

    def test_receiving_initial_item_flagged(self):
        s = Schedule(params=postal(P=2, L=2), initial={0: {0}, 1: {0}})
        s.add(time=0, src=0, dst=1, item=0)
        assert len(single_reception_violations(s)) == 1

    def test_single_sending_detection(self):
        s = Schedule(params=postal(P=3, L=1), initial={0: {0, 1}})
        s.add(time=0, src=0, dst=1, item=0)
        s.add(time=1, src=0, dst=2, item=1)
        assert is_single_sending(s)
        s.add(time=2, src=0, dst=2, item=0)
        assert not is_single_sending(s)

    def test_untransmitted_item_is_not_single_sending(self):
        # regression: source holds {0, 1} but only ever sends item 0 —
        # the old predicate vacuously returned True
        s = Schedule(params=postal(P=3, L=1), initial={0: {0, 1}})
        s.add(time=0, src=0, dst=1, item=0)
        assert not is_single_sending(s)

    def test_source_sending_nothing_is_not_single_sending(self):
        s = Schedule(params=postal(P=3, L=1), initial={0: {0}})
        assert not is_single_sending(s)

    def test_explicit_item_set_overrides_initial(self):
        # quantify over item 0 only: the untransmitted item 1 is excused
        s = Schedule(params=postal(P=3, L=1), initial={0: {0, 1}})
        s.add(time=0, src=0, dst=1, item=0)
        assert is_single_sending(s, items={0})
        assert not is_single_sending(s, items={0, 1})

    def test_duplicate_send_outside_item_set_still_rejected(self):
        s = Schedule(params=postal(P=4, L=1), initial={0: {0}})
        s.add(time=0, src=0, dst=1, item=0)
        s.add(time=1, src=0, dst=2, item=7)
        s.add(time=2, src=0, dst=3, item=7)  # item 7 sent twice
        assert not is_single_sending(s, items={0})

    def test_non_default_source(self):
        s = Schedule(params=postal(P=3, L=1), initial={1: {"x"}})
        s.add(time=0, src=1, dst=0, item="x")
        assert is_single_sending(s, source=1)
        assert not is_single_sending(s, source=2, items={"x"})
