"""Kernel/oracle validator agreement (property-based).

The legality kernel in :mod:`repro.sim.validate_np` must report
*exactly* the same violation strings as the pure-Python reference in
``tests/oracles/validate.py`` — same messages, same multiplicities — on
any schedule, legal or hostile.  Order may differ (the oracle walks
per-check, the kernel per-array-pass), so agreement is checked as a
multiset.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.core.all_to_all import all_to_all_schedule, k_item_all_to_all_schedule
from repro.core.single_item import optimal_broadcast_schedule
from repro.exec import execute
from repro.machine import heal_columns
from repro.machine.model import machine_from_spec
from repro.params import LogPParams, postal
from repro.schedule.ops import Schedule, SendOp
from repro.sim.validate import violations
from repro.sim.validate_np import violations_np

from tests.oracles.validate import violations_objects


def assert_agree(schedule: Schedule) -> None:
    scalar = violations_objects(schedule)
    vector = violations_np(schedule)
    assert Counter(scalar) == Counter(vector)


@st.composite
def _hostile_schedules(draw):
    """Arbitrary (mostly illegal) schedules exercising every check."""
    g = draw(st.integers(1, 4))
    params = LogPParams(
        P=draw(st.integers(2, 7)),
        L=draw(st.integers(1, 6)),
        o=draw(st.integers(0, min(3, g))),
        g=g,
    )
    n_items = draw(st.integers(1, 3))
    initial: dict[int, set] = {}
    for item in range(n_items):
        if draw(st.booleans()):
            initial.setdefault(draw(st.integers(0, params.P - 1)), set()).add(item)
    n_sends = draw(st.integers(0, 12))
    sends = [
        SendOp(
            time=draw(st.integers(0, 15)),
            src=draw(st.integers(0, params.P - 1)),
            dst=draw(st.integers(0, params.P - 1)),
            item=draw(st.integers(0, n_items - 1)),
        )
        for _ in range(n_sends)
    ]
    return Schedule(params=params, sends=sends, initial=initial or {0: {0}})


class TestFuzzedAgreement:
    @given(schedule=_hostile_schedules())
    @settings(max_examples=200, deadline=None)
    def test_hostile_schedules_agree(self, schedule):
        assert_agree(schedule)

    @given(
        g=st.integers(1, 4),
        P=st.integers(2, 24),
        L=st.integers(1, 8),
        o_raw=st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_optimal_broadcasts_clean_on_both(self, g, P, L, o_raw):
        params = LogPParams(P=P, L=L, o=min(o_raw, g), g=g)
        schedule = optimal_broadcast_schedule(params)
        assert violations_objects(schedule) == []
        assert violations_np(schedule) == []

    @given(P=st.integers(2, 16), L=st.integers(1, 6), k=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_all_to_all_clean_on_both(self, P, L, k):
        schedule = k_item_all_to_all_schedule(postal(P=P, L=L), k)
        assert violations_objects(schedule) == []
        assert violations_np(schedule) == []


class TestDispatch:
    def test_large_schedule_routes_to_numpy_with_identical_result(self):
        # 48*47 = 2256 sends through the public entry point (the kernel)
        # against the oracle
        schedule = all_to_all_schedule(postal(P=48, L=4))
        assert len(schedule.sends) >= 1024
        assert violations(schedule) == violations_objects(schedule) == []

    def test_large_corrupted_schedule_same_messages(self):
        clean = all_to_all_schedule(postal(P=48, L=4))
        schedule = Schedule(
            params=clean.params,
            sends=[
                *clean.sends,
                SendOp(time=0, src=1, dst=1, item=("a2a", 1)),  # self-send
                SendOp(time=0, src=2, dst=3, item=("a2a", 5)),  # causality
            ],
            initial=clean.initial,
        )
        auto = violations(schedule)
        scalar = violations_objects(schedule)
        assert Counter(auto) == Counter(scalar)
        assert any("self-send" in v for v in auto)
        assert any("causality" in v for v in auto)

    def test_empty_schedule(self):
        assert_agree(Schedule(params=postal(P=2, L=1)))


class TestTargetedParity:
    """One deterministic case per violation family (message-exact)."""

    def test_never_held(self):
        s = Schedule(
            params=postal(P=3, L=2),
            sends=[SendOp(time=0, src=1, dst=2, item=0)],
        )
        assert_agree(s)

    def test_held_too_late(self):
        s = Schedule(
            params=postal(P=3, L=5),
            sends=[
                SendOp(time=0, src=0, dst=1, item=0),
                SendOp(time=3, src=1, dst=2, item=0),
            ],
        )
        assert_agree(s)

    def test_send_and_receive_gaps(self):
        p = LogPParams(P=4, L=3, o=0, g=3)
        s = Schedule(
            params=p,
            initial={0: {0}, 1: {1}},
            sends=[
                SendOp(time=0, src=0, dst=2, item=0),
                SendOp(time=1, src=0, dst=3, item=0),  # send gap
                SendOp(time=0, src=1, dst=2, item=1),  # receive gap at proc 2
            ],
        )
        assert_agree(s)

    def test_overhead_overlap(self):
        p = LogPParams(P=3, L=6, o=2, g=4)
        s = Schedule(
            params=p,
            initial={0: {0}, 1: {1}},
            sends=[
                SendOp(time=0, src=0, dst=1, item=0),
                SendOp(time=9, src=1, dst=2, item=1),  # send during recv overhead
            ],
        )
        assert_agree(s)

    def test_capacity_overflow(self):
        p = LogPParams(P=5, L=3, o=0, g=1)
        # 4 in flight, cap = 3
        s = Schedule(params=p, sends=[SendOp(0, 0, i, 0) for i in range(1, 5)])
        assert_agree(s)


class TestRankRange:
    """A send from or to a rank outside ``[0, P)`` is illegal outright."""

    def _postal_plan(self, extra: SendOp) -> Schedule:
        base = registry.plan("broadcast", P=3, L=2)
        return Schedule(base.params, sends=[*base.sends, extra], initial=base.initial)

    def test_flat_receiver_past_the_last_rank(self):
        s = self._postal_plan(SendOp(2, 1, 9))
        assert violations(s) == ["rank out of range: proc 9 receives at t=2 but P=3"]
        assert_agree(s)

    def test_negative_ranks_do_not_wrap(self):
        s = self._postal_plan(SendOp(2, 1, -2))
        assert violations(s) == ["rank out of range: proc -2 receives at t=2 but P=3"]
        assert_agree(s)
        sender = self._postal_plan(SendOp(4, -1, 2))
        assert "rank out of range: proc -1 sends at t=4 but P=3" in violations(sender)

    def test_hier_rank_past_the_machine(self):
        machine = machine_from_spec("hier:8x5:6/2/4:1/0/1")
        base = registry.plan("hier-bcast", machine=machine)
        assert violations(base) == []
        s = Schedule(
            base.params,
            sends=[*base.sends, SendOp(100, 0, 45)],
            initial=base.initial,
            machine=machine,
        )
        assert violations(s) == [
            "rank out of range: proc 45 receives at t=100 but P=40"
        ]

    def test_fault_masked_rank_past_the_machine_is_reported_once(self):
        machine = machine_from_spec("hier:6x6:12/1/2:2/0/1:dead=3+7")
        base, _ = heal_columns(registry.plan("hier-bcast", machine=machine))
        s = Schedule(
            base.params,
            sends=[*base.sends, SendOp(500, 0, 40), SendOp(502, 0, 3)],
            initial=base.initial,
            machine=machine,
        )
        assert violations(s) == [
            "rank out of range: proc 40 receives at t=500 but P=36",
            "dead rank: proc 3 receives at t=502 but is masked out",
        ]

    @pytest.mark.parametrize("transport", ["inproc", "mp"])
    def test_execute_with_verification_refuses_the_plan(self, transport):
        for dst in (9, -2):
            with pytest.raises(ValueError, match="rank out of range"):
                plan = self._postal_plan(SendOp(2, 1, dst))
                execute(plan, transport=transport, verify=True)
