"""Tests for schedule JSON serialization."""

import pytest

from repro.core.all_to_all import all_to_all_schedule
from repro.core.kitem.single_sending import single_sending_schedule
from repro.core.single_item import optimal_broadcast_schedule
from repro.params import LogPParams, postal
from repro.schedule.serialize import (
    dump_schedule,
    load_schedule,
    schedule_from_json,
    schedule_to_json,
)
from repro.sim.validate import replay


def roundtrip(schedule):
    return schedule_from_json(schedule_to_json(schedule))


class TestRoundTrip:
    def test_broadcast(self):
        s = optimal_broadcast_schedule(LogPParams(P=8, L=6, o=2, g=4))
        r = roundtrip(s)
        assert r.params == s.params
        assert r.sorted_sends() == s.sorted_sends()
        assert r.initial == s.initial
        replay(r)

    def test_kitem_with_source_items(self):
        s = single_sending_schedule(4, 10, 3)
        r = roundtrip(s)
        assert r.source_items == s.source_items
        assert r.sorted_sends() == s.sorted_sends()

    def test_tuple_items(self):
        s = all_to_all_schedule(postal(P=4, L=2))
        r = roundtrip(s)
        assert {op.item for op in r.sends} == {op.item for op in s.sends}
        replay(r)

    def test_file_io(self, tmp_path):
        s = optimal_broadcast_schedule(postal(P=5, L=2))
        path = tmp_path / "plan.json"
        dump_schedule(s, str(path))
        r = load_schedule(str(path))
        assert r.sorted_sends() == s.sorted_sends()

    def test_format_checked(self):
        with pytest.raises(ValueError, match="unsupported format"):
            schedule_from_json('{"format": "something-else"}')

    def test_unserializable_item_rejected(self):
        from repro.schedule.ops import Schedule

        s = Schedule(params=postal(P=2, L=1), initial={0: {object()}})
        with pytest.raises(TypeError):
            schedule_to_json(s)


class TestSerializeProperty:
    def test_roundtrip_property(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(P=st.integers(2, 20), L=st.integers(1, 5))
        @settings(max_examples=25, deadline=None)
        def check(P, L):
            s = optimal_broadcast_schedule(postal(P=P, L=L))
            r = roundtrip(s)
            assert r.sorted_sends() == s.sorted_sends()
            assert r.params == s.params

        check()

    def test_frozenset_items(self):
        from repro.schedule.ops import Schedule

        s = Schedule(
            params=postal(P=3, L=2),
            initial={0: {frozenset({1, 2})}},
        )
        s.add(0, 0, 1, item=frozenset({1, 2}))
        r = roundtrip(s)
        assert r.initial == s.initial
