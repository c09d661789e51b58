"""Tests for schedule JSON serialization."""

import json

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from repro import registry
from repro.core.all_to_all import all_to_all_schedule
from repro.core.kitem.single_sending import single_sending_schedule
from repro.core.single_item import optimal_broadcast_schedule
from repro.exec.trace import delivered_json
from repro.machine import heal_columns
from repro.machine.model import machine_from_spec
from repro.params import LogPParams, postal
from repro.schedule.serialize import (
    CANONICAL_DUMPS,
    canonical_json,
    dump_schedule,
    encode_item,
    item_json,
    load_schedule,
    schedule_from_json,
    schedule_payload,
    schedule_to_json,
)
from repro.serve.keys import plan_content
from repro.sim.validate import replay
from tests.oracles.serialize import (
    canonical_json_dumps,
    delivered_json_dumps,
    plan_content_dumps,
)


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


# -- the canonical writer against its json.dumps oracle -------------------

_leaves = (
    st.integers()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.booleans()
    | st.text()
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é", " ", "\U0001f600"])
)
_items = st.recursive(
    _leaves | st.frozensets(st.integers()),
    lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=12,
)

_POSTAL = ("kitem", "continuous", "allreduce")


@st.composite
def _registry_plans(draw):
    name = draw(
        st.sampled_from(
            ["broadcast", "reduction", "all-to-all", "summation", "hier-bcast",
             "hier-reduce", *_POSTAL]
        )
    )
    if name.startswith("hier") and draw(st.booleans()):
        nodes, cores = draw(st.integers(2, 4)), draw(st.integers(1, 4))
        spec = f"hier:{nodes}x{cores}:6/2/4:2/0/1"
        dead = set()
        if name == "hier-bcast":  # heal repairs single-item broadcasts only
            dead = draw(st.sets(st.integers(1, nodes * cores - 1), max_size=2))
        if dead:
            spec += ":dead=" + "+".join(map(str, sorted(dead)))
        schedule = registry.plan(name, machine=machine_from_spec(spec))
        return heal_columns(schedule)[0] if dead else schedule
    kwargs = {"P": draw(st.integers(2, 24)), "L": draw(st.integers(1, 6))}
    if name not in _POSTAL:
        kwargs["g"] = draw(st.integers(1, 4))
        kwargs["o"] = draw(st.integers(0, kwargs["g"]))
    if name in ("kitem", "continuous"):
        kwargs["k"] = draw(st.integers(1, 5))
    if name == "summation":
        kwargs["n"] = draw(st.integers(kwargs["P"], 60))
    try:
        return registry.plan(name, **kwargs)
    except ValueError:  # outside the domain (continuous P, summation at o == g)
        reject()


class TestCanonicalWriter:
    @given(item=_items)
    @example(item=((1,), (True,)))
    @example(item=(True, 1, "\u00e9", frozenset({2, -1})))
    @settings(max_examples=300, deadline=None)
    def test_item_json_matches_json_dumps(self, item):
        assert item_json(item, {}) == json.dumps(encode_item(item), **CANONICAL_DUMPS)

    def test_item_json_memo_encodes_each_tuple_once(self):
        memo = {}
        first = item_json(("red", 3), memo)
        assert memo == {("red", 3): first}
        assert item_json(("red", 3), memo) is first

    @given(schedule=_registry_plans())
    @settings(max_examples=60, deadline=None)
    def test_emitter_matches_oracle_on_registry_plans(self, schedule):
        assert schedule_to_json(schedule, canonical=True) == canonical_json_dumps(schedule)
        assert plan_content(schedule) == plan_content_dumps(schedule)

    @given(
        triples=st.lists(
            st.tuples(
                st.integers(0, 6),
                st.integers(0, 6),
                # one writer call shares one memo: no bools beside ints
                st.recursive(
                    st.integers() | st.text(max_size=4),
                    lambda inner: st.lists(inner, max_size=3).map(tuple),
                    max_leaves=6,
                ),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_delivered_json_matches_oracle(self, triples):
        params = postal(P=7, L=2)
        assert delivered_json(params, triples) == delivered_json_dumps(params, triples)

    def test_emitter_matches_oracle_on_odd_items(self):
        from repro.schedule.ops import Schedule

        items = [
            "é\"\\",
            ("t", -(2**70), ("x",)),
            frozenset({3, -1}),
            (),
            # format directives are item text, never format syntax
            "%s%%d",
            ("%", "%s", 5, "100%"),
            # a bool beside an int inside one tuple
            (True, 1),
            (1, (False, ("n", (-2, ()))), "deep"),
        ]
        s = Schedule(
            params=postal(P=3, L=2),
            initial={0: set(items), 2: {7}, 1: {"%d"}},
            source_items={items[1]: 0, items[2]: 4, items[5]: 2, "%d": -1},
        )
        for i, item in enumerate(items):
            # negative send times too
            s.add(i - 3, 0, 1 + i % 2, item=item)
        empty = Schedule(
            params=postal(P=2, L=2),
            initial={0: {("%s", True)}, 1: set()},
            source_items={("%s", True): 3},
        )
        assert empty.num_sends == 0
        for plan in (s, empty):
            for drop in (False, True):
                assert canonical_json(
                    plan, drop_time0_sources=drop
                ) == canonical_json_dumps(plan, drop_time0_sources=drop)
            assert canonical_json(plan) == json.dumps(
                schedule_payload(plan), **CANONICAL_DUMPS
            )
        assert plan_content(s).endswith('[{"fs":[-1,3]},4]]}')
        assert '[-3,0,1,"\\u00e9\\"\\\\"]' in plan_content(s)
        assert '{"t":[true,1]}' in plan_content(s)
        assert '"sends":[]' in plan_content(empty)
