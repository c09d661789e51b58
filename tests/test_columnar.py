"""Tests for the columnar schedule storage (repro.schedule.columnar)."""

import numpy as np
import pytest

from repro.core.all_to_all import (
    all_to_all_personalized_schedule,
    all_to_all_schedule,
    k_item_all_to_all_schedule,
)
from repro.core.single_item import schedule_from_tree
from repro.core.tree import optimal_tree
from repro.params import LogPParams, postal
from repro.schedule.columnar import (
    ItemTable,
    arrays_to_columns,
    materialize_sends,
    sort_order,
)
from repro.schedule.ops import Schedule, SendOp
from repro.schedule.serialize import schedule_from_json, schedule_to_json
from repro.sim.validate import violations

from tests.oracles.builders import (
    all_to_all_personalized_schedule_objects,
    all_to_all_schedule_objects,
    k_item_all_to_all_schedule_objects,
    schedule_from_tree_objects,
)


class TestItemTable:
    def test_insertion_order_interning(self):
        table = ItemTable()
        assert table.intern("b") == 0
        assert table.intern("a") == 1
        assert table.intern("b") == 0  # idempotent
        assert table.items == ["b", "a"]
        assert table.codes == {"b": 0, "a": 1}

    def test_mixed_tuple_and_int_items(self):
        # interning must not require items to be mutually orderable —
        # int < tuple raises TypeError, but hashing is enough
        stream = [0, ("blk", 1), 0, ("blk", 1), 1, ("blk", 0, 2)]
        table = ItemTable()
        codes = table.encode(stream)
        assert codes.tolist() == [0, 1, 0, 1, 2, 3]
        assert table.items == [0, ("blk", 1), 1, ("blk", 0, 2)]
        # same stream -> same table, deterministically
        again = ItemTable()
        assert again.encode(stream).tolist() == codes.tolist()
        assert again.items == table.items

    def test_decode_roundtrip(self):
        table = ItemTable([("a2a", i) for i in range(5)])
        for i in range(5):
            assert table[table.intern(("a2a", i))] == ("a2a", i)
        assert len(table) == 5
        assert ("a2a", 3) in table
        assert list(table) == [("a2a", i) for i in range(5)]

    def test_copy_is_independent(self):
        table = ItemTable(["x"])
        clone = table.copy()
        clone.intern("y")
        assert len(table) == 1
        assert len(clone) == 2

    def test_distinct_builds_the_same_table_in_bulk(self):
        items = [("rev", r) for r in (5, 1, 9)]
        bulk = ItemTable.distinct(iter(items))
        one_by_one = ItemTable(items)
        assert bulk.items == one_by_one.items
        assert bulk.codes == one_by_one.codes
        assert ItemTable.distinct([]).items == []

    def test_distinct_rejects_a_repeated_item(self):
        with pytest.raises(ValueError, match=r"item \('rev', 1\) repeats"):
            ItemTable.distinct([("rev", 1), ("rev", 2), ("rev", 1)])

    def test_corrupt_codes_raise_index_error(self):
        # corrupted/foreign columns used to wrap around via Python's
        # negative indexing (-1 silently decoded to the *last* item)
        table = ItemTable(["a", "b", "c"])
        for bad in (-1, -3, 3, 10):
            with pytest.raises(IndexError, match="out of range"):
                table.decode(bad)
            with pytest.raises(IndexError, match="out of range"):
                table[bad]
        with pytest.raises(IndexError, match=r"table of 0 item"):
            ItemTable().decode(0)


class TestArraysToColumns:
    def test_shape_mismatch_rejected(self):
        p = postal(P=3, L=2)
        with pytest.raises(ValueError, match="identical length"):
            arrays_to_columns(
                p,
                np.arange(3),
                np.arange(2),
                np.arange(3),
                None,
                None,
                {0: {0}},
            )

    def test_codes_without_table_rejected(self):
        p = postal(P=3, L=2)
        with pytest.raises(ValueError, match="without an item_table"):
            arrays_to_columns(
                p, np.arange(2), np.zeros(2), np.ones(2), np.zeros(2), None, {}
            )

    def test_out_of_range_codes_rejected(self):
        p = postal(P=3, L=2)
        with pytest.raises(ValueError, match="item codes"):
            arrays_to_columns(
                p,
                np.arange(2),
                np.zeros(2),
                np.ones(2),
                np.array([0, 5]),
                ItemTable([0, 1]),
                {},
            )

    def test_negative_proc_rejected(self):
        p = postal(P=3, L=2)
        with pytest.raises(ValueError, match="non-negative"):
            arrays_to_columns(
                p, np.zeros(1), np.array([-1]), np.zeros(1), None, None, {}
            )

    def test_int64_arrays_are_zero_copy(self):
        p = postal(P=4, L=2)
        times = np.array([0, 1, 2], dtype=np.int64)
        cols = arrays_to_columns(
            p, times, np.zeros(3, np.int64), np.arange(1, 4), None, None, {0: {0}}
        )
        assert cols.times is times
        assert cols.num_procs == 4
        assert cols.arrivals.tolist() == [2, 3, 4]


class TestFromArrays:
    def _small(self):
        p = postal(P=3, L=2)
        table = ItemTable(["m0", "m1"])
        return Schedule.from_arrays(
            p,
            np.array([0, 1, 0]),
            np.array([0, 0, 1]),
            np.array([1, 2, 2]),
            item_codes=np.array([0, 0, 1]),
            item_table=table,
            initial={0: {"m0"}, 1: {"m1"}},
        )

    def test_lazy_materialization(self):
        s = self._small()
        assert s.is_array_backed
        assert s.num_sends == len(s) == 3
        # queries that have vectorized paths do not materialize
        assert s.items() == {"m0", "m1"}
        assert s.processors() == {0, 1, 2}
        assert s.is_array_backed
        # touching .sends materializes, preserving storage order
        assert s.sends == [
            SendOp(0, 0, 1, "m0"),
            SendOp(1, 0, 2, "m0"),
            SendOp(0, 1, 2, "m1"),
        ]
        assert not s.is_array_backed

    def test_materialized_equals_object_built(self):
        s = self._small()
        o = Schedule(
            params=s.params, initial={0: {"m0"}, 1: {"m1"}}
        )
        o.add(0, 0, 1, "m0")
        o.add(1, 0, 2, "m0")
        o.add(0, 1, 2, "m1")
        assert s == o

    def test_default_single_item_table(self):
        p = postal(P=2, L=1)
        s = Schedule.from_arrays(p, np.array([0]), np.array([0]), np.array([1]))
        assert s.sends == [SendOp(0, 0, 1, 0)]

    def test_add_after_materialization_invalidates_columns(self):
        s = self._small()
        cols = s.columns()
        s.add(5, 2, 0, "m1")
        cols2 = s.columns()
        assert cols2 is not cols
        assert len(cols2) == 4
        assert cols2.times.tolist()[-1] == 5


class TestScheduleCaches:
    def _sched(self):
        s = Schedule(params=postal(P=4, L=2))
        s.add(3, 0, 1)
        s.add(0, 0, 2)
        s.add(1, 0, 3)
        return s

    def test_sorted_sends_cached_and_invalidated(self):
        s = self._sched()
        first = s.sorted_sends()
        assert first is s.sorted_sends()  # cached
        s.add(2, 0, 1)
        second = s.sorted_sends()
        assert second is not first
        assert [op.time for op in second] == [0, 1, 2, 3]

    def test_extend_invalidates(self):
        s = self._sched()
        first = s.sorted_sends()
        assert first is s.sorted_sends()
        s.extend([SendOp(9, 1, 2)])
        assert [op.time for op in s.sorted_sends() if op.src == 1] == [9]

    def test_sends_setter_invalidates(self):
        s = self._sched()
        s.sorted_sends()
        s.columns()
        s.sends = [SendOp(7, 2, 3)]
        assert [op.time for op in s.sorted_sends()] == [7]
        assert s.columns().times.tolist() == [7]

    def test_external_append_detected_by_length(self):
        # direct mutation of the list bypasses add(); the length check
        # still catches it on the next derived-view call
        s = self._sched()
        s.sorted_sends()
        s.columns()
        s.sends.append(SendOp(10, 1, 0))
        assert len(s.sorted_sends()) == 4
        assert len(s.columns()) == 4

    def test_columns_cached_for_object_backed(self):
        s = self._sched()
        assert s.columns() is s.columns()

    def test_mixed_item_ties_do_not_crash_sort(self):
        # two sends at identical (time, src, dst) carrying int vs tuple
        # items: SendOp's own ordering would raise TypeError
        s = Schedule(params=postal(P=3, L=1), initial={0: {0, ("blk", 1)}})
        s.add(0, 0, 1, item=0)
        s.add(0, 0, 1, item=("blk", 1))
        ops = s.sorted_sends()
        assert [op.item for op in ops] == [0, ("blk", 1)]  # stable, by position
        assert list(s) == ops

    def test_sort_order_matches_python_sort(self):
        s = self._sched()
        order = sort_order(s.columns())
        materialized = materialize_sends(s.columns())
        assert [materialized[i] for i in order.tolist()] == s.sorted_sends()


class TestBuilderEquivalence:
    @pytest.mark.parametrize("P,L", [(2, 1), (5, 3), (9, 2)])
    def test_all_to_all_backends_agree(self, P, L):
        params = postal(P=P, L=L)
        fast = all_to_all_schedule(params)
        oracle = all_to_all_schedule_objects(params)
        assert fast.sends == oracle.sends
        assert fast.initial == oracle.initial
        assert violations(fast) == violations(oracle) == []

    def test_all_to_all_custom_orders(self):
        P = 5
        params = postal(P=P, L=2)
        orders = [[(i + d) % P for d in range(1, P)] for i in range(P)]
        fast = all_to_all_schedule(params, orders)
        oracle = all_to_all_schedule_objects(params, orders)
        assert fast.sends == oracle.sends

    def test_all_to_all_bad_orders_still_validated(self):
        params = postal(P=3, L=2)
        with pytest.raises(ValueError):
            all_to_all_schedule(params, [[1, 2], [0, 2], [1, 0]])

    @pytest.mark.parametrize("P", [2, 4, 7])
    def test_personalized_backends_agree(self, P):
        params = postal(P=P, L=3)
        fast = all_to_all_personalized_schedule(params)
        oracle = all_to_all_personalized_schedule_objects(params)
        assert fast.sends == oracle.sends
        assert fast.initial == oracle.initial

    @pytest.mark.parametrize("P,k", [(2, 1), (5, 3), (4, 2)])
    def test_kitem_backends_agree(self, P, k):
        params = postal(P=P, L=2)
        fast = k_item_all_to_all_schedule(params, k)
        oracle = k_item_all_to_all_schedule_objects(params, k)
        assert fast.sends == oracle.sends
        assert fast.initial == oracle.initial

    @pytest.mark.parametrize(
        "params",
        [postal(P=13, L=3), LogPParams(P=8, L=6, o=2, g=4)],
    )
    def test_tree_emitter_backends_agree(self, params):
        tree = optimal_tree(params)
        fast = schedule_from_tree(tree, item=("bcast", 0), start_time=4)
        oracle = schedule_from_tree_objects(tree, item=("bcast", 0), start_time=4)
        assert fast.sends == oracle.sends
        assert fast.initial == oracle.initial
        assert fast.source_items == oracle.source_items

    def test_tree_emitter_proc_map(self):
        params = postal(P=9, L=2)
        tree = optimal_tree(params)
        mapping = {i: (i + 3) % 9 for i in range(9)}
        fast = schedule_from_tree(tree, proc_map=mapping)
        oracle = schedule_from_tree_objects(tree, proc_map=mapping)
        assert fast.sends == oracle.sends
        assert fast.initial == oracle.initial


class TestSerializeColumnar:
    def test_array_backed_serializes_without_materializing(self):
        s = all_to_all_schedule(postal(P=6, L=2))
        assert s.is_array_backed
        text = schedule_to_json(s)
        assert s.is_array_backed  # serialization stayed in the arrays
        r = schedule_from_json(text)
        assert r.sorted_sends() == s.sorted_sends()
        assert r.initial == s.initial

    def test_backends_serialize_identically(self):
        params = postal(P=7, L=3)
        fast = all_to_all_schedule(params)
        oracle = all_to_all_schedule_objects(params)
        assert schedule_to_json(fast) == schedule_to_json(oracle)
