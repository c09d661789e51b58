"""One labeling of the universal tree (Definitions 2.3/2.4).

The run table of :class:`~repro.schedule.implicit.OptimalTreeFamily`
numbers the ranks of ``B(P)``; the registry's broadcast and reduction,
the :func:`~repro.core.tree.optimal_tree` view and the implicit plans
all read it.  These properties pin that labeling against the
per-processor heap construction (``tests.oracles.tree``), pin the
implicit and columnar plans to each other, and check that every
``B(P)`` is a prefix of the universal tree.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tree import optimal_tree
from repro.params import LogPParams
from repro.registry import plan
from repro.schedule.columnar import ItemTable
from repro.schedule.implicit import (
    OptimalTreeFamily,
    implicit_broadcast,
    implicit_reduction,
)
from repro.schedule.ops import Schedule
from repro.serve.keys import plan_content
from tests.oracles.tree import optimal_broadcast_schedule_heap, optimal_tree_heap


@st.composite
def _machines(draw, max_P=1500):
    g = draw(st.integers(1, 6))
    return LogPParams(
        P=draw(st.integers(1, max_P)),
        L=draw(st.integers(1, 9)),
        o=draw(st.integers(0, min(3, g))),
        g=g,
    )


def _nodes(tree):
    return [(n.index, n.delay, n.parent, n.children) for n in tree.nodes]


def _as_red(implicit: Schedule) -> Schedule:
    """An implicit reduction in the columnar reduction's naming: items
    ``("rev", r)`` become ``("red", r)`` and the root holds its own
    ``("red", 0)`` from the start."""
    cols = implicit.columns()
    rename = {item: ("red", item[1]) for item in cols.table.items}
    # the implicit root holds nothing (P=1 falls back to Schedule's
    # default placement), so its entry is replaced, not renamed
    initial = {
        p: {rename[i] for i in items}
        for p, items in implicit.initial.items()
        if p != 0
    }
    initial[0] = {("red", 0)}
    return Schedule.from_arrays(
        implicit.params,
        cols.times,
        cols.srcs,
        cols.dsts,
        cols.items,
        ItemTable(rename[item] for item in cols.table.items),
        initial=initial,
        source_items={rename[i]: t for i, t in implicit.source_items.items()},
    )


class TestOneLabeling:
    @given(params=_machines())
    @settings(max_examples=60, deadline=None)
    def test_registry_broadcast_is_the_heap_schedule(self, params):
        built = plan("broadcast", params)
        heap = optimal_broadcast_schedule_heap(params)
        ours, theirs = built.columns(), heap.columns()
        for column in ("times", "srcs", "dsts", "items"):
            assert getattr(ours, column).tolist() == getattr(theirs, column).tolist()
        assert built.initial == heap.initial == {0: {0}}
        assert built.source_items == heap.source_items == {0: 0}
        assert built == heap
        assert plan_content(built) == plan_content(heap)

    @given(params=_machines())
    @settings(max_examples=60, deadline=None)
    def test_optimal_tree_is_the_heap_tree(self, params):
        tree = optimal_tree(params)
        tree.validate()
        assert _nodes(tree) == _nodes(optimal_tree_heap(params))

    @given(params=_machines())
    @settings(max_examples=60, deadline=None)
    def test_implicit_and_columnar_plans_share_their_content(self, params):
        assert plan_content(implicit_broadcast(params).materialize()) == (
            plan_content(plan("broadcast", params))
        )
        implicit = _as_red(implicit_reduction(params).materialize())
        assert plan_content(implicit) == plan_content(plan("reduction", params))


class TestPrefixStability:
    """``B(P)`` is the first ``P`` ranks of ``B(P')`` for ``P < P'``: its
    edges, in destination-rank order, are the first ``P - 1`` of the
    larger plan's."""

    @given(big=_machines(max_P=3000), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_run_table_plans_are_prefixes(self, big, data):
        P = data.draw(st.integers(1, big.P))
        small = big.with_processors(P)
        edges = [
            plan("broadcast", params).columns() for params in (small, big)
        ]
        # destination-rank order: edge i delivers to rank i + 1
        ours, theirs = (
            np.stack([c.times, c.srcs, c.dsts])[:, np.argsort(c.dsts)]
            for c in edges
        )
        assert ours.tolist() == theirs[:, : P - 1].tolist()
        delays, parents = OptimalTreeFamily(small).rank_table()
        big_delays, big_parents = OptimalTreeFamily(big).rank_table()
        assert delays.tolist() == big_delays[:P].tolist()
        assert parents.tolist() == big_parents[:P].tolist()

    @given(big=_machines(max_P=600), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_optimal_tree_is_a_prefix(self, big, data):
        P = data.draw(st.integers(1, big.P))
        small = optimal_tree(big.with_processors(P))
        large = optimal_tree(big)
        for node, twin in zip(small.nodes, large.nodes[:P]):
            assert (node.delay, node.parent) == (twin.delay, twin.parent)
            assert node.children == [c for c in twin.children if c < P]
