"""The optimal family as a slice of one cached universal run table.

:class:`~repro.schedule.implicit.OptimalTreeFamily` keeps no per-P
state of its own: it slices the rows of a run table cached per
``(send_cost, g)`` and power-of-two rank capacity.  These tests pin that
the slice answers every query exactly as a table built for that ``P``
alone (:class:`tests.oracles.implicit.PerPOptimalTreeFamily`) does,
whatever sequence of ``P`` values grows and shrinks the cache, that the
cached arrays cannot be written through a view, and that planning many
``P`` on one machine runs the census once per capacity, not once per
``P``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.params import LogPParams
from repro.schedule import implicit
from repro.schedule.implicit import OptimalTreeFamily
from tests.oracles.implicit import PerPOptimalTreeFamily

#: Rank counts on and around the cache's capacity boundaries.
_BOUNDARIES = [1, 2, 63, 64, 65, 127, 128, 129, 511, 512, 513, 1024, 1025, 2049]


@st.composite
def _machine(draw):
    g = draw(st.integers(1, 5))
    return draw(st.integers(1, 9)), draw(st.integers(0, min(3, g))), g


def _assert_same_family(ours, oracle, data):
    assert ours.num_runs == oracle.num_runs
    assert ours.makespan == oracle.makespan
    for got, want in zip(ours.rank_table(), oracle.rank_table()):
        assert got.tolist() == want.tolist()
    P = ours.P
    ranks = np.asarray(
        data.draw(st.lists(st.integers(0, P - 1), min_size=1, max_size=32)),
        dtype=np.int64,
    )
    assert ours.inform_times(ranks).tolist() == oracle.inform_times(ranks).tolist()
    nonroot = ranks[ranks >= 1]
    assert ours.parents(nonroot).tolist() == oracle.parents(nonroot).tolist()
    for rank in ranks[:4].tolist():
        assert ours.children(rank).tolist() == oracle.children(rank).tolist()
    lo = data.draw(st.integers(0, P - 1))
    hi = data.draw(st.integers(lo, P - 1))
    for got, want in zip(ours.edge_facts(lo, hi), oracle.edge_facts(lo, hi)):
        assert got.tolist() == want.tolist(), (lo, hi)


class TestSliceMatchesPerPTable:
    @given(
        machine=_machine(),
        sizes=st.lists(
            st.one_of(st.integers(1, 3000), st.sampled_from(_BOUNDARIES)),
            min_size=1,
            max_size=8,
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_query_matches_oracle(self, machine, sizes, data):
        L, o, g = machine
        for P in sizes:
            params = LogPParams(P=P, L=L, o=o, g=g)
            _assert_same_family(
                OptimalTreeFamily(params), PerPOptimalTreeFamily(params), data
            )

    def test_million_ranks(self):
        params = LogPParams(P=1_000_123, L=6, o=2, g=4)
        ours = OptimalTreeFamily(params)
        oracle = PerPOptimalTreeFamily(params)
        assert ours.num_runs == oracle.num_runs == 875
        assert ours.makespan == oracle.makespan
        for got, want in zip(
            ours.edge_facts(999_000, 1_000_122),
            oracle.edge_facts(999_000, 1_000_122),
        ):
            assert got.tolist() == want.tolist()


class TestCachedTable:
    def test_cached_arrays_are_read_only(self):
        family = OptimalTreeFamily(LogPParams(P=100, L=6, o=2, g=4))
        for row in (
            family._run_start,
            family._run_delay,
            family._run_parent_delay,
            family._run_shift,
        ):
            with pytest.raises(ValueError):
                row[0] = 7
        table = implicit._universal_runs(10, 4, 128)
        with pytest.raises(ValueError):
            table[0, 0] = 7

    def test_census_runs_once_per_capacity(self, monkeypatch):
        calls = []
        census = implicit.broadcast_census

        def counting(P, params):
            calls.append(P)
            return census(P, params)

        implicit._universal_runs.cache_clear()
        monkeypatch.setattr(implicit, "broadcast_census", counting)
        for P in range(2, 514):
            registry.plan("broadcast", LogPParams(P=P, L=6, o=2, g=4))
        for P in range(2, 130):
            registry.plan("reduction", LogPParams(P=P, L=6, o=2, g=4))
        assert calls == [64, 128, 256, 512, 1024]
