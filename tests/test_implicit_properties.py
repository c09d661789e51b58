"""Implicit-vs-materialized equivalence (property-based).

The implicit IR's whole contract is that it is *observationally* the
materialized schedule: concatenating streamed chunks must reproduce the
full build byte-for-byte (canonical JSON), the per-rank queries must
agree with the realized send list, legality must hold under the
simulator's validators, and the chunked lint engine must report the
same totals as the full engine on every rule both run — across random
machines, tree families, chunk sizes, and shift/remap rewrites.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze import lint_schedule
from repro.analyze.chunked import lint_implicit
from repro.params import LogPParams
from repro.schedule.columnar import materialize_sends
from repro.schedule.implicit import (
    OptimalTreeFamily,
    implicit_broadcast,
    implicit_reduction,
)
from repro.schedule.ops import Schedule
from repro.schedule.serialize import schedule_to_json
from repro.sim.validate import violations
from repro.sim.validate_np import violations_np_implicit
from tests.oracles.implicit import (
    optimal_delays,
    optimal_edge_facts,
    optimal_parents,
)


@st.composite
def _plans(draw, max_P=48):
    """A random implicit plan on a random small machine."""
    g = draw(st.integers(1, 4))
    params = LogPParams(
        P=draw(st.integers(1, max_P)),
        L=draw(st.integers(1, 6)),
        o=draw(st.integers(0, min(3, g))),
        g=g,
    )
    family = draw(st.sampled_from(["optimal", "binomial"]))
    build = draw(st.sampled_from([implicit_broadcast, implicit_reduction]))
    return build(params, family=family)


@st.composite
def _machines(draw, max_P=5000):
    g = draw(st.integers(1, 5))
    return LogPParams(
        P=draw(st.integers(1, max_P)),
        L=draw(st.integers(1, 9)),
        o=draw(st.integers(0, min(3, g))),
        g=g,
    )


@st.composite
def _rewritten_plans(draw):
    """A plan plus an optional shift and rank swap (exercises offset and
    mapping composition on every downstream property)."""
    impl = draw(_plans(max_P=24))
    impl = impl.shifted(draw(st.integers(0, 9)))
    if impl.family.P >= 2 and draw(st.booleans()):
        a = draw(st.integers(0, impl.family.P - 1))
        b = draw(st.integers(0, impl.family.P - 1))
        if a != b:
            impl = impl.remapped({a: b, b: a})
    return impl


class TestChunkedMaterialization:
    @given(impl=_rewritten_plans(), max_sends=st.integers(1, 70))
    @settings(max_examples=120, deadline=None)
    def test_chunk_concat_is_byte_identical_to_materialize(
        self, impl, max_sends
    ):
        rows = []
        for cols in impl.iter_chunks(max_sends=max_sends):
            assert len(cols) <= max_sends
            rows.extend(materialize_sends(cols))
        streamed = Schedule(
            params=impl.params,
            sends=rows,
            initial=impl.initial_placement(),
            source_items=impl.source_items(),
        )
        assert schedule_to_json(streamed) == schedule_to_json(
            impl.materialize()
        )

    @given(impl=_plans())
    @settings(max_examples=60, deadline=None)
    def test_materialized_plan_is_legal(self, impl):
        assert violations(impl.materialize()) == []

    @given(impl=_rewritten_plans(), max_sends=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_chunked_validator_is_clean_on_legal_plans(self, impl, max_sends):
        assert violations_np_implicit(impl, max_sends=max_sends) == []


class TestQueryAgreement:
    @given(impl=_rewritten_plans())
    @settings(max_examples=80, deadline=None)
    def test_sends_of_and_parent_agree_with_realized_schedule(self, impl):
        realized = impl.materialize()
        by_src: dict[int, list] = {}
        for op in realized.sends:
            by_src.setdefault(op.src, []).append(op)
        labels = set(by_src) | set(range(impl.num_procs))
        for proc in labels:
            cols = impl.sends_of(proc)
            mine = sorted(
                (op.time, op.dst, op.item) for op in by_src.get(proc, [])
            )
            ours = sorted(
                (op.time, op.dst, op.item) for op in materialize_sends(cols)
            )
            assert ours == mine
        # every non-source participant names the src of its unique edge
        if not impl.is_reduction:
            by_dst = {op.dst: op.src for op in realized.sends}
            for dst, src in by_dst.items():
                assert impl.parent(dst) == src
        else:
            for op in realized.sends:
                assert impl.parent(op.src, item=op.item) == op.dst

    @given(impl=_rewritten_plans())
    @settings(max_examples=40, deadline=None)
    def test_scalar_properties_match_materialized(self, impl):
        realized = impl.materialize()
        assert len(realized.sends) == impl.num_sends
        if impl.num_sends:
            times = [op.time for op in realized.sends]
            arrivals = [op.arrival(impl.params) for op in realized.sends]
            assert min(times) == impl.start_time
            assert max(arrivals) == impl.completion_time
            assert max(arrivals) - min(times) == impl.makespan


class TestLintAgreement:
    @given(impl=_plans(max_P=32), max_sends=st.integers(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_totals_match_full_engine_on_shared_rules(self, impl, max_sends):
        chunked = lint_implicit(impl, max_sends=max_sends)
        full = lint_schedule(impl.materialize())
        if impl.num_sends and not (impl.is_reduction and impl.family.P == 2):
            # exemptions: a zero-send plan materializes to Schedule's
            # falsy-initial default, and a P=2 reduction is one item
            # moving 1->0 — detect_workload rightly calls it a broadcast
            assert chunked.workload == full.workload
        assert chunked.num_sends == full.num_sends
        for rule_id in chunked.rules_run:
            if rule_id in full.rule_totals:
                assert (
                    chunked.rule_totals[rule_id] == full.rule_totals[rule_id]
                ), rule_id
        # every field (severity, sends, data, fixit), not only the text
        def fields(diagnostics):
            return sorted(
                (d.to_dict() for d in diagnostics if d.rule in chunked.rule_totals),
                key=lambda d: (d["rule"], d["sends"], d["message"]),
            )

        assert fields(chunked.diagnostics) == fields(full.diagnostics)


class TestRunTableAgainstOracle:
    """The optimal family's run table against the per-delay scan it
    replaced (``tests.oracles.implicit``)."""

    @given(params=_machines(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_edge_facts_match_oracle_on_ranges(self, params, data):
        family = OptimalTreeFamily(params)
        edges = params.P - 1
        starts = family._run_start[1:].tolist()
        # random ranges, one-rank ranges, and ranges that start, end or
        # straddle at a run boundary (rank r is edge r - 1)
        ranges = [(0, edges)]
        for _ in range(4):
            lo = data.draw(st.integers(0, edges))
            ranges.append((lo, data.draw(st.integers(lo, edges))))
            ranges.append((lo, min(lo + 1, edges)))
        for start in starts[:: max(len(starts) // 8, 1)]:
            edge = start - 1
            ranges.append((edge, min(edge + 1, edges)))
            ranges.append((max(edge - 2, 0), min(edge + 3, edges)))
            ranges.append((max(edge - 1, 0), edge))
        for lo, hi in ranges:
            got = family.edge_facts(lo, hi)
            want = optimal_edge_facts(params, lo, hi)
            for ours, theirs in zip(got, want):
                assert ours.dtype == np.int64
                assert ours.tolist() == theirs.tolist(), (lo, hi)

    @given(params=_machines(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_rank_queries_match_oracle_on_unsorted_arrays(self, params, data):
        family = OptimalTreeFamily(params)
        ranks = np.asarray(
            data.draw(
                st.lists(st.integers(0, params.P - 1), min_size=1, max_size=64)
            ),
            dtype=np.int64,
        )
        assert family.inform_times(ranks).tolist() == (
            optimal_delays(params, ranks).tolist()
        )
        nonroot = ranks[ranks >= 1]
        assert family.parents(nonroot).tolist() == (
            optimal_parents(params, nonroot).tolist()
        )
