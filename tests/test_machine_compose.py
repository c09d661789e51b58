"""Hierarchical composition end to end (DESIGN S38).

The tentpole acceptance suite: ``hier-bcast``/``hier-reduce`` through
the registry, per-level validation/lint, the pass framework's machine
threading, serialization and cache-key distinctness, and real-transport
execution byte-matched against the simulator.
"""

from __future__ import annotations

import pytest

from repro import registry
from repro.analyze import assert_lint_clean
from repro.core.fib import broadcast_time
from repro.machine import (
    FaultMaskedMachine,
    FlatMachine,
    HierarchicalMachine,
    hier_broadcast_schedule,
    two_level_broadcast_plan,
)
from repro.params import LogPParams
from repro.schedule.analysis import completion_time
from repro.schedule.serialize import schedule_from_json, schedule_to_json
from repro.sim.validate_np import violations_np

INTER = LogPParams(P=8, L=24, o=2, g=6)
INTRA = LogPParams(P=8, L=2, o=1, g=1)
REFERENCE = HierarchicalMachine(nodes=8, cores=8, inter=INTER, intra=INTRA)


class TestHierBroadcast:
    def test_beats_flat_oblivious_on_reference_cluster(self):
        # the ISSUE's acceptance criterion: topology awareness wins on
        # the 8 nodes x 8 cores cluster
        schedule = registry.plan("hier-bcast", machine=REFERENCE)
        flat_cycles = broadcast_time(64, REFERENCE.flat_params)
        assert completion_time(schedule) < flat_cycles
        assert completion_time(schedule) == 67 and flat_cycles == 102

    def test_legal_and_lint_clean_under_per_level_pricing(self):
        schedule = registry.plan("hier-bcast", machine=REFERENCE)
        assert schedule.machine == REFERENCE
        assert violations_np(schedule) == []
        assert_lint_clean(schedule)

    def test_every_rank_informed_exactly_once(self):
        schedule = registry.plan("hier-bcast", machine=REFERENCE)
        dsts = schedule.columns().dsts
        assert sorted(dsts.tolist()) == list(range(1, 64))

    def test_default_machine_from_flat_params(self):
        # no machine= -> squarest factoring of P with a fast intra level
        schedule = registry.plan("hier-bcast", P=12, L=4, o=1, g=2)
        assert schedule.machine is not None
        assert (schedule.machine.nodes, schedule.machine.cores) == (4, 3)
        assert violations_np(schedule) == []

    def test_single_node_and_single_core_degenerate(self):
        line = HierarchicalMachine(
            nodes=1, cores=5, inter=INTER.with_processors(1), intra=INTRA
        )
        sched = hier_broadcast_schedule(line)
        assert violations_np(sched) == []
        assert sched.num_sends == 4
        wide = HierarchicalMachine(
            nodes=5, cores=1, inter=INTER, intra=INTRA.with_processors(1)
        )
        sched = hier_broadcast_schedule(wide)
        assert violations_np(sched) == []
        assert sched.num_sends == 4

    def test_conflicting_params_rejected(self):
        with pytest.raises(ValueError, match="flat envelope"):
            registry.plan(
                "hier-bcast",
                LogPParams(P=32, L=24, o=2, g=6),
                machine=REFERENCE,
            )

    def test_non_aware_collective_rejects_topology(self):
        with pytest.raises(ValueError, match="machine-aware"):
            registry.plan("broadcast", machine=REFERENCE)

    def test_non_aware_collective_accepts_flat_machine(self):
        params = LogPParams(P=8, L=6, o=2, g=4)
        viaflat = registry.plan("broadcast", machine=FlatMachine(params))
        assert viaflat == registry.plan("broadcast", params)

    def test_implicit_storage_rejects_machine(self):
        with pytest.raises(ValueError, match="implicit"):
            registry.plan(
                "hier-bcast", machine=REFERENCE, storage="implicit"
            )


class TestHierReduction:
    def test_reverses_broadcast_and_stays_legal(self):
        schedule = registry.plan("hier-reduce", machine=REFERENCE)
        assert schedule.machine == REFERENCE
        assert violations_np(schedule) == []
        assert_lint_clean(schedule)
        bcast = registry.plan("hier-bcast", machine=REFERENCE)
        assert completion_time(schedule) == completion_time(bcast)

    def test_all_partials_reach_the_root(self):
        schedule = registry.plan("hier-reduce", machine=REFERENCE)
        srcs = schedule.columns().srcs
        assert sorted(srcs.tolist()) == list(range(1, 64))


class TestTwoLevelPlan:
    def test_reference_cluster_numbers(self):
        plan = two_level_broadcast_plan(REFERENCE)
        assert plan.inter_cycles == 58
        assert plan.intra_cycles == 9
        assert plan.total_cycles == 67
        assert plan.flat_cycles == 102
        assert plan.speedup == pytest.approx(102 / 67)
        assert completion_time(plan.schedule) == plan.total_cycles

    def test_leader_schedule_lands_on_global_leader_ranks(self):
        plan = two_level_broadcast_plan(REFERENCE)
        for op in plan.leader_schedule.sorted_sends():
            assert op.src % 8 == 0 and op.dst % 8 == 0


class TestMachineThreadsThroughPasses:
    def test_passes_preserve_the_machine(self):
        from repro.passes import PassManager

        schedule = registry.plan("hier-bcast", machine=REFERENCE)
        result = PassManager(
            "shift{offset=3},canonicalize,prune-dead-sends,compact-time",
            verify="errors",
        ).run(schedule)
        assert result.machine == REFERENCE
        assert result.is_array_backed
        assert violations_np(result) == []

    def test_reverse_is_machine_priced(self):
        from repro.passes import ReversePass

        schedule = registry.plan("hier-bcast", machine=REFERENCE)
        reversed_ = ReversePass().run(schedule)
        assert reversed_.machine == REFERENCE
        assert violations_np(reversed_) == []

    def test_concat_refuses_mixed_machines(self):
        from repro.passes.kernels import concat_columns

        hier = registry.plan("hier-bcast", machine=REFERENCE)
        flat = registry.plan("broadcast", REFERENCE.flat_params)
        with pytest.raises(ValueError, match="different machines"):
            concat_columns(hier, flat)


class TestSerializationAndKeys:
    def test_round_trip_preserves_machine(self):
        schedule = registry.plan("hier-bcast", machine=REFERENCE)
        blob = schedule_to_json(schedule)
        back = schedule_from_json(blob)
        assert back.machine == REFERENCE
        assert schedule_to_json(back) == blob

    def test_flat_payload_has_no_machine_key(self):
        import json

        schedule = registry.plan("broadcast", P=8, L=6, o=2, g=4)
        assert "machine" not in json.loads(schedule_to_json(schedule))

    def test_cache_keys_distinguish_topologies(self):
        from repro.registry import canonical_request
        from repro.serve.keys import request_key

        params = LogPParams(P=64, L=24, o=2, g=6)
        flat_key = request_key(canonical_request("broadcast", params))
        hier_key = request_key(
            canonical_request("hier-bcast", machine=REFERENCE)
        )
        other = HierarchicalMachine(
            nodes=4, cores=16, inter=INTER.with_processors(4), intra=INTRA
        )
        other_key = request_key(
            canonical_request("hier-bcast", machine=other)
        )
        masked_key = request_key(
            canonical_request(
                "hier-bcast",
                machine=FaultMaskedMachine(base=REFERENCE, dead=(9,)),
            )
        )
        assert len({flat_key, hier_key, other_key, masked_key}) == 4
        assert "machine" not in flat_key

    def test_cached_plans_round_trip_through_the_service(self):
        from repro.serve import PlanService

        service = PlanService(capacity=8)
        first = schedule_from_json(
            service.plan("hier-bcast", machine=REFERENCE)
        )
        again = schedule_from_json(
            service.plan("hier-bcast", machine=REFERENCE)
        )
        assert first.machine == REFERENCE
        assert schedule_to_json(first) == schedule_to_json(again)
        assert service.planned == 1


class TestExecution:
    @pytest.mark.parametrize("transport", ["inproc", "mp"])
    def test_hier_plan_executes_and_byte_matches_simulator(self, transport):
        from repro.exec import execute

        machine = HierarchicalMachine(
            nodes=4,
            cores=4,
            inter=LogPParams(P=4, L=8, o=1, g=3),
            intra=LogPParams(P=4, L=2, o=0, g=1),
        )
        schedule = registry.plan("hier-bcast", machine=machine)
        result = execute(schedule, transport=transport, verify=True)
        assert result.num_delivered == schedule.num_sends

    def test_planned_hier_reduce_executes_verified(self):
        from repro.exec import execute

        schedule = registry.plan("hier-reduce", machine=REFERENCE)
        assert schedule.machine == REFERENCE
        result = execute(schedule, transport="inproc", verify=True)
        assert result.num_delivered == schedule.num_sends
