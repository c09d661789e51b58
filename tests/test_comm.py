"""Tests for the high-level Communicator / VirtualCluster API."""

import hashlib
import json
import multiprocessing

import pytest

from repro import registry
from repro.analyze import lint_schedule
from repro.comm import Communicator, VirtualCluster
from repro.core.fib import broadcast_time, broadcast_time_postal
from repro.params import LogPParams, postal

FIG1 = LogPParams(P=8, L=6, o=2, g=4)

#: The planning grid: every root of every rooted collective, k-item
#: broadcasts on the postal machines, on each (L, o, g) machine.
GRID_P = (1, 2, 3, 5, 7, 8, 9, 13)
GRID_MACHINES = ((6, 2, 4), (3, 0, 1), (2, 0, 1), (4, 1, 2))
GRID_K = (1, 3, 6)

#: sha-256 over every grid plan's (machine, kind, args, sorted
#: (time, src, dst), cycles, meta) — item labels left out — as the
#: hand-built planners produced it before Communicator planned through
#: the registry.
GRID_TIMING_DIGEST = (
    "fe09d797ad9a4b40737e623f07e0ec2db7ce4d0c5ee3526f2f7ef137e6db209d"
)


def _grid_requests():
    for P in GRID_P:
        for L, o, g in GRID_MACHINES:
            params = LogPParams(P=P, L=L, o=o, g=g)
            for root in range(P):
                for kind in ("bcast", "scatter", "gather", "reduce"):
                    yield params, kind, (root,)
                if params.is_postal:
                    for k in GRID_K:
                        yield params, "kitem_bcast", (k, root)
            for kind in ("allreduce", "allgather", "alltoall"):
                yield params, kind, ()


@pytest.fixture(scope="module")
def grid_plans():
    """``(params, kind, args, plan)`` per grid request; ``plan`` is
    ``None`` where the Communicator refuses with ``ValueError``."""
    out = []
    for params, kind, args in _grid_requests():
        try:
            plan = getattr(Communicator(params), kind)(*args)
        except ValueError:
            plan = None
        out.append((params, kind, args, plan))
    return out


class TestCommunicatorPlans:
    def test_bcast_cycles(self):
        comm = Communicator(FIG1)
        assert comm.bcast().cycles == 24

    def test_bcast_rooted(self):
        comm = Communicator(postal(P=6, L=2))
        plan = comm.bcast(root=4)
        # processor 4 never receives; everyone else exactly once
        receivers = sorted(op.dst for op in plan.schedule.sends)
        assert receivers == [0, 1, 2, 3, 5]

    def test_bcast_root_out_of_range(self):
        with pytest.raises(ValueError):
            Communicator(FIG1).bcast(root=8)

    def test_plans_cached(self):
        comm = Communicator(FIG1)
        assert comm.bcast() is comm.bcast()
        assert comm.bcast(1) is not comm.bcast(2)

    def test_kitem_requires_postal(self):
        with pytest.raises(ValueError):
            Communicator(FIG1).kitem_bcast(4)

    def test_kitem_cycles(self):
        comm = Communicator(postal(P=10, L=3))
        plan = comm.kitem_bcast(8)
        assert plan.cycles == 17

    def test_scatter_gather_symmetric(self):
        comm = Communicator(FIG1)
        assert comm.scatter().cycles == comm.gather().cycles

    def test_reduce_matches_bcast(self):
        comm = Communicator(FIG1)
        assert comm.reduce().cycles == comm.bcast().cycles == 24

    def test_allreduce_combining_when_sized(self):
        comm = Communicator(postal(P=9, L=3))  # 9 = f_7 for L=3
        plan = comm.allreduce()
        assert plan.meta["algorithm"] == "combining"
        assert plan.cycles == 7

    def test_allreduce_fallback(self):
        comm = Communicator(postal(P=7, L=3))  # 7 is not a P(T) value
        plan = comm.allreduce()
        assert plan.meta["algorithm"] == "reduce+bcast"
        assert plan.cycles == 2 * broadcast_time_postal(7, 3)

    def test_allreduce_fallback_carries_the_dependency(self):
        params = postal(P=7, L=3)
        plan = Communicator(params).allreduce()
        B = broadcast_time_postal(7, 3)
        diagnostics = lint_schedule(plan.schedule).diagnostics
        assert not [d for d in diagnostics if d.rule == "SCHED004"]
        (item,) = registry.plan("broadcast", params).initial[0]
        holders = [p for p, items in plan.schedule.initial.items() if item in items]
        assert holders == [0]
        assert plan.schedule.source_items[item] == B
        assert min(op.time for op in plan.schedule.sends if op.item == item) == B

    def test_allgather_alltoall(self):
        comm = Communicator(postal(P=5, L=2))
        assert comm.allgather().cycles == 2 + 3  # L + (P-2)g
        assert comm.alltoall().cycles == 2 + 3


class TestGridPins:
    def test_timing_digest(self, grid_plans):
        digest = hashlib.sha256()
        for params, kind, args, plan in grid_plans:
            row = [params.P, params.L, params.o, params.g, kind, list(args)]
            if plan is None:
                row.append("ValueError")
            else:
                sends = [(op.time, op.src, op.dst) for op in plan.schedule.sends]
                row += [sorted(sends), plan.cycles, plan.meta]
            digest.update(json.dumps(row, sort_keys=True).encode())
        assert sum(plan is not None for *_, plan in grid_plans) == 1146
        assert digest.hexdigest() == GRID_TIMING_DIGEST

    @pytest.mark.parametrize(
        "machine", [postal(P=1, L=3), LogPParams(P=1, L=6, o=2, g=4)]
    )
    def test_single_rank_answers(self, machine):
        comm = Communicator(machine)
        plans = [
            comm.bcast(),
            comm.scatter(),
            comm.gather(),
            comm.reduce(),
            comm.allreduce(),
            comm.allgather(),
            comm.alltoall(),
        ]
        assert [plan.cycles for plan in plans] == [0] * 7
        assert all(plan.schedule.num_sends == 0 for plan in plans)
        with pytest.raises(ValueError):
            comm.kitem_bcast(3)

    def test_no_dead_sends_or_lint_errors(self, grid_plans):
        for params, kind, args, plan in grid_plans:
            if plan is None:
                continue
            report = lint_schedule(plan.schedule)
            assert not report.errors, (params, kind, args)
            assert "SCHED004" not in {d.rule for d in report.diagnostics}, (
                params, kind, args,
            )

    @pytest.mark.parametrize(
        "kind, spec, extra",
        [
            ("bcast", "broadcast", {}),
            ("reduce", "reduction", {}),
            ("kitem_bcast", "kitem", {"k": 3}),
            ("allgather", "all-to-all", {}),
            ("allreduce", "allreduce", {}),
        ],
    )
    def test_registry_backed_plans_lint_like_the_registry(self, kind, spec, extra):
        params = postal(P=9, L=3)
        plan = getattr(Communicator(params), kind)(*extra.values())
        expected = registry.plan(spec, params, **extra)
        assert plan.schedule == expected
        assert lint_schedule(plan.schedule).diagnostics == (
            lint_schedule(expected).diagnostics
        )


class TestVirtualClusterData:
    def test_bcast_values(self):
        cluster = VirtualCluster(FIG1)
        values, cycles = cluster.bcast("payload", root=3)
        assert values == ["payload"] * 8
        assert cycles == 24

    def test_kitem_values(self):
        cluster = VirtualCluster(postal(P=10, L=3))
        data = [f"item{i}" for i in range(8)]
        results, cycles = cluster.kitem_bcast(data, root=0)
        assert all(r == data for r in results)
        assert cycles == 17

    def test_scatter_values(self):
        cluster = VirtualCluster(postal(P=4, L=2))
        values, _ = cluster.scatter(["a", "b", "c", "d"], root=1)
        assert values == ["a", "b", "c", "d"]

    def test_scatter_wrong_count(self):
        with pytest.raises(ValueError):
            VirtualCluster(postal(P=4, L=2)).scatter(["a"], root=0)

    def test_reduce_sum(self):
        cluster = VirtualCluster(postal(P=9, L=3))
        total, cycles = cluster.reduce(list(range(9)))
        assert total == sum(range(9))
        assert cycles == broadcast_time(9, postal(P=9, L=3))

    def test_reduce_custom_op(self):
        cluster = VirtualCluster(postal(P=5, L=2))
        result, _ = cluster.reduce([3, 1, 4, 1, 5], op=max)
        assert result == 5

    def test_allreduce_combining_values(self):
        cluster = VirtualCluster(postal(P=9, L=3))
        results, cycles = cluster.allreduce(list(range(1, 10)))
        assert results == [45] * 9
        assert cycles == 7

    def test_allreduce_fallback_values(self):
        cluster = VirtualCluster(postal(P=7, L=3))
        results, _ = cluster.allreduce([1] * 7)
        assert results == [7] * 7

    def test_allreduce_fallback_values_off_postal(self):
        cluster = VirtualCluster(LogPParams(P=7, L=6, o=2, g=4))
        results, cycles = cluster.allreduce([3, 1, 4, 1, 5, 9, 2], op=max)
        assert results == [9] * 7 and cycles == 48

    def test_allgather_values(self):
        cluster = VirtualCluster(postal(P=4, L=2))
        results, _ = cluster.allgather(["w", "x", "y", "z"])
        assert all(r == ["w", "x", "y", "z"] for r in results)

    def test_alltoall_values(self):
        P = 4
        cluster = VirtualCluster(postal(P=P, L=2))
        matrix = [[f"{i}->{j}" for j in range(P)] for i in range(P)]
        results, _ = cluster.alltoall(matrix)
        for dst in range(P):
            assert results[dst] == [f"{src}->{dst}" for src in range(P)]

    def test_alltoall_shape_checked(self):
        with pytest.raises(ValueError):
            VirtualCluster(postal(P=3, L=2)).alltoall([[1, 2], [3, 4]])

    def test_allreduce_max(self):
        cluster = VirtualCluster(postal(P=9, L=3))
        results, _ = cluster.allreduce([2, 9, 4, 7, 1, 8, 3, 5, 6], op=max)
        assert results == [9] * 9


class TestVirtualClusterBackend:
    def test_unknown_backend_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown transport 'carrier-pigeon'"):
            VirtualCluster(postal(P=4, L=2), backend="carrier-pigeon")

    @pytest.mark.parametrize("backend", ["inproc", "mp"])
    def test_reduce_with_two_lambdas(self, backend):
        # a new lambda re-forks the mp pool, which captured the old one
        cluster = VirtualCluster(LogPParams(P=4, L=6, o=2, g=4), backend=backend)
        assert cluster.reduce([1, 2, 3, 4], op=lambda a, b: a + b) == (10, 18)
        assert cluster.reduce([1, 2, 3, 4], op=lambda a, b: a * b) == (24, 18)

    def test_mp_cluster_reuses_one_pool_across_collectives(self):
        before = {p.pid for p in multiprocessing.active_children()}
        cluster = VirtualCluster(postal(P=6, L=2), backend="mp")
        assert cluster.bcast("x", root=2)[0] == ["x"] * 6
        pool = {p.pid for p in multiprocessing.active_children()} - before
        assert pool
        assert cluster.allgather(list("abcdef"))[0] == [list("abcdef")] * 6
        assert {p.pid for p in multiprocessing.active_children()} - before == pool
        del cluster
        assert not pool & {p.pid for p in multiprocessing.active_children()}


class TestSubCommunicators:
    def test_subset_bcast_embeds(self):
        from repro.comm import embed_plan

        parent = Communicator(postal(P=12, L=3))
        sub, mapping = parent.subset([2, 5, 7, 9, 11])
        assert sub.params.P == 5
        plan = sub.bcast(root=0)
        lifted = embed_plan(plan, mapping, params=parent.params)
        # all traffic stays within the chosen physical ranks
        used = {op.src for op in lifted.sends} | {op.dst for op in lifted.sends}
        assert used <= {2, 5, 7, 9, 11}
        # the sub-root is physical rank 2
        assert all(op.src == 2 or op.src in used for op in lifted.sends)

    def test_subset_deduplicates_and_validates(self):
        parent = Communicator(postal(P=6, L=2))
        sub, mapping = parent.subset([1, 1, 3])
        assert sub.params.P == 2 and mapping == {0: 1, 1: 3}
        with pytest.raises(ValueError):
            parent.subset([99])
        with pytest.raises(ValueError):
            parent.subset([])
