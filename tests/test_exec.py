"""Execution-stack tests (S37): lowering, transports, verification.

The contract under test is the PR-9 acceptance bar: for every registry
collective the lowered per-rank programs, executed on *real* transports
(inproc in-process, mp processes), must deliver exactly the simulator's
``(src, dst, item)`` multiset — byte-for-byte on the canonical trace
encoding — and failures (unknown transports, dead workers, hangs) must
surface as one-line diagnostics naming the offending ranks instead of
hanging the caller.
"""

import multiprocessing
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.exec import (
    ExecError,
    ExecPlan,
    ExecTimeout,
    LoweringError,
    MpTransport,
    RecvInstr,
    SendInstr,
    TransportUnavailable,
    available_transports,
    execute,
    get_transport,
    lower_schedule,
    sim_delivered,
    verify_against_sim,
)
from repro.exec.program import KIND_RECV, RankProgram
from repro.exec.trace import ExecTrace, delivered_json
from repro.exec import transport as transport_module
from repro.exec.transport import format_blocked, format_rank_set
from repro.params import LogPParams, postal
from repro.schedule.columnar import ItemTable
from repro.schedule.ops import Schedule, SendOp

TRANSPORTS = available_transports()

# (collective, machine/extra kwargs) at P in {4, 8, 16}: every registered
# collective in a machine inside its declared domain.
COLLECTIVE_CASES = [
    ("broadcast", dict(P=4, L=6, o=2, g=4)),
    ("broadcast", dict(P=8, L=6, o=2, g=4)),
    ("broadcast", dict(P=16, L=6, o=2, g=4)),
    ("reduction", dict(P=4, L=6, o=2, g=4)),
    ("reduction", dict(P=8, L=6, o=2, g=4)),
    ("reduction", dict(P=16, L=6, o=2, g=4)),
    ("all-to-all", dict(P=4, L=3)),
    ("all-to-all", dict(P=8, L=3)),
    ("all-to-all", dict(P=16, L=3)),
    ("kitem", dict(P=4, L=3, k=4)),
    ("kitem", dict(P=8, L=3, k=4)),
    ("kitem", dict(P=16, L=3, k=4)),
    # continuous requires P-1 to be a reachable-set size P(t) for L
    ("continuous", dict(P=4, L=3, k=4)),
    ("continuous", dict(P=8, L=6, k=4)),
    ("continuous", dict(P=16, L=5, k=4)),
    ("summation", dict(P=4, L=5, o=2, g=4, n=40)),
    ("summation", dict(P=8, L=5, o=2, g=4, n=79)),
    ("summation", dict(P=16, L=5, o=2, g=4, n=120)),
    ("allreduce", dict(P=4, L=3)),
    ("allreduce", dict(P=8, L=3)),
    ("allreduce", dict(P=16, L=3)),
]


class TestLowering:
    def test_broadcast_programs_shape(self):
        schedule = registry.plan("broadcast", P=8, L=6, o=2, g=4)
        plan = lower_schedule(schedule)
        assert plan.num_ranks == 8
        assert plan.num_sends == 7
        # every non-root rank receives the item exactly once
        for rank in range(1, 8):
            assert plan.program(rank).num_recvs == 1
        total_sends = sum(p.num_sends for p in plan.programs.values())
        assert total_sends == 7
        # root holds the item initially; its first send has no producer
        root = plan.program(0)
        first = root.instructions()[0]
        assert isinstance(first, SendInstr) and first.dep == -1

    def test_relay_send_depends_on_its_recv(self):
        schedule = registry.plan("broadcast", P=8, L=6, o=2, g=4)
        plan = lower_schedule(schedule)
        for rank in range(1, 8):
            program = plan.program(rank)
            instrs = program.instructions()
            assert isinstance(instrs[0], RecvInstr)
            for i, instr in enumerate(instrs):
                if isinstance(instr, SendInstr):
                    # the forwarded item was produced by the recv at dep
                    assert instr.dep >= 0
                    producer = instrs[instr.dep]
                    assert isinstance(producer, RecvInstr)
                    assert producer.item == instr.item

    def test_lowering_is_zero_copy_on_columnar_schedules(self):
        schedule = registry.plan("broadcast", P=256, L=4, o=1, g=2)
        assert schedule.is_array_backed
        plan = lower_schedule(schedule)
        assert schedule.is_array_backed  # no SendOp materialization
        assert plan.num_sends == 255

    def test_implicit_lowering_matches_materialized(self):
        implicit = registry.plan("broadcast", P=64, L=4, o=1, g=2,
                                 storage="implicit")
        mat = implicit.materialize()
        a = lower_schedule(implicit)
        b = lower_schedule(mat)
        assert a.num_sends == b.num_sends
        assert set(a.programs) == set(b.programs)
        for rank, pa in a.programs.items():
            pb = b.program(rank)
            assert np.array_equal(pa.kinds, pb.kinds)
            assert np.array_equal(pa.peers, pb.peers)
            # item codes may be interned in a different order across the
            # two paths; compare the decoded items instead
            assert [pa._table.decode(int(c)) for c in pa.items] == [
                pb._table.decode(int(c)) for c in pb.items
            ]

    def test_send_without_source_raises_lowering_error(self):
        params = LogPParams(P=2, L=2, o=0, g=1)
        bad = Schedule(
            params=params,
            sends=[SendOp(time=0, src=0, dst=1, item="ghost")],
            initial={0: set()},  # rank 0 never holds "ghost"
        )
        with pytest.raises(LoweringError, match="ghost"):
            lower_schedule(bad)

    def test_program_arrays_are_frozen(self):
        plan = lower_schedule(registry.plan("broadcast", P=4, L=6, o=2, g=4))
        program = plan.program(0)
        with pytest.raises(ValueError):
            program.kinds[0] = KIND_RECV

    def test_unknown_rank_program_raises(self):
        plan = lower_schedule(registry.plan("broadcast", P=4, L=6, o=2, g=4))
        with pytest.raises(KeyError):
            plan.program(99)


class TestExecVsSim:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize(
        "name,kwargs",
        COLLECTIVE_CASES,
        ids=[f"{n}-P{kw['P']}" for n, kw in COLLECTIVE_CASES],
    )
    def test_registry_collective_delivers_sim_multiset(
        self, name, kwargs, transport
    ):
        schedule = registry.plan(name, **kwargs)
        result = execute(schedule, transport=transport, verify=True)
        assert result.num_delivered == schedule.num_sends
        assert result.transport == transport

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_p256_broadcast_byte_identical(self, transport):
        schedule = registry.plan("broadcast", P=256, L=4, o=1, g=2)
        result = execute(schedule, transport=transport, verify=True)
        assert result.num_delivered == 255
        assert result.trace.to_json() == delivered_json(
            schedule.params, sim_delivered(schedule)
        )

    def test_trace_bytes_are_transport_independent(self):
        schedule = registry.plan("all-to-all", P=8, L=3)
        a = execute(schedule, transport="inproc").trace.to_json()
        b = execute(schedule, transport="mp").trace.to_json()
        assert a == b

    def test_verification_failure_names_divergence(self):
        schedule = registry.plan("broadcast", P=4, L=6, o=2, g=4)
        wrong = ExecTrace(
            params=schedule.params, transport="inproc", delivered=()
        )
        from repro.exec import ExecVerificationError

        with pytest.raises(ExecVerificationError, match="missing"):
            verify_against_sim(schedule, wrong)

    def test_verification_diff_names_one_dropped_and_one_injected(
        self, monkeypatch
    ):
        import repro.sim.validate_np as validate_np
        from repro.exec import ExecVerificationError

        calls = []
        real = validate_np.violations_np
        monkeypatch.setattr(
            validate_np,
            "violations_np",
            lambda s: calls.append(s) or real(s),
        )
        schedule = registry.plan("all-to-all", P=4, L=3)
        delivered = sim_delivered(schedule)
        dropped = max(delivered)
        assert dropped == (3, 2, ("a2a", 3))
        wrong = ExecTrace(
            params=schedule.params,
            transport="inproc",
            delivered=(*(t for t in delivered if t != dropped), (0, 3, ("x", 7))),
        )
        with pytest.raises(ExecVerificationError) as err:
            verify_against_sim(schedule, wrong)
        assert str(err.value) == (
            "delivered multiset diverges from the simulator on inproc: "
            "1 missing, 1 unexpected; "
            'first missing: 3 -> 2 item {"t":["a2a",3]}; '
            'first unexpected: 0 -> 3 item {"t":["x",7]}'
        )
        # one kernel run per plan: sim_delivered and the verification
        # read the verdict memoized on the schedule
        assert len(calls) == 1

    def test_verify_rejects_bare_exec_plan(self):
        plan = lower_schedule(registry.plan("broadcast", P=4, L=6, o=2, g=4))
        with pytest.raises(ExecError, match="verify"):
            execute(plan, transport="inproc", verify=True)

    def test_sim_delivered_rejects_illegal_schedules(self):
        params = LogPParams(P=2, L=2, o=0, g=1)
        # legal placement, but two sends violate the gap g=1 at time 0
        bad = Schedule(
            params=params,
            sends=[
                SendOp(time=0, src=0, dst=1, item="a"),
                SendOp(time=0, src=0, dst=1, item="b"),
            ],
            initial={0: {"a", "b"}},
        )
        with pytest.raises(ValueError, match="not a legal LogP execution"):
            sim_delivered(bad)


@st.composite
def builder_schedules(draw):
    """A random legal registry plan, spanning the collective families."""
    kind = draw(st.sampled_from(["bcast", "a2a", "kitem", "sum", "reduce"]))
    if kind == "bcast":
        P = draw(st.integers(2, 12))
        L = draw(st.integers(1, 5))
        o = draw(st.integers(0, 2))
        g = draw(st.integers(max(1, o), 3))
        return registry.plan("broadcast", LogPParams(P=P, L=L, o=o, g=g))
    if kind == "a2a":
        return registry.plan(
            "all-to-all", postal(P=draw(st.integers(2, 10)),
                                 L=draw(st.integers(1, 4)))
        )
    if kind == "kitem":
        return registry.plan(
            "kitem", postal(P=draw(st.integers(2, 8)),
                            L=draw(st.integers(1, 3))),
            k=draw(st.integers(1, 4)),
        )
    if kind == "sum":
        P = draw(st.integers(2, 8))
        return registry.plan(
            "summation", LogPParams(P=P, L=4, o=1, g=2),
            n=draw(st.integers(4 * P, 8 * P)),
        )
    P = draw(st.integers(2, 12))
    return registry.plan("reduction", LogPParams(P=P, L=4, o=1, g=2))


class TestHypothesisExecVsSim:
    @settings(max_examples=25, deadline=None)
    @given(schedule=builder_schedules())
    def test_inproc_delivers_sim_multiset(self, schedule):
        result = execute(schedule, transport="inproc", verify=True)
        assert result.num_delivered == schedule.num_sends

    @settings(max_examples=6, deadline=None)
    @given(schedule=builder_schedules())
    def test_mp_delivers_sim_multiset(self, schedule):
        result = execute(schedule, transport="mp", verify=True)
        assert result.num_delivered == schedule.num_sends


class TestTransports:
    def test_unknown_transport_lists_known(self):
        with pytest.raises(ValueError, match="inproc, mp, mpi"):
            get_transport("carrier-pigeon")

    def test_mpi_unavailable_skips_cleanly(self):
        try:
            import mpi4py  # noqa: F401
        except ImportError:
            with pytest.raises(TransportUnavailable, match="mpi4py"):
                get_transport("mpi")
            assert "mpi" not in available_transports()
        else:  # pragma: no cover - only when mpi4py is installed
            assert "mpi" in available_transports()

    def test_available_transports_always_has_inproc_and_mp(self):
        assert {"inproc", "mp"} <= set(available_transports())

    def test_mp_dead_worker_names_rank_without_hanging(self):
        schedule = registry.plan("broadcast", P=4, L=6, o=2, g=4)
        transport = MpTransport(workers=4, fault_ranks=(1,))
        with pytest.raises(
            ExecError, match=r"worker \d+ hosting ranks .*exited with code 17"
        ) as err:
            execute(schedule, transport=transport, timeout=20.0)
        assert "1" in format_rank_set([1]) and "1" in str(err.value)

    def test_inproc_timeout_reports_blocked_ranks(self):
        with pytest.raises(ExecTimeout) as err:
            execute(_never_received_plan(), transport="inproc", timeout=0.4)
        message = str(err.value)
        assert "timeout: inproc transport hit the 0.4s deadline" in message
        assert "1 of 2 ranks blocked (ranks 0)" in message
        assert "rank 0 waits to receive item 'never' from rank 1" in message

    def test_mp_timeout_reports_blocked_ranks_then_recovers(self):
        schedule = registry.plan("broadcast", P=4, L=6, o=2, g=4)
        with MpTransport(workers=2) as transport:
            with pytest.raises(ExecTimeout) as err:
                execute(_never_received_plan(), transport=transport, timeout=0.4)
            message = str(err.value)
            assert "timeout: mp transport hit the 0.4s deadline" in message
            assert "1 of 2 ranks blocked (ranks 0)" in message
            assert "rank 0 waits to receive item 'never' from rank 1" in message
            result = execute(schedule, transport=transport, verify=True)
            assert result.num_delivered == 3


def _child_pids() -> set[int]:
    return {proc.pid for proc in multiprocessing.active_children()}


class TestMpPool:
    def test_runs_reuse_worker_pids_and_match_inproc(self):
        schedule = registry.plan("all-to-all", P=8, L=3)
        inproc = execute(schedule, transport="inproc").trace.to_json()
        before = _child_pids()
        with MpTransport(workers=2) as transport:
            first = execute(schedule, transport=transport).trace.to_json()
            pool = _child_pids() - before
            second = execute(schedule, transport=transport).trace.to_json()
            assert len(pool) == 2
            assert _child_pids() - before == pool
        assert first == second == inproc

    def test_no_worker_outlives_its_transport(self):
        schedule = registry.plan("broadcast", P=8, L=6, o=2, g=4)
        before = _child_pids()
        execute(schedule, transport="mp")
        assert not _child_pids() - before
        transport = MpTransport(workers=2)
        execute(schedule, transport=transport)
        assert len(_child_pids() - before) == 2
        transport.close()
        assert not _child_pids() - before
        execute(schedule, transport=transport)  # forks a fresh pool
        assert len(_child_pids() - before) == 2
        del transport
        assert not _child_pids() - before

    def test_envelopes_route_by_run_id(self):
        # white-box: hand-deliver the item rank 0 waits for, which no
        # rank sends, straight into the worker's inbox
        plan = _never_received_plan()
        envelope = (1, plan.encode("never"), "sent by hand")
        with MpTransport(workers=1) as transport:
            execute(registry.plan("broadcast", P=2, L=2, o=0, g=1), transport=transport)
            inbox = transport._pool.inboxes[0]
            # an envelope of the next run that overtakes its job waits for it
            inbox.put((transport._run_id + 1, [(0, envelope)]))
            result = execute(plan, transport=transport, timeout=5.0)
            assert result.values[0] == {"never": "sent by hand"}
            # an envelope of a finished run never reaches a later one
            inbox.put((transport._run_id, [(0, envelope)]))
            with pytest.raises(ExecTimeout, match="1 of 2 ranks blocked"):
                execute(plan, transport=transport, timeout=0.4)

    def test_one_batch_for_two_ranks_overtakes_its_job(self):
        # white-box: one batch feeds both ranks of the one worker the
        # items they wait for, before that run's job arrives
        plan = _never_received_plan(waiting=(0, 1))
        code = plan.encode("never")
        batch = [(1, (2, code, "to rank 1")), (0, (2, code, "to rank 0"))]
        with MpTransport(workers=1) as transport:
            execute(registry.plan("broadcast", P=2, L=2, o=0, g=1), transport=transport)
            transport._pool.inboxes[0].put((transport._run_id + 1, batch))
            result = execute(plan, transport=transport, timeout=5.0)
        assert result.values == {0: {"never": "to rank 0"}, 1: {"never": "to rank 1"}}
        assert result.trace.delivered == ((2, 0, "never"), (2, 1, "never"))

    def test_stale_batch_during_a_run_is_dropped(self):
        # white-box: a finished run's batch lands while rank 0 waits
        plan = _never_received_plan()
        envelope = (1, plan.encode("never"), "stale")
        with MpTransport(workers=1) as transport:
            execute(registry.plan("broadcast", P=2, L=2, o=0, g=1), transport=transport)
            stale = (transport._run_id, [(0, envelope)])
            inbox = transport._pool.inboxes[0]
            timer = threading.Timer(0.2, inbox.put, args=(stale,))
            timer.start()
            with pytest.raises(ExecTimeout, match="1 of 2 ranks blocked"):
                execute(plan, transport=transport, timeout=0.6)
            timer.join(timeout=5.0)
            assert not timer.is_alive()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_sending_full_pipes_at_each_other(self, workers):
        # every cross-worker batch is several pipe buffers long, and the
        # workers ship at the same moment: a writer that blocked on a
        # full pipe (or on a peer's lock) without reading its own inbox
        # would deadlock here; 4 workers outnumber the cores of a small
        # host and contend for each inbox's lock
        schedule = registry.plan("all-to-all", P=8, L=6, o=2, g=4)
        payloads = {p: {("a2a", p): bytes([p]) * 200_000} for p in range(8)}
        with MpTransport(workers=workers) as transport:
            result = execute(
                schedule,
                transport=transport,
                payloads=payloads,
                verify=True,
                timeout=30.0,
            )
        assert result.values[3][("a2a", 5)] == payloads[5][("a2a", 5)]

    def test_jobs_and_batches_larger_than_a_pipe(self):
        # P=256 jobs (~400 KB) and batches (~330 KB) span several
        # 64 KiB pipe buffers
        schedule = registry.plan("all-to-all", P=256, L=4, o=1, g=2)
        with MpTransport(workers=2) as transport:
            result = execute(schedule, transport=transport, verify=True)
        assert result.num_delivered == schedule.num_sends

    def test_pool_runs_under_spawn(self, monkeypatch):
        monkeypatch.setattr(
            transport_module,
            "_mp_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        schedule = registry.plan("broadcast", P=8, L=6, o=2, g=4)
        with MpTransport(workers=2) as transport:
            first = execute(schedule, transport=transport, verify=True)
            pool = _child_pids()
            second = execute(schedule, transport=transport, verify=True)
            assert _child_pids() == pool
        assert first.trace.to_json() == second.trace.to_json()

    def test_mp_runs_start_no_thread(self, monkeypatch):
        # patched before the fork, so the workers inherit the patch: no
        # process of the pool may start a thread, in any run
        schedule = registry.plan("all-to-all", P=8, L=3)

        def no_threads(thread: threading.Thread) -> None:
            raise AssertionError(f"mp run started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        with MpTransport(workers=2) as transport:
            for _ in range(2):
                result = execute(schedule, transport=transport, verify=True)
                assert result.num_delivered == schedule.num_sends

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_closing_the_pool_releases_every_fd(self):
        schedule = registry.plan("broadcast", P=8, L=6, o=2, g=4)
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(10):
            with MpTransport(workers=2) as transport:
                execute(schedule, transport=transport)
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("workers", [0, -2, 1.5, "2", True])
    def test_rejects_bad_worker_counts(self, workers):
        with pytest.raises(
            ValueError, match=rf"workers must be a positive int, got {workers!r}"
        ):
            MpTransport(workers=workers)


def _never_received_plan(waiting: tuple[int, ...] = (0,)) -> ExecPlan:
    """The ``waiting`` ranks wait forever for a message the last rank
    never sends: a hand-built plan (lowering would reject the
    schedule)."""
    sender = max(waiting) + 1
    params = LogPParams(P=sender + 1, L=2, o=0, g=1)
    table = ItemTable()
    code = table.intern("never")
    programs = {
        rank: RankProgram(
            rank=rank,
            kinds=np.array([KIND_RECV], dtype=np.int8),
            peers=np.array([sender], dtype=np.int64),
            items=np.array([code], dtype=np.int64),
            deps=np.array([-1], dtype=np.int64),
            reduce_operands={},
            table=table,
        )
        for rank in waiting
    }
    return ExecPlan(
        params=params,
        table=table,
        programs=programs,
        initial={},
        num_sends=0,
    )


class TestBlockedFormatting:
    def test_format_rank_set_collapses_runs(self):
        assert format_rank_set([0, 1, 2, 3, 7]) == "0-3,7"
        assert format_rank_set([5]) == "5"
        assert format_rank_set([2, 4, 6]) == "2,4,6"

    def test_format_blocked_truncates_detail(self):
        waiters = [(r, f"rank {r} stuck") for r in range(12)]
        text = format_blocked("deadlock: stuck", waiters, total_ranks=16)
        assert "12 of 16 ranks blocked (ranks 0-11)" in text
        assert "... and 4 more blocked rank(s)" in text


class TestLowerPassAndRegistry:
    def test_lower_pass_in_pipeline_passes_schedule_through(self):
        from repro.passes import PassManager

        schedule = registry.plan("broadcast", P=8, L=6, o=2, g=4)
        manager = PassManager("lower", verify="errors")
        out = manager.run(schedule)
        assert out is schedule
        [record] = manager.records
        assert record.stats["sends"] == 7
        assert record.stats["ranks"] == 8

    def test_lower_pass_keeps_compiled_plan(self):
        from repro.passes import LowerPass

        schedule = registry.plan("broadcast", P=8, L=6, o=2, g=4)
        lower = LowerPass()
        assert lower.run(schedule) is schedule
        assert isinstance(lower.plan, ExecPlan)
        assert lower.plan.num_sends == 7

    def test_registry_plan_executes_verified(self):
        schedule = registry.plan("broadcast", P=8, L=6, o=2, g=4)
        result = execute(schedule, transport="inproc", verify=True)
        assert result.num_delivered == schedule.num_sends == 7


class TestRunCli:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_run_builder_verified(self, capsys):
        rc = self.run_cli(
            "run", "--builder", "bcast", "-P", "8", "-L", "6",
            "--o", "2", "--g", "4", "--verify",
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "delivered 7 messages" in out
        assert "verified" in out

    def test_run_schedule_file(self, tmp_path, capsys):
        from repro.schedule.serialize import dump_schedule

        path = tmp_path / "b.json"
        dump_schedule(registry.plan("broadcast", P=6, L=4), str(path))
        rc = self.run_cli("run", str(path), "--transport", "mp", "--verify")
        assert rc == 0
        assert "on mp" in capsys.readouterr().out

    def test_run_usage_errors_exit_2(self, tmp_path, capsys):
        assert self.run_cli("run") == 2
        assert self.run_cli("run", "--builder", "nope") == 2
        assert self.run_cli("run", str(tmp_path / "missing.json")) == 2
        err = capsys.readouterr().err
        assert err.count("repro: error:") == 3

    def test_run_mpi_unavailable_exits_2(self, capsys):
        try:
            import mpi4py  # noqa: F401
        except ImportError:
            rc = self.run_cli("run", "--builder", "bcast", "--transport", "mpi")
            assert rc == 2
            assert "mpi4py" in capsys.readouterr().err
        else:  # pragma: no cover - only when mpi4py is installed
            pytest.skip("mpi4py installed; unavailability path not reachable")


def test_bench_rows_execute_every_send():
    from benchmarks.harness import bench_all_to_all, bench_broadcast

    for row in (bench_broadcast(64), bench_all_to_all(16)):
        assert row["execute_delivered"] == row["sends"] > 0
        assert row["execute_inproc_s"] > 0
