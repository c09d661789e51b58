"""The cooperative rank scheduler (``repro.exec.engine.run_ranks``).

Every transport drives its ranks through one scheduler: inproc hosts
every rank in the calling thread, each mp worker hosts a slice of them
and batches its cross-worker sends, and the mpi transport hosts one.
Hand-built plans pin the instruction semantics — duplicated
``(src, item)`` pairs, arrivals out of program order, combine mode and
reduce folds — to the same values and the same trace bytes wherever
the ranks live.
"""

from __future__ import annotations

import multiprocessing
import operator
import pickle
import queue
import sys
import threading
import types
from typing import Any

import numpy as np
import pytest

from repro import registry
from repro.exec import (
    ExecError,
    ExecPlan,
    MpTransport,
    RankProgram,
    execute,
    get_transport,
    lower_schedule,
)
from repro.exec.program import KIND_RECV, KIND_REDUCE, KIND_SEND
from repro.params import LogPParams
from repro.schedule.columnar import ItemTable

_KINDS = {"send": KIND_SEND, "recv": KIND_RECV, "reduce": KIND_REDUCE}


def _plan(
    P: int,
    programs: dict[int, list[tuple[Any, ...]]],
    initial: dict[int, tuple[str, ...]] | None = None,
) -> ExecPlan:
    """An :class:`ExecPlan` from ``(kind, peer_or_result, item[s])``
    instruction tuples: ``("send", dst, item)``, ``("recv", src, item)``
    and ``("reduce", result, (operand, ...))``."""
    table = ItemTable()
    built: dict[int, RankProgram] = {}
    num_sends = 0
    for rank, instrs in programs.items():
        kinds, peers, items = [], [], []
        operands: dict[int, tuple[int, ...]] = {}
        for i, (kind, a, b) in enumerate(instrs):
            kinds.append(_KINDS[kind])
            if kind == "reduce":
                peers.append(-1)
                items.append(table.intern(a))
                operands[i] = tuple(table.intern(x) for x in b)
            else:
                peers.append(a)
                items.append(table.intern(b))
                num_sends += kind == "send"
        built[rank] = RankProgram(
            rank=rank,
            kinds=np.array(kinds, dtype=np.int8),
            peers=np.array(peers, dtype=np.int64),
            items=np.array(items, dtype=np.int64),
            deps=np.full(len(kinds), -1, dtype=np.int64),
            reduce_operands=operands,
            table=table,
        )
    codes = {
        rank: tuple(table.intern(item) for item in held)
        for rank, held in (initial or {}).items()
    }
    return ExecPlan(
        params=LogPParams(P=P, L=2, o=0, g=1),
        table=table,
        programs=built,
        initial=codes,
        num_sends=num_sends,
    )


# rank 0 sends "x" to rank 1 twice; between the two sends its copy of
# "x" is replaced by the one rank 2 holds.  Rank 1 first waits for "y",
# sent last, so both copies of (0, "x") are pending at once and must be
# matched first-in, first-out
DUPLICATED_PAIR = (
    _plan(
        3,
        {
            0: [
                ("send", 1, "x"),
                ("recv", 2, "x"),
                ("send", 1, "x"),
                ("send", 1, "y"),
            ],
            1: [("recv", 0, "y"), ("recv", 0, "x"), ("recv", 0, "x")],
            2: [("send", 0, "x")],
        },
        initial={0: ("x", "y"), 2: ("x",)},
    ),
    dict(payloads={0: {"x": "first", "y": "Y"}, 2: {"x": "second"}}),
    {
        0: {"x": "second", "y": "Y"},
        1: {"x": "second", "y": "Y"},
        2: {"x": "second"},
    },
)

# rank 1 sends "b" to rank 2 before it lets rank 0 forward "a", but
# rank 2's program receives "a" first
OUT_OF_ORDER = (
    _plan(
        3,
        {
            0: [("recv", 1, "a"), ("send", 2, "a")],
            1: [("send", 2, "b"), ("send", 0, "a")],
            2: [("recv", 0, "a"), ("recv", 1, "b")],
        },
        initial={1: ("a", "b")},
    ),
    dict(payloads={1: {"a": "A", "b": "B"}}),
    {0: {"a": "A"}, 1: {"a": "A", "b": "B"}, 2: {"a": "A", "b": "B"}},
)

# a chain 3 -> 1 -> 0 plus 2 -> 0 folded with a non-commutative combine:
# rank 0's program order (2 before 1) fixes its result
COMBINE = (
    _plan(
        4,
        {
            0: [("recv", 2, "s"), ("recv", 1, "s")],
            1: [("recv", 3, "s"), ("send", 0, "s")],
            2: [("send", 0, "s")],
            3: [("send", 1, "s")],
        },
    ),
    dict(combine=operator.add, accumulators={0: "0", 1: "1", 2: "2", 3: "3"}),
    {0: "0213", 1: "13", 2: "2", 3: "3"},
)

# rank 0 folds two received operands and an ambient local one, then
# forwards the result
REDUCE = (
    _plan(
        3,
        {
            0: [
                ("recv", 1, "p"),
                ("recv", 2, "q"),
                ("reduce", "r", ("q", "p", "local")),
                ("send", 1, "r"),
            ],
            1: [("send", 0, "p"), ("recv", 0, "r")],
            2: [("send", 0, "q")],
        },
        initial={0: ("local",), 1: ("p",), 2: ("q",)},
    ),
    dict(
        payloads={0: {"local": "L"}, 1: {"p": "P"}, 2: {"q": "Q"}},
        reduce_op=operator.add,
    ),
    {
        0: {"local": "L", "p": "P", "q": "Q", "r": "QPL"},
        1: {"p": "P", "r": "QPL"},
        2: {"q": "Q"},
    },
)

CASES = {
    "duplicated-pair": DUPLICATED_PAIR,
    "out-of-order": OUT_OF_ORDER,
    "combine": COMBINE,
    "reduce": REDUCE,
}


class TestSchedulerSemantics:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_values_and_trace_agree_wherever_ranks_live(self, case):
        plan, kwargs, expected = CASES[case]
        inproc = execute(plan, transport="inproc", **kwargs)
        assert inproc.values == expected
        for workers in (1, 3):
            with MpTransport(workers=workers) as transport:
                mp = execute(plan, transport=transport, **kwargs)
            assert mp.values == inproc.values, workers
            assert mp.trace.to_json() == inproc.trace.to_json(), workers

    def test_duplicated_pair_is_delivered_twice(self):
        plan, kwargs, _ = DUPLICATED_PAIR
        result = execute(plan, transport="inproc", **kwargs)
        assert result.trace.delivered.count((0, 1, "x")) == 2
        assert result.num_delivered == 4

    def test_inproc_starts_no_thread(self, monkeypatch):
        def refuse(self: threading.Thread) -> None:
            raise AssertionError(f"inproc started a thread: {self!r}")

        schedule = registry.plan("broadcast", P=256, L=4, o=1, g=2)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        result = execute(schedule, transport="inproc", verify=True)
        assert result.num_delivered == 255


def _boom_combine(acc: Any, payload: Any) -> Any:
    if acc == "doomed":
        raise ValueError("combine exploded")
    return acc + payload


def _boom_reduce(a: Any, b: Any) -> Any:
    raise ValueError("reduce exploded")


# rank 2 is the only rank whose fold raises
FAILING = {
    "combine": (
        _plan(
            3,
            {
                0: [("send", 2, "s")],
                1: [("send", 2, "s")],
                2: [("recv", 0, "s"), ("recv", 1, "s")],
            },
        ),
        dict(combine=_boom_combine, accumulators={0: "a", 1: "b", 2: "doomed"}),
        "combine exploded",
    ),
    "reduce": (
        _plan(
            3,
            {
                0: [("send", 2, "p")],
                1: [("send", 2, "q")],
                2: [("recv", 0, "p"), ("recv", 1, "q"), ("reduce", "r", ("p", "q"))],
            },
            initial={0: ("p",), 1: ("q",)},
        ),
        dict(reduce_op=_boom_reduce),
        "reduce exploded",
    ),
}


def _child_pids() -> set[int]:
    return {proc.pid for proc in multiprocessing.active_children()}


class TestRankFailure:
    @pytest.mark.parametrize("fold", sorted(FAILING))
    def test_inproc_names_the_failed_rank(self, fold):
        plan, kwargs, message = FAILING[fold]
        with pytest.raises(
            ExecError, match=f"inproc transport: rank 2 failed: {message}"
        ) as err:
            execute(plan, transport="inproc", **kwargs)
        assert isinstance(err.value.__cause__, ValueError)

    @pytest.mark.parametrize("fold", sorted(FAILING))
    def test_mp_names_the_failed_rank_then_recovers(self, fold):
        plan, kwargs, message = FAILING[fold]
        schedule = registry.plan("broadcast", P=8, L=6, o=2, g=4)
        before = _child_pids()
        with MpTransport(workers=2) as transport:
            with pytest.raises(
                ExecError, match=f"mp transport: rank 2 failed: {message}"
            ):
                execute(plan, transport=transport, **kwargs)
            assert not _child_pids() - before  # the failed pool is gone
            result = execute(schedule, transport=transport, verify=True)
            assert result.num_delivered == 7
            assert len(_child_pids() - before) == 2


class _LoopbackWorld:
    """Shared state of an in-process stand-in for an MPI communicator:
    one mailbox per rank and a barrier for ``gather``."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.boxes: list[queue.Queue[Any]] = [queue.Queue() for _ in range(size)]
        self.slots: list[Any] = [None] * size
        self.barrier = threading.Barrier(size)


class _LoopbackComm:
    """The slice of ``mpi4py.MPI.Comm`` the mpi transport calls; sends
    are copied through pickle, as MPI would serialize them."""

    def __init__(self, world: _LoopbackWorld, rank: int) -> None:
        self.world = world
        self.rank = rank

    def Get_size(self) -> int:
        return self.world.size

    def Get_rank(self) -> int:
        return self.rank

    def send(self, obj: Any, dest: int, tag: int) -> None:
        self.world.boxes[dest].put(pickle.loads(pickle.dumps(obj)))

    def iprobe(self, source: int, tag: int) -> bool:
        return not self.world.boxes[self.rank].empty()

    def recv(self, source: int, tag: int) -> Any:
        return self.world.boxes[self.rank].get()

    def gather(self, obj: Any, root: int) -> list[Any] | None:
        self.world.slots[self.rank] = obj
        self.world.barrier.wait()
        return list(self.world.slots) if self.rank == root else None


class _ThreadComm:
    """``COMM_WORLD`` of the stub module: each thread is one process."""

    def __init__(self) -> None:
        self.local = threading.local()

    def __getattr__(self, name: str) -> Any:
        return getattr(self.local.comm, name)


class TestMpiTransport:
    def test_two_rank_loopback_matches_inproc(self, monkeypatch):
        mpi = types.SimpleNamespace(ANY_SOURCE=-1, COMM_WORLD=_ThreadComm())
        monkeypatch.setitem(
            sys.modules, "mpi4py", types.SimpleNamespace(MPI=mpi)
        )
        transport = get_transport("mpi")
        schedule = registry.plan("all-to-all", P=2, L=3)
        world = _LoopbackWorld(2)
        results: dict[int, Any] = {}

        def process(rank: int) -> None:
            mpi.COMM_WORLD.local.comm = _LoopbackComm(world, rank)
            results[rank] = execute(
                lower_schedule(schedule), transport=transport, timeout=5.0
            )

        threads = [
            threading.Thread(target=process, args=(r,)) for r in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        inproc = execute(schedule, transport="inproc")
        assert results[0].transport == "mpi"
        assert results[0].trace.to_json() == inproc.trace.to_json()
        assert results[0].values == inproc.values
        assert results[1].trace.delivered == ()
