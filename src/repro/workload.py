"""Application communication traces: plan and account whole workloads.

Real applications issue *sequences* of collectives.  A
:class:`WorkloadTrace` captures such a sequence (the way communication
tracers like mpiP or Score-P summarize an app); :func:`plan_workload`
prices every operation with the optimal planners and with classic
baselines, yielding a per-operation and end-to-end comparison — the
number an adopter actually cares about ("what does switching broadcast
algorithms buy my app?").

Supported ops: ``bcast``, ``kitem_bcast``, ``reduce``, ``allreduce``,
``allgather``, ``alltoall``, ``scatter``, ``gather``, ``barrier``
(priced as an allreduce of zero-size contributions), ``compute`` (local
cycles between collectives; overlaps nothing by assumption).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.trees import baseline_broadcast
from repro.comm import Communicator
from repro.params import LogPParams
from repro.schedule.analysis import broadcast_delay_per_proc

__all__ = ["CollectiveOp", "WorkloadTrace", "plan_workload", "WorkloadReport"]


@dataclass(frozen=True)
class CollectiveOp:
    """One traced operation.

    ``kind`` names the collective; ``count`` is how many times it occurs
    consecutively; ``arg`` is the k for ``kitem_bcast`` or the cycle count
    for ``compute``.
    """

    kind: str
    count: int = 1
    arg: int = 0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass
class WorkloadTrace:
    """A named sequence of collective operations."""

    name: str
    params: LogPParams
    ops: list[CollectiveOp] = field(default_factory=list)

    def add(self, kind: str, count: int = 1, arg: int = 0) -> "WorkloadTrace":
        self.ops.append(CollectiveOp(kind=kind, count=count, arg=arg))
        return self

    def total_ops(self) -> int:
        return sum(op.count for op in self.ops)


@dataclass
class WorkloadReport:
    """Cycle accounting for one workload under one algorithm suite."""

    trace: str
    rows: list[dict]
    optimal_total: int
    baseline_total: int

    @property
    def speedup(self) -> float:
        return self.baseline_total / self.optimal_total if self.optimal_total else 1.0

    def render(self) -> str:
        lines = [
            f"workload {self.trace}: optimal {self.optimal_total} cycles, "
            f"classic-tree baseline {self.baseline_total} cycles "
            f"({self.speedup:.2f}x)",
            f"{'op':<14}{'count':>6}{'optimal':>10}{'baseline':>10}",
        ]
        for row in self.rows:
            lines.append(
                f"{row['kind']:<14}{row['count']:>6}{row['optimal']:>10}"
                f"{row['baseline']:>10}"
            )
        return "\n".join(lines)


def _baseline_bcast_cycles(params: LogPParams) -> int:
    schedule = baseline_broadcast("binomial", params)
    return max(broadcast_delay_per_proc(schedule).values())


def plan_workload(trace: WorkloadTrace) -> WorkloadReport:
    """Price every op with the optimal planners and a binomial-tree suite.

    The baseline suite mirrors what a simple MPI implementation does:
    binomial bcast/reduce, reduce+bcast allreduce, the same cyclic
    alltoall (it is hard to do worse), flat scatter/gather.
    """
    comm = Communicator(trace.params)
    bino = _baseline_bcast_cycles(trace.params)
    rows: list[dict] = []
    opt_total = 0
    base_total = 0
    for op in trace.ops:
        if op.kind == "bcast":
            optimal = comm.bcast().cycles
            baseline = bino
        elif op.kind == "kitem_bcast":
            optimal = comm.kitem_bcast(max(op.arg, 1)).cycles
            baseline = max(op.arg, 1) * bino  # repeated binomial broadcasts
        elif op.kind == "reduce":
            optimal = comm.reduce().cycles
            baseline = bino
        elif op.kind == "allreduce":
            optimal = comm.allreduce().cycles
            baseline = 2 * bino
        elif op.kind == "barrier":
            optimal = comm.allreduce().cycles
            baseline = 2 * bino
        elif op.kind == "allgather":
            optimal = comm.allgather().cycles
            baseline = comm.allgather().cycles  # already the classic ring
        elif op.kind == "alltoall":
            optimal = comm.alltoall().cycles
            baseline = comm.alltoall().cycles
        elif op.kind in ("scatter", "gather"):
            optimal = comm.scatter().cycles
            baseline = comm.scatter().cycles
        elif op.kind == "compute":
            optimal = baseline = op.arg
        else:
            raise ValueError(f"unknown collective kind {op.kind!r}")
        rows.append(
            {
                "kind": op.kind,
                "count": op.count,
                "optimal": optimal * op.count,
                "baseline": baseline * op.count,
            }
        )
        opt_total += optimal * op.count
        base_total += baseline * op.count
    return WorkloadReport(
        trace=trace.name,
        rows=rows,
        optimal_total=opt_total,
        baseline_total=base_total,
    )
