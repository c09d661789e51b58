"""Explicit optimal summation schedules (Section 5, Figure 6).

Expands the time-reversed broadcast tree into a cycle-accurate plan: per
processor, a chain of input-summing additions interleaved with the
receive-overhead/merge slots of incoming partial sums, and one outgoing
send.  The plan is verified functionally — operands are concrete
integers, every addition's inputs must exist when it fires, and the root
must hold the exact total at cycle ``t``.

Timing recap (processor = node ``i`` of the summation tree, delay ``d``,
``r`` children, ``S = t - d``):

* rank-``j`` child's partial arrives so that its merge completes at
  ``S - j*g`` (receive overhead ``[S - j*g - 1 - o, S - j*g - 1)``, merge
  add ``[S - j*g - 1, S - j*g)``);
* every cycle of ``[0, S)`` not spent on receive overhead or merges is
  an input-summing addition (consuming ``S - (o+1)r + 1`` operands);
* the processor sends its partial at ``S`` (the root's "send" at ``t``
  is the final addition's completion).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.summation.capacity import operand_distribution, summation_tree
from repro.core.tree import BroadcastTree
from repro.params import LogPParams
from repro.schedule.ops import ComputeOp, Schedule, SendOp

__all__ = ["SummationSchedule", "summation_schedule", "verify_summation"]


@dataclass
class SummationSchedule:
    """A complete summation plan for ``n`` operands on ``P`` processors."""

    params: LogPParams
    t: int
    tree: BroadcastTree
    operands: list[list[int]]  # operand values per processor (node order)
    sends: list[SendOp]
    computes: list[ComputeOp]

    @property
    def n(self) -> int:
        return sum(len(ops) for ops in self.operands)

    def total(self) -> int:
        return sum(sum(ops) for ops in self.operands)

    def to_schedule(self) -> Schedule:
        """Project onto the generic IR (for the LogP communication checks)."""
        return Schedule(
            params=self.params,
            sends=sorted(self.sends),
            initial={p: {("partial", p)} for p in range(self.params.P)},
            computes=sorted(self.computes),
        )


def summation_schedule(
    t: int, params: LogPParams, operands: list[int] | None = None
) -> SummationSchedule:
    """Build the optimal summation schedule for time budget ``t``.

    ``operands`` (defaults to ``1, 2, ..., n(t)``) are dealt to processors
    according to the optimal distribution; pass fewer than ``n(t)`` values
    is an error — use :func:`repro.core.summation.capacity.min_summation_time`
    to right-size ``t`` first.
    """
    dist = operand_distribution(t, params)
    n = sum(dist)
    if operands is None:
        operands = list(range(1, n + 1))
    if len(operands) != n:
        raise ValueError(f"expected exactly n(t)={n} operands, got {len(operands)}")
    tree = summation_tree(params)
    o, g = params.o, params.g

    per_proc: list[list[int]] = []
    cursor = 0
    for count in dist:
        per_proc.append(list(operands[cursor : cursor + count]))
        cursor += count

    sends: list[SendOp] = []
    computes: list[ComputeOp] = []
    for node in tree.nodes:
        i = node.index
        S = t - node.delay
        r = node.out_degree
        # blocked cycles: receive overhead + merge for each rank-j child
        blocked: set[int] = set()
        for j in range(r):
            merge_at = S - j * g - 1
            computes.append(
                ComputeOp(
                    time=merge_at,
                    proc=i,
                    result=("merge", i, j),
                    operands=(("partial", node.children[j]), ("acc", i)),
                )
            )
            for c in range(merge_at - o, merge_at + 1):
                blocked.add(c)
        # input-summing chain fills every unblocked cycle in [0, S)
        local_cycles = [c for c in range(S) if c not in blocked]
        expected = S - (o + 1) * r
        if len(local_cycles) != expected:
            raise AssertionError(
                f"node {i}: {len(local_cycles)} free cycles, expected {expected}"
            )
        for seq, cycle in enumerate(local_cycles):
            computes.append(
                ComputeOp(
                    time=cycle,
                    proc=i,
                    result=("acc", i, seq),
                    operands=(("input", i, seq),),
                )
            )
        if node.parent is not None:
            sends.append(
                SendOp(time=S, src=i, dst=node.parent, item=("partial", i))
            )
    return SummationSchedule(
        params=params,
        t=t,
        tree=tree,
        operands=per_proc,
        sends=sorted(sends),
        computes=sorted(computes),
    )


def verify_summation(plan: SummationSchedule) -> int:
    """Functionally execute the plan and return the root's final value.

    Checks, cycle by cycle: no processor does two things at once (receive
    overhead, merge, input add, send overhead all occupy cycles);
    partial sums arrive before they are merged; every operand is consumed
    exactly once; the root's value at ``t`` equals the true total.
    Raises ``AssertionError`` on any violation.
    """
    params = plan.params
    o, g = params.o, params.g
    L_sum = params.L  # summation messages travel the true latency L
    tree = plan.tree

    busy: dict[int, set[int]] = {node.index: set() for node in tree.nodes}

    def occupy(proc: int, start: int, end: int, what: str) -> None:
        for c in range(start, end):
            if c in busy[proc]:
                raise AssertionError(f"proc {proc} double-booked at cycle {c} ({what})")
            busy[proc].add(c)

    acc: dict[int, int] = {}
    consumed: dict[int, int] = {}
    partial_sent: dict[int, tuple[int, int]] = {}  # node -> (send time, value)

    # process nodes leaves-first (children strictly before parents)
    order = sorted(tree.nodes, key=lambda nd: -nd.delay)
    for node in order:
        i = node.index
        S = plan.t - node.delay
        r = node.out_degree
        merge_slots = {S - j * g - 1: j for j in range(r)}
        overhead = {
            c
            for merge in merge_slots
            for c in range(merge - o, merge)
        }
        value = 0
        started = False
        ops = plan.operands[i]
        taken = 0
        for cycle in range(S):
            if cycle in overhead:
                continue  # receive overhead; occupancy booked with the merge
            if cycle in merge_slots:
                j = merge_slots[cycle]
                child = node.children[j]
                send_time, child_value = partial_sent[child]
                # arrival consistency: overhead [send+o+L, send+o+L+o),
                # merge add right after — must equal this cycle
                expected_merge = send_time + 2 * o + L_sum
                if expected_merge != cycle:
                    raise AssertionError(
                        f"child {child} partial merges at {cycle}, "
                        f"expected {expected_merge}"
                    )
                occupy(i, cycle - o, cycle + 1, f"recv+merge child {child}")
                value += child_value
            elif cycle not in busy[i]:
                # an input-summing addition: consumes one operand (two for
                # the very first addition of the chain)
                occupy(i, cycle, cycle + 1, "input add")
                if not started:
                    if len(ops) == 1:
                        # a single operand needs no addition; treat the
                        # first cycle as loading it
                        value += ops[taken]
                        taken += 1
                    else:
                        value += ops[taken] + ops[taken + 1]
                        taken += 2
                    started = True
                else:
                    value += ops[taken]
                    taken += 1
        if not started and ops:
            # no free cycle at all: only legal when exactly one operand,
            # folded into the first merge
            if len(ops) != 1:
                raise AssertionError(f"proc {i} cannot consume {len(ops)} operands")
            value += ops[0]
            taken = 1
        if taken != len(ops):
            raise AssertionError(
                f"proc {i} consumed {taken} of {len(ops)} operands"
            )
        if node.parent is not None:
            occupy(i, S, S + o, "send overhead")
            partial_sent[i] = (S, value)
        else:
            root_value = value
    expected = plan.total()
    if root_value != expected:
        raise AssertionError(f"root computed {root_value}, expected {expected}")
    return root_value
