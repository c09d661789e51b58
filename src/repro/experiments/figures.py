"""Regeneration of every figure in the paper.

One function per figure; each returns a :class:`FigureResult` carrying
the rendered text artifact plus the measured numbers that EXPERIMENTS.md
records (paper value vs measured value).  The benchmark suite calls these
and asserts the claims; the functions are also directly runnable::

    python -m repro.experiments.figures        # print all six figures
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.continuous.assignment import solve_instance
from repro.core.continuous.relative import instance_for, step_multiset
from repro.core.continuous.schedule import expand_assignment
from repro.core.continuous.words import word_automaton
from repro.core.fib import broadcast_time_postal
from repro.core.kitem.blocks import block_layout, block_transmission_digraph
from repro.core.kitem.buffered import buffered_schedule
from repro.core.kitem.bounds import (
    kitem_lower_bound,
    single_sending_lower_bound,
)
from repro.core.kitem.single_sending import continuous_based_schedule, single_sending_schedule
from repro.core.single_item import optimal_broadcast_schedule
from repro.core.summation.capacity import summation_capacity
from repro.core.summation.schedule import summation_schedule, verify_summation
from repro.core.tree import optimal_tree, tree_for_time
from repro.params import LogPParams, postal
from repro.schedule.analysis import item_completion_times, item_delays
from repro.sim.validate import replay
from repro.viz.ascii import render_schedule_activity, render_tree
from repro.viz.digraph import render_digraph
from repro.viz.tables import (
    buffered_reception_table,
    reception_table,
    render_reception_table,
)

__all__ = [
    "FigureResult",
    "fig1_single_item",
    "fig2_continuous",
    "fig3_digraph",
    "fig4_reception_table",
    "fig5_buffered",
    "fig6_summation",
    "all_figures",
]


@dataclass
class FigureResult:
    """A regenerated paper artifact."""

    figure: str
    description: str
    text: str
    measured: dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        header = f"=== {self.figure}: {self.description} ==="
        facts = "\n".join(f"  {k} = {v}" for k, v in self.measured.items())
        return f"{header}\n{facts}\n\n{self.text}\n"


def fig1_single_item() -> FigureResult:
    """Figure 1: optimal broadcast tree and activity, P=8, L=6, g=4, o=2."""
    machine = LogPParams(P=8, L=6, o=2, g=4)
    tree = optimal_tree(machine)
    schedule = optimal_broadcast_schedule(machine)
    replay(schedule)
    text = render_tree(tree) + "\n\n" + render_schedule_activity(schedule)
    return FigureResult(
        figure="Figure 1",
        description="optimal broadcast tree for P=8, L=6, g=4, o=2",
        text=text,
        measured={
            "B(P)": tree.completion_time,
            "paper_B(P)": 24,
            "node_delays": sorted(tree.delays()),
        },
    )


def fig2_continuous() -> FigureResult:
    """Figure 2: T9, the per-step multiset, the automaton, the continuous
    schedule, and the k=8 broadcast schedule (P=10, L=3)."""
    t, L, k = 7, 3, 8
    tree = tree_for_time(t, postal(P=1, L=L))
    multiset = step_multiset(t, L)
    assignment = solve_instance(instance_for(t, L))
    assert assignment is not None
    continuous = expand_assignment(assignment, num_items=k)
    replay(continuous)
    delays = item_delays(continuous, procs=set(range(1, 10)))

    auto = word_automaton(L)
    auto_text = "automaton states: " + ", ".join(
        ("*" if auto.nodes[s]["start"] else "") + auto.nodes[s]["label"]
        for s in sorted(auto.nodes)
    )

    kitem = continuous_based_schedule(k, t, L)
    assert kitem is not None
    completion = max(item_completion_times(kitem, set(range(10))).values())

    table = render_reception_table(reception_table(continuous))
    text = "\n\n".join(
        [
            "T9 (optimal 7-step tree, L=3):\n" + render_tree(tree),
            f"per-step reception multiset S = {multiset.letters()}",
            auto_text,
            f"block-cyclic solution: {assignment.describe()}",
            "continuous broadcast receiving pattern (items 0..7):\n" + table,
        ]
    )
    return FigureResult(
        figure="Figure 2",
        description="continuous + k-item broadcast, P=10, L=3, k=8",
        text=text,
        measured={
            "item_delay": sorted(set(delays.values())),
            "paper_item_delay": [10],  # L + B(P-1) = 3 + 7
            "k8_completion": completion,
            "paper_k8_completion": 17,  # L + B + k - 1
            "kitem_lower_bound": kitem_lower_bound(10, L, k),  # 15 (Thm 3.1)
            "paper_S7": ["a", "a", "a", "b", "b", "c", "D1", "E2", "H5"],
            "measured_S7": multiset.letters(),
        },
    )


def fig3_digraph() -> FigureResult:
    """Figure 3: block transmission digraph, L=3, P-1 = P(11) = 41."""
    t, L = 11, 3
    layout = block_layout(t, L)
    graph = block_transmission_digraph(t, L)
    return FigureResult(
        figure="Figure 3",
        description="block transmission digraph for L=3, P-1=P(11)=41",
        text=render_digraph(graph),
        measured={
            "P_minus_1": layout.P_minus_1,
            "paper_P_minus_1": 41,
            "block_sizes": sorted(layout.blocks, reverse=True),
            "flow_conserved": True,  # the builder validates in == out == r
        },
    )


def fig4_reception_table() -> FigureResult:
    """Figure 4: reception table of a block of size 7, L=5, k=16.

    The paper hand-crafts the within-block reception scheme of Theorem
    3.7 case 2; we extract the equivalent table from our machine-checked
    single-sending schedule for the machine whose optimal tree has a
    7-block (L=5, P-1 = P(11) = 11, whose root is the size-7 block).
    """
    L, k = 5, 16
    P = 12  # P - 1 = P(11) = 11 for L=5; root block has size 7
    schedule = single_sending_schedule(k, P, L)
    replay(schedule)
    completion = max(item_completion_times(schedule, set(range(P))).values())

    # identify the 7 processors that take the root (degree-7) duty: they
    # are the processors that *send* most often
    send_counts: dict[int, int] = {}
    for op in schedule.sends:
        if op.src != 0:
            send_counts[op.src] = send_counts.get(op.src, 0) + 1
    block = sorted(send_counts, key=lambda p: -send_counts[p])[:7]

    actives = {
        (op.dst, op.item)
        for op in schedule.sends
        if op.src == 0 or _is_internal_reception(schedule, op)
    }
    table = reception_table(schedule, actives=actives)
    text = render_reception_table(table, procs=sorted(block))
    return FigureResult(
        figure="Figure 4",
        description="reception table of the size-7 block, L=5, k=16",
        text=text,
        measured={
            "completion": completion,
            "single_sending_lower_bound": single_sending_lower_bound(P, L, k),
            "paper_bound_B+2L+k-2": broadcast_time_postal(P - 1, L) + 2 * L + k - 2,
            "block": sorted(block),
        },
    )


def _is_internal_reception(schedule, op) -> bool:
    """A reception is 'active' if the receiver later relays the item."""
    return any(
        later.src == op.dst and later.item == op.item for later in schedule.sends
    )


def fig5_buffered() -> FigureResult:
    """Figure 5: buffered-model optimal schedule, L=3, P-1=13, k=14."""
    k, t, L = 14, 8, 3
    schedule = buffered_schedule(k, t, L)
    schedule.validate()
    table = render_reception_table(buffered_reception_table(schedule))
    return FigureResult(
        figure="Figure 5",
        description="buffered-model schedule, L=3, P-1=13, k=14",
        text=table,
        measured={
            "completion": schedule.completion,
            "paper_completion": 24,  # B + L + k - 1 = 8 + 3 + 13
            "buffer_peak": schedule.buffer_peak,
            "paper_buffer_bound": 2,
            "delayed_receptions": len(schedule.delayed_items()),
        },
    )


def fig6_summation() -> FigureResult:
    """Figure 6: optimal summation, t=28, P=8, L=5, g=4, o=2."""
    machine = LogPParams(P=8, L=5, o=2, g=4)
    t = 28
    plan = summation_schedule(t, machine)
    total = verify_summation(plan)
    replay(plan.to_schedule())
    text = (
        "communication tree (time-reversed broadcast for L+1=6):\n"
        + render_tree(plan.tree)
        + "\n\ncomputation + communication activity:\n"
        + render_schedule_activity(plan.to_schedule())
    )
    return FigureResult(
        figure="Figure 6",
        description="optimal summation with t=28, P=8, L=5, g=4, o=2",
        text=text,
        measured={
            "n(t)": plan.n,
            "capacity_formula": summation_capacity(t, machine),
            "verified_total": total == plan.total(),
            "operands_per_proc": [len(ops) for ops in plan.operands],
        },
    )


def all_figures() -> list[FigureResult]:
    """Regenerate every figure in order."""
    return [
        fig1_single_item(),
        fig2_continuous(),
        fig3_digraph(),
        fig4_reception_table(),
        fig5_buffered(),
        fig6_summation(),
    ]


if __name__ == "__main__":  # pragma: no cover
    for result in all_figures():
        print(result)
