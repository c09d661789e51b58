"""Expansion of block-cyclic assignments into explicit schedules.

The assignment machinery reasons about *steady state*: one reception
multiset per step, words cycling within blocks.  This module turns an
assignment plus a window of items ``0 .. num_items-1`` into an explicit
:class:`~repro.schedule.ops.Schedule` — every send with its cycle, source
and destination — which is then machine-checked by the LogP simulator.

The expansion is written against a *general* form (:class:`GBlock`) in
which each block names the tree-node class it serves by ``(delay,
degree)`` and carries its word as leaf *delays*.  The standard
block-cyclic assignments of Section 3.2 convert losslessly into this form
(:func:`general_form`), and the pruned-tree constructions for ``L = 2``
(Theorem 3.5, :mod:`repro.core.continuous.l2`) use it directly.

Conventions: the source is processor 0 and emits item ``i`` at step ``i``;
non-source processors are numbered from 1, block by block, with the
receive-only processor(s) last.  Within a block of size ``r`` the ``j``-th
processor's reception at step ``tau`` is pattern phase ``(tau - j) mod r``
(phase 0 being the uppercase duty, followed by ``r`` consecutive sends).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.core.continuous.assignment import BlockCyclicAssignment
from repro.core.tree import BroadcastTree, tree_for_time
from repro.params import postal
from repro.schedule.ops import Schedule, SendOp

__all__ = [
    "GBlock",
    "GeneralAssignment",
    "general_form",
    "expand",
    "expand_assignment",
    "continuous_delay_lower_bound",
]


@dataclass(frozen=True)
class GBlock:
    """A block serving one internal node of the per-item tree.

    ``upper_delay`` and ``size`` identify the node class (its delay and
    out-degree; block size always equals the out-degree so that the
    ``size`` consecutive sends fit the cyclic period).  ``word`` lists the
    leaf *delays* received in the ``size - 1`` off-duty phases.
    """

    upper_delay: int
    size: int
    word: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.word) != self.size - 1:
            raise ValueError(
                f"GBlock of size {self.size} needs {self.size - 1} word "
                f"entries, got {len(self.word)}"
            )


@dataclass
class GeneralAssignment:
    """A block-cyclic solution in general (delay-based) form."""

    tree: BroadcastTree  # the per-item broadcast tree
    L: int
    blocks: list[GBlock]
    receive_only: tuple[int, ...]  # leaf delays of receive-only processors

    @property
    def completion(self) -> int:
        """Per-item tree completion time ``T`` (delay achieved is ``L + T``)."""
        return self.tree.completion_time

    @property
    def delay(self) -> int:
        return self.L + self.completion

    def validate(self) -> None:
        """Cover check: blocks ↔ internal nodes, words+receive-only ↔ leaves."""
        internal: Counter = Counter()
        for node in self.tree.internal_nodes():
            internal[(node.delay, node.out_degree)] += 1
        got: Counter = Counter()
        for block in self.blocks:
            got[(block.upper_delay, block.size)] += 1
        if internal != got:
            raise ValueError(
                f"blocks {dict(got)} do not cover internal nodes {dict(internal)}"
            )
        leaf_census: Counter = Counter(n.delay for n in self.tree.leaves())
        consumed: Counter = Counter()
        for block in self.blocks:
            consumed.update(block.word)
        consumed.update(self.receive_only)
        if leaf_census != consumed:
            raise ValueError(
                f"leaf cover mismatch: consumed {dict(consumed)}, "
                f"tree has {dict(leaf_census)}"
            )


def general_form(assignment: BlockCyclicAssignment) -> GeneralAssignment:
    """Convert a standard (offset-based) assignment to general form.

    In the optimal tree for time ``t`` an internal node with ``r`` children
    sits at delay ``t - L - r + 1`` and a lowercase offset ``m`` names the
    leaf delay ``t - m``.
    """
    L, t = assignment.L, assignment.t
    tree = tree_for_time(t, postal(P=1, L=L))
    blocks = [
        GBlock(
            upper_delay=t - L - b.size + 1,
            size=b.size,
            word=tuple(t - m for m in b.word),
        )
        for b in assignment.blocks
    ]
    general = GeneralAssignment(
        tree=tree,
        L=L,
        blocks=blocks,
        receive_only=(t - assignment.receive_only,),
    )
    general.validate()
    return general


def expand(general: GeneralAssignment, num_items: int) -> Schedule:
    """Expand a general assignment over items ``0 .. num_items - 1``.

    Returns a schedule in which every item is created at the source at
    step ``i``, received once by every non-source processor, and completes
    with delay exactly ``L + T``.
    """
    tree = general.tree
    L = general.L
    if num_items < 1:
        raise ValueError("need at least one item")

    # --- processor numbering -------------------------------------------
    proc_of_block: list[list[int]] = []
    next_proc = 1
    for block in general.blocks:
        proc_of_block.append(list(range(next_proc, next_proc + block.size)))
        next_proc += block.size
    receive_only_procs = list(range(next_proc, next_proc + len(general.receive_only)))
    next_proc += len(general.receive_only)
    num_procs = next_proc  # includes the source

    # --- pair blocks with concrete internal nodes ----------------------
    internal_by_class: dict[tuple[int, int], list[int]] = defaultdict(list)
    for node in tree.internal_nodes():
        internal_by_class[(node.delay, node.out_degree)].append(node.index)
    block_node: list[int] = []
    cursor: dict[tuple[int, int], int] = defaultdict(int)
    for block in general.blocks:
        key = (block.upper_delay, block.size)
        block_node.append(internal_by_class[key][cursor[key]])
        cursor[key] += 1

    leaves_by_delay: dict[int, list[int]] = defaultdict(list)
    for node in tree.leaves():
        leaves_by_delay[node.delay].append(node.index)

    # --- who receives which node of item i ------------------------------
    # proc_for[(item, node_index)] = receiving processor
    proc_for: dict[tuple[int, int], int] = {}
    horizon = L + num_items - 1 + tree.completion_time
    for tau in range(L, horizon + 1):
        # receivers of leaf receptions this step, keyed by leaf delay
        leaf_receivers: dict[int, list[int]] = defaultdict(list)
        for b_index, block in enumerate(general.blocks):
            r = block.size
            procs = proc_of_block[b_index]
            # uppercase duty
            item = tau - L - block.upper_delay
            if 0 <= item < num_items:
                proc_for[(item, block_node[b_index])] = procs[tau % r]
            for phase, leaf_delay in enumerate(block.word, start=1):
                item = tau - L - leaf_delay
                if 0 <= item < num_items:
                    leaf_receivers[leaf_delay].append(procs[(tau - phase) % r])
        for leaf_delay, proc in zip(general.receive_only, receive_only_procs):
            item = tau - L - leaf_delay
            if 0 <= item < num_items:
                leaf_receivers[leaf_delay].append(proc)
        for leaf_delay, receivers in leaf_receivers.items():
            item = tau - L - leaf_delay
            nodes = leaves_by_delay[leaf_delay]
            if len(receivers) != len(nodes):
                raise AssertionError(
                    f"step {tau}: {len(receivers)} receivers for "
                    f"{len(nodes)} leaves at delay {leaf_delay}"
                )
            for proc, node_index in zip(sorted(receivers), nodes):
                proc_for[(item, node_index)] = proc

    # --- emit sends ------------------------------------------------------
    sends: list[SendOp] = []
    for item in range(num_items):
        for node in tree.nodes:
            dst = proc_for[(item, node.index)]
            if node.parent is None:
                sends.append(SendOp(item, 0, dst, item))
            else:
                parent = tree.nodes[node.parent]
                rank = parent.children.index(node.index)
                src = proc_for[(item, parent.index)]
                sends.append(SendOp(L + item + parent.delay + rank, src, dst, item))
    return Schedule(
        params=postal(P=num_procs, L=L),
        sends=sends,
        initial={0: set(range(num_items))},
        source_items={i: i for i in range(num_items)},
    )


def expand_assignment(assignment: BlockCyclicAssignment, num_items: int) -> Schedule:
    """Expand a standard block-cyclic assignment (convenience wrapper)."""
    return expand(general_form(assignment), num_items)


def continuous_delay_lower_bound(P: int, L: int) -> int:
    """The delay lower bound ``L + B(P-1)`` of Section 3.1."""
    from repro.core.fib import broadcast_time_postal

    return L + broadcast_time_postal(P - 1, L)
