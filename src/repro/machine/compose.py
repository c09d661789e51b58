"""Two-level composed collectives for hierarchical machines.

Promotes the composition that ``examples/hierarchical_broadcast.py``
sketched — broadcast among node leaders on the slow inter-node fabric,
then fan out inside each node on the fast intra-node one — into library
builders the registry can plan with (``hier-bcast`` / ``hier-reduce``).

Two layers live here:

* :func:`hier_broadcast_schedule` / :func:`hier_reduction_schedule` —
  fully columnar builders over a :class:`HierarchicalMachine`.  Both
  phases come from the paper's optimal constructions (Theorem 2.1 trees
  on each fabric); the intra-node phase is one tiled template, so the
  build never materializes a ``SendOp`` and stays O(level schedules),
  not O(ranks x ranks).
* :func:`two_level_broadcast_plan` — the example's ``Communicator`` +
  :func:`repro.comm.embed_plan` flow, returning the composed schedule
  together with the per-phase cycle counts and the topology-oblivious
  flat baseline it beats.

Legality of the composition (per-level semantics, DESIGN S38): the
leader phase is the inter-node optimal broadcast with ranks relabelled
injectively (level-0 legal); each node's fan-out is the intra-node
optimal broadcast shifted to start exactly when its leader is informed,
on rank sets disjoint across nodes (level-1 legal); and a leader driving
its NIC and its local bus concurrently is precisely the multi-interface
concurrency the per-level validator licenses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fib import broadcast_time
from repro.core.single_item import optimal_broadcast_sends
from repro.machine.model import HierarchicalMachine, MachineModel
from repro.schedule.columnar import ItemTable
from repro.schedule.ops import Schedule

__all__ = [
    "hier_broadcast_schedule",
    "hier_reduction_schedule",
    "TwoLevelBroadcast",
    "two_level_broadcast_plan",
]

_EMPTY = np.empty(0, dtype=np.int64)


def _require_hier(machine: MachineModel) -> HierarchicalMachine:
    if not isinstance(machine, HierarchicalMachine):
        raise ValueError(
            f"hierarchical builders need a HierarchicalMachine, got "
            f"{type(machine).__name__}"
        )
    return machine


def hier_broadcast_schedule(machine: MachineModel, item: object = 0) -> Schedule:
    """Two-level broadcast of one item from global rank 0.

    Phase 0 broadcasts among the node leaders with the optimal inter-node
    tree; phase 1 tiles the optimal intra-node tree inside every node,
    each tile starting the cycle its leader first holds the item.  Every
    rank is informed exactly once, so the plan lints warning-free.
    """
    m = _require_hier(machine)
    nodes, cores = m.nodes, m.cores

    if nodes > 1:
        # avail: the leaders' inform times, indexed by node
        inter_times, srcs, dsts, avail = optimal_broadcast_sends(m.inter)
        inter_srcs, inter_dsts = srcs * cores, dsts * cores
    else:
        inter_times = inter_srcs = inter_dsts = _EMPTY
        avail = np.zeros(1, dtype=np.int64)

    if cores > 1:
        tile_times, tile_srcs, tile_dsts, _ = optimal_broadcast_sends(m.intra)
        T = len(tile_times)
        offsets = np.arange(nodes, dtype=np.int64) * cores
        intra_times = np.repeat(avail, T) + np.tile(tile_times, nodes)
        intra_srcs = np.tile(tile_srcs, nodes) + np.repeat(offsets, T)
        intra_dsts = np.tile(tile_dsts, nodes) + np.repeat(offsets, T)
    else:
        intra_times = intra_srcs = intra_dsts = _EMPTY

    return Schedule.from_arrays(
        m.flat_params,
        np.concatenate([inter_times, intra_times]),
        np.concatenate([inter_srcs, intra_srcs]),
        np.concatenate([inter_dsts, intra_dsts]),
        item_table=ItemTable([item]),
        initial={0: {item}},
        machine=m,
    )


def hier_reduction_schedule(machine: MachineModel) -> Schedule:
    """Two-level all-to-one reduction: the hier broadcast time-reversed.

    Per-edge arrivals make the reversal machine-aware for free: a send at
    ``t`` with level cost ``c`` becomes a send at ``completion - t - c``
    in the opposite direction, and the (src, dst) swap preserves each
    edge's level, so every per-level spacing argument mirrors.  Items
    follow the flat reduction's ``("red", proc)`` convention.
    """
    m = _require_hier(machine)
    from repro.passes.kernels import reverse_columns

    bcast = hier_broadcast_schedule(m)
    initial = {p: {("red", p)} for p in range(m.num_procs)}
    if len(bcast.columns()) == 0:
        return Schedule(params=m.flat_params, initial=initial, machine=m)
    return reverse_columns(bcast, tag="red", initial=initial)


@dataclass(frozen=True)
class TwoLevelBroadcast:
    """A composed two-level broadcast plan plus its cost decomposition."""

    machine: HierarchicalMachine
    #: The composed global schedule (machine-priced, array-backed).
    schedule: Schedule
    #: The leader phase lifted onto global ranks (flat-envelope params).
    leader_schedule: Schedule
    inter_cycles: int
    intra_cycles: int
    total_cycles: int
    #: The topology-oblivious optimal broadcast on the flat envelope.
    flat_cycles: int

    @property
    def speedup(self) -> float:
        """How much topology awareness buys over the oblivious plan."""
        if self.total_cycles == 0:
            return 1.0
        return self.flat_cycles / self.total_cycles


def two_level_broadcast_plan(machine: MachineModel) -> TwoLevelBroadcast:
    """The example's leader-plan + ``embed_plan`` fan-out, as library code.

    Plans the inter-node phase with a :class:`~repro.comm.Communicator`
    over the leaders, lifts it onto global ranks via
    :func:`repro.comm.embed_plan`, and pairs it with the composed
    columnar schedule and the flat baseline.
    """
    m = _require_hier(machine)
    # comm sits above this module in the layering; import lazily so the
    # machine package stays importable from the core builders
    from repro.comm import Communicator, embed_plan
    from repro.schedule.analysis import completion_time

    inter_plan = Communicator(m.inter).bcast(root=0)
    mapping = {i: m.leader(i) for i in range(m.nodes)}
    leader_schedule = embed_plan(inter_plan, mapping, params=m.flat_params)
    schedule = hier_broadcast_schedule(m)
    inter_cycles = broadcast_time(m.nodes, m.inter)
    intra_cycles = broadcast_time(m.cores, m.intra)
    return TwoLevelBroadcast(
        machine=m,
        schedule=schedule,
        leader_schedule=leader_schedule,
        inter_cycles=inter_cycles,
        intra_cycles=intra_cycles,
        total_cycles=completion_time(schedule),
        flat_cycles=broadcast_time(m.num_procs, m.flat_params),
    )
