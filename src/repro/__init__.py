"""logp-collectives: optimal broadcast and summation in the LogP model.

A faithful, machine-checked reproduction of *Karp, Sahay, Santos,
Schauser — "Optimal Broadcast and Summation in the LogP Model"*
(SPAA 1993): the universal optimal broadcast tree, k-item and continuous
broadcast with block-cyclic schedules, all-to-all and combining
broadcast, and optimal summation — plus a cycle-accurate LogP simulator
that validates every schedule the library produces.

Quickstart::

    from repro import plan, replay

    schedule = plan("broadcast", P=8, L=6, o=2, g=4)
    trace = replay(schedule)           # raises if any LogP rule is broken
    print(max(op.arrival(schedule.params) for op in schedule.sends))  # B(P) = 24

:func:`plan` resolves any registered collective by name (``broadcast``,
``kitem``, ``continuous``, ``all-to-all``, ``summation``, ``allreduce``,
``reduction``) through the declarative registry in
:mod:`repro.registry`; the per-collective builder functions remain
available for direct use.
"""

from repro.core.all_to_all import (
    all_to_all_lower_bound,
    all_to_all_personalized_schedule,
    all_to_all_schedule,
    k_item_all_to_all_lower_bound,
    k_item_all_to_all_schedule,
)
from repro.core.combining import (
    CombiningRun,
    combining_time,
    reduction_schedule,
    simulate_combining,
)
from repro.core.fib import (
    broadcast_time,
    broadcast_time_postal,
    fib,
    fib_sequence,
    k_star,
    kitem_lower_bound,
    reachable,
    reachable_postal,
    single_sending_lower_bound,
)
from repro.core.kitem.bounds import continuous_based_time, kitem_upper_bound
from repro.core.kitem.buffered import BufferedSchedule, buffered_schedule
from repro.core.kitem.single_sending import (
    continuous_based_schedule,
    greedy_single_sending_schedule,
    single_sending_schedule,
)
from repro.core.continuous.assignment import (
    Block,
    BlockCyclicAssignment,
    find_base_cases,
    solve,
    solve_instance,
)
from repro.core.continuous.relative import Instance, instance_for, step_multiset
from repro.core.continuous.schedule import (
    continuous_delay_lower_bound,
    expand,
    expand_assignment,
)
from repro.core.single_item import (
    optimal_broadcast_schedule,
    optimal_broadcast_time,
    schedule_from_tree,
)
from repro.core.summation.capacity import (
    min_summation_time,
    operand_distribution,
    summation_capacity,
    summation_tree,
)
from repro.core.summation.schedule import (
    SummationSchedule,
    summation_schedule,
    verify_summation,
)
from repro.core.tree import BroadcastTree, TreeNode, optimal_tree, tree_for_time
from repro.params import LogPParams, postal
from repro.passes import PassManager, SchedulePass, pass_names, run_pipeline
from repro.registry import CollectiveSpec, get_spec, plan
from repro.schedule.ops import ComputeOp, Schedule, SendOp
from repro.sim.validate import assert_valid, replay, violations

__version__ = "1.0.0"

__all__ = [
    # machine model
    "LogPParams",
    "postal",
    # collective registry
    "plan",
    "get_spec",
    "CollectiveSpec",
    # fibonacci machinery
    "fib",
    "fib_sequence",
    "reachable",
    "reachable_postal",
    "broadcast_time",
    "broadcast_time_postal",
    "k_star",
    # schedule IR + simulator
    "Schedule",
    "SendOp",
    "ComputeOp",
    "replay",
    "assert_valid",
    "violations",
    # trees
    "BroadcastTree",
    "TreeNode",
    "optimal_tree",
    "tree_for_time",
    # single-item broadcast
    "optimal_broadcast_schedule",
    "optimal_broadcast_time",
    "schedule_from_tree",
    # k-item broadcast
    "kitem_lower_bound",
    "kitem_upper_bound",
    "single_sending_lower_bound",
    "continuous_based_time",
    "single_sending_schedule",
    "continuous_based_schedule",
    "greedy_single_sending_schedule",
    "buffered_schedule",
    "BufferedSchedule",
    # continuous broadcast
    "Instance",
    "instance_for",
    "step_multiset",
    "Block",
    "BlockCyclicAssignment",
    "solve",
    "solve_instance",
    "find_base_cases",
    "expand",
    "expand_assignment",
    "continuous_delay_lower_bound",
    # all-to-all
    "all_to_all_schedule",
    "all_to_all_personalized_schedule",
    "all_to_all_lower_bound",
    "k_item_all_to_all_schedule",
    "k_item_all_to_all_lower_bound",
    # pass framework
    "SchedulePass",
    "PassManager",
    "run_pipeline",
    "pass_names",
    # combining / reduction
    "simulate_combining",
    "combining_time",
    "reduction_schedule",
    "CombiningRun",
    # summation
    "summation_tree",
    "summation_capacity",
    "min_summation_time",
    "operand_distribution",
    "summation_schedule",
    "verify_summation",
    "SummationSchedule",
]
