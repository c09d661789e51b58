"""Per-send loop builders: oracles for the numpy-broadcasting builders
in :mod:`repro.core.single_item`, :mod:`repro.core.all_to_all` and
:mod:`repro.core.combining`.

Each returns an object-backed :class:`~repro.schedule.ops.Schedule`
built one :meth:`~repro.schedule.ops.Schedule.add` at a time, with the
same sends, initial placement and creation times as the library
builder of the same name.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.all_to_all import interleaving_gap
from repro.core.combining import combining_time
from repro.core.fib import fib
from repro.core.tree import BroadcastTree
from repro.params import LogPParams, postal
from repro.schedule.ops import Schedule
from tests.oracles.tree import optimal_tree_heap


def schedule_from_tree_objects(
    tree: BroadcastTree,
    item: object = 0,
    start_time: int = 0,
    proc_map: dict[int, int] | None = None,
) -> Schedule:
    """Oracle for :func:`repro.core.single_item.schedule_from_tree`."""
    g = tree.params.g
    proc = (lambda i: i) if proc_map is None else (lambda i: proc_map[i])
    schedule = Schedule(
        params=tree.params,
        initial={proc(0): {item}},
        source_items={item: start_time},
    )
    for node in tree.nodes:
        for j, child in enumerate(node.children):
            schedule.add(
                time=start_time + node.delay + j * g,
                src=proc(node.index),
                dst=proc(child),
                item=item,
            )
    return schedule


def optimal_broadcast_schedule_objects(params: LogPParams) -> Schedule:
    """Oracle for :func:`repro.core.single_item.optimal_broadcast_schedule`."""
    return schedule_from_tree_objects(optimal_tree_heap(params))


def all_to_all_schedule_objects(
    params: LogPParams, orders: Sequence[Sequence[int]] | None = None
) -> Schedule:
    """Oracle for :func:`repro.core.all_to_all.all_to_all_schedule`."""
    P = params.P
    if P < 2:
        return Schedule(params=params, initial={0: {("a2a", 0)}})
    if orders is None:
        orders = [[(i + d) % P for d in range(1, P)] for i in range(P)]
    gp = interleaving_gap(params)
    schedule = Schedule(params=params, initial={i: {("a2a", i)} for i in range(P)})
    for i in range(P):
        for slot, dst in enumerate(orders[i]):
            schedule.add(time=slot * gp, src=i, dst=dst, item=("a2a", i))
    return schedule


def all_to_all_personalized_schedule_objects(params: LogPParams) -> Schedule:
    """Oracle for
    :func:`repro.core.all_to_all.all_to_all_personalized_schedule`."""
    P = params.P
    initial = {i: {("p2p", i, j) for j in range(P) if j != i} for i in range(P)}
    gp = interleaving_gap(params)
    schedule = Schedule(params=params, initial=initial)
    for i in range(P):
        for slot in range(P - 1):
            dst = (i + 1 + slot) % P
            schedule.add(time=slot * gp, src=i, dst=dst, item=("p2p", i, dst))
    return schedule


def k_item_all_to_all_schedule_objects(params: LogPParams, k: int) -> Schedule:
    """Oracle for :func:`repro.core.all_to_all.k_item_all_to_all_schedule`."""
    P = params.P
    initial = {i: {("a2a", i, copy) for copy in range(k)} for i in range(P)}
    schedule = Schedule(params=params, initial=initial)
    if P < 2:
        return schedule
    gp = interleaving_gap(params)
    for copy in range(k):
        base = copy * (P - 1) * gp
        for i in range(P):
            for slot in range(P - 1):
                dst = (i + 1 + slot) % P
                schedule.add(
                    time=base + slot * gp, src=i, dst=dst, item=("a2a", i, copy)
                )
    return schedule


def combining_schedule_objects(T: int, L: int) -> Schedule:
    """Oracle for :func:`repro.core.combining.combining_schedule`: the
    Theorem 4.1 sends emitted step by step, one ``add`` per send."""
    if T < L:
        raise ValueError(f"need T >= L, got T={T}, L={L}")
    P = fib(L, T)
    schedule = Schedule(
        params=postal(P=P, L=L),
        initial={
            i: {("partial", i, j) for j in range(0, T - L + 1)} for i in range(P)
        },
    )
    for j in range(0, T - L + 1):
        stride = fib(L, j + L - 1)
        for i in range(P):
            schedule.add(time=j, src=i, dst=(i + stride) % P, item=("partial", i, j))
    return schedule


def allreduce_schedule_objects(params: LogPParams) -> Schedule:
    """Oracle for the registry's ``allreduce`` build: the combining
    broadcast on the smallest ``P(T) >= P``."""
    return combining_schedule_objects(combining_time(params.P, params.L), params.L)


#: Registry collectives whose builder has a per-send oracle here.
REGISTRY_ORACLES = {
    "broadcast": optimal_broadcast_schedule_objects,
    "all-to-all": all_to_all_schedule_objects,
    "allreduce": allreduce_schedule_objects,
}
