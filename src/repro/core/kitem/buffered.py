"""k-item broadcast on the buffered (modified) model (Theorem 3.8, Fig 5).

Section 3.5 modifies the postal model: each processor has an input
*buffer* holding items that arrived (were sent >= ``L`` steps earlier)
but have not yet been *received*; one item may be received per step, and
the processor may choose which.  Under this model the single-sending
lower bound ``B(P-1) + L + k - 1`` is achievable, with buffers never
holding more than 2 items.

Construction (following the paper's sketch): item ``i`` leaves the source
at step ``i`` and is relayed along the optimal ``t``-step tree
(``t = B(P-1)``, ``P - 1 = P(t)``).  Processors are grouped into the
r-blocks of Section 3.4; the member ``p_{i mod r}`` of each block takes
the *active* (internal-node) reception of item ``i`` and performs the
node's ``r`` consecutive sends.  Leaf (inactive) copies are directed to
the processors that still need the item; an inactive item landing in the
same step as an active one is *delayed* — it waits in the buffer until a
step with no active arrival (the paper's circled/boxed entries in
Figure 5).

The destination of each leaf send is chosen greedily (fewest buffered
items, then least-loaded); the result is machine-checked by
:meth:`BufferedSchedule.validate`: unique receptions, one reception per
processor per step, receive-after-arrival, buffer occupancy <= 2, and
completion exactly ``B + L + k - 1``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.core.kitem.bounds import single_sending_lower_bound
from repro.core.tree import tree_for_time
from repro.params import postal
from repro.schedule.ops import SendOp

__all__ = ["BufferedSchedule", "buffered_schedule"]


@dataclass
class BufferedSchedule:
    """A k-item broadcast execution on the buffered model."""

    P: int
    L: int
    t: int
    k: int
    sends: list[SendOp]
    # (proc, item) -> (arrival step, reception step, active?)
    receptions: dict[tuple[int, int], tuple[int, int, bool]]
    buffer_peak: int

    @property
    def completion(self) -> int:
        return max(recv for _a, recv, _act in self.receptions.values())

    @property
    def bound(self) -> int:
        """The single-sending lower bound this schedule achieves."""
        return single_sending_lower_bound(self.P, self.L, self.k)

    def delayed_items(self) -> list[tuple[int, int]]:
        """(proc, item) pairs whose reception was delayed by buffering
        (Figure 5's boxed entries)."""
        return sorted(
            key
            for key, (arrival, recv, active) in self.receptions.items()
            if not active and recv > arrival
        )

    def validate(self) -> None:
        procs = range(1, self.P)
        for p in procs:
            for item in range(self.k):
                if (p, item) not in self.receptions:
                    raise ValueError(f"proc {p} never receives item {item}")
        by_step: dict[tuple[int, int], int] = defaultdict(int)
        for (p, _item), (arrival, recv, _active) in self.receptions.items():
            if recv < arrival:
                raise ValueError(f"proc {p} receives before arrival")
            by_step[(p, recv)] += 1
        if any(count > 1 for count in by_step.values()):
            raise ValueError("a processor receives two items in one step")
        if self.buffer_peak > 2:
            raise ValueError(f"buffer occupancy reached {self.buffer_peak} (> 2)")
        if self.completion > self.bound:
            raise ValueError(
                f"completion {self.completion} exceeds bound {self.bound}"
            )
        sent_by_source = [op for op in self.sends if op.src == 0]
        if sorted(op.item for op in sent_by_source) != list(range(self.k)):
            raise ValueError("source is not single-sending")


def buffered_schedule(
    k: int, t: int, L: int, dest_strategy: str = "greedy"
) -> BufferedSchedule:
    """Build the Theorem 3.8 schedule for ``P - 1 = P(t)`` processors.

    Achieves completion ``B(P-1) + L + k - 1`` with input buffers of size
    at most 2 (validated).  ``dest_strategy`` picks how leaf (inactive)
    copies choose their receiver:

    * ``"greedy"`` (default) — avoid processors actively receiving at the
      arrival step, then lightest inactive load (the ablation shows this
      is what keeps buffers at <= 1);
    * ``"round_robin"`` — naive rotation; still correct but buffers and
      per-item delays grow (used by the ablation benchmark).
    """
    tree = tree_for_time(t, postal(P=1, L=L))
    n = len(tree)  # P - 1
    P = n + 1

    # --- block layout ----------------------------------------------------
    internal = sorted(
        tree.internal_nodes(), key=lambda nd: (-nd.out_degree, nd.delay, nd.index)
    )
    proc_of_block: list[list[int]] = []
    next_proc = 1
    for node in internal:
        proc_of_block.append(list(range(next_proc, next_proc + node.out_degree)))
        next_proc += node.out_degree
    receive_only = next_proc
    assert receive_only == P - 1

    duty_holder: dict[tuple[int, int], int] = {}  # (item, node index) -> proc
    duty_steps: dict[int, set[int]] = defaultdict(set)  # proc -> active steps
    for b, node in enumerate(internal):
        r = node.out_degree
        procs = proc_of_block[b]
        for item in range(k):
            holder = procs[(L + item + node.delay) % r]
            duty_holder[(item, node.index)] = holder
            duty_steps[holder].add(L + item + node.delay)

    # --- emit sends, choosing leaf destinations greedily -----------------
    sends: list[SendOp] = []
    # arrivals[(step)] -> list of (proc, item, active)
    arrivals: list[tuple[int, int, int, bool]] = []  # (step, proc, item, active)
    assigned: dict[int, set[int]] = defaultdict(set)  # item -> procs covered
    inactive_load: dict[int, int] = defaultdict(int)

    leaf_events: list[tuple[int, int, int, int]] = []  # (arrival, item, src, rank)
    for item in range(k):
        for node in tree.nodes:
            parent = node.parent
            if parent is None:
                root_proc = duty_holder[(item, node.index)]
                sends.append(SendOp(time=item, src=0, dst=root_proc, item=item))
                arrivals.append((item + L, root_proc, item, True))
                assigned[item].add(root_proc)
                continue
            pnode = tree.nodes[parent]
            rank = pnode.children.index(node.index)
            src = duty_holder[(item, parent)]
            send_time = L + item + pnode.delay + rank
            if node.children:
                dst = duty_holder[(item, node.index)]
                sends.append(SendOp(time=send_time, src=src, dst=dst, item=item))
                arrivals.append((send_time + L, dst, item, True))
                assigned[item].add(dst)
            else:
                leaf_events.append((send_time + L, item, src, send_time))

    # leaf destinations: per arrival step, pick the neediest free processor
    leaf_events.sort()
    rotation = [0]
    for arrival, item, src, send_time in leaf_events:
        candidates = [
            p
            for p in range(1, P)
            if p not in assigned[item]
        ]
        if not candidates:
            raise AssertionError(f"no receiver left for item {item}")
        if dest_strategy == "round_robin":
            dst = candidates[rotation[0] % len(candidates)]
            rotation[0] += 1
        elif dest_strategy == "greedy":
            # prefer processors not actively receiving at this step, with
            # the lightest inactive load so buffers stay shallow
            dst = min(
                candidates,
                key=lambda p: (
                    arrival in duty_steps[p],
                    inactive_load[p],
                    p,
                ),
            )
        else:
            raise ValueError(f"unknown dest_strategy {dest_strategy!r}")
        assigned[item].add(dst)
        inactive_load[dst] += 1
        sends.append(SendOp(time=send_time, src=src, dst=dst, item=item))
        arrivals.append((arrival, dst, item, False))

    # --- simulate buffered reception -------------------------------------
    arrivals.sort(key=lambda ev: (ev[0], ev[1], not ev[3], ev[2]))
    by_step: dict[int, list[tuple[int, int, bool]]] = defaultdict(list)
    horizon = 0
    for step, proc, item, active in arrivals:
        by_step[step].append((proc, item, active))
        horizon = max(horizon, step)

    buffers: dict[int, list[tuple[int, int]]] = defaultdict(list)  # proc -> [(arrival, item)]
    receptions: dict[tuple[int, int], tuple[int, int, bool]] = {}
    buffer_peak = 0
    step = 0
    while step <= horizon or any(buffers.values()):
        active_arrival: dict[int, tuple[int, int]] = {}
        for proc, item, active in by_step.get(step, ()):
            if active:
                active_arrival[proc] = (step, item)
            else:
                buffers[proc].append((step, item))
        for proc in set(buffers) | set(active_arrival):
            if proc in active_arrival:
                arrival, item = active_arrival[proc]
                receptions[(proc, item)] = (arrival, step, True)
            elif buffers.get(proc):
                arrival, item = buffers[proc].pop(0)
                receptions[(proc, item)] = (arrival, step, False)
        for buf in buffers.values():
            buffer_peak = max(buffer_peak, len(buf))
        step += 1
        if step > horizon + n * k + 10:  # pragma: no cover - safety net
            raise RuntimeError("buffered reception failed to drain")

    schedule = BufferedSchedule(
        P=P,
        L=L,
        t=t,
        k=k,
        sends=sorted(sends),
        receptions=receptions,
        buffer_peak=buffer_peak,
    )
    return schedule
