"""Parameter sweeps validating the paper's theorems in bulk.

Each sweep returns a list of row dicts (one per parameter point) suitable
for tabular printing; the benchmark suite asserts the paper's claims on
every row.  Run standalone::

    python -m repro.experiments.sweeps
"""

from __future__ import annotations

from repro.baselines.kitem import (
    repeated_broadcast_schedule,
    staggered_binomial_schedule,
)
from repro.baselines.summation import binary_reduction_capacity
from repro.baselines.trees import baseline_broadcast, baseline_reduction
from repro.core.combining import combining_time, reduction_schedule, simulate_combining
from repro.core.fib import (
    broadcast_time,
    fib,
    reachable,
)
from repro.core.kitem.bounds import kitem_lower_bound, kitem_upper_bound
from repro.core.kitem.single_sending import single_sending_schedule
from repro.core.single_item import optimal_broadcast_schedule
from repro.core.summation.capacity import summation_capacity, summation_tree
from repro.params import LogPParams, postal
from repro.schedule.analysis import (
    broadcast_delay_per_proc,
    completion_time,
    item_completion_times,
)
from repro.sim.validate import replay

__all__ = [
    "broadcast_vs_baselines",
    "reduction_vs_baselines",
    "kitem_bounds_sweep",
    "combining_sweep",
    "summation_capacity_sweep",
    "pt_recurrence_sweep",
]


def pt_recurrence_sweep(Ls=(1, 2, 3, 4, 5), t_max: int = 14) -> list[dict]:
    """Theorem 2.2: P(t) computed by tree counting equals ``f_t``."""
    rows = []
    for L in Ls:
        for t in range(t_max + 1):
            rows.append(
                {
                    "L": L,
                    "t": t,
                    "P(t)_tree": reachable(t, postal(P=1, L=L)),
                    "f_t": fib(L, t),
                }
            )
    return rows


def broadcast_vs_baselines(machines=None) -> list[dict]:
    """Optimal single-item broadcast vs flat/chain/binary/binomial."""
    if machines is None:
        machines = [
            LogPParams(P=8, L=6, o=2, g=4),  # Figure 1
            LogPParams(P=16, L=4, o=1, g=2),
            LogPParams(P=32, L=2, o=1, g=1),
            postal(P=16, L=1),
            postal(P=41, L=3),
        ]
    rows = []
    for machine in machines:
        row = {
            "P": machine.P,
            "L": machine.L,
            "o": machine.o,
            "g": machine.g,
            "optimal": broadcast_time(machine.P, machine),
        }
        opt_schedule = optimal_broadcast_schedule(machine)
        replay(opt_schedule)
        for name in ("flat", "chain", "binary", "binomial"):
            schedule = baseline_broadcast(name, machine)
            replay(schedule)
            row[name] = max(broadcast_delay_per_proc(schedule).values())
        rows.append(row)
    return rows


def reduction_vs_baselines(machines=None) -> list[dict]:
    """§4.2 correspondence in bulk: reduction mirrors broadcast exactly.

    Every schedule here is produced by the verified pass pipeline
    (``reverse{tag=red}`` through :class:`repro.passes.PassManager`), so
    the sweep doubles as an end-to-end exercise of the framework: the
    optimal reduction must finish in exactly ``B(P)`` cycles, and each
    baseline reduction must tie its broadcast counterpart tree-for-tree.
    """
    if machines is None:
        machines = [
            LogPParams(P=8, L=6, o=2, g=4),  # Figure 1
            LogPParams(P=16, L=4, o=1, g=2),
            postal(P=16, L=1),
            postal(P=41, L=3),
        ]
    rows = []
    for machine in machines:
        optimal = reduction_schedule(machine)
        replay(optimal)
        row = {
            "P": machine.P,
            "L": machine.L,
            "o": machine.o,
            "g": machine.g,
            "B(P)": broadcast_time(machine.P, machine),
            "optimal": completion_time(optimal),
        }
        for name in ("flat", "chain", "binary", "binomial"):
            reduction = baseline_reduction(name, machine)
            replay(reduction)
            row[name] = completion_time(reduction)
        rows.append(row)
    return rows


def kitem_bounds_sweep(
    Ls=(1, 2, 3, 4), Ps=(2, 4, 5, 9, 10, 13, 14, 22), k: int = 6
) -> list[dict]:
    """Theorems 3.1/3.6: measured single-sending time sits in the sandwich,
    and the baselines show the pipelining win."""
    rows = []
    for L in Ls:
        for P in Ps:
            schedule = single_sending_schedule(k, P, L)
            replay(schedule)
            done = max(item_completion_times(schedule, set(range(P))).values())
            naive = repeated_broadcast_schedule(k, P, L)
            naive_done = max(
                item_completion_times(naive, set(range(P))).values()
            )
            stag = staggered_binomial_schedule(k, P, L)
            stag_done = max(item_completion_times(stag, set(range(P))).values())
            rows.append(
                {
                    "L": L,
                    "P": P,
                    "k": k,
                    "lower_bound": kitem_lower_bound(P, L, k),
                    "ours": done,
                    "upper_bound_thm36": kitem_upper_bound(P, L, k),
                    "repeated_bcast": naive_done,
                    "staggered_binomial": stag_done,
                }
            )
    return rows


def combining_sweep(Ls=(1, 2, 3, 4), extra: int = 5) -> list[dict]:
    """Theorem 4.1: combining broadcast reaches P(T) processors in T steps
    — half the reduce-then-broadcast cost ``2 B(P)``."""
    rows = []
    for L in Ls:
        for T in range(L, L + extra):
            run = simulate_combining(T, L)
            rows.append(
                {
                    "L": L,
                    "T": T,
                    "P": run.P,
                    "complete": run.complete(),
                    "invariant": run.theorem_41_invariant(),
                    "reduce_then_broadcast": 2 * combining_time(run.P, L),
                }
            )
    return rows


def summation_capacity_sweep(machine: LogPParams | None = None, ts=None) -> list[dict]:
    """Lemma 5.1 capacity vs the binary-tree-reduction baseline."""
    if machine is None:
        machine = LogPParams(P=8, L=5, o=2, g=4)
    tree = summation_tree(machine)
    t_min = max(
        node.delay + (machine.o + 1) * node.out_degree for node in tree.nodes
    )
    if ts is None:
        ts = [t_min, t_min + 2, 28, 34, 40, 50]
    rows = []
    for t in sorted(set(ts)):
        rows.append(
            {
                "t": t,
                "optimal_n": summation_capacity(t, machine),
                "binary_reduction_n": binary_reduction_capacity(t, machine),
            }
        )
    return rows


def _print(rows: list[dict], title: str) -> None:  # pragma: no cover
    print(f"\n== {title} ==")
    if not rows:
        return
    keys = list(rows[0])
    print("  ".join(f"{k:>18}" for k in keys))
    for row in rows:
        print("  ".join(f"{str(row[k]):>18}" for k in keys))


if __name__ == "__main__":  # pragma: no cover
    _print(pt_recurrence_sweep(), "P(t) vs f_t (Thm 2.2)")
    _print(broadcast_vs_baselines(), "single-item broadcast vs baselines")
    _print(reduction_vs_baselines(), "reversed reduction vs baselines (§4.2)")
    _print(kitem_bounds_sweep(), "k-item bounds sandwich (Thms 3.1/3.6)")
    _print(combining_sweep(), "combining broadcast (Thm 4.1)")
    _print(summation_capacity_sweep(), "summation capacity (Lemma 5.1)")
