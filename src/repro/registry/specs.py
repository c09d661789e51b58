"""The collective records: one :class:`CollectiveSpec` per paper collective.

Seven specs cover the paper's six collectives (single-item, k-item,
continuous, all-to-all, combining/all-reduce, summation) plus the
all-to-one reduction (the time reversal of optimal broadcast, Section 5's
communication skeleton).  Each record normalizes its builder's historical
signature — ``single_sending_schedule(k, P, L)``,
``summation_schedule(t, params)``, ``combining_schedule(T, L)`` — behind
the uniform ``build(params, **extra)`` shape, declares its parameter
domain, and names the closed-form lower bound the construction is
measured against.

The SCHED008 closed forms previously hard-coded in
:mod:`repro.analyze.rules` live here as each spec's ``lint_bound``: the
rule adapts its context into a :class:`~repro.registry.spec.BoundQuery`
and the spec owning the detected workload answers.  The bound *strings*
are pinned by the lint corpus — change them only with the corpus.
"""

from __future__ import annotations

from typing import Any

from repro.core.all_to_all import (
    all_to_all_lower_bound,
    all_to_all_schedule,
    is_tight,
)
from repro.core.combining import combining_schedule, combining_time, reduction_schedule
from repro.core.continuous.assignment import solve
from repro.core.continuous.schedule import expand_assignment
from repro.core.fib import (
    broadcast_time,
    broadcast_time_postal,
    kitem_lower_bound,
    reachable_postal,
    single_sending_lower_bound,
)
from repro.core.kitem.single_sending import single_sending_schedule
from repro.core.single_item import optimal_broadcast_schedule
from repro.core.summation.capacity import (
    min_summation_time,
    operand_distribution,
    summation_machine,
)
from repro.core.summation.schedule import summation_schedule
from repro.params import LogPParams
from repro.registry.spec import BoundQuery, CollectiveSpec, ParamField
from repro.schedule.implicit import implicit_broadcast, implicit_reduction
from repro.schedule.ops import Schedule

__all__ = ["SPECS"]

# Workload tags must match repro.analyze.context.Workload; they are kept
# as plain strings here so the registry never imports the lint engine.
_BROADCAST = "broadcast"
_KITEM = "kitem"
_SCATTERED = "scattered"


def _require_postal(name: str, params: LogPParams) -> None:
    if not params.is_postal:
        raise ValueError(
            f"{name}: requires the postal model (o=0, g=1), "
            f"got o={params.o}, g={params.g}"
        )


def _require_processors(name: str, params: LogPParams, minimum: int) -> None:
    if params.P < minimum:
        raise ValueError(
            f"{name}: P must be >= {minimum}, got {params.P}"
        )


# -- single-item broadcast (Section 2, Theorem 2.1) ----------------------


def _broadcast_lint_bound(q: BoundQuery) -> tuple[int, str] | None:
    return broadcast_time(q.participants, q.params), "B(P) (Thm 2.1)"


# -- k-item broadcast (Section 3, Theorems 3.1/3.6) ----------------------


def _check_kitem_machine(params: LogPParams) -> None:
    _require_postal("kitem", params)
    _require_processors("kitem", params, 2)


def _build_kitem(params: LogPParams, *, k: int) -> Schedule:
    return single_sending_schedule(k, params.P, params.L)


def _kitem_lint_bound(q: BoundQuery) -> tuple[int, str] | None:
    if not q.params.is_postal:
        return None
    k = q.n_items
    if q.single_sending:
        # the source really is single-sending, so the tighter
        # B(P-1) + L + k - 1 bound (Thms 3.6/3.7) applies
        return (
            single_sending_lower_bound(q.participants, q.params.L, k),
            f"single-sending bound B(P-1)+L+k-1 (Thm 3.6/3.7, k={k})",
        )
    return (
        kitem_lower_bound(q.participants, q.params.L, k),
        f"k-item counting bound (Thm 3.1, k={k})",
    )


# -- continuous broadcast (Section 3.1-3.3, Theorem 3.3 / Cor 3.1) -------


def _check_continuous_machine(params: LogPParams) -> None:
    _require_postal("continuous", params)
    _require_processors("continuous", params, 2)
    if params.L < 3:
        raise ValueError(
            f"continuous: block-cyclic schedules need L >= 3 "
            f"(Theorems 3.4/3.5 rule out L={params.L}); "
            f"use the kitem builder for small latencies"
        )


def _continuous_steps(params: LogPParams) -> int:
    """The per-item tree time ``t`` with ``P - 1 = P(t)``, or raise."""
    t = broadcast_time_postal(params.P - 1, params.L)
    if reachable_postal(t, params.L) != params.P - 1:
        valid = reachable_postal(t, params.L) + 1
        raise ValueError(
            f"continuous: P-1 must equal a reachable-set size P(t) for "
            f"L={params.L}; got P={params.P} (nearest valid P is {valid})"
        )
    return t


def _build_continuous(params: LogPParams, *, k: int) -> Schedule:
    t = _continuous_steps(params)
    assignment = solve(t, params.L)
    if assignment is None:
        raise ValueError(
            f"continuous: the block-cyclic instance I({t}) is unsolvable "
            f"for L={params.L} (see Theorems 3.4/3.5)"
        )
    return expand_assignment(assignment, num_items=k)


# -- all-to-all broadcast (Section 4.1) ----------------------------------


def _build_all_to_all(params: LogPParams) -> Schedule:
    return all_to_all_schedule(params)


def _a2a_lint_bound(q: BoundQuery) -> tuple[int, str] | None:
    # only a genuine all-to-all (every item reaches every participant,
    # uniformly many items per processor) has a closed form
    if not q.full_coverage:
        return None
    if q.n_items % q.participants:
        return None
    m = q.n_items // q.participants
    P = q.participants
    if m == 1:
        return all_to_all_lower_bound(q.params.with_processors(P)), (
            "all-to-all bound L+2o+(P-2)g (S4.1)"
        )
    return (
        q.params.send_cost + (m * (P - 1) - 1) * q.params.g,
        f"{m}-item all-to-all bound L+2o+({m}(P-1)-1)g (S4.1)",
    )


# -- summation (Section 5, Lemma 5.1 / Figure 6) -------------------------


def _check_summation_machine(params: LogPParams) -> None:
    _require_processors("summation", params, 1)
    if params.P >= 2 and params.o >= params.g:
        # each reception plus its add blocks o+1 cycles and receptions
        # come g apart, so at o == g those windows overlap and fewer
        # cycles are blocked than Lemma 5.1's S - (o+1)k counts
        raise ValueError(
            f"summation: Lemma 5.1 assumes g > o (each reception's o+1 "
            f"receive-and-add cycles fit in its gap), got o={params.o}, "
            f"g={params.g}"
        )


def _normalize_summation(
    params: LogPParams, extra: dict[str, Any]
) -> dict[str, Any]:
    n, t = extra.get("n"), extra.get("t")
    if (n is None) == (t is None):
        raise ValueError(
            "summation: give exactly one of n= (operands) or t= (time budget)"
        )
    if t is None:
        t = min_summation_time(n, params)
    else:
        try:
            n = sum(operand_distribution(t, params))
        except ValueError as exc:
            raise ValueError(f"summation: {exc}") from None
        if n < 1:
            raise ValueError(
                f"summation: time budget t={t} has zero operand capacity "
                f"on {params}"
            )
    return {"n": n, "t": t}


def _build_summation(params: LogPParams, *, n: int, t: int) -> Schedule:
    return summation_schedule(t, summation_machine(params, t, n)).to_schedule()


def _summation_lower_bound(params: LogPParams, *, n: int, t: int) -> int:
    return min_summation_time(n, params)


def _summation_tight(params: LogPParams, *, n: int, t: int) -> bool:
    return t == min_summation_time(n, params)


# -- combining broadcast / all-reduce (Section 4.2, Theorem 4.1) ---------


def _check_allreduce_machine(params: LogPParams) -> None:
    _require_postal("allreduce", params)
    _require_processors("allreduce", params, 2)


def _build_allreduce(params: LogPParams) -> Schedule:
    return combining_schedule(combining_time(params.P, params.L), params.L)


# -- hierarchical two-level collectives (machine layer, DESIGN S38) ------


def _resolve_hier_machine(
    name: str, params: LogPParams, machine: Any
) -> tuple[Any, Any]:
    """Default / unwrap / sanity-check the machine for the hier builders.

    Returns ``(machine, base)`` where ``base`` is the underlying
    :class:`~repro.machine.model.HierarchicalMachine` the composition
    runs on (a fault mask is peeled off for building and re-attached to
    the result, so a masked plan lints its dead-rank traffic and then
    heals).  With no machine given, ``params.P`` is factored into the
    squarest nodes x cores hierarchy so the flat CLI flags still work.
    """
    from repro.machine.model import (
        FaultMaskedMachine,
        HierarchicalMachine,
        default_hier_machine,
    )

    if machine is None:
        machine = default_hier_machine(params)
    base = machine.base if isinstance(machine, FaultMaskedMachine) else machine
    if not isinstance(base, HierarchicalMachine):
        raise ValueError(
            f"{name}: needs a hierarchical machine, got "
            f"{type(machine).__name__} (pass machine=HierarchicalMachine(...) "
            f"or omit it for the default P-factoring)"
        )
    if machine.num_procs != params.P:
        raise ValueError(
            f"{name}: machine has {machine.num_procs} ranks but params.P "
            f"is {params.P}"
        )
    return machine, base


def _attach_machine(schedule: Schedule, machine: Any) -> Schedule:
    """Rewrap a built schedule with the (possibly fault-masked) machine."""
    if machine == schedule.machine:
        return schedule
    cols = schedule.columns()
    return Schedule.from_arrays(
        schedule.params,
        cols.times,
        cols.srcs,
        cols.dsts,
        cols.items,
        cols.table,
        initial=schedule.initial,
        source_items=schedule.source_items,
        machine=machine,
    )


def _build_hier_broadcast(
    params: LogPParams, *, machine: Any = None
) -> Schedule:
    from repro.machine.compose import hier_broadcast_schedule

    machine, base = _resolve_hier_machine("hier-bcast", params, machine)
    return _attach_machine(hier_broadcast_schedule(base), machine)


def _build_hier_reduction(
    params: LogPParams, *, machine: Any = None
) -> Schedule:
    from repro.machine.compose import hier_reduction_schedule

    machine, base = _resolve_hier_machine("hier-reduce", params, machine)
    return _attach_machine(hier_reduction_schedule(base), machine)


def _hier_lower_bound(params: LogPParams) -> int:
    """Closed-form lower bound for the default two-level machine.

    Relax every edge to the pointwise-min level parameters: any schedule
    legal on the hierarchy is legal on that (uniformly cheaper) flat
    machine, so the flat broadcast optimum under the relaxed params
    bounds the hierarchical completion from below.  (Per-component mins
    stay a valid LogP tuple: each level has o <= g, so min o <= min g.)
    """
    from repro.machine.model import default_hier_machine

    m = default_hier_machine(params)
    relaxed = LogPParams(
        P=m.num_procs,
        L=min(p.L for p in m.levels),
        o=min(p.o for p in m.levels),
        g=min(p.g for p in m.levels),
    )
    return broadcast_time(m.num_procs, relaxed)


def _always(params: LogPParams, **extra: Any) -> bool:
    return True


SPECS: tuple[CollectiveSpec, ...] = (
    CollectiveSpec(
        name="broadcast",
        aliases=("bcast", "single-item"),
        summary="optimal single-item broadcast from the universal tree",
        paper="Section 2, Figure 1",
        theorem="Thm 2.1",
        build=optimal_broadcast_schedule,
        implicit_build=implicit_broadcast,
        check_machine=lambda p: _require_processors("broadcast", p, 1),
        lower_bound=lambda params: broadcast_time(params.P, params),
        tight=_always,
        workload=_BROADCAST,
        lint_bound=_broadcast_lint_bound,
        figures=(("1", "fig1_single_item"),),
        sample_cases=(
            {"P": 8, "L": 6, "o": 2, "g": 4},
            {"P": 2, "L": 1},
            {"P": 16, "L": 4, "o": 1, "g": 2},
            {"P": 1, "L": 3},
        ),
    ),
    CollectiveSpec(
        name="kitem",
        aliases=("k-item",),
        summary="single-sending k-item broadcast (postal model)",
        paper="Sections 3.2-3.4, Figures 4-5",
        theorem="Thms 3.1/3.6",
        build=_build_kitem,
        extra_params=(
            ParamField("k", "number of items to broadcast", minimum=1),
        ),
        check_machine=_check_kitem_machine,
        lower_bound=lambda params, k: kitem_lower_bound(params.P, params.L, k),
        workload=_KITEM,
        lint_bound=_kitem_lint_bound,
        figures=(("4", "fig4_reception_table"), ("5", "fig5_buffered")),
        sample_cases=(
            {"P": 10, "L": 3, "k": 8},
            {"P": 2, "L": 2, "k": 3},
            {"P": 5, "L": 2, "k": 1},
            {"P": 9, "L": 4, "k": 5},
        ),
    ),
    CollectiveSpec(
        name="continuous",
        aliases=("continuous-broadcast",),
        summary="continuous broadcast via block-cyclic schedules",
        paper="Sections 3.1-3.3, Figures 2-3",
        theorem="Thm 3.3 / Cor 3.1",
        build=_build_continuous,
        extra_params=(
            ParamField("k", "number of items in the window", minimum=1),
        ),
        check_machine=_check_continuous_machine,
        lower_bound=lambda params, k: single_sending_lower_bound(
            params.P, params.L, k
        ),
        tight=_always,
        figures=(("2", "fig2_continuous"), ("3", "fig3_digraph")),
        sample_cases=(
            {"P": 10, "L": 3, "k": 8},
            {"P": 10, "L": 3, "k": 1},
            {"P": 11, "L": 4, "k": 5},
        ),
    ),
    CollectiveSpec(
        name="all-to-all",
        aliases=("a2a", "alltoall"),
        summary="cyclic all-to-all broadcast",
        paper="Section 4.1",
        theorem="S4.1 bound",
        build=_build_all_to_all,
        check_machine=lambda p: _require_processors("all-to-all", p, 2),
        lower_bound=all_to_all_lower_bound,
        tight=lambda params: is_tight(params),
        workload=_SCATTERED,
        lint_bound=_a2a_lint_bound,
        sample_cases=(
            {"P": 8, "L": 6, "o": 2, "g": 4},
            {"P": 16, "L": 4},
            {"P": 2, "L": 1},
            {"P": 5, "L": 3, "o": 1, "g": 2},
        ),
    ),
    CollectiveSpec(
        name="summation",
        aliases=("sum",),
        summary="optimal summation (time-reversed broadcast tree)",
        paper="Section 5, Figure 6",
        theorem="Lem 5.1",
        build=_build_summation,
        extra_params=(
            ParamField("n", "number of operands", required=False, minimum=1),
            ParamField("t", "time budget in cycles", required=False, minimum=0),
        ),
        check_machine=_check_summation_machine,
        normalize_extra=_normalize_summation,
        lower_bound=_summation_lower_bound,
        tight=_summation_tight,
        figures=(("6", "fig6_summation"),),
        sample_cases=(
            {"P": 8, "L": 5, "o": 2, "g": 4, "n": 79},
            {"P": 4, "L": 2, "n": 10},
            {"P": 4, "L": 2, "t": 10},
            {"P": 1, "L": 1, "n": 5},
        ),
    ),
    CollectiveSpec(
        name="allreduce",
        aliases=("combining", "combining-broadcast", "all-reduce"),
        summary="combining broadcast: every processor learns the sum",
        paper="Section 4.2",
        theorem="Thm 4.1",
        build=_build_allreduce,
        check_machine=_check_allreduce_machine,
        lower_bound=lambda params: combining_time(params.P, params.L),
        tight=_always,
        sample_cases=(
            {"P": 9, "L": 3},
            {"P": 8, "L": 6},
            {"P": 2, "L": 1},
        ),
    ),
    CollectiveSpec(
        name="reduction",
        aliases=("reduce", "all-to-one"),
        summary="all-to-one reduction (time-reversed optimal broadcast)",
        paper="Section 4.2 / 5",
        theorem="Thm 2.1 (reversal)",
        build=reduction_schedule,
        implicit_build=implicit_reduction,
        check_machine=lambda p: _require_processors("reduction", p, 1),
        lower_bound=lambda params: broadcast_time(params.P, params),
        tight=_always,
        sample_cases=(
            {"P": 8, "L": 6, "o": 2, "g": 4},
            {"P": 5, "L": 2},
        ),
    ),
    CollectiveSpec(
        name="hier-bcast",
        aliases=("hierarchical-broadcast",),
        summary="two-level broadcast: optimal trees composed per fabric level",
        paper="Section 2 composed per level (DESIGN S38)",
        theorem="Thm 2.1 per level",
        build=_build_hier_broadcast,
        check_machine=lambda p: _require_processors("hier-bcast", p, 1),
        lower_bound=_hier_lower_bound,
        machine_aware=True,
        sample_cases=(
            {"P": 8, "L": 6, "o": 2, "g": 4},
            {"P": 12, "L": 4, "o": 1, "g": 2},
            {"P": 2, "L": 1},
        ),
    ),
    CollectiveSpec(
        name="hier-reduce",
        aliases=("hierarchical-reduction",),
        summary="two-level all-to-one reduction (time-reversed hier-bcast)",
        paper="Sections 2 and 4.2 composed per level (DESIGN S38)",
        theorem="Thm 2.1 per level (reversal)",
        build=_build_hier_reduction,
        check_machine=lambda p: _require_processors("hier-reduce", p, 1),
        lower_bound=_hier_lower_bound,
        machine_aware=True,
        sample_cases=(
            {"P": 8, "L": 6, "o": 2, "g": 4},
            {"P": 12, "L": 4, "o": 1, "g": 2},
            {"P": 2, "L": 1},
        ),
    ),
)
