"""Performance benchmark harness.

Times the three phases of the pipeline — *build* a schedule (resolved
through :func:`repro.registry.plan`), *validate* it (the vectorized
legality kernel, consuming the schedule's cached columns), and
*execute* the built plan on the ``inproc`` transport (the cooperative
rank scheduler of :mod:`repro.exec`) — at processor counts well beyond
the paper's figures (``P`` in {256, 1024, 4096}) and on the
quadratic-message workloads (all-to-all, k-item all-to-all) that
motivated the columnar engine.  The k-item all-to-all
workload is a bench-only stressor with no registered collective, so it
calls its builder directly.

Each quadratic-workload row also records the storage footprint of both
schedule storage modes as *bytes per send*: exact for the four
``int64`` columns, a shallow ``sys.getsizeof`` estimate (list slot +
``SendOp`` instance; shared item payloads excluded) for the lazily
materialized ``SendOp`` list.  Speedups over the pure-Python oracles
are measured by the perf gates in ``benchmarks/test_perf_regression.py``,
which time the oracles in ``tests/oracles/``.

PR 7 adds the ``serve`` scenario: a Zipf load generator over the plan
service (:mod:`repro.serve`) measuring cold vs hot plans/sec and the
cache hit rate under real LRU eviction pressure.

PR 9 adds the ``exec`` scenario: the P=256 optimal broadcast is
lowered to per-rank programs (:mod:`repro.exec`) and executed on every
available real transport with simulator verification on, recording
wall-clock seconds per transport next to the simulated makespan in
cycles.

Run via ``python -m repro.cli bench`` (or ``make bench``), which writes
``BENCH.json`` by default (the checked-in ``BENCH_PR<N>.json`` files
are per-PR reference baselines; :func:`latest_baseline` picks the
newest as the comparison point so the recorded gates never trail the
repo); ``benchmarks/test_perf_regression.py`` asserts the headline
speedups so they cannot silently regress.
"""

from __future__ import annotations

import json
import platform
import re
import sys
import time
from pathlib import Path
from typing import Any, Callable

from repro import registry
from repro.core.all_to_all import k_item_all_to_all_schedule
from repro.params import LogPParams, postal
from repro.schedule.ops import Schedule
from repro.sim.validate_np import violations_np

__all__ = [
    "time_call",
    "time_fresh",
    "latest_baseline",
    "bench_broadcast",
    "bench_all_to_all",
    "bench_kitem_all_to_all",
    "bench_transforms",
    "bench_implicit_lint",
    "serve_request_points",
    "bench_serve",
    "bench_exec",
    "bench_hier",
    "bench_heal",
    "run_bench",
    "write_bench",
]


def latest_baseline(root: Path | None = None) -> str | None:
    """The newest checked-in ``BENCH_PR<N>.json``, by numeric ``N``.

    The results document names this file as its comparison baseline;
    auto-detection replaces the hardcoded name that silently went stale
    whenever a PR landed a new reference file.  ``root`` defaults to the
    current directory (where ``repro.cli bench`` runs) with the
    repository root as fallback for checkouts driven from elsewhere.
    """
    candidates = [Path.cwd()] if root is None else [Path(root)]
    if root is None:
        candidates.append(Path(__file__).resolve().parents[2])
    for directory in candidates:
        best: tuple[int, str] | None = None
        for path in directory.glob("BENCH_PR*.json"):
            match = re.fullmatch(r"BENCH_PR(\d+)\.json", path.name)
            if match and (best is None or int(match.group(1)) > best[0]):
                best = (int(match.group(1)), path.name)
        if best is not None:
            return best[1]
    return None


def time_call(fn: Callable[[], Any], repeat: int = 1) -> tuple[float, Any]:
    """Best-of-``repeat`` wall-clock seconds for ``fn()`` plus its result."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def time_fresh(
    fn: Callable[[Schedule], Any], schedule: Schedule, repeat: int = 1
) -> tuple[float, Any]:
    """Best-of-``repeat`` seconds for ``fn(twin)`` plus its last result.

    Each run gets its own array-backed twin of ``schedule`` (sharing its
    column arrays, built before the timer starts), so no run reuses the
    legality facts an earlier one memoized on the schedule.
    """
    cols = schedule.columns()
    twins = [
        Schedule.from_arrays(
            schedule.params,
            cols.times,
            cols.srcs,
            cols.dsts,
            cols.items,
            cols.table,
            initial=schedule.initial,
            source_items=schedule.source_items,
            machine=schedule.machine,
        )
        for _ in range(max(1, repeat))
    ]
    best = float("inf")
    result = None
    for twin in twins:
        t0 = time.perf_counter()
        result = fn(twin)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _validate_timings(schedule: Schedule, repeat: int) -> dict[str, Any]:
    np_s, np_result = time_fresh(violations_np, schedule, repeat)
    assert np_result == [], "benchmark schedule must be legal"
    return {"validate_np_s": np_s}


def _execute_timings(schedule: Schedule, repeat: int) -> dict[str, Any]:
    """Lower and run the built plan on the ``inproc`` transport."""
    from repro.exec import execute

    execute_s, result = time_call(
        lambda: execute(schedule, transport="inproc"), repeat
    )
    return {
        "execute_inproc_s": execute_s,
        "execute_delivered": result.num_delivered,
    }


def _build_timings(
    build: Callable[[], Schedule], repeat: int
) -> tuple[dict[str, Any], Schedule]:
    """Time a builder; returns the row fields and the built schedule.

    The row gains ``build_s`` and the bytes-per-send footprint of each
    storage mode (the ``SendOp`` list is materialized from a second,
    untimed build so the returned schedule stays array-backed).
    """
    build_s, schedule = time_call(build, repeat)
    n = schedule.num_sends
    row: dict[str, Any] = {"build_s": build_s}
    if n:
        row["columnar_bytes_per_send"] = schedule.columns().nbytes / n
        sends = build().sends
        row["object_bytes_per_send"] = (
            sys.getsizeof(sends) / n + sys.getsizeof(sends[0])
        )
    return row, schedule


def bench_broadcast(
    P: int, L: int = 4, o: int = 1, g: int = 2, repeat: int = 1
) -> dict[str, Any]:
    """Build/validate/execute an optimal single-item broadcast at ``P``."""
    params = LogPParams(P=P, L=L, o=o, g=g)
    build_row, schedule = _build_timings(
        lambda: registry.plan("broadcast", params), repeat
    )
    return {
        "workload": "broadcast",
        "P": P,
        "params": [params.P, params.L, params.o, params.g],
        "sends": schedule.num_sends,
        **build_row,
        "validate_s": time_fresh(violations_np, schedule, repeat)[0],
        **_execute_timings(schedule, repeat),
    }


def bench_all_to_all(
    P: int,
    L: int = 4,
    repeat: int = 1,
    execute_limit: int = 70_000,
) -> dict[str, Any]:
    """Build/validate/execute the P-way all-to-all broadcast (P(P-1) sends)."""
    params = postal(P=P, L=L)
    build_row, schedule = _build_timings(
        lambda: registry.plan("all-to-all", params), repeat
    )
    row: dict[str, Any] = {
        "workload": "all-to-all",
        "P": P,
        "params": [params.P, params.L, params.o, params.g],
        "sends": schedule.num_sends,
        **build_row,
    }
    row.update(_validate_timings(schedule, repeat))
    if schedule.num_sends <= execute_limit:
        row.update(_execute_timings(schedule, repeat))
    return row


def bench_kitem_all_to_all(
    P: int, k: int, L: int = 4, repeat: int = 1
) -> dict[str, Any]:
    """Build/validate the k-item all-to-all workload (k * P(P-1) sends)."""
    params = postal(P=P, L=L)
    build_row, schedule = _build_timings(
        lambda: k_item_all_to_all_schedule(params, k), repeat
    )
    row: dict[str, Any] = {
        "workload": "k-item-all-to-all",
        "P": P,
        "k": k,
        "params": [params.P, params.L, params.o, params.g],
        "sends": schedule.num_sends,
        **build_row,
    }
    row.update(_validate_timings(schedule, repeat))
    return row


def bench_transforms(
    P: int = 1024,
    L: int = 4,
    repeat: int = 1,
    pipeline: str = "reverse,canonicalize,prune-dead-sends",
) -> dict[str, Any]:
    """Transform throughput: a pass pipeline over the P-way all-to-all.

    Times the columnar pass kernels, plus the verified variant
    (``verify=errors`` re-lints SCHED001-003 between passes).  The
    kernel run also asserts the headline property: every intermediate
    schedule stays array-backed, i.e. zero ``SendOp`` objects are
    materialized end to end.
    """
    from repro.passes import PassManager, parse_pipeline

    params = postal(P=P, L=L)
    schedule = registry.plan("all-to-all", params)

    def run_kernels() -> Schedule:
        current = schedule
        for p in parse_pipeline(pipeline):
            current = p.run(current)
            assert current.is_array_backed, f"pass {p.name} materialized SendOps"
        return current

    np_s, np_result = time_call(run_kernels, repeat)
    assert schedule.is_array_backed, "pipeline materialized the input schedule"
    verify_s, _ = time_fresh(
        PassManager(pipeline, verify="errors").run, schedule, repeat
    )
    return {
        "workload": "transform-pipeline",
        "P": P,
        "params": [params.P, params.L, params.o, params.g],
        "sends": schedule.num_sends,
        "pipeline": pipeline,
        "transform_np_s": np_s,
        "verify_each_s": verify_s,
        "materialized_sendops": 0 if np_result.is_array_backed else 1,
    }


def bench_implicit_lint(
    P: int,
    L: int = 4,
    o: int = 1,
    g: int = 2,
    chunk_sends: int | None = None,
    repeat: int = 1,
) -> dict[str, Any]:
    """Chunk-streamed lint of an implicit broadcast plan at ``P`` (PR-6).

    The headline scenario: a P=10^6 plan never materializes its ~10^6
    send columns, so ``tracemalloc`` peak memory is bounded by the chunk
    size, not by ``P`` — the perf gate pins both the wall-clock time and
    the peak-bytes ceiling.
    """
    import tracemalloc

    from repro.analyze.chunked import lint_implicit
    from repro.schedule.implicit import DEFAULT_CHUNK_SENDS

    chunk = DEFAULT_CHUNK_SENDS if chunk_sends is None else chunk_sends
    params = LogPParams(P=P, L=L, o=o, g=g)
    build_s, implicit = time_call(
        lambda: registry.plan("broadcast", params, storage="implicit"), repeat
    )
    # warm-up outside the traced window so lazy imports and numpy
    # first-call internals do not count against the chunk-bounded peak
    lint_implicit(implicit, max_sends=chunk)
    tracemalloc.start()
    lint_s, report = time_call(
        lambda: lint_implicit(implicit, max_sends=chunk), repeat
    )
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "workload": "implicit-lint",
        "P": P,
        "params": [params.P, params.L, params.o, params.g],
        "sends": report.num_sends,
        "chunk_sends": chunk,
        "build_s": build_s,
        "lint_s": lint_s,
        "lint_peak_bytes": peak,
        "lint_errors": sum(
            report.rule_totals.get(rule, 0) for rule in report.rules_run
        ),
        "rules_run": len(report.rules_run),
    }


def serve_request_points(limit: int | None = None) -> list[dict[str, Any]]:
    """The serve bench's request population: recurring (collective,
    machine) points across six collectives — the workload shape the
    cache is built for (a service sees a few thousand distinct points,
    most traffic concentrated on a few).  Deterministic; ``limit``
    truncates for quick runs.
    """
    machines = ((4, 1, 2), (6, 2, 4), (3, 0, 1))
    points: list[dict[str, Any]] = []
    for L, o, g in machines:
        for P in range(2, 514):
            points.append(
                {"collective": "broadcast", "P": P, "L": L, "o": o, "g": g}
            )
        for P in range(2, 130):
            points.append(
                {"collective": "reduction", "P": P, "L": L, "o": o, "g": g}
            )
    for P in range(2, 34):
        points.append({"collective": "all-to-all", "P": P, "L": 4})
    for P in (4, 8, 16):
        for n in (16, 32, 64, 79, 128):
            points.append(
                {"collective": "summation", "P": P, "L": 5, "o": 2, "g": 4, "n": n}
            )
    for P in (5, 10, 15):
        for k in (2, 4, 8):
            points.append({"collective": "kitem", "P": P, "L": 3, "k": k})
    for P in range(3, 30):
        for L in (2, 3, 4):
            points.append({"collective": "allreduce", "P": P, "L": L})
    return points[:limit] if limit is not None else points


def bench_serve(
    points: int | None = None,
    draws: int = 16_000,
    capacity: int = 1024,
    zipf_s: float = 1.4,
    seed: int = 7,
) -> dict[str, Any]:
    """Load-generator scenario for the PR-7 plan service.

    Three phases over the same request population:

    * **cold** — a fresh :class:`~repro.serve.PlanService` plans every
      distinct point once (all misses; the planner is the bottleneck);
    * **hot** — ``draws`` requests Zipf-distributed over the population
      (exponent ``zipf_s``, rank order shuffled so popularity is not
      correlated with plan size) against the warm bounded LRU;
    * **batch** — one ``plan_many`` call over the same drawn mix,
      measuring the dedup-before-plan path.

    The acceptance gate holds ``hot_plans_per_s >= 20x
    cold_plans_per_s`` at a ``>= 90%`` hit rate — planning must be the
    cold path's cost, and the cache must actually absorb a skewed mix
    under real eviction pressure (capacity < population).
    """
    import random

    from repro.serve import PlanService

    population = serve_request_points(points)
    rng = random.Random(seed)
    order = list(range(len(population)))
    rng.shuffle(order)
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(len(order))]
    drawn = [population[i] for i in rng.choices(order, weights=weights, k=draws)]

    cold_service = PlanService(capacity=capacity)
    cold_s, _ = time_call(
        lambda: [cold_service.plan_json(p) for p in population]
    )
    assert cold_service.planned == len(population)

    hot_service = PlanService(capacity=capacity)
    for p in drawn[: min(draws, 4 * capacity)]:
        hot_service.plan_json(p)  # warm the LRU with the mix's head
    warm_planned = hot_service.planned
    warm_requests = hot_service.requests
    hot_s, _ = time_call(lambda: [hot_service.plan_json(p) for p in drawn])
    hot_requests = hot_service.requests - warm_requests
    hot_misses = hot_service.planned - warm_planned
    hit_rate = 1.0 - hot_misses / hot_requests

    batch_s, batch_result = time_call(
        lambda: hot_service.plan_many_json(drawn)
    )
    assert len(batch_result) == draws

    cold_rate = len(population) / cold_s if cold_s > 0 else float("inf")
    hot_rate = draws / hot_s if hot_s > 0 else float("inf")
    return {
        "workload": "serve",
        "P": max(p["P"] for p in population),
        "points": len(population),
        "draws": draws,
        "capacity": capacity,
        "zipf_s": zipf_s,
        "sends": draws,  # requests served in the hot phase
        "cold_s": cold_s,
        "cold_plans_per_s": cold_rate,
        "hot_s": hot_s,
        "hot_plans_per_s": hot_rate,
        "hot_hit_rate": hit_rate,
        "hot_speedup": hot_rate / cold_rate,
        "batch_s": batch_s,
        "batch_plans_per_s": draws / batch_s if batch_s > 0 else float("inf"),
        "memory_stats": hot_service.stats()["memory"],
    }


def bench_exec(
    P: int = 256, L: int = 4, o: int = 1, g: int = 2, repeat: int = 1
) -> dict[str, Any]:
    """Lower + execute the optimal broadcast on every available transport.

    PR-9 scenario: the same P-rank broadcast schedule is compiled once
    to per-rank programs (``lower_s``; columnar fast path, no per-SendOp
    objects) and then actually run — real sends over real channels —
    on each transport :func:`repro.exec.available_transports` reports
    (``exec_<name>_s``), with verification against the simulator's
    delivered multiset folded into the timed run.  ``makespan_cycles``
    records the simulated completion time so the row reads as
    wall-clock vs model time.
    """
    from repro.exec import (
        MpTransport,
        available_transports,
        execute,
        get_transport,
        lower_schedule,
    )

    params = LogPParams(P=P, L=L, o=o, g=g)
    schedule = registry.plan("broadcast", params)
    lower_s, plan = time_call(lambda: lower_schedule(schedule), repeat)
    row: dict[str, Any] = {
        "workload": "exec",
        "P": P,
        "params": [params.P, params.L, params.o, params.g],
        "sends": schedule.num_sends,
        "lower_s": lower_s,
        "instrs": plan.num_instrs,
        "makespan_cycles": registry.completion(schedule),
        "transports": available_transports(),
    }
    for name in available_transports():
        # one instance across the repeats: mp forks its pool once
        transport = get_transport(name)
        wall_s, result = time_call(
            lambda transport=transport: execute(
                schedule, transport=transport, verify=True
            ),
            repeat,
        )
        if isinstance(transport, MpTransport):
            transport.close()
        assert result.num_delivered == schedule.num_sends
        row[f"exec_{name}_s"] = wall_s
    return row


def bench_hier(
    P: int = 512, L: int = 8, o: int = 1, g: int = 2, repeat: int = 1
) -> dict[str, Any]:
    """Two-level machine planning + lint against the flat baseline (PR-10).

    The same flat envelope ``(P, L, o, g)`` is planned twice: the classic
    flat broadcast, and ``hier-bcast`` on the default squarest
    nodes x cores factoring with a fast intra level.  The gate is that
    per-edge pricing does not cost planning its speed — building and
    linting the hierarchical plan stays within the flat plan+lint budget
    and never materializes a ``SendOp`` — while the composed plan's
    makespan beats the flat envelope's.
    """
    from repro.analyze import lint_schedule
    from repro.machine.model import default_hier_machine
    from repro.schedule.analysis import completion_time

    params = LogPParams(P=P, L=L, o=o, g=g)
    machine = default_hier_machine(params)

    flat_build_s, flat = time_call(
        lambda: registry.plan("broadcast", params), repeat
    )
    flat_lint_s, flat_report = time_fresh(lint_schedule, flat, repeat)
    assert flat_report.max_severity is None

    build_s, hier = time_call(
        lambda: registry.plan("hier-bcast", machine=machine), repeat
    )
    assert hier.is_array_backed, "hier planning materialized SendOps"
    lint_s, report = time_fresh(lint_schedule, hier, repeat)
    assert report.max_severity is None
    lint_schedule(hier)
    assert hier.is_array_backed, "hier lint materialized SendOps"

    flat_budget = flat_build_s + flat_lint_s
    hier_cost = build_s + lint_s
    return {
        "workload": "hier",
        "P": P,
        "params": [params.P, params.L, params.o, params.g],
        "nodes": machine.nodes,
        "cores": machine.cores,
        "sends": hier.num_sends,
        "build_s": build_s,
        "lint_s": lint_s,
        "flat_build_s": flat_build_s,
        "flat_lint_s": flat_lint_s,
        "plan_lint_ratio": (
            hier_cost / flat_budget if flat_budget > 0 else float("inf")
        ),
        "makespan_cycles": completion_time(hier),
        "flat_makespan_cycles": completion_time(flat),
    }


def bench_heal(
    P: int = 512,
    L: int = 8,
    o: int = 1,
    g: int = 2,
    dead_every: int = 57,
    repeat: int = 1,
) -> dict[str, Any]:
    """Fault-masked replanning: kill ranks, heal, re-lint (PR-10).

    A ``hier-bcast`` plan is built on a :class:`FaultMaskedMachine`
    (every ``dead_every``-th rank dead, leaders included, so whole
    subtrees orphan), healed with :func:`repro.machine.heal.heal_columns`,
    and the healed schedule is re-linted.  Asserts the healed plan covers
    every survivor, stays array-backed, and lints error-free.
    """
    from repro.analyze import Severity, lint_schedule
    from repro.machine.heal import heal_columns
    from repro.machine.model import FaultMaskedMachine, default_hier_machine
    from repro.schedule.analysis import completion_time

    params = LogPParams(P=P, L=L, o=o, g=g)
    base = default_hier_machine(params)
    dead = tuple(range(3, P, dead_every))
    machine = FaultMaskedMachine(base=base, dead=dead)
    schedule = registry.plan("hier-bcast", machine=machine)

    heal_s, healed_pair = time_call(lambda: heal_columns(schedule), repeat)
    healed, stats = healed_pair
    assert stats.uncovered_after == 0, "healed plan leaves orphans"
    assert healed.is_array_backed, "healing materialized SendOps"
    lint_s, report = time_fresh(lint_schedule, healed, repeat)
    assert not report.at_least(Severity.ERROR), "healed plan lints dirty"
    return {
        "workload": "heal",
        "P": P,
        "params": [params.P, params.L, params.o, params.g],
        "nodes": base.nodes,
        "cores": base.cores,
        "dead": len(dead),
        "sends": healed.num_sends,
        "heal_s": heal_s,
        "lint_s": lint_s,
        "dropped_sends": stats.dropped_sends,
        "healed_sends": stats.healed_sends,
        "uncovered_before": stats.uncovered_before,
        "makespan_before": stats.makespan_before,
        "makespan_cycles": completion_time(healed),
    }


def run_bench(
    sizes: tuple[int, ...] = (256, 1024, 4096),
    a2a_sizes: tuple[int, ...] = (256, 1024),
    kitem: tuple[int, int] = (256, 4),
    transform_P: int = 1024,
    implicit_sizes: tuple[int, ...] = (100_000, 1_000_000),
    serve_points: int | None = None,
    serve_draws: int = 16_000,
    exec_P: int = 256,
    hier_P: int = 512,
    repeat: int = 1,
    verbose: bool = False,
) -> dict[str, Any]:
    """Run every benchmark scenario and return the results document."""
    scenarios: list[dict[str, Any]] = []

    def record(row: dict[str, Any]) -> None:
        scenarios.append(row)
        if verbose:
            keys = [
                k for k in ("build_s", "validate_s",
                            "validate_np_s", "execute_inproc_s",
                            "transform_np_s", "verify_each_s", "lint_s",
                            "cold_plans_per_s", "hot_plans_per_s",
                            "hot_hit_rate", "hot_speedup",
                            "lower_s", "exec_inproc_s", "exec_mp_s",
                            "exec_mpi_s", "plan_lint_ratio", "heal_s")
                if k in row
            ]
            timings = ", ".join(f"{k}={row[k]:.4f}" for k in keys)
            print(
                f"  {row['workload']} P={row['P']}"
                + (f" k={row['k']}" if "k" in row else "")
                + f" sends={row['sends']}: {timings}",
                flush=True,
            )

    for P in sizes:
        record(bench_broadcast(P, repeat=repeat))
    for P in a2a_sizes:
        record(bench_all_to_all(P, repeat=repeat))
    record(bench_kitem_all_to_all(*kitem, repeat=repeat))
    record(bench_transforms(transform_P, repeat=repeat))
    for P in implicit_sizes:
        record(bench_implicit_lint(P, repeat=repeat))
    record(bench_serve(points=serve_points, draws=serve_draws))
    record(bench_exec(exec_P, repeat=repeat))
    record(bench_hier(hier_P, repeat=repeat))
    record(bench_heal(hier_P, repeat=repeat))
    import numpy

    return {
        "bench": "PR-10 hierarchical machine model + fault-aware healing",
        "baseline": latest_baseline(),
        "command": "python -m repro.cli bench",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "unix_time": int(time.time()),
        "repeat": repeat,
        "scenarios": scenarios,
    }


def write_bench(results: dict[str, Any], path: str) -> None:
    """Write a benchmark results document as indented JSON."""
    with open(path, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
