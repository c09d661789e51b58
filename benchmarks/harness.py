"""Benchmark harness: the scenario rows behind the nightly perf gates.

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

The ``serve`` scenario is a Zipf load generator over the plan service
(:mod:`repro.serve`) measuring cold vs hot plans/sec and the cache hit
rate under real LRU eviction pressure.  The ``exec`` scenario lowers
the P=256 optimal broadcast to per-rank programs (:mod:`repro.exec`)
and executes it on every available real transport with simulator
verification on, recording wall-clock seconds per transport next to
the simulated makespan in cycles.

Run from the repository root (or via ``make bench``)::

    PYTHONPATH=src python benchmarks/harness.py --out BENCH.json

The checked-in ``BENCH_PR<N>.json`` files are reference baselines;
:func:`latest_baseline` picks the newest as the comparison point so the
recorded gates never trail the repo.  The perf-marked gates in
``benchmarks/test_perf_regression.py`` call the scenarios directly and
assert the headline speedups so they cannot silently regress.  This
harness is not the measurement of record: ``perfbench/`` is.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy

from repro import registry
from repro.bench import serve_request_points
from repro.core.all_to_all import k_item_all_to_all_schedule
from repro.params import LogPParams, postal
from repro.schedule.ops import Schedule
from repro.sim.validate_np import violations_np

#: Scenario sizes of one harness run; every other scenario runs at its
#: own defaults.
BROADCAST_SIZES = (256, 1024, 4096)
ALL_TO_ALL_SIZES = (256, 1024)
KITEM_ALL_TO_ALL = (256, 4)  # (P, k)
IMPLICIT_SIZES = (100_000, 1_000_000)
TRANSFORM_P = 1024
EXEC_P = 256
HIER_P = 512

#: LogP machine of the flat scenarios; the all-to-all workloads run on
#: the postal machine of the same latency.
LOGP = {"L": 4, "o": 1, "g": 2}
#: LogP machine of the two-level hier and heal scenarios.
HIER_LOGP = {"L": 8, "o": 1, "g": 2}

#: Larger all-to-all plans are built and validated but not executed.
EXECUTE_LIMIT = 70_000
TRANSFORM_PIPELINE = "reverse,canonicalize,prune-dead-sends"
#: Every ``HEAL_DEAD_EVERY``-th rank (from rank 3) dies in the heal scenario.
HEAL_DEAD_EVERY = 57

#: Serve load generator: Zipf draws over the request population against
#: an LRU smaller than the population.
SERVE_DRAWS = 16_000
SERVE_CAPACITY = 1024
SERVE_ZIPF_S = 1.4
SERVE_SEED = 7


def latest_baseline(root: Path | None = None) -> str | None:
    """The newest checked-in ``BENCH_PR<N>.json``, by numeric ``N``.

    The results document names this file as its comparison baseline;
    auto-detection replaces the hardcoded name that silently went stale
    whenever a new reference file landed.  ``root`` defaults to the
    current directory (where the harness runs) with the repository root
    as fallback for checkouts driven from elsewhere.
    """
    candidates = [Path.cwd()] if root is None else [Path(root)]
    if root is None:
        candidates.append(Path(__file__).resolve().parents[1])
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


def bench_broadcast(P: int, repeat: int = 1) -> dict[str, Any]:
    """Build/validate/execute an optimal single-item broadcast at ``P``."""
    params = LogPParams(P=P, **LOGP)
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


def bench_all_to_all(P: int, repeat: int = 1) -> dict[str, Any]:
    """Build/validate/execute the P-way all-to-all broadcast (P(P-1) sends)."""
    params = postal(P=P, L=LOGP["L"])
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
    if schedule.num_sends <= EXECUTE_LIMIT:
        row.update(_execute_timings(schedule, repeat))
    return row


def bench_kitem_all_to_all(P: int, k: int) -> dict[str, Any]:
    """Build/validate the k-item all-to-all workload (k * P(P-1) sends)."""
    params = postal(P=P, L=LOGP["L"])
    build_row, schedule = _build_timings(
        lambda: k_item_all_to_all_schedule(params, k), 1
    )
    row: dict[str, Any] = {
        "workload": "k-item-all-to-all",
        "P": P,
        "k": k,
        "params": [params.P, params.L, params.o, params.g],
        "sends": schedule.num_sends,
        **build_row,
    }
    row.update(_validate_timings(schedule, 1))
    return row


def bench_transforms(P: int = TRANSFORM_P, repeat: int = 1) -> dict[str, Any]:
    """Transform throughput: a pass pipeline over the P-way all-to-all.

    Times the columnar pass kernels, plus the verified variant
    (``verify=errors`` re-lints SCHED001-003 between passes).  The
    kernel run also asserts the headline property: every intermediate
    schedule stays array-backed, i.e. zero ``SendOp`` objects are
    materialized end to end.
    """
    from repro.passes import PassManager, parse_pipeline

    params = postal(P=P, L=LOGP["L"])
    schedule = registry.plan("all-to-all", params)

    def run_kernels() -> Schedule:
        current = schedule
        for p in parse_pipeline(TRANSFORM_PIPELINE):
            current = p.run(current)
            assert current.is_array_backed, f"pass {p.name} materialized SendOps"
        return current

    np_s, np_result = time_call(run_kernels, repeat)
    assert schedule.is_array_backed, "pipeline materialized the input schedule"
    verify_s, _ = time_fresh(
        PassManager(TRANSFORM_PIPELINE, verify="errors").run, schedule, repeat
    )
    return {
        "workload": "transform-pipeline",
        "P": P,
        "params": [params.P, params.L, params.o, params.g],
        "sends": schedule.num_sends,
        "pipeline": TRANSFORM_PIPELINE,
        "transform_np_s": np_s,
        "verify_each_s": verify_s,
        "materialized_sendops": 0 if np_result.is_array_backed else 1,
    }


def bench_implicit_lint(
    P: int, chunk_sends: int | None = None, repeat: int = 1
) -> dict[str, Any]:
    """Chunk-streamed lint of an implicit broadcast plan at ``P``.

    The headline scenario: a P=10^6 plan never materializes its ~10^6
    send columns, so ``tracemalloc`` peak memory is bounded by the chunk
    size, not by ``P`` — the perf gate pins both the wall-clock time and
    the peak-bytes ceiling.
    """
    import tracemalloc

    from repro.analyze.chunked import lint_implicit
    from repro.schedule.implicit import DEFAULT_CHUNK_SENDS

    chunk = DEFAULT_CHUNK_SENDS if chunk_sends is None else chunk_sends
    params = LogPParams(P=P, **LOGP)
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


def bench_serve() -> dict[str, Any]:
    """Load-generator scenario for the plan service.

    Three phases over the same request population:

    * **cold** — a fresh :class:`~repro.serve.PlanService` plans every
      distinct point once (all misses; the planner is the bottleneck);
    * **hot** — ``SERVE_DRAWS`` requests Zipf-distributed over the
      population (exponent ``SERVE_ZIPF_S``, rank order shuffled so popularity is not
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

    draws, capacity = SERVE_DRAWS, SERVE_CAPACITY
    population = serve_request_points()
    rng = random.Random(SERVE_SEED)
    order = list(range(len(population)))
    rng.shuffle(order)
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF_S for rank in range(len(order))]
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
        "zipf_s": SERVE_ZIPF_S,
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


def bench_exec() -> dict[str, Any]:
    """Lower + execute the optimal broadcast on every available transport.

    The same P-rank broadcast schedule is compiled once
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

    params = LogPParams(P=EXEC_P, **LOGP)
    schedule = registry.plan("broadcast", params)
    lower_s, plan = time_call(lambda: lower_schedule(schedule))
    row: dict[str, Any] = {
        "workload": "exec",
        "P": EXEC_P,
        "params": [params.P, params.L, params.o, params.g],
        "sends": schedule.num_sends,
        "lower_s": lower_s,
        "instrs": plan.num_instrs,
        "makespan_cycles": registry.completion(schedule),
        "transports": available_transports(),
    }
    for name in available_transports():
        transport = get_transport(name)
        wall_s, result = time_call(
            lambda transport=transport: execute(
                schedule, transport=transport, verify=True
            )
        )
        if isinstance(transport, MpTransport):
            transport.close()
        assert result.num_delivered == schedule.num_sends
        row[f"exec_{name}_s"] = wall_s
    return row


def bench_hier(P: int = HIER_P, repeat: int = 1) -> dict[str, Any]:
    """Two-level machine planning + lint against the flat baseline.

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

    params = LogPParams(P=P, **HIER_LOGP)
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


def bench_heal(P: int = HIER_P, repeat: int = 1) -> dict[str, Any]:
    """Fault-masked replanning: kill ranks, heal, re-lint.

    A ``hier-bcast`` plan is built on a :class:`FaultMaskedMachine`
    (every ``HEAL_DEAD_EVERY``-th rank dead, leaders included, so whole
    subtrees orphan), healed with :func:`repro.machine.heal.heal_columns`,
    and the healed schedule is re-linted.  Asserts the healed plan covers
    every survivor, stays array-backed, and lints error-free.
    """
    from repro.analyze import Severity, lint_schedule
    from repro.machine.heal import heal_columns
    from repro.machine.model import FaultMaskedMachine, default_hier_machine
    from repro.schedule.analysis import completion_time

    params = LogPParams(P=P, **HIER_LOGP)
    base = default_hier_machine(params)
    dead = tuple(range(3, P, HEAL_DEAD_EVERY))
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


def run_bench() -> dict[str, Any]:
    """Run every benchmark scenario and return the results document."""
    scenarios = [bench_broadcast(P) for P in BROADCAST_SIZES]
    scenarios += [bench_all_to_all(P) for P in ALL_TO_ALL_SIZES]
    scenarios.append(bench_kitem_all_to_all(*KITEM_ALL_TO_ALL))
    scenarios.append(bench_transforms())
    scenarios += [bench_implicit_lint(P) for P in IMPLICIT_SIZES]
    scenarios += [bench_serve(), bench_exec(), bench_hier(), bench_heal()]
    return {
        "bench": "build/validate/execute at scale + transform, implicit-lint, "
        "serve, exec, hier and heal scenarios",
        "baseline": latest_baseline(),
        "command": "python benchmarks/harness.py",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "unix_time": int(time.time()),
        "repeat": 1,
        "scenarios": scenarios,
    }


def write_bench(results: dict[str, Any], path: str) -> None:
    """Write a benchmark results document as indented JSON."""
    with open(path, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH.json", help="output JSON path")
    args = parser.parse_args(argv)
    write_bench(run_bench(), args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
