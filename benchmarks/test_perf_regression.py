"""Perf-regression gate for the vectorized validator, the executed bench
rows, and columnar schedule builders.

Marked ``perf`` so tier-1 (``pytest tests/``) never runs these; they are
timing-sensitive and belong in ``make bench``.  The headline acceptance
numbers: PR-1 — on the P=256 all-to-all broadcast (65,280 sends) the
numpy validator must beat the scalar oracle by at least 5x with the
identical (empty) violation list; PR-2 — the columnar all-to-all builder
must beat the per-``SendOp`` oracle builder by at least 5x while
producing the identical send list.  The slow side of every speedup is
a pure-Python oracle from ``tests/oracles/``.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.core.all_to_all import all_to_all_schedule  # noqa: E402
from repro.params import postal  # noqa: E402
from repro.sim.validate_np import violations_np  # noqa: E402

from benchmarks.harness import (  # noqa: E402
    bench_all_to_all,
    bench_broadcast,
    time_call,
    time_fresh,
)
from tests.oracles.builders import all_to_all_schedule_objects  # noqa: E402
from tests.oracles.validate import violations_objects  # noqa: E402

pytestmark = pytest.mark.perf


def test_validate_np_speedup_on_p256_all_to_all():
    schedule = all_to_all_schedule(postal(P=256, L=4))
    assert len(schedule.sends) == 256 * 255 == 65_280
    scalar_s, scalar_v = time_call(lambda: violations_objects(schedule), repeat=3)
    np_s, np_v = time_fresh(violations_np, schedule, repeat=3)
    assert scalar_v == np_v == []
    speedup = scalar_s / np_s
    assert speedup >= 5.0, (
        f"vectorized validator only {speedup:.1f}x faster than scalar "
        f"({scalar_s:.3f}s vs {np_s:.3f}s); acceptance floor is 5x"
    )


def test_event_driven_machine_skips_idle_cycles():
    # the P=1024 broadcast row lowers and runs the built plan on the
    # inproc transport (the cooperative rank scheduler); executing all
    # 1023 deliveries stays far under ~1s on any plausible box
    row = bench_broadcast(1024, repeat=1)
    assert row["execute_delivered"] == 1023
    assert row["execute_inproc_s"] < 1.0


def test_columnar_build_speedup_on_p512_all_to_all():
    # PR-2 acceptance: the numpy-broadcasting builder must construct the
    # P=512 all-to-all (261,632 sends) at least 5x faster than the
    # per-send oracle loop, and yield the identical schedule lazily
    params = postal(P=512, L=4)
    fast_s, fast = time_call(lambda: all_to_all_schedule(params), repeat=3)
    obj_s, oracle = time_call(
        lambda: all_to_all_schedule_objects(params), repeat=3
    )
    assert fast.num_sends == oracle.num_sends == 512 * 511
    speedup = obj_s / fast_s
    assert speedup >= 5.0, (
        f"columnar builder only {speedup:.1f}x faster than object path "
        f"({obj_s:.3f}s vs {fast_s:.3f}s); acceptance floor is 5x"
    )
    assert fast.sends == oracle.sends


def test_columnar_storage_is_denser_than_objects():
    # four int64 columns = 32 bytes/send; the materialized SendOp list
    # pays a list slot plus a SendOp instance per send (several times that)
    row = bench_all_to_all(64, repeat=1)
    assert row["columnar_bytes_per_send"] <= 40
    assert row["object_bytes_per_send"] > 2 * row["columnar_bytes_per_send"]


def test_array_backed_validation_consumes_cached_columns():
    # validating an array-backed schedule must not materialize SendOps
    schedule = all_to_all_schedule(postal(P=256, L=4))
    assert schedule.is_array_backed
    assert violations_np(schedule) == []
    assert schedule.is_array_backed


def test_bench_scenarios_produce_legal_schedules():
    # bench rows double as correctness probes: the validator returned
    # empty (asserted inside), executed deliveries match the closed form
    # P(P-1)
    row = bench_all_to_all(64, repeat=1)
    assert row["sends"] == 64 * 63
    assert row["execute_delivered"] == 64 * 63
    schedule = all_to_all_schedule(postal(P=64, L=4))
    scalar_s, _ = time_call(lambda: violations_objects(schedule))
    assert scalar_s / row["validate_np_s"] > 1.0


def test_lint_sweep_under_one_second_on_p1024_all_to_all():
    """PR-3 acceptance: the full static rule sweep over the P=1024
    all-to-all (~1M sends) finishes in under a second, consuming the
    columnar storage zero-copy (no SendOp materialization)."""
    from repro.analyze import lint_schedule

    schedule = all_to_all_schedule(postal(P=1024, L=4))
    assert schedule.is_array_backed
    elapsed, report = time_call(lambda: lint_schedule(schedule))
    assert report.max_severity is None
    assert schedule.is_array_backed  # lint never touched .sends
    assert report.num_sends == 1024 * 1023
    assert elapsed < 1.0, f"lint sweep took {elapsed:.3f}s (budget 1.0s)"


def test_transform_pipeline_speedup_on_p512_all_to_all():
    """PR-5 acceptance: the vectorized pass pipeline (reverse,
    canonicalize, prune-dead-sends) must beat the objects oracle by at
    least 10x on the P=512 all-to-all without ever materializing a
    SendOp list."""
    from benchmarks.harness import bench_transforms

    from tests.oracles.transform import run_pass_objects

    row = bench_transforms(P=512, repeat=1)
    assert row["materialized_sendops"] == 0
    schedule = all_to_all_schedule(postal(P=512, L=4))

    def run_oracles():
        current = schedule
        for name in row["pipeline"].split(","):
            current = run_pass_objects(name, current)
        return current

    objects_s, _ = time_call(run_oracles)
    speedup = objects_s / row["transform_np_s"]
    assert speedup >= 10.0, (
        f"pass pipeline only {speedup:.1f}x faster than objects oracle "
        f"({objects_s:.3f}s vs {row['transform_np_s']:.3f}s); "
        f"acceptance floor is 10x"
    )


def test_recorded_bench_transform_gate():
    """The committed BENCH_PR5.json must record the headline transform
    speedup so regressions show up in review, not just nightly CI."""
    import json

    path = Path(__file__).resolve().parent.parent / "BENCH_PR5.json"
    doc = json.loads(path.read_text())
    rows = [r for r in doc["scenarios"]
            if r["workload"] == "transform-pipeline"]
    assert rows, "BENCH_PR5.json has no transform-pipeline row"
    row = rows[0]
    assert row["materialized_sendops"] == 0
    assert row["transform_speedup"] >= 10.0


def test_implicit_lint_p1e6_bounded_memory():
    """PR-6 acceptance: linting a P=10^6 implicit broadcast plan never
    materializes the ~10^6 send columns — peak traced memory is bounded
    by the streamed chunk size, not by P.  Demonstrated directly: a
    *smaller* chunk at P=10^6 must peak below a *bigger* chunk at
    P=10^5, which no O(P) representation could manage."""
    from benchmarks.harness import bench_implicit_lint

    big = bench_implicit_lint(1_000_000)
    assert big["sends"] == 999_999
    assert big["lint_errors"] == 0
    assert big["rules_run"] == 7
    assert big["lint_s"] < 5.0, f"P=1e6 lint took {big['lint_s']:.2f}s"
    # absolute ceiling at the default 64Ki chunk (measured ~11 MB)
    assert big["lint_peak_bytes"] < 32 * 2**20, (
        f"P=1e6 lint peaked at {big['lint_peak_bytes'] / 2**20:.1f} MB "
        f"(ceiling 32 MB)"
    )
    small_chunk = bench_implicit_lint(1_000_000, chunk_sends=16_384)
    medium_P = bench_implicit_lint(100_000, chunk_sends=65_536)
    assert small_chunk["lint_errors"] == medium_P["lint_errors"] == 0
    assert small_chunk["lint_peak_bytes"] < medium_P["lint_peak_bytes"], (
        f"peak memory follows P, not the chunk size: P=1e6@16Ki peaked "
        f"at {small_chunk['lint_peak_bytes']} bytes vs P=1e5@64Ki at "
        f"{medium_P['lint_peak_bytes']} bytes"
    )


def test_implicit_optimal_lint_p1e6_under_100ms():
    """Run-length tree queries: every chunk of a P=10^6 optimal
    broadcast reads the family's run table (one ``np.repeat`` per
    chunk), so the whole lint takes well under 0.1 s (measured ~0.03 s;
    the per-delay scan it replaced took ~0.2 s)."""
    from benchmarks.harness import bench_implicit_lint

    row = bench_implicit_lint(1_000_000, repeat=3)
    assert row["sends"] == 999_999
    assert row["lint_errors"] == 0
    assert row["lint_s"] < 0.1, f"P=1e6 optimal lint took {row['lint_s']:.3f}s"


def test_registry_broadcast_3x_faster_than_heap_at_p512():
    """One labeling of the universal tree: the registry broadcast is the
    materialized run table, which must beat the per-processor heap it
    replaced (``tests.oracles.tree``) by at least 3x at P=512 while
    building the identical schedule."""
    from repro.params import LogPParams
    from repro.registry import plan

    from tests.oracles.tree import optimal_broadcast_schedule_heap

    params = LogPParams(P=512, L=6, o=2, g=4)
    table_s, built = time_call(lambda: plan("broadcast", params), repeat=5)
    heap_s, heap = time_call(
        lambda: optimal_broadcast_schedule_heap(params), repeat=5
    )
    assert built == heap
    speedup = heap_s / table_s
    assert speedup >= 3.0, (
        f"run-table broadcast only {speedup:.1f}x faster than the heap "
        f"({heap_s * 1e6:.0f}us vs {table_s * 1e6:.0f}us); floor is 3x"
    )


def test_recorded_bench_implicit_gate():
    """The committed BENCH_PR6.json must record the headline P=10^6
    bounded-memory lint so regressions show up in review, not just
    nightly CI."""
    import json

    path = Path(__file__).resolve().parent.parent / "BENCH_PR6.json"
    doc = json.loads(path.read_text())
    rows = {r["P"]: r for r in doc["scenarios"]
            if r["workload"] == "implicit-lint"}
    assert 1_000_000 in rows, "BENCH_PR6.json has no P=1e6 implicit-lint row"
    row = rows[1_000_000]
    assert row["sends"] == 999_999
    assert row["lint_errors"] == 0
    assert row["lint_peak_bytes"] < 32 * 2**20
    assert row["lint_s"] < 5.0


def test_serve_hot_cache_speedup():
    """PR-7 acceptance: the plan service's hot path (bounded LRU over
    the content-addressed cache) must serve a Zipf request mix at least
    20x faster than cold planning, at a >= 90% hit rate, under real
    eviction pressure (capacity < population)."""
    from benchmarks.harness import bench_serve

    row = bench_serve()
    assert row["capacity"] < row["points"], "no eviction pressure"
    assert row["hot_hit_rate"] >= 0.90, (
        f"hit rate {row['hot_hit_rate']:.3f} under the 90% floor "
        f"(capacity {row['capacity']} over {row['points']} points)"
    )
    assert row["hot_speedup"] >= 20.0, (
        f"hot path only {row['hot_speedup']:.1f}x over cold planning "
        f"({row['hot_plans_per_s']:.0f}/s vs {row['cold_plans_per_s']:.0f}/s); "
        f"acceptance floor is 20x"
    )
    # the batched path dedups before planning, so it may not be slower
    # than the one-at-a-time hot path by more than bookkeeping overhead
    assert row["batch_plans_per_s"] >= row["hot_plans_per_s"] / 3


def test_exec_lowers_and_runs_p256_broadcast_in_bounded_time():
    """PR-9 acceptance: compiling the P=256 broadcast to per-rank
    programs and actually executing it on the inproc transport (real
    threads, real queues, simulator verification on) completes well
    inside a 5s budget, and lowering consumes the columnar storage
    zero-copy — no per-SendOp objects are ever materialized."""
    from repro import registry
    from repro.exec import execute, lower_schedule
    from repro.params import LogPParams

    params = LogPParams(P=256, L=4, o=1, g=2)
    schedule = registry.plan("broadcast", params)
    assert schedule.is_array_backed
    lower_s, plan = time_call(lambda: lower_schedule(schedule), repeat=3)
    assert schedule.is_array_backed  # lowering never touched .sends
    assert plan.num_sends == 255
    assert lower_s < 0.5, f"lowering took {lower_s:.3f}s (budget 0.5s)"
    wall_s, result = time_call(
        lambda: execute(schedule, transport="inproc", verify=True)
    )
    assert result.num_delivered == 255
    assert schedule.is_array_backed
    assert wall_s < 5.0, (
        f"inproc execution of the P=256 broadcast took {wall_s:.3f}s "
        f"(budget 5.0s)"
    )


def test_exec_p256_broadcast_without_rank_threads():
    """One cooperative rank scheduler: no transport starts a thread per
    rank, so executing the lowered P=256 broadcast (best of 5) stays
    under 10 ms on inproc and under 25 ms on a warm two-worker mp pool
    (measured ~2 and ~6 ms on a shared 2-vCPU x86-64 host, where
    thread-per-rank execution took ~45 and ~55 ms)."""
    from repro import registry
    from repro.exec import MpTransport, execute, lower_schedule
    from repro.params import LogPParams

    plan = lower_schedule(
        registry.plan("broadcast", LogPParams(P=256, L=4, o=1, g=2))
    )
    inproc_s, result = time_call(
        lambda: execute(plan, transport="inproc"), repeat=5
    )
    assert result.num_delivered == 255
    with MpTransport(workers=2) as transport:
        execute(plan, transport=transport)  # fork the pool
        mp_s, mp_result = time_call(
            lambda: execute(plan, transport=transport), repeat=5
        )
    assert mp_result.trace.to_json() == result.trace.to_json()
    assert inproc_s < 0.010, f"inproc P=256 broadcast took {inproc_s * 1e3:.1f} ms"
    assert mp_s < 0.025, f"warm mp P=256 broadcast took {mp_s * 1e3:.1f} ms"


def test_recorded_bench_exec_gate():
    """The committed BENCH_PR9.json must record the headline
    wall-clock-vs-makespan numbers for the P=256 broadcast on every
    available transport so regressions show up in review, not just
    nightly CI."""
    import json

    path = Path(__file__).resolve().parent.parent / "BENCH_PR9.json"
    doc = json.loads(path.read_text())
    rows = [r for r in doc["scenarios"] if r["workload"] == "exec"]
    assert rows, "BENCH_PR9.json has no exec row"
    row = rows[0]
    assert row["P"] == 256
    assert row["sends"] == 255
    assert row["makespan_cycles"] > 0
    assert row["lower_s"] < 0.5
    assert "inproc" in row["transports"] and "mp" in row["transports"]
    assert row["exec_inproc_s"] < 5.0
    assert row["exec_mp_s"] < 10.0


def test_hier_plan_lint_within_flat_budget():
    """PR-10 acceptance: planning + linting the P=512 hierarchical
    broadcast (per-edge pricing through the machine model) stays within
    the flat P=512 plan+lint budget and never materializes a SendOp,
    while the composed plan's makespan beats the flat envelope's."""
    from benchmarks.harness import bench_hier

    row = bench_hier(P=512, repeat=3)
    assert row["sends"] == 511
    assert row["makespan_cycles"] < row["flat_makespan_cycles"]
    assert row["plan_lint_ratio"] <= 1.0, (
        f"hier plan+lint cost {row['plan_lint_ratio']:.2f}x the flat "
        f"budget ({row['build_s'] + row['lint_s']:.4f}s vs "
        f"{row['flat_build_s'] + row['flat_lint_s']:.4f}s); "
        f"acceptance ceiling is 1.0x"
    )


def test_heal_bounded_time_at_p512():
    """PR-10 acceptance: healing the fault-masked P=512 hierarchical
    broadcast (dead leaders included, whole subtrees orphaned) covers
    every survivor, lints error-free, and completes well inside a
    per-plan interactive budget."""
    from benchmarks.harness import bench_heal

    row = bench_heal(P=512, repeat=3)
    assert row["dead"] > 0 and row["healed_sends"] > 0
    assert row["heal_s"] < 0.5, f"heal took {row['heal_s']:.3f}s (budget 0.5s)"
    assert row["lint_s"] < 1.0


def test_recorded_bench_hier_gate():
    """The committed BENCH_PR10.json must record the headline
    hierarchical-machine numbers so regressions show up in review, not
    just nightly CI."""
    import json

    path = Path(__file__).resolve().parent.parent / "BENCH_PR10.json"
    doc = json.loads(path.read_text())
    rows = {r["workload"]: r for r in doc["scenarios"]
            if r["workload"] in ("hier", "heal")}
    assert "hier" in rows, "BENCH_PR10.json has no hier row"
    assert "heal" in rows, "BENCH_PR10.json has no heal row"
    hier = rows["hier"]
    assert hier["P"] == 512
    assert hier["plan_lint_ratio"] <= 1.0
    assert hier["makespan_cycles"] < hier["flat_makespan_cycles"]
    heal = rows["heal"]
    assert heal["dead"] > 0 and heal["healed_sends"] > 0
    assert heal["heal_s"] < 0.5


def test_recorded_bench_serve_gate():
    """The committed BENCH_PR7.json must record the headline serve
    load-gen numbers so regressions show up in review, not just
    nightly CI."""
    import json

    path = Path(__file__).resolve().parent.parent / "BENCH_PR7.json"
    doc = json.loads(path.read_text())
    rows = [r for r in doc["scenarios"] if r["workload"] == "serve"]
    assert rows, "BENCH_PR7.json has no serve row"
    row = rows[0]
    assert row["points"] >= 2000, "load-gen mix must cover thousands of points"
    assert row["hot_hit_rate"] >= 0.90
    assert row["hot_speedup"] >= 20.0
    assert row["hot_plans_per_s"] >= 20.0 * row["cold_plans_per_s"]
