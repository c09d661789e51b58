"""The repository benchmark: closed-loop request workloads over the plan stack.

Run from the repository root::

    python3 perfbench/run.py --workload serve-zipf --seed 12 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

One process serves one workload with a single closed-loop client: it
generates the seeded request list, sets up (three times; the median is
``setup_s``), then replays the list in passes until ``--seconds`` of
timed requests have run.  Outputs are checked for correctness after each
pass, outside the timed window.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and prints
the per-layer metrics (see ``spans.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

Host speed.  A shared host runs the same code up to 1.8x slower for
seconds at a time, in phases that can last a whole run.  A fixed
calibration kernel (:func:`calibrate`: interpreter work and NumPy work,
none of it program code) is timed before set-up, between passes and
after every ``SLICE_S`` of untraced requests, and
every end-to-end time is divided by the host slowness measured around
it: the times reported are those of a host running at the reference
speed.  The raw figures and the calibration are printed above the JSON
line.

Metric names and units come from ``BENCHMARK.json``; the workloads, the
layers each one exercises and the layer-to-end-to-end predictions are in
``perfbench/workloads.json``.  Deterministic counters are stored per
(workload, seed, source tree) under ``perfbench/.state`` and every later
run of the same code and seed must reproduce them exactly.
"""

from __future__ import annotations

import os
import sys
import time

if os.environ.get("PYTHONHASHSEED") != "0" and __name__ == "__main__":
    # str hashes seed dict layouts; fixing them makes every run of a seed
    # lay out (and time) its dictionaries alike.  Same process, new image.
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})

STARTED = time.perf_counter()

import argparse  # noqa: E402
from array import array  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NoReturn  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3  # set-up repetitions; setup_s reports their median
SLICE_S = 0.1  # untraced requests between calibrations: host phases are ~1 s
#: the calibration loops' times on the reference host (an unloaded 2-vCPU
#: x86-64 VM), and the NumPy share of the slowness estimate: with 2/3,
#: identical passes of every workload varied least after scaling
CAL_PYTHON_S = 0.0115
CAL_NUMPY_S = 0.0155
CAL_NUMPY_SHARE = 2 / 3
# counters that must repeat exactly, pass after pass and run after run
DETERMINISTIC = (
    "serve.planned",
    "serve.cache.evictions",
    "schedule.sends",
    "exec.instrs",
    "exec.delivered",
    "analyze.chunked.chunks",
    "makespan_over_bound",
)


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read {path.name}: {exc}")


def _bump(x: int) -> int:
    return x + 1


def calibrate(keys: "numpy.ndarray") -> tuple[float, float, float]:
    """``(slowness, python_s, numpy_s)``: how much slower than the
    reference host the host runs right now (1.0 = reference speed).

    Two fixed loops stand for what the workloads spend their time on:
    interpreter work (calls, dict stores, small-object allocation) and
    NumPy work (stable sorts, gathers and scans over ``keys``).  Neither
    touches program code, so they measure only the host.
    """
    import numpy

    began = time.perf_counter()
    table: dict[int, int] = {}
    names: list[str] = []
    for i in range(60_000):
        table[i & 1023] = _bump(i)
        names.append(str(i))
        if len(names) > 512:
            names.clear()
    middle = time.perf_counter()
    ordered = keys[numpy.argsort(keys, kind="stable")]
    numpy.cumsum(ordered)
    numpy.unique(ordered[:50_000])
    python_s, numpy_s = middle - began, time.perf_counter() - middle
    slowness = (1 - CAL_NUMPY_SHARE) * python_s / CAL_PYTHON_S + (
        CAL_NUMPY_SHARE * numpy_s / CAL_NUMPY_S
    )
    return slowness, python_s, numpy_s


def _tail(samples: list[float], pct: float) -> tuple[float, float]:
    """``(value, percentile)``: the workload's fixed tail percentile, or
    the highest one with ten samples beyond it when a run has too few."""
    ordered = sorted(samples)
    n = len(ordered)
    index = max(min(math.ceil(pct / 100 * n) - 1, n - 11), 0)
    return ordered[index], 100 * (index + 1) / n


def _source_digest() -> str:
    """Hash of the program and benchmark sources: stored counters are
    only compared between runs of identical code."""
    digest = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/**/*.py"), *HERE.glob("*.py"), *HERE.glob("*.json")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_repeat(workload: str, seed: int, counters: dict[str, float]) -> list[str]:
    """Compare with the counters an earlier run of this code and seed
    stored; store them if none did.  Returns the mismatching names."""
    state = HERE / ".state"
    state.mkdir(exist_ok=True)
    path = state / f"{workload}-{seed}-{_source_digest()}.json"
    stored: dict[str, float] = {}
    if path.exists():
        stored = json.loads(path.read_text())
    mismatched = [k for k, v in counters.items() if k in stored and stored[k] != v]
    merged = {**counters, **stored}
    if merged != stored:
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(merged, sort_keys=True))
        os.replace(tmp, path)
    return mismatched


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    bench = _load_json(ROOT / "BENCHMARK.json")
    if not (ROOT / "src" / "repro").is_dir():
        _fail(f"no program source at {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from spans import REQUEST, Tracer
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        _fail(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")
    imported = time.perf_counter() - STARTED

    import numpy

    keys = numpy.random.default_rng(0).integers(0, 1 << 40, size=100_000)
    cals = [calibrate(keys)]

    def slowness() -> float:
        """Mean host slowness around the interval that just ended."""
        cals.append(calibrate(keys))
        return (cals[-2][0] + cals[-1][0]) / 2

    # -- set-up: request list, fresh state, one untimed warm-up pass -------
    setups = []  # (raw seconds, seconds at reference speed)
    for _ in range(SETUPS):
        began = time.perf_counter()
        wl = WORKLOADS[name](seed)
        wl.start_pass()
        for request in wl.requests:
            wl.handle(request)
        spent = time.perf_counter() - began
        setups.append((spent, spent / slowness()))
    imported_ref = imported / cals[0][0]

    # -- timed passes ----------------------------------------------------
    tracer = Tracer()
    latencies = array("d")  # seconds at reference speed, untraced passes
    raw_latencies = array("d")
    traced_outputs: list = []
    timed = {False: 0.0, True: 0.0}  # timed seconds at reference speed
    raw_timed = 0.0
    served = {False: 0, True: 0}
    attempted = failed = 0
    pass_counters: list[dict[str, int]] = []
    errors: list[str] = []
    passes = 0
    while raw_timed < seconds or (trace and not served[True]):
        traced = trace and passes % 2 == 1
        passes += 1
        wl.start_pass()
        gc.collect()
        outputs = []
        took: list[float] = []
        if traced:
            wl.instrument(tracer)
            try:
                for request in wl.requests:
                    try:
                        outputs.append(tracer.request(wl.handle, request))
                    except Exception as exc:  # counted as a failed request
                        outputs.append(None)
                        errors.append(f"{type(exc).__name__}: {exc}")
            finally:
                wl.uninstrument(tracer)
            took = tracer.requests[-len(outputs) :]
            traced_outputs.extend(outputs)
        else:
            speeds: list[float] = []  # per request, set slice by slice
            in_slice = 0.0
            for request in wl.requests:
                began = time.perf_counter()
                try:
                    outputs.append(wl.handle(request))
                except Exception as exc:  # counted as a failed request
                    outputs.append(None)
                    errors.append(f"{type(exc).__name__}: {exc}")
                took.append(time.perf_counter() - began)
                in_slice += took[-1]
                if in_slice >= SLICE_S:
                    speeds += [1 / slowness()] * (len(took) - len(speeds))
                    in_slice = 0.0
        speed = 1 / slowness()
        if traced:
            speeds = [speed] * len(took)
        else:
            speeds += [speed] * (len(took) - len(speeds))
            raw_latencies.extend(took)
            latencies.extend(t * s for t, s in zip(took, speeds))
        raw_timed += sum(took)
        timed[traced] += sum(t * s for t, s in zip(took, speeds))
        served[traced] += len(outputs)
        attempted += len(outputs)
        failed += wl.check(outputs)
        pass_counters.append(wl.counters(outputs))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- deterministic counters: every pass and every run alike -----------
    ratio, unbounded = wl.bound_ratio()
    counters: dict[str, float] = dict(pass_counters[0])
    if "schedule.implicit.chunk" in tracer.layers:
        counters["analyze.chunked.chunks"] = (
            tracer.stat("schedule.implicit.chunk").calls * len(wl.requests) // served[True]
        )
    counters["makespan_over_bound"] = ratio
    counters = {k: v for k, v in counters.items() if k in DETERMINISTIC}
    repeat_errors = [
        f"pass {i + 1} counters {c} differ from pass 1 {pass_counters[0]}"
        for i, c in enumerate(pass_counters)
        if c != pass_counters[0]
    ]
    repeat_errors += [
        f"{key} differs from an earlier run of this code and seed"
        for key in _check_repeat(name, seed, counters)
    ]
    if trace and tracer.max_gap_s > 1e-6:
        repeat_errors.append(
            f"layer self times miss the traced request total by up to "
            f"{tracer.max_gap_s * 1e6:.3f} us"
        )

    # -- report ----------------------------------------------------------
    print(f"workload {name}, seed {seed}: {passes} passes of {len(wl.requests)} requests")
    slow = [c[0] for c in cals]
    print(
        f"  host slowness median {statistics.median(slow):.3f} (range "
        f"{min(slow):.3f}-{max(slow):.3f} over {len(cals)} calibrations; python "
        f"{statistics.median(c[1] for c in cals) * 1e3:.2f} ms, numpy "
        f"{statistics.median(c[2] for c in cals) * 1e3:.2f} ms)"
    )
    print(
        f"  raw: imports {imported:.3f} s; set-ups "
        f"{', '.join(f'{raw:.3f}' for raw, _ in setups)} s"
    )
    print(f"  deterministic counters: {json.dumps(counters, sort_keys=True)}")
    print(f"  plans without a closed-form bound: {unbounded or 'none'}")
    for problem in (errors[:5] + repeat_errors):
        print(f"  FAILED: {problem}")
    if trace:
        metrics = {m["name"]: 0.0 for m in bench["per_layer"]}
        metrics.update({k: v for k, v in counters.items() if k in metrics})
        metrics.update(wl.layer_metrics(tracer, traced_outputs))
        other = tracer.stat(REQUEST).self_s
        metrics["trace.other_ms"] = statistics.median(other) * 1e3
        metrics["trace.overhead"] = (served[True] / timed[True]) / (served[False] / timed[False])
        metrics["trace.layer_errors"] = sum(
            s.errors for n, s in tracer.layers.items() if n != REQUEST
        )
        metrics["host.slowness"] = statistics.median(slow)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        total = sum(tracer.requests)
        print(
            f"  raw layer self time per traced request (sums to "
            f"{total * 1e3 / len(tracer.requests):.4f} ms):"
        )
        for layer, stat in sorted(tracer.layers.items(), key=lambda kv: -kv[1].total_s):
            label = "trace.other" if layer == REQUEST else layer
            print(
                f"    {label:28s} {stat.total_s * 1e3 / len(tracer.requests):10.4f} ms"
                f"  {100 * stat.total_s / total:5.1f} %  calls {stat.calls}  errors {stat.errors}"
            )
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        tail, level = _tail(latencies, wl.TAIL_PCT)
        metrics = {
            "throughput_rps": served[False] / timed[False],
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": tail * 1e3,
            "success_rate": (attempted - failed) / attempted,
            "setup_s": imported_ref + statistics.median(ref for _, ref in setups),
            "peak_rss_mb": peak_rss_mb,
            "makespan_over_bound": ratio,
        }
        raw_tail, _ = _tail(raw_latencies, wl.TAIL_PCT)
        beyond = len(latencies) - round(level / 100 * len(latencies))
        print(
            f"  raw: throughput {len(raw_latencies) / sum(raw_latencies):.6g} 1/s, "
            f"p50 {statistics.median(raw_latencies) * 1e3:.6g} ms, "
            f"tail {raw_tail * 1e3:.6g} ms"
        )
        print(f"  latency_tail_ms is p{level:g} of {len(latencies)} samples ({beyond} beyond it)")
    for key, value in metrics.items():
        print(f"  {key:32s} {value:14.6f} {units[key]}")
    correct = failed == 0 and not repeat_errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh process; one table at the end."""
    names = [w["name"] for w in _load_json(ROOT / "BENCHMARK.json")["workloads"]]
    rows, status = [], 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        status |= proc.returncode != 0 or result is None or not result["correct"]
        rows.append((name, result))
    print()
    for name, result in rows:
        if result is None:
            print(f"{name:14s} FAILED (see output above)")
            continue
        verdict = "" if result["correct"] else "  (INCORRECT)"
        for key, metric in result["metrics"].items():
            print(f"{name:14s} {key:32s} {metric['value']:14.6f} {metric['unit']}{verdict}")
    return int(status)


def main() -> int:
    doc = _load_json(HERE / "workloads.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=doc["default_seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
