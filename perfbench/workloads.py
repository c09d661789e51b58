"""The benchmark's three workloads.

Each workload turns a seed into a fixed request list (the same seed gives
the same list; another seed gives a different list of the same shape),
and replays that list in *passes*.  A pass starts from fresh per-pass
state, so every pass does exactly the same work: the deterministic
counters of :meth:`Workload.counters` must repeat from pass to pass and
from run to run.

``handle`` is the only code inside the timed window.  It reaches each
layer through ``self.call(layer_name, fn, ...)``, which is a plain call
in the untraced run and a span in the traced run (:mod:`spans`); layers
the workload reaches only through another layer are spanned by wrapping
their public functions in :meth:`Workload.instrument`.  Correctness
checks, closed-form bounds and reference builds run outside the timed
window.
"""

from __future__ import annotations

import random
import statistics
import tracemalloc
from typing import Any, Callable

import repro.serve.keys as serve_keys
import repro.serve.service as serve_service
from repro import registry
from repro.analyze import lint_schedule
from repro.analyze.chunked import lint_implicit
from repro.bench import serve_request_points
from repro.exec import execute, get_transport, lower_schedule, verify_against_sim
from repro.machine import heal_columns
from repro.machine.model import machine_from_spec
from repro.params import LogPParams
from repro.passes import PassManager
from repro.schedule.implicit import ImplicitSchedule
from repro.serve import PlanService
from repro.serve.keys import content_hash, plan_content

from spans import Tracer


def _direct(_name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    return fn(*args, **kwargs)


def _median(samples: list[float], scale: float = 1e3) -> float:
    """Median in ms (or ``scale`` units per second); 0 with no samples."""
    return statistics.median(samples) * scale if samples else 0.0


def _machine_and_extra(point: dict[str, Any]) -> tuple[LogPParams, dict[str, Any]]:
    """Split a request point into its LogP machine and collective extras."""
    params = LogPParams(
        P=point["P"], L=point["L"], o=point.get("o", 0), g=point.get("g", 1)
    )
    extra = {k: v for k, v in point.items() if k not in ("collective", "P", "L", "o", "g")}
    return params, extra


class Workload:
    """One closed-loop request list; see the module docstring."""

    name = ""
    TAIL_PCT = 90.0  # latency_tail_ms percentile: >= 10 samples beyond it per run

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.call: Callable[..., Any] = _direct
        self.requests: list[Any] = []

    # -- per pass ---------------------------------------------------------

    def start_pass(self) -> None:
        """Reset per-pass state (untimed)."""

    def handle(self, request: Any) -> Any:
        """Serve one request (the timed call); returns what `check` reads."""
        raise NotImplementedError

    def check(self, outputs: list[Any]) -> int:
        """Number of outputs that fail the workload's correctness check."""
        raise NotImplementedError

    def counters(self, outputs: list[Any]) -> dict[str, int]:
        """Deterministic per-pass counters."""
        return {}

    # -- per run ----------------------------------------------------------

    def bound_ratio(self) -> tuple[float, list[str]]:
        """Σ LogP makespan ÷ Σ closed-form lower bound over the distinct
        plans of the request list, plus the plans that have no bound."""
        raise NotImplementedError

    def instrument(self, tracer: Tracer) -> None:
        """Span the layers this workload reaches indirectly."""
        self.call = tracer.call

    def uninstrument(self, tracer: Tracer) -> None:
        tracer.close()
        self.call = _direct

    def layer_metrics(self, tracer: Tracer, outputs: list[Any]) -> dict[str, float]:
        """Per-layer metrics of the traced passes; ``outputs`` are their
        request outputs, in the order of ``tracer.requests``."""
        return {}


# -- serve-zipf -----------------------------------------------------------


class ServeZipf(Workload):
    """Zipf(1.4) over the serve population through ``PlanService.plan_json``."""

    name = "serve-zipf"
    ZIPF_S = 1.4
    CAPACITY = 256
    WARM = 1_000  # untimed prefix per pass: fills the LRU
    DRAWS = 12_000  # timed requests per pass
    TAIL_PCT = 99.5

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        population = serve_request_points()
        # The popularity order is a fixed shuffle; the seed then swaps each
        # point with one of its neighbours (same collective and machine, P
        # within a block of four), so every seed asks for different plans
        # of about the same cost at every popularity rank.
        blocks: dict[tuple[Any, ...], list[int]] = {}
        for index, point in enumerate(population):
            key = tuple(sorted((k, v) for k, v in point.items() if k != "P"))
            blocks.setdefault(key, []).append(index)
        swap = list(range(len(population)))
        for indices in blocks.values():
            indices.sort(key=lambda i: population[i]["P"])
            for lo in range(0, len(indices), 4):
                block = indices[lo : lo + 4]
                for a, b in zip(block, self.rng.sample(block, len(block))):
                    swap[a] = b
        order = random.Random(0).sample(range(len(population)), len(population))
        ranked = [population[swap[i]] for i in order]
        # Each rank is asked exactly its Zipf share of the draws (largest
        # remainders round), in a seeded order: every seed then misses the
        # cache about equally often, where independent draws would move
        # the miss count by several percent.
        draws = self.WARM + self.DRAWS
        weights = [1.0 / (rank + 1) ** self.ZIPF_S for rank in range(len(ranked))]
        shares = [draws * w / sum(weights) for w in weights]
        counts = [int(share) for share in shares]
        by_remainder = sorted(range(len(ranked)), key=lambda r: counts[r] - shares[r])
        for rank in by_remainder[: draws - sum(counts)]:
            counts[rank] += 1
        sequence = [point for point, count in zip(ranked, counts) for _ in range(count)]
        self.rng.shuffle(sequence)
        self.warm = sequence[: self.WARM]
        self.requests = sequence[self.WARM :]
        self._keys: dict[int, str] = {}  # id(point) -> request key
        self._reference: dict[str, str] = {}  # request key -> content hash
        self._bounds: dict[str, tuple[int, int | None]] = {}

    def start_pass(self) -> None:
        self.service = PlanService(capacity=self.CAPACITY)
        for request in self.warm:
            self.service.plan_json(request)
        self.memory = self.service.cache.memory
        self.planned0 = self.service.planned
        self.evictions0 = self.memory.evictions

    def handle(self, request: dict[str, Any]) -> tuple[str, bool]:
        planned = self.service.planned
        content = self.service.plan_json(request)
        return content, self.service.planned != planned

    def _key(self, point: dict[str, Any]) -> str:
        key = self._keys.get(id(point))  # points live as long as the lists
        if key is None:
            key = serve_keys.request_key(serve_keys.request_from_mapping(point))
            self._keys[id(point)] = key
        return key

    def _build_references(self) -> None:
        """Cache-free builds of every distinct point, once per run."""
        for point in self.warm + self.requests:
            key = self._key(point)
            if key in self._reference:
                continue
            params, extra = _machine_and_extra(point)
            schedule = registry.plan(point["collective"], params, **extra)
            self._reference[key] = content_hash(plan_content(schedule))
            self._bounds[key] = (
                registry.completion(schedule),
                registry.lower_bound(point["collective"], params, **extra),
            )

    def check(self, outputs: list[Any]) -> int:
        self._build_references()
        verified: dict[int, bool] = {}  # id(content) -> matches; hits share objects
        failed = 0
        for request, output in zip(self.requests, outputs):
            if output is None:
                failed += 1
                continue
            content = output[0]
            ok = verified.get(id(content))
            if ok is None:
                ok = content_hash(content) == self._reference[self._key(request)]
                verified[id(content)] = ok
            failed += not ok
        return failed

    def counters(self, outputs: list[Any]) -> dict[str, int]:
        return {
            "serve.planned": self.service.planned - self.planned0,
            "serve.cache.evictions": self.memory.evictions - self.evictions0,
        }

    def bound_ratio(self) -> tuple[float, list[str]]:
        self._build_references()
        bounded = [(m, b) for m, b in self._bounds.values() if b is not None]
        missing = [key for key, (_, b) in self._bounds.items() if b is None]
        return sum(m for m, _ in bounded) / sum(b for _, b in bounded), missing

    def instrument(self, tracer: Tracer) -> None:
        super().instrument(tracer)
        tracer.wrap(self.service.cache, "lookup", "serve.cache.lookup")
        tracer.wrap(self.service.cache, "store", "serve.cache.store")
        tracer.wrap(serve_service, "build_plan", "registry.build")
        tracer.wrap(serve_keys, "plan_content", "schedule.serialize")
        for fn in ("request_from_mapping", "request_key", "request_key_hash"):
            tracer.wrap(serve_service, fn, "serve.keys")

    def layer_metrics(self, tracer: Tracer, outputs: list[Any]) -> dict[str, float]:
        layer = tracer.stat
        hit_times = [
            total
            for total, output in zip(tracer.requests, outputs)
            if output is not None and not output[1]
        ]
        return {
            "serve.cache.hit_ratio": len(hit_times) / len(outputs),
            "serve.hit_us": _median(hit_times, 1e6),
            "serve.cache.lookup_us": _median(layer("serve.cache.lookup").self_s, 1e6),
            "serve.cache.store_us": _median(layer("serve.cache.store").self_s, 1e6),
            "serve.keys_us": _median(layer("serve.keys").self_s, 1e6),
            "registry.build_ms": _median(layer("registry.build").self_s),
            "schedule.serialize_ms": _median(layer("schedule.serialize").self_s),
        }


# -- run-mp ---------------------------------------------------------------


class RunMp(Workload):
    """Every registered collective, compiled, lowered and run on mp."""

    name = "run-mp"
    TAIL_PCT = 95.0
    PIPELINE = "canonicalize,prune-dead-sends"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng
        logp = {"L": 6, "o": 2, "g": 4}
        postal = {"L": 3}
        # Moderate, fixed machine sizes: which request is slowest (and so
        # sets the tail) must not depend on the seed.  The seed picks item
        # counts, operand counts and the dead ranks; an odd request count
        # keeps p50 on one request kind.
        dead = sorted(rng.sample(range(1, 36), 2))
        masked = machine_from_spec(f"hier:6x6:12/1/2:2/0/1:dead={dead[0]}+{dead[1]}")
        self.requests = [
            ("broadcast", {"P": 48, **logp}, None),
            ("broadcast", {"P": 32, **postal}, None),
            ("kitem", {"P": 16, **postal, "k": rng.randint(3, 5)}, None),
            ("continuous", {"P": 10, **postal, "k": rng.randint(3, 5)}, None),
            ("all-to-all", {"P": 12, **logp}, None),
            ("summation", {"P": 16, **logp, "n": rng.randint(95, 105)}, None),
            ("allreduce", {"P": 20, **postal}, None),
            ("reduction", {"P": 48, **logp}, None),
            ("hier-bcast", {"P": 40, **logp}, None),
            ("hier-reduce", {"P": 40, **logp}, None),
            ("hier-bcast", {}, masked),
        ]
        self.transport = get_transport("mp")

    def _plan(self, name: str, kwargs: dict[str, int], machine: Any) -> Any:
        if machine is not None:
            return registry.plan(name, machine=machine)
        return registry.plan(name, **kwargs)

    def handle(
        self, request: tuple[str, dict[str, int], Any]
    ) -> tuple[int, int, int, float, int, int]:
        call = self.call
        schedule = call("registry.build", self._plan, *request)
        uncovered = 0
        if request[2] is not None:
            schedule, stats = call("machine.heal", heal_columns, schedule)
            uncovered = stats.uncovered_after
        # the verified pass pipeline compiles the plan; the pass framework
        # carries sends only (it drops summation's local reductions), so
        # the plan that is linted and run is the built one
        call("passes.run", PassManager(self.PIPELINE, verify="errors").run, schedule)
        report = call("analyze.lint", lint_schedule, schedule)
        lowered = call("exec.lower", lower_schedule, schedule)
        result = call("exec.execute", execute, lowered, transport=self.transport)
        call("exec.verify", verify_against_sim, schedule, result.trace)
        return (
            uncovered,
            lowered.num_instrs,
            result.num_delivered,
            result.wall_s,
            schedule.num_sends,
            len(report.errors),
        )

    def check(self, outputs: list[Any]) -> int:
        # verify_against_sim raised inside the request on any mismatch
        return sum(out is None or out[0] != 0 or out[5] != 0 for out in outputs)

    def counters(self, outputs: list[Any]) -> dict[str, int]:
        done = [out for out in outputs if out is not None]
        return {
            "schedule.sends": sum(out[4] for out in done),
            "exec.instrs": sum(out[1] for out in done),
            "exec.delivered": sum(out[2] for out in done),
        }

    def bound_ratio(self) -> tuple[float, list[str]]:
        made = bound = 0
        missing = []
        self.makespans = []
        for name, kwargs, machine in self.requests:
            schedule = self._plan(name, kwargs, machine)
            if machine is not None:
                schedule, _ = heal_columns(schedule)
                lb = registry.lower_bound(name, machine.flat_params)
            else:
                params, extra = _machine_and_extra(kwargs)
                lb = registry.lower_bound(name, params, **extra)
            self.makespans.append(registry.completion(schedule))
            if lb is None:
                missing.append(name)
                continue
            made += self.makespans[-1]
            bound += lb
        return made / bound, missing

    def instrument(self, tracer: Tracer) -> None:
        super().instrument(tracer)
        tracer.wrap(self.transport, "run", "exec.transport")

    def layer_metrics(self, tracer: Tracer, outputs: list[Any]) -> dict[str, float]:
        layer = tracer.stat
        # each pass replays the request list in order; bound_ratio() has
        # already recorded every request's LogP makespan
        ran = [
            (out[3], self.makespans[i % len(self.requests)])
            for i, out in enumerate(outputs)
            if out is not None
        ]
        lint = layer("analyze.lint").self_s
        return {
            "registry.build_ms": _median(layer("registry.build").self_s),
            "machine.heal_ms": _median(layer("machine.heal").self_s),
            "passes.run_ms": _median(layer("passes.run").self_s),
            "analyze.lint_ms": _median(lint),
            "analyze.sends_per_s": sum(out[4] for out in outputs if out is not None) / sum(lint),
            "exec.lower_ms": _median(layer("exec.lower").self_s),
            "exec.execute_ms": _median(layer("exec.execute").self_s),
            "exec.transport_ms": _median(layer("exec.transport").self_s),
            "exec.verify_ms": _median(layer("exec.verify").self_s),
            "exec.wall_us_per_cycle": sum(w for w, _ in ran) * 1e6 / sum(c for _, c in ran),
        }


# -- implicit-lint --------------------------------------------------------


class ImplicitLint(Workload):
    """Implicit broadcasts at P≈10^6, linted chunk by chunk."""

    name = "implicit-lint"
    TAIL_PCT = 80.0
    PLANS = 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        base = self.rng.randint(995_000, 1_005_000)
        self.requests = [
            {"P": base + i * self.rng.randint(1, 997), "L": 6, "o": 2, "g": 4}
            for i in range(self.PLANS)
        ]

    def handle(self, request: dict[str, int]) -> tuple[int, int, int]:
        call = self.call
        impl = call(
            "schedule.implicit.build", registry.plan, "broadcast", storage="implicit", **request
        )
        report = call("analyze.chunked.lint", lint_implicit, impl)
        return request["P"], report.num_sends, len(report.errors)

    def check(self, outputs: list[Any]) -> int:
        return sum(out is None or out[1] != out[0] - 1 or out[2] != 0 for out in outputs)

    def bound_ratio(self) -> tuple[float, list[str]]:
        made = bound = 0
        for request in self.requests:
            params = LogPParams(**request)
            made += registry.plan("broadcast", params, storage="implicit").makespan
            bound += registry.lower_bound("broadcast", params)
        return made / bound, []

    def instrument(self, tracer: Tracer) -> None:
        super().instrument(tracer)
        tracer.wrap(ImplicitSchedule, "chunk_with_facts", "schedule.implicit.chunk")

    def layer_metrics(self, tracer: Tracer, outputs: list[Any]) -> dict[str, float]:
        layer = tracer.stat
        lint = layer("analyze.chunked.lint")
        chunk = layer("schedule.implicit.chunk")
        # one extra request outside the timed window: tracemalloc slows
        # every allocation, so it never runs during the traced passes
        impl = registry.plan("broadcast", storage="implicit", **self.requests[0])
        tracemalloc.start()
        try:
            lint_implicit(impl)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {
            "schedule.implicit.build_us": _median(layer("schedule.implicit.build").self_s, 1e6),
            "schedule.implicit.chunk_ms": _median(chunk.self_s),
            "analyze.chunked.lint_ms": _median(lint.self_s),
            "analyze.chunked.sends_per_s": sum(out[1] for out in outputs if out is not None)
            / (lint.total_s + chunk.total_s),
            "analyze.chunked.peak_traced_mb": peak / 2**20,
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ServeZipf, RunMp, ImplicitLint)
}
