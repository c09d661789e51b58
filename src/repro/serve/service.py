"""The plan service: cached, batched planning behind one object.

:class:`PlanService` wraps a :class:`~repro.serve.cache.PlanCache` and
the registry's builders:

* :meth:`PlanService.plan_json` — one request in, canonical plan JSON
  out, cache consulted first;
* :meth:`PlanService.plan_many_json` — a batch in, results fanned back
  out in order.  Duplicate keys inside the batch are planned (and
  cache-missed) exactly **once**: the batch is deduplicated on canonical
  keys before any planning happens, which is what makes the service's
  ``planned`` counter an exact build count rather than a request count;
* :meth:`PlanService.stats` — cache hit/miss/eviction counters plus the
  ``cache_info()`` of the bounded ``functools.lru_cache``\\ s in the
  planning core, so a long-running server's memory ceiling is
  observable, not assumed.

Everything returns *strings* (canonical plan JSON): the HTTP front end
serves them verbatim, and the hot path never deserializes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.registry import PlanRequest, canonical_request
from repro.serve.cache import PlanCache
from repro.serve.keys import (
    build_plan,
    content_hash,
    request_from_mapping,
    request_key,
    request_key_hash,
)

__all__ = ["PlanService", "core_cache_stats"]

RequestLike = PlanRequest | Mapping[str, Any]


def core_cache_stats() -> dict[str, dict[str, int | None]]:
    """``cache_info()`` of the planning core's bounded lru_caches.

    One entry per memoized closed form, so ``/stats`` shows exactly how
    much process memory the planning core's memo tables can pin.
    """
    from repro.core.continuous import assignment
    from repro.core.fib import _prefix_sums
    from repro.schedule.implicit import _universal_runs

    # heterogeneous lru_cache wrappers; only cache_info() is used
    caches: dict[str, Any] = {
        "fib.prefix_sums": _prefix_sums,
        "continuous.find_base_cases": assignment.find_base_cases,
        "continuous.solve_cached": assignment._solve_cached,
        "implicit.universal_runs": _universal_runs,
    }
    out: dict[str, dict[str, int | None]] = {}
    for name, fn in caches.items():
        info = fn.cache_info()
        out[name] = {
            "hits": info.hits,
            "misses": info.misses,
            "maxsize": info.maxsize,  # int | None; None would mean unbounded
            "currsize": info.currsize,
        }
    return out


class PlanService:
    """Cached, batched planning over the collective registry."""

    def __init__(
        self,
        capacity: int = 1024,
        directory: str | Path | None = None,
        cache: PlanCache | None = None,
    ) -> None:
        self.cache = cache if cache is not None else PlanCache(
            capacity=capacity, directory=directory
        )
        self._lock = threading.Lock()
        self.requests = 0
        self.planned = 0
        self.deduped = 0
        # Memoized canonicalization: raw request form -> (request, key,
        # key hash).  Canonicalizing (alias lookup, domain validation,
        # canonical-JSON dump) costs more than the LRU hit it guards, so
        # a hot mix would otherwise spend most of its time re-deriving
        # identical keys.  Keyed by the *raw* form — alias and canonical
        # spellings memoize separately but resolve to one plan key.
        self._keys: OrderedDict[Any, tuple[PlanRequest, str, str]] = (
            OrderedDict()
        )
        self._keys_capacity = 4 * self.cache.memory.capacity

    # -- request canonicalization -----------------------------------------

    def _resolve(self, request: RequestLike) -> PlanRequest:
        if isinstance(request, PlanRequest):
            return request
        return request_from_mapping(request)

    def _resolve_key(self, request: RequestLike) -> tuple[PlanRequest, str, str]:
        """Canonicalize, memoized: ``(request, key, key_hash)``."""
        memo_key: Any
        if isinstance(request, PlanRequest):
            memo_key = request
        else:
            try:
                memo_key = tuple(sorted(request.items()))
                hash(memo_key)
            except TypeError:
                memo_key = None  # unhashable values: canonicalize fresh
        if memo_key is not None:
            with self._lock:
                hit = self._keys.get(memo_key)
                if hit is not None:
                    self._keys.move_to_end(memo_key)
                    return hit
        req = self._resolve(request)
        key = request_key(req)
        resolved = (req, key, request_key_hash(req))
        if memo_key is not None:
            with self._lock:
                self._keys[memo_key] = resolved
                if len(self._keys) > self._keys_capacity:
                    self._keys.popitem(last=False)
        return resolved

    # -- single requests ---------------------------------------------------

    def plan_json(self, request: RequestLike) -> str:
        """Canonical plan JSON for one request, cache consulted first."""
        req, key, key_hash = self._resolve_key(request)
        with self._lock:
            self.requests += 1
        content = self.cache.lookup(key, key_hash)
        if content is None:
            content = build_plan(req)
            with self._lock:
                self.planned += 1
            self.cache.store(key, key_hash, content)
        return content

    def plan(
        self,
        name: str,
        params: Any = None,
        **kwargs: Any,
    ) -> str:
        """Convenience: canonicalize keyword arguments, then plan."""
        return self.plan_json(canonical_request(name, params, **kwargs))

    # -- batches -----------------------------------------------------------

    def plan_many_json(self, requests: Iterable[RequestLike]) -> list[str]:
        """Plan a batch; duplicate keys are planned at most once.

        The batch is deduplicated on canonical keys *before* planning:
        N requests with the same key cost one cache lookup and — on a
        miss — one build, then fan back out to all N slots in order.
        """
        resolved = [self._resolve_key(r) for r in requests]
        unique: dict[str, PlanRequest] = {}
        for req, key, _ in resolved:
            if key not in unique:
                unique[key] = req
        with self._lock:
            # plan_json below counts the unique keys; count the collapsed
            # duplicates here so `requests` stays the incoming total
            self.deduped += len(resolved) - len(unique)
            self.requests += len(resolved) - len(unique)
        results = {key: self.plan_json(req) for key, req in unique.items()}
        return [results[key] for _, key, _ in resolved]

    # -- observability -----------------------------------------------------

    def describe(self, request: RequestLike) -> dict[str, str]:
        """The request's canonical key and (planned) content hash."""
        req = self._resolve(request)
        return {
            "key": request_key(req),
            "key_hash": request_key_hash(req),
            "content_hash": content_hash(self.plan_json(req)),
        }

    def stats(self) -> dict[str, Any]:
        with self._lock:
            counters = {
                "requests": self.requests,
                "planned": self.planned,
                "deduped": self.deduped,
            }
        return {
            **counters,
            **self.cache.stats(),
            "core_caches": core_cache_stats(),
        }
