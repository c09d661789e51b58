"""The plan service (`repro.serve`): keys, cache tiers, batching, HTTP.

Covers the PR-7 acceptance properties:

* cache-key invariance — aliases and columnar/implicit storage twins that materialize byte-identically all
  resolve to one cached plan;
* ``plan_many`` with N duplicate keys plans exactly once
  (counter-asserted);
* the on-disk tier survives corruption (truncated / garbage entries
  fall back to replanning and are rewritten, never crash);
* hypothesis round trip: ``plan_many`` over any request mix serves the
  same bytes as one-at-a-time ``plan``.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.params import LogPParams
from repro.registry import canonical_request
from repro.schedule.serialize import schedule_from_json, schedule_to_json
from repro.serve import (
    DiskCache,
    LRUCache,
    PlanService,
    content_hash,
    core_cache_stats,
    plan_content,
    request_key,
    request_key_hash,
    serve_http,
)

FIG1 = {"P": 8, "L": 6, "o": 2, "g": 4}


# -- request keys ---------------------------------------------------------


class TestRequestKeys:
    def test_alias_and_canonical_names_share_a_key(self):
        for alias, canonical, extra in [
            ("bcast", "broadcast", {"o": 2, "g": 4}),
            ("single-item", "broadcast", {"o": 2, "g": 4}),
            ("a2a", "all-to-all", {"o": 2, "g": 4}),
            ("sum", "summation", {"o": 2, "g": 4, "n": 32}),
            ("reduce", "reduction", {"o": 2, "g": 4}),
            ("combining", "allreduce", {}),  # postal model only
        ]:
            left = canonical_request(alias, P=8, L=6, **extra)
            right = canonical_request(canonical, P=8, L=6, **extra)
            assert left == right
            assert request_key(left) == request_key(right)

    def test_params_object_and_keywords_share_a_key(self):
        left = canonical_request("broadcast", LogPParams(**FIG1))
        right = canonical_request("broadcast", **FIG1)
        assert request_key(left) == request_key(right)

    def test_summation_n_and_equivalent_t_share_a_key(self):
        # canonicalization resolves the n/t pair, so the two spellings
        # of the same instance are one cache entry
        by_n = canonical_request("summation", P=8, L=5, o=2, g=4, n=79)
        t = dict(by_n.extra)["t"]
        by_t = canonical_request("summation", P=8, L=5, o=2, g=4, t=t)
        assert request_key(by_n) == request_key(by_t)

    def test_implicit_family_defaults_into_the_key(self):
        default = canonical_request("broadcast", storage="implicit", **FIG1)
        explicit = canonical_request(
            "broadcast", storage="implicit", family="optimal", **FIG1
        )
        assert request_key(default) == request_key(explicit)
        binomial = canonical_request(
            "broadcast", storage="implicit", family="binomial", **FIG1
        )
        assert request_key(binomial) != request_key(default)

    def test_storage_twins_share_a_content_address(self, tmp_path):
        # at small P the universal tree and its closed-form twin emit
        # byte-identical materialized plans; distinct request keys must
        # then converge on one content hash and one stored blob
        service = PlanService(capacity=8, directory=tmp_path)
        columnar = canonical_request("broadcast", P=4, L=3)
        implicit = canonical_request("broadcast", P=4, L=3, storage="implicit")
        assert request_key(columnar) != request_key(implicit)
        left = service.plan_json(columnar)
        right = service.plan_json(implicit)
        assert left == right
        assert content_hash(left) == content_hash(right)
        stats = service.stats()["disk"]
        assert stats["index_entries"] == 2
        assert stats["blobs"] == 1

    def test_storage_twins_share_a_blob_beyond_tiny_P(self, tmp_path):
        # the columnar builder and the implicit family read one labeling
        # of the universal tree, so the twins converge at every P
        service = PlanService(capacity=8, directory=tmp_path)
        machine = {"P": 300, "L": 6, "o": 2, "g": 4}
        columnar = canonical_request("broadcast", **machine)
        implicit = canonical_request("broadcast", storage="implicit", **machine)
        assert service.plan_json(columnar) == service.plan_json(implicit)
        stats = service.stats()["disk"]
        assert stats["index_entries"] == 2
        assert stats["blobs"] == 1

    def test_usage_errors_are_one_line_valueerrors(self):
        with pytest.raises(ValueError, match="unknown collective"):
            canonical_request("nope", P=4, L=2)
        with pytest.raises(ValueError, match="machine parameters missing"):
            canonical_request("broadcast")
        with pytest.raises(ValueError, match="storage must be"):
            canonical_request("broadcast", P=4, L=2, storage="weird")
        with pytest.raises(ValueError, match="no implicit builder"):
            canonical_request("all-to-all", P=4, L=2, storage="implicit")
        with pytest.raises(ValueError, match="family= only applies"):
            canonical_request("broadcast", P=4, L=2, family="optimal")
        with pytest.raises(ValueError, match="unknown implicit family"):
            canonical_request(
                "broadcast", P=4, L=2, storage="implicit", family="x"
            )
        with pytest.raises(ValueError, match="must be >= 1"):
            canonical_request("kitem", P=10, L=3, k=0)


# -- cache tiers ----------------------------------------------------------


class TestLRUCache:
    def test_bounded_with_eviction_counters(self):
        lru = LRUCache(capacity=2)
        lru.put("a", "1")
        lru.put("b", "2")
        assert lru.get("a") == "1"  # refresh a
        lru.put("c", "3")  # evicts b (least recent)
        assert lru.get("b") is None
        assert lru.get("a") == "1"
        assert lru.get("c") == "3"
        stats = lru.stats()
        assert stats["evictions"] == 1
        assert stats["size"] == 2
        assert stats["hits"] == 3
        assert stats["misses"] == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            LRUCache(capacity=0)


class TestDiskCache:
    def request(self):
        return canonical_request("broadcast", **FIG1)

    def entry(self):
        req = self.request()
        return request_key(req), request_key_hash(req), plan_content(
            registry.plan("broadcast", **FIG1)
        )

    def test_round_trip_and_blob_sharing(self, tmp_path):
        disk = DiskCache(tmp_path)
        key, key_hash, content = self.entry()
        disk.put(key, key_hash, content)
        assert disk.get(key, key_hash) == content
        # a second key for the same content shares the blob
        disk.put("other-key", "0" * 64, content)
        assert disk.stats()["blobs"] == 1
        assert disk.stats()["index_entries"] == 2

    def test_truncated_blob_is_a_miss_not_a_crash(self, tmp_path):
        disk = DiskCache(tmp_path)
        key, key_hash, content = self.entry()
        blob_hash = disk.put(key, key_hash, content)
        blob = disk.blob_dir / f"{blob_hash}.json"
        blob.write_text(content[: len(content) // 2])
        assert disk.get(key, key_hash) is None
        assert disk.stats()["corrupt_reads"] >= 1
        # rewrite replaces the corrupt copy
        disk.put(key, key_hash, content)
        assert disk.get(key, key_hash) == content

    def test_non_utf8_blob_is_a_miss_not_a_crash(self, tmp_path):
        req = {"collective": "broadcast", "P": 8, "L": 6, "o": 2, "g": 4}
        first = PlanService(directory=tmp_path).plan_json(req)
        (blob,) = (tmp_path / "blobs").glob("*.json")
        blob.write_bytes(b"\xff\xfe garbage")
        fresh = PlanService(directory=tmp_path)
        assert fresh.plan_json(req) == first
        assert fresh.planned == 1
        assert fresh.cache.disk.stats()["corrupt_reads"] >= 1
        # the replan rewrote the blob for the next cold start
        assert blob.read_text() == first
        healed = PlanService(directory=tmp_path)
        assert healed.plan_json(req) == first
        assert healed.planned == 0

    def test_garbage_index_is_a_miss_not_a_crash(self, tmp_path):
        disk = DiskCache(tmp_path)
        key, key_hash, content = self.entry()
        disk.put(key, key_hash, content)
        (disk.index_dir / f"{key_hash}.json").write_text("{not json")
        assert disk.get(key, key_hash) is None
        assert disk.stats()["corrupt_reads"] >= 1

    def test_index_key_mismatch_is_rejected(self, tmp_path):
        # a sha collision (or a file copied between cache dirs) must not
        # serve another request's plan
        disk = DiskCache(tmp_path)
        key, key_hash, content = self.entry()
        disk.put(key, key_hash, content)
        assert disk.get("a different key", key_hash) is None

    def test_service_replans_and_rewrites_through_corruption(self, tmp_path):
        service = PlanService(capacity=4, directory=tmp_path)
        req = {"collective": "broadcast", **FIG1}
        first = service.plan_json(req)
        disk = service.cache.disk
        # corrupt every stored file, then drop the memory tier
        for path in list(disk.blob_dir.glob("*.json")):
            path.write_text("garbage" + path.read_text()[:10])
        fresh = PlanService(capacity=4, directory=tmp_path)
        second = fresh.plan_json(req)
        assert second == first
        assert fresh.planned == 1  # replanned, served correctly
        assert fresh.cache.disk.stats()["corrupt_reads"] >= 1
        # and the rewrite healed the cache for the next cold start
        healed = PlanService(capacity=4, directory=tmp_path)
        assert healed.plan_json(req) == first
        assert healed.planned == 0

    def test_disk_tier_survives_restarts(self, tmp_path):
        service = PlanService(capacity=4, directory=tmp_path)
        req = {"collective": "summation", "P": 8, "L": 5, "o": 2, "g": 4,
               "n": 79}
        content = service.plan_json(req)
        restarted = PlanService(capacity=4, directory=tmp_path)
        assert restarted.plan_json(req) == content
        assert restarted.planned == 0
        assert restarted.cache.disk.stats()["hits"] == 1


# -- the service ----------------------------------------------------------


class TestPlanService:
    def test_hit_serves_identical_bytes_without_replanning(self):
        service = PlanService(capacity=8)
        req = {"collective": "bcast", **FIG1}
        first = service.plan_json(req)
        second = service.plan_json(req)
        assert first == second
        assert service.planned == 1
        assert service.requests == 2
        assert service.stats()["memory"]["hits"] == 1

    def test_plan_many_duplicates_plan_exactly_once(self):
        service = PlanService(capacity=8)
        req = {"collective": "broadcast", **FIG1}
        results = service.plan_many_json([req] * 25)
        assert len(results) == 25
        assert len(set(results)) == 1
        assert service.planned == 1  # the acceptance counter
        assert service.deduped == 24

    def test_plan_many_preserves_order(self):
        service = PlanService(capacity=8)
        reqs = [
            {"collective": "broadcast", "P": P, "L": 4, "o": 1, "g": 2}
            for P in (2, 5, 3, 5, 2)
        ]
        results = service.plan_many_json(reqs)
        for req, content in zip(reqs, results):
            assert json.loads(content)["params"]["P"] == req["P"]

    def test_served_content_matches_direct_planning(self):
        service = PlanService(capacity=8)
        for spec in registry.specs():
            case = dict(spec.sample_cases[0]) if spec.sample_cases else None
            if case is None:
                continue
            served = service.plan_json({"collective": spec.name, **case})
            direct = plan_content(registry.plan(spec.name, **case))
            assert served == direct, spec.name

    def test_served_plans_deserialize_and_lint_clean(self):
        from repro.analyze import lint_schedule

        service = PlanService(capacity=8)
        content = service.plan_json({"collective": "bcast", **FIG1})
        schedule = schedule_from_json(content)
        assert lint_schedule(schedule).max_severity is None
        # canonical content is stable under a serialize round trip
        assert plan_content(schedule) == content

    def test_stats_exposes_bounded_core_caches(self):
        stats = PlanService(capacity=4).stats()
        core = stats["core_caches"]
        assert set(core) == {
            "fib.prefix_sums",
            "continuous.find_base_cases",
            "continuous.solve_cached",
            "implicit.universal_runs",
        }
        for info in core.values():
            assert info["maxsize"] is not None  # bounded: PR-7 satellite
        assert core_cache_stats()["fib.prefix_sums"]["maxsize"] == 1024

    @given(
        requests=st.lists(
            st.one_of(
                st.builds(
                    lambda P, L: {"collective": "broadcast", "P": P, "L": L},
                    st.integers(2, 24),
                    st.integers(1, 6),
                ),
                st.builds(
                    lambda P, L: {"collective": "reduce", "P": P, "L": L},
                    st.integers(2, 16),
                    st.integers(1, 4),
                ),
                st.builds(
                    lambda P: {"collective": "a2a", "P": P, "L": 3},
                    st.integers(2, 10),
                ),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_plan_many_equals_per_request_plan(self, requests):
        batched = PlanService(capacity=64).plan_many_json(requests)
        single = PlanService(capacity=64)
        assert batched == [single.plan_json(r) for r in requests]


# -- cached plans against the registry -----------------------------------


class TestRegistryCacheWiring:
    def test_plan_routes_through_the_cache(self):
        service = PlanService(capacity=8)
        first = schedule_from_json(service.plan("broadcast", **FIG1))
        again = schedule_from_json(service.plan("bcast", **FIG1))
        assert service.planned == 1
        assert service.requests == 2
        assert schedule_to_json(first) == schedule_to_json(again)
        direct = registry.plan("broadcast", **FIG1)
        assert plan_content(first) == plan_content(direct)
        # serialization orders sends canonically; compare as a multiset
        as_tuples = lambda s: sorted(  # noqa: E731
            (op.time, op.src, op.dst, op.item) for op in s.sends
        )
        assert as_tuples(first) == as_tuples(direct)


# -- HTTP front end -------------------------------------------------------


@pytest.fixture
def running_server():
    server = serve_http(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def _post(base: str, path: str, doc: dict) -> dict:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


class TestHTTP:
    def test_plan_endpoint_serves_a_loadable_plan(self, running_server):
        base, server = running_server
        doc = _post(base, "/plan", {"collective": "bcast", **FIG1})
        assert doc["content_hash"] == content_hash(
            json.dumps(doc["plan"], sort_keys=True, separators=(",", ":"))
        )
        schedule = schedule_from_json(json.dumps(doc["plan"]))
        assert schedule.params == LogPParams(**FIG1)
        assert json.loads(doc["key"])["collective"] == "broadcast"

    def test_plan_many_endpoint_plans_duplicates_once(self, running_server):
        base, server = running_server
        batch = [{"collective": "broadcast", **FIG1}] * 8
        doc = _post(base, "/plan_many", {"requests": batch})
        assert doc["count"] == 8
        assert len({json.dumps(p) for p in doc["plans"]}) == 1
        assert server.service.planned == 1

    def test_stats_endpoint_reports_counters(self, running_server):
        base, _ = running_server
        _post(base, "/plan", {"collective": "bcast", **FIG1})
        _post(base, "/plan", {"collective": "bcast", **FIG1})
        with urllib.request.urlopen(base + "/stats") as response:
            stats = json.loads(response.read())
        assert stats["requests"] == 2
        assert stats["planned"] == 1
        assert stats["memory"]["hits"] == 1
        assert "fib.prefix_sums" in stats["core_caches"]

    def test_bad_requests_get_one_line_400s(self, running_server):
        base, _ = running_server
        for path, doc, fragment in [
            ("/plan", {"collective": "nope", "P": 2, "L": 2}, "unknown collective"),
            ("/plan", {"P": 2, "L": 2}, "collective"),
            ("/plan", {"collective": "broadcast"}, "machine parameters"),
            ("/plan_many", {"oops": []}, "requests"),
        ]:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(base, path, doc)
            assert excinfo.value.code == 400
            assert fragment in json.loads(excinfo.value.read())["error"]

    def test_malformed_json_body_is_a_400(self, running_server):
        base, _ = running_server
        request = urllib.request.Request(
            base + "/plan", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_unknown_paths_are_404(self, running_server):
        base, _ = running_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(base + "/nope")
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/nope", {})
        assert excinfo.value.code == 404


# -- bench satellites ------------------------------------------------------


class TestBenchBaseline:
    def test_picks_the_numerically_newest(self, tmp_path):
        from benchmarks.harness import latest_baseline

        for name in ("BENCH_PR2.json", "BENCH_PR10.json", "BENCH_PR7.json"):
            (tmp_path / name).write_text("{}")
        (tmp_path / "BENCH_NIGHTLY.json").write_text("{}")
        assert latest_baseline(tmp_path) == "BENCH_PR10.json"

    def test_empty_directory_yields_none(self, tmp_path):
        from benchmarks.harness import latest_baseline

        assert latest_baseline(tmp_path) is None

    def test_repo_checkout_resolves_to_a_baseline(self):
        from benchmarks.harness import latest_baseline

        name = latest_baseline(Path(__file__).resolve().parent.parent)
        assert name is not None and name.startswith("BENCH_PR")

    def test_falls_back_to_the_repo_root(self, tmp_path, monkeypatch):
        from benchmarks.harness import latest_baseline

        monkeypatch.chdir(tmp_path)  # no BENCH_PR*.json here
        assert latest_baseline() == latest_baseline(
            Path(__file__).resolve().parent.parent
        )

    def test_serve_request_points_are_canonicalizable(self):
        from repro.bench import serve_request_points
        from repro.serve import request_from_mapping

        points = serve_request_points(limit=200)
        assert len(points) == 200
        keys = {request_key(request_from_mapping(p)) for p in points}
        assert len(keys) == 200  # all distinct
