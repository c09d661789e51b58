"""Tests for the latency-jitter robustness study."""

import numpy as np
import pytest

from repro.baselines.trees import baseline_broadcast
from repro.core.single_item import optimal_broadcast_schedule
from repro.experiments.robustness import (
    jittered_makespans,
    robustness_study,
    tree_structure,
)
from repro.params import LogPParams, postal
from repro.schedule.ops import Schedule, SendOp


class TestTreeStructure:
    def test_edges_cover_all_nonroot(self):
        s = optimal_broadcast_schedule(postal(P=9, L=3))
        edges = tree_structure(s)
        assert len(edges) == 8
        assert {e.child for e in edges} == set(range(1, 9))

    def test_ranks_count_per_parent_sends(self):
        s = optimal_broadcast_schedule(postal(P=9, L=3))
        edges = tree_structure(s)
        root_edges = [e for e in edges if e.parent == 0]
        assert [e.rank for e in root_edges] == list(range(len(root_edges)))

    def test_rejects_non_tree(self):
        s = Schedule(params=postal(P=3, L=2), sends=[SendOp(0, 0, 1), SendOp(3, 0, 1)])
        with pytest.raises(ValueError):
            tree_structure(s)


class TestJitteredMakespans:
    def test_zero_jitter_is_deterministic(self):
        params = LogPParams(P=8, L=6, o=2, g=4)
        spans = jittered_makespans(optimal_broadcast_schedule(params), 0.0, trials=16)
        assert np.all(spans == 24)

    def test_jitter_only_increases(self):
        params = postal(P=16, L=4)
        base = jittered_makespans(optimal_broadcast_schedule(params), 0.0, trials=8)
        noisy = jittered_makespans(optimal_broadcast_schedule(params), 0.5, trials=500)
        assert noisy.min() >= base[0]

    def test_reproducible_with_seed(self):
        s = optimal_broadcast_schedule(postal(P=8, L=3))
        a = jittered_makespans(s, 0.3, trials=64, seed=42)
        b = jittered_makespans(s, 0.3, trials=64, seed=42)
        assert np.array_equal(a, b)

    def test_binomial_deterministic_matches_schedule(self):
        params = LogPParams(P=8, L=6, o=2, g=4)
        s = baseline_broadcast("binomial", params)
        spans = jittered_makespans(s, 0.0, trials=4)
        assert np.all(spans == 30)


class TestStudy:
    def test_optimal_keeps_lead_at_moderate_jitter(self):
        rows = robustness_study(
            params=LogPParams(P=16, L=12, o=1, g=2),
            jitters=(0.0, 0.25),
            trials=800,
        )
        for row in rows:
            assert row["optimal_mean"] <= row["binomial_mean"]

    def test_jitter_column_monotone(self):
        rows = robustness_study(jitters=(0.0, 0.5), trials=400)
        assert rows[0]["optimal_mean"] <= rows[1]["optimal_mean"]
