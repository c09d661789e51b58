"""Tests for the experiments layer (figures, sweeps, ablations)."""

from repro.experiments.ablations import (
    buffered_destination_ablation,
    pruning_strategy_ablation,
    summation_tree_shape_ablation,
)
from repro.experiments.figures import (
    all_figures,
    fig1_single_item,
    fig2_continuous,
    fig3_digraph,
    fig5_buffered,
    fig6_summation,
)
from repro.experiments.sweeps import (
    broadcast_vs_baselines,
    combining_sweep,
    pt_recurrence_sweep,
    summation_capacity_sweep,
)


class TestFigures:
    def test_fig1_measured_values(self):
        r = fig1_single_item()
        assert r.measured["B(P)"] == 24
        assert "P0 @0" in r.text

    def test_fig2_measured_values(self):
        r = fig2_continuous()
        assert r.measured["item_delay"] == [10]
        assert r.measured["k8_completion"] == 17
        assert "H5" in " ".join(r.measured["measured_S7"])

    def test_fig3_digraph_text(self):
        r = fig3_digraph()
        assert r.measured["P_minus_1"] == 41
        assert "==>" in r.text

    def test_fig5_buffered(self):
        r = fig5_buffered()
        assert r.measured["completion"] == 24
        assert r.measured["buffer_peak"] <= 2

    def test_fig6_summation(self):
        r = fig6_summation()
        assert r.measured["n(t)"] == 79
        assert r.measured["verified_total"]

    def test_all_figures_runs(self):
        results = all_figures()
        assert [r.figure for r in results] == [
            f"Figure {i}" for i in range(1, 7)
        ]
        for r in results:
            assert r.text and r.measured


class TestSweeps:
    def test_pt_sweep_equality(self):
        for row in pt_recurrence_sweep(Ls=(2, 3), t_max=8):
            assert row["P(t)_tree"] == row["f_t"]

    def test_baseline_sweep_ordering(self):
        for row in broadcast_vs_baselines():
            assert row["optimal"] <= min(
                row["flat"], row["chain"], row["binary"], row["binomial"]
            )

    def test_combining_rows(self):
        for row in combining_sweep(Ls=(2, 3), extra=3):
            assert row["complete"] and row["invariant"]

    def test_summation_rows_dominate(self):
        for row in summation_capacity_sweep():
            assert row["optimal_n"] >= row["binary_reduction_n"]


class TestAblations:
    def test_pruning_always_finds_solution(self):
        rows = pruning_strategy_ablation(cases=((6, 2), (11, 3)))
        for row in rows:
            assert row["winner"] != "NONE"

    def test_buffered_strategies_both_complete(self):
        rows = buffered_destination_ablation(cases=((8, 6, 3),))
        row = rows[0]
        assert row["greedy_completion"] == row["round_robin_completion"] == row["bound"]
        assert row["greedy_buffer_peak"] <= row["round_robin_buffer_peak"]

    def test_summation_shape_rows(self):
        rows = summation_tree_shape_ablation()
        names = {row["tree"] for row in rows}
        assert {"optimal", "binomial", "chain"} <= names


class TestDotExport:
    def test_tree_dot(self):
        from repro.core.tree import optimal_tree
        from repro.params import postal
        from repro.viz.dot import tree_to_dot

        dot = tree_to_dot(optimal_tree(postal(P=5, L=2)))
        assert dot.startswith("digraph")
        assert dot.count("->") == 4  # P-1 edges
        assert "doublecircle" in dot  # the root

    def test_digraph_dot(self):
        from repro.core.kitem.blocks import block_transmission_digraph
        from repro.viz.dot import digraph_to_dot

        dot = digraph_to_dot(block_transmission_digraph(11, 3))
        assert "style=bold" in dot  # active edges
        assert 'label="src"' in dot or "label=\"src\"" in dot
