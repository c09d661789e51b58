"""Unit tests for the static lint engine (:mod:`repro.analyze`)."""

import json

import pytest

from repro.analyze import (
    MAX_EMITTED_PER_RULE,
    RULES,
    LintContext,
    Severity,
    Workload,
    assert_lint_clean,
    detect_workload,
    get_rule,
    lint_schedule,
    render_text,
    resolve_rules,
    sarif_json,
    to_sarif,
)
from repro.core.kitem.single_sending import single_sending_schedule
from repro.core.single_item import optimal_broadcast_schedule
from repro.params import LogPParams, postal
from repro.schedule.ops import Schedule, SendOp

FIG1 = LogPParams(P=8, L=6, o=2, g=4)


def bcast(*sends, P=4, L=2, initial=None):
    """A small postal schedule holding item 0 at proc 0 by default."""
    return Schedule(
        params=postal(P, L),
        sends=[SendOp(*s) for s in sends],
        initial=initial if initial is not None else {0: {0}},
    )


class TestWorkloadDetection:
    def test_empty(self):
        # NB: a falsy initial dict re-defaults to {0: {0}} in Schedule,
        # so "truly empty" is spelled with an explicit empty holding
        sched = Schedule(postal(4, 2), sends=[], initial={0: set()})
        assert detect_workload(sched) == Workload.EMPTY

    def test_broadcast(self):
        assert detect_workload(bcast()) == Workload.BROADCAST

    def test_kitem(self):
        sched = bcast(initial={0: {0, 1, 2}})
        assert detect_workload(sched) == Workload.KITEM

    def test_scattered(self):
        sched = bcast(initial={0: {"a"}, 1: {"b"}, 2: {"c"}})
        assert detect_workload(sched) == Workload.SCATTERED

    def test_overlapping_placement_is_unknown(self):
        sched = bcast(initial={0: {0}, 1: {0}})
        assert detect_workload(sched) == Workload.UNKNOWN


class TestRuleRegistry:
    def test_ids_are_unique_and_sorted(self):
        ids = [rule.id for rule in RULES]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_get_rule(self):
        assert get_rule("SCHED001").name == "non-causal"
        with pytest.raises(KeyError):
            get_rule("SCHED999")

    def test_resolve_select_by_id_and_name(self):
        rules = resolve_rules(select=["dead-send", "SCHED001"])
        assert [r.id for r in rules] == ["SCHED001", "SCHED004"]

    def test_resolve_ignore(self):
        rules = resolve_rules(ignore=["idle-slack"])
        assert "SCHED007" not in [r.id for r in rules]

    def test_resolve_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            resolve_rules(select=["SCHED042"])


class TestCleanSchedules:
    def test_fig1_broadcast_is_clean(self):
        report = lint_schedule(optimal_broadcast_schedule(FIG1))
        assert len(report) == 0
        assert report.max_severity is None
        assert report.workload == Workload.BROADCAST
        assert "SCHED001" in report.rules_run

    def test_kitem_builder_is_clean(self):
        report = lint_schedule(single_sending_schedule(8, 10, 3))
        assert len(report) == 0
        assert report.workload == Workload.KITEM

    def test_empty_schedule_runs_no_rules(self):
        report = lint_schedule(Schedule(postal(4, 2), sends=[], initial={0: set()}))
        assert report.rules_run == []
        assert len(report) == 0

    def test_schedule_lint_method(self):
        report = optimal_broadcast_schedule(FIG1).lint()
        assert report.max_severity is None


class TestErrorRules:
    def test_sched001_never_held(self):
        report = lint_schedule(bcast((0, 1, 2, 0)))  # proc 1 never holds item 0
        assert "SCHED001" in report.rule_ids()
        (diag,) = [d for d in report if d.rule == "SCHED001"]
        assert diag.severity is Severity.ERROR
        assert diag.data["holds_from"] is None

    def test_sched001_held_too_late(self):
        # 0->1 arrives at t=2; 1 forwards at t=1, one cycle too early
        report = lint_schedule(bcast((0, 0, 1, 0), (1, 1, 2, 0)))
        (diag,) = [d for d in report if d.rule == "SCHED001"]
        assert diag.data["holds_from"] == 2
        assert "t>=2" in diag.fixit

    def test_sched002_self_send(self):
        report = lint_schedule(bcast((0, 0, 0, 0)))
        assert "SCHED002" in report.rule_ids()

    def test_sched003_negative_time(self):
        report = lint_schedule(bcast((-1, 0, 1, 0)))
        assert "SCHED003" in report.rule_ids()

    def test_assert_lint_clean_raises(self):
        with pytest.raises(ValueError, match="fails lint"):
            assert_lint_clean(bcast((0, 1, 2, 0)))

    def test_assert_lint_clean_passes_and_returns_report(self):
        report = assert_lint_clean(optimal_broadcast_schedule(FIG1))
        assert report.num_sends == 7


class TestWarningRules:
    def test_sched004_dead_send(self):
        # 2 holds item 0 initially, so 0->2 informs nobody
        sched = bcast((0, 0, 1, 0), (2, 0, 2, 0), initial={0: {0}, 2: {0}})
        report = lint_schedule(sched)
        assert "SCHED004" in report.rule_ids()

    def test_sched005_duplicate_delivery(self):
        # proc 1 is delivered item 0 twice (second copy also a dead send)
        report = lint_schedule(bcast((0, 0, 1, 0), (4, 0, 1, 0)))
        ids = report.rule_ids()
        assert "SCHED005" in ids
        assert "SCHED004" in ids

    def test_sched008_broadcast_gap(self):
        # P=2 postal L=2: bound is 2, this completes in 5
        report = lint_schedule(bcast((0, 0, 1, 0), P=2), select=["SCHED008"])
        assert report.rule_ids() == []  # send at 0 arrives at 2 = bound
        late = lint_schedule(bcast((3, 0, 1, 0), P=2), select=["SCHED008"])
        assert late.rule_ids() == []  # shift-invariant: still 2 cycles
        slow = bcast((0, 0, 1, 0), (5, 0, 2, 0), P=3, L=2)  # B(3)=3, takes 7
        gap = lint_schedule(slow, select=["SCHED008"])
        (diag,) = list(gap)
        assert diag.data == {"makespan": 7, "bound": 3, "gap": 4}

    def test_sched010_coverage(self):
        # proc 2 participates (it sends, acausally) but never holds item 0
        report = lint_schedule(bcast((0, 0, 1, 0), (0, 2, 1, 1)))
        assert "SCHED010" in report.rule_ids()


class TestInfoRules:
    def test_sched006_source_resends(self):
        # item 0 leaves the source twice; item 1 goes out once and is relayed
        sched = bcast(
            (0, 0, 1, 0),
            (1, 0, 2, 0),
            (2, 0, 1, 1),
            (4, 1, 2, 1),
            initial={0: {0, 1}},
        )
        report = lint_schedule(sched, select=["single-sending"])
        (diag,) = list(report)
        assert diag.severity is Severity.INFO
        assert diag.data["times_sent"] == 2

    def test_sched007_idle_slack(self):
        # the forward at t=9 could have happened at t=2
        report = lint_schedule(
            bcast((0, 0, 1, 0), (9, 1, 2, 0)), select=["idle-slack"]
        )
        (diag,) = list(report)
        assert diag.data["max_slack"] == 7

    def test_sched007_clean_on_tight_chain(self):
        report = lint_schedule(
            bcast((0, 0, 1, 0), (2, 1, 2, 0)), select=["idle-slack"]
        )
        assert len(report) == 0

    def test_sched009_endgame_repeat(self):
        # source's first k=2 sends repeat item 0 before item 1 ever goes out
        sched = bcast(
            (0, 0, 1, 0),
            (1, 0, 2, 0),
            (2, 0, 1, 1),
            (3, 0, 2, 1),
            initial={0: {0, 1}},
        )
        report = lint_schedule(sched, select=["endgame-structure"])
        (diag,) = list(report)
        assert diag.data == {"k": 2, "distinct_in_prefix": 1}


class TestCapping:
    def test_emission_capped_totals_uncapped(self):
        n = MAX_EMITTED_PER_RULE + 10
        sched = bcast(*[(t, 0, 0, 0) for t in range(0, 2 * n, 2)])
        report = lint_schedule(sched, select=["self-send"])
        assert len(report) == MAX_EMITTED_PER_RULE
        assert report.rule_totals["SCHED002"] == n
        assert report.count(Severity.ERROR) == n


class TestReporting:
    def test_render_text_clean(self):
        text = render_text(lint_schedule(optimal_broadcast_schedule(FIG1)))
        assert "summary: 0 errors, 0 warnings, 0 info" in text

    def test_render_text_verbose_includes_fixit(self):
        report = lint_schedule(bcast((0, 1, 2, 0)))
        text = render_text(report, verbose=True)
        assert "SCHED001 error:" in text
        assert "fix:" in text

    def test_sarif_shape(self):
        report = lint_schedule(bcast((0, 1, 2, 0)))
        doc = to_sarif(report)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-schedule-lint"
        rule_meta = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rule_meta == set(report.rules_run)
        result = next(
            r for r in run["results"] if r["ruleId"] == "SCHED001"
        )
        assert result["level"] == "error"
        locs = result["locations"][0]["logicalLocations"]
        assert locs[0]["name"].startswith("send[")

    def test_sarif_json_round_trips(self):
        report = lint_schedule(optimal_broadcast_schedule(FIG1))
        doc = json.loads(sarif_json(report))
        assert doc["runs"][0]["results"] == []


class TestZeroCopy:
    def test_array_backed_schedule_never_materializes(self):
        from repro.core.all_to_all import all_to_all_schedule

        sched = all_to_all_schedule(postal(32, 4))
        assert sched.is_array_backed
        report = lint_schedule(sched)
        assert sched.is_array_backed  # lint never touched .sends
        assert report.max_severity is None


class TestContextInternals:
    def test_participants_tolerate_processor_gaps(self):
        sched = bcast((0, 0, 5, 0), (2, 5, 9, 0), P=10)
        ctx = LintContext(sched)
        assert ctx.participants.tolist() == [0, 5, 9]

    def test_makespan_is_shift_invariant(self):
        a = bcast((0, 0, 1, 0), (2, 1, 2, 0))
        b = bcast((100, 0, 1, 0), (102, 1, 2, 0))
        assert LintContext(a).makespan == LintContext(b).makespan
