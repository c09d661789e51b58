"""Tests for the verified pass-pipeline framework (``repro.passes``).

Four tiers:

* registry + pipeline grammar — names resolve, bad text fails loudly;
* manager semantics — records, differential verification (pre-existing
  corpus errors don't fail, *introduced* errors do), makespan invariant;
* normalization passes — canonicalize idempotence/JSON-invariance,
  prune-dead-sends clears SCHED004 in one application, compact-time
  reclaims idle cycles without breaking legality;
* oracle twins — every pass byte-identical between its objects oracle
  (``tests/oracles/transform.py``) and its columnar kernel (hypothesis
  over builder schedules in both storage modes), plus the transform
  round-trips (double reverse, restrict + remap commutation);
* local computations — passes carry ``Schedule.computes`` or refuse
  the schedule loudly.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze import lint_schedule
from repro.core.single_item import optimal_broadcast_schedule
from repro.params import LogPParams, postal
from repro.passes import (
    PassManager,
    PassVerificationError,
    ReversePass,
    SchedulePass,
    format_pipeline,
    get_pass_cls,
    get_pass_spec,
    make_pass,
    parse_pipeline,
    pass_names,
    register_pass,
    run_pipeline,
)
from repro.registry import completion, plan
from repro.schedule.ops import Schedule, SendOp
from repro.schedule.serialize import load_schedule, schedule_to_json
from repro.schedule.transform import remap, restrict, reverse, shift
from repro.sim.validate import replay

from tests.oracles.builders import REGISTRY_ORACLES
from tests.oracles.transform import run_pass_objects

CORPUS = Path(__file__).parent / "data" / "lint_corpus"
FIG1 = LogPParams(P=8, L=6, o=2, g=4)
SETTINGS = settings(max_examples=20, deadline=None)

ALL_PASSES = (
    "shift",
    "remap",
    "reverse",
    "concat",
    "restrict",
    "canonicalize",
    "prune-dead-sends",
    "compact-time",
)


@st.composite
def builder_schedules(draw):
    """A legal builder schedule in either storage mode.

    Object-backed twins of the array-backed builders come from the
    per-send oracles in ``tests/oracles/builders.py``.
    """
    kind = draw(st.sampled_from(["bcast", "a2a", "kitem"]))
    build = plan
    if draw(st.booleans()):
        build = lambda name, params: REGISTRY_ORACLES[name](params)  # noqa: E731
    if kind == "bcast":
        P = draw(st.integers(2, 12))
        L = draw(st.integers(1, 5))
        o = draw(st.integers(0, 2))
        g = draw(st.integers(max(1, o), 3))
        return build("broadcast", LogPParams(P=P, L=L, o=o, g=g))
    if kind == "a2a":
        P = draw(st.integers(2, 10))
        return build("all-to-all", postal(P=P, L=draw(st.integers(1, 4))))
    P = draw(st.integers(2, 8))
    # the kitem builder has no columnar variant; it always yields objects
    return plan(
        "kitem", postal(P=P, L=draw(st.integers(1, 3))), k=draw(st.integers(1, 4))
    )


class TestRegistry:
    def test_all_builtin_passes_registered(self):
        assert set(ALL_PASSES) <= set(pass_names())

    def test_unknown_pass_raises_with_known_list(self):
        with pytest.raises(ValueError, match="unknown pass 'bogus'.*canonicalize"):
            get_pass_cls("bogus")

    def test_duplicate_registration_rejected(self):
        cls = get_pass_cls("shift")
        with pytest.raises(ValueError, match="already registered"):
            register_pass(cls)

    def test_make_pass_reports_bad_params_as_value_error(self):
        with pytest.raises(ValueError, match="shift"):
            make_pass("shift", bogus_param=1)

    def test_specs_carry_declared_invariants(self):
        assert get_pass_spec("shift").preserves_completion
        assert not get_pass_spec("compact-time").preserves_completion
        assert all(get_pass_spec(n).preserves_legality for n in ALL_PASSES)


class TestPipelineParser:
    def test_parse_and_format_round_trip(self):
        text = "shift{offset=5},remap{perm=reverse},canonicalize"
        passes = parse_pipeline(text)
        assert [p.name for p in passes] == ["shift", "remap", "canonicalize"]
        assert passes[0].offset == 5
        assert format_pipeline(passes) == text

    def test_negative_int_param(self):
        (p,) = parse_pipeline("shift{offset=-3}")
        assert p.offset == -3

    def test_string_params_pass_through(self):
        (p,) = parse_pipeline("reverse{tag=red}")
        assert p.tag == "red"
        (r,) = parse_pipeline("restrict{procs=0:4}")
        assert r.procs == {0, 1, 2, 3}
        (r,) = parse_pipeline("restrict{procs=0+2+5}")
        assert r.procs == {0, 2, 5}

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            " , ",
            "shift{offset}",
            "shift{offset=}",
            "shift{offset=1,offset=2}",
            "shift{offset=1",
            "shift}offset=1{",
            "sh ift",
            "remap{perm=sideways}",
        ],
    )
    def test_malformed_pipelines_raise(self, bad):
        with pytest.raises(ValueError):
            parse_pipeline(bad)


class _BreakCausality(SchedulePass):
    """Deliberately illegal rewrite: claims legality, moves a send early."""

    name = "break-causality"
    summary = "test-only"

    def run(self, schedule: Schedule) -> Schedule:
        sends = sorted(schedule.sends)
        late = sends[-1]
        sends[-1] = SendOp(time=0, src=late.src, dst=late.dst, item=late.item)
        return Schedule(
            schedule.params, sends=sorted(sends), initial=schedule.initial
        )


class _StretchMakespan(SchedulePass):
    """Claims preserves_completion but pads the critical path."""

    name = "stretch"
    summary = "test-only"

    def run(self, schedule: Schedule) -> Schedule:
        sends = sorted(schedule.sends)
        first = sends[0]
        sends.append(
            SendOp(
                time=first.time + 1000,
                src=first.src,
                dst=first.dst,
                item=first.item,
            )
        )
        return Schedule(
            schedule.params, sends=sorted(sends), initial=schedule.initial
        )


class _DropComputes(SchedulePass):
    """Claims preserves_completion but drops the local computations."""

    name = "drop-computes"
    summary = "test-only"

    def run(self, schedule: Schedule) -> Schedule:
        return Schedule(
            schedule.params,
            sends=list(schedule.sends),
            initial=schedule.initial,
            source_items=schedule.source_items,
        )


def _shift_oracle(schedule: Schedule, offset: int) -> Schedule:
    return run_pass_objects("shift", schedule, offset=offset)


class TestPassManager:
    def test_records_one_entry_per_pass(self):
        s = optimal_broadcast_schedule(FIG1)
        pm = PassManager("shift{offset=5},canonicalize", verify="all")
        out = pm.run(s)
        assert [r.name for r in pm.records] == ["shift", "canonicalize"]
        assert pm.records[0].description == "shift{offset=5}"
        assert all(r.report is not None for r in pm.records)
        assert out.num_sends == s.num_sends

    def test_verify_off_attaches_no_reports(self):
        pm = PassManager("canonicalize", verify="off")
        pm.run(optimal_broadcast_schedule(FIG1))
        assert pm.records[0].report is None

    def test_bad_verify_mode_rejected(self):
        with pytest.raises(ValueError, match="verify"):
            PassManager("canonicalize", verify="sometimes")

    @staticmethod
    def _count_lints(monkeypatch):
        import repro.analyze as analyze

        calls = []
        real = analyze.lint_schedule

        def counting(schedule, *args, **kwargs):
            calls.append(schedule)
            return real(schedule, *args, **kwargs)

        monkeypatch.setattr(analyze, "lint_schedule", counting)
        return calls

    def test_introduced_error_fails_verification(self, monkeypatch):
        calls = self._count_lints(monkeypatch)
        pm = PassManager([_BreakCausality()], verify="errors")
        with pytest.raises(PassVerificationError, match="SCHED001"):
            pm.run(optimal_broadcast_schedule(FIG1))
        # the output's lint, then the input's baseline on demand
        assert len(calls) == 2
        # after a no-op pass the baseline is that pass's report
        calls.clear()
        pm = PassManager(
            [make_pass("canonicalize"), _BreakCausality()], verify="errors"
        )
        with pytest.raises(PassVerificationError) as info:
            pm.run(plan("broadcast", FIG1))
        assert str(info.value) == (
            "pass 'break-causality' (step 2) introduced lint errors: SCHED001"
        )
        assert len(calls) == 2

    def test_preexisting_errors_do_not_fail_verification(self):
        # differential baseline: these corpus files already have error
        # rules, so a normalization pass over them must verify clean, and
        # its record carries what a direct lint of the output reports
        errors = ("SCHED001", "SCHED002", "SCHED003")
        expected = json.loads((CORPUS / "expected.json").read_text())
        broken = sorted(n for n, rules in expected.items() if set(rules) & set(errors))
        assert broken
        for name in broken:
            schedule = load_schedule(CORPUS / f"{name}.json")
            pm = PassManager("canonicalize", verify="errors")
            out = pm.run(schedule)
            assert out.num_sends == schedule.num_sends
            report = pm.records[0].report
            direct = lint_schedule(out, select=errors)
            assert report.errors and report.diagnostics == direct.diagnostics
            assert report.rule_totals == direct.rule_totals

    def test_clean_plan_through_no_op_passes_is_linted_once(self, monkeypatch):
        # the input baseline is taken only when an output has an error,
        # and a pass returning its input reuses the report in hand
        s = plan("broadcast", FIG1)
        calls = self._count_lints(monkeypatch)
        pm = PassManager("canonicalize,prune-dead-sends", verify="errors")
        out = pm.run(s)
        assert len(calls) == 1
        assert [r.name for r in pm.records] == ["canonicalize", "prune-dead-sends"]
        assert pm.records[1].report is pm.records[0].report
        assert pm.records[0].report.diagnostics == []
        assert schedule_to_json(out) == schedule_to_json(s)

    def test_makespan_invariant_enforced(self):
        pm = PassManager([_StretchMakespan()], verify="errors")
        with pytest.raises(PassVerificationError, match="makespan"):
            pm.run(optimal_broadcast_schedule(FIG1))

    def test_reverse_pipeline_is_legal_reduction(self):
        s = optimal_broadcast_schedule(FIG1)
        red = run_pipeline(
            [ReversePass(tag="red", initial={p: {("red", p)} for p in range(8)})],
            s,
            verify="all",
        )
        replay(red)

    @pytest.mark.parametrize("sends", [0, 1])
    def test_reverse_keeps_an_explicitly_empty_placement(self, sends):
        from repro.passes.kernels import reverse_columns

        s = Schedule(params=postal(P=2, L=1), initial={0: {"x"}})
        if sends:
            s.add(0, 0, 1, item="x")
        assert reverse_columns(s, initial={}).initial == {}
        assert reverse_columns(s, initial=None).initial != {}


class TestNormalizationPasses:
    def test_canonicalize_is_idempotent_and_json_invariant(self):
        s = plan("all-to-all", postal(P=6, L=2))
        once = run_pipeline("canonicalize", s)
        twice = run_pipeline("canonicalize", once)
        assert schedule_to_json(once) == schedule_to_json(s)
        assert schedule_to_json(twice) == schedule_to_json(once)

    def test_canonicalize_sorts_storage_order(self):
        s = run_pipeline("canonicalize", plan("all-to-all", postal(P=5, L=2)))
        triples = [(op.time, op.src, op.dst) for op in s.sends]
        assert triples == sorted(triples)

    def test_prune_dead_sends_clears_sched004_in_one_pass(self):
        broken = load_schedule(CORPUS / "dead_send.json")
        assert "SCHED004" in lint_schedule(broken).rule_ids()
        pm = PassManager("prune-dead-sends", verify="all")
        pruned = pm.run(broken)
        assert pm.records[0].stats["removed_sends"] >= 1
        assert pruned.num_sends < broken.num_sends
        assert "SCHED004" not in lint_schedule(pruned).rule_ids()

    def test_prune_keeps_clean_schedules_intact(self):
        s = optimal_broadcast_schedule(FIG1)
        out = run_pipeline("prune-dead-sends", s)
        assert sorted(out.sends) == sorted(s.sends)

    def test_compact_time_reclaims_internal_idle_gap(self):
        # two bursts 1000 cycles apart on a reserve of L + 2o + g = 3:
        # everything between the reservations is globally idle
        params = postal(3, 2)
        sparse = Schedule(
            params,
            sends=[SendOp(0, 0, 1, 0), SendOp(1000, 0, 2, 0)],
            initial={0: {0}},
        )
        pm = PassManager("compact-time", verify="errors")
        compacted = pm.run(sparse)
        reclaimed = pm.records[0].stats["reclaimed_cycles"]
        assert reclaimed == 1000 - (params.L + 2 * params.o + params.g + 1)
        assert [op.time for op in sorted(compacted.sends)] == [0, 4]
        replay(compacted)
        # leading idle time is start-time, not slack: it stays put
        padded = shift(optimal_broadcast_schedule(FIG1), 500)
        pm2 = PassManager("compact-time", verify="errors")
        assert pm2.run(padded).sends == padded.sends
        assert pm2.records[0].stats["reclaimed_cycles"] == 0

    def test_compact_time_preserves_busy_schedules(self):
        s = optimal_broadcast_schedule(FIG1)
        pm = PassManager("compact-time", verify="errors")
        out = pm.run(s)
        # the optimal broadcast has no globally idle reserve-wide gap
        assert sorted(out.sends) == sorted(s.sends)
        assert pm.records[0].stats["reclaimed_cycles"] == 0

    def test_compact_time_shifts_creation_times_consistently(self):
        base = Schedule(
            postal(3, 2),
            sends=[SendOp(500, 0, 1, "x")],
            initial={0: {"x"}},
            source_items={"x": 500},
        )
        out = run_pipeline("compact-time", base, verify="errors")
        (op,) = out.sends
        assert out.source_items["x"] == op.time
        replay(shift(out, -op.time))


class TestBackendTwins:
    @SETTINGS
    @given(sched=builder_schedules(), data=st.data())
    def test_every_pass_byte_identical_across_backends(self, sched, data):
        name = data.draw(st.sampled_from(ALL_PASSES))
        if name == "shift":
            args = {"offset": data.draw(st.integers(0, 20))}
        elif name == "remap":
            args = {"perm": "reverse"}
        elif name == "concat":
            args = {"second": reverse(sched)}
        elif name == "restrict":
            procs = sorted(sched.processors())
            keep = data.draw(st.sets(st.sampled_from(procs), min_size=1))
            args = {"procs": set(keep)}
        else:
            args = {}
        fast = make_pass(name, **args).run(sched)
        slow = run_pass_objects(name, sched, **args)
        assert schedule_to_json(fast) == schedule_to_json(slow)

    @SETTINGS
    @given(sched=builder_schedules(), offset=st.integers(-60, 5))
    def test_shift_offset_agrees_across_backends(self, sched, offset):
        # negative offsets included: kernel and oracle must either raise
        # the same ValueError at transform time or agree byte-for-byte —
        # the kernel may not silently emit negative-time columns
        outcomes = []
        for run in (shift, _shift_oracle):
            try:
                outcomes.append(("ok", schedule_to_json(run(sched, offset))))
            except ValueError as exc:
                outcomes.append(("raise", str(exc)))
        assert outcomes[0] == outcomes[1]

    def test_shift_guard_covers_item_creations(self):
        # creations can predate the earliest send; the guard must see them
        sched = Schedule(
            params=FIG1,
            sends=[SendOp(time=5, src=0, dst=1, item="x")],
            initial={0: {"x"}},
            source_items={"x": 2},
        )
        for run in (shift, _shift_oracle):
            assert run(sched, -2).source_items == {"x": 0}
            with pytest.raises(
                ValueError, match="send or item creation before cycle 0"
            ):
                run(sched, -3)

    def test_shift_guard_message_shared_with_implicit_ir(self):
        from repro.passes.kernels import SHIFT_BEFORE_ZERO
        from repro.schedule import implicit

        assert implicit._SHIFT_ERROR == SHIFT_BEFORE_ZERO

    @SETTINGS
    @given(sched=builder_schedules())
    def test_numpy_path_never_materializes_sendops(self, sched):
        arrayed = run_pipeline("canonicalize", sched)
        assert arrayed.is_array_backed
        for name in ("shift", "reverse", "prune-dead-sends", "compact-time"):
            args = {"offset": 3} if name == "shift" else {}
            out = make_pass(name, **args).run(arrayed)
            assert out.is_array_backed, name
        assert arrayed.is_array_backed


class TestComputes:
    """Passes carry ``Schedule.computes`` or refuse the schedule."""

    SUM = {"P": 16, "L": 6, "o": 2, "g": 4, "n": 100}

    def summation(self) -> Schedule:
        sched = plan("summation", **self.SUM)
        assert len(sched.computes) == 102
        assert completion(sched) == 32  # the last reduction ends after any send
        return sched

    @pytest.mark.parametrize(
        "name,args",
        [
            ("canonicalize", {}),
            ("prune-dead-sends", {}),
            ("shift", {"offset": 7}),
            ("shift", {"offset": 0}),
            ("remap", {"perm": "reverse"}),
        ],
    )
    def test_carrying_passes_match_the_oracle(self, name, args):
        sched = self.summation()
        pm = PassManager([make_pass(name, **args)], verify="errors")
        out = pm.run(sched)
        oracle = run_pass_objects(name, sched, **args)
        assert len(out.computes) == len(sched.computes)
        assert out.computes == oracle.computes
        assert schedule_to_json(out) == schedule_to_json(oracle)
        assert completion(out) == completion(sched) + args.get("offset", 0)

    def test_shift_and_remap_move_computes_like_sends(self):
        sched = self.summation()
        shifted = shift(sched, 5)
        assert [op.time for op in shifted.computes] == [
            op.time + 5 for op in sched.computes
        ]
        top = self.SUM["P"] - 1
        flipped = remap(sched, {p: top - p for p in range(self.SUM["P"])})
        assert [op.proc for op in flipped.computes] == [
            top - op.proc for op in sched.computes
        ]
        with pytest.raises(ValueError, match="before cycle 0"):
            shift(sched, -1)  # sends start at t=1, the first reductions at t=0

    @pytest.mark.parametrize(
        "name,args",
        [
            ("reverse", {}),
            ("restrict", {"procs": {0, 1}}),
            ("compact-time", {}),
            ("heal", {}),
        ],
    )
    def test_non_carrying_passes_refuse(self, name, args):
        sched = self.summation()
        with pytest.raises(ValueError, match=f"pass '{name}' cannot carry") as exc:
            make_pass(name, **args).run(sched)
        assert "\n" not in str(exc.value)

    def test_concat_refuses_computes_on_either_side(self):
        sched = self.summation()
        plain = plan("broadcast", **{k: self.SUM[k] for k in "PLog"})
        for first, second in ((sched, plain), (plain, sched)):
            with pytest.raises(ValueError, match="pass 'concat' cannot carry"):
                make_pass("concat", second=second).run(first)

    def test_makespan_check_counts_computes(self):
        pm = PassManager([_DropComputes()], verify="errors")
        with pytest.raises(PassVerificationError, match="makespan from 32"):
            pm.run(self.summation())


class TestTransformRoundTrips:
    @SETTINGS
    @given(sched=builder_schedules())
    def test_double_reverse_matches_canonicalize_up_to_shift(self, sched):
        rr = reverse(reverse(sched))
        canon = run_pipeline("canonicalize", sched)
        rr_triples = [(op.time, op.src, op.dst) for op in sorted(rr.sends)]
        base = min(t for t, _, _ in rr_triples)
        canon_triples = [(op.time, op.src, op.dst) for op in canon.sends]
        canon_base = min(t for t, _, _ in canon_triples)
        assert sorted((t - base, s, d) for t, s, d in rr_triples) == sorted(
            (t - canon_base, s, d) for t, s, d in canon_triples
        )

    @SETTINGS
    @given(sched=builder_schedules(), data=st.data())
    def test_restrict_then_remap_commutes(self, sched, data):
        procs = sorted(sched.processors())
        keep = set(data.draw(st.sets(st.sampled_from(procs), min_size=1)))
        # keep at least one initially-placed processor: if restriction
        # drops every initial placement, the Schedule constructor's
        # {0: {0}} default kicks in at different stages of the two
        # orders and the law degenerates
        keep.add(min(sched.initial))
        top = max(procs)
        mapping = {p: top - p for p in procs}
        a = remap(restrict(sched, keep), mapping)
        b = restrict(remap(sched, mapping), {mapping[p] for p in keep})
        assert schedule_to_json(a) == schedule_to_json(b)


class TestCorpusCanonicalizeByteStability:
    @pytest.mark.parametrize(
        "name", sorted(json.loads((CORPUS / "expected.json").read_text()))
    )
    def test_canonicalize_reproduces_the_checked_in_bytes(self, name):
        # mirrors the CI lint-job step: the corpus is serialized in
        # canonical order, so canonicalize must be a byte-level no-op
        path = CORPUS / f"{name}.json"
        out = run_pipeline("canonicalize", load_schedule(path), verify="errors")
        assert schedule_to_json(out) == path.read_text().rstrip("\n")
