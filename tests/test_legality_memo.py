"""One legality evaluation per plan: the memo on ``Schedule``.

The availability table, the sender/destination hold times and the
kernel's verdict are computed once per schedule object and shared by
the passes, lint and exec verification.  These tests pin the counts on
the run-mp request mix and what makes the memo sound: a schedule never
changes (every former edit path raises) and its inputs are read-only.
"""

import operator
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analyze.context as lint_context
import repro.schedule.analysis_np as analysis_np
import repro.sim.validate_np as validate_np
from repro import registry
from repro.analyze import lint_schedule
from repro.exec import (
    ExecVerificationError,
    execute,
    lower_schedule,
    verify_against_sim,
)
from repro.exec.trace import ExecTrace
from repro.machine import heal_columns
from repro.machine.model import machine_from_spec
from repro.params import LogPParams, postal
from repro.passes import PassManager, make_pass
from repro.schedule.ops import ComputeOp, Schedule, SendOp
from repro.sim.validate import violations

from tests.oracles.serialize import delivered_json_dumps


def _run_mp_requests(seed: int = 12):
    """The run-mp benchmark's eleven requests, drawn as it draws them."""
    rng = random.Random(seed)
    logp = {"L": 6, "o": 2, "g": 4}
    postal_ = {"L": 3}
    dead = sorted(rng.sample(range(1, 36), 2))
    masked = machine_from_spec(f"hier:6x6:12/1/2:2/0/1:dead={dead[0]}+{dead[1]}")
    return [
        ("broadcast", {"P": 48, **logp}, None),
        ("broadcast", {"P": 32, **postal_}, None),
        ("kitem", {"P": 16, **postal_, "k": rng.randint(3, 5)}, None),
        ("continuous", {"P": 10, **postal_, "k": rng.randint(3, 5)}, None),
        ("all-to-all", {"P": 12, **logp}, None),
        ("summation", {"P": 16, **logp, "n": rng.randint(95, 105)}, None),
        ("allreduce", {"P": 20, **postal_}, None),
        ("reduction", {"P": 48, **logp}, None),
        ("hier-bcast", {"P": 40, **logp}, None),
        ("hier-reduce", {"P": 40, **logp}, None),
        ("hier-bcast", {}, masked),
    ]


class TestRunMpCounts:
    """Build, pass-verify, lint, lower, run and verify each request, as the
    run-mp workload does (on inproc), counting legality work."""

    def test_one_table_per_distinct_plan_and_one_kernel_run(self, monkeypatch):
        counts = {"tables": 0, "kernel": 0, "workload": 0}
        build_table = analysis_np._availability_table
        kernel = validate_np.violations_np
        detect = lint_context.detect_workload

        def counted_table(schedule):
            counts["tables"] += 1
            return build_table(schedule)

        def counted_kernel(schedule):
            counts["kernel"] += 1
            return kernel(schedule)

        def counted_detect(schedule):
            counts["workload"] += 1
            return detect(schedule)

        monkeypatch.setattr(analysis_np, "_availability_table", counted_table)
        monkeypatch.setattr(lint_context, "detect_workload", counted_detect)
        monkeypatch.setattr(validate_np, "violations_np", counted_kernel)
        seen = {}
        for name, kwargs, machine in _run_mp_requests():
            counts.update(tables=0, kernel=0, workload=0)
            if machine is None:
                schedule = registry.plan(name, **kwargs)
            else:
                schedule, _ = heal_columns(registry.plan(name, machine=machine))
            PassManager("canonicalize,prune-dead-sends", verify="errors").run(
                schedule
            )
            assert not lint_schedule(schedule).errors
            result = execute(lower_schedule(schedule), transport="inproc")
            verify_against_sim(schedule, result.trace)
            seen[name] = dict(counts)
            # the parent tree built 6 tables per request (8 for reduction)
            limit = {"reduction": 3, "summation": 1, "allreduce": 1}.get(name, 2)
            assert counts["tables"] <= limit, (name, counts)
            assert counts["kernel"] == 1, (name, counts)
            # every lint of one plan object reads its memoized lint facts
            # (a per-call LintContext detected the workload 4 times per
            # request, 6 for reduction)
            assert counts["workload"] <= limit, (name, counts)
        # canonicalize is a no-op on these two: one plan, one table
        assert seen["summation"]["tables"] == seen["allreduce"]["tables"] == 1


class TestLintFacts:
    FACTS = (
        "replay_order",
        "participants",
        "initial_keys",
        "holders_per_item",
        "source_item_send_counts",
    )

    def test_every_lint_context_reads_one_memo(self):
        s = registry.plan("kitem", P=10, L=3, k=4)
        ctx = lint_context.LintContext(s)
        assert set(vars(ctx)) == {"schedule", "params", "cols"}
        again = lint_context.LintContext(s)
        assert again.workload == ctx.workload == lint_context.Workload.KITEM
        for name in self.FACTS:
            fact = getattr(ctx, name)
            assert getattr(again, name) is fact, name
            with pytest.raises(ValueError, match="read-only"):
                fact[0] = 1

    def test_an_edit_drops_the_lint_facts(self):
        # an edited plan is a new schedule with lint facts of its own
        s = _four_kind_plan()
        assert lint_context.LintContext(s).participants.tolist() == [0, 1, 2, 3]
        edited = Schedule(
            s.params, sends=[op for op in s.sends if op.dst != 3], initial=s.initial
        )
        assert lint_context.LintContext(edited).participants.tolist() == [0, 1, 2]
        assert lint_context.LintContext(s).participants.tolist() == [0, 1, 2, 3]


def _four_kind_plan() -> Schedule:
    base = registry.plan("broadcast", P=4, L=6, o=2, g=6)
    return Schedule(base.params, sends=list(base.sends), initial=base.initial)


def _twin(schedule: Schedule) -> Schedule:
    return Schedule(
        schedule.params,
        sends=list(schedule.sends),
        initial=schedule.initial,
        source_items=schedule.source_items,
        machine=schedule.machine,
    )


class TestInvalidation:
    """A schedule never changes, so nothing ever invalidates its memo.

    Each path that used to edit a plan in place raises, and the memo
    survives it; an edited plan is a new schedule with its own memo.
    """

    def test_in_place_edit_of_equal_length_invalidates(self):
        # an equal-length edit must not leave the memo describing other
        # sends: it is refused, and the edited plan is judged on its own
        s = _four_kind_plan()
        assert violations(s) == []
        table = analysis_np.availability_arrays(s)
        with pytest.raises(TypeError):
            s.sends[1] = SendOp(0, 2, 1, 0)
        assert analysis_np.availability_arrays(s) is table
        edited = list(s.sends)
        edited[1] = SendOp(0, 2, 1, 0)
        fresh = violations(Schedule(s.params, sends=edited, initial=s.initial))
        assert [v.split(":")[0] for v in fresh] == [
            "causality",
            "receive gap",
            "overhead overlap",
            "capacity",
        ]
        assert violations(s) == []

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda s: s.add(0, 2, 1), AttributeError),
            (lambda s: s.extend([SendOp(0, 2, 1, 0)]), AttributeError),
            (
                lambda s: setattr(s, "sends", [*s.sends, SendOp(0, 2, 1, 0)]),
                AttributeError,
            ),
            (lambda s: s.sends.insert(0, SendOp(0, 2, 1, 0)), AttributeError),
            (lambda s: operator.setitem(s.sends, 1, SendOp(0, 2, 1, 0)), TypeError),
            (lambda s: s.sends.append(SendOp(0, 2, 1, 0)), AttributeError),
            (lambda s: s.computes.append(ComputeOp(0, 0)), AttributeError),
            (lambda s: setattr(s, "computes", [ComputeOp(0, 0)]), AttributeError),
        ],
        ids=[
            "add",
            "extend",
            "setter",
            "insert",
            "setitem",
            "append",
            "computes",
            "computes-setter",
        ],
    )
    def test_every_send_list_edit_drops_the_memo(self, edit, error):
        s = _four_kind_plan()
        table = analysis_np.availability_arrays(s)
        holds = analysis_np.sender_hold_times(s)
        assert analysis_np.availability_arrays(s) is table  # memo hit
        assert violations(s) == []
        with pytest.raises(error):
            edit(s)
        assert analysis_np.availability_arrays(s) is table
        assert analysis_np.sender_hold_times(s) is holds
        assert s.num_sends == 3 and s.computes == ()
        assert violations(s) == violations(_twin(s)) == []

    def test_memo_is_per_object(self):
        s = _four_kind_plan()
        twin = _twin(s)
        assert analysis_np.availability_arrays(s) is not (
            analysis_np.availability_arrays(twin)
        )

    def test_external_append_still_detected(self):
        s = _four_kind_plan()
        cols = s.columns()
        with pytest.raises(AttributeError):
            s.sends.append(SendOp(20, 0, 3, 0))
        assert s.columns() is cols
        assert len(cols) == 3


class TestReadOnlyInputs:
    def test_column_arrays_are_read_only(self):
        plans = (_four_kind_plan(), registry.plan("broadcast", P=8, L=6, o=2, g=4))
        for s in plans:
            c = s.columns()
            for array in (c.times, c.srcs, c.dsts, c.items, c.arrivals):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 99

    def test_memoized_facts_are_read_only(self):
        s = _four_kind_plan()
        keys, times, _, _ = analysis_np.availability_arrays(s)
        found, have = analysis_np.sender_hold_times(s)
        for array in (keys, times, found, have, analysis_np.receiver_hold_times(s)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_initial_and_source_items_are_read_only(self):
        s = Schedule(
            postal(P=3, L=2), initial={0: {"a"}}, source_items={"a": 0}
        )
        with pytest.raises(TypeError):
            s.initial[1] = {"a"}
        with pytest.raises(AttributeError):
            s.initial[0].add("b")
        with pytest.raises(TypeError):
            s.source_items["a"] = 5
        for name in ("initial", "source_items", "machine", "params", "sends", "computes"):
            with pytest.raises(AttributeError):
                setattr(s, name, None)

    def test_constructor_copies_its_inputs(self):
        initial = {0: {"a"}}
        sources = {"a": 0}
        sends = [SendOp(0, 0, 1, "a")]
        computes = [ComputeOp(0, 0)]
        s = Schedule(
            postal(P=3, L=2),
            sends=sends,
            initial=initial,
            computes=computes,
            source_items=sources,
        )
        initial[0].add("b")
        initial[2] = {"c"}
        sources["a"] = 7
        sends.append(SendOp(1, 0, 2, "a"))
        computes.append(ComputeOp(1, 0))
        assert s.initial == {0: {"a"}}
        assert s.source_items == {"a": 0}
        assert s.num_sends == 1
        assert s.computes == (ComputeOp(0, 0),)

    def test_schedule_pickles(self):
        s = registry.plan("reduction", P=6, L=4, o=1, g=2)
        assert violations(s) == []
        back = pickle.loads(pickle.dumps(s))
        assert back == s
        assert back.initial == s.initial and back.source_items == s.source_items
        with pytest.raises(ValueError, match="read-only"):
            back.columns().times[0] = 1
        with pytest.raises(TypeError):
            back.initial[0] = set()
        assert violations(back) == []


class TestNoOpPasses:
    def test_prune_returns_its_input_when_nothing_is_dead(self):
        s = registry.plan("broadcast", P=16, L=6, o=2, g=4)
        p = make_pass("prune-dead-sends")
        assert p.run(s) is s
        assert p.stats["removed_sends"] == 0

    def test_canonicalize_returns_canonical_array_input(self):
        built = registry.plan("broadcast", P=16, L=6, o=2, g=4)
        s = make_pass("canonicalize").run(built)
        assert s.is_array_backed
        assert make_pass("canonicalize").run(s) is s

    def test_canonicalize_of_canonical_objects_shares_the_memo(self):
        # an object-backed plan already in replay order: at each step
        # every rank passes its own partial to the next rank
        P = 8
        s = Schedule(
            postal(P=P, L=3),
            sends=[
                SendOp(j, i, (i + 1) % P, ("partial", i, j))
                for j in range(3)
                for i in range(P)
            ],
            initial={i: {("partial", i, j) for j in range(3)} for i in range(P)},
        )
        assert not s.is_array_backed
        table = analysis_np.availability_arrays(s)
        out = make_pass("canonicalize").run(s)
        assert out.is_array_backed and out.columns() is s.columns()
        assert analysis_np.availability_arrays(out) is table
        assert out == s


class TestHierFlatParams:
    def test_flat_params_is_computed_once(self):
        m = machine_from_spec("hier:6x6:12/1/2:2/0/1")
        before = pickle.dumps(m)
        assert m.flat_params is m.flat_params
        assert pickle.dumps(m) == before
        back = pickle.loads(before)
        assert back == m and hash(back) == hash(m)
        assert back.flat_params == m.flat_params
        assert back.canonical_doc() == m.canonical_doc()


# -- exec verification without text ----------------------------------------

_atoms = st.one_of(
    st.integers(-2, 3), st.booleans(), st.sampled_from(["a", "b", "é"])
)
_items = st.one_of(_atoms, st.tuples(_atoms), st.tuples(_atoms, _atoms))


@st.composite
def _delivered_pairs(draw):
    """A legal plan whose items may be equal-but-differently-encoded
    (``1``/``True``), plus a trace that equals, perturbs or re-types its
    delivered multiset."""
    n = draw(st.integers(1, 5))
    raw = draw(st.lists(_items, min_size=n, max_size=n))
    items = []
    for item in raw:  # the plan's items are distinct by equality
        if item not in items:
            items.append(item)
    P = len(items) + 1
    sends = [SendOp(i * 4, 0, i + 1, item) for i, item in enumerate(items)]
    schedule = Schedule(
        LogPParams(P=P, L=2, o=0, g=4),
        sends=sends,
        initial={0: set(items)},
    )
    delivered = [(op.src, op.dst, op.item) for op in sends]
    mode = draw(st.sampled_from(["same", "shuffled", "retyped", "swap", "drop"]))
    if mode == "shuffled":
        delivered = draw(st.permutations(delivered))
    elif mode == "retyped":
        i = draw(st.integers(0, len(delivered) - 1))
        src, dst, _ = delivered[i]
        delivered[i] = (src, dst, draw(_items))
    elif mode == "swap" and len(delivered) > 1:
        (s0, d0, i0), (s1, d1, i1) = delivered[0], delivered[1]
        delivered[0], delivered[1] = (s0, d0, i1), (s1, d1, i0)
    elif mode == "drop":
        delivered = delivered[1:] + [(0, 0, draw(_items))]
    return schedule, tuple(delivered)


class TestVerifyWithoutText:
    @settings(max_examples=300, deadline=None)
    @given(pair=_delivered_pairs())
    def test_verdict_equals_the_byte_comparison(self, pair):
        schedule, delivered = pair
        trace = ExecTrace(
            params=schedule.params, transport="inproc", delivered=delivered
        )
        want = [(op.src, op.dst, op.item) for op in schedule.sends]
        same_bytes = delivered_json_dumps(schedule.params, want) == (
            delivered_json_dumps(schedule.params, list(delivered))
        )
        if same_bytes:
            verify_against_sim(schedule, trace)
        else:
            with pytest.raises(ExecVerificationError):
                verify_against_sim(schedule, trace)

    def test_equal_but_differently_encoded_items_mismatch(self):
        for plan_item, trace_item in ((1, True), (("x", 0), ("x", False))):
            schedule = Schedule(
                postal(P=2, L=1), sends=[SendOp(0, 0, 1, plan_item)],
                initial={0: {plan_item}},
            )
            trace = ExecTrace(
                params=schedule.params,
                transport="inproc",
                delivered=((0, 1, trace_item),),
            )
            with pytest.raises(ExecVerificationError, match="1 missing, 1 unexpected"):
                verify_against_sim(schedule, trace)

    def test_codes_compare_without_writing_text(self, monkeypatch):
        import repro.exec.trace as trace_mod

        schedule = registry.plan("all-to-all", P=6, L=3)
        result = execute(schedule, transport="inproc")

        def no_text(*args, **kwargs):
            raise AssertionError("a matching trace must not be written as text")

        monkeypatch.setattr(trace_mod, "item_json", no_text)
        verify_against_sim(schedule, result.trace)
