"""Corpus regression: known-bad schedules reproduce pinned diagnostics.

Each ``tests/data/lint_corpus/<name>.json`` is a checked-in schedule
with a deliberately planted defect (or, for ``clean``, none); the
``expected.json`` manifest pins exactly which rule ids must fire.  The
corpus locks the engine's verdicts across refactors: a rule that stops
firing on its planted defect — or starts firing on the clean canary —
fails here, not in production.

The files are byte-stable (the serializer sorts every ambient order),
so ``git diff`` on this directory is always meaningful.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analyze import Severity, lint_schedule
from repro.schedule.serialize import load_schedule, schedule_to_json

CORPUS = Path(__file__).parent / "data" / "lint_corpus"
EXPECTED = json.loads((CORPUS / "expected.json").read_text())

# defects the corpus plants, by the rule that must catch them
ERROR_CASES = {"non_causal", "self_send", "negative_time", "uncovered"}

# sha-256 over every corpus schedule's diagnostics (``to_dict`` JSON, one
# line per schedule in name order): pins wording, data and fix-its
DIAGNOSTICS_DIGEST = (
    "d1748de99b1aa3e95facd750ad6fbdcdf75c29167179d0c9bed2310de9924268"
)


def corpus_names():
    return sorted(EXPECTED)


def test_manifest_covers_exactly_the_corpus_files():
    files = {p.stem for p in CORPUS.glob("*.json")} - {"expected"}
    assert files == set(EXPECTED)


def test_every_rule_is_exercised_by_some_corpus_schedule():
    fired = {rule for ids in EXPECTED.values() for rule in ids}
    assert fired == {f"SCHED{i:03d}" for i in range(1, 11)}


@pytest.mark.parametrize("name", corpus_names())
def test_pinned_rule_ids(name):
    report = lint_schedule(load_schedule(CORPUS / f"{name}.json"))
    assert report.rule_ids() == EXPECTED[name]


def test_diagnostics_are_byte_pinned():
    h = hashlib.sha256()
    for name in corpus_names():
        report = lint_schedule(load_schedule(CORPUS / f"{name}.json"))
        rows = [d.to_dict() for d in report.diagnostics]
        h.update(json.dumps(rows, sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == DIAGNOSTICS_DIGEST


@pytest.mark.parametrize("name", corpus_names())
def test_serialization_is_byte_stable(name):
    path = CORPUS / f"{name}.json"
    sched = load_schedule(path)
    assert schedule_to_json(sched) == path.read_text().rstrip("\n")


@pytest.mark.parametrize("name", corpus_names())
def test_canonical_serialization_is_byte_stable(name):
    # canonical=True is the plan cache's content-hash form: sorted keys,
    # compact separators, same data — pinned here so a serializer change
    # that would silently invalidate every cached blob fails loudly
    path = CORPUS / f"{name}.json"
    canonical = schedule_to_json(load_schedule(path), canonical=True)
    assert canonical == json.dumps(
        json.loads(path.read_text()), sort_keys=True, separators=(",", ":")
    )
    # and it parses back to the same document
    assert json.loads(canonical) == json.loads(path.read_text())


def test_clean_canary_is_fully_clean():
    report = lint_schedule(load_schedule(CORPUS / "clean.json"))
    assert len(report) == 0
    assert report.max_severity is None


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_error_cases_reach_error_severity(name):
    report = lint_schedule(load_schedule(CORPUS / f"{name}.json"))
    assert report.max_severity is Severity.ERROR or name == "uncovered"
    if name != "uncovered":
        assert report.errors


def test_uncovered_reports_acausal_participant():
    report = lint_schedule(load_schedule(CORPUS / "uncovered.json"))
    assert [d.rule for d in report.errors] == ["SCHED001"]
