"""Tests for the Markdown machine-report generator."""

from repro.params import LogPParams, postal
from repro.report import machine_report


class TestReport:
    def test_fig1_machine(self):
        text = machine_report(LogPParams(P=8, L=6, o=2, g=4), ks=(2, 8), ns=(16,))
        assert "# LogP collectives report" in text
        assert "B(P) = 24" in text
        assert "| binomial | 30 |" in text
        assert "k\\* =" in text
        assert "Summation" in text

    def test_combining_machine_gets_the_callout(self):
        # P = 9 = P(7) for L = 3: the all-reduce should use combining
        text = machine_report(postal(P=9, L=3), ks=(2,), ns=(8,))
        assert "same cost as a plain reduction" in text

    def test_non_pt_machine_gets_the_hint(self):
        text = machine_report(postal(P=7, L=3), ks=(2,), ns=(8,))
        assert "consider rounding the group" in text

    def test_every_section_present(self):
        text = machine_report(postal(P=10, L=3), ks=(4,), ns=(20,))
        for heading in (
            "## Single-item broadcast",
            "## k-item broadcast",
            "## Other collectives",
            "## Summation",
        ):
            assert heading in text

    def test_tables_are_wellformed(self):
        text = machine_report(postal(P=5, L=2), ks=(3,), ns=(10,))
        for line in text.splitlines():
            if line.startswith("|"):
                assert line.count("|") >= 3
