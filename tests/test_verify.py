"""Self-check battery: report shape, determinism, and fault sensitivity."""
from __future__ import annotations

import json

import pytest

import treeperc.percolation as percolation
import treeperc.resolutions as resolutions
from treeperc.bivar import BivarPoly
from treeperc.verify import SCOPES, CheckResult, VerifyReport, run_verify


class TestReportShape:
    def test_quick_scope_is_green(self):
        report = run_verify("quick")
        assert report.ok
        counts = report.counts
        assert counts["fail"] == 0
        assert counts["pass"] > 40

    def test_known_discrepancy_is_flagged_not_failed(self):
        report = run_verify("quick")
        flagged = [c for c in report.checks if c.status == "flagged"]
        assert len(flagged) == 1
        note = flagged[0]
        assert "m2_asymptote" in note.name
        # The flag documents the conflation: the value sometimes quoted for
        # the fixed point equals the infinite-tree failure probability 1/81.
        assert "1/81" in note.detail

    def test_full_scope_superset(self):
        quick = {c.name for c in run_verify("quick").checks}
        full_report = run_verify("full")
        full = {c.name for c in full_report.checks}
        assert full_report.ok
        assert quick <= full
        assert {"homology_oracle_cut_k2_n2", "homology_oracle_cut_k3_n2",
                "homology_oracle_path_k2_n2"} <= full - quick

    def test_invalid_scope_rejected(self):
        with pytest.raises(ValueError):
            run_verify("exhaustive")
        assert SCOPES == ("quick", "full")


class TestSerialization:
    def test_json_deterministic_and_parseable(self):
        a = run_verify("quick").to_json()
        b = run_verify("quick").to_json()
        assert a == b
        obj = json.loads(a)
        assert obj["scope"] == "quick"
        assert {"pass", "fail", "flagged"} <= set(obj["counts"])
        assert all({"name", "status", "detail"} <= set(c) for c in obj["checks"])

    def test_text_rendering(self):
        report = run_verify("quick")
        text = report.render_text()
        assert text.count("[PASS") == report.counts["pass"]
        assert text.count("[FLAGGED") == report.counts["flagged"]
        assert text.rstrip().endswith("scope quick")

    def test_long_values_are_trimmed(self):
        report = run_verify("full")
        for check in report.checks:
            assert len(check.lhs) <= 123  # 120 chars plus ellipsis
            assert len(check.rhs) <= 123


class TestFaultInjection:
    def test_broken_generating_function_is_caught(self, monkeypatch):
        # Return a wrong polynomial: the duality, totals, and three-route
        # checks must all notice.
        monkeypatch.setattr(resolutions, "path_gf",
                            lambda k, n, **kw: BivarPoly({(1, 1): k * n}))
        report = run_verify("quick")
        assert not report.ok
        failing = {c.name for c in report.checks if c.status == "fail"}
        assert any("duality" in name for name in failing)
        assert any("path" in name or "route" in name for name in failing)

    def test_raising_dependency_becomes_failed_check(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(resolutions, "cut_gf", boom)
        report = run_verify("quick")
        assert not report.ok
        assert any("injected fault" in c.detail for c in report.checks if c.status == "fail")

    def test_first_failing_case_is_reported(self, monkeypatch):
        monkeypatch.setattr(percolation, "cut_bound_m2_recursive", lambda k, n, q: -1)
        checks = {c.name: c for c in run_verify("quick").checks}
        check = checks["first_cut_bound_is_x_degree_1_truncation"]
        assert check.status == "fail"
        assert check.detail.startswith("k=2 n=1 q=1/5")

    def test_check_result_is_plain_data(self):
        c = CheckResult(name="demo", status="pass", lhs="1", rhs="1", detail="")
        assert c.name == "demo"
        r = VerifyReport(scope="quick", checks=(c,))
        assert r.counts == {"pass": 1, "fail": 0, "flagged": 0}
        assert r.ok
