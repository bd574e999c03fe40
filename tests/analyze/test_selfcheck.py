"""The shipped tree passes its own analyzer — the CI gate, as a test."""

from __future__ import annotations

import json

from repro.analyze import lint_tree, render_text, to_payload, write_json


class TestShippedTree:
    def test_lint_is_clean(self):
        report = lint_tree()
        assert report.ok, "\n" + "\n".join(
            f"{f.location()}: [{f.rule}] {f.message}" for f in report.active_findings
        )

    def test_every_suppression_carries_a_justification(self):
        report = lint_tree()
        for result in report.results:
            for _finding, sup in result.suppressed:
                assert sup.reason, f"unjustified suppression at {sup.module}:{sup.line}"

    def test_all_four_rules_ran(self):
        report = lint_tree()
        assert sorted(r.rule for r in report.results) == [
            "fingerprint-purity",
            "lock-discipline",
            "parity-coverage",
            "vectorization-guard",
        ]

    def test_parity_table_accounts_for_every_core_function(self):
        report = lint_tree()
        rows = report.tables["parity coverage"]
        assert rows, "parity coverage table is empty"
        statuses = {r["status"] for r in rows}
        assert "UNPAIRED" not in statuses
        assert "missing-twin" not in statuses
        # The pairing is real: a healthy majority of closed forms have
        # live twins, not blanket exemptions.
        paired = sum(1 for r in rows if r["status"] in ("paired", "twin"))
        assert paired >= len(rows) // 2

    def test_lock_guard_map_covers_the_cache_and_server(self):
        report = lint_tree()
        rows = report.tables["lock guard map"]
        guarded = {(r["class"], r["attribute"]) for r in rows}
        assert ("repro.batch.cache:SweepCache", "_memory") in guarded
        assert ("repro.batch.cache:SweepCache", "stats") in guarded
        assert ("repro.service.aserver:AsyncSweepServer", "_counters") in guarded
        assert ("repro.service.server:ServiceCore", "_groups") in guarded


class TestReporters:
    def test_text_report_renders(self):
        report = lint_tree()
        text = render_text(report)
        assert "repro lint" in text
        assert "parity coverage" in text

    def test_json_payload_round_trips(self, tmp_path):
        report = lint_tree()
        path = tmp_path / "LINT.json"
        write_json(report, path)
        payload = json.loads(path.read_text())
        assert payload == to_payload(report)
        assert payload["ok"] is True
        assert set(payload["rules"]) == {
            "fingerprint-purity",
            "lock-discipline",
            "parity-coverage",
            "vectorization-guard",
        }
        suppressed = [
            s
            for rule in payload["rules"].values()
            for s in rule["suppressed"]
        ]
        assert suppressed, "expected the documented libm suppressions"
        assert all(s["justification"] for s in suppressed)
