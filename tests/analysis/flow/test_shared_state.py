"""RPR3xx: thread-shared mutable state reachable from worker entries."""

from pathlib import Path

import pytest

from repro.analysis.flow import MergeRegistry, analyze_paths
from repro.errors import ConfigurationError

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[3]


@pytest.fixture(scope="module")
def findings():
    result = analyze_paths([FIXTURES], root=REPO_ROOT)
    return [f for f in result.findings if f.path.endswith("worker_state.py")]


def _only(findings, rule_id):
    flagged = [f for f in findings if f.rule_id == rule_id]
    assert len(flagged) == 1, flagged
    return flagged[0]


class TestSharedStateRules:
    def test_global_write_is_rpr301(self, findings):
        finding = _only(findings, "RPR301")
        assert "RUN_COUNT" in finding.message
        assert "worker_task" in finding.message

    def test_class_attribute_write_is_rpr302(self, findings):
        finding = _only(findings, "RPR302")
        assert "WorkerPool.last_result" in finding.message

    def test_nonlocal_write_is_rpr303(self, findings):
        finding = _only(findings, "RPR303")
        assert "retries" in finding.message

    def test_module_object_mutation_is_rpr304(self, findings):
        flagged = sorted(
            (f for f in findings if f.rule_id == "RPR304"),
            key=lambda f: f.line,
        )
        assert len(flagged) == 2
        assert "RESULTS" in flagged[0].message
        assert ".append" in flagged[0].message
        assert "_TOTALS" in flagged[1].message
        assert "item assignment" in flagged[1].message

    def test_shared_argument_mutation_is_rpr305(self, findings):
        finding = _only(findings, "RPR305")
        assert "'sink'" in finding.message
        assert ".update" in finding.message


    def test_mapped_worker_items_are_per_task(self, findings):
        assert not any("mapped_task" in f.message for f in findings)


class TestMergeExemptions:
    def test_registered_merge_types_are_exempt(self, findings):
        # SHARED_LOG is a DataLog and merging_task annotates its log
        # parameter as DataLog — both merges are deterministic, neither
        # may be flagged.
        assert not any("SHARED_LOG" in f.message for f in findings)
        assert not any("merging_task" in f.message for f in findings)
        assert not any("'log'" in f.message for f in findings)

    def test_custom_registry_silences_a_type(self, tmp_path):
        source = (FIXTURES / "worker_state.py").read_text(encoding="utf-8")
        target = tmp_path / "worker_state.py"
        target.write_text(source, encoding="utf-8")
        default = analyze_paths([target], root=tmp_path).findings
        assert any(f.rule_id == "RPR305" for f in default)

        merges = MergeRegistry.default()
        merges.register("dict", via="update", note="test-only")
        relaxed = analyze_paths([target], root=tmp_path, merges=merges).findings
        # The sink parameter has no annotation, so the dict rule cannot
        # prove anything — but registering a rule must never add noise.
        assert len(relaxed) <= len(default)

    def test_conflicting_registration_raises(self):
        merges = MergeRegistry.default()
        with pytest.raises(ConfigurationError):
            merges.register("DataLog", via="update", note="conflict")
