"""Call graph construction, worker-entry discovery and reachability."""

from pathlib import Path

import pytest

from repro.analysis.flow import CallGraph, Project, find_worker_entries

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[3]


@pytest.fixture(scope="module")
def fixture_graph():
    project = Project.load([FIXTURES], root=REPO_ROOT)
    return project, CallGraph.build(project)


class TestCallGraph:
    def test_indexes_functions_and_nested_defs(self, fixture_graph):
        _, graph = fixture_graph
        assert "worker_state.run_all" in graph.functions
        assert "worker_state.worker_task" in graph.functions
        assert "worker_state.worker_task.note_retry" in graph.functions

    def test_methods_indexed_by_bare_name(self, fixture_graph):
        _, graph = fixture_graph
        assert "worker_state.DataLog.merge" in graph.methods_by_name["merge"]

    def test_nested_def_gets_implicit_edge(self, fixture_graph):
        _, graph = fixture_graph
        assert (
            "worker_state.worker_task.note_retry"
            in graph.edges["worker_state.worker_task"]
        )

    def test_cross_module_call_edge(self, fixture_graph):
        _, graph = fixture_graph
        assert "mini_faults.plan_faults" in graph.edges["rig.drive"]
        assert "mini_campaign.run_case" in graph.edges["rig.drive"]


class TestWorkerEntries:
    def test_submit_targets_discovered(self, fixture_graph):
        project, graph = fixture_graph
        entries = find_worker_entries(project, graph)
        assert {entry.qualname for entry in entries} == {
            "worker_state.worker_task",
            "worker_state.merging_task",
            "worker_state.mapped_task",
        }

    def test_map_targets_have_no_shared_params(self, fixture_graph):
        project, graph = fixture_graph
        entries = {
            entry.qualname: entry for entry in find_worker_entries(project, graph)
        }
        mapped = entries["worker_state.mapped_task"]
        assert mapped.submitter == "worker_state.run_mapped"
        assert mapped.shared_params == {}

    def test_loop_var_args_classified_per_task(self, fixture_graph):
        project, graph = fixture_graph
        entries = {
            entry.qualname: entry for entry in find_worker_entries(project, graph)
        }
        racy = entries["worker_state.worker_task"]
        # index/payload come from the comprehension loop vars; only the
        # sink is shared across tasks.
        assert set(racy.shared_params) == {"sink"}
        merged = entries["worker_state.merging_task"]
        assert set(merged.shared_params) == {"log"}
        assert merged.shared_params["log"] == "DataLog"

    def test_reachability_from_workers(self, fixture_graph):
        _, graph = fixture_graph
        reachable = graph.reachable(["worker_state.worker_task"])
        assert "worker_state.worker_task.note_retry" in reachable
        assert "worker_state.run_all" not in reachable

    def test_real_campaign_workers_are_discovered(self):
        project = Project.load([REPO_ROOT / "src"], root=REPO_ROOT)
        graph = CallGraph.build(project)
        entries = {e.qualname for e in find_worker_entries(project, graph)}
        assert "repro.lab.fleet._shard_worker" in entries
