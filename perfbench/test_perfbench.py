"""Tests of the benchmark itself (not of the program it measures).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import multiprocessing
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import Installed, Recorder, Wrap, accounting  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())["workloads"]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- inputs ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_identical_for_a_fixed_seed(name):
    workload = workloads.WORKLOADS[name]
    first = workloads.input_order(workload, 7)
    assert first == workloads.input_order(workload, 7)
    assert sorted(first) == sorted(workload.pool)
    assert set(REFERENCE[name]) == {str(seed) for seed in workload.pool}


def test_sweep_inputs_are_identical_for_a_fixed_seed():
    assert workloads.sweep_spec(1).digest() == workloads.sweep_spec(1).digest()
    assert workloads.sweep_spec(1).digest() != workloads.sweep_spec(0).digest()
    assert workloads.sweep_spec(1).n_cells == len(REFERENCE["sweep-faulted"]["1"]["cells"])


# -- self time and accounting ----------------------------------------------


def test_self_time_and_accounting_on_a_synthetic_tree():
    clock = FakeClock()
    recorder = Recorder(clock=clock)

    def at(time, action, *args):
        clock.now = time
        return action(*args)

    op = at(0.0, recorder.enter, "op", True)
    evolve = at(1.0, recorder.enter, "bti.evolve", True, 100)
    inner = at(1.5, recorder.enter, "bti.evolve", True, 100)  # evolve_phase -> evolve
    check = at(2.0, recorder.enter, "guard.check", False)
    at(3.0, recorder.exit, check)
    at(4.0, recorder.exit, inner)
    at(6.0, recorder.exit, evolve)
    check = at(7.0, recorder.enter, "guard.check", False)
    at(8.0, recorder.exit, check)
    at(10.0, recorder.exit, op)

    evolve_stats = recorder.layers["bti.evolve"]
    assert (evolve_stats.calls, evolve_stats.total_s, evolve_stats.elements) == (1, 5.0, 100)
    assert evolve_stats.self_s == pytest.approx(4.0)  # 5 s minus the 1 s check
    assert recorder.layers["guard.check"].calls == 2
    assert recorder.layers["guard.check"].self_s == pytest.approx(2.0)
    assert recorder.layers["op"].self_s == pytest.approx(4.0)

    table = accounting(recorder.layers, 10.0)
    assert table["attributed_s"] == pytest.approx(6.0)
    assert table["unattributed_s"] == pytest.approx(4.0)
    assert table["unattributed_share"] == pytest.approx(0.4)
    assert [row[0] for row in table["rows"]] == ["bti.evolve", "guard.check"]

    assert [span[1] for span in recorder.spans] == ["bti.evolve", "bti.evolve", "op"]
    assert recorder.spans[0][4] == recorder.spans[1][0]  # inner evolve's parent


# -- wrappers --------------------------------------------------------------


def _targets():
    import importlib

    found = []
    for wrap in layers.WRAPS:
        module = importlib.import_module(wrap.module)
        owner_name, _, name = wrap.attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        found.append((wrap, owner, name, vars(owner).get(name)))
    return found


def test_wrappers_are_restored_after_a_traced_run():
    import repro.core
    import repro.dependability
    from repro.fpga.counter import ReadoutCounter

    before = _targets()
    rebound_before = (repro.core.project_lifetime, repro.dependability.analyze_sweep)
    recorder = Recorder()
    with Installed(recorder):
        assert repro.dependability.analyze_sweep is not rebound_before[1]
        ReadoutCounter().read(1.0e6, rng=0)
    assert recorder.layers["fpga.counter"].calls == 1

    for (wrap, owner, name, original), (_, _, _, now) in zip(before, _targets()):
        assert now is original, f"{wrap.attribute} was not restored"
    assert (repro.core.project_lifetime, repro.dependability.analyze_sweep) == rebound_before
    assert not any(isinstance(finder, Installed) for finder in sys.meta_path)
    ReadoutCounter().read(1.0e6, rng=0)
    assert recorder.layers["fpga.counter"].calls == 1  # nothing leaks afterwards


@pytest.fixture
def tiny_module(tmp_path, monkeypatch):
    (tmp_path / "perfbench_tiny.py").write_text(textwrap.dedent("""
        def work(n):
            return sum(range(n))
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "perfbench_tiny"
    sys.modules.pop("perfbench_tiny", None)


def test_modules_imported_while_traced_are_wrapped_then_restored(tiny_module):
    recorder = Recorder()
    installed = Installed(recorder, wraps=(Wrap("tiny", tiny_module, "work", span=True),))
    assert tiny_module not in sys.modules  # installing imports nothing
    import perfbench_tiny

    assert perfbench_tiny.work(10) == 45
    installed.remove()
    assert recorder.layers["tiny"].calls == 1
    assert not hasattr(perfbench_tiny.work, "__wrapped__")


def _call_tiny():
    import perfbench_tiny

    perfbench_tiny.work(1000)


def test_spans_of_forked_children_are_collected(tiny_module, tmp_path):
    import perfbench_tiny  # noqa: F401  imported before the fork, wrapped at install

    recorder = Recorder(child_dir=tmp_path)
    with Installed(recorder, wraps=(Wrap("tiny", tiny_module, "work", span=True),)):
        process = multiprocessing.get_context("fork").Process(target=_call_tiny)
        process.start()
        process.join(30)
        assert not process.is_alive() and process.exitcode == 0
    spans, roots = recorder.collect_children()
    assert [span[1] for span in spans] == ["tiny"]
    assert roots == [spans[0][2:4]]
    assert recorder.layers["tiny"].calls == 1
    assert not list(tmp_path.glob("child-*.jsonl"))


# -- correctness accounting ------------------------------------------------


def _unit(outputs):
    return workloads.Unit(1.0, [1.0], outputs.get("measurements", 0), outputs)


@pytest.mark.parametrize("name", ["table1-exact", "fleet-exact", "fleet-binned"])
def test_a_perturbed_campaign_result_counts_as_an_error(name):
    reference = REFERENCE[name]["0"]
    tally = run.Tally(REFERENCE[name])
    tally.add(0, _unit(copy.deepcopy(reference)))
    assert (tally.attempted, tally.failed, tally.digest_matches) == (1, 0, 1)

    perturbed = copy.deepcopy(reference)
    perturbed["final_pct"][0] *= 1.0 + 1e-6
    tally.add(0, _unit(perturbed))
    miscounted = copy.deepcopy(reference)
    miscounted["measurements"] += 1
    tally.add(0, _unit(miscounted))
    tally.add(0, workloads.Unit(1.0, [1.0], 0, None, "RuntimeError: boom"))
    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.failed / tally.attempted == pytest.approx(0.75)

    rebits = copy.deepcopy(reference)
    rebits["digest"] = "0" * 16  # bits differ, results agree: not a failure
    assert workloads.check(_unit(rebits), reference) == (1, 0, 0)


def test_a_perturbed_sweep_cell_counts_as_an_error():
    reference = REFERENCE["sweep-faulted"]["0"]
    n_cells = len(reference["cells"])
    assert workloads.check(_unit(copy.deepcopy(reference)), reference) == (
        n_cells, 0, n_cells)
    perturbed = copy.deepcopy(reference)
    cell_id = sorted(perturbed["cells"])[3]
    perturbed["cells"][cell_id] = ["failed", perturbed["cells"][cell_id][1]]
    assert workloads.check(_unit(perturbed), reference)[1] == 1
    raised = workloads.Unit(1.0, [0.1] * n_cells, 0, None, "boom")
    assert workloads.check(raised, reference) == (n_cells, n_cells, 0)


def test_a_unit_that_raises_is_a_failed_unit(tmp_path):
    def execute(seed, scratch, tracer):
        raise RuntimeError("boom")

    workload = workloads.Workload(
        name="broken", pool=(0,), entry_modules=(), execute=execute,
        summarize=None, warm=None, n_ops=4,
    )
    unit = workloads.run_unit(workload, 0, tmp_path)
    assert unit.outputs is None and "boom" in unit.error and len(unit.op_s) == 4


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    recorder = Recorder()
    reported = run.layer_metrics(recorder, [], 1, 1, 1.0, accounting({}, 1.0))
    reported.update({"obs.trace_overhead": 0, "lab.campaign.digest_matches": 0, "error_rate": 0})
    assert sorted(reported) == sorted(metric["name"] for metric in bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in {metric["name"] for metric in bench["end_to_end"]}
