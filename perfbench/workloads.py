"""The benchmark's workloads: inputs, the timed unit of work, and its check.

Every workload draws its inputs from a fixed pool of campaign seeds whose
outputs the seed program recorded in ``reference.json`` (see
``record_reference.py``).  The benchmark's ``--seed`` fixes the order in
which a run visits the pool; a run always visits the whole pool, so the
accuracy figure (``paper_dc24_err_pp``) covers the same chips every run.

A *unit* is what one call times: a Table 1 campaign, a fleet lot, or a
whole sweep plus its analysis.  An *op* is what the metrics count: one
campaign, one lot, or one sweep cell.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.dependability import SweepRunner, SweepSpec, analyze_sweep
from repro.lab import campaign as campaign_module
from repro.lab import fleet as fleet_module

#: The paper's DC frequency degradation after 24 h at 110 degC, in percent
#: (``repro.experiments.calibration.PAPER_TARGETS["dc_degradation_percent_110"]``).
PAPER_DC24_PCT = 2.3
DC24_CASE = "AS110DC24"

#: Per-chip results must agree with the reference to this relative
#: tolerance; bit-identity is reported separately as digest matches.
REL_TOL = 1e-9


@dataclass
class Unit:
    """The outcome of one timed unit."""

    wall_s: float
    op_s: list[float]
    measurements: int
    outputs: dict | None  # None when the unit raised
    error: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    pool: tuple[int, ...]
    entry_modules: tuple[str, ...]  # what a fresh process imports (setup_s)
    execute: Callable  # (seed, scratch, tracer) -> raw result, timed
    summarize: Callable  # (raw) -> (op_s override or None, measurements, outputs)
    warm: Callable | None  # (scratch) -> None, a small instance of the same work
    n_ops: int = 1  # ops per unit when the unit raises


# -- campaign outputs ----------------------------------------------------


def log_outputs(log, fresh_delays: dict[str, float]) -> dict:
    """Digest, per-chip final degradation and DC24 degradation of a log.

    Degradation is ``100 * (1 - f / f_fresh)`` with ``f_fresh = 1 / (2 *
    fresh_delay)``, the paper's Fig. 4/5 view.  Summary-mode fleet logs
    keep each phase's last record, so the same fold works for both.
    """
    digest = hashlib.sha256()
    final: dict[str, float] = {}
    dc24: dict[str, float] = {}
    for record in log:
        digest.update(repr(record).encode())
        final[record.chip_id] = record.frequency
        if record.case == DC24_CASE:
            dc24[record.chip_id] = record.frequency

    def pct(chip_id: str, frequency: float) -> float:
        return 100.0 * (1.0 - frequency * 2.0 * fresh_delays[chip_id])

    def chip_order(chip_id: str) -> int:
        return int(chip_id.rsplit("-", 1)[1])

    return {
        "digest": digest.hexdigest()[:16],
        "final_pct": [pct(c, final[c]) for c in sorted(final, key=chip_order)],
        "dc24_pct": [pct(c, dc24[c]) for c in sorted(dc24, key=chip_order)],
    }


def _table1_execute(seed, scratch, tracer):
    return campaign_module.run_table1_campaign(seed=seed)


def _table1_summarize(result):
    outputs = log_outputs(result.log, result.fresh_delays)
    outputs["measurements"] = len(result.log)
    return None, outputs["measurements"], outputs


def _fleet_execute(n_chips: int, fidelity: str, batch_size: int | None):
    def execute(seed, scratch, tracer):
        return fleet_module.run_fleet_campaign(
            seed=seed, n_chips=n_chips, fidelity=fidelity, collect="summary",
            batch_size=batch_size,
        )

    return execute


def _fleet_summarize(result):
    outputs = log_outputs(result.log, result.fresh_delays)
    outputs["measurements"] = result.total_measurements
    return None, result.total_measurements, outputs


# -- the sweep -----------------------------------------------------------


def sweep_spec(seed: int, alphas=(1.0, 8.0), fault_rates=(0.0, 24.0),
               dropout_probs=(0.0, 0.2)) -> SweepSpec:
    """2-chip Table 1 cells without baseline, lifetime projection on."""
    return SweepSpec(
        name=f"perfbench-{seed}",
        engine="table1",
        n_chips=2,
        include_baseline=False,
        fault_rates=fault_rates,
        dropout_probs=dropout_probs,
        upset_probs=(0.25,),
        guard_modes=("clamp",),
        alphas=alphas,
        seeds=(seed,),
    )


#: Kill a hung cell well inside the run's time limit.
CELL_TIMEOUT_S = 60.0


def _run_sweep(spec: SweepSpec, directory: Path, tracer, isolation: str = "process"):
    """Run and analyse one sweep; the analysis is part of the timed unit."""
    try:
        result = SweepRunner(
            spec, directory, isolation=isolation, timeout_s=CELL_TIMEOUT_S, tracer=tracer
        ).run()
        analyze_sweep(result)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return result


def _sweep_execute(seed, scratch, tracer):
    return _run_sweep(sweep_spec(seed), scratch / f"sweep-{seed}", tracer)


def _sweep_summarize(result):
    cells = {}
    measurements = 0
    quarantines = 0
    for outcome in result.outcomes:
        cells[outcome.cell_id] = [outcome.status, outcome.digest]
        if outcome.ok:
            measurements += outcome.stats["measurements"]
            quarantines += outcome.stats["quarantined_count"]
    outputs = {
        "cells": cells,
        "measurements": measurements,
        "quarantines": quarantines,
        "degraded": len(result.degraded_cells),
    }
    return [outcome.wall_s for outcome in result.outcomes], measurements, outputs


#: The sweep's fault-free cell: index 0 of :func:`sweep_spec`'s grid.
PROBE_CELL = "cell-0000"


def _probe_spec(seed: int) -> SweepSpec:
    return sweep_spec(seed, alphas=(1.0,), fault_rates=(0.0,), dropout_probs=(0.0,))


def sweep_probe(seed: int, scratch: Path) -> dict:
    """Rerun the fault-free cell inline and read its DC24 degradation.

    Cell stats keep a digest, not the records, so the cell's campaign
    result is captured on the way out.  The rerun cell is the sweep's
    :data:`PROBE_CELL` (same index, same fault seed), so its stats digest
    must equal that cell's for the DC24 figure to be the sweep's own.
    """
    captured = []
    original = campaign_module.run_table1_campaign

    def capture(*args, **kwargs):
        captured.append(original(*args, **kwargs))
        return captured[-1]

    campaign_module.run_table1_campaign = capture
    try:
        result = _run_sweep(_probe_spec(seed), scratch / f"probe-{seed}", None, "inline")
    finally:
        campaign_module.run_table1_campaign = original
    outputs = log_outputs(captured[0].log, captured[0].fresh_delays)
    return {"digest": result.outcomes[0].digest, "dc24_pct": outputs["dc24_pct"]}


# -- warm-up: a small instance of each unit ------------------------------


def _warm_table1(scratch):
    campaign_module.run_table1_campaign(seed=0, n_chips=1, include_baseline=False)


def _warm_fleet(fidelity: str, n_chips: int, batch_size: int | None):
    def warm(scratch):
        fleet_module.run_fleet_campaign(
            seed=0, n_chips=n_chips, fidelity=fidelity, collect="summary",
            batch_size=batch_size, include_baseline=False,
        )

    return warm


FLEET_EXACT_CHIPS = 10
FLEET_BINNED_CHIPS = 128
FLEET_BINNED_BATCH = 64

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="table1-exact",
            pool=tuple(range(8)),
            entry_modules=("repro.lab.campaign",),
            execute=_table1_execute,
            summarize=_table1_summarize,
            warm=_warm_table1,
        ),
        Workload(
            name="fleet-exact",
            pool=tuple(range(3)),
            entry_modules=("repro.lab.fleet",),
            execute=_fleet_execute(FLEET_EXACT_CHIPS, "exact", None),
            summarize=_fleet_summarize,
            warm=_warm_fleet("exact", 2, None),
        ),
        Workload(
            name="fleet-binned",
            pool=tuple(range(6)),
            entry_modules=("repro.lab.fleet",),
            execute=_fleet_execute(FLEET_BINNED_CHIPS, "binned", FLEET_BINNED_BATCH),
            summarize=_fleet_summarize,
            warm=_warm_fleet("binned", 4, 2),
        ),
        Workload(
            name="sweep-faulted",
            pool=tuple(range(2)),
            entry_modules=("repro.dependability",),
            execute=_sweep_execute,
            summarize=_sweep_summarize,
            # Not warmed: every cell is a fresh fork that pays its own
            # imports and cold caches, as it does for users.
            warm=None,
            n_ops=sweep_spec(0).n_cells,
        ),
    )
}


def input_order(workload: Workload, seed: int) -> list[int]:
    """The order a run visits the workload's pool, fixed by ``seed``."""
    return [int(value) for value in np.random.default_rng(seed).permutation(workload.pool)]


def run_unit(workload: Workload, seed: int, scratch: Path, tracer=None, on_done=None) -> Unit:
    """Time one unit; a unit that raises becomes a failed :class:`Unit`.

    ``on_done(end)`` runs after the timed region, before the outputs are
    folded (the traced run grafts child spans there).
    """
    start = time.perf_counter()
    try:
        raw = workload.execute(seed, scratch, tracer)
        error = ""
    except Exception as exc:  # a failed op is counted, not raised
        raw, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if on_done is not None:
        on_done(start + wall)
    if error:
        return Unit(wall, [wall / workload.n_ops] * workload.n_ops, 0, None, error)
    op_s, measurements, outputs = workload.summarize(raw)
    return Unit(wall, op_s if op_s is not None else [wall], measurements, outputs)


def _close(values, reference) -> bool:
    return len(values) == len(reference) and all(
        math.isclose(value, ref, rel_tol=REL_TOL, abs_tol=1e-12)
        for value, ref in zip(values, reference)
    )


def check(unit: Unit, reference: dict) -> tuple[int, int, int]:
    """(attempted, failed, digest matches) of one unit against its reference.

    A campaign op fails when it raised, when its measurement count
    changed, or when a per-chip result differs from the reference.  A
    sweep cell fails when its status or stats digest differs; cells the
    faultload degrades or quarantines by design are in the reference.
    """
    outputs = unit.outputs
    if "cells" in reference:
        cells = reference["cells"]
        if outputs is None:
            return len(cells), len(cells), 0
        failed = sum(outputs["cells"].get(cell_id) != expected
                     for cell_id, expected in cells.items())
        matches = sum(outputs["cells"].get(cell_id, [None, None])[1] == expected[1]
                      for cell_id, expected in cells.items())
        return len(cells), failed, matches
    if outputs is None:
        return 1, 1, 0
    ok = (
        outputs["measurements"] == reference["measurements"]
        and _close(outputs["final_pct"], reference["final_pct"])
        and _close(outputs["dc24_pct"], reference["dc24_pct"])
    )
    return 1, int(not ok), int(outputs["digest"] == reference["digest"])
