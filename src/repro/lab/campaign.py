"""The paper's Table 1 campaign on its five chips.

Each chip runs a 2 h baseline burn-in and then its Table 1 cases: chip 1
the 24 h AC stress, chips 2-4 a 24 h DC stress and one recovery case,
chip 5 stress, recovery, a 48 h re-stress and a 12 h recovery.
:func:`run_table1_campaign` is the exact, record-keeping form of the one
campaign engine, :func:`repro.lab.fleet.run_fleet_campaign`: every chip
is simulated exactly, every record is kept, and ``result.chips`` holds a
view of every chip for follow-up what-if experiments.  Faults, retries,
checkpoints, physics guards and the determinism sanitizer all ride on
that engine.
"""

from __future__ import annotations

from repro.guard import GuardConfig
from repro.lab.faults import FaultPlan
from repro.lab.fleet import CampaignResult, fleet_chip_no, run_fleet_campaign
from repro.lab.resilience import RetryPolicy
from repro.lab.schedule import CHIP_SEQUENCES, standard_case
from repro.obs import ProgressReporter
from repro.units import hours

__all__ = ["CampaignResult", "run_table1_campaign", "table1_horizon"]


def table1_horizon(n_chips: int = 5, include_baseline: bool = True) -> float:
    """Longest per-chip simulated schedule length in seconds.

    The natural horizon for :meth:`FaultPlan.generate`: fault times are
    drawn on each chip's own clock, which spans at most this long.  Lots
    larger than five chips tile the five schedule rows.
    """
    baseline = hours(2.0) if include_baseline else 0.0
    return max(
        baseline
        + sum(standard_case(name, row).total_duration for name in CHIP_SEQUENCES[row])
        for row in {fleet_chip_no(index) for index in range(n_chips)}
    )


def run_table1_campaign(
    seed: int | None = 0,
    n_chips: int = 5,
    include_baseline: bool = True,
    tracer=None,
    progress: ProgressReporter | None = None,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    checkpoint: "str | None" = None,
    resume: bool = False,
    guard: GuardConfig | None = None,
    sanitize: bool = False,
) -> CampaignResult:
    """Run the full Table 1 schedule and return the result.

    Chip execution order follows the paper: each chip runs its stress case
    then its recovery case; chip 5 additionally re-stresses for 48 h and
    runs the 12 h recovery (``AR110N12``).  Chips beyond the fifth tile
    the five schedule rows.  Every baseline runs first, then the cases;
    the merged log holds every baseline, then every chip's cases, in chip
    order.

    The options are those of :func:`~repro.lab.fleet.run_fleet_campaign`
    (tracing, progress lines, faults, retries, checkpoint/resume,
    per-chip guards, the determinism sanitizer), run at exact fidelity
    in one process with every record kept.
    """
    return run_fleet_campaign(
        seed=seed,
        n_chips=n_chips,
        include_baseline=include_baseline,
        fidelity="exact",
        collect="records",
        tracer=tracer,
        progress=progress,
        faults=faults,
        retry=retry,
        checkpoint=checkpoint,
        resume=resume,
        guard=guard,
        sanitize=sanitize,
    )
