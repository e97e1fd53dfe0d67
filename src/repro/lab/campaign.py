"""Multi-chip campaign runner reproducing the paper's Table 1 schedule.

Chips on the bench are fully independent — each owns its chip, testbench
and RNG child streams — so the campaign runs one chip's whole schedule
(baseline burn-in, then its Table 1 cases) at a time, in chip order, and
merges the per-chip logs as every baseline followed by every case.
Faults, retries, checkpoints, physics guards and the determinism
sanitizer all ride on that one per-chip schedule.  To spread a lot over
cores, use the fleet engine's process shards
(:func:`repro.lab.fleet.run_fleet_campaign`), which at exact fidelity is
bit-identical to this runner for the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.device.technology import TechnologyParameters, TECH_40NM
from repro.device.variation import ProcessVariation
from repro.errors import (
    CheckpointError,
    ChipDropoutError,
    ConfigurationError,
    RetryExhaustedError,
    ScheduleError,
)
from repro.fpga.chip import FpgaChip
from repro.guard import Guard, GuardConfig
from repro.lab.datalog import DataLog
from repro.lab.faults import FaultInjector, FaultPlan
from repro.lab.measurement import VirtualTestbench
from repro.lab.resilience import (
    CheckpointStore,
    QuarantineReport,
    ResilientTestbench,
    RetryPolicy,
)
from repro.lab.sanitizer import NULL_SANITIZER, DeterminismSanitizer
from repro.lab.schedule import (
    CHIP_SEQUENCES,
    TestCase,
    TestPhase,
    baseline_phase,
    standard_case,
)
from repro.obs import NULL_PROGRESS, ProgressReporter, get_tracer
from repro.obs.profile import CaseThroughputSampler
from repro.units import hours


def _build_chip(
    chip_no: int,
    variation: ProcessVariation,
    chip_stream: np.random.Generator,
    tracer,
    guard: GuardConfig | None = None,
    tech: TechnologyParameters = TECH_40NM,
) -> FpgaChip:
    """Chip ``chip-<chip_no>``, seeded by one draw from ``chip_stream``.

    A ``guard`` config gets its own :class:`Guard` per chip, so violation
    counts and budgets stay chip-local: the quarantine decision must not
    depend on what other chips did.  ``None`` leaves the chip on the
    ambient guard.
    """
    chip_id = f"chip-{chip_no}"
    return FpgaChip(
        chip_id,
        tech=tech,
        variation=variation,
        seed=int(chip_stream.integers(2**31)),
        tracer=tracer,
        guard=Guard(guard, tracer=tracer, owner=chip_id) if guard is not None else None,
    )


def _run_case_phases(
    tracer,
    cases_counter,
    bench: VirtualTestbench,
    case_name: str,
    phases: tuple[TestPhase, ...] | list[TestPhase],
    log: DataLog,
    sanitizer=NULL_SANITIZER,
) -> None:
    """Execute one case's phases on a bench inside a ``case`` span.

    The single definition of the case-span discipline, shared by
    :meth:`Campaign.run_case` and the per-chip campaign schedule.  The
    throughput sampler turns the case's counter deltas into per-case
    derived gauges (measurements/s, trap updates/s) — a no-op on the
    null tracer.  With a live ``sanitizer`` every finished phase is
    hashed (records + trap + RNG state) into a ``state_hash`` span
    nested under the case span.
    """
    sampler = CaseThroughputSampler(tracer)
    with tracer.span("case", case=case_name, chip_id=bench.chip.chip_id) as span:
        sim_start = bench.chip.elapsed
        for phase in phases:
            phase_start = len(log)
            bench.run_phase(phase, case_name, log)
            sanitizer.record_phase(tracer, bench, case_name, phase, log, phase_start)
        span.set("sim_advanced", bench.chip.elapsed - sim_start)
    cases_counter.inc()
    sampler.finish(span)


@dataclass
class CampaignResult:
    """Everything a campaign produced.

    ``log`` holds every measurement; ``chips`` the final chip states (for
    follow-up what-if experiments); ``fresh_delays`` the per-chip fresh CUT
    delay, needed to convert absolute delay readings into delay change.
    ``quarantined`` flags chips pulled from the bench mid-campaign (chip
    dropout, retries exhausted) — their measurements up to the failure are
    kept in ``log``, and the campaign completes on the survivors.
    ``state_hashes`` is populated only under ``sanitize=True``: one
    digest per ``chip/seq`` phase boundary, identical across runs of
    the same seed (and across the exact fleet engine).
    """

    log: DataLog
    chips: dict[str, FpgaChip]
    fresh_delays: dict[str, float] = field(default_factory=dict)
    quarantined: dict[str, QuarantineReport] = field(default_factory=dict)
    state_hashes: dict[str, str] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True when every chip finished its full schedule."""
        return not self.quarantined

    def _case_records(self, case: str, chip_no: int | None) -> DataLog:
        """Records of one case, disambiguated to a single chip.

        Several Table-1 chips run the same stress case name; a series must
        come from exactly one chip or the time axis interleaves.
        """
        records = self.log.filter(case=case)
        if chip_no is not None:
            records = records.filter(chip_id=f"chip-{chip_no}")
        if len(records) == 0:
            raise ScheduleError(f"no records for case {case!r} (chip_no={chip_no})")
        chip_ids = {record.chip_id for record in records}
        if len(chip_ids) > 1:
            raise ScheduleError(
                f"case {case!r} was run on chips {sorted(chip_ids)}; pass chip_no "
                "to select one"
            )
        return records

    def delay_change_series(
        self, case: str, chip_no: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(phase_elapsed, dTd) for a case, relative to the chip's fresh delay.

        For recovery cases the first sample (phase_elapsed 0) is the end of
        the preceding stress, so the series starts at the stressed level
        and falls — the paper's Fig. 8 view.
        """
        records = self._case_records(case, chip_no)
        times, delays = records.series("delay")
        chip_id = records.first().chip_id
        return times, delays - self.fresh_delays[chip_id]

    def degradation_percent_series(
        self, case: str, chip_no: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(phase_elapsed, frequency degradation %) — the paper's Fig. 4/5 view."""
        records = self._case_records(case, chip_no)
        times, freqs = records.series("frequency")
        chip_id = records.first().chip_id
        fresh_frequency = 1.0 / (2.0 * self.fresh_delays[chip_id])
        return times, 100.0 * (1.0 - freqs / fresh_frequency)


class Campaign:
    """A set of chips, their testbenches, and a shared data log.

    The interactive counterpart of :func:`run_table1_campaign`: chips are
    built and seeded exactly as the campaign builds them, and
    :meth:`run_case` runs any case on its chip.

    Parameters
    ----------
    n_chips:
        Chips on the bench ("chip-1" .. "chip-N"); the paper uses five.
    tech / variation:
        Shared process; each chip samples its own variation so fresh
        frequencies differ, as the paper observes.
    seed:
        Master seed; chips and bench noise get independent child streams.
    tracer:
        Telemetry sink shared by the chips and benches; defaults to the
        process tracer (a no-op unless one was installed).
    """

    def __init__(
        self,
        n_chips: int = 5,
        tech: TechnologyParameters = TECH_40NM,
        variation: ProcessVariation | None = None,
        seed: int | None = 0,
        tracer=None,
    ) -> None:
        if n_chips <= 0:
            raise ScheduleError(f"n_chips must be positive, got {n_chips}")
        master = np.random.default_rng(seed)
        self.tracer = tracer if tracer is not None else get_tracer()
        self.log = DataLog()
        self.chips: dict[str, FpgaChip] = {}
        self.benches: dict[str, VirtualTestbench] = {}
        self._cases_run = self.tracer.counter(
            "campaign.cases", "test cases executed across campaigns"
        )
        variation = variation if variation is not None else ProcessVariation()
        for index in range(n_chips):
            chip_stream, bench_stream = master.spawn(2)
            chip = _build_chip(index + 1, variation, chip_stream, self.tracer, tech=tech)
            self.chips[chip.chip_id] = chip
            self.benches[chip.chip_id] = VirtualTestbench(
                chip, rng=bench_stream, tracer=self.tracer
            )
        self.fresh_delays = {cid: chip.fresh_path_delay for cid, chip in self.chips.items()}

    def chip_id(self, chip_no: int) -> str:
        """Map a Table-1 chip number to its bench identifier."""
        chip_id = f"chip-{chip_no}"
        if chip_id not in self.chips:
            raise ScheduleError(f"no chip number {chip_no} on this bench")
        return chip_id

    def run_case(self, case: TestCase) -> None:
        """Execute a case's phases on its chip, appending to the shared log."""
        bench = self.benches[self.chip_id(case.chip_no)]
        _run_case_phases(
            self.tracer, self._cases_run, bench, case.name, case.phases, self.log
        )


class _Tally:
    """Campaign-wide running totals behind the per-case progress lines."""

    def __init__(self, progress: ProgressReporter, cases_total: int, chips_total: int):
        self.progress = progress
        self.cases_total = cases_total
        self.chips_total = chips_total
        self.cases = self.chips = self.retries = self.quarantined = 0

    def case_done(self, chip_id: str, case_name: str, chip_retries: int) -> None:
        """One ``case_done`` line; ``chip_retries`` counts this chip's so far."""
        self.cases += 1
        self.progress.case_done(
            chip_id,
            case_name,
            self.cases,
            self.cases_total,
            self.chips,
            self.chips_total,
            retries=self.retries + chip_retries,
            quarantined=self.quarantined,
        )

    def chip_done(self, chip_retries: int, quarantined: bool) -> None:
        """Fold a finished (or quarantined) chip into the totals."""
        self.chips += 1
        self.retries += chip_retries
        self.quarantined += int(quarantined)


def _chip_schedule(
    chip_no: int,
    case_names: tuple[str, ...],
    include_baseline: bool,
    variation: ProcessVariation,
    chip_stream: np.random.Generator,
    bench_stream: np.random.Generator,
    tracer,
    tally: _Tally,
    plan: FaultPlan | None,
    retry: RetryPolicy | None,
    store: CheckpointStore | None,
    guard_config: GuardConfig | None,
    sanitizer,
) -> tuple[FpgaChip, DataLog, DataLog, QuarantineReport | None]:
    """One chip's schedule with faults, retries and checkpointing.

    Baseline and case records come back as separate logs so the campaign
    can merge every baseline ahead of every case.  On resume the chip is
    rebuilt from its seed (cheap, deterministic), its trap state and the
    bench RNG are rewound from the checkpoint, and only the unfinished
    tail of the schedule runs.

    A clamp-mode guard whose violation budget runs out raises
    :class:`~repro.errors.ChipDropoutError` from inside the model stack;
    it is caught below exactly like an instrument dropout, so the chip
    lands in quarantine and the campaign completes on the survivors.
    """
    chip = _build_chip(chip_no, variation, chip_stream, tracer, guard_config)
    baseline_log, case_log = DataLog(), DataLog()
    completed: list[str] = []
    quarantine: QuarantineReport | None = None
    if store is not None:
        loaded = store.load_chip(chip, bench_stream)
        if loaded is not None:
            baseline_log, case_log, completed, quarantine = loaded
    if plan is not None:
        injector = FaultInjector(plan, chip.chip_id, start_time=chip.elapsed, tracer=tracer)
        bench: VirtualTestbench = ResilientTestbench(
            chip, injector=injector, retry=retry, rng=bench_stream, tracer=tracer
        )
    else:
        bench = VirtualTestbench(chip, rng=bench_stream, tracer=tracer)
    cases_counter = tracer.counter(
        "campaign.cases", "test cases executed across campaigns"
    )
    quarantines_counter = tracer.counter(
        "campaign.quarantines", "chips pulled from the bench mid-campaign"
    )
    schedule: list[tuple[str, tuple[TestPhase, ...], DataLog]] = []
    if include_baseline:
        schedule.append((f"BASELINE-{chip.chip_id}", (baseline_phase(),), baseline_log))
    for name in case_names:
        schedule.append((name, standard_case(name, chip_no).phases, case_log))
    for index, (case_name, phases, log) in enumerate(schedule):
        if quarantine is not None:
            break
        if index < len(completed):
            if completed[index] != case_name:
                raise CheckpointError(
                    f"checkpoint for {chip.chip_id} completed {completed[index]!r} "
                    f"at position {index}, but the schedule says {case_name!r}"
                )
            continue
        try:
            _run_case_phases(tracer, cases_counter, bench, case_name, phases, log, sanitizer)
        except (ChipDropoutError, RetryExhaustedError) as error:
            # Graceful degradation: keep the records taken so far, flag
            # the chip, and let the rest of the campaign finish.
            quarantine = QuarantineReport(
                chip_id=chip.chip_id,
                case=case_name,
                sim_time=chip.elapsed,
                reason=str(error),
            )
            quarantines_counter.inc()
            if store is not None:
                store.save_chip(
                    chip, bench_stream, baseline_log, case_log, completed, quarantine
                )
            break
        completed.append(case_name)
        if store is not None:
            store.save_chip(chip, bench_stream, baseline_log, case_log, completed)
        tally.case_done(chip.chip_id, case_name, getattr(bench, "retries_taken", 0))
    tally.chip_done(getattr(bench, "retries_taken", 0), quarantine is not None)
    return chip, baseline_log, case_log, quarantine


def table1_horizon(n_chips: int = 5, include_baseline: bool = True) -> float:
    """Longest per-chip simulated schedule length in seconds.

    The natural horizon for :meth:`FaultPlan.generate`: fault times are
    drawn on each chip's own clock, which spans at most this long.
    """
    horizon = 0.0
    for chip_no, names in CHIP_SEQUENCES.items():
        if chip_no > n_chips:
            continue
        total = hours(2.0) if include_baseline else 0.0
        total += sum(standard_case(name, chip_no).total_duration for name in names)
        horizon = max(horizon, total)
    return horizon


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
    runs the 12 h recovery (``AR110N12``).  Chips run one after another,
    each through its baseline burn-in and then its cases; the merged log
    holds every baseline first, then every chip's cases, in chip order.

    ``tracer`` wraps the run in a ``campaign`` span (cases and phases
    nest under it) and records the simulated-seconds-per-wall-second
    throughput; ``progress`` gets one line per completed case, with live
    retry/quarantine tallies.

    Resilience: ``faults`` installs a :class:`FaultPlan` (chips it never
    names stay bit-identical to a fault-free run); ``retry`` bounds the
    sample re-reads taken on transient faults; ``checkpoint`` names a
    directory that receives a per-chip snapshot after every completed
    case, and ``resume=True`` continues a campaign previously
    checkpointed there without replaying finished chips.  A chip that
    drops out (or exhausts its retries) is quarantined: the campaign
    completes on the survivors and reports the gap in
    ``CampaignResult.quarantined``.

    ``guard`` installs a physics-contract :class:`~repro.guard.GuardConfig`
    on every chip (each chip gets its own :class:`~repro.guard.Guard`
    instance, so violation budgets are per chip).  In clamp mode a chip
    that exhausts its violation budget is quarantined exactly like a
    dropout; in raise mode the first violation aborts the campaign with
    a replayable repro bundle.

    ``sanitize`` turns on the determinism sanitizer: every chip's state
    (records, trap occupancy, bench RNG) is hashed at each phase
    boundary into ``CampaignResult.state_hashes`` and, when a tracer is
    live, into ``state_hash`` spans that ``repro trace diff`` compares —
    any two runs of one seed, and the exact fleet engine, must produce
    identical digests.
    """
    tracer = tracer if tracer is not None else get_tracer()
    progress = progress if progress is not None else NULL_PROGRESS
    store = None
    if checkpoint is not None:
        store = CheckpointStore(checkpoint)
        if store.read_manifest() is not None and not resume:
            raise CheckpointError(
                f"{checkpoint} already holds a campaign checkpoint; pass "
                "resume=True (--resume) to continue it or use a fresh directory"
            )
        store.init_manifest(seed, n_chips, include_baseline)
    elif resume:
        raise ConfigurationError("resume requires a checkpoint directory")
    master = np.random.default_rng(seed)
    variation = ProcessVariation()
    sanitizer = DeterminismSanitizer() if sanitize else NULL_SANITIZER
    sequences = [CHIP_SEQUENCES.get(chip_no, ()) for chip_no in range(1, n_chips + 1)]
    tally = _Tally(
        progress,
        sum(len(names) + include_baseline for names in sequences),
        n_chips,
    )
    chips: dict[str, FpgaChip] = {}
    quarantined: dict[str, QuarantineReport] = {}
    baseline_logs: list[DataLog] = []
    case_logs: list[DataLog] = []
    with tracer.span("campaign", seed=seed, n_chips=n_chips) as span:
        for chip_no, case_names in enumerate(sequences, start=1):
            chip_stream, bench_stream = master.spawn(2)
            chip, baseline_log, case_log, quarantine = _chip_schedule(
                chip_no,
                case_names,
                include_baseline,
                variation,
                chip_stream,
                bench_stream,
                tracer,
                tally,
                faults,
                retry,
                store,
                guard,
                sanitizer,
            )
            chips[chip.chip_id] = chip
            baseline_logs.append(baseline_log)
            case_logs.append(case_log)
            if quarantine is not None:
                quarantined[chip.chip_id] = quarantine
        sim_total = float(sum(chip.elapsed for chip in chips.values()))
        span.set("sim_advanced", sim_total)
    if span.duration > 0.0:
        tracer.gauge(
            "campaign.sim_seconds_per_wall_second",
            "simulated time advanced per wall-clock second",
        ).set(sim_total / span.duration)
    return CampaignResult(
        log=DataLog.merge(baseline_logs + case_logs),
        chips=chips,
        fresh_delays={cid: chip.fresh_path_delay for cid, chip in chips.items()},
        quarantined=quarantined,
        state_hashes=dict(sanitizer.hashes),
    )
