"""The campaign engine: Table 1 in lock-step groups over a batched lot.

:class:`FleetBench` drives a :class:`~repro.fpga.fleet.FleetChip`
through the paper's measurement discipline in *lock-step groups*: all
chips running the same phase advance chunk by chunk together, with one
batched ``evolve`` per chunk and per-chip instrument noise drawn from
each chip's own bench stream, in exactly the order a lone chip's bench
draws it.  Each chip also carries its bench state beside the lot's
arrays: its :class:`~repro.lab.faults.FaultInjector`, retry tally, last
plausible count, its :class:`~repro.guard.Guard` (in the lot's
:class:`~repro.guard.ChipGuards`) and whether it is still on the bench.
A chip that drops out, exhausts its retries or its guard budget is
quarantined and skipped from then on: the group evolves the contiguous
runs of chips still on the bench, never a pulled chip for 0 s.
:class:`VirtualTestbench` is the one-chip view of a bench.

:func:`run_fleet_campaign` runs the schedule, and
:func:`~repro.lab.campaign.run_table1_campaign` is its exact,
record-keeping form.  Scale-out is layered on top:

* **batches** — a lot larger than ``batch_size`` is simulated in
  consecutive chip windows so the struct-of-arrays state stays inside
  a memory budget;
* **shards** (``--shard N``) — contiguous chip ranges dispatched to
  worker processes; every worker re-derives the full per-chip stream
  table from the master seed, so the shard cut never moves a stream,
  and the parent merges per-chip results in chip order.

Schedule: fleet chip ``i`` (0-based) runs a 2 h baseline burn-in, then
the Table 1 sequence of paper chip ``(i % 5) + 1`` — the five-row
schedule tiled across the lot.  Every chip's baseline runs first, as
one group; then each schedule row runs its cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import (
    CheckpointError,
    ChipDropoutError,
    ConfigurationError,
    CounterOverflowError,
    InstrumentError,
    MeasurementError,
    RetryExhaustedError,
    ScheduleError,
)
from repro.fpga.counter import ReadoutCounter
from repro.fpga.fleet import FleetChip, FpgaChip, contiguous_runs
from repro.fpga.ring_oscillator import StressMode
from repro.guard import Guard, GuardConfig
from repro.lab.clock_generator import ClockGenerator
from repro.lab.datalog import DataLog, MeasurementRecord
from repro.lab.faults import FaultInjector, FaultKind, FaultPlan
from repro.lab.power_supply import DcPowerSupply
from repro.lab.resilience import CheckpointStore, QuarantineReport, RetryPolicy
from repro.lab.sanitizer import DeterminismSanitizer, NULL_SANITIZER
from repro.lab.schedule import (
    CHIP_SEQUENCES,
    NOMINAL_RAIL,
    PhaseKind,
    TestPhase,
    baseline_phase,
    standard_case,
)
from repro.lab.thermal_chamber import ThermalChamber
from repro.obs import NULL_PROGRESS, ProgressReporter, get_tracer
from repro.obs.profile import CaseThroughputSampler

#: Memory-budget defaults: flat per-trap state is ~350k doubles per chip,
#: binned cell state a few thousand floats — sized for a ~200 MB ceiling.
DEFAULT_BATCH = {"exact": 64, "binned": 512}

#: Fleet lots larger than this default to the binned fidelity under
#: ``fidelity="auto"``; at or below it they stay exact (bit-identical).
AUTO_EXACT_LIMIT = 8


def fleet_chip_no(index: int) -> int:
    """Paper chip number (1-5) simulated at fleet position ``index``."""
    return (index % 5) + 1


def chip_schedule(index: int, include_baseline: bool = True) -> list[str]:
    """Case names fleet chip ``index`` runs, baseline first."""
    names = [f"BASELINE-chip-{index + 1}"] if include_baseline else []
    return names + list(CHIP_SEQUENCES[fleet_chip_no(index)])


class FleetBench:
    """The instrument stack over one :class:`FleetChip` batch.

    One shared chamber, supply and counter (chips sampled together always
    share setpoints) plus per-chip bench state in lists beside the lot:

    * ``rngs`` — one bench RNG per chip for delivered-value jitter and
      readout noise (``None`` for positions the bench never runs);
    * ``injectors`` — one :class:`FaultInjector` per chip, or ``None``
      for a fault-free bench, on which a readout error is fatal instead
      of retried under ``retry``;
    * ``retries`` and the last plausible count per chip;
    * ``quarantined`` — chips pulled from the bench, skipped by every
      later step.

    Faults act per chip: delivered temperature and voltage pick up the
    chip's drift and droop windows, its readout path fires pending
    one-shot faults, and a transient error makes that chip alone wait
    ``retry.backoff(k)`` at the phase bias and sample again.
    """

    #: Counts further than the last good sample that flag a corrupt readout.
    PLAUSIBILITY_COUNTS = 64

    def __init__(
        self,
        fleet: FleetChip,
        rngs,
        tracer=None,
        reads_per_sample: int = 3,
        sampling_overhead: float = 3.0,
        injectors=None,
        retry: RetryPolicy | None = None,
        chamber: ThermalChamber | None = None,
        supply: DcPowerSupply | None = None,
        clock: ClockGenerator | None = None,
    ) -> None:
        if reads_per_sample <= 0:
            raise ConfigurationError("reads_per_sample must be positive")
        if sampling_overhead < 0.0:
            raise ConfigurationError("sampling_overhead must be non-negative")
        if len(rngs) != fleet.n_chips:
            raise ConfigurationError("one bench RNG per fleet chip is required")
        if injectors is not None and len(injectors) != fleet.n_chips:
            raise ConfigurationError("one fault injector (or None) per fleet chip")
        n_chips = fleet.n_chips
        self.fleet = fleet
        self.rngs = list(rngs)
        self.injectors = list(injectors) if injectors is not None else None
        self.retry = retry if retry is not None else RetryPolicy()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.chamber = chamber or ThermalChamber()
        self.supply = supply or DcPowerSupply()
        self.clock = clock or ClockGenerator()
        self.counter = ReadoutCounter(fref=self.clock.frequency)
        self.reads_per_sample = reads_per_sample
        self.sampling_overhead = sampling_overhead
        #: Per-chip sample retries, counted even on the no-op tracer.
        self.retries = [0] * n_chips
        self._last_good: list[int | None] = [None] * n_chips
        #: The case each chip is running (records, spans, quarantine reports).
        self.case_of = [""] * n_chips
        #: Lot position -> why and when the chip left the bench.
        self.quarantined: dict[int, QuarantineReport] = {}
        #: Lot position -> the error that pulled it.
        self.errors: dict[int, Exception] = {}
        self._samples = self.tracer.counter(
            "lab.samples", "RO readout samples taken by testbenches"
        )
        self._records = self.tracer.counter(
            "datalog.records", "measurement records appended to campaign logs"
        )
        self._evaluations = self.tracer.counter(
            "ro.evaluations", "counter readouts taken from ring oscillators"
        )
        self._cases = self.tracer.counter(
            "campaign.cases", "test cases executed across campaigns"
        )
        self._quarantines = self.tracer.counter(
            "campaign.quarantines", "chips pulled from the bench mid-campaign"
        )
        if self.injectors is not None:
            self._retries = self.tracer.counter(
                "lab.sample_retries", "readout bursts retried after a transient fault"
            )

    def view(self, index: int) -> "VirtualTestbench":
        """The one-chip :class:`VirtualTestbench` of lot position ``index``."""
        return VirtualTestbench._of(self, index)

    # ------------------------------------------------------------------ #
    # per-chip state
    # ------------------------------------------------------------------ #

    def _on_bench(self, chips: list[int]) -> list[int]:
        if not self.quarantined:
            return chips
        return [index for index in chips if index not in self.quarantined]

    def _quarantine(self, index: int, error: Exception) -> None:
        self.quarantined[index] = QuarantineReport(
            chip_id=self.fleet.chip_ids[index],
            case=self.case_of[index],
            sim_time=float(self.fleet.elapsed[index]),
            reason=str(error),
        )
        self.errors[index] = error
        self._quarantines.inc()

    def _survivors(self, chips: list[int]) -> list[int]:
        """``chips`` minus any whose guard budget ran out (now quarantined)."""
        exhausted = self.fleet.guards.exhausted
        if exhausted:
            for index, error in exhausted.items():
                if index not in self.quarantined:
                    self._quarantine(index, error)
        return self._on_bench(chips)

    def _sim_time(self, chips: list[int]) -> float:
        return float(self.fleet.elapsed[chips].sum())

    def _delivered_temperature(self, index: int) -> float:
        """Chamber temperature (kelvin) chip ``index`` sees right now.

        Raises :class:`~repro.errors.ChipDropoutError` once the chip's
        dropout time has passed.
        """
        injector = self.injectors[index] if self.injectors is not None else None
        if injector is None:
            return self.chamber.actual_temperature(self.rngs[index])
        now = float(self.fleet.elapsed[index])
        injector.check_dropout(now)
        return self.chamber.actual_temperature(self.rngs[index]) + injector.temperature_offset(now)

    def _delivered_voltage(self, index: int) -> float:
        """Supply voltage (volts) chip ``index`` sees right now."""
        injector = self.injectors[index] if self.injectors is not None else None
        if injector is None:
            return self.supply.actual_voltage(self.rngs[index])
        now = float(self.fleet.elapsed[index])
        injector.check_dropout(now)
        voltage = self.supply.actual_voltage(self.rngs[index])
        if voltage > 0.0:
            # Droop only sags a driven positive rail; an open relay (0 V)
            # or the negative recovery rail is regulated differently.
            droop = injector.voltage_droop(now)
            if droop > 0.0:
                voltage = max(voltage - droop, 0.05)
        return voltage

    def _land_upset(self, index: int) -> None:
        """Land chip ``index``'s due trap-state upset before its next evolve.

        The bogus occupancy sits in the trap arrays until the evolve,
        where the guard contract catches it (raise mode) or clamps it
        back into domain (clamp mode).
        """
        upset = self.injectors[index].pop_upset(float(self.fleet.elapsed[index]))
        if upset is not None:
            self.fleet.inject_trap_upset_chip(index, upset.magnitude)

    # ------------------------------------------------------------------ #
    # the schedule
    # ------------------------------------------------------------------ #

    def run_case(self, chips, case_names, phases, logs, sanitizer=NULL_SANITIZER) -> list[int]:
        """Run one case's phases on a lock-step group; return who completed it.

        ``chips`` are sorted lot positions with one case name each (the
        baseline names differ per chip); ``logs`` maps lot positions to
        record lists.  With a live ``sanitizer`` every chip's finished
        phase is hashed into a ``state_hash`` span.
        """
        names = dict(zip(chips, case_names))
        group = self._on_bench(list(chips))
        if not group:
            return []
        sampler = CaseThroughputSampler(self.tracer)
        with self.tracer.span(
            "case", case=names[group[0]], chip_id=self.fleet.chip_ids[group[0]]
        ) as span:
            sim_start = self._sim_time(group)
            for phase in phases:
                live = self._on_bench(group)
                if not live:
                    break
                starts = [len(logs[index]) for index in live] if sanitizer.enabled else []
                self.run_phase(phase, live, [names[index] for index in live], logs)
                if sanitizer.enabled:
                    for index, start in zip(live, starts):
                        if index not in self.quarantined:
                            sanitizer.record_phase(
                                self.tracer, self.view(index), names[index], phase,
                                logs[index], start,
                            )
            span.set("sim_advanced", self._sim_time(group) - sim_start)
        done = self._on_bench(group)
        self._cases.inc(len(done))
        sampler.finish(span)
        return done

    def run_phase(self, phase: TestPhase, chips, case_names, logs) -> None:
        """One phase over a lock-step group, chunked at the sampling interval.

        A sample is taken at the start of the phase (time 0 — the paper's
        recovery figures anchor there) and after every sampling interval.
        """
        for index, name in zip(chips, case_names):
            self.case_of[index] = name
        group = self._on_bench(list(chips))
        if not group:
            return
        with self.tracer.span(
            "phase",
            chip_id=self.fleet.chip_ids[group[0]],
            case=self.case_of[group[0]],
            phase=phase.label,
            kind=phase.kind.value,
            temperature_c=phase.temperature_c,
            supply_voltage=phase.supply_voltage,
        ) as span:
            sim_start = self._sim_time(group)
            self.chamber.set_temperature_celsius(phase.temperature_c)
            # Exact sentinel: 0.0 V comes straight from the schedule
            # grammar (case suffix "Z"), never from arithmetic.
            if phase.kind is PhaseKind.RECOVERY and phase.supply_voltage == 0.0:  # repro: noqa[RPR003]
                # Passive recovery power-gates the rail: the relay opens and
                # the chip sees exactly 0 V, not a noisy millivolt setpoint.
                self.supply.set_voltage(0.0)
                self.supply.disable_output()
            else:
                self.supply.enable_output()
                self.supply.set_voltage(phase.supply_voltage)
            self._sample_group(phase, group, logs, 0.0)
            elapsed = 0.0
            # Summing float chunks can stall a hair short of the duration
            # (e.g. ten 0.1 s intervals sum to 0.9999999999999999); without
            # a tolerance the loop would schedule a spurious near-zero
            # final chunk and log a duplicate sample.
            tolerance = 1e-9 * phase.duration
            live = self._on_bench(group)
            while live and phase.duration - elapsed > tolerance:
                chunk = min(phase.sampling_interval, phase.duration - elapsed)
                live = self._advance(phase, live, chunk)
                elapsed += chunk
                if phase.duration - elapsed <= tolerance:
                    elapsed = phase.duration
                self._sample_group(phase, live, logs, elapsed)
                live = self._on_bench(live)
            span.set("sim_advanced", self._sim_time(group) - sim_start)

    def _advance(self, phase: TestPhase, chips: list[int], duration: float) -> list[int]:
        """Age ``chips`` through ``duration`` s of the phase bias; return survivors."""
        if not chips:
            return chips
        if self.injectors is None:
            rngs = self.rngs
            temperatures = [self.chamber.actual_temperature(rngs[i]) for i in chips]
            if self.supply.output_enabled:
                voltages = [self.supply.actual_voltage(rngs[i]) for i in chips]
            else:
                voltages = [0.0] * len(chips)
        else:
            live, temperatures, voltages = [], [], []
            for index in chips:
                try:
                    temperature = self._delivered_temperature(index)
                    voltage = self._delivered_voltage(index)
                except ChipDropoutError as error:
                    self._quarantine(index, error)
                    continue
                self._land_upset(index)
                live.append(index)
                temperatures.append(temperature)
                voltages.append(voltage)
            chips = live
            if not chips:
                return chips
        self._evolve(phase.kind is PhaseKind.STRESS, phase.mode, chips, duration,
                     temperatures, voltages)
        return self._survivors(chips)

    def _evolve(self, stress: bool, mode: StressMode, chips: list[int], duration: float,
                temperatures, voltages) -> None:
        """One batched evolve per contiguous run of ``chips``."""
        temperatures = np.asarray(temperatures, dtype=float)
        voltages = np.asarray(voltages, dtype=float)
        for p, q in contiguous_runs(chips):
            span = slice(chips[p], chips[q - 1] + 1)
            if stress:
                self.fleet.apply_stress(
                    duration, temperatures[p:q], voltages[p:q], mode=mode, chips=span
                )
            else:
                self.fleet.apply_recovery(duration, temperatures[p:q], voltages[p:q], chips=span)

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #

    def _sample_group(self, phase: TestPhase, chips: list[int], logs, phase_elapsed: float) -> None:
        """One record per chip of the group; transient failures retry per chip."""
        if not chips:
            return
        failures = self._sample_once(phase.label, chips, logs, phase_elapsed)
        for index, error in failures.items():
            self._retry(phase, index, error, logs, phase_elapsed)

    def _retry(self, phase: TestPhase, index: int, error: Exception, logs,
               phase_elapsed: float) -> None:
        """Bounded re-reads of one chip; exhausting them quarantines it.

        The operator re-arms the readout while the phase bias stays
        applied: the chip keeps aging through each backoff wait.
        """
        chip_id = self.fleet.chip_ids[index]
        case = self.case_of[index]
        attempt = 0
        while True:
            attempt += 1
            if attempt >= self.retry.max_attempts:
                exhausted = RetryExhaustedError(
                    f"{chip_id} case {case}: sample failed {attempt} times, "
                    f"last error: {error}"
                )
                exhausted.__cause__ = error
                self._quarantine(index, exhausted)
                return
            self.retries[index] += 1
            self._retries.inc()
            wait = self.retry.backoff(attempt)
            with self.tracer.span(
                "sample_retry",
                chip_id=chip_id,
                case=case,
                phase=phase.label,
                attempt=attempt,
                backoff_s=wait,
            ) as span:
                if not self._advance(phase, [index], wait):
                    return
                span.set("sim_advanced", wait)
            failures = self._sample_once(phase.label, [index], logs, phase_elapsed)
            if index in self.quarantined or index not in failures:
                return
            error = failures[index]

    def _sample_once(self, label: str, chips: list[int], logs, phase_elapsed: float) -> dict:
        """One readout burst per chip, batched physics; returns transient failures.

        Per chip: one chamber draw for the burst temperature, then one
        vectorised counter-noise draw — the stream a lone bench draws.
        """
        failures: dict[int, Exception] = {}
        with self.tracer.span(
            "measurement",
            chip_id=self.fleet.chip_ids[chips[0]],
            case=self.case_of[chips[0]],
            phase=label,
        ) as span:
            if self.sampling_overhead > 0.0:
                # The burst AC-stresses the chip at nominal rail: negligible
                # aging, but modelled because hardware cannot measure for free.
                if self.injectors is None:
                    temperatures = [
                        self.chamber.actual_temperature(self.rngs[i]) for i in chips
                    ]
                else:
                    live, temperatures = [], []
                    for index in chips:
                        try:
                            temperatures.append(self._delivered_temperature(index))
                        except ChipDropoutError as error:
                            self._quarantine(index, error)
                            continue
                        live.append(index)
                    chips = live
                if chips:
                    self._evolve(True, StressMode.AC, chips, self.sampling_overhead,
                                 temperatures, np.full(len(chips), NOMINAL_RAIL))
                    chips = self._survivors(chips)
            if chips:
                sampled = self._read(label, chips, logs, phase_elapsed, failures)
                span.set("sim_advanced", self.sampling_overhead * sampled)
        return failures

    def _readout_faults(
        self, label: str, chips: list[int], failures: dict
    ) -> tuple[list[int], dict]:
        """Fire due one-shot readout faults; return the chips to read and stuck bits."""
        readable, stuck = [], {}
        for index in chips:
            injector = self.injectors[index]
            if injector is None:
                readable.append(index)
                continue
            now = float(self.fleet.elapsed[index])
            try:
                injector.check_dropout(now)
            except ChipDropoutError as error:
                self._quarantine(index, error)
                continue
            event = injector.pop_readout_fault(now)
            if event is None:
                readable.append(index)
            elif event.kind is FaultKind.DROPPED_READOUT:
                failures[index] = self._wrapped(
                    index, label, MeasurementError("counter dropped the readout burst")
                )
            elif event.kind is FaultKind.RELAY_CHATTER:
                failures[index] = InstrumentError(
                    "supply relay chatter during the readout burst"
                )
            else:
                # Stuck bit: take a real burst, then corrupt its count.
                stuck[index] = int(event.magnitude)
                readable.append(index)
        return readable, stuck

    def _read(self, label: str, chips: list[int], logs, phase_elapsed: float,
              failures: dict) -> int:
        """Counter readouts of ``chips``; returns how many were recorded."""
        stuck: dict[int, int] | None = None
        if self.injectors is not None:
            chips, stuck = self._readout_faults(label, chips, failures)
            if not chips:
                return 0
        runs = contiguous_runs(chips)
        if len(runs) == 1:
            frequencies = self.fleet.frequencies(slice(chips[0], chips[-1] + 1))
        else:
            frequencies = np.concatenate([
                self.fleet.frequencies(slice(chips[p], chips[q - 1] + 1)) for p, q in runs
            ])
        guards = self.fleet.guards
        if guards.exhausted:
            keep = [offset for offset, index in enumerate(chips)
                    if index not in guards.exhausted]
            chips = self._survivors([chips[offset] for offset in keep])
            frequencies = frequencies[keep]
        temperature_c = self.chamber.setpoint_celsius
        # A rail behind an open relay delivers 0 V no matter what the
        # setpoint register holds.
        supply_voltage = self.supply.setpoint if self.supply.output_enabled else 0.0
        fref = self.counter.fref
        reads = self.reads_per_sample
        noise = self.counter.noise_counts
        max_count = self.counter.max_count
        elapsed = self.fleet.elapsed
        chip_ids = self.fleet.chip_ids
        # One vectorised precheck instead of a per-chip guard call: the
        # per-chip positive_scalar only changes behaviour on a violation,
        # so a clean group can skip straight to the readout.
        clean = bool(np.isfinite(frequencies).all()) and bool((frequencies > 0.0).all())
        sampled = 0
        for offset, index in enumerate(chips):
            frequency = float(frequencies[offset])
            if not clean and guards.checking:
                frequency = guards.positive_scalar(
                    index,
                    "fpga.frequency",
                    frequency,
                    clamp_to=0.0,
                    inputs=lambda: {"chip": chip_ids[index], "elapsed": float(elapsed[index])},
                )
                if index in guards.exhausted:
                    self._survivors([index])
                    continue
            rng = self.rngs[index]
            try:
                if clean and noise > 0:
                    # Stream-identical inline form of ReadoutCounter.read_many:
                    # the same single noise draw, with the clamp/overflow edge
                    # regions handed back to the instrument's exact arithmetic.
                    ideal = int(round(frequency / (2.0 * fref)))
                    draws = rng.integers(-noise, noise + 1, size=reads)
                    if 0 <= ideal - noise and ideal + noise <= max_count:
                        total = ideal * reads + int(draws.sum())
                    else:
                        counts = ideal + draws
                        np.maximum(counts, 0, out=counts)
                        self.counter._check_overflow(int(counts.max()))
                        total = int(counts.sum())
                    mean_count = total / float(reads)
                else:
                    mean_count = float(np.mean(self.counter.read_many(frequency, reads, rng=rng)))
                if mean_count <= 0:
                    raise MeasurementError(
                        f"chip {chip_ids[index]}: readout count {mean_count} implies no "
                        "oscillation — RO stopped or fosc below counter resolution"
                    )
                if stuck is not None:
                    if index in stuck:
                        mean_count = self._corrupt(index, int(round(mean_count)), stuck[index])
                    else:
                        self._last_good[index] = int(round(mean_count))
            except MeasurementError as error:
                wrapped = self._wrapped(index, label, error)
                if self.injectors is None:
                    raise wrapped from error
                failures[index] = wrapped
                continue
            logs[index].append(
                MeasurementRecord(
                    chip_id=chip_ids[index],
                    case=self.case_of[index],
                    phase=label,
                    timestamp=float(elapsed[index]),
                    phase_elapsed=phase_elapsed,
                    count=int(round(mean_count)),
                    frequency=2.0 * mean_count * fref,
                    delay=1.0 / (4.0 * mean_count * fref),
                    temperature_c=temperature_c,
                    supply_voltage=supply_voltage,
                )
            )
            sampled += 1
        self._evaluations.inc(reads * len(chips))
        self._samples.inc(sampled)
        self._records.inc(sampled)
        return sampled

    def _corrupt(self, index: int, count: int, bit: int) -> int:
        """A stuck-bit count, or the error that the counter range or the
        plausibility check raises on it."""
        corrupted = count | (1 << bit)
        if corrupted > self.counter.max_count:
            raise CounterOverflowError(
                f"count {corrupted} exceeds the counter range (stuck bit {bit})"
            )
        last_good = self._last_good[index]
        if last_good is not None and abs(corrupted - last_good) > self.PLAUSIBILITY_COUNTS:
            raise MeasurementError(
                f"implausible count jump {last_good} -> {corrupted} "
                f"(stuck counter bit {bit}?)"
            )
        # Within the plausibility band the corruption goes undetected —
        # exactly the silent data error a real stuck LSB produces.
        return corrupted

    def _wrapped(self, index: int, label: str, error: MeasurementError) -> MeasurementError:
        """``error`` with the chip, case and phase named in its message."""
        return type(error)(
            f"{self.fleet.chip_ids[index]} case {self.case_of[index]} phase {label}: {error}"
        )


class VirtualTestbench:
    """One chip under a thermal chamber, supply and readout chain.

    The one-chip view of :class:`FleetBench`.  Built on its own it wraps
    a bench over the chip's lot; :meth:`FleetBench.view` hands out views
    of a running bench's positions.  A lone chip and the same chip in a
    lock-step group therefore run the same code.

    Parameters
    ----------
    chip:
        The :class:`~repro.fpga.chip.FpgaChip` under test.
    chamber / supply / clock:
        Virtual instruments; defaults reproduce the paper's setup.
    reads_per_sample:
        Counter readouts averaged per recorded sample.
    sampling_overhead:
        Seconds the RO runs (AC, nominal rail) per readout burst.
    rng:
        Seed or generator for every noise source on the bench.
    tracer:
        Telemetry sink for phase/measurement spans and sample counters;
        defaults to the process tracer (a no-op unless one was
        installed).
    injector / retry:
        A :class:`~repro.lab.faults.FaultInjector` installs the chip's
        instrument faults; transient readout errors are then retried
        under ``retry`` (default :class:`RetryPolicy`), and a dropout,
        exhausted retries or an exhausted guard budget raise.  Without
        an injector every readout error raises at once.
    """

    def __init__(
        self,
        chip: FpgaChip,
        chamber: ThermalChamber | None = None,
        supply: DcPowerSupply | None = None,
        clock: ClockGenerator | None = None,
        reads_per_sample: int = 3,
        sampling_overhead: float = 3.0,
        rng: np.random.Generator | int | None = None,
        tracer=None,
        injector: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        fleet, index = chip.lot
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        rngs = [None] * fleet.n_chips
        rngs[index] = rng
        injectors = None
        if injector is not None:
            injectors = [None] * fleet.n_chips
            injectors[index] = injector
        bench = FleetBench(
            fleet, rngs, tracer=tracer, reads_per_sample=reads_per_sample,
            sampling_overhead=sampling_overhead, injectors=injectors, retry=retry,
            chamber=chamber, supply=supply, clock=clock,
        )
        self._attach(bench, index)

    @classmethod
    def _of(cls, bench: FleetBench, index: int) -> "VirtualTestbench":
        view = cls.__new__(cls)
        view._attach(bench, index)
        return view

    def _attach(self, bench: FleetBench, index: int) -> None:
        self.bench = bench
        self._index = index
        self.chip = bench.fleet.view(index)
        self.chamber = bench.chamber
        self.supply = bench.supply
        self.clock = bench.clock
        self.tracer = bench.tracer
        self.reads_per_sample = bench.reads_per_sample
        self.sampling_overhead = bench.sampling_overhead

    @property
    def rng_state(self):
        """The bench RNG's bit-generator state (for determinism hashing)."""
        return self.bench.rngs[self._index].bit_generator.state

    @property
    def injector(self) -> FaultInjector | None:
        """The chip's fault injector, if faults are installed."""
        injectors = self.bench.injectors
        return injectors[self._index] if injectors is not None else None

    def _raise_if_pulled(self) -> None:
        error = self.bench.errors.get(self._index)
        if error is not None:
            raise error

    def take_sample(
        self, case: str, phase_label: str, phase_elapsed: float
    ) -> MeasurementRecord:
        """Wake the RO, average a few reads, and return the record.

        The readout burst applies ``sampling_overhead`` seconds of AC
        activity at nominal rail and chamber temperature — negligible
        aging, but modelled because hardware cannot measure for free.
        A readout error raises (no retry).
        """
        self._raise_if_pulled()
        index = self._index
        self.bench.case_of[index] = case
        records: list[MeasurementRecord] = []
        failures = self.bench._sample_once(phase_label, [index], {index: records}, phase_elapsed)
        self._raise_if_pulled()
        if failures:
            raise failures[index]
        return records[0]

    def run_phase(self, phase: TestPhase, case: str, log: DataLog) -> None:
        """Execute one phase, recording samples into ``log``.

        A sample is taken at the start of the phase (time 0 — the paper's
        recovery figures anchor there) and after every sampling interval.
        """
        self._raise_if_pulled()
        self.bench.run_phase(phase, [self._index], [case], {self._index: log})
        self._raise_if_pulled()


# ---------------------------------------------------------------------- #
# campaign assembly
# ---------------------------------------------------------------------- #


@dataclass
class CampaignResult:
    """Everything a campaign produced.

    ``log`` holds every measurement; ``chips`` the final chip states (for
    follow-up what-if experiments); ``fresh_delays`` the per-chip fresh CUT
    delay, needed to convert absolute delay readings into delay change.
    ``quarantined`` flags chips pulled from the bench mid-campaign (chip
    dropout, retries or guard budget exhausted) — their measurements up
    to the failure are kept in ``log``, and the campaign completes on the
    survivors.  ``state_hashes`` is populated only under
    ``sanitize=True``: one digest per ``chip/seq`` phase boundary,
    identical across runs of the same seed and any shard count.
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


@dataclass(frozen=True)
class FleetChipSummary:
    """Distribution-ready digest of one fleet chip's campaign.

    ``case_end_frequency`` maps each case the chip ran (baseline
    included) to the measured RO frequency at that case's final sample.
    Degradations are percentages relative to the model-fresh frequency,
    positive = slower than fresh.  ``measurements`` counts every record
    the chip took, whether or not the log kept it.
    """

    chip_id: str
    chip_no: int
    fresh_delay: float
    fresh_frequency: float
    case_end_frequency: dict[str, float]
    stress_degradation_pct: float
    residual_degradation_pct: float
    measurements: int


@dataclass
class FleetCampaignResult(CampaignResult):
    """A :class:`CampaignResult` plus the fleet's population statistics.

    ``chips`` holds a view of every chip only for an exact, one-shard
    run that keeps its records (``collect="records"``): 10k live chip
    states defeat the point of the batched engine.  In
    ``collect="summary"`` mode the log keeps only each case's first and
    last record per chip; summaries and hashes cover the full record
    stream regardless.
    """

    summaries: list[FleetChipSummary] = field(default_factory=list)
    fidelity: str = "exact"
    total_measurements: int = 0
    shards: int = 1


def _chip_summary(
    chip_id: str, chip_no: int, fresh_delay: float, records, measurements: int
) -> FleetChipSummary:
    """Fold one chip's kept records into a summary."""
    fresh_frequency = 1.0 / (2.0 * fresh_delay)
    case_end: dict[str, float] = {}
    for record in records:
        case_end[record.case] = record.frequency
    stress_end = [
        frequency
        for case, frequency in case_end.items()
        if case.startswith("AS") or case.startswith("BASELINE")
    ]
    worst = min(stress_end) if stress_end else fresh_frequency
    final = records[-1].frequency if records else fresh_frequency
    return FleetChipSummary(
        chip_id=chip_id,
        chip_no=chip_no,
        fresh_delay=fresh_delay,
        fresh_frequency=fresh_frequency,
        case_end_frequency=case_end,
        stress_degradation_pct=100.0 * (1.0 - worst / fresh_frequency),
        residual_degradation_pct=100.0 * (1.0 - final / fresh_frequency),
        measurements=measurements,
    )


def _as_log(records: list) -> DataLog:
    log = DataLog()
    log.extend(records)
    return log


class _Tally:
    """Campaign-wide running totals behind the per-case progress lines."""

    def __init__(self, progress: ProgressReporter, cases_total: int, chips_total: int):
        self.progress = progress
        self.cases_total = cases_total
        self.chips_total = chips_total
        self.cases = self.chips = self.quarantined = self.retries = 0

    def case_done(self, chip_id: str, case_name: str, retries: int) -> None:
        """One ``case_done`` line; ``retries`` counts the whole campaign's."""
        self.cases += 1
        self.progress.case_done(
            chip_id,
            case_name,
            self.cases,
            self.cases_total,
            self.chips,
            self.chips_total,
            retries=retries,
            quarantined=self.quarantined,
        )

    def chip_done(self, quarantined: bool) -> None:
        """Fold a finished (or quarantined) chip into the totals."""
        self.chips += 1
        self.quarantined += int(quarantined)


@dataclass(frozen=True)
class _LotOptions:
    """What every batch of one campaign run shares."""

    include_baseline: bool
    fidelity: str
    bins_per_decade: float
    sanitize: bool
    collect: str
    faults: FaultPlan | None
    retry: RetryPolicy | None
    guard: GuardConfig | None
    store: CheckpointStore | None = None
    keep_chips: bool = False


@dataclass
class _ChipResult:
    """One chip's campaign, ready for the chip-order merge."""

    baseline: list
    cases: list
    summary: FleetChipSummary
    quarantine: QuarantineReport | None
    chip: FpgaChip | None


@dataclass
class _RangeResult:
    """One shard's chips (by fleet index) plus its run totals."""

    chips: dict[int, _ChipResult] = field(default_factory=dict)
    hashes: dict[str, str] = field(default_factory=dict)
    measurements: int = 0
    sim_advanced: float = 0.0


def _run_batch(order, seeds, streams, options: _LotOptions, tracer, tally: _Tally,
               out: _RangeResult) -> None:
    """Run every case of the fleet chips ``order`` (sorted by schedule row)
    as one lot, and add their results to ``out``.

    A ``guard`` config gets one :class:`Guard` per chip (owner = chip
    id).  With a checkpoint ``store`` each chip is restored (trap state,
    bench RNG, logs, progress) first and snapshotted after every case it
    finishes or is quarantined in.
    """
    chip_ids = [f"chip-{index + 1}" for index in order]
    guard = options.guard
    fleet = FleetChip(
        chip_ids,
        seeds,
        fidelity=options.fidelity,
        bins_per_decade=options.bins_per_decade,
        guard=None if guard is None else [
            Guard(guard, tracer=tracer, owner=chip_id) for chip_id in chip_ids
        ],
        tracer=tracer,
    )
    positions = range(len(order))
    schedules = [chip_schedule(index, options.include_baseline) for index in order]
    # logs[position] = [baseline records, case records]
    logs: list[list[list]] = [[[], []] for _ in order]
    completed: list[list[str]] = [[] for _ in order]
    restored: dict[int, QuarantineReport] = {}
    store = options.store
    if store is not None:
        for position in positions:
            loaded = store.load_chip(fleet.view(position), streams[position])
            if loaded is not None:
                baseline, cases, completed[position], report = loaded
                logs[position] = [list(baseline), list(cases)]
                if report is not None:
                    restored[position] = report
    injectors = None
    if options.faults is not None:
        injectors = [
            FaultInjector(options.faults, chip_id, start_time=float(fleet.elapsed[position]),
                          tracer=tracer)
            for position, chip_id in enumerate(chip_ids)
        ]
    bench = FleetBench(fleet, streams, tracer=tracer, injectors=injectors, retry=options.retry)
    bench.quarantined.update(restored)
    sim_start = float(fleet.elapsed.sum())
    measured = [0] * len(order)
    retries_before = tally.retries
    sanitizer = DeterminismSanitizer() if options.sanitize else NULL_SANITIZER
    for position in positions:
        if position in restored or len(completed[position]) == len(schedules[position]):
            tally.chip_done(position in restored)

    def run_step(group: list[int], step: int, phases) -> None:
        """Case ``step`` of each chip's schedule, as one lock-step group."""
        todo = []
        for position in group:
            if position in bench.quarantined:
                continue
            done, name = completed[position], schedules[position][step]
            if step < len(done):
                if done[step] != name:
                    raise CheckpointError(
                        f"checkpoint for {chip_ids[position]} completed {done[step]!r} "
                        f"at position {step}, but the schedule says {name!r}"
                    )
                continue
            todo.append(position)
        if not todo:
            return
        kind = int(step >= options.include_baseline)
        target = {position: logs[position][kind] for position in todo}
        starts = [len(target[position]) for position in todo]
        finished = set(bench.run_case(
            todo, [schedules[position][step] for position in todo], phases, target, sanitizer
        ))
        for position, start in zip(todo, starts):
            records = target[position]
            measured[position] += len(records) - start
            if options.collect == "summary" and len(records) - start > 2:
                del records[start + 1 : len(records) - 1]
            report = None if position in finished else bench.quarantined[position]
            if report is None:
                completed[position].append(schedules[position][step])
            if store is not None:
                store.save_chip(
                    fleet.view(position), streams[position], _as_log(logs[position][0]),
                    _as_log(logs[position][1]), completed[position], report,
                )
            if report is None:
                tally.case_done(chip_ids[position], schedules[position][step],
                                retries_before + sum(bench.retries))
            if report is not None or step == len(schedules[position]) - 1:
                tally.chip_done(report is not None)

    if options.include_baseline:
        run_step(list(positions), 0, [baseline_phase()])
    first = int(options.include_baseline)
    row_start = 0
    while row_start < len(order):
        chip_no = fleet_chip_no(order[row_start])
        row_end = row_start
        while row_end < len(order) and fleet_chip_no(order[row_end]) == chip_no:
            row_end += 1
        for offset, name in enumerate(CHIP_SEQUENCES[chip_no]):
            run_step(list(range(row_start, row_end)), first + offset,
                     standard_case(name, chip_no).phases)
        row_start = row_end
    tally.retries = retries_before + sum(bench.retries)

    out.sim_advanced += float(fleet.elapsed.sum()) - sim_start
    out.measurements += sum(measured)
    out.hashes.update(sanitizer.hashes)
    for position, index in enumerate(order):
        baseline, cases = logs[position]
        fresh = float(fleet.fresh_path_delays[position])
        out.chips[index] = _ChipResult(
            baseline,
            cases,
            _chip_summary(chip_ids[position], fleet_chip_no(index), fresh,
                          baseline + cases, measured[position]),
            bench.quarantined.get(position),
            fleet.view(position) if options.keep_chips else None,
        )


def _run_fleet_range(
    seed: int | None,
    n_chips: int,
    chip_lo: int,
    chip_hi: int,
    batch_size: int,
    options: _LotOptions,
    tracer=None,
    tally: _Tally | None = None,
) -> _RangeResult:
    """Simulate fleet positions ``[chip_lo, chip_hi)`` of an ``n_chips`` lot.

    Every worker re-derives the complete per-chip stream table from the
    master seed — streams never depend on the shard cut — then runs its
    range in memory-bounded batches.
    """
    tracer = tracer if tracer is not None else get_tracer()
    tally = tally if tally is not None else _Tally(NULL_PROGRESS, 0, 0)
    master = np.random.default_rng(seed)
    chip_seeds: dict[int, int] = {}
    bench_streams: dict[int, np.random.Generator] = {}
    for index in range(n_chips):
        chip_stream, bench_stream = master.spawn(2)
        if chip_lo <= index < chip_hi:
            chip_seeds[index] = int(chip_stream.integers(2**31))
            bench_streams[index] = bench_stream
    out = _RangeResult()
    for batch_lo in range(chip_lo, chip_hi, batch_size):
        batch = range(batch_lo, min(batch_lo + batch_size, chip_hi))
        # Lock-step groups must be contiguous in fleet order: arrange the
        # batch by schedule row.  Results only depend on per-chip streams
        # and the final chip-order merge, never on group layout.
        order = sorted(batch, key=lambda index: (fleet_chip_no(index), index))
        _run_batch(
            order,
            [chip_seeds[index] for index in order],
            [bench_streams[index] for index in order],
            options,
            tracer,
            tally,
            out,
        )
    return out


def _shard_worker(args) -> _RangeResult:
    """Process-pool entry point: run one contiguous fleet shard."""
    return _run_fleet_range(*args)


def run_fleet_campaign(
    seed: int | None = 0,
    n_chips: int = 5,
    include_baseline: bool = True,
    fidelity: str = "auto",
    batch_size: int | None = None,
    shards: int = 1,
    sanitize: bool = False,
    collect: str = "records",
    bins_per_decade: float = 3.0,
    tracer=None,
    progress: ProgressReporter | None = None,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    checkpoint: "str | None" = None,
    resume: bool = False,
    guard: GuardConfig | None = None,
) -> FleetCampaignResult:
    """Run Table 1 over an ``n_chips`` lot.

    ``fidelity="auto"`` picks ``"exact"`` up to :data:`AUTO_EXACT_LIMIT`
    chips and ``"binned"`` (population-scale) above.  ``shards > 1``
    fans contiguous chip ranges out to worker processes; the merged
    result is bit-identical to ``shards=1`` for any shard count.
    ``collect="summary"`` keeps only each case's first and last record
    per chip (memory-bounded 10k-chip runs); summaries and hashes always
    cover the full measurement stream.

    ``tracer`` wraps the run in a ``campaign`` span (cases, phases and
    measurements nest under it) and records the simulated-seconds-per-
    wall-second throughput; ``progress`` gets one line per chip and
    completed case, with live retry/quarantine tallies (shard workers
    report nothing until they merge).

    Resilience: ``faults`` installs a :class:`FaultPlan` (chips it never
    names stay bit-identical to a fault-free run); ``retry`` bounds the
    sample re-reads taken on transient faults; ``checkpoint`` names a
    directory that receives a per-chip snapshot after every case a chip
    finishes, and ``resume=True`` continues a campaign previously
    checkpointed there without replaying finished cases.  A chip that
    drops out, exhausts its retries or exhausts a clamp-mode guard's
    violation budget is quarantined: the campaign completes on the
    survivors and reports the gap in ``quarantined``.

    ``guard`` installs a physics-contract
    :class:`~repro.guard.GuardConfig` with one :class:`~repro.guard.Guard`
    per chip, so violation counts and budgets are per chip; in raise
    mode the first violation aborts the campaign with a replayable repro
    bundle.  ``sanitize`` hashes every chip's state (records, trap
    occupancy, bench RNG) at each phase boundary into ``state_hashes``
    and, when a tracer is live, into ``state_hash`` spans that ``repro
    trace diff`` compares.

    The checkpoint manifest is updated under a thread lock, so
    ``checkpoint``/``resume`` with ``shards > 1`` raises
    :class:`ConfigurationError`.
    """
    if n_chips <= 0:
        raise ScheduleError(f"n_chips must be positive, got {n_chips}")
    if shards < 1:
        raise ScheduleError(f"shards must be at least 1, got {shards}")
    if collect not in ("records", "summary"):
        raise ConfigurationError(f"collect must be 'records' or 'summary', got {collect!r}")
    if fidelity == "auto":
        fidelity = "exact" if n_chips <= AUTO_EXACT_LIMIT else "binned"
    if fidelity not in ("exact", "binned"):
        raise ConfigurationError(f"unknown fleet fidelity {fidelity!r}")
    shards = min(shards, n_chips)
    store = None
    if checkpoint is not None:
        if shards > 1:
            raise ConfigurationError(
                "checkpoint/resume needs shards=1: the checkpoint manifest is "
                "shared by every chip and locked within one process"
            )
        store = CheckpointStore(checkpoint)
        if store.read_manifest() is not None and not resume:
            raise CheckpointError(
                f"{checkpoint} already holds a campaign checkpoint; pass "
                "resume=True (--resume) to continue it or use a fresh directory"
            )
        store.init_manifest(seed, n_chips, include_baseline)
    elif resume:
        raise ConfigurationError("resume requires a checkpoint directory")
    if batch_size is None:
        batch_size = DEFAULT_BATCH[fidelity]
    tracer = tracer if tracer is not None else get_tracer()
    progress = progress if progress is not None else NULL_PROGRESS
    options = _LotOptions(
        include_baseline, fidelity, bins_per_decade, sanitize, collect, faults, retry, guard
    )

    with tracer.span(
        "campaign", seed=seed, n_chips=n_chips, fidelity=fidelity, shards=shards
    ) as span:
        if shards == 1:
            tally = _Tally(
                progress,
                sum(len(chip_schedule(index, include_baseline)) for index in range(n_chips)),
                n_chips,
            )
            keep_chips = fidelity == "exact" and collect == "records"
            shard_results = [
                _run_fleet_range(
                    seed, n_chips, 0, n_chips, batch_size,
                    replace(options, store=store, keep_chips=keep_chips), tracer, tally,
                )
            ]
        else:
            bounds = np.linspace(0, n_chips, shards + 1).astype(int)
            jobs = [
                (seed, n_chips, int(bounds[shard]), int(bounds[shard + 1]), batch_size, options)
                for shard in range(shards)
                if bounds[shard] < bounds[shard + 1]
            ]
            # Imported here: only sharded runs pay for the process pool.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=shards) as pool:
                shard_results = list(pool.map(_shard_worker, jobs))
            progress.line(f"{len(jobs)} fleet shards merged")

        result = FleetCampaignResult(
            log=DataLog(), chips={}, fidelity=fidelity, shards=shards
        )
        chips: dict[int, _ChipResult] = {}
        sim_total = 0.0
        for shard in shard_results:
            chips.update(shard.chips)
            result.state_hashes.update(shard.hashes)
            result.total_measurements += shard.measurements
            sim_total += shard.sim_advanced
        ordered = [(f"chip-{index + 1}", chips[index]) for index in sorted(chips)]
        # Every baseline first, then every chip's cases, in chip order.
        result.log = DataLog.merge(
            _as_log(records)
            for records in [chip.baseline for _, chip in ordered]
            + [chip.cases for _, chip in ordered]
        )
        for chip_id, chip in ordered:
            result.summaries.append(chip.summary)
            result.fresh_delays[chip_id] = chip.summary.fresh_delay
            if chip.quarantine is not None:
                result.quarantined[chip_id] = chip.quarantine
            if chip.chip is not None:
                result.chips[chip_id] = chip.chip
        span.set("sim_advanced", sim_total)
    if span.duration > 0.0:
        tracer.gauge(
            "campaign.sim_seconds_per_wall_second",
            "simulated time advanced per wall-clock second",
        ).set(sim_total / span.duration)
        tracer.gauge(
            "campaign.fleet_measurements_per_second",
            "fleet campaign measurement throughput",
        ).set(result.total_measurements / span.duration)
    return result
