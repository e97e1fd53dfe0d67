"""The virtual FPGA chip model: a wafer lot behind one batched state.

:class:`FleetChip` owns N same-process chips as struct-of-arrays state
(:mod:`repro.bti.fleet`) plus per-chip variation columns (delay weights
with the fabric placement folded in, gate overdrives, fresh delays), so
one call ages the whole lot.  It holds the model's only copy of the bias
grammar (DC, AC, recovery and :class:`CycleSegment` biases mapped to
per-owner voltages), of the delay readout and of the per-chip state API.

:class:`FpgaChip` is a one-chip view of a lot position.  Built on its
own it wraps a one-chip fleet; :meth:`FleetChip.view` hands out views of
the positions of an exact lot.  A chip aged alone and the same chip
aged in a lot therefore run the same code, and each lot position is
bit-identical to a standalone chip built from the same seed.

Two fidelities:

* ``"exact"`` — flat per-trap state; per-owner threshold shifts read out
  through either delay law of :mod:`repro.device.delay`.
* ``"binned"`` — CET-grid quantised populations for 10k-chip lots;
  statistically faithful, not bit-identical (see
  :class:`~repro.bti.fleet.BinnedFleetTraps`), first-order readout only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bti.fleet import (
    BinnedFleetTraps,
    FleetCyclePhase,
    FleetTraps,
    TrapDraws,
    TrapGrid,
    chip_range,
    draw_population,
)
from repro.device.delay import DELAY_LAWS
from repro.device.technology import TechnologyParameters, TECH_40NM
from repro.device.variation import ProcessVariation
from repro.errors import ConfigurationError
from repro.fpga.fabric import Fabric, Location
from repro.fpga.netlist import InverterChainNetlist
from repro.fpga.ring_oscillator import StressMode
from repro.guard import get_guard
from repro.obs import get_tracer

#: Fidelity names accepted by :class:`FleetChip`.
FIDELITIES = ("exact", "binned")


@dataclass(frozen=True)
class CycleSegment:
    """One leg of a repeating chip schedule, in :meth:`FpgaChip.apply_stress`
    / :meth:`FpgaChip.apply_recovery` terms.

    Build with :meth:`active` (stress) or :meth:`sleep` (recovery); a
    sequence of segments repeated ``n`` times feeds
    :meth:`FpgaChip.apply_cycles`.
    """

    duration: float
    temperature: float
    supply_voltage: float | None
    stress: bool
    mode: StressMode = StressMode.DC
    chain_input: int = 1

    def __post_init__(self) -> None:
        if self.duration < 0.0:
            raise ConfigurationError(
                f"segment duration must be non-negative, got {self.duration}"
            )

    @classmethod
    def active(
        cls,
        duration: float,
        temperature: float,
        supply_voltage: float | None = None,
        mode: StressMode = StressMode.DC,
        chain_input: int = 1,
    ) -> "CycleSegment":
        """A stress leg; ``supply_voltage`` ``None`` means the nominal rail."""
        return cls(
            duration=duration,
            temperature=temperature,
            supply_voltage=supply_voltage,
            stress=True,
            mode=mode,
            chain_input=chain_input,
        )

    @classmethod
    def sleep(
        cls, duration: float, temperature: float, supply_voltage: float = 0.0
    ) -> "CycleSegment":
        """A recovery leg (power-gated at 0 V or a negative rail)."""
        return cls(
            duration=duration,
            temperature=temperature,
            supply_voltage=supply_voltage,
            stress=False,
        )


class FleetChip:
    """N chips of one process, batched.

    Parameters
    ----------
    chip_ids / seeds:
        Parallel sequences naming each lot position and seeding its
        variation + trap draws (exactly like ``FpgaChip(seed=...)``).
    tech / variation / n_stages:
        Process constants, statistical spread and ring length, shared by
        the lot.
    fabric / locations:
        Optional placement: one fabric site per chip (default: every
        chip at the fabric centre), whose systematic delay gradient
        scales that chip's stages.
    delay_model:
        ``"first-order"`` (paper Eq. (6)) or ``"alpha-power"`` (the
        ablation law; exact fidelity only).
    enable_gated:
        Gate the ring with a NAND enable stage (paper Fig. 3).
    fidelity:
        ``"exact"`` (per-trap, bit-identical) or ``"binned"``
        (CET-grid, population-scale).
    bins_per_decade:
        Grid density of the binned fidelity; ignored for exact.
    guard / tracer:
        Contract checker and telemetry sink of the lot (and of every
        view of it); default to the ambient ones.
    """

    def __init__(
        self,
        chip_ids,
        seeds,
        *,
        tech: TechnologyParameters = TECH_40NM,
        variation: ProcessVariation | None = None,
        n_stages: int = 75,
        fabric: Fabric | None = None,
        locations: Sequence[Location] | None = None,
        delay_model: str = "first-order",
        enable_gated: bool = False,
        fidelity: str = "exact",
        bins_per_decade: float = 3.0,
        guard=None,
        tracer=None,
    ) -> None:
        if len(chip_ids) != len(seeds) or not chip_ids:
            raise ConfigurationError("chip_ids and seeds must be equal-length, non-empty")
        if fidelity not in FIDELITIES:
            raise ConfigurationError(f"fidelity must be one of {FIDELITIES}, got {fidelity!r}")
        if delay_model not in DELAY_LAWS:
            raise ConfigurationError(
                f"delay_model must be 'first-order' or 'alpha-power', got {delay_model!r}"
            )
        if fidelity == "binned" and delay_model != "first-order":
            raise ConfigurationError("the binned fidelity reads out first-order delays only")
        if locations is not None:
            if fabric is None:
                raise ConfigurationError("a location requires a fabric")
            if len(locations) != len(chip_ids):
                raise ConfigurationError("locations must name one fabric site per chip")
        self.chip_ids = list(chip_ids)
        self.n_chips = len(self.chip_ids)
        self.tech = tech
        self.fidelity = fidelity
        self.guard = guard if guard is not None else get_guard()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.netlist = InverterChainNetlist(n_stages=n_stages, enable_gated=enable_gated)
        variation = variation if variation is not None else ProcessVariation()
        self._delay_law = DELAY_LAWS[delay_model]

        is_pmos = self.netlist.owner_is_pmos
        self._pmos_owners = np.flatnonzero(is_pmos)
        self._nmos_owners = np.flatnonzero(~is_pmos)
        base_weights = self.netlist.delay_weights(tech)

        # Per-polarity delay weights and overdrive (vdd - vth0) columns.
        self._weights_p = np.empty((self.n_chips, self._pmos_owners.size))
        self._weights_n = np.empty((self.n_chips, self._nmos_owners.size))
        self._overdrive_p = np.empty((self.n_chips, 1))
        self._overdrive_n = np.empty((self.n_chips, 1))
        self.fresh_path_delays = np.empty(self.n_chips)
        draws_p: list[TrapDraws] = []
        draws_n: list[TrapDraws] = []
        for index, seed in enumerate(seeds):
            # Draw order per chip: variation sample first, then the two
            # population child streams.
            rng = np.random.default_rng(seed)
            sample = variation.sample(n_stages, rng=rng)
            systematic = 1.0
            if fabric is not None:
                location = fabric.center if locations is None else locations[index]
                systematic = fabric.systematic_multiplier(location)
            stage_multiplier = (
                sample.local_delay_multipliers * sample.delay_multiplier * systematic
            )
            weights = base_weights * stage_multiplier[self.netlist.owner_stage]
            self._weights_p[index] = weights[self._pmos_owners]
            self._weights_n[index] = weights[self._nmos_owners]
            self.fresh_path_delays[index] = float(tech.stage_delay * stage_multiplier.sum())
            self._overdrive_p[index] = tech.vdd_nominal - (tech.vth0_pmos + sample.vth_offset)
            self._overdrive_n[index] = tech.vdd_nominal - (tech.vth0_nmos + sample.vth_offset)
            pop_rng_p, pop_rng_n = rng.spawn(2)
            draws_p.append(draw_population(tech.nbti_traps, self._pmos_owners.size, pop_rng_p))
            draws_n.append(draw_population(tech.pbti_traps, self._nmos_owners.size, pop_rng_n))

        #: Per-chip simulated seconds (the ``FpgaChip.elapsed`` clock).
        self.elapsed = np.zeros(self.n_chips)
        self._trap_updates = self.tracer.counter(
            "bti.trap_updates", "per-transistor trap-population evolutions"
        )
        if fidelity == "exact":
            self._pmos = FleetTraps(
                tech.nbti_traps, self._pmos_owners.size, draws_p,
                guard=self.guard, tracer=self.tracer,
            )
            self._nmos = FleetTraps(
                tech.pbti_traps, self._nmos_owners.size, draws_n,
                guard=self.guard, tracer=self.tracer,
            )
            # Per-owner ceiling on delta_vth (every trap occupied), PMOS
            # owners first: the domain bound of the device.delta_vth
            # contract.  _owner_order maps that layout back to owner order.
            self._dvth_caps = np.concatenate(
                (self._pmos.max_delta_vth(), self._nmos.max_delta_vth()), axis=1
            )
            self._owner_order = np.argsort(
                np.concatenate((self._pmos_owners, self._nmos_owners))
            )
        else:
            self._rep_p, class_of_owner_p = self._owner_classes(self._pmos_owners)
            self._rep_n, class_of_owner_n = self._owner_classes(self._nmos_owners)
            self._pmos = BinnedFleetTraps(
                TrapGrid(tech.nbti_traps, self._rep_p.size, bins_per_decade),
                self.n_chips,
                guard=self.guard,
            )
            self._nmos = BinnedFleetTraps(
                TrapGrid(tech.pbti_traps, self._rep_n.size, bins_per_decade),
                self.n_chips,
                guard=self.guard,
            )
            for index in range(self.n_chips):
                self._pmos.add_chip(
                    index,
                    draws_p[index],
                    class_of_owner_p,
                    self._weights_p[index] / self._overdrive_p[index],
                )
                self._nmos.add_chip(
                    index,
                    draws_n[index],
                    class_of_owner_n,
                    self._weights_n[index] / self._overdrive_n[index],
                )

    def _owner_classes(self, owners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bias classes of one polarity's owners.

        Two owners belong to one class iff their voltage fractions agree
        in every bias the schedule grammar can apply (DC pattern, both AC
        patterns) — then their traps see identical voltage histories and
        can share grid cells.  Returns ``(representatives,
        class_of_owner)``: the position among ``owners`` of each class's
        first owner, whose voltage stands for the class, and each
        owner's class.
        """
        dc = self.netlist.dc_stress_fractions(1)
        ac_a, ac_b = self.netlist.ac_stress_fractions()
        signature = np.stack([dc[owners], ac_a[owners], ac_b[owners]], axis=1)
        _, first, inverse = np.unique(
            signature, axis=0, return_index=True, return_inverse=True
        )
        return first, inverse

    # ------------------------------------------------------------------ #
    # bias application (lock-step groups)
    # ------------------------------------------------------------------ #

    def _bias(
        self,
        stress: bool,
        temperatures: np.ndarray,
        supplies: np.ndarray,
        mode: StressMode = StressMode.DC,
        chain_input: int = 1,
    ) -> tuple[tuple[np.ndarray, np.ndarray], float, tuple[np.ndarray, np.ndarray] | None]:
        """Validated per-chip voltages ``(v_stress, duty, v_relax)`` of a bias.

        A stress bias freezes the ring at ``chain_input`` (DC) or lets it
        oscillate at 50 % duty between the two complementary static
        patterns (AC); a recovery bias puts the non-positive supply on
        every device.  ``temperatures`` (kelvin) and ``supplies`` (volts)
        are per chip; each voltage block is a ``(PMOS, NMOS)`` pair of
        ``(k, owners)`` arrays.
        """
        supplies = np.asarray(supplies, dtype=float)
        if stress:
            if (supplies <= 0.0).any():
                raise ConfigurationError("stress requires a positive supply; use apply_recovery")
            self._check_temperatures(temperatures)
            if mode is StressMode.DC:
                fractions = self.netlist.dc_stress_fractions(chain_input)
                return self._scaled(supplies, fractions), 1.0, None
            if mode is StressMode.AC:
                pattern_a, pattern_b = self.netlist.ac_stress_fractions()
                return (
                    self._scaled(supplies, pattern_a), 0.5, self._scaled(supplies, pattern_b)
                )
            raise ConfigurationError(f"unknown stress mode {mode!r}")
        for supply in supplies.tolist():
            if supply > 0.0:
                raise ConfigurationError("recovery needs a non-positive supply voltage")
            self.tech.check_recovery_voltage(supply)
        self._check_temperatures(temperatures)
        return self._scaled(supplies, np.ones(self.netlist.n_owners)), 1.0, None

    def _scaled(
        self, supplies: np.ndarray, fractions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-chip ``supply * fraction`` voltages, split by polarity."""
        return (
            supplies[:, None] * fractions[self._pmos_owners],
            supplies[:, None] * fractions[self._nmos_owners],
        )

    def _segment_bias(self, segment: CycleSegment, temperatures: np.ndarray):
        """:meth:`_bias` of one schedule segment applied to every chip of a span.

        A stress segment without a supply runs on the nominal rail; a
        recovery segment without one is power-gated at 0 V.
        """
        supply = segment.supply_voltage
        if supply is None:
            supply = self.tech.vdd_nominal if segment.stress else 0.0
        return self._bias(
            segment.stress,
            temperatures,
            np.full(temperatures.size, float(supply)),
            segment.mode,
            segment.chain_input,
        )

    def _check_temperatures(self, temperatures) -> None:
        for temperature in np.asarray(temperatures, dtype=float).tolist():
            self.tech.check_temperature(temperature)

    def apply_stress(
        self,
        duration: float,
        temperatures: np.ndarray,
        supplies: np.ndarray,
        mode: StressMode = StressMode.DC,
        chain_input: int = 1,
        chips: slice = slice(None),
    ) -> None:
        """Stress a contiguous chip span for ``duration`` seconds.

        ``temperatures`` (kelvin) and ``supplies`` (volts) are per-chip
        delivered values; the bias pattern (DC freeze or AC oscillation)
        is shared — lock-step groups always run the same phase.
        """
        bias = self._bias(True, temperatures, supplies, mode, chain_input)
        self._evolve_span(duration, temperatures, *bias, chips)

    def apply_recovery(
        self,
        duration: float,
        temperatures: np.ndarray,
        supplies: np.ndarray,
        chips: slice = slice(None),
    ) -> None:
        """Recover a contiguous chip span (0 V passive or negative rail)."""
        self._evolve_span(duration, temperatures, *self._bias(False, temperatures, supplies), chips)

    def _apply_segment(self, segment: CycleSegment, chips: slice) -> None:
        """Run one schedule segment once on a chip span (the view's bias path)."""
        lo, hi = chip_range(chips, self.n_chips)
        temperatures = np.full(hi - lo, float(segment.temperature))
        bias = self._segment_bias(segment, temperatures)
        self._evolve_span(segment.duration, temperatures, *bias, chips)

    def apply_cycles(
        self, segments: Sequence[CycleSegment], n: int, chips: slice = slice(None)
    ) -> None:
        """Advance a chip span through ``n`` repetitions of a segment sequence.

        Uses the closed-form affine composition of
        :meth:`~repro.bti.fleet.FleetTraps.evolve_cycles` — exact (the
        same piecewise-constant physics as running the segments in a
        loop) but O(1) in ``n``.  Only valid when every cycle really is
        identical: any per-cycle feedback (adaptive duty, jittered
        instruments) must stay on the loop path.  Exact fidelity only.
        """
        if n < 0:
            raise ConfigurationError(f"cycle count must be non-negative, got {n}")
        if not segments:
            raise ConfigurationError("apply_cycles needs at least one segment")
        if self.fidelity != "exact":
            raise ConfigurationError("apply_cycles needs the exact fidelity")
        if n == 0:
            return
        lo, hi = chip_range(chips, self.n_chips)
        phases: tuple[list[FleetCyclePhase], list[FleetCyclePhase]] = ([], [])
        period = 0.0
        for segment in segments:
            temperatures = np.full(hi - lo, float(segment.temperature))
            v_stress, duty, v_relax = self._segment_bias(segment, temperatures)
            for polarity, polarity_phases in enumerate(phases):
                polarity_phases.append(
                    FleetCyclePhase(
                        duration=segment.duration,
                        v_stress=v_stress[polarity],
                        temperatures=temperatures,
                        duty=duty,
                        v_relax=None if v_relax is None else v_relax[polarity],
                    )
                )
            period += segment.duration
        span = slice(lo, hi)
        self._pmos.evolve_cycles(phases[0], n, chips=span)
        self._nmos.evolve_cycles(phases[1], n, chips=span)
        self._trap_updates.inc(self.netlist.n_owners * len(segments) * n * (hi - lo))
        self.elapsed[span] += n * period

    def _evolve_span(
        self,
        duration: float,
        temperatures: np.ndarray,
        v_stress: tuple[np.ndarray, np.ndarray],
        duty: float,
        v_relax: tuple[np.ndarray, np.ndarray] | None,
        chips: slice,
    ) -> None:
        lo, hi = chip_range(chips, self.n_chips)
        span = slice(lo, hi)
        relax = (None, None) if v_relax is None else v_relax
        if self.fidelity == "exact":
            for pop, v, r in zip((self._pmos, self._nmos), v_stress, relax):
                pop.evolve(duration, v, temperatures, duty=duty, v_relax=r, chips=span)
        else:
            # Class voltages: every owner of a class shares its fraction
            # row, so one representative owner's voltage stands for all.
            for pop, rep, v, r in zip(
                (self._pmos, self._nmos), (self._rep_p, self._rep_n), v_stress, relax
            ):
                pop.evolve(
                    duration, v[:, rep], temperatures,
                    duty=duty, v_class_relax=None if r is None else r[:, rep], chips=span,
                )
        self._trap_updates.inc(self.netlist.n_owners * (hi - lo))
        self.elapsed[span] += duration

    # ------------------------------------------------------------------ #
    # observables
    # ------------------------------------------------------------------ #

    def _shifts(self, span: slice) -> np.ndarray:
        """Checked ``(k, n_owners)`` threshold shifts of a span, PMOS owners first.

        Contract: each shift lives in ``[0, sum of that owner's trap
        impacts]`` — BTI only raises Vth, and a fully occupied population
        is the worst case.
        """
        shifts = np.concatenate((self._pmos.delta_vth(span), self._nmos.delta_vth(span)), axis=1)
        guard = self.guard
        if guard.checking:
            shifts = guard.check_array(
                "device.delta_vth",
                shifts,
                0.0,
                self._dvth_caps[span],
                inputs=lambda: {
                    "chips": self.chip_ids[span],
                    "elapsed": self.elapsed[span].tolist(),
                },
            )
        return shifts

    def delta_vth_all(self, chips: slice = slice(None)) -> np.ndarray:
        """Per-chip per-owner threshold shifts, ``(k, n_owners)`` in owner
        order (exact only)."""
        if self.fidelity != "exact":
            raise ConfigurationError("per-owner delta_vth needs the exact fidelity")
        lo, hi = chip_range(chips, self.n_chips)
        return self._shifts(slice(lo, hi))[:, self._owner_order]

    def path_delays(self, chips: slice = slice(None)) -> np.ndarray:
        """Per-chip CUT delay in seconds, ``(k,)`` (half the RO period).

        Exact fidelity sums the chip's delay law over every device's
        threshold shift; binned fidelity reads the pooled linear
        observable of each population.  Contract: finite and never
        below the chip's fresh delay — aging only slows the CUT, and a
        full recovery asymptotically returns to (but never overshoots)
        the fresh chip.
        """
        lo, hi = chip_range(chips, self.n_chips)
        span = slice(lo, hi)
        if self.fidelity == "exact":
            shifts = self._shifts(span)
            n_pmos = self._pmos_owners.size
            law = self._delay_law
            shift_p = law(
                self._weights_p[span], shifts[:, :n_pmos], self._overdrive_p[span]
            ).sum(axis=1)
            shift_n = law(
                self._weights_n[span], shifts[:, n_pmos:], self._overdrive_n[span]
            ).sum(axis=1)
        else:
            shift_p = self._pmos.readout_shift(span)
            shift_n = self._nmos.readout_shift(span)
        fresh = self.fresh_path_delays[span]
        delays = fresh + shift_p + shift_n
        guard = self.guard
        if guard.checking:
            for offset, (delay, chip_fresh) in enumerate(zip(delays.tolist(), fresh.tolist())):
                index = lo + offset
                delays[offset] = guard.check_scalar(
                    "fpga.path_delay",
                    delay,
                    chip_fresh,
                    np.inf,
                    tol=1e-9 * chip_fresh,
                    inputs=lambda: {
                        "chip": self.chip_ids[index],
                        "fresh": chip_fresh,
                        "elapsed": float(self.elapsed[index]),
                    },
                )
        return delays

    def frequencies(self, chips: slice = slice(None)) -> np.ndarray:
        """Per-chip noise-free RO frequency ``1 / (2 * path_delay)``."""
        return 1.0 / (2.0 * self.path_delays(chips))

    # ------------------------------------------------------------------ #
    # per-chip state (checkpoint / sanitizer / fault surface)
    # ------------------------------------------------------------------ #

    def export_chip_state(self, index: int) -> dict:
        """One chip's mutable state: both trap occupancies and three clocks."""
        return {
            "pmos_occupancy": self._pmos.occupancy_row(index),
            "pmos_elapsed": float(self._pmos.elapsed[index]),
            "nmos_occupancy": self._nmos.occupancy_row(index),
            "nmos_elapsed": float(self._nmos.elapsed[index]),
            "elapsed": float(self.elapsed[index]),
        }

    def import_chip_state(self, index: int, state: dict) -> None:
        """Restore one chip's mutable state from :meth:`export_chip_state`."""
        self._pmos.set_occupancy_row(
            index, state["pmos_occupancy"], float(state["pmos_elapsed"])
        )
        self._nmos.set_occupancy_row(
            index, state["nmos_occupancy"], float(state["nmos_elapsed"])
        )
        self.elapsed[index] = float(state["elapsed"])

    def reset_chip(self, index: int) -> None:
        """Return one lot position to the fresh, unaged state."""
        for pop in (self._pmos, self._nmos):
            pop.set_occupancy_row(index, np.zeros_like(pop.occupancy_row(index)), 0.0)
        self.elapsed[index] = 0.0

    def inject_trap_upset_chip(self, index: int, value: float, n_traps: int = 64) -> None:
        """Corrupt the leading trap occupancies of one chip's populations."""
        self._pmos.inject_upset(index, value, n_traps)
        self._nmos.inject_upset(index, value, n_traps)

    def view(self, index: int) -> "FpgaChip":
        """The :class:`FpgaChip` of one lot position (exact fidelity only)."""
        if self.fidelity != "exact":
            raise ConfigurationError("a chip view requires the exact fidelity")
        if not 0 <= index < self.n_chips:
            raise ConfigurationError(f"chip index {index} outside this fleet")
        return FpgaChip._of(self, index)


class FpgaChip:
    """One virtual chip under test: a view of one :class:`FleetChip` position.

    Parameters
    ----------
    chip_id:
        Label used in campaign data logs ("chip-1" .. "chip-5").
    n_stages:
        Ring-oscillator length (paper: 75 LUT inverters).
    tech:
        Process constants.
    variation:
        Statistical process spread; each chip samples its own instance so
        fresh frequencies differ chip to chip, as the paper observes.
    fabric / location:
        Optional placement of the CUT on the fabric; adds the systematic
        delay gradient of the location (default: the fabric centre).
    delay_model:
        "first-order" for the paper's Eq. (6) linearisation (default) or
        "alpha-power" for the ablation model.
    enable_gated:
        Gate the ring with a NAND enable stage (paper Fig. 3).
    seed:
        Seeds both the variation draw and the trap populations, making a
        chip fully reproducible.
    tracer:
        Telemetry sink counting trap-state updates; defaults to the
        process tracer (a no-op unless one was installed).
    guard:
        The chip's contract checker; defaults to the ambient guard.
    """

    def __init__(
        self,
        chip_id: str = "chip-1",
        n_stages: int = 75,
        tech: TechnologyParameters = TECH_40NM,
        variation: ProcessVariation | None = None,
        fabric: Fabric | None = None,
        location: Location | None = None,
        delay_model: str = "first-order",
        enable_gated: bool = False,
        seed: int | None = None,
        tracer=None,
        guard=None,
    ) -> None:
        fleet = FleetChip(
            [chip_id],
            [seed],
            tech=tech,
            variation=variation,
            n_stages=n_stages,
            fabric=fabric,
            locations=None if location is None else [location],
            delay_model=delay_model,
            enable_gated=enable_gated,
            guard=guard,
            tracer=tracer,
        )
        self._attach(fleet, 0)

    @classmethod
    def _of(cls, fleet: FleetChip, index: int) -> "FpgaChip":
        chip = cls.__new__(cls)
        chip._attach(fleet, index)
        return chip

    def _attach(self, fleet: FleetChip, index: int) -> None:
        self._fleet = fleet
        self._index = index
        self._span = slice(index, index + 1)
        self.chip_id = fleet.chip_ids[index]
        self.tech = fleet.tech
        self.netlist = fleet.netlist
        #: The chip's contract checker (its lot's guard).
        self.guard = fleet.guard
        self.fresh_path_delay = float(fleet.fresh_path_delays[index])

    # ------------------------------------------------------------------ #
    # observables
    # ------------------------------------------------------------------ #

    @property
    def elapsed(self) -> float:
        """Simulated seconds the chip has lived through."""
        return float(self._fleet.elapsed[self._index])

    @property
    def n_owners(self) -> int:
        """Total number of aging transistors on the CUT."""
        return self.netlist.n_owners

    def delta_vth(self) -> np.ndarray:
        """Per-owner expected threshold shift (volts), global owner order."""
        return self._fleet.delta_vth_all(self._span)[0]

    def path_delay(self) -> float:
        """Current CUT delay in seconds (half the oscillation period)."""
        return float(self._fleet.path_delays(self._span)[0])

    def delta_path_delay(self) -> float:
        """Delay increase versus the fresh chip (paper's dTd)."""
        return self.path_delay() - self.fresh_path_delay

    def oscillation_frequency(self) -> float:
        """Ring-oscillator frequency ``1 / (2 * path_delay)`` in Hz."""
        return 1.0 / (2.0 * self.path_delay())

    # ------------------------------------------------------------------ #
    # bias application
    # ------------------------------------------------------------------ #

    def apply_stress(
        self,
        duration: float,
        temperature: float,
        supply_voltage: float | None = None,
        mode: StressMode = StressMode.DC,
        chain_input: int = 1,
    ) -> None:
        """Stress the CUT for ``duration`` seconds.

        DC mode freezes the ring at ``chain_input``; AC mode lets it
        oscillate (50 % duty between the two complementary static
        patterns).  ``supply_voltage`` defaults to the nominal rail.
        """
        self._fleet._apply_segment(
            CycleSegment.active(duration, temperature, supply_voltage, mode, chain_input),
            self._span,
        )

    def apply_recovery(
        self, duration: float, temperature: float, supply_voltage: float = 0.0
    ) -> None:
        """Let the CUT recover for ``duration`` seconds.

        ``supply_voltage`` of 0 is passive recovery (power gated); a
        negative value is the paper's accelerated recovery.  Every device
        sees the recovery bias uniformly.
        """
        self._fleet._apply_segment(
            CycleSegment.sleep(duration, temperature, supply_voltage), self._span
        )

    def apply_cycles(self, segments: Sequence[CycleSegment], n: int) -> None:
        """Advance through ``n`` repetitions of a fixed segment sequence.

        The closed form of :meth:`FleetChip.apply_cycles` — exact, O(1)
        in ``n``, and only valid when every cycle really is identical.
        """
        self._fleet.apply_cycles(segments, n, chips=self._span)

    # ------------------------------------------------------------------ #
    # state management
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """Capture aging state for later :meth:`restore` (what-if runs)."""
        return self.export_state()

    def restore(self, state: dict) -> None:
        """Restore a snapshot taken on this chip."""
        self.import_state(state)

    def reset(self) -> None:
        """Return the chip to the fresh, unaged state."""
        self._fleet.reset_chip(self._index)

    def inject_trap_upset(self, value: float, n_traps: int = 64) -> None:
        """Corrupt the leading trap occupancies of both populations.

        Fault-injection hook for the lab's ``TRAP_UPSET`` events: writes
        ``value`` (typically NaN or an out-of-domain occupancy) straight
        into the state, bypassing the physics.  The corruption surfaces at
        the next evolve step through the :mod:`repro.guard` contracts.
        """
        self._fleet.inject_trap_upset_chip(self._index, value, n_traps)

    def export_state(self) -> dict[str, np.ndarray | float]:
        """Aging state as plain arrays/floats, for on-disk checkpoints.

        Everything mutable lives here: the two trap occupancies and the
        three clocks.  The immutable parts (variation sample, netlist,
        weights) are reproduced exactly by rebuilding the chip from the
        same seed, so a checkpoint never stores them.
        """
        return self._fleet.export_chip_state(self._index)

    def import_state(self, state: dict) -> None:
        """Restore a state produced by :meth:`export_state`.

        The chip must have been built from the same seed/technology — the
        occupancy shapes are validated against this chip's populations.
        """
        self._fleet.import_chip_state(self._index, state)
