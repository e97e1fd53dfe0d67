"""Microscopic trapping/detrapping (TD) ensemble — the virtual silicon.

The aggregate log(1+Ct) stress law and fast-then-logarithmic recovery that
the paper's first-order model (Eqs. 1-4) captures emerge microscopically
from an ensemble of independent oxide traps whose capture and emission time
constants are distributed log-uniformly over many decades [Velamala et al.,
DAC 2012].  This module describes that ensemble:

* each trap ``i`` has a capture time constant ``tau_c0[i]`` (at the
  reference stress bias) and an emission time constant ``tau_e0[i]`` (at
  the reference recovery bias), both drawn log-uniformly;
* its occupancy probability ``p`` obeys ``dp/dt = (1-p)*rc - p*re`` with
  bias/temperature dependent rates, which has an exact exponential solution
  over any piecewise-constant phase — no time-stepping error;
* an occupied trap shifts the owning transistor's threshold voltage by an
  exponentially distributed amount ``impact[i]``.

The population is vectorised across *all* transistors of a chip: traps are
stored in flat arrays with an ``owner`` index, so evolving a 75-LUT ring
oscillator over a 24 h phase is a handful of numpy operations.

One engine evolves every ensemble: :class:`~repro.bti.fleet.FleetTraps`.
:class:`TrapPopulation` is its one-chip view — it draws the chip's traps,
normalises the per-owner bias spellings and delegates the update, the
closed-form cycle compression and the rate cache to a one-chip fleet, so
a chip aged alone and the same chip aged in a lot run the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bti.conditions import BiasCondition, BiasPhase
from repro.errors import ConfigurationError
from repro.guard import safe_exp, safe_exp_array
from repro.obs import get_tracer
from repro.units import BOLTZMANN_EV, celsius


@dataclass(frozen=True)
class TrapParameters:
    """Statistical description of a transistor's trap population.

    Parameters
    ----------
    mean_trap_count:
        Poisson mean of the number of traps per transistor.
    tau_capture_bounds / tau_emission_bounds:
        (min, max) in seconds of the log-uniform distributions for the
        capture time constant at the reference stress bias and the emission
        time constant at the reference recovery bias.
    impact_mean_volts:
        Mean of the exponential per-trap threshold-voltage impact.
    ea_capture_ev / ea_emission_ev:
        Arrhenius activation energies of capture and emission.
    gamma_capture_per_volt / gamma_emission_per_volt:
        Exponential field-acceleration coefficients.  Capture speeds up
        with stress overdrive; emission speeds up as the overdrive drops
        below (and especially beyond, i.e. negative) the recovery
        reference.
    reference_stress_voltage / reference_recovery_voltage:
        Overdrives at which ``tau_c0`` / ``tau_e0`` are quoted.
    reference_temperature:
        Temperature (kelvin) at which both are quoted.
    """

    mean_trap_count: float = 80.0
    tau_capture_bounds: tuple[float, float] = (5e6, 1e12)
    tau_emission_bounds: tuple[float, float] = (10.0, 2.0e9)
    impact_mean_volts: float = 3.2e-3
    ea_capture_ev: float = 0.90
    ea_emission_ev: float = 0.60
    gamma_capture_per_volt: float = 5.0
    gamma_emission_per_volt: float = 8.2
    reference_stress_voltage: float = 1.2
    reference_recovery_voltage: float = 0.0
    reference_temperature: float = celsius(20.0)
    # AC duty-factor correction: duty-averaged rate equations alone
    # under-predict the measured gap between AC and DC stress, because
    # capture under fast toggling is additionally suppressed by sub-cycle
    # emission dynamics that rate averaging cannot see.  The stress-bias
    # capture rate is multiplied by ``ac_capture_suppression**(1 - duty)``
    # (1.0 under DC, the full suppression as duty -> 0), the standard
    # shape of measured AC-BTI duty-factor curves.
    ac_capture_suppression: float = 0.01

    def __post_init__(self) -> None:
        if self.mean_trap_count <= 0.0:
            raise ConfigurationError("mean_trap_count must be positive")
        for name in ("tau_capture_bounds", "tau_emission_bounds"):
            lo, hi = getattr(self, name)
            if lo <= 0.0 or hi <= lo:
                raise ConfigurationError(f"{name} must satisfy 0 < min < max")
        if self.impact_mean_volts <= 0.0:
            raise ConfigurationError("impact_mean_volts must be positive")
        if not 0.0 < self.ac_capture_suppression <= 1.0:
            raise ConfigurationError("ac_capture_suppression must be in (0, 1]")
        if self.reference_temperature <= 0.0:
            raise ConfigurationError("reference_temperature must be positive kelvin")


@dataclass
class _PopulationState:
    """Snapshot of the mutable part of a population (occupancies + time)."""

    occupancy: np.ndarray
    elapsed: float = 0.0


@dataclass(frozen=True)
class CyclePhase:
    """One leg of a repeating bias cycle, in :meth:`TrapPopulation.evolve` terms.

    ``stress_voltage`` and ``relax_voltage`` follow the same per-owner
    (or scalar) convention as ``evolve``; the phase is piecewise constant
    so its occupancy update is an exact affine map.
    """

    duration: float
    stress_voltage: np.ndarray | float
    temperature: float
    duty: float = 1.0
    relax_voltage: np.ndarray | float = 0.0

    def __post_init__(self) -> None:
        if self.duration < 0.0:
            raise ConfigurationError(
                f"cycle phase duration must be non-negative, got {self.duration}"
            )
        if not 0.0 <= self.duty <= 1.0:
            raise ConfigurationError(f"duty must be within [0, 1], got {self.duty}")


def _arrhenius(params: TrapParameters, temperature: float) -> tuple[float, float]:
    """Scalar capture/emission Arrhenius factors relative to the reference.

    Scalar ``math.exp`` (via ``safe_exp``) on purpose: ``np.exp`` differs
    from it by one ULP on some inputs, and every engine must agree
    bit-for-bit on these factors.
    """
    inv_kt = 1.0 / (BOLTZMANN_EV * temperature)
    inv_kt_ref = 1.0 / (BOLTZMANN_EV * params.reference_temperature)
    # safe_exp: as T -> 0 K the exponent diverges; saturate rather than
    # overflow to inf (which would NaN-poison the rate product).
    arr_c = safe_exp(-params.ea_capture_ev * (inv_kt - inv_kt_ref))
    arr_e = safe_exp(-params.ea_emission_ev * (inv_kt - inv_kt_ref))
    return arr_c, arr_e


class TrapPopulation:
    """Trap ensemble shared by a group of transistors ("owners").

    Each owner is one aging transistor; the population tracks which traps
    belong to which owner so that a phase can apply a *different* stress
    voltage per owner (the LUT model decides who is stressed) while the
    whole chip still evolves in one vectorised update.

    The population is a one-chip view of a
    :class:`~repro.bti.fleet.FleetTraps`: trap constants, occupancy,
    clock and rate cache live in the fleet, and every update runs there.
    ``tracer`` receives the rate-cache and cycle-compression counters and
    ``guard`` checks the rate and occupancy contracts; both default to
    the ambient ones.
    """

    def __init__(
        self,
        params: TrapParameters,
        n_owners: int,
        rng: np.random.Generator | int | None = None,
        tracer=None,
        guard=None,
    ) -> None:
        # Function-level import: repro.bti.fleet imports this module.
        from repro.bti.fleet import FleetTraps, draw_population

        if n_owners <= 0:
            raise ConfigurationError(f"n_owners must be positive, got {n_owners}")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self.params = params
        self.n_owners = n_owners
        tracer = tracer if tracer is not None else get_tracer()
        fleet = FleetTraps(
            params, n_owners, [draw_population(params, n_owners, rng)],
            guard=guard, tracer=tracer,
        )
        self._fleet = fleet
        # A one-chip fleet's flat arrays are this chip's own.
        self.owner = fleet.owner_global
        self.tau_c0 = fleet.tau_c0
        self.tau_e0 = fleet.tau_e0
        self.impact = fleet.impact

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def n_traps(self) -> int:
        """Total trap count across all owners."""
        return self.owner.size

    @property
    def elapsed(self) -> float:
        """Simulated wall-clock seconds accumulated by ``evolve`` calls."""
        return float(self._fleet.elapsed[0])

    @property
    def occupancy(self) -> np.ndarray:
        """Per-trap occupancy probabilities (read-only view)."""
        view = self._fleet.occupancy.view()
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------ #
    # physics
    # ------------------------------------------------------------------ #

    def _rates(self, stress_voltage: np.ndarray, temperature: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-trap capture and emission rates (1/s) at a bias point.

        ``stress_voltage`` is broadcast per trap (already expanded from the
        per-owner vector by the caller).  This is the uncached reference
        path, evaluated per trap rather than per owner.
        """
        p = self.params
        arr_c, arr_e = _arrhenius(p, temperature)
        capture = (
            (1.0 / self.tau_c0)
            * arr_c
            * safe_exp_array(
                p.gamma_capture_per_volt
                * (stress_voltage - p.reference_stress_voltage)
            )
        )
        emission = (
            (1.0 / self.tau_e0)
            * arr_e
            * safe_exp_array(
                -p.gamma_emission_per_volt
                * (stress_voltage - p.reference_recovery_voltage)
            )
        )
        return capture, emission

    def _row(self, per_owner: np.ndarray | float) -> np.ndarray:
        """A bias argument as the ``(1, n_owners)`` row ``FleetTraps`` takes.

        A scalar, a 0-d array or a length-1 vector (the shape a batched
        broadcast or an ``np.atleast_1d`` caller naturally produces) is a
        uniform bias; a full ``(n_owners,)`` vector is a per-owner
        pattern.  Anything else is a shape bug.
        """
        arr = np.asarray(per_owner, dtype=float)
        if arr.shape == (self.n_owners,):
            return arr.reshape(1, self.n_owners)
        if arr.ndim == 0 or arr.shape == (1,):
            return np.full((1, self.n_owners), arr.item())
        raise ConfigurationError(
            f"per-owner vector must have shape ({self.n_owners},), got {arr.shape}"
        )

    def _expand(self, per_owner: np.ndarray | float) -> np.ndarray:
        """Broadcast a per-owner vector (or scalar) to per-trap."""
        return self._row(per_owner)[0][self.owner]

    def evolve(
        self,
        duration: float,
        stress_voltage: np.ndarray | float,
        temperature: float,
        duty: float = 1.0,
        relax_voltage: np.ndarray | float = 0.0,
    ) -> None:
        """Advance every trap through one piecewise-constant phase.

        ``stress_voltage`` may be a scalar or a per-owner vector; with a
        duty cycle below 1.0 the off fraction sits at ``relax_voltage``.
        The update is the exact solution of the occupancy ODE with
        duty-averaged rates: ``p' = p_inf + (p - p_inf) * exp(-(rc+re)*dt)``.
        """
        self._fleet.evolve(
            duration,
            self._row(stress_voltage),
            (temperature,),
            duty=duty,
            v_relax=self._row(relax_voltage),
        )

    def evolve_cycles(self, phases: Sequence[CyclePhase], n: int) -> None:
        """Advance through ``n`` repetitions of a fixed phase sequence, O(1) in ``n``.

        The exact affine closed form of
        :meth:`~repro.bti.fleet.FleetTraps.evolve_cycles`.
        """
        from repro.bti.fleet import FleetCyclePhase

        self._fleet.evolve_cycles(
            [
                FleetCyclePhase(
                    phase.duration,
                    self._row(phase.stress_voltage),
                    (phase.temperature,),
                    duty=phase.duty,
                    v_relax=self._row(phase.relax_voltage),
                )
                for phase in phases
            ],
            n,
        )

    def evolve_phase(self, phase: BiasPhase, stress_mask: np.ndarray | None = None) -> None:
        """Advance through a :class:`BiasPhase`.

        ``stress_mask`` (per owner, boolean) selects which owners actually
        see the phase's stress voltage; unmasked owners sit at the phase's
        relax bias for the whole duration.  This is how the LUT model
        expresses "only M1 and M5 are under stress".
        """
        relax = phase.effective_relax_bias
        if stress_mask is None:
            v_stress: np.ndarray | float = phase.bias.stress_voltage
            v_relax: np.ndarray | float = relax.stress_voltage
        else:
            mask = np.asarray(stress_mask, dtype=bool)
            if mask.shape != (self.n_owners,):
                raise ConfigurationError(
                    f"stress_mask must have shape ({self.n_owners},), got {mask.shape}"
                )
            v_stress = np.where(mask, phase.bias.stress_voltage, relax.stress_voltage)
            v_relax = np.full(self.n_owners, relax.stress_voltage)
        self.evolve(
            phase.duration,
            v_stress,
            phase.bias.temperature,
            duty=phase.waveform.duty,
            relax_voltage=v_relax,
        )

    # ------------------------------------------------------------------ #
    # observables
    # ------------------------------------------------------------------ #

    def delta_vth(self) -> np.ndarray:
        """Expected per-owner threshold-voltage shift (volts, mean-field)."""
        return self._fleet.delta_vth()[0]

    def max_delta_vth(self) -> np.ndarray:
        """Per-owner ceiling on :meth:`delta_vth` (every trap occupied)."""
        return self._fleet.max_delta_vth()[0]

    def sample_delta_vth(self, rng: np.random.Generator | int | None = None) -> np.ndarray:
        """One stochastic per-owner shift: each trap is occupied or not.

        Use this for statistical-aging studies; the mean over many samples
        converges to :meth:`delta_vth`.
        """
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        occupied = rng.random(self.n_traps) < self._fleet.occupancy
        return np.bincount(
            self.owner, weights=occupied * self.impact, minlength=self.n_owners
        )

    def equilibrium_delta_vth(
        self, condition: BiasCondition
    ) -> np.ndarray:
        """Per-owner shift if the population equilibrated at ``condition``."""
        v = self._expand(condition.stress_voltage)
        capture, emission = self._rates(v, condition.temperature)
        p_inf = capture / (capture + emission)
        return np.bincount(self.owner, weights=p_inf * self.impact, minlength=self.n_owners)

    # ------------------------------------------------------------------ #
    # state management
    # ------------------------------------------------------------------ #

    def inject_upset(self, value: float, n_traps: int = 64) -> None:
        """Fault-injection hook: overwrite the first ``n_traps`` occupancies.

        Bypasses the physics on purpose — campaigns use this (via
        ``FaultKind.TRAP_UPSET``) to model a corrupted readout/state
        upset and exercise the guard's detect/clamp/quarantine path.  The
        poked values (NaN, >1, <0 ...) are caught by the ``bti.occupancy``
        contract on the next ``evolve``.
        """
        self._fleet.inject_upset(0, value, n_traps)

    def reset(self) -> None:
        """Return every trap to the fresh (empty) state and zero the clock."""
        self.restore(_PopulationState(occupancy=np.zeros(self.n_traps)))

    def snapshot(self) -> _PopulationState:
        """Capture the mutable state for later :meth:`restore` (what-if runs)."""
        return _PopulationState(occupancy=self._fleet.occupancy_row(0), elapsed=self.elapsed)

    def restore(self, state: _PopulationState) -> None:
        """Restore a state captured by :meth:`snapshot` (drops the rate cache)."""
        if state.occupancy.shape != (self.n_traps,):
            raise ConfigurationError("snapshot does not match this population")
        self._fleet.set_occupancy_row(0, state.occupancy, state.elapsed)
