"""Struct-of-arrays trap engines: one ``evolve`` call ages a wafer lot.

Every trap ensemble in the library evolves here.  Per-chip dispatch and
guard overhead are paid once per chip span per chunk, not once per chip:

* :class:`FleetTraps` — the *exact* engine.  Per-chip trap arrays (drawn
  with :func:`draw_population`) are concatenated into flat
  struct-of-arrays state with a global owner index, so one elementwise
  update advances every trap of every chip.  Because the update is
  elementwise and numpy elementwise kernels are value-identical across
  slicing/concatenation, each chip's row is bit-identical to evolving
  that chip alone.  :class:`~repro.bti.traps.TrapPopulation` is a
  one-chip view of this engine, so a chip aged alone and the same chip
  aged in a lot run the same code.

* :class:`BinnedFleetTraps` — the *population-scale* engine.  Each chip's
  traps are quantised onto a shared log-log (tau_c, tau_e) grid per
  bias-class (owners whose voltage history is identical in every phase
  pool their traps), so occupancy state shrinks from ~43k traps to a few
  thousand cells per chip and the whole lot evolves as one
  ``(n_chips, n_cells)`` array.  Tau quantisation (default 3 bins per
  decade, a <15 % rounding of log-uniformly drawn constants) is the only
  approximation; it is statistically invisible in population
  distributions but *not* bit-identical to the exact engine — use it for
  10k-chip fleets, never for bit-identity checks.

Both engines use the Arrhenius/field-acceleration rate model of
:class:`~repro.bti.traps.TrapParameters`.  The exact engine computes the
scalar Arrhenius factors with ``safe_exp`` (``math.exp``) per chip —
``np.exp`` differs from ``math.exp`` by one ULP on ~4 % of inputs, which
would silently break bit-identity — and scales each chip's slice of the
rates by its own factor.

The exact engine memoises the duty-averaged, temperature-free rate bases
of a span in a small LRU, keyed by span and bias.  Instrument jitter
makes each stress chunk's voltages unique, so an entry is admitted only
on the second sighting of its key; the repeated readout bursts and
recovery chunks are what hit.  Restoring a chip's state drops the cache.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bti.traps import TrapParameters, _arrhenius
from repro.errors import ConfigurationError
from repro.guard import ChipGuards, get_guard, safe_exp_array
from repro.obs import get_tracer
from repro.units import BOLTZMANN_EV

#: Entries the exact engine's duty-mix cache retains.  A lock-step group
#: replays one readout-burst pattern and one recovery pattern at a time,
#: so a handful of entries covers it; each entry is two span-sized arrays.
MIX_CACHE_ENTRIES = 4

#: Key hashes remembered by the cache's admission filter.  An entry is
#: stored only when its key's hash is already here (its second use), so
#: per-chunk jittered stress voltages, each seen once, never occupy memory.
_ADMISSION_HISTORY = 16


class _LruCache:
    """A tiny bounded LRU map (the rate cache; not thread-safe)."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()

    def get(self, key):
        """The cached value, refreshed as most recent, or ``None``."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        """Insert a value, evicting the least recently used past the bound."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


def _log_uniform(rng: np.random.Generator, bounds: tuple[float, float], size: int) -> np.ndarray:
    lo, hi = bounds
    # Bounded by construction: the exponent is a draw in [log lo, log hi].
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=size))  # repro: noqa[RPR006]


@dataclass(frozen=True)
class TrapDraws:
    """One chip-population's frozen random draws (no mutable state).

    Drawn by :func:`draw_population`, the only trap draw in the library,
    so a chip built from the same child stream holds bit-identical trap
    constants whether it is a lone ``TrapPopulation`` or a lot member.
    """

    owner: np.ndarray
    tau_c0: np.ndarray
    tau_e0: np.ndarray
    impact: np.ndarray

    @property
    def n_traps(self) -> int:
        return self.owner.size


def draw_population(
    params: TrapParameters, n_owners: int, rng: np.random.Generator
) -> TrapDraws:
    """Draw one population's constants: counts, both taus, then impacts."""
    counts = rng.poisson(params.mean_trap_count, size=n_owners)
    owner = np.repeat(np.arange(n_owners), counts)
    n_traps = int(counts.sum())
    tau_c0 = _log_uniform(rng, params.tau_capture_bounds, n_traps)
    tau_e0 = _log_uniform(rng, params.tau_emission_bounds, n_traps)
    impact = rng.exponential(params.impact_mean_volts, size=n_traps)
    return TrapDraws(owner=owner, tau_c0=tau_c0, tau_e0=tau_e0, impact=impact)


def _chip_guards(guard, n_chips: int) -> ChipGuards:
    """A lot's :class:`ChipGuards` from a guard argument (``None``: ambient)."""
    if isinstance(guard, ChipGuards):
        return guard
    return ChipGuards.shared(guard if guard is not None else get_guard(), n_chips)


def chip_range(chips: slice, n_chips: int) -> tuple[int, int]:
    """``(lo, hi)`` of a contiguous, non-empty chip slice; others raise."""
    lo, hi, step = chips.indices(n_chips)
    if step != 1 or hi <= lo:
        raise ConfigurationError("fleet chip slices must be contiguous and non-empty")
    return lo, hi


def _check_phase(
    duration: float, duty: float, temperatures, k: int, width: int, *voltages
) -> np.ndarray:
    """Validate one phase of a ``k``-chip span; its ``(k,)`` kelvin as floats.

    ``duration`` must be non-negative, ``duty`` within [0, 1], every
    voltage block (``None`` skipped) of shape ``(k, width)`` and
    ``temperatures`` of shape ``(k,)``.
    """
    if duration < 0.0:
        raise ConfigurationError(f"duration must be non-negative, got {duration}")
    if not 0.0 <= duty <= 1.0:
        raise ConfigurationError(f"duty must be within [0, 1], got {duty}")
    for block in voltages:
        if block is not None and np.shape(block) != (k, width):
            raise ConfigurationError(
                f"voltage blocks must have shape ({k}, {width}), got {np.shape(block)}"
            )
    temperatures = np.asarray(temperatures, dtype=float)
    if temperatures.shape != (k,):
        raise ConfigurationError(
            f"temperatures must have shape ({k},), got {temperatures.shape}"
        )
    return temperatures


@dataclass(frozen=True)
class FleetCyclePhase:
    """One leg of a repeating fleet schedule (``evolve_cycles`` terms).

    Voltages are per-chip-per-owner matrices of the sub-fleet the cycles
    run on; the phase is piecewise constant, so the batched update is the
    same exact affine map as the single-chip closed form.
    """

    duration: float
    v_stress: np.ndarray
    temperatures: np.ndarray
    duty: float = 1.0
    v_relax: np.ndarray | None = None


class FleetTraps:
    """Exact struct-of-arrays ensemble: N same-netlist chips, one polarity.

    Parameters
    ----------
    params:
        Shared :class:`TrapParameters` (all chips are the same process).
    n_owners:
        Owners *per chip* for this polarity.
    draws:
        One :class:`TrapDraws` per chip, in fleet order.
    guard:
        Contract checker for the batched updates: one
        :class:`~repro.guard.Guard` for the whole ensemble, or the lot's
        :class:`~repro.guard.ChipGuards`; defaults to the ambient guard.
    tracer:
        Receives the rate-cache and cycle-compression counters; defaults
        to the ambient tracer.
    """

    def __init__(
        self,
        params: TrapParameters,
        n_owners: int,
        draws: Sequence[TrapDraws],
        guard=None,
        tracer=None,
    ) -> None:
        if n_owners <= 0:
            raise ConfigurationError(f"n_owners must be positive, got {n_owners}")
        if not draws:
            raise ConfigurationError("a fleet needs at least one chip")
        self.params = params
        self.n_owners = n_owners
        self.n_chips = len(draws)
        trap_counts = np.array([d.n_traps for d in draws], dtype=np.int64)
        self.trap_counts = trap_counts
        #: trap_offsets[i]:trap_offsets[i+1] is chip i's span in the flat arrays.
        self.trap_offsets = np.concatenate(([0], np.cumsum(trap_counts)))
        self._offsets = self.trap_offsets.tolist()
        self.owner_global = np.concatenate(
            [d.owner + index * n_owners for index, d in enumerate(draws)]
        )
        self.tau_c0 = np.concatenate([d.tau_c0 for d in draws])
        self.tau_e0 = np.concatenate([d.tau_e0 for d in draws])
        self.impact = np.concatenate([d.impact for d in draws])
        self._inv_tau_c0 = 1.0 / self.tau_c0
        self._inv_tau_e0 = 1.0 / self.tau_e0
        n_total = int(trap_counts.sum())
        self.occupancy = np.zeros(n_total)
        #: Per-chip simulated seconds (one float64 addition per phase).
        self.elapsed = np.zeros(self.n_chips)
        # Update scratch; free between calls, so delta_vth reuses one.
        self._scratch_total = np.empty(n_total)
        self._scratch_pinf = np.empty(n_total)
        # Owner-resolution voltage factors of a span starting at chip lo
        # are written at offset lo * n_owners, so the flat owner_global
        # index gathers them without a per-call rebased copy; the leading
        # pad is never read.
        self._vfac_c = np.zeros(self.n_chips * n_owners)
        self._vfac_e = np.zeros(self.n_chips * n_owners)
        # Duty-averaged, temperature-free rate bases, keyed by span and
        # bias.  Chamber temperature jitters on every chunk, so a
        # temperature-keyed level would never hit.
        self._comb_cache = _LruCache(MIX_CACHE_ENTRIES)
        self._seen_keys = _LruCache(_ADMISSION_HISTORY)
        self._guards = _chip_guards(guard, self.n_chips)
        tracer = tracer if tracer is not None else get_tracer()
        self._cache_partial_hits = tracer.counter(
            "bti.rate_cache.partial_hits",
            "rate lookups that reused cached voltage factors",
        )
        self._cache_misses = tracer.counter(
            "bti.rate_cache.misses", "rate lookups that recomputed voltage factors"
        )
        self._cycles_compressed = tracer.counter(
            "bti.cycles_compressed", "schedule cycles folded by evolve_cycles"
        )

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #

    @property
    def n_traps(self) -> int:
        """Total trap count across the whole fleet."""
        return self.owner_global.size

    def _span(self, chips: slice) -> tuple[slice, int, int]:
        """(trap span, first chip, chip count) of a contiguous chip slice."""
        lo, hi = chip_range(chips, self.n_chips)
        return slice(self._offsets[lo], self._offsets[hi]), lo, hi - lo

    # ------------------------------------------------------------------ #
    # physics
    # ------------------------------------------------------------------ #

    def _base_rates(
        self, v_owner_flat: np.ndarray, trap_span: slice, lo: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Temperature-free per-trap rate bases ``(1/tau) * exp(gamma*dV)``.

        ``v_owner_flat`` is the raveled ``(k, n_owners)`` voltage block of
        the span.  The voltage factor is computed at owner resolution and
        expanded by gather — ``exp(x)[owner]`` equals ``exp(x[owner])``
        bit-for-bit at a fraction of the exp cost, since owners are ~100x
        fewer than traps.
        """
        p = self.params
        pad = lo * self.n_owners
        vfac_c = self._vfac_c[: pad + v_owner_flat.size]
        vfac_e = self._vfac_e[: pad + v_owner_flat.size]
        vfac_c[pad:] = safe_exp_array(
            p.gamma_capture_per_volt * (v_owner_flat - p.reference_stress_voltage)
        )
        vfac_e[pad:] = safe_exp_array(
            -p.gamma_emission_per_volt * (v_owner_flat - p.reference_recovery_voltage)
        )
        owner = self.owner_global[trap_span]
        # In place on the gathers (IEEE products commute): one temporary
        # per array less at the peak of a wide span's update.
        base_c = vfac_c[owner]
        base_c *= self._inv_tau_c0[trap_span]
        base_e = vfac_e[owner]
        base_e *= self._inv_tau_e0[trap_span]
        return base_c, base_e

    def _mixed_rates(
        self,
        v_stress: np.ndarray,
        duty: float,
        v_relax: np.ndarray | None,
        trap_span: slice,
        lo: int,
        k: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Duty-averaged, temperature-free rate bases of a span (memoised).

        The scalar Arrhenius factors distribute over the duty mix, so the
        mix can be cached and scaled per chip afterwards.  An entry is
        admitted on the second sighting of its key: jittered stress
        voltages are seen once and would only churn the cache.  Returned
        arrays may be shared with the cache; callers must not mutate them.
        """
        v_stress = np.asarray(v_stress, dtype=float)
        relax = None
        if duty < 1.0:  # callers validate duty <= 1.0, so the rest is pure DC
            relax = np.zeros_like(v_stress) if v_relax is None else np.asarray(v_relax, dtype=float)
        key = (lo, k, v_stress.tobytes(), None if relax is None else relax.tobytes(), duty)
        comb = self._comb_cache.get(key)
        if comb is not None:
            self._cache_partial_hits.inc()
            return comb
        self._cache_misses.inc()
        comb_c, comb_e = self._base_rates(np.ravel(v_stress), trap_span, lo)
        if relax is not None:
            relax_c, relax_e = self._base_rates(np.ravel(relax), trap_span, lo)
            suppression = self.params.ac_capture_suppression ** (1.0 - duty)
            # duty * suppression * comb_c + (1 - duty) * relax_c, and the
            # emission mix, evaluated in place on the fresh bases.
            comb_c *= duty * suppression
            relax_c *= 1.0 - duty
            comb_c += relax_c
            comb_e *= duty
            relax_e *= 1.0 - duty
            comb_e += relax_e
        # A hash collision only admits an entry early; values are still
        # looked up by the full key, so results cannot change.
        digest = hash(key)
        if self._seen_keys.get(digest) is None:
            self._seen_keys.put(digest, True)
        else:
            comb_c.flags.writeable = False
            comb_e.flags.writeable = False
            self._comb_cache.put(key, (comb_c, comb_e))
        return comb_c, comb_e

    def _effective_rates(
        self,
        v_stress: np.ndarray,
        temperatures: np.ndarray,
        duty: float,
        v_relax: np.ndarray | None,
        trap_span: slice,
        lo: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Duty-averaged per-trap rates for a contiguous chip span.

        Each chip's slice is scaled by its own scalar Arrhenius factor,
        the same IEEE product the single-chip path computes.
        """
        k = temperatures.size
        comb_c, comb_e = self._mixed_rates(v_stress, duty, v_relax, trap_span, lo, k)
        capture = np.empty(comb_c.size)
        emission = np.empty(comb_e.size)
        base = self._offsets[lo]
        for index, temperature in enumerate(temperatures.tolist()):
            arr_c, arr_e = _arrhenius(self.params, temperature)
            a = self._offsets[lo + index] - base
            b = self._offsets[lo + index + 1] - base
            np.multiply(comb_c[a:b], arr_c, out=capture[a:b])
            np.multiply(comb_e[a:b], arr_e, out=emission[a:b])
        guards = self._guards
        if guards.checking:
            # Each factor is exp-clamped, but their product can still
            # overflow to inf; repair/raise before the update reads it.
            rate_cap = guards.config.rate_cap
            chips = range(lo, lo + k)

            def inputs() -> dict:
                return {
                    "temperature": temperatures.tolist(),
                    "duty": float(duty),
                    "fleet_chips": int(k),
                }

            capture = guards.check_rows(
                "bti.rate", capture, 0.0, rate_cap, chips, self._offsets, inputs=inputs
            )
            emission = guards.check_rows(
                "bti.rate", emission, 0.0, rate_cap, chips, self._offsets, inputs=inputs
            )
        return capture, emission

    def evolve(
        self,
        duration: float,
        v_stress: np.ndarray,
        temperatures: np.ndarray,
        duty: float = 1.0,
        v_relax: np.ndarray | None = None,
        chips: slice = slice(None),
    ) -> None:
        """Advance every trap of a chip span through one phase.

        ``v_stress`` / ``v_relax`` are ``(k, n_owners)`` per-chip voltage
        patterns (``v_relax`` defaults to 0 V) and ``temperatures`` the
        per-chip delivered kelvin.  With a duty cycle below 1.0 the off
        fraction sits at ``v_relax``.  The update is the exact solution of
        the occupancy ODE with duty-averaged rates,
        ``p' = p_inf + (p - p_inf) * exp(-(rc+re)*dt)``, elementwise, so
        each chip's occupancy row is bit-identical to evolving it alone.
        """
        trap_span, lo, k = self._span(chips)
        temperatures = _check_phase(
            duration, duty, temperatures, k, self.n_owners, v_stress, v_relax
        )
        if duration <= 0.0:  # zero-length phase is a no-op (negatives raise above)
            return
        guards = self._guards
        known = len(guards.exhausted)
        capture, emission = self._effective_rates(
            v_stress, temperatures, duty, v_relax, trap_span, lo
        )
        held = {}
        if len(guards.exhausted) > known:
            # A chip whose budget ran out on its rates skips this step,
            # as a lone chip whose rate check raised would.
            held = {
                chip: (self.occupancy_row(chip), float(self.elapsed[chip]))
                for chip in range(lo, lo + k)
                if chip in guards.exhausted
            }
        total = np.add(capture, emission, out=self._scratch_total[trap_span])
        p_inf = np.divide(capture, total, out=self._scratch_pinf[trap_span])
        np.multiply(total, -duration, out=total)
        # total = -(capture+emission)*duration <= 0: underflow-only, safe.
        decay = np.exp(total, out=total)  # repro: noqa[RPR006]
        occupancy = self.occupancy[trap_span]
        np.subtract(occupancy, p_inf, out=occupancy)
        np.multiply(occupancy, decay, out=occupancy)
        np.add(occupancy, p_inf, out=occupancy)
        self.elapsed[lo : lo + k] += duration
        for chip, (row, elapsed) in held.items():
            self.occupancy[self._offsets[chip] : self._offsets[chip + 1]] = row
            self.elapsed[chip] = elapsed
        if guards.checking:
            guards.check_rows(
                "bti.occupancy",
                occupancy,
                0.0,
                1.0,
                range(lo, lo + k),
                self._offsets,
                inputs=lambda: {
                    "op": "fleet.evolve",
                    "duration": float(duration),
                    "temperature": temperatures.tolist(),
                    "duty": float(duty),
                    "fleet_chips": int(k),
                    "elapsed": self.elapsed[lo : lo + k].tolist(),
                },
                arrays=lambda: {
                    **self._bundle_arrays(trap_span, lo),
                    "stress_voltage": np.asarray(v_stress, dtype=float),
                    "relax_voltage": (
                        np.zeros((k, self.n_owners))
                        if v_relax is None
                        else np.asarray(v_relax, dtype=float)
                    ),
                    "temperatures": temperatures,
                },
            )

    def evolve_cycles(
        self, phases: Sequence[FleetCyclePhase], n: int, chips: slice = slice(None)
    ) -> None:
        """``n`` repetitions of a fixed phase sequence, O(1) in ``n``.

        Every :meth:`evolve` is an elementwise affine map ``p' = a*p + b``
        with ``a = exp(-(rc+re)*dt)`` and ``b = p_inf*(1 - a)``, so one
        full cycle composes to an affine map ``p' = a_c*p + b_c`` and N
        identical cycles to the exact closed form::

            p' = a_c**N * p  +  b_c * (1 - a_c**N) / (1 - a_c)

        The cycle decay is accumulated as an exponent sum (``a_c =
        exp(-X)`` with ``X = sum((rc+re)*dt)``) and ``1 - a_c`` is
        evaluated via ``expm1`` so slow traps keep full precision.  Every
        phase is validated like an :meth:`evolve` call before any state
        changes.
        """
        if n < 0:
            raise ConfigurationError(f"cycle count must be non-negative, got {n}")
        if not phases:
            raise ConfigurationError("evolve_cycles needs at least one phase")
        if n == 0:
            return
        trap_span, lo, k = self._span(chips)
        temperatures = [
            _check_phase(
                phase.duration, phase.duty, phase.temperatures, k, self.n_owners,
                phase.v_stress, phase.v_relax,
            )
            for phase in phases
        ]
        n_span = trap_span.stop - trap_span.start
        exponent = np.zeros(n_span)
        offset = np.zeros(n_span)
        period = 0.0
        for phase, phase_temperatures in zip(phases, temperatures):
            period += phase.duration
            if phase.duration <= 0.0:
                continue
            capture, emission = self._effective_rates(
                phase.v_stress,
                phase_temperatures,
                phase.duty,
                phase.v_relax,
                trap_span,
                lo,
            )
            total = capture + emission
            x = total * phase.duration
            # x >= 0, so exp(-x) <= 1: underflow-only, safe.
            offset = offset * np.exp(-x) + (capture / total) * -np.expm1(-x)  # repro: noqa[RPR006]
            exponent = exponent + x
        one_minus_ac = -np.expm1(-exponent)
        # Geometric-series ratio (1 - a_c**n)/(1 - a_c); when the cycle
        # decay underflows to the identity the series degenerates to n.
        ratio = np.where(
            one_minus_ac > 0.0,
            -np.expm1(-n * exponent) / np.where(one_minus_ac > 0.0, one_minus_ac, 1.0),
            float(n),
        )
        # exponent >= 0 and n >= 1, so exp(-n*exponent) <= 1: safe.
        self.occupancy[trap_span] = (
            np.exp(-n * exponent) * self.occupancy[trap_span] + offset * ratio  # repro: noqa[RPR006]
        )
        self.elapsed[lo : lo + k] += n * period
        if self._guards.checking:
            self._guards.check_rows(
                "bti.occupancy",
                self.occupancy[trap_span],
                0.0,
                1.0,
                range(lo, lo + k),
                self._offsets,
                inputs=lambda: {
                    "op": "fleet.evolve_cycles",
                    "n": int(n),
                    "period": float(period),
                    "fleet_chips": int(k),
                    "elapsed": self.elapsed[lo : lo + k].tolist(),
                },
                arrays=lambda: self._bundle_arrays(trap_span, lo),
            )
        self._cycles_compressed.inc(n)

    def _bundle_arrays(self, trap_span: slice, lo: int) -> dict:
        """A span's trap arrays for a guard repro bundle (violation slow path).

        ``owner`` is span-local (chip ``lo + i`` owns bins ``i * n_owners``
        onwards), so a one-chip span carries the chip's own owner index.
        """
        return {
            "occupancy": self.occupancy[trap_span],
            "tau_c0": self.tau_c0[trap_span],
            "tau_e0": self.tau_e0[trap_span],
            "impact": self.impact[trap_span],
            "owner": self.owner_global[trap_span] - lo * self.n_owners,
        }

    # ------------------------------------------------------------------ #
    # observables / state
    # ------------------------------------------------------------------ #

    def delta_vth(self, chips: slice = slice(None)) -> np.ndarray:
        """Per-chip per-owner expected threshold shift, ``(k, n_owners)``.

        One bincount over the span's traps; row ``i`` is bit-identical to
        the shift of chip ``lo + i`` evolved alone.
        """
        trap_span, lo, k = self._span(chips)
        weights = np.multiply(
            self.occupancy[trap_span],
            self.impact[trap_span],
            out=self._scratch_pinf[trap_span],
        )
        return self._owner_sums(weights, trap_span, lo, k)

    def max_delta_vth(self, chips: slice = slice(None)) -> np.ndarray:
        """Per-chip per-owner ceiling on :meth:`delta_vth` (all traps occupied)."""
        trap_span, lo, k = self._span(chips)
        return self._owner_sums(self.impact[trap_span], trap_span, lo, k)

    def _owner_sums(
        self, weights: np.ndarray, trap_span: slice, lo: int, k: int
    ) -> np.ndarray:
        """``(k, n_owners)`` per-owner sums of a span's per-trap weights.

        Bins by the flat owner index and drops the ``lo * n_owners``
        leading (empty) bins; each bin's sum is unchanged by the offset.
        """
        pad = lo * self.n_owners
        counts = np.bincount(
            self.owner_global[trap_span], weights=weights, minlength=pad + k * self.n_owners
        )
        return counts[pad:].reshape(k, self.n_owners)

    def occupancy_row(self, index: int) -> np.ndarray:
        """Copy of one chip's occupancy slice (checkpoint/export form)."""
        span = slice(int(self.trap_offsets[index]), int(self.trap_offsets[index + 1]))
        return self.occupancy[span].copy()

    def set_occupancy_row(self, index: int, occupancy: np.ndarray, elapsed: float) -> None:
        """Restore one chip's occupancy slice (checkpoint/import form).

        Drops the rate cache: a restored state must never read rates
        memoised on another trajectory.
        """
        span = slice(int(self.trap_offsets[index]), int(self.trap_offsets[index + 1]))
        occupancy = np.asarray(occupancy, dtype=float)
        if occupancy.shape != (span.stop - span.start,):
            raise ConfigurationError("snapshot does not match this fleet population")
        self.occupancy[span] = occupancy
        self.elapsed[index] = float(elapsed)
        self._comb_cache.clear()

    def inject_upset(self, index: int, value: float, n_traps: int = 64) -> None:
        """Fault-injection hook: corrupt the head of one chip's trap span."""
        start = int(self.trap_offsets[index])
        count = min(int(n_traps), int(self.trap_counts[index]))
        self.occupancy[start : start + count] = value


# ---------------------------------------------------------------------- #
# population-scale (binned) engine
# ---------------------------------------------------------------------- #


class TrapGrid:
    """Shared log-log (tau_c, tau_e) x bias-class grid for one polarity.

    The grid covers exactly the draw bounds of ``params`` (draws are
    log-uniform inside them by construction).  A cell's representative
    time constants are the geometric centres of its bin; quantising a
    trap onto its cell moves each tau by at most half a bin width.
    """

    def __init__(
        self, params: TrapParameters, n_classes: int, bins_per_decade: float = 3.0
    ) -> None:
        if n_classes <= 0:
            raise ConfigurationError(f"n_classes must be positive, got {n_classes}")
        if bins_per_decade <= 0.0:
            raise ConfigurationError("bins_per_decade must be positive")
        self.params = params
        self.n_classes = n_classes
        self.bins_per_decade = bins_per_decade
        self._log_lo_c, self._n_c, centres_c = self._axis(params.tau_capture_bounds)
        self._log_lo_e, self._n_e, centres_e = self._axis(params.tau_emission_bounds)
        per_class = self._n_c * self._n_e
        self.n_cells = n_classes * per_class
        # Representative rates, tiled (class, tau_c, tau_e) row-major.
        inv_c = np.repeat(1.0 / centres_c, self._n_e)
        inv_e = np.tile(1.0 / centres_e, self._n_c)
        self.inv_tau_c = np.tile(inv_c, n_classes)
        self.inv_tau_e = np.tile(inv_e, n_classes)
        self.class_of_cell = np.repeat(np.arange(n_classes), per_class)

    def _axis(self, bounds: tuple[float, float]) -> tuple[float, int, np.ndarray]:
        lo, hi = bounds
        decades = np.log10(hi) - np.log10(lo)
        n_bins = max(1, int(np.ceil(decades * self.bins_per_decade)))
        width = decades / n_bins
        centres = 10.0 ** (np.log10(lo) + (np.arange(n_bins) + 0.5) * width)
        return np.log10(lo), n_bins, centres

    def cell_ids(
        self, draws: TrapDraws, class_of_owner: np.ndarray
    ) -> np.ndarray:
        """Cell index of every trap in ``draws`` (for weight accumulation)."""
        decades_c = np.log10(self.params.tau_capture_bounds[1]) - self._log_lo_c
        decades_e = np.log10(self.params.tau_emission_bounds[1]) - self._log_lo_e
        ic = np.floor(
            (np.log10(draws.tau_c0) - self._log_lo_c) / decades_c * self._n_c
        ).astype(np.int64)
        ie = np.floor(
            (np.log10(draws.tau_e0) - self._log_lo_e) / decades_e * self._n_e
        ).astype(np.int64)
        np.clip(ic, 0, self._n_c - 1, out=ic)
        np.clip(ie, 0, self._n_e - 1, out=ie)
        cls = class_of_owner[draws.owner]
        return (cls * self._n_c + ic) * self._n_e + ie


class BinnedFleetTraps:
    """Quantised-ensemble fleet state: ``(n_chips, n_cells)`` occupancy.

    Each chip contributes per-cell *readout weights* (sums of
    impact x delay-sensitivity over the traps that landed in the cell),
    so the chip-level observable collapses to one dot product per chip.
    Rates are computed per (chip, bias-class) and gathered per cell —
    the same Arrhenius/field model as the exact engine, evaluated at the
    cell's representative time constants.
    """

    def __init__(
        self,
        grid: TrapGrid,
        n_chips: int,
        dtype=np.float32,
        guard=None,
    ) -> None:
        if n_chips <= 0:
            raise ConfigurationError(f"n_chips must be positive, got {n_chips}")
        self.grid = grid
        self.n_chips = n_chips
        self.dtype = np.dtype(dtype)
        self.occupancy = np.zeros((n_chips, grid.n_cells), dtype=self.dtype)
        self.readout_weight = np.zeros((n_chips, grid.n_cells), dtype=self.dtype)
        self.elapsed = np.zeros(n_chips)
        self._inv_c = grid.inv_tau_c.astype(self.dtype)
        self._inv_e = grid.inv_tau_e.astype(self.dtype)
        self._guards = _chip_guards(guard, n_chips)
        shape = (n_chips, grid.n_cells)
        self._b_rc = np.empty(shape, dtype=self.dtype)
        self._b_re = np.empty(shape, dtype=self.dtype)
        self._b_tmp = np.empty(shape, dtype=self.dtype)
        self._b_tmp2 = np.empty(shape, dtype=self.dtype)

    def add_chip(
        self, index: int, draws: TrapDraws, class_of_owner: np.ndarray, owner_weight: np.ndarray
    ) -> None:
        """Bin one chip's draws: readout weight = impact x owner sensitivity."""
        cells = self.grid.cell_ids(draws, class_of_owner)
        weights = draws.impact * owner_weight[draws.owner]
        row = np.bincount(cells, weights=weights, minlength=self.grid.n_cells)
        self.readout_weight[index] = row.astype(self.dtype)

    def _class_factors(
        self, v_class: np.ndarray, arr_c: np.ndarray, arr_e: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(chip, class) capture/emission factors for a class-voltage matrix."""
        p = self.grid.params
        fac_c = safe_exp_array(
            p.gamma_capture_per_volt * (v_class - p.reference_stress_voltage)
        ) * arr_c[:, None]
        fac_e = safe_exp_array(
            -p.gamma_emission_per_volt * (v_class - p.reference_recovery_voltage)
        ) * arr_e[:, None]
        return fac_c.astype(self.dtype), fac_e.astype(self.dtype)

    def _rates_into(
        self,
        fac_c: np.ndarray,
        fac_e: np.ndarray,
        rc: np.ndarray,
        re: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Expand class factors to per-cell rates, one pass per class.

        Cells are laid out class-major (``class_of_cell`` is a repeat of
        ``arange(n_classes)``), so the gather collapses to a broadcast
        multiply per contiguous class segment — no index arrays.
        """
        per_class = self.grid.n_cells // self.grid.n_classes
        for class_index in range(self.grid.n_classes):
            seg = slice(class_index * per_class, (class_index + 1) * per_class)
            np.multiply(
                self._inv_c[seg], fac_c[:, class_index : class_index + 1], out=rc[:, seg]
            )
            np.multiply(
                self._inv_e[seg], fac_e[:, class_index : class_index + 1], out=re[:, seg]
            )
        return rc, re

    def evolve(
        self,
        duration: float,
        v_class: np.ndarray,
        temperatures: np.ndarray,
        duty: float = 1.0,
        v_class_relax: np.ndarray | None = None,
        chips: slice = slice(None),
    ) -> None:
        """Advance a chip span; ``v_class`` is ``(k, n_classes)`` volts.

        With ``duty < 1`` the off fraction sits at ``v_class_relax`` and
        the duty-averaged rate combination (including the AC capture
        suppression) matches the exact engine's.
        """
        lo, hi = chip_range(chips, self.n_chips)
        temperatures = _check_phase(
            duration, duty, temperatures, hi - lo, self.grid.n_classes, v_class, v_class_relax
        )
        if duration <= 0.0:
            return
        p = self.grid.params
        inv_kt = 1.0 / (BOLTZMANN_EV * temperatures)
        inv_kt_ref = 1.0 / (BOLTZMANN_EV * p.reference_temperature)
        # Population-scale engine: vectorised exp is deliberate — the
        # binned fidelity never claims bit-identity with the scalar path.
        arr_c = np.exp(np.minimum(-p.ea_capture_ev * (inv_kt - inv_kt_ref), 700.0))  # repro: noqa[RPR006]
        arr_e = np.exp(np.minimum(-p.ea_emission_ev * (inv_kt - inv_kt_ref), 700.0))  # repro: noqa[RPR006]
        fac_c, fac_e = self._class_factors(np.asarray(v_class, dtype=float), arr_c, arr_e)
        rc, re = self._rates_into(fac_c, fac_e, self._b_rc[lo:hi], self._b_re[lo:hi])
        if duty < 1.0:
            relax = (
                np.zeros_like(v_class)
                if v_class_relax is None
                else np.asarray(v_class_relax, dtype=float)
            )
            fac_rc, fac_re = self._class_factors(relax, arr_c, arr_e)
            tmp = self._b_tmp[lo:hi]
            tmp2 = self._b_tmp2[lo:hi]
            self._rates_into(fac_rc, fac_re, tmp, tmp2)
            suppression = self.dtype.type(
                p.ac_capture_suppression ** (1.0 - duty)
            )
            off_weight = self.dtype.type(1.0 - duty)
            np.multiply(rc, self.dtype.type(duty) * suppression, out=rc)
            np.multiply(tmp, off_weight, out=tmp)
            rc += tmp
            np.multiply(re, self.dtype.type(duty), out=re)
            np.multiply(tmp2, off_weight, out=tmp2)
            re += tmp2
        total = np.add(rc, re, out=re)
        p_inf = np.divide(rc, total, out=rc)
        np.multiply(total, self.dtype.type(-duration), out=total)
        decay = np.exp(total, out=total)  # repro: noqa[RPR006]
        occupancy = self.occupancy[lo:hi]
        np.subtract(occupancy, p_inf, out=occupancy)
        np.multiply(occupancy, decay, out=occupancy)
        np.add(occupancy, p_inf, out=occupancy)
        self.elapsed[lo:hi] += duration
        if self._guards.checking:
            self._guards.check_rows(
                "bti.occupancy",
                occupancy,
                0.0,
                1.0,
                range(lo, hi),
                range(self.n_chips + 1),
                inputs=lambda: {
                    "op": "fleet.binned_evolve",
                    "duration": float(duration),
                    "duty": float(duty),
                    "fleet_chips": int(hi - lo),
                },
            )

    def readout_shift(self, chips: slice = slice(None)) -> np.ndarray:
        """Per-chip delay shift: one dot product of occupancy x weights."""
        lo, hi = chip_range(chips, self.n_chips)
        shift = np.einsum(
            "ij,ij->i", self.occupancy[lo:hi], self.readout_weight[lo:hi]
        )
        return shift.astype(float)

    def occupancy_row(self, index: int) -> np.ndarray:
        """Copy of one chip's cell occupancy (export form)."""
        return self.occupancy[index].copy()

    def set_occupancy_row(self, index: int, occupancy: np.ndarray, elapsed: float) -> None:
        """Restore one chip's cell occupancy (import form)."""
        occupancy = np.asarray(occupancy, dtype=self.dtype)
        if occupancy.shape != (self.grid.n_cells,):
            raise ConfigurationError("snapshot does not match this binned fleet")
        self.occupancy[index] = occupancy
        self.elapsed[index] = float(elapsed)

    def inject_upset(self, index: int, value: float, n_cells: int = 64) -> None:
        """Fault-injection hook: corrupt the head of one chip's cell row."""
        count = min(int(n_cells), self.grid.n_cells)
        self.occupancy[index, :count] = value
