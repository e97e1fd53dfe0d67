"""Bias-argument shape handling of the trap ensemble (regression).

``TrapPopulation`` historically accepted a python float or a full
``(n_owners,)`` vector, but the two shapes numpy naturally produces for
a uniform bias — a 0-d array (``np.float64`` arithmetic results) and a
length-1 vector (``np.atleast_1d`` / batched-broadcast callers) — fell
through to the wrong cache key or a shape error.  Every spelling of
"every owner at V", the full vector included, must share one cache
entry and one trajectory, and any other shape must raise.
"""

import numpy as np
import pytest

from repro.bti.traps import CyclePhase, TrapParameters, TrapPopulation
from repro.errors import ConfigurationError
from repro.obs import Tracer
from repro.units import celsius, hours


def make_population(seed=7, n_owners=4, tracer=None) -> TrapPopulation:
    return TrapPopulation(
        TrapParameters(mean_trap_count=40.0), n_owners=n_owners, rng=seed,
        tracer=tracer,
    )


HOT = celsius(110.0)
V = 1.2


def uniform_spellings(n_owners: int, value: float = V):
    """Every accepted way to say "all owners at ``value`` volts"."""
    return (
        value,
        np.float64(value),
        np.array(value),                      # 0-d
        np.array([value]),                    # (1,)
        np.full(n_owners, value),             # full vector
    )


class TestCanonicalBias:
    def test_full_vector_is_preserved(self):
        # Owners are independent: each owner of a pattern ages exactly
        # like the same owner of a population held uniformly at its level.
        pattern = np.array([1.2, 0.0, 1.2, -0.3])
        pop = make_population(seed=3)
        pop.evolve(hours(1.0), pattern, HOT)
        for owner, level in enumerate(pattern):
            uniform = make_population(seed=3)
            uniform.evolve(hours(1.0), level, HOT)
            assert pop.delta_vth()[owner] == uniform.delta_vth()[owner]

    def test_length_one_vector_on_single_owner_population(self):
        # With n_owners == 1 the shape (1,) IS the full vector; it must
        # still evolve identically to the scalar spelling.
        a = make_population(n_owners=1)
        b = make_population(n_owners=1)
        a.evolve(hours(1.0), V, HOT)
        b.evolve(hours(1.0), np.array([V]), HOT)
        np.testing.assert_array_equal(a.occupancy, b.occupancy)

    def test_wrong_shapes_rejected(self):
        pop = make_population(n_owners=4)
        for bad in (np.array([V, V]), np.zeros((4, 1)), np.zeros(5), np.zeros((1, 4))):
            with pytest.raises(ConfigurationError):
                pop.evolve(hours(1.0), bad, HOT)
            with pytest.raises(ConfigurationError):
                pop.evolve(hours(1.0), V, HOT, duty=0.5, relax_voltage=bad)
            with pytest.raises(ConfigurationError):
                pop.evolve_cycles([CyclePhase(hours(1.0), bad, HOT)], 3)
        assert not pop.occupancy.any() and pop.elapsed == 0.0

    def test_uniform_spellings_share_one_cache_key(self):
        # An entry is stored on its key's second sighting, so if all five
        # spellings share one key, the second one stores it and the last
        # three reuse it; with distinct keys all five would recompute.
        tracer = Tracer()
        pop = make_population(tracer=tracer)
        for spelling in uniform_spellings(pop.n_owners):
            pop.evolve(hours(1.0), spelling, HOT)
        assert tracer.metrics.value("bti.rate_cache.misses") == 2.0
        assert tracer.metrics.value("bti.rate_cache.partial_hits") == 3.0


class TestShapeEquivalentTrajectories:
    def test_all_uniform_spellings_evolve_bit_identically(self):
        reference = make_population(seed=11)
        reference.evolve(hours(2.0), V, HOT)
        reference.evolve(hours(1.0), -0.3, HOT, duty=0.5, relax_voltage=0.0)
        for spelling in uniform_spellings(reference.n_owners):
            pop = make_population(seed=11)
            pop.evolve(hours(2.0), spelling, HOT)
            relax = np.asarray(spelling, dtype=float) * 0.0
            pop.evolve(hours(1.0), -0.3, HOT, duty=0.5, relax_voltage=relax)
            np.testing.assert_array_equal(pop.occupancy, reference.occupancy)
            assert pop.elapsed == reference.elapsed

    def test_zero_d_bias_hits_the_scalar_cache_entry(self):
        tracer = Tracer()
        pop = make_population(seed=5, tracer=tracer)
        pop.evolve(hours(1.0), V, HOT)
        pop.evolve(hours(1.0), V, HOT)  # second use: stored
        misses_after_scalar = tracer.metrics.value("bti.rate_cache.misses")
        pop.evolve(hours(1.0), np.array(V), HOT)
        pop.evolve(hours(1.0), np.array([V]), HOT)
        assert tracer.metrics.value("bti.rate_cache.misses") == misses_after_scalar
        assert tracer.metrics.value("bti.rate_cache.partial_hits") == 2.0
