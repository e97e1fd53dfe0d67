"""Runtime physical-contract enforcement for the model stack.

The paper's claims rest on physical invariants — trap occupancy lives in
[0, 1] (Eqs. 1-4), delays and oscillation frequencies are positive
(Eqs. 5-13), recovery never overshoots the fresh device — but floating
point does not enforce them: an extreme Arrhenius exponent overflows to
``inf``, a NaN propagates silently into DataLogs and benchmark JSON.
:class:`Guard` turns those invariants into runtime contracts checked at
the hot entry points of ``bti``, ``device``, ``fpga`` and ``multicore``,
with three modes selected per campaign (``--guard-mode``):

* ``raise`` — throw :class:`~repro.errors.PhysicsViolationError`
  carrying a crash-dump *repro bundle* (offending inputs + trap-state
  ``.npz``) for offline replay;
* ``clamp`` — degrade gracefully: clamp the value into its domain,
  count ``guard.violations.*``, annotate the active obs span, and after
  a configurable violation budget hand the chip to the campaign's
  quarantine machinery so the run completes on survivors;
* ``off`` — every check is a single attribute load and branch.

The ambient default (:func:`get_guard`) is a raising guard that writes
no bundles, so library users fail fast on unphysical values without any
configuration.
"""

from repro.guard.bundle import ReproBundle, read_bundle, write_bundle
from repro.guard.contracts import (
    EXP_MAX,
    ChipGuards,
    Guard,
    GuardConfig,
    GuardMode,
    get_guard,
    safe_exp,
    safe_exp_array,
    set_guard,
    use_guard,
)

__all__ = [
    "EXP_MAX",
    "ChipGuards",
    "Guard",
    "GuardConfig",
    "GuardMode",
    "ReproBundle",
    "get_guard",
    "read_bundle",
    "safe_exp",
    "safe_exp_array",
    "set_guard",
    "use_guard",
    "write_bundle",
]
