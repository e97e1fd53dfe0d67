"""Gate-delay models mapping threshold shifts to delay shifts.

Two models are provided:

* :class:`FirstOrderDelayShift` — the paper's Eq. (5)-(6) linearisation,
  ``d(td) = td0 * dVth / (Vdd - Vth)``;
* :class:`AlphaPowerDelayModel` — the alpha-power saturation-current law,
  ``td ~ Vdd / (Vdd - Vth)**alpha``, kept as the higher-fidelity ablation
  (the paper acknowledges its delay estimate is first order).

Both expose the same ``delay_shift`` interface.  The laws themselves are
the array functions :func:`first_order_shift` and :func:`alpha_power_shift`
(named in :data:`DELAY_LAWS`), which take the overdrive ``Vdd - Vth0``
directly, so the FPGA substrate applies either to a batch of chips with
a per-chip overdrive column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.errors import ConfigurationError
from repro.guard import GuardMode, get_guard

#: Velocity-saturation index of the alpha-power law at 40 nm.
DEFAULT_ALPHA = 1.3


class GateDelayModel(Protocol):
    """Anything that maps (td0, dVth) to a delay increase."""

    def delay_shift(
        self, td0: np.ndarray | float, dvth: np.ndarray | float
    ) -> np.ndarray | float:
        """Delay increase of a gate with fresh delay ``td0`` under ``dvth``."""
        ...


@dataclass(frozen=True)
class FirstOrderDelayShift:
    """Paper Eq. (6): ``d(td) = td0 * dVth / (Vdd - Vth0)``."""

    vdd: float
    vth0: float

    def __post_init__(self) -> None:
        if self.vdd <= self.vth0:
            raise ConfigurationError("vdd must exceed vth0 for a meaningful overdrive")

    def delay_shift(
        self, td0: np.ndarray | float, dvth: np.ndarray | float
    ) -> np.ndarray | float:
        """Linearised delay increase (same shape as the broadcast inputs)."""
        return _scalar_or_array(first_order_shift(td0, dvth, self.vdd - self.vth0))


@dataclass(frozen=True)
class AlphaPowerDelayModel:
    """Alpha-power law: ``td ~ Vdd / (Vdd - Vth)**alpha``.

    ``alpha`` is the velocity-saturation index (~1.3 at 40 nm).  The delay
    shift is exact under the law rather than linearised:
    ``d(td) = td0 * (((Vdd - Vth0) / (Vdd - Vth0 - dVth))**alpha - 1)``.
    """

    vdd: float
    vth0: float
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        if self.vdd <= self.vth0:
            raise ConfigurationError("vdd must exceed vth0 for a meaningful overdrive")
        if self.alpha < 1.0:
            raise ConfigurationError(f"alpha must be >= 1, got {self.alpha}")

    def delay_shift(
        self, td0: np.ndarray | float, dvth: np.ndarray | float
    ) -> np.ndarray | float:
        """Delay increase under the alpha-power law."""
        return _scalar_or_array(
            alpha_power_shift(td0, dvth, self.vdd - self.vth0, self.alpha)
        )


def first_order_shift(
    td0: np.ndarray | float, dvth: np.ndarray | float, overdrive
) -> np.ndarray:
    """Eq. (6) delay increase ``td0 * dVth / (Vdd - Vth0)`` as an array.

    ``overdrive`` is ``Vdd - Vth0``: a float, or an array broadcasting
    against ``dvth`` (a per-chip column for a batch of chips).
    """
    dvth = _checked_dvth(dvth, overdrive, "FirstOrderDelayShift")
    return np.asarray(td0, dtype=float) * dvth / overdrive


def alpha_power_shift(
    td0: np.ndarray | float,
    dvth: np.ndarray | float,
    overdrive,
    alpha: float = DEFAULT_ALPHA,
) -> np.ndarray:
    """Alpha-power delay increase as an array (``overdrive`` as in
    :func:`first_order_shift`)."""
    dvth = _checked_dvth(dvth, overdrive, "AlphaPowerDelayModel")
    if np.any(dvth >= overdrive):
        raise ConfigurationError(
            "dVth reached the gate overdrive; the device no longer switches"
        )
    ratio = overdrive / (overdrive - dvth)
    return np.asarray(td0, dtype=float) * (np.power(ratio, alpha) - 1.0)


#: The delay laws by the ``delay_model`` name a chip is built with.
DELAY_LAWS = {"first-order": first_order_shift, "alpha-power": alpha_power_shift}


def _scalar_or_array(result: np.ndarray) -> np.ndarray | float:
    return float(result) if result.ndim == 0 else result


def _checked_dvth(
    dvth: np.ndarray | float, overdrive: float, model: str
) -> np.ndarray:
    """Enforce the ΔVth domain contract: non-negative and finite.

    BTI only *raises* the threshold voltage, so a negative or non-finite
    shift reaching a delay model means upstream state is corrupt.  The
    ambient guard is consulted (delay models are shared frozen values
    with no per-chip state); in campaigns the chip's own guard has
    already validated the shift, so this is the standalone-user line of
    defense.  In ``clamp`` mode the shift is additionally clipped to
    just under the overdrive, where the alpha-power model's typed
    configuration check would reject it; in ``raise`` mode that
    rejection stays a :class:`ConfigurationError`, not a violation.
    """
    dvth = np.asarray(dvth, dtype=float)
    guard = get_guard()
    if guard.checking:
        clamping = guard.mode is GuardMode.CLAMP
        ceiling = overdrive * (1.0 - 1e-9) if clamping else np.inf
        inputs = {"model": model, "overdrive": overdrive}
        if dvth.ndim == 0:
            dvth = np.asarray(
                guard.check_scalar(
                    "device.dvth", float(dvth), 0.0, ceiling, inputs=inputs
                )
            )
        else:
            if clamping and not dvth.flags.writeable:
                dvth = np.array(dvth)
            dvth = guard.check_array(
                "device.dvth", dvth, 0.0, ceiling, inputs=inputs
            )
    return dvth
