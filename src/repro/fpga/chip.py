"""A virtual 40 nm FPGA chip: netlist + process variation + trap aging.

:class:`FpgaChip` is the library's replacement for the paper's physical
devices.  It wires NBTI (PMOS) and PBTI (NMOS pass/pulldown) trap
populations to the inverter-chain netlist and exposes the observables
the paper measures: CUT path delay and ring-oscillator frequency.

There is one chip model.  :class:`FpgaChip` is a one-chip view of
:class:`~repro.fpga.fleet.FleetChip`: a standalone chip wraps a one-chip
lot, and ``FleetChip.view(i)`` returns the chip at lot position ``i``.
Both classes, and :class:`CycleSegment` (the schedule leg of
:meth:`FpgaChip.apply_cycles`), are defined in :mod:`repro.fpga.fleet`;
this module is their import home for single-chip users.
"""

from repro.fpga.fleet import CycleSegment, FpgaChip

__all__ = ["CycleSegment", "FpgaChip"]
