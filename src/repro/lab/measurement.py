"""Virtual testbench: wires a chip to the instruments and runs phases.

The testbench reproduces the paper's measurement discipline:

* the chamber temperature actually delivered to the chip jitters within
  +/-0.3 degC and is re-sampled every chunk, so aging sees realistic
  thermal noise;
* during DC stress and during recovery the RO sleeps and is woken every
  sampling interval for a ~3 s readout burst (the paper's "data sampling
  overhead is less than 3 s") — the burst itself briefly AC-stresses the
  chip at nominal rail, exactly as on hardware;
* each readout averages a few counter reads from a stable window.

There is one bench.  :class:`VirtualTestbench` is a one-chip view of
:class:`~repro.lab.fleet.FleetBench`, which runs lock-step groups of a
chip lot; both are defined in :mod:`repro.lab.fleet`, and this module
is their import home for single-chip users.
"""

from repro.lab.fleet import FleetBench, VirtualTestbench

__all__ = ["FleetBench", "VirtualTestbench"]
