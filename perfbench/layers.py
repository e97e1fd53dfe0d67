"""Per-layer tracing for the benchmark's traced run.

The program is not instrumented: this module wraps public functions of
``repro`` from the outside, records a frame around every wrapped call and
restores the originals afterwards.  Calls of the "span" kind are kept as
spans (name, start, end, parent); high-frequency leaf calls are folded
into per-layer totals (calls, inclusive time, self time, elements).

A layer's self time is its frames' duration minus the time covered by
nested wrapped calls.  Totals per layer count only the outermost frame
of that layer, so ``evolve_phase -> evolve`` is one call, not two.

Spans recorded inside forked sweep cells are flushed to files in
``child_dir`` whenever the child's outermost frame closes; the parent
reads them back with :meth:`Recorder.collect_children`.

The recording deliberately does not reuse ``repro.obs`` spans, exporter
or trace model: ``repro.obs`` is part of the program being measured (its
cost shows in ``obs.trace_overhead``), and a later change to it must not
move the benchmark's own yardstick.  From ``repro.obs`` the benchmark
only reads the counters the program records.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import json
import os
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.obs import Tracer


def _arg(args, kwargs, index: int, name: str, default=None):
    """Argument ``name`` at positional ``index`` (self is index 0)."""
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _pop_traps(args, kwargs) -> int:
    return args[0].n_traps


def _pop_cycle_traps(args, kwargs) -> int:
    phases = _arg(args, kwargs, 1, "phases")
    return args[0].n_traps * len(phases) * int(_arg(args, kwargs, 2, "n"))


def _fleet_traps(chips_index: int) -> Callable:
    def count(args, kwargs) -> int:
        trap_span = args[0]._span(_arg(args, kwargs, chips_index, "chips", slice(None)))[0]
        return trap_span.stop - trap_span.start

    return count


def _fleet_cycle_traps(args, kwargs) -> int:
    phases = _arg(args, kwargs, 1, "phases")
    n = int(_arg(args, kwargs, 2, "n"))
    return _fleet_traps(3)(args, kwargs) * len(phases) * n


def _fleet_chips(chips_index: int) -> Callable:
    def count(args, kwargs) -> int:
        lo, hi, _ = _arg(args, kwargs, chips_index, "chips", slice(None)).indices(
            args[0].n_chips
        )
        return hi - lo

    return count


def _binned_cells(args, kwargs) -> int:
    return _fleet_chips(6)(args, kwargs) * args[0].grid.n_cells


def _reads(args, kwargs) -> int:
    return int(_arg(args, kwargs, 2, "n_reads"))


@dataclass(frozen=True)
class Wrap:
    """One public function to time: where it lives and what it counts."""

    layer: str
    module: str
    attribute: str  # "function" or "Class.method"
    span: bool = False  # keep each call as a span (else fold into totals)
    elements: Callable | None = None  # work items of one call (default 1)


#: Every wrapped function, grouped by the program's packages.  The
#: campaign entry points are spans too: their self time is glue no listed
#: layer covers, so the accounting reports it as unattributed.
WRAPS: tuple[Wrap, ...] = (
    Wrap("lab.campaign", "repro.lab.campaign", "run_table1_campaign", span=True),
    Wrap("lab.campaign", "repro.lab.fleet", "run_fleet_campaign", span=True),
    Wrap("bti.evolve", "repro.bti.traps", "TrapPopulation.evolve", True, _pop_traps),
    Wrap("bti.evolve", "repro.bti.traps", "TrapPopulation.evolve_phase", True, _pop_traps),
    Wrap("bti.evolve", "repro.bti.traps", "TrapPopulation.evolve_cycles", True,
         _pop_cycle_traps),
    Wrap("bti.delta_vth", "repro.bti.traps", "TrapPopulation.delta_vth"),
    Wrap("bti.fleet.evolve", "repro.bti.fleet", "FleetTraps.evolve", True, _fleet_traps(6)),
    Wrap("bti.fleet.evolve", "repro.bti.fleet", "FleetTraps.evolve_cycles", True,
         _fleet_cycle_traps),
    Wrap("bti.fleet.delta_vth", "repro.bti.fleet", "FleetTraps.delta_vth",
         elements=_fleet_chips(1)),
    Wrap("bti.binned.evolve", "repro.bti.fleet", "BinnedFleetTraps.evolve", True,
         _binned_cells),
    Wrap("bti.binned.readout_shift", "repro.bti.fleet", "BinnedFleetTraps.readout_shift",
         elements=_fleet_chips(1)),
    Wrap("bti.population.draw", "repro.bti.fleet", "draw_population"),
    Wrap("bti.population.draw", "repro.bti.fleet", "TrapGrid.cell_ids"),
    Wrap("bti.population.draw", "repro.bti.fleet", "BinnedFleetTraps.add_chip"),
    Wrap("fpga.apply", "repro.fpga.chip", "FpgaChip.apply_stress"),
    Wrap("fpga.apply", "repro.fpga.chip", "FpgaChip.apply_recovery"),
    Wrap("fpga.path_delay", "repro.fpga.chip", "FpgaChip.path_delay"),
    Wrap("fpga.counter", "repro.fpga.counter", "ReadoutCounter.read"),
    Wrap("fpga.counter", "repro.fpga.counter", "ReadoutCounter.read_many", elements=_reads),
    Wrap("fpga.fleet.build", "repro.fpga.fleet", "FleetChip.__init__", span=True),
    Wrap("fpga.fleet.path_delays", "repro.fpga.fleet", "FleetChip.path_delays",
         elements=_fleet_chips(1)),
    Wrap("lab.take_sample", "repro.lab.measurement", "VirtualTestbench.take_sample"),
    Wrap("lab.instrument", "repro.lab.thermal_chamber", "ThermalChamber.actual_temperature"),
    Wrap("lab.instrument", "repro.lab.power_supply", "DcPowerSupply.actual_voltage"),
    Wrap("lab.fleet.run_phase", "repro.lab.fleet", "FleetBench.run_phase", span=True),
    Wrap("guard.check", "repro.guard.contracts", "Guard.check_array"),
    Wrap("guard.check", "repro.guard.contracts", "Guard.check_scalar"),
    Wrap("guard.check", "repro.guard.contracts", "Guard.positive_scalar"),
    Wrap("core.lifetime", "repro.core.lifetime", "project_lifetime", span=True),
    Wrap("dependability.store", "repro.dependability.store", "SweepStore.write_cell",
         span=True),
    Wrap("dependability.analyze", "repro.dependability.analyzer", "analyze_sweep",
         span=True),
)

#: Layers whose self time the accounting reports as unattributed.
UNATTRIBUTED = ("op", "lab.campaign")


class LayerStats:
    """Totals of one layer: outermost calls, inclusive and self seconds."""

    __slots__ = ("calls", "total_s", "self_s", "elements")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.elements = 0

    def add(self, other: "LayerStats") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.elements += other.elements

    def to_list(self) -> list:
        return [self.calls, self.total_s, self.self_s, self.elements]

    @classmethod
    def from_list(cls, values) -> "LayerStats":
        stats = cls()
        stats.calls, stats.total_s, stats.self_s, stats.elements = values
        return stats


class Recorder:
    """In-memory spans and per-layer totals of one traced run.

    ``clock`` is injectable so tests can drive the arithmetic with a fake
    clock.  Frames are ``[span_id, layer, start, covered, outermost,
    elements]``; ``covered`` accumulates the duration of nested frames.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter, child_dir=None) -> None:
        self.clock = clock
        self.child_dir = Path(child_dir) if child_dir is not None else None
        self.spans: list[tuple] = []  # (span_id, name, start, end, parent_id)
        self.layers: dict[str, LayerStats] = {}
        self.counters: dict[str, float] = {}
        self.ambient = None  # live repro Tracer whose counters children flush
        self.in_child = False
        self._stack: list[list] = []
        self._active: dict[str, int] = {}
        self._next_id = 1

    # -- frames ------------------------------------------------------------

    def enter(self, layer: str, span: bool, elements: int = 1) -> list:
        """Open a frame; spans get an id and a parent."""
        span_id = None
        if span:
            span_id = (os.getpid(), self._next_id) if self.in_child else self._next_id
            self._next_id += 1
        outermost = not self._active.get(layer)
        self._active[layer] = self._active.get(layer, 0) + 1
        frame = [span_id, layer, self.clock(), 0.0, outermost, elements if outermost else 0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, end: float | None = None) -> None:
        """Close the innermost frame (at ``end``, default now) and fold it in."""
        end = self.clock() if end is None else end
        span_id, layer, start, covered, outermost, elements = frame
        self._stack.pop()
        self._active[layer] -= 1
        duration = end - start
        stats = self.layers.get(layer)
        if stats is None:
            stats = self.layers[layer] = LayerStats()
        stats.self_s += duration - covered
        if outermost:
            stats.calls += 1
            stats.total_s += duration
            stats.elements += elements
        if self._stack:
            self._stack[-1][3] += duration
        if span_id is not None:
            self.spans.append((span_id, layer, start, end, self.current_span()))
        if self.in_child and not self._stack:
            self._flush_child(start, end)

    def current_span(self):
        """Id of the innermost open span, or ``None``."""
        for frame in reversed(self._stack):
            if frame[0] is not None:
                return frame[0]
        return None

    def add_span(self, name: str, start: float, end: float, parent) -> int:
        """Record a span measured elsewhere (a program span); return its id."""
        span_id = self._next_id
        self._next_id += 1
        self.spans.append((span_id, name, start, end, parent))
        return span_id

    def cover(self, seconds: float) -> None:
        """Mark ``seconds`` of the open frame as covered by work elsewhere."""
        self._stack[-1][3] += seconds

    def add_layer(self, layer: str, calls: int, total_s: float, self_s: float) -> None:
        """Fold externally measured time into a layer."""
        stats = self.layers.setdefault(layer, LayerStats())
        stats.add(LayerStats.from_list([calls, total_s, self_s, 0]))

    def add_counters(self, values: dict[str, float]) -> None:
        for name, value in values.items():
            self.counters[name] = self.counters.get(name, 0.0) + value

    # -- forked children ---------------------------------------------------

    def after_fork_in_child(self) -> None:
        """Start a forked child with an empty record of its own."""
        self.in_child = True
        if self.ambient is not None:
            self.ambient.metrics.reset()  # the parent's counts, copied by fork
        self.spans = []
        self.layers = {}
        self.counters = {}
        self._stack = []
        self._active = {}

    def _flush_child(self, start: float, end: float) -> None:
        if self.ambient is not None:
            self.add_counters(counter_values(self.ambient))
            self.ambient.metrics.reset()
        payload = {
            "root": [start, end],
            "spans": self.spans,
            "layers": {name: stats.to_list() for name, stats in self.layers.items()},
            "counters": self.counters,
        }
        path = self.child_dir / f"child-{os.getpid()}.jsonl"
        with path.open("a") as handle:
            handle.write(json.dumps(payload) + "\n")
        self.spans, self.layers, self.counters = [], {}, {}

    def collect_children(self) -> tuple[list[tuple], list[tuple]]:
        """Merge and delete every child record.

        Returns the child spans and the (start, end) of every outermost
        frame the children closed: the compute time inside them.
        """
        spans: list[tuple] = []
        roots: list[tuple] = []
        for path in sorted(self.child_dir.glob("child-*.jsonl")):
            for line in path.read_text().splitlines():
                payload = json.loads(line)
                roots.append(tuple(payload["root"]))
                spans.extend(
                    (tuple(span_id), name, start, end,
                     tuple(parent) if parent is not None else None)
                    for span_id, name, start, end, parent in payload["spans"]
                )
                for name, values in payload["layers"].items():
                    self.layers.setdefault(name, LayerStats()).add(
                        LayerStats.from_list(values)
                    )
                self.add_counters(payload["counters"])
            path.unlink()
        return spans, roots


def counter_values(tracer) -> dict[str, float]:
    """Values of every counter a live repro ``Tracer`` holds."""
    registry = tracer.metrics
    return {
        name: value
        for name, value in registry.snapshot().items()
        if registry.get(name).kind == "counter"
    }


# -- installing and removing the wrappers --------------------------------


_ACTIVE: list[Recorder] = []  # the installed recorder, read by the fork hook


def _after_fork_in_child() -> None:
    if _ACTIVE:
        _ACTIVE[0].after_fork_in_child()


os.register_at_fork(after_in_child=_after_fork_in_child)


def _make_wrapper(recorder: Recorder, wrap: Wrap, original: Callable) -> Callable:
    layer, span, elements = wrap.layer, wrap.span, wrap.elements
    enter, exit_ = recorder.enter, recorder.exit
    harvest = layer == "lab.campaign"

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        count = 1
        if elements is not None and not recorder._active.get(layer):
            count = elements(args, kwargs)
        frame = enter(layer, span, count)
        try:
            result = original(*args, **kwargs)
        finally:
            exit_(frame)
        if harvest:
            # A campaign given its own live tracer (sweep cells) keeps its
            # counters there; fold them in once it returns.
            tracer = kwargs.get("tracer")
            if isinstance(tracer, Tracer) and tracer is not recorder.ambient:
                recorder.add_counters(counter_values(tracer))
        return result

    return wrapper


class Installed:
    """The wrappers of one recorder; :meth:`remove` restores every original.

    Modules not yet imported are wrapped when something imports them, so
    installing the wrappers imports nothing: a forked sweep cell still
    pays for the imports it would pay for untraced.
    """

    def __init__(self, recorder: Recorder, wraps=WRAPS) -> None:
        self.recorder = recorder
        self._restore: list[tuple[object, str, object, bool]] = []
        self._pending: dict[str, list[Wrap]] = {}
        try:
            for wrap in wraps:
                module = sys.modules.get(wrap.module)
                if module is None:
                    self._pending.setdefault(wrap.module, []).append(wrap)
                else:
                    self._wrap(module, wrap)
        except BaseException:
            self.remove()
            raise
        if self._pending:
            sys.meta_path.insert(0, self)
        _ACTIVE[:] = [recorder]

    def _wrap(self, module, wrap: Wrap) -> None:
        owner_name, _, name = wrap.attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, name)
        wrapper = _make_wrapper(self.recorder, wrap, original)
        self._set(owner, name, wrapper)
        if not owner_name:
            # Modules that imported the function by name hold their own
            # binding; rebind those too.
            for other in list(sys.modules.values()):
                if (
                    isinstance(other, types.ModuleType)
                    and other is not module
                    and vars(other).get(name) is original
                ):
                    self._set(other, name, wrapper)

    def find_spec(self, fullname: str, path, target=None):
        """Import hook: wrap a pending module right after it executes."""
        wraps = self._pending.pop(fullname, None)
        if wraps is None:
            return None
        spec = importlib.util.find_spec(fullname)
        exec_module = spec.loader.exec_module

        def exec_and_wrap(module) -> None:
            exec_module(module)
            for wrap in wraps:
                self._wrap(module, wrap)

        spec.loader.exec_module = exec_and_wrap
        return spec

    def _set(self, owner, name: str, value) -> None:
        had_own = name in vars(owner)
        self._restore.append((owner, name, getattr(owner, name), had_own))
        setattr(owner, name, value)

    def remove(self) -> None:
        if self in sys.meta_path:
            sys.meta_path.remove(self)
        for owner, name, original, had_own in reversed(self._restore):
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._restore = []
        _ACTIVE[:] = []

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


# -- reading the record --------------------------------------------------


def accounting(layers: dict[str, LayerStats], op_wall_s: float) -> dict:
    """Op wall time against the layers' self times.

    Returns ``{"rows": [(layer, calls, self_s, share)], "attributed_s",
    "unattributed_s", "unattributed_share"}``.  Self times of
    :data:`UNATTRIBUTED` layers and any wall time no frame covers are the
    unattributed remainder.
    """
    rows = []
    attributed = 0.0
    for name in sorted(layers):
        stats = layers[name]
        if name in UNATTRIBUTED:
            continue
        attributed += stats.self_s
        rows.append((name, stats.calls, stats.self_s, stats.self_s / op_wall_s))
    unattributed = op_wall_s - attributed
    return {
        "rows": rows,
        "attributed_s": attributed,
        "unattributed_s": unattributed,
        "unattributed_share": unattributed / op_wall_s,
    }
