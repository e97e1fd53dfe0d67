"""Lightweight counters, gauges, histograms and derived gauges.

Metrics are deliberately simple: a :class:`Counter` accumulates a float,
a :class:`Gauge` holds the latest value, a :class:`Histogram` folds
observations into count/sum/min/max plus fixed buckets, and a
:class:`DerivedGauge` is a ratio of sibling metrics computed on read.  A
:class:`MetricsRegistry` owns one instance per name.  Hot paths cache
the metric object once at construction time, so recording a sample is a
single bound-method call — and the null variants make that call a no-op
when telemetry is off.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

from repro.analysis.tables import Table
from repro.errors import ConfigurationError


class Counter:
    """A monotonically increasing sum (events, records, seconds...)."""

    __slots__ = ("name", "description", "value")

    kind = "counter"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0.0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value:g})"


class Gauge:
    """A point-in-time value (throughput, queue depth, temperature...)."""

    __slots__ = ("name", "description", "value")

    kind = "gauge"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the latest observation."""
        self.value = float(value)

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value:g})"


#: Default bucket upper bounds (decade grid); the last bucket is +inf.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0
)


class Histogram:
    """A distribution folded into count/sum/min/max and fixed buckets.

    Buckets are cumulative-style upper bounds (last is implicitly +inf).
    """

    __slots__ = ("name", "description", "bounds", "bucket_counts",
                 "count", "sum", "min", "max")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str = "",
        bounds: Sequence[float] | None = None,
    ) -> None:
        self.name = name
        self.description = description
        bounds = tuple(bounds) if bounds is not None else DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ConfigurationError(
                f"histogram {name!r} bounds must be strictly increasing"
            )
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    @property
    def value(self) -> float:
        """The observation count (what snapshots and tables report)."""
        return float(self.count)

    @property
    def mean(self) -> float:
        """Mean observation (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def observe(self, value: float) -> None:
        """Fold one observation into the distribution."""
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def payload(self) -> dict:
        """Extra fields the JSONL metric record carries for histograms."""
        empty = self.count == 0
        return {
            "count": self.count,
            "sum": self.sum,
            "min": None if empty else self.min,
            "max": None if empty else self.max,
            "mean": self.mean,
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
        }

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name!r}, count={self.count}, mean={self.mean:g})"
        )


class DerivedGauge:
    """A gauge computed on read as numerator / sum-of-denominators.

    The operands are *names* of sibling metrics in the owning registry,
    so the ratio always reads the counters' current values.
    """

    __slots__ = ("name", "description", "numerator", "denominators", "_registry")

    kind = "derived"

    def __init__(
        self,
        name: str,
        description: str,
        numerator: str,
        denominators: Sequence[str],
        registry: "MetricsRegistry",
    ) -> None:
        if not denominators:
            raise ConfigurationError(
                f"derived gauge {name!r} needs at least one denominator"
            )
        self.name = name
        self.description = description
        self.numerator = numerator
        self.denominators = tuple(denominators)
        self._registry = registry

    @property
    def value(self) -> float:
        """numerator / sum(denominators), 0 when the denominator is 0."""
        denominator = sum(
            self._registry.value(name) for name in self.denominators
        )
        if denominator == 0.0:  # exact: counters start at literal 0.0  # repro: noqa[RPR003]
            return 0.0
        return self._registry.value(self.numerator) / denominator

    def payload(self) -> dict:
        """Extra fields the JSONL metric record carries for derived gauges."""
        return {
            "numerator": self.numerator,
            "denominators": list(self.denominators),
        }

    def __repr__(self) -> str:
        return f"DerivedGauge({self.name!r}, value={self.value:g})"


class NullCounter:
    """Counter stand-in whose :meth:`inc` does nothing."""

    __slots__ = ()

    kind = "counter"
    name = "null"
    description = ""
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Discard the increment."""


class NullGauge:
    """Gauge stand-in whose :meth:`set` does nothing."""

    __slots__ = ()

    kind = "gauge"
    name = "null"
    description = ""
    value = 0.0

    def set(self, value: float) -> None:
        """Discard the observation."""


class NullHistogram:
    """Histogram stand-in whose :meth:`observe` does nothing."""

    __slots__ = ()

    kind = "histogram"
    name = "null"
    description = ""
    value = 0.0
    count = 0
    sum = 0.0
    mean = 0.0

    def observe(self, value: float) -> None:
        """Discard the observation."""


class NullDerivedGauge:
    """Derived-gauge stand-in that always reads 0."""

    __slots__ = ()

    kind = "derived"
    name = "null"
    description = ""
    value = 0.0


#: Shared no-op instances handed out by the null tracer.
NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()
NULL_DERIVED_GAUGE = NullDerivedGauge()

Metric = Union[Counter, Gauge, Histogram, DerivedGauge]


class MetricsRegistry:
    """Get-or-create store of named metrics, queryable from tests."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def counter(self, name: str, description: str = "") -> Counter:
        """The counter called ``name``, created on first use."""
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        """The gauge called ``name``, created on first use."""
        return self._get_or_create(Gauge, name, description)

    def histogram(
        self,
        name: str,
        description: str = "",
        bounds: Sequence[float] | None = None,
    ) -> Histogram:
        """The histogram called ``name``, created on first use."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, description, bounds=bounds)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise ConfigurationError(
                f"metric {name!r} is a {metric.kind}, not a histogram"
            )
        return metric

    def derived_gauge(
        self,
        name: str,
        description: str,
        numerator: str,
        denominators: Sequence[str],
    ) -> DerivedGauge:
        """The derived gauge called ``name``, created on first use.

        Re-registering must use the same operands — a derived gauge is a
        definition, not a stored value.
        """
        metric = self._metrics.get(name)
        if metric is None:
            metric = DerivedGauge(name, description, numerator, denominators, self)
            self._metrics[name] = metric
        elif not isinstance(metric, DerivedGauge):
            raise ConfigurationError(
                f"metric {name!r} is a {metric.kind}, not a derived gauge"
            )
        elif (metric.numerator, metric.denominators) != (
            numerator, tuple(denominators)
        ):
            raise ConfigurationError(
                f"derived gauge {name!r} re-registered with different operands"
            )
        return metric

    def _get_or_create(self, cls: type, name: str, description: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, description)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ConfigurationError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Metric | None:
        """The metric called ``name``, or ``None`` if never recorded."""
        return self._metrics.get(name)

    def value(self, name: str, default: float = 0.0) -> float:
        """The current value of ``name`` (``default`` if absent)."""
        metric = self._metrics.get(name)
        return metric.value if metric is not None else default

    def snapshot(self) -> dict[str, float]:
        """Name -> value for every metric, sorted by name."""
        return {name: self._metrics[name].value for name in sorted(self._metrics)}

    def reset(self) -> None:
        """Drop every metric (a fresh run starts from zero)."""
        self._metrics.clear()

    def table(self, title: str = "Run metrics") -> Table:
        """Render every metric as an aligned text table."""
        table = Table(title, ["metric", "kind", "value", "description"], fmt="{:,.3f}")
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            table.add_row(name, metric.kind, metric.value, metric.description)
        return table
