"""The metrics registry: counters, gauges, histograms, collectors.

One process-wide :class:`MetricsRegistry` (owned by ``repro.obs``)
unifies what PR 1 and PR 2 left as ad-hoc per-object counters:

- the ``repro.perf`` cache hit/miss/eviction/invalidation counters are
  absorbed at snapshot time through a registered *collector* (so the
  perf layer keeps importing nothing above the standard library);
- the resilience layer increments ``resilience.*`` counters inline;
- the fault injector increments ``faults.injected.*`` /
  ``faults.skipped.*``;
- the negotiation engine and the TN/VO services record run counts and
  size/latency distributions.

Histograms keep an exact count/sum/min/max plus a bounded sliding
window of recent samples for percentile estimation (p50/p95/p99) — good
enough for the simulator's scale without unbounded memory.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentile",
]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sorted-or-not list."""
    if not values:
        raise ValueError("percentile of empty sequence")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self._value}


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self._value}


class Histogram:
    """Distribution summary: exact count/sum/min/max, windowed p50/p95/p99."""

    __slots__ = ("name", "count", "total", "min", "max", "_window", "_lock")

    def __init__(self, name: str, window: int = 8192) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._window: deque[float] = deque(maxlen=window)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self._window.append(value)

    def to_dict(self) -> dict:
        with self._lock:
            window = list(self._window)
            summary = {
                "type": "histogram",
                "count": self.count,
                "sum": round(self.total, 6),
                "min": self.min,
                "max": self.max,
            }
        if window:
            summary["p50"] = round(percentile(window, 50), 6)
            summary["p95"] = round(percentile(window, 95), 6)
            summary["p99"] = round(percentile(window, 99), 6)
        return summary


class MetricsRegistry:
    """Name-addressed metric store plus snapshot-time collectors."""

    def __init__(self, histogram_window: int = 8192) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._collectors: dict[str, Callable[[], dict]] = {}
        self._lock = threading.Lock()
        self._histogram_window = histogram_window

    # -- instrument access (get-or-create, type-checked) ----------------------------

    def _instrument(self, name: str, kind: type, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = kind(name, **kwargs)
                    self._metrics[name] = metric
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._instrument(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._instrument(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._instrument(
            name, Histogram, window=self._histogram_window
        )

    # -- collectors -------------------------------------------------------------------

    def register_collector(
        self, name: str, collect: Callable[[], dict]
    ) -> None:
        """Register a snapshot-time source of ``metric name -> value``.

        Collectors absorb counters maintained elsewhere (the perf
        caches, a SequenceCache, per-transport ResilienceStats) without
        forcing those layers to push updates through the registry.
        """
        with self._lock:
            self._collectors[name] = collect

    def unregister_collector(self, name: str) -> None:
        with self._lock:
            self._collectors.pop(name, None)

    # -- snapshot ---------------------------------------------------------------------

    def snapshot(self) -> dict:
        """``metric name -> summary dict`` including collector output."""
        with self._lock:
            metrics = dict(self._metrics)
            collectors = dict(self._collectors)
        out = {name: metric.to_dict() for name, metric in metrics.items()}
        for collector_name, collect in collectors.items():
            try:
                collected = collect()
            except Exception as exc:  # collector bugs must not kill a dump
                out[f"collector.{collector_name}.error"] = {
                    "type": "gauge", "value": repr(exc),
                }
                continue
            for name, value in collected.items():
                out[name] = {"type": "collected", "value": value}
        return dict(sorted(out.items()))

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()
