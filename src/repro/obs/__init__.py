"""``repro.obs`` — the structured observability subsystem.

One module-level runtime (tracer + metrics registry + event log) with a
zero-overhead-when-disabled guard: every instrumentation call —
:func:`span`, :func:`event`, :func:`count`, :func:`observe` — checks a
single module flag first and returns a shared null object when
observability is off, so the instrumented hot paths (negotiation
engine, TN service, resilience layer, caches) pay one branch per call
site and nothing else.  The throughput benchmark
(``benchmarks/test_bench_obs_overhead.py``) pins both bounds: ~0%
overhead disabled, < 10% enabled.

Typical use::

    from repro import obs

    obs.enable(obs.ObsConfig(redact_at=1))
    ... run negotiations / formations ...
    snap = obs.snapshot()          # spans + metrics + events
    trace = obs.chrome_trace()     # chrome://tracing JSON
    print(obs.render_timeline(obs.spans()))
    obs.disable()

The blessed import path is ``from repro.api import obs``; this module
is the implementation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro import _lazy_exports
from repro.obs.config import ObsConfig, REDACTED
from repro.obs.events import Event, EventLog, JsonlSink, RingBufferSink
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.obs.spans import NULL_SPAN, NullSpan, Span, Tracer

if TYPE_CHECKING:
    from repro.obs.audit import AuditLogSink

# The export and audit halves load only when a snapshot, trace or audit
# log is asked for; the recording half above is what hot paths call.
__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.obs.audit": ("AuditLogSink",),
    "repro.obs.export": (
        "build_snapshot", "critical_path_ms", "render_timeline",
        "to_chrome_trace", "validate_trace",
    ),
})

__all__ = [
    # config
    "ObsConfig", "REDACTED",
    # primitives
    "Span", "NullSpan", "Tracer",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "percentile",
    "Event", "EventLog", "RingBufferSink", "JsonlSink",
    # runtime control
    "enable", "disable", "enabled", "config",
    # instrumentation entry points
    "span", "current", "event", "count", "gauge", "observe",
    # introspection / export
    "spans", "events", "metrics", "snapshot", "chrome_trace",
    "render_timeline", "validate_trace", "critical_path_ms", "reset",
]


class _Runtime:
    """The live tracer/metrics/events trio behind the module functions."""

    def __init__(self, config: ObsConfig) -> None:
        self.config = config
        self.tracer = Tracer(max_spans=config.max_spans)
        self.registry = MetricsRegistry(
            histogram_window=config.histogram_window
        )
        self.event_log = EventLog(
            ring_capacity=config.ring_capacity,
            redact_at=config.redact_at,
            redact_fields=config.redact_fields,
        )
        if config.jsonl_path:
            self.event_log.add_sink(JsonlSink(config.jsonl_path))
        self.audit_sink: Optional[AuditLogSink] = None
        if config.audit_path:
            from repro.obs.audit import AuditLogSink

            self.audit_sink = AuditLogSink(
                config.audit_path, epoch_every=config.audit_epoch_every
            )
            self.event_log.add_sink(self.audit_sink)
        self.registry.register_collector("perf_caches", _collect_perf_caches)


def _collect_perf_caches() -> dict:
    """Absorb the PR 2 cache counters into the metrics namespace."""
    from repro.perf import all_stats  # lazy: obs must stay import-light

    collected: dict[str, Any] = {}
    for name, stats in all_stats().items():
        prefix = f"perf.cache.{name}"
        collected[f"{prefix}.hits"] = stats.hits
        collected[f"{prefix}.misses"] = stats.misses
        collected[f"{prefix}.evictions"] = stats.evictions
        collected[f"{prefix}.invalidations"] = stats.invalidations
        collected[f"{prefix}.size"] = stats.size
        collected[f"{prefix}.hit_rate"] = round(stats.hit_rate, 4)
    return collected


_enabled = False
_runtime: Optional[_Runtime] = None


def enable(config: Optional[ObsConfig] = None) -> None:
    """Turn observability on with a fresh tracer/registry/event log."""
    global _enabled, _runtime
    if _runtime is not None and _runtime.audit_sink is not None:
        _runtime.audit_sink.close()  # seal the old log's final epoch
    _runtime = _Runtime(config or ObsConfig())
    _enabled = _runtime.config.enabled


def disable() -> None:
    """Turn all instrumentation off (recorded data stays readable)."""
    global _enabled
    _enabled = False
    if _runtime is not None and _runtime.audit_sink is not None:
        _runtime.audit_sink.close()


def enabled() -> bool:
    return _enabled


def config() -> Optional[ObsConfig]:
    return _runtime.config if _runtime is not None else None


# -- instrumentation entry points (hot: guard first, then delegate) -------------


def span(
    name: str,
    clock: Any = None,
    parent: Optional[Span] = None,
    **attrs: Any,
):
    """Open a span as a context manager; a no-op when disabled."""
    if not _enabled:
        return NULL_SPAN
    return _runtime.tracer.span(name, clock=clock, parent=parent, attrs=attrs)


def current() -> Optional[Span]:
    """The innermost open span on this thread (None when disabled)."""
    if not _enabled:
        return None
    return _runtime.tracer.current()


def event(
    name: str,
    clock: Any = None,
    sensitivity: Optional[int] = None,
    **fields: Any,
) -> Optional[Event]:
    """Append one event to the log; a no-op when disabled."""
    if not _enabled:
        return None
    return _runtime.event_log.emit(
        name,
        clock=clock,
        span=_runtime.tracer.current(),
        sensitivity=sensitivity,
        **fields,
    )


def count(name: str, amount: int = 1) -> None:
    """Increment a counter; a no-op when disabled."""
    if _enabled:
        _runtime.registry.counter(name).inc(amount)


def gauge(name: str, value: float) -> None:
    """Set a gauge; a no-op when disabled."""
    if _enabled:
        _runtime.registry.gauge(name).set(value)


def observe(name: str, value: float) -> None:
    """Record one histogram sample; a no-op when disabled."""
    if _enabled:
        _runtime.registry.histogram(name).observe(value)


# -- introspection / export ------------------------------------------------------


def _require_runtime() -> _Runtime:
    if _runtime is None:
        raise RuntimeError(
            "observability was never enabled; call repro.obs.enable() first"
        )
    return _runtime


def spans() -> list[Span]:
    """Finished spans (readable even after :func:`disable`)."""
    return _require_runtime().tracer.spans()


def events() -> list[Event]:
    return _require_runtime().event_log.events()


def metrics() -> dict:
    return _require_runtime().registry.snapshot()


def snapshot() -> dict:
    """One JSON-serializable dump: config, spans, metrics, events."""
    from repro.obs.export import build_snapshot

    runtime = _require_runtime()
    return build_snapshot(
        runtime.tracer, runtime.registry, runtime.event_log, runtime.config
    )


def chrome_trace() -> dict:
    """The recorded spans in Chrome Trace Event Format."""
    from repro.obs.export import to_chrome_trace

    return to_chrome_trace(_require_runtime().tracer.spans())


def register_collector(name: str, collect) -> None:
    """Expose an external counter source in :func:`metrics` snapshots."""
    _require_runtime().registry.register_collector(name, collect)


def add_sink(sink) -> None:
    """Attach an extra event sink (e.g. a :class:`JsonlSink`)."""
    _require_runtime().event_log.add_sink(sink)


def reset() -> None:
    """Drop recorded spans/metrics/events, keep the configuration."""
    if _runtime is not None:
        _runtime.tracer.reset()
        _runtime.registry.reset()
        _runtime.event_log.reset()
