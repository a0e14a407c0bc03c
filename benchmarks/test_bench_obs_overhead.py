"""Observability overhead — the zero-cost-when-disabled contract.

**Instrumentation overhead** (real wall-clock), reported to
``BENCH_obs.json`` at the repo root: the repeat-negotiation workload
timed with observability disabled (the baseline every other benchmark
pays: one module-flag branch per instrumentation site) versus fully
enabled (spans + metrics + events recording).  Enabled must stay
within 10% of disabled.  Each mode is timed in alternating rounds and
the per-mode minimum is kept, which discards scheduler noise.

The instrumented formation trace artifact (``BENCH_trace.json``) is a
section of ``benchmarks/test_schedule.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from benchmarks.conftest import print_series
from repro import obs
from repro.negotiation.engine import negotiate
from repro.scenario.workloads import bushy_workload

ALTERNATIVES = 128
REPEATS = 100
ROUNDS = 3
MAX_OVERHEAD = 1.10

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"


def _timed_negotiations(fixture) -> float:
    started = time.perf_counter()
    for _ in range(REPEATS):
        result = negotiate(
            fixture.requester, fixture.controller, fixture.resource,
            fixture.negotiation_time(),
        )
        assert result.success
    return time.perf_counter() - started


def test_bench_obs_overhead():
    fixture = bushy_workload(ALTERNATIVES)
    obs.disable()
    _timed_negotiations(fixture)  # warm every cache and code path once

    disabled = []
    enabled = []
    for _ in range(ROUNDS):
        obs.disable()
        disabled.append(_timed_negotiations(fixture))
        obs.enable()
        enabled.append(_timed_negotiations(fixture))
    span_count = len(obs.spans())
    obs.disable()

    ratio = min(enabled) / min(disabled)
    metrics = {
        "workload": f"bushy-{ALTERNATIVES}",
        "repeats_per_round": REPEATS,
        "rounds": ROUNDS,
        "disabled_seconds": round(min(disabled), 6),
        "enabled_seconds": round(min(enabled), 6),
        "overhead_ratio": round(ratio, 4),
        "max_overhead_ratio": MAX_OVERHEAD,
        "spans_recorded_last_round": span_count,
    }
    print_series(
        "Observability: instrumentation overhead (disabled vs enabled)",
        [
            ("obs disabled", metrics["disabled_seconds"], ""),
            ("obs enabled", metrics["enabled_seconds"],
             f"{span_count} spans"),
            ("overhead", f"{ratio:.3f}x",
             f"budget {MAX_OVERHEAD}x"),
        ],
        ("mode", "seconds (min of rounds)", "notes"),
    )
    REPORT_PATH.write_text(
        json.dumps({"instrumentation_overhead": metrics}, indent=2) + "\n"
    )
    assert ratio < MAX_OVERHEAD, (
        f"observability overhead {ratio:.3f}x exceeds the "
        f"{MAX_OVERHEAD}x budget"
    )

