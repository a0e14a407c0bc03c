"""Retained memory per VO lifecycle on one long-lived population.

After dissolution a member keeps only its participation tickets
(paper Section 5): the VO's token, transient policies and answered
invitations go, and no process-wide cache holds the credentials signed
during formation.  The ceiling is per identify/form/operate/dissolve
cycle, so it is independent of how many cycles the test runs; the
tickets themselves (about 6.5 kB per 8-member cycle: slotted records,
and one validity window and ``voName`` attribute shared by the tickets
of a dissolution) are what it leaves room for.
"""

import dataclasses
import gc
import tracemalloc

from repro.scenario.workloads import formation_workload

ROLES = 8
WARMUP_CYCLES = 3
MEASURED_CYCLES = 20
#: Retained-bytes ceiling per cycle.
MAX_RETAINED_BYTES_PER_CYCLE = 7_168


def test_vo_lifecycle_retained_bytes_per_cycle():
    fixture = formation_workload(ROLES)
    edition = fixture.initiator_edition

    def cycle(index: int) -> None:
        contract = dataclasses.replace(
            fixture.contract, vo_name=f"{fixture.contract.vo_name}-{index}"
        )
        vo = edition.create_vo(contract)
        service = edition.enable_trust_negotiation(url=f"urn:vo:tn:{index}")
        try:
            outcome = edition.execute_formation(
                fixture.plans(), at=contract.created_at
            )
            vo.begin_operation()
            tickets = vo.dissolve()
        finally:
            service.close()
        assert len(outcome.joined) == ROLES
        assert len(tickets) == ROLES

    for index in range(WARMUP_CYCLES):
        cycle(index)
    gc.collect()
    tracemalloc.start(1)
    try:
        # The edition keeps its latest TN service (store and journal)
        # alive until the next one replaces it.  Reading the baseline
        # after one traced cycle puts that one service in both
        # readings, so the difference is what the cycles pile up.
        cycle(WARMUP_CYCLES)
        gc.collect()
        baseline, _ = tracemalloc.get_traced_memory()
        for index in range(MEASURED_CYCLES):
            cycle(WARMUP_CYCLES + 1 + index)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_cycle = (retained - baseline) / MEASURED_CYCLES
    assert per_cycle <= MAX_RETAINED_BYTES_PER_CYCLE, (
        f"{per_cycle:.0f} B retained per VO lifecycle "
        f"(ceiling {MAX_RETAINED_BYTES_PER_CYCLE})"
    )
