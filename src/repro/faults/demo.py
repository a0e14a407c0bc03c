"""The fault-tolerant negotiation walkthrough.

Shared by ``python -m repro faults`` and
``examples/fault_tolerant_negotiation.py``: runs the Aircraft
Optimization membership negotiation three times — fault-free, under a
seeded fault storm, and through a service crash with checkpoint
recovery — and prints what the resilience layer did about it.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.negotiation.strategies import Strategy
from repro.scenario import build_aircraft_scenario
from repro.scenario.aircraft import ROLE_DESIGN_PORTAL
from repro.services.resilience import ResilientTransport, RetryPolicy
from repro.services.tn_client import TNClient
from repro.services.tn_service import TNWebService
from repro.storage.document_store import XMLDocumentStore

__all__ = ["run_demo", "negotiate_under_faults"]


def negotiate_under_faults(
    plan: FaultPlan,
    strategy: Strategy = Strategy.STANDARD,
    with_restart: bool = True,
    retry: RetryPolicy | None = None,
):
    """One membership negotiation through the resilient stack.

    Returns ``(result_or_error, injector, resilient)`` — the result is
    a :class:`~repro.negotiation.outcomes.NegotiationResult` on clean
    termination, or the typed :class:`~repro.errors.ReproError` the
    stack surfaced.
    """
    scenario = build_aircraft_scenario()
    scenario.initiator.define_vo_policies(scenario.contract)
    role = scenario.contract.role(ROLE_DESIGN_PORTAL)
    resource = role.membership_resource(scenario.contract.vo_name)
    owner = scenario.initiator.agent
    requester = scenario.member("AerospaceCo").agent

    store = XMLDocumentStore("tn-store")
    injector = FaultInjector(scenario.transport, plan)
    resilient = ResilientTransport(
        injector, retry=retry or RetryPolicy(jitter_seed=plan.seed or 0)
    )
    url = "urn:vo:tn"
    service_ref = {
        "service": TNWebService(owner, injector, store, url)
    }
    if with_restart:
        injector.register_endpoint(
            url,
            crash=lambda: service_ref["service"].crash(),
            restart=lambda: service_ref.update(service=TNWebService.restore(
                owner, injector, store, url,
                agents={requester.name: requester},
                session_store=service_ref["service"].session_store,
            )),
        )
    client = TNClient(resilient, url, requester)
    try:
        outcome = client.negotiate(
            resource, strategy=strategy, at=scenario.contract.created_at
        )
    except ReproError as exc:
        outcome = exc
    return outcome, injector, resilient


def run_demo(seed: int = 7, strategy: str = "standard") -> int:
    """Print the fault-free vs. faulty vs. crash-recovery comparison."""
    chosen = Strategy.parse(strategy)

    print("=== Fault-tolerant trust negotiation "
          f"(seed={seed}, strategy={chosen.value}) ===\n")

    baseline, injector, resilient = negotiate_under_faults(
        FaultPlan(), strategy=chosen
    )
    print("1. fault-free baseline")
    print(f"   {baseline.summary()}")
    baseline_ms = resilient.clock.elapsed_ms
    print(f"   simulated time: {baseline_ms:.0f} ms\n")

    storm = FaultPlan.seeded(
        seed,
        kinds=(FaultKind.DROP, FaultKind.TIMEOUT, FaultKind.DUPLICATE,
               FaultKind.DB_FAIL),
        faults=3, horizon_calls=6,
    )
    result, injector, resilient = negotiate_under_faults(
        storm, strategy=chosen
    )
    scheduled = (
        storm.pending() + injector.total_injected() + injector.total_skipped()
    )
    print(f"2. seeded fault storm ({scheduled} faults scheduled)")
    injected = {
        kind.value: count
        for kind, count in injector.injected.items() if count
    }
    print(f"   injected: {injected or 'none hit'}")
    print(f"   retries: {resilient.stats.retries}, "
          f"backoff charged: {resilient.stats.backoff_ms_total:.0f} ms")
    print(f"   {result.summary() if hasattr(result, 'summary') else result}")
    print(f"   simulated time: {resilient.clock.elapsed_ms:.0f} ms\n")

    crash_plan = FaultPlan().at(
        3, FaultKind.CRASH, operation="CredentialExchange"
    )
    result, injector, resilient = negotiate_under_faults(
        crash_plan, strategy=chosen
    )
    print("3. service crash after the policy phase, checkpoint recovery")
    print(f"   crashes: {injector.crash_count('urn:vo:tn')}, "
          f"restarts from checkpoint: {injector.restart_count('urn:vo:tn')}")
    print(f"   {result.summary() if hasattr(result, 'summary') else result}")
    same = (
        hasattr(result, "success")
        and result.success == baseline.success
        and result.disclosed_by_requester == baseline.disclosed_by_requester
        and result.disclosed_by_controller == baseline.disclosed_by_controller
    )
    print(f"   identical outcome to the fault-free run: {same}")
    print(f"   simulated time: {resilient.clock.elapsed_ms:.0f} ms "
          f"(overhead {resilient.clock.elapsed_ms - baseline_ms:+.0f} ms)")
    return 0 if same else 1
