"""Command-line interface: ``python -m repro <command>``.

Commands:

``demo``
    Run the paper's formation negotiation (Example 2) and print the
    transcript.

``lifecycle``
    Run the full Aircraft Optimization VO lifecycle and print a phase
    summary.

``fig9``
    Reproduce the Fig. 9 join-time series and print paper-vs-measured.

``negotiate RESOURCE``
    Negotiate a resource of the aircraft scenario between two named
    parties under a chosen strategy.

``faults``
    Run the fault-tolerant negotiation demo: a seeded fault storm and
    a service crash with checkpoint recovery
    (``examples/fault_tolerant_negotiation.py`` runs the same flow).

``policy``
    Parse policy DSL from stdin or ``--text`` and print the DSL,
    X-TNL XML, and XACML forms.

``tree``
    Run the formation negotiation and render its negotiation tree
    (``--format ascii|dot``).

``trace``
    Run an instrumented VO formation (default 8 roles, parallel) and
    render the merged trace as an ASCII timeline; ``--json PATH``
    additionally writes Chrome Trace Event JSON for
    ``chrome://tracing`` / Perfetto.

``soak``
    Run the seeded chaos soak (``repro.hardening.soak``): negotiations
    under mixed adversarial faults and overload bursts, with the
    invariant report printed (and optionally written with
    ``--report PATH``).  ``--shards N --kill-every K`` deploys a
    sharded TN cluster and interleaves kill/restart drills (with
    ``--wal-dir`` for durable journals and ``--audit-log`` for a
    verified hash-chained event log).  Exits non-zero when any
    invariant is violated.

``scenarios``
    Run the open-world scenario engine and/or the exemplar experiments
    (two-agent strategy matrix, 5-agent scarcity market, cheater
    isolation on the real TN path), each by a direct call on its
    config, printing each report's summary and optionally writing one
    combined seeded JSON report (``--report PATH``).  Exits non-zero
    when any invariant is violated or any asserted finding does not
    hold.

``audit PATH``
    Verify a hash-chained audit log (``repro.obs.audit``): recompute
    the event hash chain and every Merkle epoch commitment.  Exits
    non-zero when verification fails.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

__all__ = ["main", "build_parser"]


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.negotiation.engine import negotiate
    from repro.scenario import build_aircraft_scenario
    from repro.scenario.aircraft import ROLE_DESIGN_PORTAL

    scenario = build_aircraft_scenario()
    scenario.initiator.define_vo_policies(scenario.contract)
    role = scenario.contract.role(ROLE_DESIGN_PORTAL)
    result = negotiate(
        scenario.member("AerospaceCo").agent,
        scenario.initiator.agent,
        role.membership_resource(scenario.contract.vo_name),
        at=scenario.contract.created_at,
    )
    print(result.summary())
    for event in result.transcript:
        print(f"  [{event.phase:8}] {event.actor:12} {event.action:18} "
              f"{event.detail}")
    return 0 if result.success else 1


def _cmd_lifecycle(args: argparse.Namespace) -> int:
    from repro.scenario import build_aircraft_scenario
    from repro.vo.organization import VirtualOrganization

    scenario = build_aircraft_scenario()
    vo = VirtualOrganization(
        contract=scenario.contract, initiator=scenario.initiator
    )
    vo.identify()
    print(f"identification: {len(scenario.contract.roles)} roles defined")
    reports = vo.form(
        scenario.host.registry, scenario.host.directory(),
        at=scenario.contract.created_at,
    )
    for role, report in reports.items():
        print(f"formation: {role:18} -> {report.admitted}")
    vo.begin_operation()
    print("operation: VO is running")
    tickets = vo.dissolve(at=scenario.contract.created_at)
    print(f"dissolution: {len(tickets)} participation tickets issued")
    return 0


def _cmd_fig9(args: argparse.Namespace) -> int:
    from repro.scenario import build_aircraft_scenario
    from repro.scenario.aircraft import ROLE_DESIGN_PORTAL
    from repro.services.tn_client import TNClient

    def run_join(with_negotiation: bool) -> float:
        scenario = build_aircraft_scenario()
        edition = scenario.initiator_edition
        edition.create_vo(scenario.contract)
        edition.enable_trust_negotiation()
        outcome = edition.execute_join(
            scenario.app("AerospaceCo"), ROLE_DESIGN_PORTAL,
            with_negotiation=with_negotiation,
        )
        return outcome.elapsed_ms

    def run_tn() -> float:
        scenario = build_aircraft_scenario()
        edition = scenario.initiator_edition
        edition.create_vo(scenario.contract)
        service = edition.enable_trust_negotiation()
        role = scenario.contract.role(ROLE_DESIGN_PORTAL)
        client = TNClient(
            scenario.transport, service.url,
            scenario.member("AerospaceCo").agent,
        )
        with scenario.transport.clock.measure() as stopwatch:
            client.negotiate(
                role.membership_resource(scenario.contract.vo_name)
            )
        return stopwatch.elapsed_ms

    join_tn = run_join(True)
    join = run_join(False)
    tn = run_tn()
    print("Fig. 9 — Join execution times (simulated ms)")
    print(f"  join with trust negotiation : {join_tn:8.0f}   (paper ~4000)")
    print(f"  join                        : {join:8.0f}   (paper ~3000)")
    print(f"  trust negotiation alone     : {tn:8.0f}")
    print(f"  overhead ratio              : {join_tn / join:8.3f}"
          f"   (paper ~1.27-1.33)")
    return 0


def _cmd_negotiate(args: argparse.Namespace) -> int:
    from repro.negotiation.engine import negotiate
    from repro.negotiation.strategies import Strategy
    from repro.scenario import build_aircraft_scenario

    scenario = build_aircraft_scenario()
    scenario.initiator.define_vo_policies(scenario.contract)
    parties = dict(scenario.members)

    def agent_of(name: str):
        if name == "AircraftCo":
            return scenario.initiator.agent
        if name in parties:
            return parties[name].agent
        print(f"unknown party {name!r}; choose from "
              f"{['AircraftCo'] + sorted(parties)}", file=sys.stderr)
        raise SystemExit(2)

    requester = agent_of(args.requester)
    controller = agent_of(args.controller)
    strategy = Strategy.parse(args.strategy)
    requester.strategy = strategy
    controller.strategy = strategy
    result = negotiate(requester, controller, args.resource,
                       at=scenario.contract.created_at)
    print(result.summary())
    if args.verbose:
        for event in result.transcript:
            print(f"  [{event.phase:8}] {event.actor:12} "
                  f"{event.action:18} {event.detail}")
    return 0 if result.success else 1


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults.demo import run_demo

    return run_demo(seed=args.seed, strategy=args.strategy)


def _cmd_policy(args: argparse.Namespace) -> int:
    from repro.policy.parser import parse_policies
    from repro.policy.xacml import policies_to_xacml
    from repro.policy.xmlcodec import policy_to_xml

    text = args.text if args.text else sys.stdin.read()
    policies = parse_policies(text)
    if not policies:
        print("no policies parsed", file=sys.stderr)
        return 1
    for policy in policies:
        print(f"DSL:   {policy.dsl()}")
        if args.xml:
            print(f"X-TNL: {policy_to_xml(policy)}")
    if args.xacml:
        by_resource: dict[str, list] = {}
        for policy in policies:
            by_resource.setdefault(policy.target.name, []).append(policy)
        for resource, alternatives in by_resource.items():
            print(f"XACML [{resource}]:")
            print(policies_to_xacml(resource, alternatives))
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    from repro.negotiation.engine import negotiate
    from repro.negotiation.render import render_ascii, render_dot
    from repro.scenario import build_aircraft_scenario
    from repro.scenario.aircraft import ROLE_DESIGN_PORTAL

    scenario = build_aircraft_scenario()
    scenario.initiator.define_vo_policies(scenario.contract)
    role = scenario.contract.role(ROLE_DESIGN_PORTAL)
    result = negotiate(
        scenario.member("AerospaceCo").agent,
        scenario.initiator.agent,
        role.membership_resource(scenario.contract.vo_name),
        at=scenario.contract.created_at,
    )
    renderer = render_dot if args.format == "dot" else render_ascii
    print(renderer(result.tree))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.api import formation_workload, obs

    obs.enable(obs.ObsConfig())
    fixture = formation_workload(args.roles)
    edition = fixture.initiator_edition
    edition.create_vo(fixture.contract)
    edition.enable_trust_negotiation()
    outcome = edition.execute_formation(
        fixture.plans(), parallel=not args.serial
    )
    obs.disable()

    spans = obs.spans()
    formations = [s for s in spans if s.name == "vo.formation"]
    if not formations:
        print("no vo.formation span recorded", file=sys.stderr)
        return 1
    formation = formations[0]
    members = [s for s in spans if s.trace_id == formation.trace_id]
    report = obs.validate_trace(members)

    print(f"formation: {len(outcome.joined)}/{len(fixture.plans())} joined "
          f"({outcome.mode}, critical path {outcome.critical_path_ms:.0f} ms,"
          f" serial {outcome.serial_ms:.0f} ms)")
    print(f"trace: {report['spans']} spans, {len(report['roots'])} root(s), "
          f"{len(report['orphans'])} orphan(s)")
    print()
    print(obs.render_timeline(members))
    if args.events:
        print()
        for event in obs.events():
            print(f"  #{event.seq:<4} {event.name:28} "
                  f"{event.virtual_ms if event.virtual_ms is not None else '-':>8} "
                  f"{event.fields}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(obs.to_chrome_trace(members), handle, indent=1)
        print(f"\nchrome trace written to {args.json}")
    if len(report["roots"]) != 1 or report["orphans"]:
        print("trace is not coherent", file=sys.stderr)
        return 1
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    import os

    from repro.hardening.soak import SoakConfig, run_soak

    wal_dir = args.wal_dir if args.shards > 0 else None
    try:
        config = SoakConfig(
            seed=args.seed,
            negotiations=args.negotiations,
            roles=args.roles,
            cluster_shards=args.shards,
            node_kill_every=args.kill_every,
            retract_every=args.retract_every,
            wal_dir=wal_dir,
            audit_log_path=args.audit_log,
            asyncio_mode=args.asyncio_mode,
        )
    except ValueError as exc:
        args.parser.error(str(exc))  # usage message, exit 2
    if wal_dir:
        os.makedirs(wal_dir, exist_ok=True)
    report = run_soak(config)
    print(report.summary())
    for violation in report.violations:
        print(f"  VIOLATION [{violation.invariant}] {violation.detail}",
              file=sys.stderr)
    for line in report.unhandled:
        print(f"  UNHANDLED {line}", file=sys.stderr)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        print(f"report written to {args.report}")
    return 0 if report.ok else 1


def _cmd_scenarios(args: argparse.Namespace) -> int:
    import json

    from repro.scenario.engine import ScenarioConfig, run_scenario
    from repro.scenario.experiments import (
        IsolationConfig,
        MatrixConfig,
        ScarcityConfig,
        cheater_isolation,
        scarcity_market,
        two_agent_matrix,
    )
    from repro.scenario.market import MarketConfig

    quick = args.quick
    combined: dict = {"seed": args.seed, "experiments": {}}
    ok = True

    def section(label: str, report) -> dict:
        nonlocal ok
        ok = ok and report.ok
        verdict = "PASS" if report.ok else "FAIL"
        if hasattr(report, "summary"):
            print(f"{label}: {report.summary()}")
        else:
            findings = getattr(report, "findings", {})
            held = sum(1 for value in findings.values() if value)
            print(f"{label}: {verdict} — {held}/{len(findings)} "
                  "findings hold")
        for name, value in sorted(
            getattr(report, "findings", {}).items()
        ):
            if not value:
                print(f"  FINDING FAILED [{label}] {name}",
                      file=sys.stderr)
        scenario = getattr(report, "scenario", report)
        for violation in getattr(scenario, "violations", []):
            print(f"  VIOLATION [{violation.invariant}] "
                  f"{violation.detail}", file=sys.stderr)
        return report.to_dict()

    run_all = args.preset == "all"
    if run_all or args.preset == "matrix":
        report = two_agent_matrix(MatrixConfig(
            seed=args.seed,
            rounds=15 if quick else 40,
        ))
        combined["experiments"]["twoAgentMatrix"] = section(
            "two-agent matrix", report
        )
    if run_all or args.preset == "scarcity":
        rounds = 40 if quick else 100
        rush_start = (rounds * 3) // 5
        report = scarcity_market(ScarcityConfig(
            seed=args.seed,
            rounds=rounds,
            rush_start=rush_start,
            rush_end=rush_start + max(2, rounds // 10),
        ))
        combined["experiments"]["scarcity"] = section(
            "scarcity market", report
        )
    if run_all or args.preset == "cheater-isolation":
        report = cheater_isolation(IsolationConfig(
            seed=args.seed,
            rounds=12 if quick else 20,
            cluster_shards=args.shards,
        ))
        combined["experiments"]["cheaterIsolation"] = section(
            "cheater isolation", report
        )
    if run_all or args.preset == "open-world":
        rounds = (
            args.rounds if args.rounds is not None
            else (12 if quick else 24)
        )
        rush_start = rounds // 2
        report = run_scenario(ScenarioConfig(
            seed=args.seed,
            rounds=rounds,
            agents=args.agents,
            cheaters=args.cheaters,
            seats=args.seats,
            churn_every=max(2, rounds // 6),
            rush_start=rush_start,
            rush_end=rush_start + max(1, rounds // 8),
            cluster_shards=args.shards,
            # Scarce market with strong gossip, so cheaters keep
            # finding victims until reputation isolates them.
            market=MarketConfig(
                capacity_per_provider=2,
                demand_per_seeker=4,
                gossip_scale=0.75,
            ),
        ))
        combined["openWorld"] = section("open-world scenario", report)

    combined["ok"] = ok
    if not combined["experiments"]:
        del combined["experiments"]
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(combined, indent=2, sort_keys=True))
        print(f"report written to {args.report}")
    return 0 if ok else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    import json

    from repro.obs.audit import verify_audit_log

    report = verify_audit_log(args.path)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Trust-X trust negotiation for Virtual Organizations "
        "(paper reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="run the Example 2 negotiation") \
        .set_defaults(func=_cmd_demo)
    sub.add_parser("lifecycle", help="run the full VO lifecycle") \
        .set_defaults(func=_cmd_lifecycle)
    sub.add_parser("fig9", help="reproduce the Fig. 9 series") \
        .set_defaults(func=_cmd_fig9)

    negotiate_parser = sub.add_parser(
        "negotiate", help="negotiate a scenario resource"
    )
    negotiate_parser.add_argument("resource")
    negotiate_parser.add_argument("--requester", default="AerospaceCo")
    negotiate_parser.add_argument("--controller", default="AircraftCo")
    negotiate_parser.add_argument("--strategy", default="standard")
    negotiate_parser.add_argument("-v", "--verbose", action="store_true")
    negotiate_parser.set_defaults(func=_cmd_negotiate)

    faults_parser = sub.add_parser(
        "faults", help="run the fault-tolerant negotiation demo"
    )
    faults_parser.add_argument("--seed", type=int, default=7,
                               help="fault-plan seed (default 7)")
    faults_parser.add_argument("--strategy", default="standard")
    faults_parser.set_defaults(func=_cmd_faults)

    policy_parser = sub.add_parser(
        "policy", help="parse policy DSL and print wire forms"
    )
    policy_parser.add_argument("--text", help="policy DSL (default: stdin)")
    policy_parser.add_argument("--xml", action="store_true",
                               help="print the X-TNL XML form")
    policy_parser.add_argument("--xacml", action="store_true",
                               help="print the XACML form")
    policy_parser.set_defaults(func=_cmd_policy)

    tree_parser = sub.add_parser(
        "tree", help="render the Fig. 2 negotiation tree"
    )
    tree_parser.add_argument("--format", choices=("ascii", "dot"),
                             default="ascii")
    tree_parser.set_defaults(func=_cmd_tree)

    trace_parser = sub.add_parser(
        "trace", help="run an instrumented formation and show its trace"
    )
    trace_parser.add_argument("--roles", type=int, default=8,
                              help="formation size (default 8)")
    trace_parser.add_argument("--serial", action="store_true",
                              help="join serially instead of in parallel")
    trace_parser.add_argument("--events", action="store_true",
                              help="also print the event log")
    trace_parser.add_argument("--json", metavar="PATH",
                              help="write Chrome Trace Event JSON to PATH")
    trace_parser.set_defaults(func=_cmd_trace)

    soak_parser = sub.add_parser(
        "soak", help="run the chaos-soak invariant harness"
    )
    soak_parser.add_argument("--seed", type=int, default=7,
                             help="soak seed (default 7)")
    soak_parser.add_argument("--negotiations", type=int, default=2000,
                             help="negotiations to drive (default 2000)")
    soak_parser.add_argument("--roles", type=int, default=4,
                             help="contract roles (default 4)")
    soak_parser.add_argument("--report", metavar="PATH",
                             help="write the JSON invariant report to PATH")
    soak_parser.add_argument("--shards", type=int, default=0,
                             help="deploy N TN shards behind the service "
                             "URL (0 = single service, the default)")
    soak_parser.add_argument("--kill-every", type=int, default=0,
                             help="run a kill/restart drill every Nth "
                             "negotiation (requires --shards)")
    soak_parser.add_argument("--retract-every", type=int, default=0,
                             help="revoke the requester's credential "
                             "mid-negotiation every Nth negotiation and "
                             "assert the exchange fails (0 disables)")
    soak_parser.add_argument("--wal-dir", metavar="DIR",
                             help="directory for per-shard WAL files "
                             "(default: in-memory journals)")
    soak_parser.add_argument("--audit-log", metavar="PATH",
                             help="write a hash-chained audit log to PATH "
                             "and verify it as an invariant")
    soak_parser.add_argument("--asyncio", dest="asyncio_mode",
                             action="store_true",
                             help="run the same storm as concurrent waves "
                             "(one slot per role) of asyncio tasks, each "
                             "on its own simulated-clock branch")
    soak_parser.set_defaults(func=_cmd_soak, parser=soak_parser)

    scenarios_parser = sub.add_parser(
        "scenarios",
        help="run the open-world scenario engine and experiments",
    )
    scenarios_parser.add_argument("--seed", type=int, default=42,
                                  help="scenario seed (default 42)")
    scenarios_parser.add_argument(
        "--preset", default="all",
        choices=("all", "open-world", "matrix", "scarcity",
                 "cheater-isolation"),
        help="which workload(s) to run (default: all)")
    scenarios_parser.add_argument("--agents", type=int, default=12,
                                  help="open-world population size "
                                  "(default 12)")
    scenarios_parser.add_argument("--cheaters", type=int, default=1,
                                  help="cheating providers in the "
                                  "open-world population (default 1)")
    scenarios_parser.add_argument("--seats", type=int, default=3,
                                  help="VO seats filled through TN "
                                  "(default 3)")
    scenarios_parser.add_argument("--rounds", type=int, default=None,
                                  help="open-world rounds (default 24, "
                                  "12 with --quick)")
    scenarios_parser.add_argument("--shards", type=int, default=0,
                                  help="TN shards behind the service URL "
                                  "(0 = single service, the default)")
    scenarios_parser.add_argument("--quick", action="store_true",
                                  help="smaller rounds for CI smoke runs")
    scenarios_parser.add_argument("--report", metavar="PATH",
                                  help="write the combined JSON report "
                                  "to PATH")
    scenarios_parser.set_defaults(func=_cmd_scenarios)

    audit_parser = sub.add_parser(
        "audit", help="verify a hash-chained audit log"
    )
    audit_parser.add_argument("path", help="audit log file to verify")
    audit_parser.add_argument("--json", action="store_true",
                              help="print the verification report as JSON")
    audit_parser.set_defaults(func=_cmd_audit)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
