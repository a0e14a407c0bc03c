"""End-to-end instrumentation: the hot paths light up coherently."""

import pytest

from repro import obs
from repro.credentials.sensitivity import Sensitivity
from repro.negotiation.cache import CachingNegotiator
from repro.negotiation.engine import negotiate
from repro.obs import REDACTED, validate_trace
from repro.scenario.workloads import chain_workload, formation_workload
from tests.conftest import ISSUE_AT, NEGOTIATION_AT


@pytest.fixture()
def example2_sensitive(agent_factory, infn, aaa_authority, bbb_authority,
                       shared_keypair, other_keypair):
    """Example 2 with a HIGH-sensitivity credential on the wire."""
    aero = agent_factory(
        "AerospaceCo",
        [infn.issue("ISO 9000 Certified", "AerospaceCo",
                    shared_keypair.fingerprint,
                    {"QualityRegulation": "UNI EN ISO 9000"}, ISSUE_AT)],
        """
ISO 9000 Certified <- AAA Member
""",
        shared_keypair,
    )
    aircraft = agent_factory(
        "AircraftCo",
        [aaa_authority.issue("AAA Member", "AircraftCo",
                             other_keypair.fingerprint,
                             {"association": "AAA"}, ISSUE_AT,
                             sensitivity=Sensitivity.HIGH)],
        """
VoMembership <- WebDesignerQuality, {UNI EN ISO 9000}
AAA Member <- DELIV
""",
        other_keypair,
    )
    return aero, aircraft


class TestNegotiationInstrumentation:
    def test_negotiation_trace_is_coherent(self, example2_sensitive):
        aero, aircraft = example2_sensitive
        obs.enable()
        result = negotiate(aero, aircraft, "VoMembership", at=NEGOTIATION_AT)
        assert result.success
        spans = obs.spans()
        names = {s.name for s in spans}
        assert {"tn.negotiation", "tn.policy_phase", "tn.tree_propagate",
                "tn.view_selection", "tn.exchange_phase",
                "tn.verify"} <= names
        report = validate_trace(spans)
        assert report["traces"] == 1
        assert len(report["roots"]) == 1
        assert report["roots"][0].name == "tn.negotiation"
        assert report["orphans"] == []

    def test_negotiation_metrics_recorded(self, example2_sensitive):
        aero, aircraft = example2_sensitive
        obs.enable()
        result = negotiate(
            aero, aircraft, "VoMembership", at=NEGOTIATION_AT
        )
        metrics = obs.metrics()
        assert metrics["negotiation.runs"]["value"] == 1
        assert metrics["negotiation.successes"]["value"] == 1
        assert metrics["negotiation.policy_messages"]["count"] == 1
        assert metrics["negotiation.tree_nodes"]["min"] >= 1
        assert metrics["negotiation.tree_depth"]["max"] == max(
            node.depth for node in result.tree.nodes()
        )
        # One bottom-up pass checks every expanded node once.
        assert metrics["tree.nodes_rechecked"]["count"] == 1
        assert metrics["tree.nodes_rechecked"]["max"] == len({
            edge.parent for edge in result.tree.edges()
        })

    def test_sensitive_disclosure_event_is_redacted(
        self, example2_sensitive,
    ):
        aero, aircraft = example2_sensitive
        obs.enable()  # default redact_at=1: MEDIUM and above redacted
        negotiate(aero, aircraft, "VoMembership", at=NEGOTIATION_AT)
        disclosures = {
            e.fields["cred_type"]: e
            for e in obs.events() if e.name == "credential.disclosed"
        }
        high = disclosures["AAA Member"]
        assert high.fields["sensitivity"] == int(Sensitivity.HIGH)
        assert high.fields["attributes"] == {"association": REDACTED}
        low = disclosures["ISO 9000 Certified"]
        assert low.fields["attributes"] == {
            "QualityRegulation": "UNI EN ISO 9000",
        }

    def test_disclosure_events_correlate_with_the_trace(
        self, example2_sensitive,
    ):
        aero, aircraft = example2_sensitive
        obs.enable()
        negotiate(aero, aircraft, "VoMembership", at=NEGOTIATION_AT)
        (root,) = [s for s in obs.spans() if s.name == "tn.negotiation"]
        for event in obs.events():
            if event.name == "credential.disclosed":
                assert event.trace_id == root.trace_id

    def test_disabled_records_nothing(self, example2_sensitive):
        aero, aircraft = example2_sensitive
        obs.enable()
        obs.disable()
        negotiate(aero, aircraft, "VoMembership", at=NEGOTIATION_AT)
        assert obs.spans() == []
        assert obs.events() == []
        assert "negotiation.runs" not in obs.metrics()


class TestReplayInstrumentation:
    def test_replay_traces_every_disclosure(self):
        """A sequence-cache replay runs the core's exchange phase, so
        each replayed disclosure is verified in a ``tn.verify`` span and
        audited as a ``credential.disclosed`` event."""
        fixture = chain_workload(4)
        negotiator = CachingNegotiator()
        at = fixture.negotiation_time()
        negotiator.negotiate(
            fixture.requester, fixture.controller, fixture.resource, at=at
        )
        obs.enable()
        result = negotiator.negotiate(
            fixture.requester, fixture.controller, fixture.resource, at=at
        )
        assert result.success and negotiator.cache.hits == 1
        assert result.disclosures == 4
        disclosed = [
            e for e in obs.events() if e.name == "credential.disclosed"
        ]
        assert len(disclosed) == result.disclosures
        spans = obs.spans()
        by_id = {s.span_id: s for s in spans}
        verifies = [s for s in spans if s.name == "tn.verify"]
        assert len(verifies) == result.disclosures
        for verify in verifies:
            exchange = by_id[verify.parent_id]
            assert exchange.name == "tn.exchange_phase"
            assert by_id[exchange.parent_id].name == "tn.replay"
        report = validate_trace(spans)
        assert [root.name for root in report["roots"]] == ["tn.replay"]
        assert report["orphans"] == []


class TestServiceInstrumentation:
    @pytest.fixture()
    def formation_metrics(self):
        fixture = formation_workload(2)
        obs.enable()
        edition = fixture.initiator_edition
        edition.create_vo(fixture.contract)
        edition.enable_trust_negotiation()
        edition.execute_formation(fixture.plans(), parallel=False)
        return obs.metrics()

    def test_tn_service_operation_counters(self, formation_metrics):
        ops = formation_metrics
        assert ops["tn_service.operations.start_negotiation"]["value"] == 2
        assert ops["tn_service.operations.policy_exchange"]["value"] >= 2
        assert ops["tn_service.operations.credential_exchange"]["value"] >= 2

    def test_vo_counters_and_join_latency(self, formation_metrics):
        assert formation_metrics["vo.created"]["value"] == 1
        assert formation_metrics["vo.joins"]["value"] == 2
        assert formation_metrics["vo.join_ms"]["count"] == 2
        assert formation_metrics["vo.join_ms"]["min"] > 0

    def test_perf_cache_stats_absorbed(self, formation_metrics):
        cache_keys = [
            k for k in formation_metrics if k.startswith("perf.cache.")
        ]
        assert cache_keys, "perf.cache.* collector produced nothing"
        assert all(
            formation_metrics[k]["type"] == "collected" for k in cache_keys
        )
