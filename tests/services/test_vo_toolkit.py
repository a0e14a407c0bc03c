"""The VO Management toolkit editions and the join flow (Fig. 9)."""

import dataclasses
import gc

import pytest

from repro.errors import MembershipError
from repro.scenario import build_aircraft_scenario
from repro.scenario.aircraft import (
    ROLE_DESIGN_PORTAL,
    ROLE_HPC,
    ROLE_OPTIMIZATION,
    ROLE_STORAGE,
)
from repro.scenario.workloads import formation_workload
from repro.vo.organization import VirtualOrganization


@pytest.fixture()
def scenario():
    return build_aircraft_scenario()


@pytest.fixture()
def ready(scenario):
    edition = scenario.initiator_edition
    vo = edition.create_vo(scenario.contract)
    edition.enable_trust_negotiation()
    return scenario, edition, vo


class TestHostEdition:
    def test_members_registered(self, scenario):
        directory = scenario.host.directory()
        assert set(directory) == {
            "AerospaceCo", "OptimCo", "HPCServiceCo", "StorageCo"
        }

    def test_services_published(self, scenario):
        services = scenario.host.registry.find_by_role(ROLE_DESIGN_PORTAL)
        assert [s.provider for s in services] == ["AerospaceCo"]

    def test_list_services_operation(self, scenario):
        response = scenario.transport.call(
            scenario.host.url, "ListServices", {"role": ROLE_HPC}
        )
        assert [s.provider for s in response["services"]] == ["HPCServiceCo"]

    def test_unknown_member_raises(self, scenario):
        with pytest.raises(MembershipError):
            scenario.host.member("Nobody")

    def test_monitor_vo(self, ready):
        scenario, edition, vo = ready
        response = scenario.transport.call(
            scenario.host.url, "MonitorVO",
            {"voName": vo.contract.vo_name},
        )
        assert response["phase"] == "formation"


class TestJoinFlow:
    def test_join_without_tn(self, ready):
        scenario, edition, vo = ready
        outcome = edition.execute_join(
            scenario.app("StorageCo"), ROLE_STORAGE, with_negotiation=False
        )
        assert outcome.joined
        assert outcome.negotiation is None
        assert outcome.elapsed_ms > 0
        assert vo.member_for(ROLE_STORAGE).name == "StorageCo"

    def test_join_with_tn(self, ready):
        scenario, edition, vo = ready
        outcome = edition.execute_join(
            scenario.app("AerospaceCo"), ROLE_DESIGN_PORTAL,
            with_negotiation=True,
        )
        assert outcome.joined
        assert outcome.negotiation.success
        member = vo.member_for(ROLE_DESIGN_PORTAL)
        assert member.is_member_of(vo.contract.vo_name)

    def test_tn_join_slower_than_plain_join(self, ready):
        scenario, edition, vo = ready
        with_tn = edition.execute_join(
            scenario.app("AerospaceCo"), ROLE_DESIGN_PORTAL,
            with_negotiation=True,
        )
        without_tn = edition.execute_join(
            scenario.app("StorageCo"), ROLE_STORAGE, with_negotiation=False
        )
        assert with_tn.elapsed_ms > without_tn.elapsed_ms

    def test_membership_token_verifies(self, ready):
        scenario, edition, vo = ready
        edition.execute_join(
            scenario.app("AerospaceCo"), ROLE_DESIGN_PORTAL,
            with_negotiation=True,
        )
        token = scenario.member("AerospaceCo").token_for(vo.contract.vo_name)
        assert vo.verify_member(token, scenario.clock.now())
        assert token.vo_public_key == edition.initiator.vo_keypair.public

    def test_join_with_tn_requires_enabled_service(self, scenario):
        edition = scenario.initiator_edition
        edition.create_vo(scenario.contract)
        with pytest.raises(MembershipError):
            edition.execute_join(
                scenario.app("AerospaceCo"), ROLE_DESIGN_PORTAL,
                with_negotiation=True,
            )

    def test_join_before_create_vo_rejected(self, scenario):
        with pytest.raises(MembershipError):
            scenario.initiator_edition.execute_join(
                scenario.app("AerospaceCo"), ROLE_DESIGN_PORTAL,
                with_negotiation=False,
            )

    def test_declined_invitation(self, ready):
        scenario, edition, vo = ready
        member = scenario.member("OptimCo")
        member.decision = lambda invitation: False
        outcome = edition.execute_join(
            scenario.app("OptimCo"), ROLE_OPTIMIZATION, with_negotiation=False
        )
        assert not outcome.joined
        assert outcome.reason == "invitation declined"

    def test_failed_negotiation_blocks_join(self, ready):
        """A member whose quality credential was revoked cannot join."""
        scenario, edition, vo = ready
        infn = scenario.authority("INFN")
        iso = scenario.member("AerospaceCo").agent.profile.by_type(
            "ISO 9000 Certified"
        )[0]
        scenario.bus.revoke(infn, iso)
        outcome = edition.execute_join(
            scenario.app("AerospaceCo"), ROLE_DESIGN_PORTAL,
            with_negotiation=True,
        )
        assert not outcome.joined
        assert outcome.negotiation is not None
        assert not outcome.negotiation.success

    def test_reputation_updated_by_join_negotiation(self, ready):
        scenario, edition, vo = ready
        before = vo.reputation.score("AerospaceCo")
        edition.execute_join(
            scenario.app("AerospaceCo"), ROLE_DESIGN_PORTAL,
            with_negotiation=True,
        )
        assert vo.reputation.score("AerospaceCo") > before


class TestDiscovery:
    def test_discover_charges_and_returns(self, ready):
        scenario, edition, _ = ready
        before = scenario.transport.clock.elapsed_ms
        services = edition.discover(ROLE_OPTIMIZATION)
        assert [s.provider for s in services] == ["OptimCo"]
        assert scenario.transport.clock.elapsed_ms > before


class TestHostForgetsDissolvedVOs:
    """A long-lived host keeps only VOs that have not dissolved."""

    def test_dissolved_vos_are_released(self):
        fixture = formation_workload(2)
        edition = fixture.initiator_edition
        names = []
        for index in range(20):
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
                vo.dissolve()
            finally:
                service.close()
            assert len(outcome.joined) == 2
            names.append(contract.vo_name)
        del vo
        gc.collect()
        # The edition still holds the VO it formed last.  Other tests'
        # VOs may be alive in this process, so count only this test's.
        live = [
            o for o in gc.get_objects()
            if isinstance(o, VirtualOrganization)
            and o.contract.vo_name in names
        ]
        assert len(live) <= 1
        response = fixture.transport.call(
            edition.host.url, "MonitorVO", {"voName": names[-1]}
        )
        assert response["phase"] == "unknown"
        assert response["members"] == []
