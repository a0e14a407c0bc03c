"""Group conditions (the paper's §8 planned extension)."""

import pytest

from repro.credentials.profile import XProfile
from repro.errors import PolicyError, PolicyParseError
from repro.policy.compliance import ComplianceChecker
from repro.policy.groups import (
    AggregateCondition,
    CountCondition,
    DistinctIssuersCondition,
    SameIssuerCondition,
    parse_group_condition,
)
from repro.policy.parser import parse_policy
from tests.conftest import ISSUE_AT


@pytest.fixture()
def credentials(infn, aaa_authority, shared_keypair):
    fp = shared_keypair.fingerprint
    return [
        infn.issue("QualityCert", "Owner", fp, {"capacityTB": 40}, ISSUE_AT),
        infn.issue("QualityCert", "Owner", fp, {"capacityTB": 30}, ISSUE_AT),
        aaa_authority.issue("Badge", "Owner", fp, {"capacityTB": 50}, ISSUE_AT),
    ]


class TestConditionEvaluation:
    def test_count_by_type(self, credentials):
        assert CountCondition("QualityCert", ">=", 2).evaluate(credentials)
        assert not CountCondition("QualityCert", ">=", 3).evaluate(credentials)

    def test_count_star(self, credentials):
        assert CountCondition("*", "=", 3).evaluate(credentials)

    def test_distinct_issuers(self, credentials):
        assert DistinctIssuersCondition(">=", 2).evaluate(credentials)
        assert not DistinctIssuersCondition(">=", 3).evaluate(credentials)

    def test_same_issuer(self, credentials):
        assert SameIssuerCondition().evaluate(credentials[:2])
        assert not SameIssuerCondition().evaluate(credentials)
        assert SameIssuerCondition().evaluate([])

    def test_sum(self, credentials):
        assert AggregateCondition("sum", "capacityTB", ">=", 100).evaluate(
            credentials
        )
        assert not AggregateCondition("sum", "capacityTB", ">", 120).evaluate(
            credentials
        )

    def test_min_max(self, credentials):
        assert AggregateCondition("min", "capacityTB", ">=", 30).evaluate(
            credentials
        )
        assert AggregateCondition("max", "capacityTB", "=", 50).evaluate(
            credentials
        )

    def test_aggregate_over_missing_attribute_fails(self, credentials):
        assert not AggregateCondition("sum", "ghost", ">=", 0).evaluate(
            credentials
        )


class TestParsing:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("count(QualityCert) >= 2", CountCondition),
            ("count(*) = 3", CountCondition),
            ("distinct_issuers >= 2", DistinctIssuersCondition),
            ("same_issuer", SameIssuerCondition),
            ("sum(capacityTB) >= 100", AggregateCondition),
            ("min(score)>0", AggregateCondition),
        ],
    )
    def test_forms(self, text, kind):
        assert isinstance(parse_group_condition(text), kind)

    def test_invalid_rejected(self):
        with pytest.raises(PolicyParseError):
            parse_group_condition("median(x) > 1")

    def test_policy_with_group_suffix(self):
        policy = parse_policy(
            "Pool <- QualityCert, QualityCert | group(sum(capacityTB)>=60, "
            "distinct_issuers>=1)"
        )
        assert len(policy.terms) == 2
        assert len(policy.group_conditions) == 2

    def test_dsl_roundtrip(self):
        text = "Pool <- A, B | group(count(*)=2, same_issuer)"
        once = parse_policy(text)
        twice = parse_policy(once.dsl())
        assert once.group_conditions == twice.group_conditions
        assert once.terms == twice.terms

    def test_group_with_brace_shorthand(self):
        policy = parse_policy("R <- A, {v} | group(count(*)>=1)")
        assert policy.terms[0].conditions
        assert policy.group_conditions

    def test_delivery_with_group_rejected(self):
        with pytest.raises(PolicyParseError):
            parse_policy("R <- DELIV | group(count(*)=0)")

    def test_empty_group_rejected(self):
        with pytest.raises(PolicyParseError):
            parse_policy("R <- A | group()")


class TestCompliance:
    def test_group_satisfied_by_combination_search(self, credentials):
        """Greedy per-term choice picks the same credential twice; the
        combination search must find the distinct pair."""
        profile = XProfile.of("Owner", credentials)
        checker = ComplianceChecker()
        policy = parse_policy(
            "Pool <- QualityCert, QualityCert | group(sum(capacityTB)>=70)"
        )
        satisfaction = checker.satisfy(policy, profile)
        assert satisfaction is not None
        chosen = satisfaction.credentials()
        total = sum(c.value("capacityTB") for c in chosen)
        assert total >= 70
        assert chosen[0].cred_id != chosen[1].cred_id

    def test_group_unsatisfiable(self, credentials):
        profile = XProfile.of("Owner", credentials)
        checker = ComplianceChecker()
        policy = parse_policy(
            "Pool <- QualityCert, QualityCert | group(sum(capacityTB)>=200)"
        )
        assert checker.satisfy(policy, profile) is None

    def test_distinct_issuer_requirement(self, credentials):
        profile = XProfile.of("Owner", credentials)
        checker = ComplianceChecker()
        policy = parse_policy(
            "Pool <- $X, $Y | group(distinct_issuers>=2)"
        )
        satisfaction = checker.satisfy(policy, profile)
        assert satisfaction is not None
        issuers = {c.issuer for c in satisfaction.credentials()}
        assert len(issuers) == 2


class TestCombinationBudget:
    """The group search examines at most
    ``ComplianceChecker.MAX_GROUP_COMBINATIONS`` (512) combinations, in
    preference order.  ``A`` credential ``i`` has rank ``16 * i`` and
    ``B`` credential ``j`` has rank ``j``, so ``sum(rank) = k`` holds
    only for combination ``k + 1``, ``(A[k // 16], B[k % 16])``."""

    @pytest.fixture(scope="class")
    def profile(self, infn, shared_keypair):
        fp = shared_keypair.fingerprint
        return XProfile.of("Owner", [
            *(infn.issue("A", "Owner", fp, {"rank": 16 * i}, ISSUE_AT)
              for i in range(33)),
            *(infn.issue("B", "Owner", fp, {"rank": j}, ISSUE_AT)
              for j in range(16)),
        ])

    @staticmethod
    def combination(rank_sum):
        return parse_policy(f"Pool <- A, B | group(sum(rank)={rank_sum})")

    def test_budget_is_512(self):
        assert ComplianceChecker.MAX_GROUP_COMBINATIONS == 512

    def test_last_combination_within_budget_is_found(self, profile):
        satisfaction = ComplianceChecker().satisfy(
            self.combination(511), profile
        )
        assert satisfaction is not None
        assert [c.value("rank") for c in satisfaction.credentials()] == [
            496, 15,
        ]

    def test_first_combination_past_budget_is_not(self, profile):
        assert ComplianceChecker().satisfy(
            self.combination(512), profile
        ) is None

    def test_past_budget_is_found_with_a_larger_budget(
        self, profile, monkeypatch
    ):
        monkeypatch.setattr(ComplianceChecker, "MAX_GROUP_COMBINATIONS", 513)
        satisfaction = ComplianceChecker().satisfy(
            self.combination(512), profile
        )
        assert satisfaction is not None
        assert [c.value("rank") for c in satisfaction.credentials()] == [
            512, 0,
        ]


class TestEngineEnforcement:
    def test_group_violation_fails_exchange(self, agent_factory, infn,
                                            shared_keypair, other_keypair):
        """The receiving party enforces group conditions over what was
        actually disclosed."""
        from repro.negotiation.engine import negotiate
        from repro.negotiation.outcomes import FailureReason
        from tests.conftest import NEGOTIATION_AT

        requester = agent_factory(
            "Req",
            [infn.issue("A", "Req", shared_keypair.fingerprint,
                        {"capacityTB": 10}, ISSUE_AT),
             infn.issue("B", "Req", shared_keypair.fingerprint,
                        {"capacityTB": 10}, ISSUE_AT)],
            "", shared_keypair,
        )
        controller = agent_factory(
            "Ctrl", [],
            "RES <- A, B | group(sum(capacityTB)>=100)",
            other_keypair,
        )
        result = negotiate(requester, controller, "RES", at=NEGOTIATION_AT)
        assert not result.success
        assert result.failure_reason is FailureReason.CREDENTIAL_REJECTED
        assert "group condition" in result.failure_detail

    def test_group_satisfied_passes_exchange(self, agent_factory, infn,
                                             shared_keypair, other_keypair):
        from repro.negotiation.engine import negotiate
        from tests.conftest import NEGOTIATION_AT

        requester = agent_factory(
            "Req",
            [infn.issue("A", "Req", shared_keypair.fingerprint,
                        {"capacityTB": 60}, ISSUE_AT),
             infn.issue("B", "Req", shared_keypair.fingerprint,
                        {"capacityTB": 60}, ISSUE_AT)],
            "", shared_keypair,
        )
        controller = agent_factory(
            "Ctrl", [],
            "RES <- A, B | group(sum(capacityTB)>=100, same_issuer)",
            other_keypair,
        )
        result = negotiate(requester, controller, "RES", at=NEGOTIATION_AT)
        assert result.success, result.failure_detail
