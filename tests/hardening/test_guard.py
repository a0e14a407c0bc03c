"""Protocol-guard validation and sequence-machine tests."""

import pytest

from repro.errors import ErrorCode, GuardRejection
from repro.hardening.config import HardeningConfig
from repro.hardening.guard import ProtocolGuard
from repro.negotiation.strategies import Strategy
from repro.services.tn_service import NegotiationSession


@pytest.fixture()
def guard():
    return ProtocolGuard(config=HardeningConfig(
        max_payload_keys=8,
        max_string_bytes=64,
        max_xml_depth=4,
        max_xml_children=4,
        max_client_seq=100,
    ))


def _session(**overrides) -> NegotiationSession:
    fields = dict(
        session_id="tn-1",
        requester=None,
        strategy=Strategy.parse("standard"),
        requester_name="AerospaceCo",
    )
    fields.update(overrides)
    return NegotiationSession(**fields)


def _code(excinfo) -> ErrorCode:
    return excinfo.value.error_code


class TestStatelessValidation:
    def test_valid_payload_counts_as_validated(self, guard):
        guard.validate("PolicyExchange", {
            "negotiationId": "tn-1", "resource": "Role-00", "clientSeq": 1,
        })
        assert guard.stats.validated == 1
        assert guard.stats.rejected == 0

    def test_unknown_operation(self, guard):
        with pytest.raises(GuardRejection) as excinfo:
            guard.validate("DropAllTables", {})
        assert _code(excinfo) is ErrorCode.UNKNOWN_OPERATION

    def test_non_mapping_payload(self, guard):
        with pytest.raises(GuardRejection) as excinfo:
            guard.validate("PolicyExchange", ["not", "a", "dict"])
        assert _code(excinfo) is ErrorCode.MALFORMED_MESSAGE

    def test_non_string_key(self, guard):
        with pytest.raises(GuardRejection) as excinfo:
            guard.validate("PolicyExchange", {
                "negotiationId": "tn-1", "resource": "R", 7: "seven",
            })
        assert _code(excinfo) is ErrorCode.MALFORMED_MESSAGE

    def test_unknown_field(self, guard):
        with pytest.raises(GuardRejection) as excinfo:
            guard.validate("CredentialExchange", {
                "negotiationId": "tn-1", "exploit": "1",
            })
        assert _code(excinfo) is ErrorCode.SCHEMA_VIOLATION

    def test_missing_required_field(self, guard):
        with pytest.raises(GuardRejection) as excinfo:
            guard.validate("PolicyExchange", {"resource": "R"})
        assert _code(excinfo) is ErrorCode.SCHEMA_VIOLATION

    def test_null_required_field(self, guard):
        with pytest.raises(GuardRejection) as excinfo:
            guard.validate("PolicyExchange", {
                "negotiationId": "tn-1", "resource": None,
            })
        assert _code(excinfo) is ErrorCode.SCHEMA_VIOLATION

    def test_boolean_client_seq_is_not_an_int(self, guard):
        with pytest.raises(GuardRejection) as excinfo:
            guard.validate("CredentialExchange", {
                "negotiationId": "tn-1", "clientSeq": True,
            })
        assert _code(excinfo) is ErrorCode.SCHEMA_VIOLATION

    def test_client_seq_out_of_range(self, guard):
        for seq in (0, -3, guard.config.max_client_seq + 1):
            with pytest.raises(GuardRejection) as excinfo:
                guard.validate("CredentialExchange", {
                    "negotiationId": "tn-1", "clientSeq": seq,
                })
            assert _code(excinfo) is ErrorCode.SCHEMA_VIOLATION

    def test_too_many_keys(self, guard):
        many = {f"k{i}": i for i in range(guard.config.max_payload_keys + 1)}
        with pytest.raises(GuardRejection) as excinfo:
            guard.validate("StartNegotiation", many)
        assert _code(excinfo) is ErrorCode.OVERSIZED_PAYLOAD

    def test_oversized_string(self, guard):
        huge = "x" * (guard.config.max_string_bytes + 1)
        with pytest.raises(GuardRejection) as excinfo:
            guard.validate("PolicyExchange", {
                "negotiationId": "tn-1", "resource": huge,
            })
        assert _code(excinfo) is ErrorCode.OVERSIZED_PAYLOAD

    def test_truncated_xml(self, guard):
        with pytest.raises(GuardRejection) as excinfo:
            guard.validate("PolicyExchange", {
                "negotiationId": "tn-1",
                "resource": "<credential><attr name='x'",
            })
        assert _code(excinfo) is ErrorCode.MALFORMED_MESSAGE

    def test_deep_xml(self, guard):
        depth = guard.config.max_xml_depth + 2
        nested = "<a>" * depth + "x" + "</a>" * depth
        with pytest.raises(GuardRejection) as excinfo:
            guard.validate("PolicyExchange", {
                "negotiationId": "tn-1", "resource": nested,
            })
        assert _code(excinfo) is ErrorCode.DEPTH_EXCEEDED

    def test_wide_xml(self, guard):
        wide = "<a>" + "<b></b>" * (guard.config.max_xml_children + 1) + "</a>"
        with pytest.raises(GuardRejection) as excinfo:
            guard.validate("PolicyExchange", {
                "negotiationId": "tn-1", "resource": wide,
            })
        assert _code(excinfo) is ErrorCode.DEPTH_EXCEEDED

    def test_unknown_strategy(self, guard):
        with pytest.raises(GuardRejection) as excinfo:
            guard.validate("StartNegotiation", {"strategy": "yolo"})
        # requester is checked field-by-field before semantics, so the
        # missing requester wins; supply one is impossible here without
        # an agent, so accept either schema code.
        assert _code(excinfo) is ErrorCode.SCHEMA_VIOLATION

    def test_unknown_priority(self, guard):
        with pytest.raises(GuardRejection) as excinfo:
            guard.validate("CredentialExchange", {
                "negotiationId": "tn-1", "priority": "vip",
            })
        assert _code(excinfo) is ErrorCode.SCHEMA_VIOLATION

    def test_rejections_counted_by_code(self, guard):
        for _ in range(2):
            with pytest.raises(GuardRejection):
                guard.validate("Nope", {})
        assert guard.stats.rejected == 2
        assert guard.stats.by_code[ErrorCode.UNKNOWN_OPERATION.value] == 2


class TestSequenceMachine:
    def test_first_message_advances(self, guard):
        guard.check_transition(_session(), "PolicyExchange", 1, "R")

    def test_phase_skip(self, guard):
        with pytest.raises(GuardRejection) as excinfo:
            guard.check_transition(_session(), "CredentialExchange", 1, "")
        assert _code(excinfo) is ErrorCode.PHASE_SKIP

    def test_skip_ahead(self, guard):
        with pytest.raises(GuardRejection) as excinfo:
            guard.check_transition(_session(), "PolicyExchange", 5, "R")
        assert _code(excinfo) is ErrorCode.OUT_OF_ORDER

    def test_stale_seq_on_live_session(self, guard):
        session = _session(phase="policy", last_seq=2)
        with pytest.raises(GuardRejection) as excinfo:
            guard.check_transition(session, "CredentialExchange", 1, "")
        assert _code(excinfo) is ErrorCode.OUT_OF_ORDER

    def test_recorded_seq_falls_through_to_replay(self, guard):
        session = _session(phase="policy", last_seq=1)
        session.responses[1] = ("PolicyExchange", "R", {"x": 1})
        # Not rejected: the service's idempotent replay path owns it.
        guard.check_transition(session, "PolicyExchange", 1, "R")

    def test_restored_session_tolerates_stale_seq(self, guard):
        session = _session(phase="policy", last_seq=3, restored=True)
        guard.check_transition(session, "PolicyExchange", 2, "R")

    def test_post_terminal(self, guard):
        session = _session(phase="expired")
        with pytest.raises(GuardRejection) as excinfo:
            guard.check_transition(session, "PolicyExchange", 2, "R")
        assert _code(excinfo) is ErrorCode.POST_TERMINAL

    def test_post_terminal_replay_still_allowed(self, guard):
        session = _session(phase="expired")
        session.responses[1] = ("PolicyExchange", "R", {"x": 1})
        guard.check_transition(session, "PolicyExchange", 1, "R")


class TestBoundaries:
    """Each guard limit at exactly the limit (accepted) and one past it
    (rejected with its own code and message)."""

    def test_payload_keys_at_limit_and_one_past(self):
        guard = ProtocolGuard(config=HardeningConfig(max_payload_keys=3))
        payload = {"negotiationId": "tn-1", "clientSeq": 1, "at": None}
        guard.validate("CredentialExchange", payload)
        with pytest.raises(GuardRejection) as excinfo:
            guard.validate("CredentialExchange", {**payload, "priority": None})
        assert _code(excinfo) is ErrorCode.OVERSIZED_PAYLOAD
        assert "4 keys (limit 3)" in str(excinfo.value)

    def test_null_in_non_nullable_field(self, guard):
        guard.validate("CredentialExchange", {
            "negotiationId": "tn-1", "clientSeq": None,
        })
        with pytest.raises(GuardRejection) as excinfo:
            guard.validate("CredentialExchange", {"negotiationId": None})
        assert _code(excinfo) is ErrorCode.SCHEMA_VIOLATION
        assert "must not be null" in str(excinfo.value)

    def test_unknown_strategy_with_a_valid_requester(
        self, guard, agent_factory, shared_keypair
    ):
        requester = agent_factory("AerospaceCo", [], "", shared_keypair)
        guard.validate("StartNegotiation", {
            "requester": requester, "strategy": "standard",
        })
        with pytest.raises(GuardRejection) as excinfo:
            guard.validate("StartNegotiation", {
                "requester": requester, "strategy": "yolo",
            })
        assert _code(excinfo) is ErrorCode.SCHEMA_VIOLATION
        assert "is not a known strategy" in str(excinfo.value)

    def test_skip_ahead_at_next_and_one_past(self, guard):
        session = _session(phase="policy", last_seq=2)
        guard.check_transition(session, "CredentialExchange", 3, "")
        with pytest.raises(GuardRejection) as excinfo:
            guard.check_transition(session, "CredentialExchange", 4, "")
        assert _code(excinfo) is ErrorCode.OUT_OF_ORDER
        assert "skips ahead" in str(excinfo.value)

    def test_client_seq_at_both_ends_and_one_past(self, guard):
        limit = guard.config.max_client_seq
        for seq in (1, limit):
            guard.validate("CredentialExchange", {
                "negotiationId": "tn-1", "clientSeq": seq,
            })
        with pytest.raises(GuardRejection) as excinfo:
            guard.validate("CredentialExchange", {
                "negotiationId": "tn-1", "clientSeq": limit + 1,
            })
        assert _code(excinfo) is ErrorCode.SCHEMA_VIOLATION
        assert f"{limit + 1} is outside [1, {limit}]" in str(excinfo.value)

    def test_string_bytes_at_limit_and_one_past(self, guard):
        # bytes, not characters: "é" is two UTF-8 bytes, so one past
        # the byte limit is still at the limit in characters
        limit = guard.config.max_string_bytes
        at_limit = "é" + "x" * (limit - 2)
        assert len(at_limit.encode("utf-8")) == limit
        guard.validate("PolicyExchange", {
            "negotiationId": "tn-1", "resource": at_limit,
        })
        one_past = at_limit + "x"
        assert len(one_past) == limit
        with pytest.raises(GuardRejection) as excinfo:
            guard.validate("PolicyExchange", {
                "negotiationId": "tn-1", "resource": one_past,
            })
        assert _code(excinfo) is ErrorCode.OVERSIZED_PAYLOAD
        assert f"is {limit + 1} bytes (limit {limit})" in str(excinfo.value)

    def test_oversized_xml_is_caught_by_the_string_limit(self, guard):
        limit = guard.config.max_string_bytes
        document = "<a>" + "y" * (limit - 7) + "</a>"
        assert len(document) == limit
        guard.validate("PolicyExchange", {
            "negotiationId": "tn-1", "resource": document,
        })
        with pytest.raises(GuardRejection) as excinfo:
            guard.validate("PolicyExchange", {
                "negotiationId": "tn-1", "resource": " " + document,
            })
        assert _code(excinfo) is ErrorCode.OVERSIZED_PAYLOAD

    def test_well_formed_xml_field_is_accepted(self, guard):
        guard.validate("PolicyExchange", {
            "negotiationId": "tn-1",
            "resource": '<credential type="x"><a>v</a><b/></credential>',
        })
        assert guard.stats.validated == 1
        assert guard.stats.rejected == 0

    def test_xml_depth_at_limit_and_one_past(self, guard):
        def nested(depth: int) -> str:
            return "<a>" * depth + "x" + "</a>" * depth

        limit = guard.config.max_xml_depth
        guard.validate("PolicyExchange", {
            "negotiationId": "tn-1", "resource": nested(limit),
        })
        with pytest.raises(GuardRejection) as excinfo:
            guard.validate("PolicyExchange", {
                "negotiationId": "tn-1", "resource": nested(limit + 1),
            })
        assert _code(excinfo) is ErrorCode.DEPTH_EXCEEDED
        assert f"deeper than {limit} levels" in str(excinfo.value)

    def test_xml_children_at_limit_and_one_past(self, guard):
        def wide(children: int) -> str:
            # the children sit one level down, so a check on the root
            # alone would not see them
            return "<r><a>" + "<b/>" * children + "</a></r>"

        limit = guard.config.max_xml_children
        guard.validate("PolicyExchange", {
            "negotiationId": "tn-1", "resource": wide(limit),
        })
        with pytest.raises(GuardRejection) as excinfo:
            guard.validate("PolicyExchange", {
                "negotiationId": "tn-1", "resource": wide(limit + 1),
            })
        assert _code(excinfo) is ErrorCode.DEPTH_EXCEEDED
        assert f"has {limit + 1} children (limit {limit})" in str(
            excinfo.value
        )

    def test_stale_seq_at_last_seq_on_a_fresh_session(self, guard):
        session = _session(phase="policy", last_seq=2)
        with pytest.raises(GuardRejection) as excinfo:
            guard.check_transition(session, "CredentialExchange", 2, "")
        assert _code(excinfo) is ErrorCode.OUT_OF_ORDER
        assert "is stale" in str(excinfo.value)

    def test_seq_at_last_seq_on_a_restored_session(self, guard):
        # a restored live session has no recorded responses; the
        # client's unacknowledged last call is resent, not stale
        session = _session(phase="policy", last_seq=2, restored=True)
        guard.check_transition(session, "CredentialExchange", 2, "")
        with pytest.raises(GuardRejection) as excinfo:
            guard.check_transition(session, "CredentialExchange", 4, "")
        assert _code(excinfo) is ErrorCode.OUT_OF_ORDER

    def test_seq_at_last_seq_on_a_restored_finished_session(self, guard):
        # terminal from its phase alone, result in memory or not
        session = _session(phase="exchange", last_seq=2, restored=True)
        assert session.terminal
        with pytest.raises(GuardRejection) as excinfo:
            guard.check_transition(session, "CredentialExchange", 2, "")
        assert _code(excinfo) is ErrorCode.POST_TERMINAL
