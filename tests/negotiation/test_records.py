"""The negotiation's small records: transcript events, policy edges and
agent effects are immutable, hashable value records."""

from __future__ import annotations

import pytest

from repro.negotiation.core import OP_STRATEGY, AgentOp
from repro.negotiation.outcomes import TranscriptEvent
from repro.negotiation.tree import EdgeKind, PolicyEdge
from repro.policy.parser import parse_policy

POLICY = parse_policy("Resource <- A, B")


def _records():
    return [
        TranscriptEvent("policy", "alice", "request", "Resource"),
        PolicyEdge(0, 0, (1, 2), POLICY),
        AgentOp("alice", OP_STRATEGY),
    ]


class TestFields:
    @pytest.mark.parametrize("record_type, names", [
        (TranscriptEvent, ("phase", "actor", "action", "detail")),
        (PolicyEdge, ("edge_id", "parent", "children", "policy")),
        (AgentOp, ("party", "op", "args")),
    ])
    def test_names_and_order(self, record_type, names):
        assert record_type._fields == names

    def test_defaults(self):
        assert TranscriptEvent("policy", "alice", "request").detail == ""
        assert AgentOp("alice", OP_STRATEGY).args == ()


class TestValueSemantics:
    @pytest.mark.parametrize("record", _records())
    def test_fields_cannot_be_assigned(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], "mallory")

    @pytest.mark.parametrize("record", _records())
    def test_equal_records_hash_equal(self, record):
        twin = type(record)(*record)
        assert twin == record
        assert hash(twin) == hash(record)
        assert len({record, twin}) == 1

    def test_edge_kind(self):
        assert PolicyEdge(0, 0, (1,), POLICY).kind is EdgeKind.SIMPLE
        assert PolicyEdge(1, 0, (1, 2), POLICY).kind is EdgeKind.MULTI

    def test_repr(self):
        assert repr(TranscriptEvent("policy", "alice", "request")) == (
            "TranscriptEvent(phase='policy', actor='alice', "
            "action='request', detail='')"
        )
        assert repr(AgentOp("bob", OP_STRATEGY)) == (
            "AgentOp(party='bob', op='strategy', args=())"
        )
