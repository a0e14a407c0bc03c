"""``Mailbox`` against a list-scan model of the same mailbox."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvitationError
from repro.vo.invitations import Invitation, InvitationStatus, Mailbox

_SLOTS = 5

_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["deliver", "accept", "decline", "withdraw", "mark_read", "find"]
        ),
        st.integers(0, _SLOTS - 1),
    ),
    max_size=40,
)


class _ListMailbox:
    """The reference: every lookup scans the whole delivery history."""

    def __init__(self) -> None:
        self.messages: list[Invitation] = []
        self.read: set[str] = set()

    def deliver(self, invitation: Invitation) -> None:
        if any(
            m.invitation_id == invitation.invitation_id for m in self.messages
        ):
            raise InvitationError("already delivered")
        self.messages.append(invitation)

    def unread(self) -> list[Invitation]:
        return [m for m in self.messages if m.invitation_id not in self.read]

    def pending(self) -> list[Invitation]:
        return [
            m for m in self.messages if m.status is InvitationStatus.PENDING
        ]

    def find(self, invitation_id: str):
        for message in self.messages:
            if message.invitation_id == invitation_id:
                return message
        return None


def _invitation(slot: int) -> Invitation:
    return Invitation(
        vo_name="VO", role_name=f"R{slot}", sender="Init",
        recipient="Member", terms="terms", invitation_id=f"inv-m{slot}",
    )


class TestMailboxMatchesListModel:
    @settings(max_examples=200, deadline=None)
    @given(ops=_OPS)
    def test_views_track_the_model(self, ops):
        invitations = [_invitation(slot) for slot in range(_SLOTS)]
        mailbox, model = Mailbox("Member"), _ListMailbox()
        for op, slot in ops:
            invitation = invitations[slot]
            if op == "deliver":
                duplicate = model.find(invitation.invitation_id) is not None
                if duplicate:
                    with pytest.raises(InvitationError):
                        mailbox.deliver(invitation)
                else:
                    mailbox.deliver(invitation)
                    model.deliver(invitation)
            elif op == "mark_read":
                mailbox.mark_read(invitation.invitation_id)
                model.read.add(invitation.invitation_id)
            elif op == "find":
                assert mailbox.find(invitation.invitation_id) is model.find(
                    invitation.invitation_id
                )
            elif invitation.status is InvitationStatus.PENDING:
                # Both sides hold the same object, so one transition
                # moves the model too.
                getattr(invitation, op)()
            assert mailbox.all() == model.messages
            assert len(mailbox) == len(model.messages)
            assert mailbox.unread() == model.unread()
            assert mailbox.pending() == model.pending()
            for other in invitations:
                assert mailbox.find(other.invitation_id) is model.find(
                    other.invitation_id
                )

    def test_second_delivery_of_an_id_is_rejected(self):
        mailbox = Mailbox("Member")
        invitation = _invitation(0)
        mailbox.deliver(invitation)
        with pytest.raises(InvitationError):
            mailbox.deliver(invitation)
        assert mailbox.all() == [invitation]


class TestDiscardAnswered:
    def _mailbox(self):
        mailbox = Mailbox("Member")
        invitations = {
            key: Invitation(
                vo_name=vo_name, role_name="R", sender="Init",
                recipient="Member", terms="terms " * 40,
                invitation_id=f"inv-d-{key}",
            )
            for key, vo_name in (
                ("accepted", "VO-1"), ("declined", "VO-1"),
                ("pending", "VO-1"), ("other", "VO-2"),
            )
        }
        for invitation in invitations.values():
            mailbox.deliver(invitation)
        mailbox.mark_read("inv-d-accepted")
        invitations["accepted"].accept()
        invitations["declined"].decline()
        invitations["other"].accept()
        return mailbox, invitations

    def test_answered_invitations_of_the_vo_go(self):
        mailbox, invitations = self._mailbox()
        mailbox.discard_answered("VO-1")
        assert mailbox.find("inv-d-accepted") is None
        assert mailbox.find("inv-d-declined") is None
        assert mailbox.all() == [invitations["pending"], invitations["other"]]
        assert mailbox.unread() == [invitations["pending"],
                                    invitations["other"]]

    def test_pending_and_other_vos_stay(self):
        mailbox, invitations = self._mailbox()
        mailbox.discard_answered("VO-1")
        assert mailbox.pending() == [invitations["pending"]]
        assert mailbox.find("inv-d-other") is invitations["other"]
        mailbox.discard_answered("VO-1")
        assert len(mailbox) == 2


def test_dissolution_empties_members_mailboxes_of_the_vo():
    from repro.scenario.workloads import formation_workload

    fixture = formation_workload(2)
    edition = fixture.initiator_edition
    vo = edition.create_vo(fixture.contract)
    service = edition.enable_trust_negotiation()
    try:
        edition.execute_formation(fixture.plans(),
                                  at=fixture.contract.created_at)
        members = [app.member for app in fixture.member_apps.values()]
        assert all(len(member.mailbox) == 1 for member in members)
        # An invitation to another VO, still unanswered at dissolution.
        pending = Invitation(
            vo_name="Later-VO", role_name="Role-00", sender="Init",
            recipient=members[0].name, terms="terms",
        )
        members[0].mailbox.deliver(pending)
        vo.begin_operation()
        vo.dissolve()
    finally:
        service.close()
    assert members[0].mailbox.all() == [pending]
    assert members[0].mailbox.pending() == [pending]
    assert len(members[1].mailbox) == 0
