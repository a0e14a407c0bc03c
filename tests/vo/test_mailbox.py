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
