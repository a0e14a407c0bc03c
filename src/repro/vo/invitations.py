"""Invitations and mailboxes.

"The VO Initiator then sends them an invitation to join the VO
containing the terms of the contract they have to fulfill"
(Section 2); "Invitations appear in the Mailbox of the new potential
members.  The message contains the text entered in the invitation
screen" (Section 6.1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.errors import InvitationError

__all__ = ["InvitationStatus", "Invitation", "Mailbox"]

_invitation_ids = itertools.count(1)


class InvitationStatus(Enum):
    PENDING = "pending"
    ACCEPTED = "accepted"
    DECLINED = "declined"
    WITHDRAWN = "withdrawn"


@dataclass
class Invitation:
    """One invitation to join a VO in a given role."""

    vo_name: str
    role_name: str
    sender: str
    recipient: str
    terms: str
    invitation_id: str = field(
        default_factory=lambda: f"inv-{next(_invitation_ids)}"
    )
    status: InvitationStatus = InvitationStatus.PENDING

    def _transition(self, to: InvitationStatus) -> None:
        if self.status is not InvitationStatus.PENDING:
            raise InvitationError(
                f"invitation {self.invitation_id} is already "
                f"{self.status.value}"
            )
        self.status = to

    def accept(self) -> None:
        self._transition(InvitationStatus.ACCEPTED)

    def decline(self) -> None:
        self._transition(InvitationStatus.DECLINED)

    def withdraw(self) -> None:
        self._transition(InvitationStatus.WITHDRAWN)


@dataclass
class Mailbox:
    """A member's invitation mailbox.

    Messages are keyed by ``invitation_id`` in delivery order.  The
    unread and pending indexes only shrink, so a lookup costs what the
    mailbox still holds open, not its whole history: an invitation that
    leaves ``PENDING`` never returns to it.  The history itself ends at
    dissolution, when :meth:`discard_answered` drops the dissolved VO's
    answered invitations.
    """

    owner: str
    _messages: dict[str, Invitation] = field(default_factory=dict)
    _unread: dict[str, Invitation] = field(default_factory=dict)
    _pending: dict[str, Invitation] = field(default_factory=dict)
    _read: set[str] = field(default_factory=set)

    def deliver(self, invitation: Invitation) -> None:
        if invitation.recipient != self.owner:
            raise InvitationError(
                f"invitation for {invitation.recipient!r} delivered to "
                f"{self.owner!r}'s mailbox"
            )
        invitation_id = invitation.invitation_id
        if invitation_id in self._messages:
            raise InvitationError(
                f"invitation {invitation_id} is already in "
                f"{self.owner!r}'s mailbox"
            )
        self._messages[invitation_id] = invitation
        if invitation_id not in self._read:
            self._unread[invitation_id] = invitation
        self._pending[invitation_id] = invitation

    def unread(self) -> list[Invitation]:
        return list(self._unread.values())

    def mark_read(self, invitation_id: str) -> None:
        self._read.add(invitation_id)
        self._unread.pop(invitation_id, None)

    def all(self) -> list[Invitation]:
        return list(self._messages.values())

    def pending(self) -> list[Invitation]:
        self._pending = {
            invitation_id: message
            for invitation_id, message in self._pending.items()
            if message.status is InvitationStatus.PENDING
        }
        return list(self._pending.values())

    def find(self, invitation_id: str) -> Optional[Invitation]:
        return self._messages.get(invitation_id)

    def discard_answered(self, vo_name: str) -> None:
        """Drop every invitation to ``vo_name`` that is no longer
        pending.

        Called when the VO dissolves: what a member keeps of a finished
        VO is its participation ticket, not the invitation (and its
        terms text) that led there.  Pending invitations stay.
        """
        answered = [
            invitation_id
            for invitation_id, message in self._messages.items()
            if message.vo_name == vo_name
            and message.status is not InvitationStatus.PENDING
        ]
        for invitation_id in answered:
            del self._messages[invitation_id]
            self._unread.pop(invitation_id, None)
            self._pending.pop(invitation_id, None)
            self._read.discard(invitation_id)

    def __len__(self) -> int:
        return len(self._messages)
