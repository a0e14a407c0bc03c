"""Disclosure-policy rules.

Policies take one of two forms (paper Section 4.1):

1. ``R <- T1, T2, ..., Tn`` — the resource ``R`` is released once every
   term is satisfied by disclosed credentials;
2. ``R <- DELIV`` — a *delivery rule*: ``R`` can be released as is.

A resource may be protected by several alternative rules; satisfying
any one of them suffices (that disjunction is what multiedges in the
negotiation tree represent).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import PolicyError
from repro.policy.groups import GroupCondition
from repro.policy.terms import RTerm, Term

__all__ = ["DisclosurePolicy"]

_policy_ids = itertools.count(1)


def _next_policy_id() -> str:
    return f"pol-{next(_policy_ids)}"


@dataclass(frozen=True)
class DisclosurePolicy:
    """One disclosure rule for a resource."""

    target: RTerm
    terms: tuple[Term, ...] = ()
    deliver: bool = False
    policy_id: str = field(default_factory=_next_policy_id, compare=False)
    #: Transient policies are "specific to the VO", created on the fly
    #: before a negotiation (paper Section 5.1) and discarded after it.
    transient: bool = False
    #: Conditions over the *set* of credentials satisfying the policy
    #: (the paper's planned "group conditions" extension, §8).
    group_conditions: tuple[GroupCondition, ...] = ()

    def __post_init__(self) -> None:
        if self.deliver and self.terms:
            raise PolicyError(
                f"delivery rule for {self.target.name!r} must not carry terms"
            )
        if not self.deliver and not self.terms:
            raise PolicyError(
                f"policy for {self.target.name!r} needs terms or DELIV"
            )
        if self.deliver and self.group_conditions:
            raise PolicyError(
                f"delivery rule for {self.target.name!r} cannot carry "
                "group conditions"
            )

    @classmethod
    def delivery(cls, resource: str, transient: bool = False) -> "DisclosurePolicy":
        return cls(RTerm(resource), deliver=True, transient=transient)

    @classmethod
    def rule(
        cls, resource: str, *terms: Term, transient: bool = False
    ) -> "DisclosurePolicy":
        return cls(RTerm(resource), tuple(terms), transient=transient)

    @property
    def is_delivery(self) -> bool:
        return self.deliver

    def dsl(self) -> str:
        """Render back to the paper's rule notation."""
        return self._rendered

    @cached_property
    def _rendered(self) -> str:
        # Rendered once per policy object: policies are immutable and
        # shared by every negotiation that attaches them to a tree.
        if self.deliver:
            return f"{self.target.dsl()} <- DELIV"
        body = ", ".join(term.dsl() for term in self.terms)
        rendered = f"{self.target.dsl()} <- {body}"
        if self.group_conditions:
            group = ", ".join(cond.dsl() for cond in self.group_conditions)
            rendered += f" | group({group})"
        return rendered

    def __str__(self) -> str:
        return self.dsl()
