"""The per-party Trust-X agent.

An agent bundles everything one negotiation party owns privately: its
X-Profile, its disclosure-policy base, its key pair, its credential
validator (trusted keyring + revocation registry), its ontology-backed
concept mapper, and its negotiation strategy.  The engine never touches
a party's private state directly — it calls the decision methods here,
which is what keeps requester and controller symmetric ("acceptance in
TN is mutual", paper Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import TYPE_CHECKING, Optional

from repro.credentials.credential import Credential
from repro.credentials.profile import XProfile
from repro.credentials.validation import CredentialValidator, OwnershipProof
from repro.crypto.keys import KeyPair
from repro.errors import NegotiationError, StrategyError
from repro.negotiation.messages import Disclosure
from repro.negotiation.strategies import Strategy
from repro.policy.compliance import ComplianceChecker
from repro.policy.conditions import (
    AnyAttributeCondition,
    AttributeCondition,
    XPathCondition,
)
from repro.policy.policybase import PolicyBase
from repro.policy.rules import DisclosurePolicy
from repro.policy.terms import Term, TermKind

if TYPE_CHECKING:
    from repro.credentials.selective import SelectiveCredential
    from repro.ontology.mapping import ConceptMapper

__all__ = ["TrustXAgent"]


@dataclass
class TrustXAgent:
    """One party of a trust negotiation."""

    name: str
    profile: XProfile
    policies: PolicyBase
    keypair: KeyPair
    validator: CredentialValidator
    strategy: Strategy = Strategy.STANDARD
    mapper: Optional[ConceptMapper] = None
    #: Selective-disclosure forms of the party's credentials, keyed by
    #: credential id; required by the suspicious strategies.
    selective: dict[str, SelectiveCredential] = field(default_factory=dict)

    def __post_init__(self) -> None:
        resolver = self.mapper.resolver() if self.mapper is not None else None
        self.compliance = ComplianceChecker(concept_resolver=resolver)
        # abstract_policy memo: keyed by id(policy) with the policy kept
        # in the value so the id cannot be recycled while the entry
        # lives.  Policies are frozen, and the rewrite depends only on
        # the policy and the (append-only) ontology, so entries never go
        # stale within an agent's lifetime.
        self._abstract_memo: dict[int, tuple[DisclosurePolicy,
                                             DisclosurePolicy]] = {}

    # -- profile-side decisions ------------------------------------------------

    def candidates_for(self, term: Term) -> list[Credential]:
        """Local credentials able to satisfy ``term``, preferred first.

        A credential term whose type has no direct match falls back to
        ontology resolution: "the local trust negotiation agent ...
        maps the request into [the] local credential that is associated
        with the concept expressed by the counterpart policy"
        (Section 5.1).
        """
        direct = self.compliance.candidates(term, self.profile)
        if direct or self.mapper is None or term.kind is not TermKind.CREDENTIAL:
            return direct
        mapped = self.mapper.candidates(term.name, self.profile)
        return [cred for cred in mapped if term.conditions_hold(cred)]

    def policies_protecting(self, resource: str) -> list[DisclosurePolicy]:
        """Alternative local policies protecting ``resource``."""
        policies = self.policies.policies_for(resource)
        if self.strategy.hides_policies:
            policies = [self.abstract_policy(policy) for policy in policies]
        return policies

    def releases_freely(self, resource: str) -> bool:
        """True when ``resource`` needs no counter-requirements."""
        return (
            self.policies.is_freely_deliverable(resource)
            or self.policies.is_unprotected(resource)
        )

    # -- policy abstraction (strong suspicious, §4.3.1) -------------------------

    def abstract_policy(self, policy: DisclosurePolicy) -> DisclosurePolicy:
        """Rewrite credential terms as concept terms via the ontology.

        "The disclosure policies can be abstracted by executing a
        substitution operation of sensitive credentials names into the
        associated concepts names, which are more generic and disclose
        less information."  Terms without a covering concept are sent
        unchanged.
        """
        if self.mapper is None or policy.is_delivery:
            return policy
        memo = self._abstract_memo.get(id(policy))
        if memo is not None and memo[0] is policy:
            return memo[1]
        ontology = self.mapper.ontology
        rewritten = []
        for term in policy.terms:
            if term.kind is not TermKind.CREDENTIAL:
                rewritten.append(term)
                continue
            concept_name = None
            for concept in sorted(ontology, key=lambda c: c.name):
                if term.name in concept.credential_types():
                    concept_name = concept.name
                    break
            if concept_name is None:
                rewritten.append(term)
            else:
                rewritten.append(
                    Term(TermKind.CONCEPT, concept_name, term.conditions)
                )
        abstracted = DisclosurePolicy(
            policy.target,
            tuple(rewritten),
            transient=policy.transient,
            group_conditions=policy.group_conditions,
        )
        self._abstract_memo[id(policy)] = (policy, abstracted)
        return abstracted

    # -- disclosure construction -------------------------------------------------

    def _needed_attributes(
        self, term: Optional[Term], credential: Credential
    ) -> Optional[set[str]]:
        """Attributes a selective presentation must reveal for ``term``.

        Returns None when full disclosure is unavoidable (e.g. raw
        XPath conditions, whose attribute references are opaque).

        Beyond the attributes the term's conditions reference, a
        disclosure that relies on ontology bridging (the term names a
        concept, or a credential type different from ours) must also
        reveal the *binding* attributes — the receiver accepts the
        credential by checking that it implements the requested
        concept, which requires those attributes to be visible.
        """
        if term is None:
            return set()
        needed: set[str] = set()
        direct_type_match = (
            term.kind is TermKind.CREDENTIAL
            and term.name == credential.cred_type
        )
        if not direct_type_match:
            bridged = self._binding_attributes(term.name, credential)
            if bridged is None:
                return None  # cannot prove the bridge selectively
            needed |= bridged
        for condition in term.conditions:
            if isinstance(condition, AttributeCondition):
                needed.add(condition.attribute)
            elif isinstance(condition, AnyAttributeCondition):
                matching = [
                    attr.name
                    for attr in credential.attributes
                    if attr.xml_text == condition.value
                ]
                if not matching:
                    return None
                needed.add(matching[0])
            elif isinstance(condition, XPathCondition):
                return None
        return needed

    def _binding_attributes(
        self, requested: str, credential: Credential
    ) -> Optional[set[str]]:
        """Attributes the receiver needs to see to accept this
        credential as conveying ``requested`` (a concept name or a
        foreign credential type).  None when no binding explains the
        bridge (full disclosure is then the only option)."""
        if self.mapper is None:
            return None
        ontology = self.mapper.ontology
        relevant: list = []
        if requested in ontology:
            relevant.extend(ontology.conveying(requested))
        for concept in ontology:
            if requested in concept.credential_types():
                relevant.append(concept)
        attributes: set[str] = set()
        matched = False
        for concept in relevant:
            for binding in concept.bindings:
                if binding.cred_type != credential.cred_type:
                    continue
                matched = True
                if binding.attribute is not None:
                    attributes.add(binding.attribute)
        if not matched:
            return None
        return attributes

    def make_disclosure(
        self,
        node_id: int,
        credential: Credential,
        term: Optional[Term],
        nonce: Optional[str],
    ) -> Disclosure:
        """Build the Disclosure message for one trust-sequence step."""
        proof = (
            OwnershipProof.respond(nonce, self.keypair.private)
            if nonce is not None
            else None
        )
        if not self.strategy.minimal_disclosure:
            return Disclosure(
                sender=self.name,
                node_id=node_id,
                credential=credential,
                proof=proof,
            )
        selective = self.selective.get(credential.cred_id)
        self.strategy.require_partial_hiding_support(selective is not None)
        needed = self._needed_attributes(term, credential)
        if needed is None:
            names = selective.attribute_names()
        else:
            names = sorted(needed)
        return Disclosure(
            sender=self.name,
            node_id=node_id,
            presentation=selective.present(names),
            proof=proof,
        )

    # -- disclosure verification ----------------------------------------------------

    def term_accepts(self, term: Optional[Term], credential: Credential) -> bool:
        """Does ``credential`` satisfy the requirement I stated as ``term``?

        A concrete credential term accepts a matching type directly, or
        — when this party has an ontology — any credential that conveys
        a concept bound to the requested type (bridging naming gaps,
        Section 4.3).
        """
        if term is None:
            return True
        if term.kind is TermKind.VARIABLE:
            return term.conditions_hold(credential)
        if term.kind is TermKind.CREDENTIAL:
            if credential.cred_type == term.name:
                return term.conditions_hold(credential)
            return (
                self._concept_covers(term.name, credential)
                and term.conditions_hold(credential)
            )
        # Concept term
        return (
            self._concept_covers(term.name, credential)
            and term.conditions_hold(credential)
        )

    def _concept_covers(self, name: str, credential: Credential) -> bool:
        if self.mapper is None:
            return False
        ontology = self.mapper.ontology
        if name in ontology:
            return any(
                concept.implemented_by(credential)
                for concept in ontology.conveying(name)
            )
        # The name may itself be a credential type some concept binds;
        # accept when both the requested type and the received
        # credential implement a common concept.
        for concept in ontology:
            if name in concept.credential_types() and concept.implemented_by(
                credential
            ):
                return True
        return False

    def verify_disclosure(
        self,
        disclosure: Disclosure,
        term: Optional[Term],
        at: datetime,
        expected_nonce: Optional[str],
    ) -> tuple[bool, str, Optional[Credential]]:
        """Full verification of a received disclosure.

        Returns ``(accepted, reason, effective_credential)``; the
        reason explains a rejection and the effective credential is
        what the receiver learned (the full credential, or a shadow
        credential holding just the attributes a selective presentation
        revealed) — the material group conditions are evaluated over.
        Mirrors Section 4.2: signature, revocation, validity dates,
        ownership, then the policy conditions.
        """
        if disclosure.credential is not None:
            credential = disclosure.credential
            report = self.validator.validate(
                credential, at, disclosure.proof, expected_nonce
            )
            if not report.ok:
                return False, self._report_reason(report), None
            if not self.term_accepts(term, credential):
                return False, (
                    f"credential {credential.cred_type!r} does not satisfy "
                    f"the requested term"
                ), None
            return True, "ok", credential

        presentation = disclosure.presentation
        selective = presentation.credential
        if not self.validator.keyring.trusts(selective.issuer):
            return False, f"issuer {selective.issuer!r} is not trusted", None
        try:
            revealed = presentation.verify(
                self.validator.keyring.get(selective.issuer)
            )
        except Exception as exc:
            return False, f"presentation verification failed: {exc}", None
        if not selective.validity.contains(at):
            return False, "credential is outside its validity window", None
        if self.validator.revocations.is_revoked(
            selective.issuer, selective.serial
        ):
            return False, "credential was revoked", None
        if disclosure.proof is not None:
            nonce_fresh = (
                expected_nonce is None
                or disclosure.proof.nonce == expected_nonce
            )
            if not nonce_fresh or not disclosure.proof.check(
                selective.subject_key
            ):
                return False, "ownership proof failed", None
        shadow = Credential.build(
            cred_type=selective.cred_type,
            cred_id=selective.cred_id,
            issuer=selective.issuer,
            subject=selective.subject,
            subject_key=selective.subject_key,
            validity=selective.validity,
            attributes={
                name: value.value for name, value in revealed.items()
            },
            serial=selective.serial,
        )
        if not self.term_accepts(term, shadow):
            return False, (
                f"presentation of {selective.cred_type!r} does not satisfy "
                f"the requested term"
            ), None
        return True, "ok", shadow

    def ensure_disclosure_not_revoked(self, credential: Credential) -> None:
        """Re-check revocation for a credential this party already
        accepted in the current negotiation.

        Called by the negotiation core and by sequence-cache replay
        when the process-wide trust epoch
        (:func:`repro.trust.trust_epoch`) advanced since the disclosure
        was verified — a retraction somewhere may have
        invalidated what the signature cache no longer remembers.
        Raises :class:`~repro.errors.CredentialRevokedError` when the
        credential is now on its issuer's revocation list.
        """
        self.validator.revocations.ensure_not_revoked(
            credential.issuer, credential.serial
        )

    @staticmethod
    def _report_reason(report) -> str:
        if not report.signature_ok:
            return "signature check failed"
        if not report.within_validity:
            return "credential is outside its validity window"
        if not report.not_revoked:
            return "credential was revoked"
        return "ownership proof failed"

    # -- selective-disclosure management -------------------------------------------

    def add_selective(self, selective: SelectiveCredential) -> None:
        """Register the selective form of one of this party's credentials."""
        if selective.cred_id not in self.profile:
            raise NegotiationError(
                f"no credential {selective.cred_id!r} in {self.name!r}'s "
                "profile to attach a selective form to"
            )
        self.selective[selective.cred_id] = selective

    def ensure_strategy_supported(self) -> None:
        """Fail fast when a suspicious strategy lacks selective forms."""
        if not self.strategy.minimal_disclosure:
            return
        if not self.selective and len(self.profile) > 0:
            raise StrategyError(
                f"{self.name!r} selected {self.strategy.value!r} but holds "
                "no selective-disclosure credentials (X.509-style full-"
                "disclosure material cannot be partially hidden)"
            )
