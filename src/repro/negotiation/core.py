"""The sans-IO core of the Trust-X negotiation protocol.

:class:`NegotiationCore` is a pure state machine: it owns the
negotiation tree, the transcript, and the message accounting, but it
never holds an agent reference, never performs crypto, and never
blocks.  Every decision that requires a party's private state (which
credentials satisfy a term, which policies protect a resource, whether
a disclosure verifies) is *requested* from the driver as an
:class:`AgentOp` effect: :meth:`NegotiationCore.run` is a generator
that yields effects and receives their results via ``send()``, finally
returning the :class:`~repro.negotiation.outcomes.NegotiationResult`.

The :class:`~repro.negotiation.engine.NegotiationEngine` drives it
with :func:`drive`, fulfilling each effect inline.

Protocol errors raised while fulfilling an effect are delivered back
with ``generator.throw()`` so the core can convert the
:class:`~repro.errors.StrategyError` cases into failure results at
exactly the points the protocol defines, and so any other exception
unwinds the core's open observability spans before propagating.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from datetime import datetime
from typing import Any, Generator, NamedTuple, Optional

from repro.errors import CredentialRevokedError, StrategyError
from repro.obs import (
    count as obs_count,
    enabled as obs_enabled,
    event as obs_event,
    observe as obs_observe,
    span as obs_span,
)
from repro.negotiation.outcomes import (
    FailureReason,
    NegotiationResult,
    TranscriptEvent,
)
from repro.negotiation.sequence import TrustSequence
from repro.negotiation.tree import NegotiationTree, NodeStatus, TreeNode, View
from repro.trust import trust_epoch

__all__ = [
    "AgentOp",
    "NegotiationCore",
    "DEFAULT_NEGOTIATION_TIME",
    "perform_agent_op",
    "drive",
    "record_outcome_obs",
    "OP_ENSURE_STRATEGY",
    "OP_STRATEGY",
    "OP_RELEASES_FREELY",
    "OP_POLICIES_PROTECTING",
    "OP_CANDIDATES_FOR",
    "OP_PROFILE_GET",
    "OP_ISSUE_CHALLENGE",
    "OP_MAKE_DISCLOSURE",
    "OP_VERIFY_DISCLOSURE",
    "OP_ENSURE_NOT_REVOKED",
]

#: Deterministic default negotiation timestamp (paper-era).
DEFAULT_NEGOTIATION_TIME = datetime(2010, 3, 1, 12, 0, 0)

# The effect vocabulary.  Every op except the three resolved against
# agent sub-objects maps 1:1 onto a TrustXAgent method of the same name.
OP_ENSURE_STRATEGY = "ensure_strategy_supported"
OP_STRATEGY = "strategy"
OP_RELEASES_FREELY = "releases_freely"
OP_POLICIES_PROTECTING = "policies_protecting"
OP_CANDIDATES_FOR = "candidates_for"
OP_PROFILE_GET = "profile_get"
OP_ISSUE_CHALLENGE = "issue_challenge"
OP_MAKE_DISCLOSURE = "make_disclosure"
OP_VERIFY_DISCLOSURE = "verify_disclosure"
OP_ENSURE_NOT_REVOKED = "ensure_disclosure_not_revoked"


class AgentOp(NamedTuple):
    """One effect the core asks its driver to fulfil.

    ``party`` names the agent that must act; ``op`` is one of the
    ``OP_*`` constants; ``args`` are the call arguments.  The driver
    answers with the operation's return value (``generator.send``) or
    delivers the exception it raised (``generator.throw``).
    """

    party: str
    op: str
    args: tuple = ()


def perform_agent_op(agents: dict, op: AgentOp) -> Any:
    """Fulfil one :class:`AgentOp` against in-process agents.

    Shared by every driver so the effect vocabulary is interpreted
    identically everywhere.
    """
    agent = agents.get(op.party)
    if agent is None:
        raise StrategyError(f"unknown party {op.party!r}")
    if op.op == OP_STRATEGY:
        return agent.strategy
    if op.op == OP_PROFILE_GET:
        return agent.profile.get(op.args[0])
    if op.op == OP_ISSUE_CHALLENGE:
        return agent.validator.issue_challenge()
    return getattr(agent, op.op)(*op.args)


def drive(
    gen: Generator[AgentOp, Any, NegotiationResult], agents: dict
) -> NegotiationResult:
    """Run a core generator to completion, fulfilling effects inline."""
    reply: Any = None
    exc: Optional[BaseException] = None
    while True:
        try:
            effect = gen.throw(exc) if exc is not None else gen.send(reply)
        except StopIteration as stop:
            return stop.value
        reply, exc = None, None
        try:
            reply = perform_agent_op(agents, effect)
        except Exception as error:
            exc = error


def record_outcome_obs(resource: str, result: NegotiationResult) -> None:
    """Record the per-negotiation counters every driver shares."""
    obs_count("negotiation.runs")
    obs_count(
        "negotiation.successes" if result.success
        else "negotiation.failures"
    )
    obs_observe("negotiation.policy_messages", result.policy_messages)
    obs_observe("negotiation.exchange_messages", result.exchange_messages)
    obs_observe("negotiation.disclosures", result.disclosures)
    if result.tree is not None:
        obs_observe("negotiation.tree_nodes", len(result.tree))
        obs_observe("negotiation.tree_depth", result.tree.depth)
    if not result.success:
        obs_event(
            "negotiation.failure",
            resource=resource,
            reason=(
                result.failure_reason.value
                if result.failure_reason else ""
            ),
            detail=result.failure_detail,
        )


@dataclass
class NegotiationCore:
    """The protocol state machine for one negotiation.

    Parties are identified by *name* only; the driver resolves names to
    agents when fulfilling effects.  Per-run state (tree, transcript,
    selected view) is rebuilt by :meth:`run` or :meth:`replay` and
    stays readable afterwards for introspection.
    """

    requester: str
    controller: str
    max_depth: int = 16
    max_nodes: int = 512
    view_limit: int = 64
    view_selection: str = "first"

    # Per-run state, rebuilt by run() and replay() (which has no tree).
    tree: Optional[NegotiationTree] = field(
        init=False, repr=False, default=None
    )
    transcript: list = field(init=False, repr=False, default_factory=list)
    #: Credential behind each edge a term node was expanded through.
    _edge_credentials: dict[int, str] = field(
        init=False, repr=False, default_factory=dict
    )
    #: Per node: the credential of its first satisfiable edge.
    _fallback_credentials: dict[int, str] = field(
        init=False, repr=False, default_factory=dict
    )
    #: Each party's strategy, fetched once per run.
    _strategies: dict[str, Any] = field(
        init=False, repr=False, default_factory=dict
    )
    #: The view the exchange phase follows.
    _view: Optional[View] = field(init=False, repr=False, default=None)

    def _counterpart(self, party: str) -> str:
        return self.controller if party == self.requester else self.requester

    def _log(self, phase: str, actor: str, action: str, detail: str = "") -> None:
        self.transcript.append(TranscriptEvent(phase, actor, action, detail))

    # ------------------------------------------------------------------ run --

    def run(
        self, resource: str, at: Optional[datetime] = None
    ) -> Generator[AgentOp, Any, NegotiationResult]:
        """Negotiate the release of ``resource`` held by the controller.

        A generator: yields :class:`AgentOp` effects, returns the
        :class:`NegotiationResult` via ``StopIteration.value``.
        """
        at = at or DEFAULT_NEGOTIATION_TIME
        self.tree = NegotiationTree(resource, self.controller)
        self._edge_credentials = {}
        self._fallback_credentials = {}
        self.transcript = []
        self._strategies = {}
        self._view = None
        if self.requester == self.controller:
            return self._failure(
                resource, FailureReason.PROTOCOL,
                "requester and controller must be distinct parties", 0,
            )

        try:
            yield AgentOp(self.requester, OP_ENSURE_STRATEGY)
            yield AgentOp(self.controller, OP_ENSURE_STRATEGY)
        except StrategyError as exc:
            return self._failure(
                resource, FailureReason.STRATEGY_VIOLATION, str(exc), 0
            )
        # Strategies are fixed for the duration of one negotiation;
        # fetching them once up front keeps the core's later reads
        # consistent even if a driver swaps agent strategies between
        # interleaved runs (the asyncio service clones instead, but the
        # core should not depend on that).
        self._strategies[self.requester] = (
            yield AgentOp(self.requester, OP_STRATEGY)
        )
        self._strategies[self.controller] = (
            yield AgentOp(self.controller, OP_STRATEGY)
        )

        policy_messages, budget_hit = yield from self._policy_phase(resource)
        with obs_span("tn.tree_propagate") as propagate_span:
            satisfiable = self.tree.propagate()
            propagate_span.set(
                nodes=len(self.tree), satisfiable=satisfiable
            )
        if not satisfiable:
            reason = (
                FailureReason.BUDGET_EXHAUSTED
                if budget_hit
                else FailureReason.NO_TRUST_SEQUENCE
            )
            return self._failure(
                resource,
                reason,
                "no satisfiable view of the negotiation tree",
                policy_messages,
            )

        # Statuses are final once propagate() returns, so the per-node
        # fallback credential (first satisfiable edge carrying one) is
        # computed once here for every view enumerated below.
        self._build_fallback_credentials()

        with obs_span(
            "tn.view_selection", mode=self.view_selection
        ) as view_span:
            view = yield from self._select_view()
            self._view = view
            sequence = TrustSequence.from_view(
                view, lambda node: self._credential_in_view(view, node)
            )
            view_span.set(steps=len(sequence))
        self._log(
            "policy",
            self.controller,
            "trust-sequence",
            f"{len(sequence)} steps",
        )

        both_eager = (
            self._strategies[self.requester].eager_disclosure
            and self._strategies[self.controller].eager_disclosure
        )
        if not both_eager:
            # SequenceProposal + SequenceAccept handshake.
            policy_messages += 2
            self._log("policy", self.controller, "sequence-proposal")
            self._log("policy", self.requester, "sequence-accept")

        return (yield from self._exchange_phase(
            resource, sequence, at, policy_messages
        ))

    def replay(
        self,
        resource: str,
        sequence: TrustSequence,
        at: Optional[datetime] = None,
    ) -> Generator[AgentOp, Any, NegotiationResult]:
        """Replay a cached trust sequence: the exchange phase alone.

        The policy phase is skipped, but every step is re-challenged,
        re-verified and rechecked for revocation exactly as in
        :meth:`run`.  There is no tree or view, so the result carries
        ``tree=None`` and an empty ``sequence``.
        """
        at = at or DEFAULT_NEGOTIATION_TIME
        self.tree = None
        self.transcript = []
        self._view = None
        self._strategies = {}
        for party in (self.requester, self.controller):
            self._strategies[party] = yield AgentOp(party, OP_STRATEGY)
        self._log("exchange", self.requester, "cache-replay", resource)
        return (yield from self._exchange_phase(resource, sequence, at, 0))

    # --------------------------------------------------- policy evaluation --

    def _policy_phase(self, resource: str):
        """Grow the tree; returns (policy message count, budget hit).

        Observability: the whole phase is one ``tn.policy_phase`` span;
        each breadth-first *round* (one tree depth level) nests a
        ``tn.tree_round`` span recording how far the tree grew.
        """
        messages = 1  # the opening ResourceRequest
        self._log(
            "policy", self.requester, "request", resource
        )
        budget_hit = False
        queue: deque[int] = deque([self.tree.root_id])
        round_span = None
        round_depth: Optional[int] = None
        with obs_span("tn.policy_phase", resource=resource) as phase_span:
            try:
                while queue:
                    node = self.tree.node(queue.popleft())
                    owner = node.owner
                    other = self._counterpart(owner)
                    if obs_enabled() and node.depth != round_depth:
                        if round_span is not None:
                            round_span.set(nodes=len(self.tree))
                            round_span.__exit__(None, None, None)
                        round_depth = node.depth
                        round_span = obs_span(
                            "tn.tree_round", depth=node.depth
                        )
                        round_span.__enter__()
                    if node.depth >= self.max_depth \
                            or len(self.tree) > self.max_nodes:
                        node.status = NodeStatus.UNSATISFIABLE
                        budget_hit = True
                        self._log(
                            "policy", owner, "budget-cutoff", node.label
                        )
                        continue
                    if node.is_root:
                        messages += yield from self._expand_root(
                            node, owner, other, queue
                        )
                    else:
                        messages += yield from self._expand_term(
                            node, owner, other, queue
                        )
            finally:
                if round_span is not None:
                    round_span.set(nodes=len(self.tree))
                    round_span.__exit__(None, None, None)
            phase_span.set(
                messages=messages, budget_hit=budget_hit,
                nodes=len(self.tree),
            )
        return messages, budget_hit

    def _expand_root(
        self,
        node: TreeNode,
        owner: str,
        other: str,
        queue: deque[int],
    ):
        if (yield AgentOp(owner, OP_RELEASES_FREELY, (node.label,))):
            node.status = NodeStatus.DELIVERABLE
            self._log("policy", owner, "deliverable", node.label)
            return 0
        policies = yield AgentOp(
            owner, OP_POLICIES_PROTECTING, (node.label,)
        )
        return self._attach_policies(node, owner, other, policies, queue)

    def _expand_term(
        self,
        node: TreeNode,
        owner: str,
        other: str,
        queue: deque[int],
    ):
        candidates = yield AgentOp(owner, OP_CANDIDATES_FOR, (node.term,))
        if not candidates:
            node.status = NodeStatus.UNSATISFIABLE
            self._log("policy", owner, "not-possess", node.label)
            return 1  # the NotPossess notice
        # Prefer a candidate the owner can release freely.
        for credential in candidates:
            if (yield AgentOp(
                owner, OP_RELEASES_FREELY, (credential.cred_type,)
            )):
                node.status = NodeStatus.DELIVERABLE
                node.credential_id = credential.cred_id
                self._log(
                    "policy", owner, "deliverable", credential.cred_type
                )
                return 0
        # Otherwise expand the policies of each distinct candidate type.
        messages = 0
        seen_types: set[str] = set()
        for credential in candidates:
            if credential.cred_type in seen_types:
                continue
            seen_types.add(credential.cred_type)
            policies = yield AgentOp(
                owner, OP_POLICIES_PROTECTING, (credential.cred_type,)
            )
            messages += self._attach_policies(
                node, owner, other, policies, queue, credential.cred_id
            )
        if not self.tree.edges_from(node.node_id):
            node.status = NodeStatus.UNSATISFIABLE
        return messages

    def _attach_policies(
        self,
        node: TreeNode,
        owner: str,
        other: str,
        policies,
        queue: deque[int],
        credential_id: Optional[str] = None,
    ) -> int:
        """Add one edge per alternative policy; returns message cost.

        A strong-suspicious owner sends alternatives one message at a
        time; everyone else bundles them in a single PolicyMessage.
        """
        expandable = [policy for policy in policies if not policy.is_delivery]
        if not expandable:
            return 0
        path = self.tree.path_labels(node.node_id)
        for policy in expandable:
            edge = self.tree.add_policy_edge(node.node_id, policy, other)
            if credential_id is not None:
                self._edge_credentials[edge.edge_id] = credential_id
            self._log(
                "policy", owner, "policy", policy.dsl()
            )
            for child_id in edge.children:
                child = self.tree.node(child_id)
                if f"{other}:{child.label}" in path:
                    # Cyclic requirement: requesting again what is
                    # already pending on this path cannot progress.
                    child.status = NodeStatus.UNSATISFIABLE
                    self._log(
                        "policy", other, "cycle-pruned", child.label
                    )
                else:
                    queue.append(child_id)
        if self._strategies[owner].hides_policies:
            return len(expandable)
        return 1

    def _build_fallback_credentials(self) -> None:
        """Precompute, for every node satisfied through an edge, the
        credential of its first satisfiable edge in insertion order,
        read from the tree's record of satisfiable edges."""
        self._fallback_credentials = {}
        if not self._edge_credentials:
            return
        for node in self.tree.nodes():
            if node.is_root or node.credential_id is not None:
                continue
            for edge in self.tree.satisfiable_edges(node.node_id):
                credential_id = self._edge_credentials.get(edge.edge_id)
                if credential_id is not None:
                    self._fallback_credentials[node.node_id] = credential_id
                    break

    def _credential_for(self, node: TreeNode) -> Optional[str]:
        if node.is_root:
            return node.credential_id  # usually None: grant, not disclosure
        if node.credential_id is not None:
            return node.credential_id
        # Satisfied through an edge: the credential tied to that edge.
        return self._fallback_credentials.get(node.node_id)

    def _credential_in_view(self, view, node: TreeNode) -> Optional[str]:
        """Like :meth:`_credential_for`, but honouring the view's own
        edge choices (different views may satisfy a node through
        different candidate credentials)."""
        if node.is_root:
            return node.credential_id
        if node.credential_id is not None:
            return node.credential_id
        edge_id = view.chosen_edges.get(node.node_id)
        if edge_id is not None:
            credential_id = self._edge_credentials.get(edge_id)
            if credential_id is not None:
                return credential_id
        return self._credential_for(node)

    def _view_cost(self, view):
        """(disclosure count, summed sensitivity) of a view."""
        disclosures = 0
        sensitivity = 0
        for node in view.disclosure_order():
            if node.is_root:
                continue
            credential_id = self._credential_in_view(view, node)
            if credential_id is None:
                continue
            credential = yield AgentOp(
                node.owner, OP_PROFILE_GET, (credential_id,)
            )
            disclosures += 1
            sensitivity += int(credential.sensitivity)
        return disclosures, sensitivity

    def _select_view(self):
        if self.view_selection == "first":
            return self.tree.first_view()
        if self.view_selection not in ("min_disclosure", "min_sensitivity"):
            raise StrategyError(
                f"unknown view selection {self.view_selection!r}"
            )
        best = None
        best_cost = None
        for view in self.tree.iter_views(limit=self.view_limit):
            disclosures, sensitivity = yield from self._view_cost(view)
            cost = (
                (disclosures, sensitivity)
                if self.view_selection == "min_disclosure"
                else (sensitivity, disclosures)
            )
            if best_cost is None or cost < best_cost:
                best, best_cost = view, cost
        if best is None:  # pragma: no cover - propagate() guards this
            return self.tree.first_view()
        self._log(
            "policy", self.controller, "view-selected",
            f"{self.view_selection}: cost={best_cost}",
        )
        return best

    # -------------------------------------------------- credential exchange --

    def _exchange_phase(
        self,
        resource: str,
        sequence: TrustSequence,
        at: datetime,
        policy_messages: int,
    ):
        with obs_span(
            "tn.exchange_phase", steps=len(sequence)
        ) as exchange_span:
            return (yield from self._exchange_steps(
                resource, sequence, at, policy_messages, exchange_span
            ))

    def _recheck_retractions(self, epoch: int, accepted):
        """Re-verify accepted credentials when the trust epoch advanced.

        ``accepted`` holds ``(receiver, effective credential)`` for
        every disclosure verified so far this negotiation.  When
        :func:`repro.trust.trust_epoch` still equals ``epoch`` nothing
        was retracted anywhere in the process and the check is one
        integer compare; when it advanced, each receiver re-checks the
        credentials it accepted against its (now updated) revocation
        registry — the driver delivers the resulting
        :class:`~repro.errors.CredentialRevokedError` back into the
        core.  Returns the epoch the recheck is current as of.
        """
        current = trust_epoch()
        if current == epoch:
            return epoch
        obs_count("negotiation.revocation_rechecks")
        self._log(
            "exchange", self.controller, "revocation-recheck",
            f"trust epoch {epoch} -> {current}: "
            f"{len(accepted)} accepted disclosure(s)",
        )
        for receiver, credential in accepted:
            yield AgentOp(receiver, OP_ENSURE_NOT_REVOKED, (credential,))
        return current

    def _exchange_steps(
        self,
        resource: str,
        sequence: TrustSequence,
        at: datetime,
        policy_messages: int,
        exchange_span,
    ):
        exchange_messages = 0
        disclosed_requester: list[str] = []
        disclosed_controller: list[str] = []
        accepted_credentials: list[tuple[str, Any]] = []
        epoch = trust_epoch()
        # Group-condition bookkeeping: which edge each disclosed node
        # belongs to, and what its receiver effectively learned.
        edge_of_child: dict[int, int] = {}
        if self._view is not None:
            for edge_id in self._view.chosen_edges.values():
                for child in self.tree.edge(edge_id).children:
                    edge_of_child[child] = edge_id
        received_per_edge: dict[int, list] = {}
        for step in sequence.steps:
            try:
                epoch = yield from self._recheck_retractions(
                    epoch, accepted_credentials
                )
            except CredentialRevokedError as exc:
                return self._failure(
                    resource,
                    FailureReason.CREDENTIAL_REVOKED,
                    str(exc),
                    policy_messages,
                    exchange_messages,
                    disclosed_requester,
                    disclosed_controller,
                )
            if step.is_grant:
                exchange_messages += 1  # the ResourceGrant
                self._log(
                    "exchange", self.controller, "grant", resource
                )
                continue
            discloser = step.discloser
            receiver = self._counterpart(discloser)
            credential = yield AgentOp(
                discloser, OP_PROFILE_GET, (step.credential_id,)
            )
            nonce = yield AgentOp(receiver, OP_ISSUE_CHALLENGE)
            try:
                disclosure = yield AgentOp(
                    discloser, OP_MAKE_DISCLOSURE,
                    (step.node.node_id, credential, step.node.term, nonce),
                )
            except StrategyError as exc:
                return self._failure(
                    resource,
                    FailureReason.STRATEGY_VIOLATION,
                    str(exc),
                    policy_messages,
                    exchange_messages,
                )
            exchange_messages += 1
            with obs_span(
                "tn.verify", cred_type=credential.cred_type
            ) as verify_span:
                accepted, reason, effective = yield AgentOp(
                    receiver, OP_VERIFY_DISCLOSURE,
                    (disclosure, step.node.term, at, nonce),
                )
                verify_span.set(accepted=accepted, reason=reason)
            if obs_enabled():
                obs_count("negotiation.disclosures_verified")
                obs_event(
                    "credential.disclosed",
                    sensitivity=int(credential.sensitivity),
                    discloser=discloser,
                    receiver=receiver,
                    cred_type=credential.cred_type,
                    accepted=accepted,
                    attributes={
                        attr.name: attr.value
                        for attr in credential.attributes
                    },
                )
            self._log(
                "exchange",
                discloser,
                "disclose" if accepted else "disclose-rejected",
                f"{credential.cred_type} ({reason})",
            )
            if not accepted:
                return self._failure(
                    resource,
                    FailureReason.CREDENTIAL_REJECTED,
                    f"{credential.cred_type!r}: {reason}",
                    policy_messages,
                    exchange_messages,
                    disclosed_requester,
                    disclosed_controller,
                )
            if not self._strategies[receiver].eager_disclosure:
                exchange_messages += 1  # the DisclosureAck
            accepted_credentials.append(
                (receiver, effective if effective is not None else credential)
            )
            if discloser == self.requester:
                disclosed_requester.append(credential.cred_id)
            else:
                disclosed_controller.append(credential.cred_id)
            # Group conditions: once every child of an edge has been
            # disclosed, the edge's policy owner checks the set-level
            # constraints over what was effectively learned.
            edge_id = edge_of_child.get(step.node.node_id)
            if edge_id is not None:
                received = received_per_edge.setdefault(edge_id, [])
                received.append(effective)
                edge = self.tree.edge(edge_id)
                if (
                    edge.policy.group_conditions
                    and len(received) == len(edge.children)
                ):
                    violated = [
                        cond.dsl()
                        for cond in edge.policy.group_conditions
                        if not cond.evaluate(received)
                    ]
                    if violated:
                        return self._failure(
                            resource,
                            FailureReason.CREDENTIAL_REJECTED,
                            "group condition(s) violated: "
                            + ", ".join(violated),
                            policy_messages,
                            exchange_messages,
                            disclosed_requester,
                            disclosed_controller,
                        )
        # A retraction may land between the last verification and the
        # grant (e.g. from an effect handler or another thread);
        # success must not be returned on trust that no longer holds.
        try:
            epoch = yield from self._recheck_retractions(
                epoch, accepted_credentials
            )
        except CredentialRevokedError as exc:
            return self._failure(
                resource,
                FailureReason.CREDENTIAL_REVOKED,
                str(exc),
                policy_messages,
                exchange_messages,
                disclosed_requester,
                disclosed_controller,
            )
        exchange_span.set(messages=exchange_messages)
        return NegotiationResult(
            resource=resource,
            requester=self.requester,
            controller=self.controller,
            success=True,
            tree=self.tree,
            sequence=(
                () if self.tree is None
                else tuple(step.node for step in sequence.steps)
            ),
            transcript=tuple(self.transcript),
            policy_messages=policy_messages,
            exchange_messages=exchange_messages,
            disclosed_by_requester=tuple(disclosed_requester),
            disclosed_by_controller=tuple(disclosed_controller),
        )

    # ------------------------------------------------------------- failures --

    def _failure(
        self,
        resource: str,
        reason: FailureReason,
        detail: str,
        policy_messages: int,
        exchange_messages: int = 0,
        disclosed_requester: Optional[list[str]] = None,
        disclosed_controller: Optional[list[str]] = None,
    ) -> NegotiationResult:
        self._log("exchange", self.controller, "failure", detail)
        return NegotiationResult(
            resource=resource,
            requester=self.requester,
            controller=self.controller,
            success=False,
            failure_reason=reason,
            failure_detail=detail,
            tree=self.tree,
            transcript=tuple(self.transcript),
            policy_messages=policy_messages,
            exchange_messages=exchange_messages,
            disclosed_by_requester=tuple(disclosed_requester or ()),
            disclosed_by_controller=tuple(disclosed_controller or ()),
        )
