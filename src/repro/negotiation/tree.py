"""The negotiation tree (paper Section 4.2, Fig. 2).

"A negotiation tree is a labeled tree rooted at the resource that
initially started the negotiation.  Each node corresponds to a term,
whereas edges correspond to policy rules ... A simple edge denotes a
policy having only one term on the left side component of the rule.
By contrast, a multiedge links several simple edges to represent policy
rules having more than one term ... Nodes belonging to a multiedge are
thus considered as a whole during the negotiation."

Alternative policies protecting the same node appear as sibling edges
(a disjunction); the terms of one policy body hang together under one
(multi)edge (a conjunction).  A *view* — "a possible trust sequence
that can lead to the negotiation success" — selects one satisfiable
edge for every expanded node it retains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple, Optional

from repro.errors import NegotiationError
from repro.obs import (
    count as obs_count,
    enabled as obs_enabled,
    observe as obs_observe,
)
from repro.policy.rules import DisclosurePolicy
from repro.policy.terms import Term

__all__ = ["NodeStatus", "EdgeKind", "TreeNode", "PolicyEdge", "View", "NegotiationTree"]


class NodeStatus(Enum):
    #: Not yet evaluated / expanded.
    OPEN = "open"
    #: The owner can release this node's credential freely (delivery
    #: rule or unprotected credential) — a satisfiable leaf.
    DELIVERABLE = "deliverable"
    #: Satisfiable through at least one edge whose children are all
    #: satisfiable.
    SATISFIABLE = "satisfiable"
    #: Cannot be satisfied (credential not possessed, or every
    #: alternative failed).
    UNSATISFIABLE = "unsatisfiable"

    @property
    def is_satisfiable(self) -> bool:
        return self in (NodeStatus.DELIVERABLE, NodeStatus.SATISFIABLE)


class EdgeKind(Enum):
    SIMPLE = "simple"
    MULTI = "multi"


@dataclass(slots=True)
class TreeNode:
    """One term (or the root resource) of the negotiation tree."""

    node_id: int
    owner: str  # the party who must provide/disclose this node
    label: str  # resource name or term name (display / dedup key)
    term: Optional[Term]  # None for the root resource node
    depth: int
    status: NodeStatus = NodeStatus.OPEN
    #: Credential the owner selected to satisfy this node (id only;
    #: contents stay with the owner until the exchange phase).
    credential_id: Optional[str] = None

    @property
    def is_root(self) -> bool:
        return self.term is None


class PolicyEdge(NamedTuple):
    """One policy rule linking a node to the body terms' nodes."""

    edge_id: int
    parent: int
    children: tuple[int, ...]
    policy: DisclosurePolicy

    @property
    def kind(self) -> EdgeKind:
        return EdgeKind.SIMPLE if len(self.children) == 1 else EdgeKind.MULTI


@dataclass(frozen=True)
class View:
    """A choice of one edge per retained node — one potential trust
    sequence."""

    tree: "NegotiationTree"
    chosen_edges: dict[int, int]  # node_id -> edge_id

    def nodes(self) -> list[TreeNode]:
        """Every node the view retains, root first (pre-order)."""
        ordered: list[TreeNode] = []
        stack = [self.tree.root_id]
        while stack:
            node_id = stack.pop()
            node = self.tree.node(node_id)
            ordered.append(node)
            edge_id = self.chosen_edges.get(node_id)
            if edge_id is not None:
                edge = self.tree.edge(edge_id)
                stack.extend(reversed(edge.children))
        return ordered

    def disclosure_order(self) -> list[TreeNode]:
        """Nodes in the order credentials must be disclosed.

        Post-order: a node's prerequisites (its chosen edge's children)
        are disclosed before the node itself; the root resource comes
        last.
        """
        ordered: list[TreeNode] = []

        def visit(node_id: int) -> None:
            edge_id = self.chosen_edges.get(node_id)
            if edge_id is not None:
                for child in self.tree.edge(edge_id).children:
                    visit(child)
            ordered.append(self.tree.node(node_id))

        visit(self.tree.root_id)
        return ordered


class NegotiationTree:
    """Mutable negotiation tree built during the policy phase."""

    def __init__(self, resource: str, controller: str) -> None:
        self._ids = itertools.count(0)
        self._edge_ids = itertools.count(0)
        self._nodes: dict[int, TreeNode] = {}
        self._edges: dict[int, PolicyEdge] = {}
        self._edges_by_parent: dict[int, list[int]] = {}
        self._parent_of: dict[int, int] = {}
        #: Each expanded node's satisfiable edges in insertion order, as
        #: recorded by the last propagate().
        self._satisfiable: dict[int, list[PolicyEdge]] = {}
        #: Depth of the deepest node, kept as nodes are added.
        self.depth = 0
        self.root_id = next(self._ids)
        self._nodes[self.root_id] = TreeNode(
            node_id=self.root_id, owner=controller, label=resource,
            term=None, depth=0,
        )

    # -- construction -----------------------------------------------------------

    def add_policy_edge(
        self, parent_id: int, policy: DisclosurePolicy, child_owner: str
    ) -> PolicyEdge:
        """Expand ``parent_id`` with one alternative policy rule.

        Creates one child node per body term, owned by ``child_owner``
        (the counterpart of the parent's owner), linked together as a
        multiedge when the rule has several terms.  Children get ids
        above every existing node, so a child's id always exceeds its
        parent's — the order :meth:`propagate` relies on.
        """
        parent = self.node(parent_id)
        if not policy.terms:
            raise NegotiationError(
                f"policy {policy.policy_id} has no terms to expand "
                f"(delivery rules mark nodes DELIVERABLE instead)"
            )
        depth = parent.depth + 1
        children = []
        for term in policy.terms:
            node_id = next(self._ids)
            self._nodes[node_id] = TreeNode(
                node_id, child_owner, term.name, term, depth
            )
            self._parent_of[node_id] = parent_id
            children.append(node_id)
        if depth > self.depth:
            self.depth = depth
        edge = PolicyEdge(
            next(self._edge_ids), parent_id, tuple(children), policy
        )
        self._edges[edge.edge_id] = edge
        self._edges_by_parent.setdefault(parent_id, []).append(edge.edge_id)
        return edge

    # -- access -------------------------------------------------------------------

    def node(self, node_id: int) -> TreeNode:
        try:
            return self._nodes[node_id]
        except KeyError as exc:
            raise NegotiationError(f"unknown tree node {node_id}") from exc

    def edge(self, edge_id: int) -> PolicyEdge:
        try:
            return self._edges[edge_id]
        except KeyError as exc:
            raise NegotiationError(f"unknown tree edge {edge_id}") from exc

    @property
    def root(self) -> TreeNode:
        return self.node(self.root_id)

    def edges_from(self, node_id: int) -> list[PolicyEdge]:
        return [
            self._edges[edge_id]
            for edge_id in self._edges_by_parent.get(node_id, [])
        ]

    def nodes(self) -> list[TreeNode]:
        return list(self._nodes.values())

    def edges(self) -> list[PolicyEdge]:
        return list(self._edges.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def path_labels(self, node_id: int) -> set[str]:
        """Labels of (owner, term-name) pairs from the root to ``node_id``.

        Used for cycle detection: re-requesting a term already on the
        path would loop forever.
        """
        labels: set[str] = set()
        target = self.node(node_id)
        # The child -> parent map is maintained incrementally by
        # add_policy_edge, so the walk is O(depth) rather than O(edges).
        current: Optional[int] = target.node_id
        while current is not None:
            node = self.node(current)
            labels.add(f"{node.owner}:{node.label}")
            current = self._parent_of.get(current)
        return labels

    # -- satisfiability propagation -------------------------------------------------

    def propagate(self) -> bool:
        """Recompute SATISFIABLE statuses bottom-up, in one pass.

        A node is satisfiable when it is DELIVERABLE, or when at least
        one outgoing edge has *all* children satisfiable ("nodes
        belonging to a multiedge are considered as a whole").  A child's
        id always exceeds its parent's, so visiting the expanded nodes
        in reverse id order settles every child before its parent and
        checks each edge once.  The pass records each node's satisfiable
        edges, in insertion order, for :meth:`satisfiable_edges` and the
        views.  Statuses only upgrade: an OPEN node may become
        SATISFIABLE, and no status is ever cleared.  Returns True when
        the root is satisfiable.
        """
        nodes = self._nodes
        edges = self._edges
        record: dict[int, list[PolicyEdge]] = {}
        for node_id in sorted(self._edges_by_parent, reverse=True):
            satisfiable = []
            for edge_id in self._edges_by_parent[node_id]:
                edge = edges[edge_id]
                if all(
                    nodes[child].status.is_satisfiable
                    for child in edge.children
                ):
                    satisfiable.append(edge)
            record[node_id] = satisfiable
            node = nodes[node_id]
            if satisfiable and node.status is NodeStatus.OPEN:
                node.status = NodeStatus.SATISFIABLE
        self._satisfiable = record
        if obs_enabled():
            obs_observe("tree.nodes_rechecked", len(record))
            obs_observe("tree.nodes", len(nodes))
        return self.root.status.is_satisfiable

    def satisfiable_edges(self, node_id: int) -> list[PolicyEdge]:
        """The edges of ``node_id`` whose children are all satisfiable,
        in insertion order, as of the last :meth:`propagate`."""
        return list(self._satisfiable.get(node_id, ()))

    # -- views -------------------------------------------------------------------

    def first_view(self) -> Optional[View]:
        """The deterministic first satisfiable view, if any.

        Greedy: at each satisfiable (non-deliverable) node pick the
        first satisfiable edge in insertion order — i.e. the first
        alternative the counterpart offered.  Like :meth:`iter_views`,
        it reads the edges recorded by the last :meth:`propagate`.
        """
        if not self.root.status.is_satisfiable:
            return None
        chosen: dict[int, int] = {}
        stack = [self.root_id]
        while stack:
            node_id = stack.pop()
            node = self.node(node_id)
            if node.status is NodeStatus.DELIVERABLE:
                continue
            edges = self._satisfiable.get(node_id)
            if not edges:
                return None  # pragma: no cover - propagate() guards this
            chosen[node_id] = edges[0].edge_id
            stack.extend(edges[0].children)
        return View(self, chosen)

    def iter_views(self, limit: int = 64) -> Iterator[View]:
        """Enumerate satisfiable views, up to ``limit``.

        The number of views is the product of satisfiable alternatives
        over expanded nodes, so enumeration is capped.
        """
        if not self.root.status.is_satisfiable:
            return
        emitted = 0
        satisfiable = self._satisfiable

        def expand(
            node_ids: tuple[int, ...], chosen: dict[int, int]
        ) -> Iterator[dict[int, int]]:
            if not node_ids:
                yield dict(chosen)
                return
            head, rest = node_ids[0], node_ids[1:]
            node = self.node(head)
            if node.status is NodeStatus.DELIVERABLE:
                yield from expand(rest, chosen)
                return
            for edge in satisfiable.get(head, ()):
                chosen[head] = edge.edge_id
                yield from expand(rest + edge.children, chosen)
                del chosen[head]

        for mapping in expand((self.root_id,), {}):
            if obs_enabled():
                obs_count("tree.views_enumerated")
            yield View(self, mapping)
            emitted += 1
            if emitted >= limit:
                return
