"""The negotiation tree (paper Fig. 2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NegotiationError
from repro.negotiation.tree import EdgeKind, NegotiationTree, NodeStatus
from repro.policy.parser import parse_policy


@pytest.fixture()
def fig2_tree():
    """The tree of paper Fig. 2: the Aerospace company requests a VO
    membership; the Aircraft company requires WebDesignerQuality; the
    Aerospace company protects it with two alternatives (AAA
    accreditation OR a balance sheet)."""
    tree = NegotiationTree("VoMembership", controller="AircraftCo")
    membership_policy = parse_policy("VoMembership <- WebDesignerQuality")
    edge1 = tree.add_policy_edge(tree.root_id, membership_policy, "AerospaceCo")
    quality_node = edge1.children[0]
    alt_a = parse_policy("WebDesignerQuality <- AAAccreditation")
    alt_b = parse_policy("WebDesignerQuality <- BalanceSheet")
    edge_a = tree.add_policy_edge(quality_node, alt_a, "AircraftCo")
    edge_b = tree.add_policy_edge(quality_node, alt_b, "AircraftCo")
    return tree, quality_node, edge_a, edge_b


class TestStructure:
    def test_root(self, fig2_tree):
        tree, _, _, _ = fig2_tree
        assert tree.root.is_root
        assert tree.root.owner == "AircraftCo"
        assert tree.root.label == "VoMembership"

    def test_nodes_alternate_owner(self, fig2_tree):
        tree, quality_node, edge_a, _ = fig2_tree
        assert tree.node(quality_node).owner == "AerospaceCo"
        assert tree.node(edge_a.children[0]).owner == "AircraftCo"

    def test_simple_edge_kind(self, fig2_tree):
        tree, _, edge_a, _ = fig2_tree
        assert edge_a.kind is EdgeKind.SIMPLE

    def test_multiedge_kind(self):
        tree = NegotiationTree("R", "ctrl")
        policy = parse_policy("R <- A, B, C")
        edge = tree.add_policy_edge(tree.root_id, policy, "req")
        assert edge.kind is EdgeKind.MULTI
        assert len(edge.children) == 3

    def test_depths_increment(self, fig2_tree):
        tree, quality_node, edge_a, _ = fig2_tree
        assert tree.root.depth == 0
        assert tree.node(quality_node).depth == 1
        assert tree.node(edge_a.children[0]).depth == 2

    def test_delivery_policy_cannot_expand(self):
        tree = NegotiationTree("R", "ctrl")
        with pytest.raises(NegotiationError):
            tree.add_policy_edge(
                tree.root_id, parse_policy("R <- DELIV"), "req"
            )

    def test_unknown_node_raises(self, fig2_tree):
        tree, _, _, _ = fig2_tree
        with pytest.raises(NegotiationError):
            tree.node(999)

    def test_path_labels(self, fig2_tree):
        tree, quality_node, edge_a, _ = fig2_tree
        labels = tree.path_labels(edge_a.children[0])
        assert "AircraftCo:VoMembership" in labels
        assert "AerospaceCo:WebDesignerQuality" in labels
        assert "AircraftCo:AAAccreditation" in labels


class TestPropagation:
    def test_satisfiable_through_one_alternative(self, fig2_tree):
        tree, quality_node, edge_a, edge_b = fig2_tree
        tree.node(edge_a.children[0]).status = NodeStatus.UNSATISFIABLE
        tree.node(edge_b.children[0]).status = NodeStatus.DELIVERABLE
        assert tree.propagate()
        assert tree.node(quality_node).status is NodeStatus.SATISFIABLE

    def test_unsatisfiable_when_all_alternatives_fail(self, fig2_tree):
        tree, quality_node, edge_a, edge_b = fig2_tree
        tree.node(edge_a.children[0]).status = NodeStatus.UNSATISFIABLE
        tree.node(edge_b.children[0]).status = NodeStatus.UNSATISFIABLE
        assert not tree.propagate()

    def test_multiedge_is_all_or_nothing(self):
        """'Nodes belonging to a multiedge are considered as a whole.'"""
        tree = NegotiationTree("R", "ctrl")
        edge = tree.add_policy_edge(
            tree.root_id, parse_policy("R <- A, B"), "req"
        )
        tree.node(edge.children[0]).status = NodeStatus.DELIVERABLE
        tree.node(edge.children[1]).status = NodeStatus.UNSATISFIABLE
        assert not tree.propagate()
        tree.node(edge.children[1]).status = NodeStatus.DELIVERABLE
        assert tree.propagate()

    def test_deliverable_root(self):
        tree = NegotiationTree("R", "ctrl")
        tree.root.status = NodeStatus.DELIVERABLE
        assert tree.propagate()


class TestViews:
    def test_no_view_when_unsatisfiable(self, fig2_tree):
        tree, _, edge_a, edge_b = fig2_tree
        tree.node(edge_a.children[0]).status = NodeStatus.UNSATISFIABLE
        tree.node(edge_b.children[0]).status = NodeStatus.UNSATISFIABLE
        tree.propagate()
        assert tree.first_view() is None

    def test_first_view_prefers_first_alternative(self, fig2_tree):
        tree, quality_node, edge_a, edge_b = fig2_tree
        tree.node(edge_a.children[0]).status = NodeStatus.DELIVERABLE
        tree.node(edge_b.children[0]).status = NodeStatus.DELIVERABLE
        tree.propagate()
        view = tree.first_view()
        assert view.chosen_edges[quality_node] == edge_a.edge_id

    def test_first_view_skips_failed_alternative(self, fig2_tree):
        tree, quality_node, edge_a, edge_b = fig2_tree
        tree.node(edge_a.children[0]).status = NodeStatus.UNSATISFIABLE
        tree.node(edge_b.children[0]).status = NodeStatus.DELIVERABLE
        tree.propagate()
        view = tree.first_view()
        assert view.chosen_edges[quality_node] == edge_b.edge_id

    def test_disclosure_order_children_first(self, fig2_tree):
        tree, quality_node, edge_a, _ = fig2_tree
        tree.node(edge_a.children[0]).status = NodeStatus.DELIVERABLE
        tree.propagate()
        order = tree.first_view().disclosure_order()
        labels = [node.label for node in order]
        assert labels == [
            "AAAccreditation", "WebDesignerQuality", "VoMembership"
        ]

    def test_iter_views_enumerates_alternatives(self, fig2_tree):
        tree, _, edge_a, edge_b = fig2_tree
        tree.node(edge_a.children[0]).status = NodeStatus.DELIVERABLE
        tree.node(edge_b.children[0]).status = NodeStatus.DELIVERABLE
        tree.propagate()
        views = list(tree.iter_views())
        assert len(views) == 2

    def test_iter_views_respects_limit(self, fig2_tree):
        tree, _, edge_a, edge_b = fig2_tree
        tree.node(edge_a.children[0]).status = NodeStatus.DELIVERABLE
        tree.node(edge_b.children[0]).status = NodeStatus.DELIVERABLE
        tree.propagate()
        assert len(list(tree.iter_views(limit=1))) == 1

    def test_view_nodes_pre_order(self, fig2_tree):
        tree, _, edge_a, _ = fig2_tree
        tree.node(edge_a.children[0]).status = NodeStatus.DELIVERABLE
        tree.propagate()
        nodes = tree.first_view().nodes()
        assert nodes[0].is_root


# -- reference oracle ------------------------------------------------------------
#
# The fixed-point search propagate() used before it became one bottom-up
# pass, and the view builders that rescanned each node's edges against
# the live statuses.  The single pass must agree with them on every
# tree, including after statuses are edited and propagate() runs again.


def reference_propagate(tree: NegotiationTree) -> bool:
    changed = True
    while changed:
        changed = False
        for node in tree.nodes():
            if node.status in (
                NodeStatus.DELIVERABLE, NodeStatus.UNSATISFIABLE
            ):
                continue
            for edge in tree.edges_from(node.node_id):
                children = [tree.node(child) for child in edge.children]
                if all(child.status.is_satisfiable for child in children):
                    if node.status is not NodeStatus.SATISFIABLE:
                        node.status = NodeStatus.SATISFIABLE
                        changed = True
                    break
    return tree.root.status.is_satisfiable


def reference_satisfiable_edges(tree: NegotiationTree, node_id: int):
    return [
        edge
        for edge in tree.edges_from(node_id)
        if all(
            tree.node(child).status.is_satisfiable
            for child in edge.children
        )
    ]


def reference_first_view(tree: NegotiationTree):
    if not tree.root.status.is_satisfiable:
        return None
    chosen = {}
    stack = [tree.root_id]
    while stack:
        node_id = stack.pop()
        if tree.node(node_id).status is NodeStatus.DELIVERABLE:
            continue
        edges = reference_satisfiable_edges(tree, node_id)
        if not edges:
            return None
        chosen[node_id] = edges[0].edge_id
        stack.extend(edges[0].children)
    return chosen


def reference_views(tree: NegotiationTree, limit: int) -> list:
    if not tree.root.status.is_satisfiable:
        return []

    def expand(node_ids, chosen):
        if not node_ids:
            yield dict(chosen)
            return
        head, rest = node_ids[0], node_ids[1:]
        if tree.node(head).status is NodeStatus.DELIVERABLE:
            yield from expand(rest, chosen)
            return
        for edge in reference_satisfiable_edges(tree, head):
            chosen[head] = edge.edge_id
            yield from expand(rest + edge.children, chosen)
            del chosen[head]

    views = []
    for mapping in expand((tree.root_id,), {}):
        views.append(mapping)
        if len(views) >= limit:
            break
    return views


_LEAF_STATUSES = [
    NodeStatus.DELIVERABLE, NodeStatus.UNSATISFIABLE, NodeStatus.OPEN
]
_MAX_DEPTH = 5
_MAX_NODES = 48


@st.composite
def tree_plans(draw):
    """A random tree as a replayable plan.

    Expansions pick any open frontier node (not only breadth-first), and
    each adds 1-3 alternative edges (OR) of 1-3 children (multiedges).
    Nodes left unexpanded get a leaf status; edits later overwrite
    statuses of any node, interior ones included.
    """
    depths = [0]
    frontier = [0]
    expansions = []
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        if not frontier or len(depths) >= _MAX_NODES:
            break
        parent = frontier.pop(
            draw(st.integers(min_value=0, max_value=len(frontier) - 1))
        )
        if depths[parent] >= _MAX_DEPTH:
            continue
        arities = draw(st.lists(
            st.integers(min_value=1, max_value=3), min_size=1, max_size=3
        ))
        for arity in arities:
            frontier.extend(range(len(depths), len(depths) + arity))
            depths.extend([depths[parent] + 1] * arity)
        expansions.append((parent, arities))
    leaf_statuses = draw(st.lists(
        st.sampled_from(_LEAF_STATUSES),
        min_size=len(depths), max_size=len(depths),
    ))
    edits = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=len(depths) - 1),
            st.sampled_from(list(NodeStatus)),
        ),
        max_size=4,
    ))
    return expansions, leaf_statuses, edits


def build_tree(expansions, leaf_statuses) -> NegotiationTree:
    tree = NegotiationTree("R", "ctrl")
    for parent, arities in expansions:
        owner = "req" if tree.node(parent).owner == "ctrl" else "ctrl"
        for arity in arities:
            body = ", ".join(f"T{index}" for index in range(arity))
            tree.add_policy_edge(
                parent, parse_policy(f"X <- {body}"), owner
            )
    expanded = {edge.parent for edge in tree.edges()}
    for node in tree.nodes():
        if node.node_id not in expanded:
            node.status = leaf_statuses[node.node_id]
    return tree


def assert_agrees_with_reference(
    tree: NegotiationTree, reference: NegotiationTree, limit: int
) -> None:
    assert tree.propagate() == reference_propagate(reference)
    assert [node.status for node in tree.nodes()] == [
        node.status for node in reference.nodes()
    ]
    for node in tree.nodes():
        assert [edge.edge_id for edge in tree.satisfiable_edges(
            node.node_id
        )] == [
            edge.edge_id
            for edge in reference_satisfiable_edges(reference, node.node_id)
        ]
    view = tree.first_view()
    assert (view.chosen_edges if view else None) == reference_first_view(
        reference
    )
    assert [
        view.chosen_edges for view in tree.iter_views(limit)
    ] == reference_views(reference, limit)


class TestSinglePassMatchesFixedPoint:
    @settings(max_examples=300, deadline=None)
    @given(plan=tree_plans(), limit=st.integers(min_value=1, max_value=16))
    def test_statuses_and_views_match_reference(self, plan, limit):
        expansions, leaf_statuses, edits = plan
        tree = build_tree(expansions, leaf_statuses)
        reference = build_tree(expansions, leaf_statuses)
        assert tree.depth == max(node.depth for node in tree.nodes())
        assert_agrees_with_reference(tree, reference, limit)
        # Edit statuses, then propagate again: statuses only upgrade.
        for node_id, status in edits:
            tree.node(node_id).status = status
            reference.node(node_id).status = status
        assert_agrees_with_reference(tree, reference, limit)

    def test_satisfiable_node_is_not_downgraded(self, fig2_tree):
        tree, quality_node, edge_a, edge_b = fig2_tree
        tree.node(edge_a.children[0]).status = NodeStatus.DELIVERABLE
        tree.node(edge_b.children[0]).status = NodeStatus.UNSATISFIABLE
        assert tree.propagate()
        tree.node(edge_a.children[0]).status = NodeStatus.UNSATISFIABLE
        assert tree.propagate()
        assert tree.node(quality_node).status is NodeStatus.SATISFIABLE
        assert tree.satisfiable_edges(quality_node) == []
        assert tree.first_view() is None
