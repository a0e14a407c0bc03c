"""The ontology graph and is_a inference."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConceptNotFoundError, OntologyError
from repro.ontology.graph import IS_A, Ontology
from repro.ontology.builtin import identity_example_ontology


@pytest.fixture()
def onto():
    graph = Ontology("test")
    for name in ("IdentityDocument", "Civilian_DriverLicense",
                 "Texas_DriverLicense", "Passport_Document"):
        graph.add_concept(name)
    graph.relate("Civilian_DriverLicense", "IdentityDocument")
    graph.relate("Passport_Document", "IdentityDocument")
    graph.relate("Texas_DriverLicense", "Civilian_DriverLicense")
    return graph


class TestConstruction:
    def test_duplicate_concept_rejected(self, onto):
        with pytest.raises(OntologyError):
            onto.add_concept("IdentityDocument")

    def test_relate_unknown_concept_rejected(self, onto):
        with pytest.raises(ConceptNotFoundError):
            onto.relate("Ghost", "IdentityDocument")

    def test_is_a_cycle_rejected(self, onto):
        with pytest.raises(OntologyError):
            onto.relate("IdentityDocument", "Texas_DriverLicense")

    def test_cycle_rejection_leaves_graph_clean(self, onto):
        try:
            onto.relate("IdentityDocument", "Texas_DriverLicense")
        except OntologyError:
            pass
        # The offending edge must not linger.
        assert "Texas_DriverLicense" not in onto.related(
            "IdentityDocument", IS_A
        )

    def test_rejected_is_a_keeps_the_pair_s_earlier_relation(self):
        graph = Ontology("pair")
        graph.add_concept("a")
        graph.add_concept("b")
        graph.relate("a", "b", "part_of")
        graph.relate("b", "a")
        with pytest.raises(OntologyError):
            graph.relate("a", "b", IS_A)
        assert graph.related("a", "part_of") == {"b"}
        assert graph.related("a", IS_A) == set()

    def test_is_a_self_loop_rejected(self, onto):
        with pytest.raises(OntologyError):
            onto.relate("Passport_Document", "Passport_Document")
        assert onto.related("Passport_Document", IS_A) == {"IdentityDocument"}

    def test_later_relation_replaces_earlier(self, onto):
        onto.relate("Texas_DriverLicense", "Civilian_DriverLicense", "part_of")
        assert onto.related("Texas_DriverLicense", IS_A) == set()
        assert onto.ancestors("Texas_DriverLicense") == set()
        assert onto.related("Texas_DriverLicense", "part_of") == {
            "Civilian_DriverLicense"
        }

    def test_non_is_a_relation_may_cycle(self, onto):
        onto.relate("IdentityDocument", "Passport_Document", "related_to")
        onto.relate("Passport_Document", "IdentityDocument", "related_to")


class TestInference:
    def test_paper_texas_example(self):
        """Texas_DriverLicense is_a Civilian_DriverLicense (Section 4.3)."""
        onto = identity_example_ontology()
        assert onto.infers("Texas_DriverLicense", "Civilian_DriverLicense")

    def test_transitive_ancestors(self, onto):
        assert onto.ancestors("Texas_DriverLicense") == {
            "Civilian_DriverLicense", "IdentityDocument"
        }

    def test_descendants(self, onto):
        assert onto.descendants("IdentityDocument") == {
            "Civilian_DriverLicense", "Texas_DriverLicense",
            "Passport_Document",
        }

    def test_infers_reflexive(self, onto):
        assert onto.infers("Passport_Document", "Passport_Document")

    def test_infers_not_downward(self, onto):
        assert not onto.infers("IdentityDocument", "Texas_DriverLicense")

    def test_conveying_order(self, onto):
        names = [c.name for c in onto.conveying("Civilian_DriverLicense")]
        assert names[0] == "Civilian_DriverLicense"
        assert "Texas_DriverLicense" in names


class TestGeneralize:
    def test_one_hop(self, onto):
        assert onto.generalize("Texas_DriverLicense") == (
            "Civilian_DriverLicense"
        )

    def test_two_hops(self, onto):
        assert onto.generalize("Texas_DriverLicense", hops=2) == (
            "IdentityDocument"
        )

    def test_root_has_no_generalization(self, onto):
        assert onto.generalize("IdentityDocument") is None

    def test_hops_beyond_root_saturate(self, onto):
        assert onto.generalize("Texas_DriverLicense", hops=10) == (
            "IdentityDocument"
        )


class TestAccess:
    def test_contains_len_names(self, onto):
        assert "IdentityDocument" in onto
        assert "Ghost" not in onto
        assert len(onto) == 4
        assert onto.names() == sorted(onto.names())

    def test_get_unknown_raises(self, onto):
        with pytest.raises(ConceptNotFoundError):
            onto.get("Ghost")


RELATIONS = (IS_A, "part_of", "related_to")


@st.composite
def operations(draw):
    """``add`` and ``relate`` steps over a pool of at most 8 names."""
    names = [f"c{index}" for index in range(draw(st.integers(1, 8)))]
    step = st.one_of(
        st.tuples(st.just("add"), st.sampled_from(names)),
        st.tuples(
            st.just("relate"),
            st.sampled_from(names),
            st.sampled_from(names),
            st.sampled_from(RELATIONS),
        ),
    )
    return draw(st.lists(step, max_size=40))


def _is_a_closure(edges):
    """Brute-force transitive closure of the is_a pairs in ``edges``."""
    closure = {pair for pair, relation in edges.items() if relation == IS_A}
    while True:
        longer = {
            (low, high)
            for low, middle in closure
            for other, high in closure
            if middle == other
        }
        if longer <= closure:
            return closure
        closure |= longer


def _relations(graph, concepts):
    return {
        (name, relation): graph.related(name, relation)
        for name in concepts
        for relation in RELATIONS
    }


class TestAgainstBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(ops=operations())
    def test_random_graphs_match_the_closure(self, ops):
        graph = Ontology("random")
        concepts: list[str] = []
        edges: dict[tuple[str, str], str] = {}
        for op in ops:
            if op[0] == "add":
                if op[1] in concepts:
                    with pytest.raises(OntologyError):
                        graph.add_concept(op[1])
                else:
                    graph.add_concept(op[1])
                    concepts.append(op[1])
                continue
            _, child, parent, relation = op
            if child not in concepts or parent not in concepts:
                with pytest.raises(ConceptNotFoundError):
                    graph.relate(child, parent, relation)
                continue
            proposed = {**edges, (child, parent): relation}
            if any(low == high for low, high in _is_a_closure(proposed)):
                before = _relations(graph, concepts)
                with pytest.raises(OntologyError):
                    graph.relate(child, parent, relation)
                assert _relations(graph, concepts) == before
            else:
                graph.relate(child, parent, relation)
                edges = proposed

        closure = _is_a_closure(edges)
        for name in concepts:
            ancestors = {high for low, high in closure if low == name}
            descendants = {low for low, high in closure if high == name}
            assert graph.ancestors(name) == ancestors
            assert graph.descendants(name) == descendants
            assert [c.name for c in graph.conveying(name)] == [
                name, *sorted(descendants)
            ]
            for other in concepts:
                assert graph.infers(name, other) == (
                    name == other or (name, other) in closure
                )
            for relation in RELATIONS:
                assert graph.related(name, relation) == {
                    high
                    for (low, high), kind in edges.items()
                    if low == name and kind == relation
                }
            for hops in range(1, len(concepts) + 2):
                assert graph.generalize(name, hops) == _generalize(
                    edges, name, hops
                )


def _generalize(edges, name, hops):
    """Walk ``hops`` is_a steps up, always to the smallest parent."""
    current = name
    for _ in range(hops):
        parents = sorted(
            high
            for (low, high), kind in edges.items()
            if low == current and kind == IS_A
        )
        if not parents:
            return current if current != name else None
        current = parents[0]
    return current
