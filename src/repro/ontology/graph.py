"""The ontology graph: concepts plus ``is_a`` and custom relations.

"Within the ontology, concepts are related by different relationships,
and hierarchically organized according to the conventional is_a
relationship.  As such, if concept Ci is in a relation is_a with Ck,
the information conveyed by concept Ci can be used to infer information
conveyed by concept Ck" (paper Section 4.3) — e.g. a Texas driver
license infers a civilian driver license.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.errors import ConceptNotFoundError, OntologyError
from repro.ontology.concept import Concept

__all__ = ["Ontology"]

IS_A = "is_a"


class Ontology:
    """A party's local ontology (or the shared reference ontology)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._concepts: dict[str, Concept] = {}
        # child -> {parent: relation}; one relation per ordered pair.
        self._parents: dict[str, dict[str, str]] = {}

    # -- construction -----------------------------------------------------------

    def add(self, concept: Concept) -> Concept:
        if concept.name in self._concepts:
            raise OntologyError(
                f"concept {concept.name!r} already exists in {self.name!r}"
            )
        self._concepts[concept.name] = concept
        self._parents[concept.name] = {}
        return concept

    def add_concept(
        self,
        name: str,
        bindings: Iterable[str] = (),
        attributes: Iterable[str] = (),
    ) -> Concept:
        """Convenience wrapper over :meth:`add` with textual bindings."""
        return self.add(Concept.of(name, tuple(bindings), tuple(attributes)))

    def relate(self, child: str, parent: str, relation: str = IS_A) -> None:
        """Record ``child --relation--> parent``; ``is_a`` must stay acyclic."""
        self._require(child)
        self._require(parent)
        if relation == IS_A and child in {parent, *self.ancestors(parent)}:
            raise OntologyError(
                f"is_a cycle introduced by {child!r} -> {parent!r}"
            )
        self._parents[child][parent] = relation

    # -- lookup ------------------------------------------------------------------

    def _require(self, name: str) -> Concept:
        try:
            return self._concepts[name]
        except KeyError as exc:
            raise ConceptNotFoundError(
                f"concept {name!r} not in ontology {self.name!r}"
            ) from exc

    def get(self, name: str) -> Concept:
        return self._require(name)

    def __contains__(self, name: str) -> bool:
        return name in self._concepts

    def __iter__(self) -> Iterator[Concept]:
        return iter(self._concepts.values())

    def __len__(self) -> int:
        return len(self._concepts)

    def names(self) -> list[str]:
        return sorted(self._concepts)

    # -- is_a inference ------------------------------------------------------------

    def _is_a_closure(self, name: str, upward: bool) -> set[str]:
        """Transitive is_a parents (``upward``) or children of ``name``."""
        self._require(name)
        step: dict[str, list[str]] = {}
        for child, parents in self._parents.items():
            for parent, relation in parents.items():
                if relation == IS_A:
                    edge = (child, parent) if upward else (parent, child)
                    step.setdefault(edge[0], []).append(edge[1])
        seen: set[str] = set()
        stack = [name]
        while stack:
            fresh = set(step.get(stack.pop(), ())) - seen
            seen |= fresh
            stack.extend(fresh)
        return seen

    def ancestors(self, name: str) -> set[str]:
        """Concepts that ``name`` can be used to infer (transitive is_a)."""
        return self._is_a_closure(name, upward=True)

    def descendants(self, name: str) -> set[str]:
        """Concepts whose information infers ``name``."""
        return self._is_a_closure(name, upward=False)

    def infers(self, specific: str, general: str) -> bool:
        """True when ``specific`` is_a* ``general`` (or the same)."""
        if specific == general:
            return True
        return general in self.ancestors(specific)

    def conveying(self, name: str) -> list[Concept]:
        """All concepts conveying ``name``: itself plus descendants.

        These are the concepts whose bound credentials can be disclosed
        to satisfy a request for ``name``: the concept itself first,
        then is_a descendants in a stable (sorted) order.
        """
        self._require(name)
        ordered = [self._concepts[name]]
        ordered.extend(
            self._concepts[child] for child in sorted(self.descendants(name))
        )
        return ordered

    def related(self, name: str, relation: str) -> set[str]:
        """Direct neighbours of ``name`` through ``relation`` edges."""
        self._require(name)
        edges = self._parents[name]
        return {parent for parent in edges if edges[parent] == relation}

    # -- generalization (for policy abstraction, §4.3.1) -------------------------

    def generalize(self, name: str, hops: int = 1) -> Optional[str]:
        """Return an ancestor ``hops`` is_a levels up, if any.

        Used to abstract disclosure policies: "the process can be
        iterated so as to hide even more information, if the ancestor
        concept is used."
        """
        current = name
        for _ in range(hops):
            parents = sorted(self.related(current, IS_A))
            if not parents:
                return current if current != name else None
            current = parents[0]
        return current
