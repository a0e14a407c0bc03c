"""Semantic layer: ontologies, matching, and Algorithm 1 (paper §4.3).

Trust-X is extended with a reasoning engine so that parties can express
policies at concept level and negotiate across different naming
schemas.  The layer provides:

- :mod:`concept` — concepts binding names to credential types and
  attributes (``⟨gender; Passport.gender; DrivingLicense.sex⟩``),
- :mod:`graph` — the ontology graph with ``is_a`` inference,
- :mod:`similarity` — the Jaccard coefficient as used by GLUE,
- :mod:`matching` — cross-ontology alignment with confidence scores,
- :mod:`mapping` — Algorithm 1: concept → credential resolution with
  sensitivity clustering,
- :mod:`owl` — OWL-subset (RDF/XML) import/export (paper Fig. 8),
- :mod:`builtin` — the aerospace reference ontology used by the
  running example.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.ontology.concept": ("Concept", "CredentialBinding"),
    "repro.ontology.graph": ("Ontology",),
    "repro.ontology.mapping": ("ConceptMapper", "MappingOutcome"),
    "repro.ontology.matching": ("OntologyMapping", "match_ontologies"),
    "repro.ontology.owl": ("ontology_from_owl", "ontology_to_owl"),
    "repro.ontology.similarity": ("compute_similarity", "jaccard"),
})

__all__ = [
    "Concept",
    "CredentialBinding",
    "Ontology",
    "jaccard",
    "compute_similarity",
    "OntologyMapping",
    "match_ontologies",
    "ConceptMapper",
    "MappingOutcome",
    "ontology_to_owl",
    "ontology_from_owl",
]
