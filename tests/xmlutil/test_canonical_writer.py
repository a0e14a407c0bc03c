"""Byte identity of the canonical writer against its reference.

Signatures are computed over canonical bytes, so a writer that moves
one byte breaks every signature made before it.  The reference in
:mod:`tests.xmlutil.reference_canonical` is the writer as it stood
before the single-pass rewrite; these properties pin the two together
over escaping characters, empty/blank/missing text, tails, comments,
processing instructions, nesting and non-ASCII text.
"""

import hashlib
from xml.etree import ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import XMLError
from repro.xmlutil.canonical import canonicalize, element_digest
from tests.xmlutil.reference_canonical import reference_canonicalize

_CHARS = "ab &<>\"'\r\t\né中"
_BLANK = " \r\t\n"

_tags = st.sampled_from(["a", "b", "credential", "header", "x1", "ét"])
_values = st.text(alphabet=_CHARS, max_size=8)
_texts = st.one_of(
    st.none(),
    st.just(""),
    st.text(alphabet=_BLANK, min_size=1, max_size=4),
    _values,
)
_attributes = st.dictionaries(
    st.sampled_from(["k", "type", "id", "z", "é"]), _values, max_size=3
)

_leaves = st.one_of(
    st.tuples(st.just("comment"), _texts, _texts),
    st.tuples(st.just("pi"), st.sampled_from(["pi", "xml-stylesheet"]),
              _texts, _texts),
    st.tuples(st.just("element"), _tags, _attributes, _texts, _texts,
              st.just(())),
)


def _extend(children):
    return st.tuples(
        st.just("element"), _tags, _attributes, _texts, _texts,
        st.lists(children, max_size=4).map(tuple),
    )


_nodes = st.recursive(_leaves, _extend, max_leaves=12)
_roots = st.recursive(
    st.tuples(st.just("element"), _tags, _attributes, _texts, _texts,
              st.just(())),
    lambda children: _extend(st.one_of(_leaves, children)),
    max_leaves=12,
)


def _build(spec) -> ET.Element:
    kind = spec[0]
    if kind == "comment":
        _, text, tail = spec
        node = ET.Comment(text)
    elif kind == "pi":
        _, target, text, tail = spec
        node = ET.ProcessingInstruction(target, text)
    else:
        _, tag, attributes, text, tail, children = spec
        node = ET.Element(tag, attributes)
        node.text = text
        for child in children:
            node.append(_build(child))
    node.tail = tail
    return node


class TestWriterMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(spec=_roots)
    def test_element_trees(self, spec):
        tree = _build(spec)
        assert canonicalize(tree) == reference_canonicalize(tree)

    @settings(max_examples=200, deadline=None)
    @given(spec=_roots)
    def test_serialized_documents(self, spec):
        text = ET.tostring(_build(spec), encoding="unicode")
        try:
            expected = reference_canonicalize(text)
        except XMLError:
            # e.g. a comment holding "--": both paths must refuse it.
            with pytest.raises(XMLError):
                canonicalize(text)
            return
        assert canonicalize(text) == expected

    @given(spec=_nodes)
    def test_any_root_node(self, spec):
        """A comment or processing instruction at the root writes
        nothing, as before."""
        tree = _build(spec)
        assert canonicalize(tree) == reference_canonicalize(tree)

    @given(spec=_roots)
    def test_digest_hashes_the_canonical_form(self, spec):
        tree = _build(spec)
        expected = hashlib.sha256(
            reference_canonicalize(tree).encode("utf-8")
        ).digest()
        assert element_digest(tree) == expected


class TestExamples:
    def test_every_escape_in_text_tail_and_attribute(self):
        root = ET.Element("a", {"k": "& < > \" '"})
        root.text = " & < > \" ' "
        child = ET.SubElement(root, "b")
        child.tail = "\r\t& tail <\t"
        assert canonicalize(root) == reference_canonicalize(root) == (
            '<a k="&amp; &lt; &gt; &quot; \'">'
            "&amp; &lt; &gt; \" '<b></b>&amp; tail &lt;</a>"
        )

    def test_comment_tail_is_kept_but_comment_is_not(self):
        root = ET.Element("a")
        comment = ET.Comment("note")
        comment.tail = "after"
        root.append(comment)
        assert canonicalize(root) == reference_canonicalize(root) == (
            "<a>after</a>"
        )

    def test_blank_text_of_a_structural_node_is_dropped(self):
        root = ET.Element("a")
        root.text = "\n  "
        ET.SubElement(root, "b").text = "é中"
        assert canonicalize(root) == "<a><b>é中</b></a>"
