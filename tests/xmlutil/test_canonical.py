"""Canonical XML serialization."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import XMLError
from repro.xmlutil.canonical import canonicalize, element_digest, parse_xml


class TestParse:
    def test_parses_valid_xml(self):
        root = parse_xml("<a><b>x</b></a>")
        assert root.tag == "a"
        assert root[0].text == "x"

    def test_malformed_xml_raises_xml_error(self):
        with pytest.raises(XMLError):
            parse_xml("<a><b></a>")

    def test_empty_string_raises(self):
        with pytest.raises(XMLError):
            parse_xml("")


class TestCanonicalize:
    def test_attributes_are_sorted(self):
        assert canonicalize('<a z="2" b="1"/>') == '<a b="1" z="2"></a>'

    def test_structural_whitespace_is_dropped(self):
        pretty = "<a>\n  <b>x</b>\n  <c>y</c>\n</a>"
        compact = "<a><b>x</b><c>y</c></a>"
        assert canonicalize(pretty) == canonicalize(compact)

    def test_text_is_preserved_and_stripped(self):
        assert canonicalize("<a>  hello  </a>") == "<a>hello</a>"

    def test_escaping_in_text_and_attributes(self):
        out = canonicalize('<a k="x&quot;y">1 &lt; 2 &amp; 3</a>')
        assert out == '<a k="x&quot;y">1 &lt; 2 &amp; 3</a>'

    def test_empty_element_form(self):
        assert canonicalize("<a/>") == "<a></a>"

    def test_tail_text_is_kept(self):
        out = canonicalize("<a><b>x</b>tail</a>")
        assert "tail" in out

    def test_accepts_element_input(self):
        element = parse_xml("<a><b/></a>")
        assert canonicalize(element) == "<a><b></b></a>"

    def test_idempotent(self):
        doc = '<root a="1"><child>text</child></root>'
        once = canonicalize(doc)
        assert canonicalize(once) == once


class TestDigest:
    def test_equal_documents_share_digest(self):
        left = element_digest('<a y="2" x="1"><b>v</b></a>')
        right = element_digest('<a x="1" y="2">\n  <b>v</b>\n</a>')
        assert left == right

    def test_different_content_different_digest(self):
        assert element_digest("<a>1</a>") != element_digest("<a>2</a>")

    def test_digest_is_32_bytes(self):
        assert len(element_digest("<a/>")) == 32


_names = st.sampled_from(["a", "b", "credential", "header", "x1"])
_texts = st.text(
    alphabet=st.sampled_from("abc<>&\"' "), min_size=0, max_size=12
)


@given(tag=_names, text=_texts, attr=_texts)
def test_canonicalize_roundtrip_property(tag, text, attr):
    """Canonical form re-parses to an equivalent canonical form."""
    from xml.etree import ElementTree as ET

    element = ET.Element(tag, {"k": attr})
    element.text = text
    once = canonicalize(element)
    assert canonicalize(once) == once


class TestWhitespaceReferences:
    """A parser rewrites a literal CR in text (to LF) and a literal tab,
    LF or CR in an attribute value (to a space).  The canonical form
    writes them as character references, so re-parsing it gives back
    the same values and canonicalization is idempotent."""

    def test_cr_in_text_is_a_character_reference(self):
        out = canonicalize(parse_xml("<a>line1&#13;\nline2</a>"))
        assert out == "<a>line1&#13;\nline2</a>"
        assert parse_xml(out).text == "line1\r\nline2"

    def test_whitespace_in_attribute_is_a_character_reference(self):
        out = canonicalize('<a k="x&#9;y&#10;z&#13;w"/>')
        assert out == '<a k="x&#9;y&#10;z&#13;w"></a>'
        assert parse_xml(out).get("k") == "x\ty\nz\rw"

    def test_newline_in_attribute_is_idempotent(self):
        once = canonicalize('<a k="x&#10;y"/>')
        assert canonicalize(once) == once


_whitespace_texts = st.text(
    alphabet=st.sampled_from("ab<&\" \t\n\r"), min_size=0, max_size=12
)


@given(text=_whitespace_texts, attr=_whitespace_texts)
def test_canonical_form_reparses_to_the_same_values(text, attr):
    from xml.etree import ElementTree as ET

    element = ET.Element("a", {"k": attr})
    element.text = text
    once = canonicalize(element)
    reparsed = parse_xml(once)
    assert reparsed.get("k") == attr
    assert (reparsed.text or "") == text.strip()
    assert canonicalize(once) == once
