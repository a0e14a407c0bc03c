"""Deterministic XML serialization for signing.

Two X-TNL documents with the same logical content must serialize to the
same byte string so that signatures verify regardless of attribute order
or incidental whitespace.  This module implements a small canonical form
inspired by XML-C14N:

- attributes are emitted in sorted order;
- text and tails lose their surrounding whitespace, so the indentation
  of *structural* (element-only) nodes disappears, and are escaped
  minimally: ``& < >`` as entities and CR as ``&#13;``; attribute values
  also escape ``"`` and write tab, LF and CR as ``&#9;``, ``&#10;`` and
  ``&#13;``, so parsing the canonical form gives back the same values;
- comments and processing instructions are dropped;
- no XML declaration, no namespace rewriting (X-TNL documents are
  namespace-free).

The writer is one pass over the tree and caches nothing: signed
documents (credentials, certificates, policies) are rebuilt as trees
and canonicalized on every call, so what is signed is always what the
tree holds now.
"""

from __future__ import annotations

from typing import Callable
from xml.etree import ElementTree as ET

from repro.crypto.digest import sha256
from repro.errors import XMLError

__all__ = ["canonicalize", "element_digest", "parse_xml"]


def parse_xml(text: str) -> ET.Element:
    """Parse ``text`` into an Element, wrapping parse errors in XMLError."""
    try:
        return ET.fromstring(text)
    except ET.ParseError as exc:
        raise XMLError(f"malformed XML: {exc}") from exc


def _escape_text(text: str) -> str:
    # A parser turns a literal CR (alone or before LF) into LF, so CR is
    # written as a character reference to survive a round trip.
    if "&" in text or "<" in text or ">" in text or "\r" in text:
        text = (
            text.replace("&", "&amp;")
            .replace("<", "&lt;")
            .replace(">", "&gt;")
            .replace("\r", "&#13;")
        )
    return text


def _escape_attr(text: str) -> str:
    text = _escape_text(text)
    # A parser normalizes literal tab and newline in an attribute value
    # to a space, so they are written as character references.
    if '"' in text or "\t" in text or "\n" in text:
        text = (
            text.replace('"', "&quot;")
            .replace("\t", "&#9;")
            .replace("\n", "&#10;")
        )
    return text


def _write(element: ET.Element, append: Callable[[str], None]) -> None:
    tag = element.tag
    if not isinstance(tag, str):
        # Comments and processing instructions are not part of the
        # canonical form (their tails are, via the parent).
        return
    attrib = element.attrib
    if attrib:
        append(f"<{tag}")
        for name in sorted(attrib):
            append(f' {name}="{_escape_attr(attrib[name])}"')
        append(">")
    else:
        append(f"<{tag}>")
    # Surrounding whitespace is dropped, so the indentation-only text
    # of a structural (element-only) node writes nothing.
    text = element.text
    if text and (text := text.strip()):
        append(_escape_text(text))
    for child in element:
        _write(child, append)
        tail = child.tail
        if tail and (tail := tail.strip()):
            append(_escape_text(tail))
    append(f"</{tag}>")


def canonicalize(element: ET.Element | str) -> str:
    """Return the canonical string form of ``element``.

    Accepts either an Element or an XML string (which is parsed first).
    The output is stable across attribute ordering and pretty-printing
    whitespace, making it safe to sign and to compare.
    """
    if isinstance(element, str):
        element = parse_xml(element)
    parts: list[str] = []
    _write(element, parts.append)
    return "".join(parts)


def element_digest(element: ET.Element | str) -> bytes:
    """SHA-256 digest of the canonical form of ``element``."""
    return sha256(canonicalize(element).encode("utf-8")).digest()
