"""The canonical XML writer as it stood before its rewrite, kept as the
reference the fast writer must match byte for byte.  Its escapes were
later extended the same way as the writer's (CR in text; tab, LF and CR
in attribute values) when those characters were found not to survive a
parse of the canonical form.

Do not optimise this module: its value is that it is the old,
obviously-correct code.
"""

from xml.etree import ElementTree as ET

from repro.xmlutil.canonical import parse_xml


def _escape_text(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


def _escape_attr(text: str) -> str:
    return (
        _escape_text(text)
        .replace('"', "&quot;")
        .replace("\t", "&#9;")
        .replace("\n", "&#10;")
    )


def _is_structural(element: ET.Element) -> bool:
    """True when the element only exists to hold child elements."""
    has_children = len(element) > 0
    text_blank = element.text is None or not element.text.strip()
    return has_children and text_blank


def _write(element: ET.Element, parts: list[str]) -> None:
    tag = element.tag
    if not isinstance(tag, str):
        # Comments and processing instructions are not part of the
        # canonical form.
        return
    parts.append(f"<{tag}")
    for name in sorted(element.attrib):
        parts.append(f' {name}="{_escape_attr(element.attrib[name])}"')
    children = list(element)
    text = element.text or ""
    if not children and not text:
        parts.append(f"></{tag}>")
        return
    parts.append(">")
    if text:
        if _is_structural(element):
            pass  # drop indentation-only whitespace
        else:
            parts.append(_escape_text(text.strip()))
    for child in children:
        _write(child, parts)
        if child.tail and child.tail.strip():
            parts.append(_escape_text(child.tail.strip()))
    parts.append(f"</{tag}>")


def reference_canonicalize(element: ET.Element | str) -> str:
    if isinstance(element, str):
        element = parse_xml(element)
    parts: list[str] = []
    _write(element, parts)
    return "".join(parts)
