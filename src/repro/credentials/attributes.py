"""Typed attribute values carried inside credentials.

Credential content is a flat set of named attributes (Fig. 6 shows a
single ``QualityRegulation`` attribute).  Policy conditions compare
attributes as strings, numbers, dates, or booleans, so each attribute
records an explicit type tag that round-trips through XML.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime
from typing import Union

from repro.errors import CredentialFormatError

__all__ = ["AttributeValue"]

_Scalar = Union[str, int, float, bool, date, datetime]

_TYPE_TAGS = {
    str: "string",
    int: "integer",
    float: "decimal",
    bool: "boolean",
    date: "date",
    datetime: "dateTime",
}


@dataclass(frozen=True, slots=True)
class AttributeValue:
    """A single named, typed attribute of a credential.

    >>> AttributeValue.of("age", 42).xml_text
    '42'
    >>> AttributeValue.parse("age", "42", "integer").value
    42
    """

    name: str
    value: _Scalar
    type_tag: str

    @classmethod
    def of(cls, name: str, value: _Scalar) -> "AttributeValue":
        """Build an attribute, inferring the XML type tag from ``value``."""
        if not name or not name[0].isalpha():
            raise CredentialFormatError(
                f"invalid attribute name {name!r}: must start with a letter"
            )
        # bool is a subclass of int: check it first.
        if isinstance(value, bool):
            tag = "boolean"
        elif isinstance(value, datetime):
            tag = "dateTime"
        elif isinstance(value, date):
            tag = "date"
        else:
            tag = _TYPE_TAGS.get(type(value))
        if tag is None:
            raise CredentialFormatError(
                f"unsupported attribute type {type(value).__name__} "
                f"for {name!r}"
            )
        return cls(name, value, tag)

    @property
    def xml_text(self) -> str:
        """The text form stored in the credential XML."""
        if self.type_tag == "boolean":
            return "true" if self.value else "false"
        if self.type_tag in ("date", "dateTime"):
            return self.value.isoformat()
        return str(self.value)

    @classmethod
    def parse(cls, name: str, text: str, type_tag: str) -> "AttributeValue":
        """Reconstruct an attribute from its XML text and type tag."""
        try:
            if type_tag == "string":
                return cls(name, text, type_tag)
            if type_tag == "integer":
                return cls(name, int(text), type_tag)
            if type_tag == "decimal":
                return cls(name, float(text), type_tag)
            if type_tag == "boolean":
                if text not in ("true", "false"):
                    raise ValueError(f"not a boolean literal: {text!r}")
                return cls(name, text == "true", type_tag)
            if type_tag == "date":
                return cls(name, date.fromisoformat(text), type_tag)
            if type_tag == "dateTime":
                return cls(name, datetime.fromisoformat(text), type_tag)
        except ValueError as exc:
            raise CredentialFormatError(
                f"attribute {name!r}: cannot parse {text!r} as {type_tag}"
            ) from exc
        raise CredentialFormatError(
            f"attribute {name!r}: unknown type tag {type_tag!r}"
        )

    def comparable(self) -> Union[str, float]:
        """Value in the form policy conditions compare against.

        Numbers compare numerically; everything else compares as its
        XML string form (ISO dates order correctly as strings).
        """
        if self.type_tag in ("integer", "decimal"):
            return float(self.value)
        return self.xml_text
