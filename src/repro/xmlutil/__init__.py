"""XML infrastructure shared by credentials, policies, and storage.

The paper encodes both credentials and disclosure policies as XML
(Figs. 6-7) and evaluates policy conditions as XPath expressions over
credential documents.  This subpackage provides:

- :mod:`repro.xmlutil.canonical` — a deterministic, signing-safe XML
  serialization (attributes sorted, whitespace normalized), playing the
  role of XML-C14N for our signature layer.
- :mod:`repro.xmlutil.xpath` — a self-contained evaluator for the XPath
  subset that X-TNL policy conditions use.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.xmlutil.canonical": ("canonicalize", "element_digest", "parse_xml"),
    "repro.xmlutil.xpath": ("XPath", "evaluate_xpath"),
})

__all__ = [
    "canonicalize",
    "element_digest",
    "parse_xml",
    "XPath",
    "evaluate_xpath",
]
