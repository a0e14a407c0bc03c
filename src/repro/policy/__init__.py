"""X-TNL disclosure policies (paper Section 4.1, Figs. 6-7).

Disclosure policies are logic rules ``R <- T1, ..., Tn`` (or the
delivery rule ``R <- DELIV``) whose terms constrain the credentials the
counterpart must disclose.  This subpackage provides:

- :mod:`terms` — ``Term`` (credential / variable / concept) and
  ``RTerm`` (resource),
- :mod:`conditions` — the condition language evaluated against
  credential attributes (including raw XPath conditions),
- :mod:`rules` — the ``DisclosurePolicy`` rule itself,
- :mod:`parser` — the text DSL used throughout the paper's examples,
- :mod:`xmlcodec` — the XML wire format of Figs. 6-7,
- :mod:`compliance` — policy satisfaction against an X-Profile,
- :mod:`policybase` — a party's policy database with alternatives.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.policy.compliance": ("ComplianceChecker", "PolicySatisfaction"),
    "repro.policy.conditions": (
        "AnyAttributeCondition", "AttributeCondition", "Condition",
        "XPathCondition",
    ),
    "repro.policy.groups": ("GroupCondition", "parse_group_condition"),
    "repro.policy.parser": ("parse_policies", "parse_policy"),
    "repro.policy.policybase": ("PolicyBase",),
    "repro.policy.rules": ("DisclosurePolicy",),
    "repro.policy.terms": ("RTerm", "Term"),
    "repro.policy.xacml": ("policies_from_xacml", "policies_to_xacml"),
    "repro.policy.xmlcodec": ("policy_from_xml", "policy_to_xml"),
})

__all__ = [
    "Term",
    "RTerm",
    "Condition",
    "AttributeCondition",
    "AnyAttributeCondition",
    "XPathCondition",
    "DisclosurePolicy",
    "parse_policy",
    "parse_policies",
    "policy_to_xml",
    "policy_from_xml",
    "GroupCondition",
    "parse_group_condition",
    "policies_to_xacml",
    "policies_from_xacml",
    "ComplianceChecker",
    "PolicySatisfaction",
    "PolicyBase",
]
