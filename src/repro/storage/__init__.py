"""Storage substrates standing in for the prototype's databases.

The TN Web service stored disclosure policies and credentials in
Oracle 10g and evaluated XPath queries over the XML data; the VO
Management toolkit used MySQL, and the integration migrated the TN
store onto MySQL even though it has "very few features to support the
storage of XML data and the execution of XPath queries" (paper
Section 6.3).  Both ends of that trade-off are reproduced:

- :class:`~repro.storage.document_store.XMLDocumentStore` — an XML
  document store with XPath-subset queries (the Oracle stand-in);
- :class:`~repro.storage.kvstore.KeyValueStore` — a plain keyed store
  without XML awareness (the MySQL stand-in), over which XPath-style
  filtering must be done client-side by full scan.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.storage.document_store": ("XMLDocumentStore",),
    "repro.storage.kvstore": ("KeyValueStore",),
    "repro.storage.session_store": (
        "InMemorySessionStore", "SessionStore", "WALSessionStore",
    ),
})

__all__ = [
    "XMLDocumentStore",
    "KeyValueStore",
    "SessionStore",
    "InMemorySessionStore",
    "WALSessionStore",
]
