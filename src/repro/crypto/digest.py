"""SHA-256 from the interpreter's built-in module.

``hashlib`` binds OpenSSL's ``libcrypto`` when it loads (about 3.6 MB
of resident memory), and ``secrets`` pulls it in through ``hmac``.
The package needs only SHA-256 and an OS random source, so it hashes
with the built-in module CPython ships for when OpenSSL is absent, as
the standard library's own ``random`` does: ``_sha2`` on 3.12+,
``_sha256`` on 3.10/3.11.  Only an interpreter built without either
falls back to ``hashlib``.  Randomness comes straight from
``os.urandom``, the source ``secrets`` wraps.

The built-in and OpenSSL digests are the same function (FIPS 180-4),
so every signature, fingerprint and journal hash is unchanged.
"""

from __future__ import annotations

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

__all__ = ["sha256"]
