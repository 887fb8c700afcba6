"""Short stable digests of response bodies, for change detection.

The estimator digests each response body to tell a changed response from
an unchanged one. Requests are not digested: the cache and the estimator
key on the request's (method, payload) tuple itself. No module of the
package calls cache_key(); bench/tracer.py still looks it up by name to
wrap it, so it stays until the tracer no longer does.

BLAKE2 comes from CPython's own ``_blake2`` module, the object
``hashlib.blake2b`` re-exports, so digesting does not load OpenSSL.
"""

from __future__ import annotations

from _blake2 import blake2b

DIGEST_SIZE = 16  # 128 bits


def response_digest(payload: bytes) -> bytes:
    """Digest of a response body, used only for equality comparison."""
    return blake2b(payload, digest_size=DIGEST_SIZE).digest()


def cache_key(method: str, payload: bytes) -> bytes:
    """Digest of a request's method plus its full payload; unused in the package."""
    h = blake2b(digest_size=DIGEST_SIZE)
    h.update(method.encode("ascii"))
    h.update(b"\x00")
    h.update(payload)
    return h.digest()
