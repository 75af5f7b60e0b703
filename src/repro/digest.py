"""SHA-256 from the interpreter's built-in module.

Every hash the program takes — task keys, cache checksums, stream and
node-id seeds, fault and back-off draws, trajectory digests — is one
``sha256``.  ``hashlib`` answers that through ``_hashlib``, which maps
OpenSSL's libcrypto: about 3.6 MiB of resident memory in every process
that imports it, campaign process, pool worker and CLI run alike.
CPython also builds its own SHA-256 (``_sha2`` since 3.12, ``_sha256``
before), which gives byte-identical digests without that mapping;
CPython's ``random`` takes its sha512 the same way.  ``hashlib`` is the
fallback for a build without the built-in hashes.

The built-in hash is the slower one on long inputs, and some inputs are
long.  Keys and seeds hash well under 1 KiB, but a cache checksum and a
trajectory digest hash a whole result with its routing-table snapshots:
about 3 KiB at the ``tiny`` profile, 0.09–2.1 MB at ``smoke``, and more
with every node, contact and snapshot of a larger profile.  On a 2.1 GHz
Xeon the built-in hash takes 5–7 ms per MiB, OpenSSL about 1 ms, so each
cache read, cache write and trajectory digest of a ``smoke`` entry pays
about 5 ms more per MiB it hashes (EXPERIMENTS.md, "What a process
maps").

No module under ``repro`` imports ``hashlib`` but this one;
``tests/test_digest.py`` and ``tests/test_import_budget.py`` hold that.
"""

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

__all__ = ["sha256"]
