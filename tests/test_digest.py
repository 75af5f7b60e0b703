"""``repro.digest.sha256``: hashlib's bytes without hashlib's OpenSSL mapping.

Task keys, cache checksums, stream seeds, node ids and the golden
trajectory digests are all SHA-256 values, so the helper must give the
bytes ``hashlib.sha256`` gives, for one-shot and incremental use alike.
On CPython it resolves to the interpreter's built-in module, and no
other module of the package imports ``hashlib``.
"""

import ast
import hashlib
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro import digest
from repro.digest import sha256

PACKAGE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

PAYLOADS = {
    "empty": b"",
    "55 bytes": bytes(range(55)),
    "56 bytes": bytes(range(56)),
    "64 bytes": bytes(range(64)),
    "4096 bytes": bytes(range(256)) * 16,
    "non-ascii text": "κ(D) über Kademlia — 节点 🔑".encode("utf-8"),
}


@pytest.mark.parametrize("payload", PAYLOADS.values(), ids=PAYLOADS.keys())
class TestByteIdenticalToHashlib:
    def test_digest_and_hexdigest(self, payload):
        assert sha256(payload).digest() == hashlib.sha256(payload).digest()
        assert sha256(payload).hexdigest() == hashlib.sha256(payload).hexdigest()

    def test_incremental_update(self, payload):
        ours, theirs = sha256(), hashlib.sha256()
        for start in range(0, len(payload), 7):
            ours.update(payload[start:start + 7])
            theirs.update(payload[start:start + 7])
        assert ours.digest() == theirs.digest() == hashlib.sha256(payload).digest()

    def test_copy_forks_the_state(self, payload):
        half = len(payload) // 2
        head = sha256(payload[:half])
        fork = head.copy()
        fork.update(payload[half:])
        assert head.digest() == hashlib.sha256(payload[:half]).digest()
        assert fork.digest() == hashlib.sha256(payload).digest()


def test_resolves_to_the_interpreters_built_in_module():
    if sys.implementation.name != "cpython":
        pytest.skip("the built-in hash modules are CPython's")
    module = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    if importlib.util.find_spec(module) is None:
        pytest.skip(f"this build has no {module}; repro.digest falls back to hashlib")
    assert digest.sha256 is importlib.import_module(module).sha256


def hashlib_imports():
    """``(path, line)`` of every import of ``hashlib`` / ``_hashlib`` under ``src/repro``."""
    found = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("hashlib", "_hashlib") for name in names):
                found.append((path.relative_to(PACKAGE_ROOT).as_posix(), node.lineno))
    return found


def test_no_module_imports_hashlib_but_the_helpers_fallback():
    fallback_line = next(
        number for number, line in enumerate(
            (PACKAGE_ROOT / "digest.py").read_text(encoding="utf-8").splitlines(), 1
        )
        if line.strip() == "from hashlib import sha256"
    )
    assert hashlib_imports() == [("digest.py", fallback_line)]
