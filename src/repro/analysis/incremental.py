"""Incremental lint cache: per-module fingerprints, raw-finding payloads.

Whole-program analysis re-reads the entire tree on every lint run; this
cache makes the common case -- nothing or almost nothing changed --
cheap without ever changing the output.  It follows the
``repro.core.cache`` disk-store conventions (versioned directory under
``.duet-cache``, ``DUET_CACHE_DIR`` root override, ``DUET_CACHE_DISK=0``
kill switch, atomic pid-tmp + ``os.replace`` writes) but deliberately
does not *import* ``repro.core``: the linter sits at layer 0 and may
depend on nothing it lints (LAY001).

Correctness model -- why a hit is always byte-identical to a cold run:

- cached values are **raw** findings (pre-suppression, pre-baseline),
  serialized with :meth:`~repro.analysis.findings.Finding.to_payload`;
  suppression and baseline filtering always run in the parent, so a
  policy change never needs to invalidate anything;
- every key mixes in the **engine digest** -- a fingerprint of the
  ``repro.analysis`` package's own sources -- so editing any rule, the
  engine, or this file orphans every prior entry;
- per-module keys mix the module's source bytes and the contents of all
  active per-file rules' declared ``context_files`` (the parity
  suite), so context edits invalidate too;
- whole-program (project-rule) results key on a digest of *every*
  module's source in the program plus the project rules' context files.

Keys are content fingerprints only -- no timestamps, no paths outside
the payload -- so any process on the machine may share the store, and a
corrupt or truncated entry reads as a miss, never as wrong output.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.analysis.findings import Finding

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_DISK_ENV",
    "CACHE_SCHEMA_VERSION",
    "IncrementalCache",
    "engine_digest",
]

#: environment variable overriding the store's root directory (shared
#: convention with ``repro.core.cache``).
CACHE_DIR_ENV = "DUET_CACHE_DIR"

#: environment variable disabling the disk store entirely (``0``/``false``).
CACHE_DISK_ENV = "DUET_CACHE_DISK"

#: versioned subdirectory; bump when the payload format changes so old
#: entries are orphaned instead of misread.
CACHE_SCHEMA_VERSION = "duetlint-v1"


def _digest() -> "hashlib._Hash":
    return hashlib.blake2b(digest_size=16)


def engine_digest() -> str:
    """Fingerprint of the ``repro.analysis`` package's own sources.

    Mixed into every cache key: any edit to the engine, a rule, or the
    cache itself must orphan all prior entries, because findings are a
    function of the analyzer as much as of the analyzed tree.
    """
    package_dir = Path(__file__).resolve().parent
    digest = _digest()
    for path in sorted(package_dir.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        digest.update(path.relative_to(package_dir).as_posix().encode())
        digest.update(b"\x00")
        try:
            digest.update(path.read_bytes())
        except OSError:
            digest.update(b"<unreadable>")
        digest.update(b"\x00")
    return digest.hexdigest()


def _enabled_by_env() -> bool:
    flag = os.environ.get(CACHE_DISK_ENV, "1").strip().lower()
    return flag not in ("0", "false", "no", "off")


class IncrementalCache:
    """Disk-backed store of raw lint findings, keyed by content.

    Args:
        root: lint root; the store lives under ``<root>/.duet-cache/``
            unless ``DUET_CACHE_DIR`` overrides the base directory.
        enabled: force-disable with False; also honours
            ``DUET_CACHE_DISK=0``.

    Attributes:
        hits: entries served from disk this run.
        misses: entries recomputed (and stored) this run.
    """

    def __init__(self, root: str | Path, enabled: bool = True):
        base = os.environ.get(CACHE_DIR_ENV)
        base_path = Path(base) if base else Path(root) / ".duet-cache"
        self.directory = base_path / CACHE_SCHEMA_VERSION
        self.enabled = enabled and _enabled_by_env()
        self.hits = 0
        self.misses = 0

    # -- keys --------------------------------------------------------------

    @staticmethod
    def module_key(
        engine: str, rule_codes: list[str], context: str, relpath: str, source: str
    ) -> str:
        """Key of one module's raw per-file-rule findings."""
        digest = _digest()
        for part in (engine, ",".join(sorted(rule_codes)), context, relpath):
            digest.update(part.encode())
            digest.update(b"\x00")
        digest.update(source.encode())
        return f"module-{digest.hexdigest()}"

    @staticmethod
    def program_key(engine: str, rule_codes: list[str], program_digest: str) -> str:
        """Key of the whole-program (project-rule) raw findings."""
        digest = _digest()
        for part in (engine, ",".join(sorted(rule_codes)), program_digest):
            digest.update(part.encode())
            digest.update(b"\x00")
        return f"program-{digest.hexdigest()}"

    @staticmethod
    def content_digest(parts: list[tuple[str, str]]) -> str:
        """Digest of sorted ``(label, content)`` pairs (context/program)."""
        digest = _digest()
        for label, content in sorted(parts):
            digest.update(label.encode())
            digest.update(b"\x00")
            digest.update(content.encode())
            digest.update(b"\x00")
        return digest.hexdigest()

    # -- store -------------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> list[Finding] | None:
        """Cached findings for ``key``, or None on miss/corruption."""
        if not self.enabled:
            return None
        try:
            payload = json.loads(self._path(key).read_text())
            findings = [Finding.from_payload(entry) for entry in payload]
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return findings

    def store(self, key: str, findings: list[Finding]) -> None:
        """Atomically persist ``findings`` under ``key``."""
        if not self.enabled:
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = self.directory / f"{key}.{os.getpid()}.tmp"
            tmp.write_text(
                json.dumps([f.to_payload() for f in findings], sort_keys=True)
            )
            os.replace(tmp, self._path(key))
        except OSError:
            pass  # a cache that cannot write is merely cold
