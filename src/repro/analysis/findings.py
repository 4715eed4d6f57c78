"""Finding records emitted by the duetlint rules.

A :class:`Finding` pins one rule violation to a ``path:line:col``
location.  Its :attr:`~Finding.fingerprint` deliberately ignores the
line *number* and hashes the line *text* instead, so baselined findings
survive unrelated edits above them in the file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

__all__ = ["SEVERITIES", "Finding"]

#: Recognised severities, in increasing order of strictness.  ``error``
#: findings fail the lint run (exit 1); ``warning`` findings are
#: reported but do not change the exit status unless ``--strict``.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        path: file containing the violation, ``/``-separated and
            relative to the lint root.
        line: 1-based line number.
        col: 0-based column offset.
        rule: rule code, e.g. ``DET001``.
        message: human-readable description of the violation.
        severity: ``error`` or ``warning``.
        line_text: the stripped source line, used for fingerprinting.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = "error"
    line_text: str = field(default="", compare=False)

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    @property
    def fingerprint(self) -> str:
        """Stable identity used by the baseline: rule + path + line text.

        Line numbers are excluded on purpose -- inserting a line above a
        grandfathered finding must not un-baseline it.  Two identical
        violations on textually identical lines of the same file share a
        fingerprint and are grandfathered together; that is the accepted
        trade-off of text-based matching.
        """
        digest = hashlib.sha256(
            f"{self.rule}\x00{self.path}\x00{self.line_text.strip()}".encode()
        ).hexdigest()
        return f"{self.rule}:{digest[:16]}"

    def format(self) -> str:
        """``path:line:col: CODE [severity] message`` (the text format)."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )

    def as_dict(self) -> dict:
        """JSON-ready representation (used by ``--format=json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }
