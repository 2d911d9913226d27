"""Content-addressed finding baselines: suppress the known, fail the new.

A baseline file records the *fingerprints* of accepted findings, so CI can
run ``repro lint --fail-on-new --baseline lint-baseline.json`` and fail only
when a finding appears that is not already on record.  Fingerprints hash
the finding's stable identity — target, code, location, message — through
the same canonical-JSON digest as the artifact cache, so they are identical
across runs, across ``--jobs`` values, and across daemon vs. CLI execution
(the analyzer is deterministic end to end).

The file format is deliberately reviewable::

    {
      "schema": 1,
      "findings": {
        "<fingerprint>": {
          "target": "...", "code": "LINT00x", "location": "...",
          "message": "...", "justification": "..."
        }
      }
    }

``justification`` is free-form and written by whoever accepts the finding.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from ..checks.diagnostics import Diagnostic
from ..pipeline.cache import content_key

BASELINE_SCHEMA = 1

#: partialFingerprints key used in SARIF output (versioned: bump when the
#: fingerprint recipe changes).
FINGERPRINT_KEY = "reproLint/v1"


def finding_fingerprint(target: str, diag: Diagnostic) -> str:
    """Stable content digest of one finding's identity.

    Includes the target so the same defect in two workloads baselines
    independently; excludes severity, hints, and path evidence so cosmetic
    re-wordings of provenance do not churn baselines.  The recipe is
    versioned by :data:`FINGERPRINT_KEY`, so it stays hashed under the
    artifact-cache schema it was introduced with (1): a cache schema bump
    leaves committed baselines valid.
    """
    return content_key(
        "lint-finding",
        target,
        diag.code,
        diag.function,
        diag.block,
        diag.instr,
        diag.message,
        schema=1,
    )


@dataclass
class Baseline:
    """An accepted-findings ledger keyed by fingerprint."""

    findings: dict[str, dict] = field(default_factory=dict)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.findings

    def __len__(self) -> int:
        return len(self.findings)

    def justification(self, fingerprint: str) -> str:
        entry = self.findings.get(fingerprint, {})
        return entry.get("justification", "")

    def record(
        self, target: str, diag: Diagnostic, justification: str = ""
    ) -> str:
        fp = finding_fingerprint(target, diag)
        self.findings[fp] = {
            "target": target,
            "code": diag.code,
            "location": diag.location(),
            "message": diag.message,
            "justification": justification,
        }
        return fp

    def to_dict(self) -> dict:
        return {
            "schema": BASELINE_SCHEMA,
            "findings": {
                fp: self.findings[fp] for fp in sorted(self.findings)
            },
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "Baseline":
        schema = d.get("schema")
        if schema != BASELINE_SCHEMA:
            raise ValueError(f"unsupported baseline schema {schema!r}")
        findings = d.get("findings", {})
        if not isinstance(findings, dict):
            raise ValueError("baseline 'findings' must be an object")
        return cls(findings=dict(findings))

    @classmethod
    def load(cls, path: str) -> "Baseline":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path: str) -> None:
        """Atomic write (mkstemp + replace), matching the artifact cache."""
        directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def partition(
    findings: Iterable[tuple[str, Diagnostic]],
    baseline: Optional[Baseline],
) -> tuple[list[tuple[str, Diagnostic]], list[tuple[str, Diagnostic]]]:
    """Split ``(target, finding)`` pairs into (new, suppressed)."""
    new: list[tuple[str, Diagnostic]] = []
    suppressed: list[tuple[str, Diagnostic]] = []
    for target, diag in findings:
        if baseline is not None and finding_fingerprint(target, diag) in baseline:
            suppressed.append((target, diag))
        else:
            new.append((target, diag))
    return new, suppressed


def baseline_of(
    findings: Iterable[tuple[str, Diagnostic]], justification: str = ""
) -> Baseline:
    """A fresh baseline accepting every given finding."""
    baseline = Baseline()
    for target, diag in findings:
        baseline.record(target, diag, justification)
    return baseline


__all__ = [
    "BASELINE_SCHEMA",
    "FINGERPRINT_KEY",
    "Baseline",
    "baseline_of",
    "finding_fingerprint",
    "partition",
]
