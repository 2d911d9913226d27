"""Structured diagnostics: the currency of the checker layer.

Every checker and lint pass reports findings as :class:`Diagnostic` records
collected into a :class:`Diagnostics` sink — *collect-all* semantics, unlike
the historical raise-on-first :class:`~repro.ir.validate.ValidationError`
path (which is now a thin wrapper over these records).

A diagnostic carries a stable machine-readable ``code`` (see
``docs/CHECKS.md`` for the full registry and the paper theorem/lemma each
code encodes), a :class:`Severity`, a location (function / block / instruction
index), a human message, and an optional fix hint.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from enum import IntEnum
from typing import Iterable, Iterator, Optional


class Severity(IntEnum):
    """Diagnostic severity, ordered so ``max()`` picks the worst."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class FixHint:
    """A machine-readable pointer at the transformation that resolves a
    finding (e.g. the ``opt/straighten.py`` pass for a constant branch).

    Frozen and scalar-only so :class:`Diagnostic` stays hashable — findings
    are deduplicated through a ``set`` when merged across pool workers.
    """

    #: Transformation name (``straighten``, ``dce``, ``copy_prop``, ...).
    transform: str
    #: Dotted module implementing the transformation.
    module: str
    #: One-line description of what applying it would do here.
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FixHint":
        return cls(
            transform=d["transform"],
            module=d["module"],
            detail=d.get("detail", ""),
        )


@dataclass(frozen=True)
class PathEvidence:
    """Profile-mass provenance for a path-qualified finding.

    Attached by the ``LINT005``–``LINT010`` analyzer passes: how much of the
    training profile's mass flows through the hot-path-graph duplicates that
    support the finding, which hot paths contribute, and what the iterative
    (MFP) versus qualified analyses each concluded — the paper's Theorem-1
    sharpening delta, visible in a diagnostic.
    """

    #: Fraction of the block's profile mass on the supporting duplicates.
    mass: float
    #: Indices (into the routine's hot-path list) of contributing paths.
    hot_paths: tuple[int, ...] = ()
    #: Supporting hot-path-graph duplicates of the block.
    supporting: int = 0
    #: Total hot-path-graph duplicates of the block.
    duplicates: int = 0
    #: What the iterative (whole-CFG) analysis concluded at this site.
    iterative: str = ""
    #: What the path-qualified analysis concluded on the supporting copies.
    qualified: str = ""
    #: True when the qualified fact is strictly sharper than the iterative
    #: one (the finding exists *only* because of path qualification).
    sharper: bool = False

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hot_paths"] = list(self.hot_paths)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PathEvidence":
        return cls(
            mass=float(d["mass"]),
            hot_paths=tuple(int(i) for i in d.get("hot_paths", ())),
            supporting=int(d.get("supporting", 0)),
            duplicates=int(d.get("duplicates", 0)),
            iterative=d.get("iterative", ""),
            qualified=d.get("qualified", ""),
            sharper=bool(d.get("sharper", False)),
        )


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a checker or lint pass."""

    code: str
    severity: Severity
    message: str
    #: Routine the finding is located in (None for module-level findings).
    function: Optional[str] = None
    #: Block label or (stringified) graph vertex, when known.
    block: Optional[str] = None
    #: Instruction index within the block, when known.
    instr: Optional[int] = None
    #: A short suggestion for fixing the finding.
    hint: Optional[str] = None
    #: Machine-readable fix transformation, when one applies.
    fix_hint: Optional[FixHint] = None
    #: Profile-mass provenance (path-qualified analyzer findings only).
    path_evidence: Optional[PathEvidence] = None

    @property
    def mass(self) -> Optional[float]:
        """Profile-mass fraction supporting this finding (ranking key)."""
        return self.path_evidence.mass if self.path_evidence else None

    def location(self) -> str:
        """``function:block:instr`` with absent parts omitted."""
        parts = [p for p in (self.function, self.block) if p]
        if self.instr is not None:
            parts.append(str(self.instr))
        return ":".join(parts)

    def format(self) -> str:
        """One display line: ``error IR003 work:B: missing terminator``."""
        loc = self.location()
        line = f"{self.severity.label} {self.code}"
        if self.path_evidence is not None:
            line += f" [mass {self.path_evidence.mass:.0%}]"
        if loc:
            line += f" {loc}:"
        line += f" {self.message}"
        if self.hint:
            line += f" (hint: {self.hint})"
        if self.fix_hint is not None:
            line += f" (fix: {self.fix_hint.transform})"
        return line

    def to_dict(self) -> dict:
        d = asdict(self)
        d["severity"] = self.severity.label
        if self.fix_hint is not None:
            d["fix_hint"] = self.fix_hint.to_dict()
        if self.path_evidence is not None:
            d["path_evidence"] = self.path_evidence.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Diagnostic":
        fix_hint = d.get("fix_hint")
        path_evidence = d.get("path_evidence")
        return cls(
            code=d["code"],
            severity=Severity[d["severity"].upper()],
            message=d["message"],
            function=d.get("function"),
            block=d.get("block"),
            instr=d.get("instr"),
            hint=d.get("hint"),
            fix_hint=None if fix_hint is None else FixHint.from_dict(fix_hint),
            path_evidence=(
                None
                if path_evidence is None
                else PathEvidence.from_dict(path_evidence)
            ),
        )


class Diagnostics:
    """An append-only collection of diagnostics.

    Checkers *emit into* a shared sink instead of raising, so one run
    surfaces every violation at once.  The collection is picklable and
    JSON-serializable, so diagnostics survive the artifact cache and the
    process-pool boundary of :class:`~repro.pipeline.ParallelDriver`.
    """

    def __init__(self, records: Iterable[Diagnostic] = ()) -> None:
        self._records: list[Diagnostic] = list(records)

    # -- recording ---------------------------------------------------------

    def emit(
        self,
        code: str,
        severity: Severity,
        message: str,
        *,
        function: Optional[str] = None,
        block: Optional[str] = None,
        instr: Optional[int] = None,
        hint: Optional[str] = None,
        fix_hint: Optional[FixHint] = None,
        path_evidence: Optional[PathEvidence] = None,
    ) -> Diagnostic:
        d = Diagnostic(
            code=code,
            severity=severity,
            message=message,
            function=function,
            block=None if block is None else str(block),
            instr=instr,
            hint=hint,
            fix_hint=fix_hint,
            path_evidence=path_evidence,
        )
        self._records.append(d)
        return d

    def add(self, diagnostic: Diagnostic) -> None:
        self._records.append(diagnostic)

    def extend(self, other: "Diagnostics | Iterable[Diagnostic]") -> None:
        self._records.extend(other)

    # -- queries -----------------------------------------------------------

    @property
    def records(self) -> tuple[Diagnostic, ...]:
        return tuple(self._records)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __bool__(self) -> bool:
        return bool(self._records)

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self._records if d.severity >= Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self._records if d.severity == Severity.WARNING)

    @property
    def has_errors(self) -> bool:
        return any(d.severity >= Severity.ERROR for d in self._records)

    def codes(self) -> set[str]:
        return {d.code for d in self._records}

    def filter(
        self,
        code: Optional[str] = None,
        severity: Optional[Severity] = None,
        function: Optional[str] = None,
    ) -> "Diagnostics":
        """Sub-collection matching all given criteria."""
        return Diagnostics(
            d
            for d in self._records
            if (code is None or d.code == code)
            and (severity is None or d.severity == severity)
            and (function is None or d.function == function)
        )

    def counts(self) -> dict[str, int]:
        """Record counts keyed by severity label (all labels present)."""
        out = {s.label: 0 for s in Severity}
        for d in self._records:
            out[d.severity.label] += 1
        return out

    def summary(self) -> str:
        c = self.counts()
        return (
            f"{c['error']} error(s), {c['warning']} warning(s), "
            f"{c['info']} info"
        )

    # -- rendering / transport ---------------------------------------------

    def render_text(self, limit: Optional[int] = None) -> str:
        """Multi-line text report: one line per finding plus a summary."""
        shown = self._records if limit is None else self._records[:limit]
        lines = [d.format() for d in shown]
        if limit is not None and len(self._records) > limit:
            lines.append(f"... and {len(self._records) - limit} more")
        lines.append(self.summary())
        return "\n".join(lines)

    def to_dicts(self) -> list[dict]:
        return [d.to_dict() for d in self._records]

    def to_json(self) -> str:
        return json.dumps(
            {"diagnostics": self.to_dicts(), "counts": self.counts()},
            indent=2,
        )

    @classmethod
    def from_dicts(cls, dicts: Iterable[dict]) -> "Diagnostics":
        return cls(Diagnostic.from_dict(d) for d in dicts)

    def exit_code(self, fail_on: str = "error") -> int:
        """Severity-based process exit code.

        ``error`` findings exit 2; ``warning`` findings exit 1 when
        ``fail_on="warning"``; ``fail_on="never"`` always exits 0.
        """
        if fail_on not in ("error", "warning", "never"):
            raise ValueError(f"bad fail_on {fail_on!r}")
        if fail_on == "never":
            return 0
        if self.has_errors:
            return 2
        if fail_on == "warning" and self.warnings:
            return 1
        return 0

    def __repr__(self) -> str:
        return f"Diagnostics({self.summary()})"


__all__ = ["Severity", "Diagnostic", "Diagnostics", "FixHint", "PathEvidence"]
