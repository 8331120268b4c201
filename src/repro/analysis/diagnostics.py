"""The structured diagnostics the static analyzer reports.

Every finding is a :class:`Diagnostic`: a stable code (``LEG002``,
``BND001``, ``RACE001``, ...), a severity, a human-readable message and a
:class:`Span` locating it in the IR (program / loop / statement /
reference).  Codes are stable across releases so suppressions and CI
gating can rely on them; the catalogue lives in :data:`CODES` and is
documented in ``docs/analysis.md``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple


class Severity(IntEnum):
    """Diagnostic severity, ordered so comparisons mean what they say."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        """Lower-case name used in text and JSON output."""
        return self.name.lower()

    @staticmethod
    def from_label(label: str) -> "Severity":
        """Parse ``"info"``/``"warning"``/``"error"`` (CLI ``--fail-on``)."""
        try:
            return Severity[label.upper()]
        except KeyError:
            raise ValueError(f"unknown severity {label!r}") from None


#: The stable diagnostic-code catalogue.  One entry per code; the analyzer
#: never emits a code that is not listed here (enforced by the Diagnostic
#: constructor), so docs, suppressions and tests cannot drift.
CODES: Mapping[str, str] = {
    # legality verifier ------------------------------------------------
    "LEG001": "transformation matrix is not invertible over the integers",
    "LEG002": "a transformed dependence distance is not lexicographically positive",
    "LEG003": "loop stride/alignment inconsistent with the image lattice HNF",
    "LEG004": "a direction-vector dependence is not provably preserved",
    # static bounds checker --------------------------------------------
    "BND001": "subscript provably exceeds the array extent (witness iteration)",
    "BND002": "subscript cannot be proven within the array extent",
    "BND003": "subscript takes a non-integral value on the iteration lattice",
    # SPMD race / communication checker --------------------------------
    "RACE001": "cross-processor write-write conflict on the distributed loop",
    "RACE002": "cross-processor read-write conflict on the distributed loop",
    "RACE003": "block transfer of an array whose distributed loop carries a dependence",
    "RACE004": "distributed-loop dependence covered by per-iteration synchronization",
    # lint -------------------------------------------------------------
    "LINT001": "access-matrix row not carried into the transformation",
    "LINT002": "loop index unused by the loop body",
    "LINT003": "guard condition is provably constant",
    "LINT004": "distribution-dimension subscript is not normal after normalization",
    # symbolic-form verifier -------------------------------------------
    "FORM001": "unsimplified or ill-formed Mod/FloorDiv atom in a derived form",
    "FORM002": "count form takes a non-integral value at an integer grid point",
    "FORM003": "residual BoundedSum loops push evaluation past the auto cost ceiling",
    "FORM004": "form mentions a symbol outside (params, P, proc)",
    "FORM005": "form disagrees with the closed-form engine at a certificate grid point",
    "FORM006": "symbolic tier unavailable for this nest (informational)",
    "FORM007": "certificate grid exceeds the verification budget; form unverified",
    # kernel sanitizer -------------------------------------------------
    "KERN001": "loop-invariant computation inside a generated loop (hoistable)",
    "KERN002": "generated kernel assigns a local that is never read",
    "KERN003": "dead branch in a generated kernel (constant or duplicated test)",
    # analyzer plumbing ------------------------------------------------
    "ANA001": "the compilation pipeline failed before analysis could run",
    "ANA002": "an analysis pass crashed (analyzer bug)",
}


@dataclass(frozen=True)
class Span:
    """Where in the IR a diagnostic points.

    All fields are optional: a whole-program finding carries only the
    program name, a per-reference finding names the statement index and
    the rendered reference, a per-loop finding names the loop index.
    """

    program: str = ""
    loop: Optional[str] = None
    statement: Optional[int] = None
    reference: Optional[str] = None

    def describe(self) -> str:
        """Readable location, e.g. ``gemm: loop u, statement 0, B[k, j]``."""
        parts: List[str] = []
        if self.loop is not None:
            parts.append(f"loop {self.loop}")
        if self.statement is not None:
            parts.append(f"statement {self.statement}")
        if self.reference is not None:
            parts.append(self.reference)
        location = ", ".join(parts)
        if self.program and location:
            return f"{self.program}: {location}"
        return self.program or location

    def to_dict(self) -> Dict[str, object]:
        """JSON-stable representation (``None`` fields omitted)."""
        data: Dict[str, object] = {"program": self.program}
        if self.loop is not None:
            data["loop"] = self.loop
        if self.statement is not None:
            data["statement"] = self.statement
        if self.reference is not None:
            data["reference"] = self.reference
        return data


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding."""

    code: str
    severity: Severity
    message: str
    span: Span = field(default_factory=Span)

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    def format(self) -> str:
        """One-line text rendering: ``[CODE] severity: message (span)``."""
        location = self.span.describe()
        suffix = f" ({location})" if location else ""
        return f"[{self.code}] {self.severity.label}: {self.message}{suffix}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-stable representation."""
        return {
            "code": self.code,
            "severity": self.severity.label,
            "message": self.message,
            "span": self.span.to_dict(),
        }


@dataclass(frozen=True)
class AnalysisReport:
    """Every diagnostic the pass pipeline produced for one program.

    ``suppressed`` keeps findings dropped by ``# analyze: ignore[CODE]``
    markers so output can still account for them.
    """

    program_name: str
    diagnostics: Tuple[Diagnostic, ...] = ()
    suppressed: Tuple[Diagnostic, ...] = ()

    def count(self, severity: Severity) -> int:
        """How many (unsuppressed) diagnostics have exactly ``severity``."""
        return sum(1 for diag in self.diagnostics if diag.severity == severity)

    @property
    def has_errors(self) -> bool:
        """True when any unsuppressed diagnostic is an error."""
        return any(d.severity >= Severity.ERROR for d in self.diagnostics)

    @property
    def error_codes(self) -> Tuple[str, ...]:
        """Sorted unique codes of error-level diagnostics."""
        return tuple(
            sorted({d.code for d in self.diagnostics if d.severity >= Severity.ERROR})
        )

    def at_or_above(self, severity: Severity) -> Tuple[Diagnostic, ...]:
        """Unsuppressed diagnostics at or above ``severity``."""
        return tuple(d for d in self.diagnostics if d.severity >= severity)

    def apply_suppressions(self, codes: FrozenSet[str]) -> "AnalysisReport":
        """Move diagnostics whose code is in ``codes`` to ``suppressed``."""
        if not codes:
            return self
        kept = tuple(d for d in self.diagnostics if d.code not in codes)
        dropped = tuple(d for d in self.diagnostics if d.code in codes)
        return AnalysisReport(
            program_name=self.program_name,
            diagnostics=kept,
            suppressed=self.suppressed + dropped,
        )

    def render_text(self, heading: Optional[str] = None) -> str:
        """Readable multi-line report for one program."""
        title = heading if heading is not None else self.program_name
        if not self.diagnostics:
            tail = (
                f" ({len(self.suppressed)} suppressed)" if self.suppressed else ""
            )
            return f"{title}: clean{tail}"
        lines = [f"{title}: {len(self.diagnostics)} diagnostic(s)"]
        for diag in self.diagnostics:
            lines.append(f"  {diag.format()}")
        if self.suppressed:
            lines.append(f"  ({len(self.suppressed)} suppressed)")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-stable representation of the whole report."""
        return {
            "program": self.program_name,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "suppressed": [d.to_dict() for d in self.suppressed],
            "counts": {
                severity.label: self.count(severity) for severity in Severity
            },
        }


#: Inline suppression marker scanned from raw DSL source text (the DSL
#: parser strips comments, so suppressions are collected separately).
_SUPPRESS_RE = re.compile(r"#\s*analyze:\s*ignore\[([A-Za-z0-9_,\s]+)\]")


def collect_suppressions(source: str) -> FrozenSet[str]:
    """Codes suppressed by ``# analyze: ignore[CODE, ...]`` markers.

    Suppressions are file-scoped: the DSL has a single loop nest, so a
    finer granularity would not buy anything.  Unknown codes raise —
    a typo in a suppression should not silently disable nothing.
    """
    codes: List[str] = []
    for match in _SUPPRESS_RE.finditer(source):
        for item in match.group(1).split(","):
            code = item.strip().upper()
            if not code:
                continue
            if code not in CODES:
                raise ValueError(
                    f"suppression names unknown diagnostic code {code!r}"
                )
            codes.append(code)
    return frozenset(codes)


def normalize_suppressions(codes: Iterable[str]) -> FrozenSet[str]:
    """Validate an explicit suppression list (JSON corpus entries, CLI)."""
    result: List[str] = []
    for item in codes:
        code = str(item).strip().upper()
        if code not in CODES:
            raise ValueError(f"suppression names unknown diagnostic code {code!r}")
        result.append(code)
    return frozenset(result)
