"""Static analysis: legality, bounds, race, lint, form and kernel passes.

The package independently *rechecks* what the compilation pipeline
claims — the legality verifier re-proves the transformation legal, the
bounds checker proves subscripts within extents via Fourier-Motzkin, the
race checker inspects the emitted SPMD node program, and the lint pass
surfaces surprising-but-legal outcomes.  Two opt-in passes extend the
recheck to *derived artifacts*: the symbolic-form verifier certifies the
tier-0 quasi-polynomial forms against the closed-form engine on a
finite interpolation grid, and the kernel sanitizer reviews the Python
text of the generated form evaluator.  See ``docs/analysis.md``.
"""

from repro.analysis.bounds import BoundsPass
from repro.analysis.diagnostics import (
    CODES,
    AnalysisReport,
    Diagnostic,
    Severity,
    Span,
    collect_suppressions,
    normalize_suppressions,
)
from repro.analysis.forms import FormCertificate, FormsPass, certify_node
from repro.analysis.kernels import KernelPass, sanitize_generated_source
from repro.analysis.legality import LegalityPass
from repro.analysis.lint import LintPass
from repro.analysis.manager import (
    AnalysisContext,
    AnalysisPass,
    analyze_artifacts,
    analyze_program,
    available_passes,
    build_context,
    default_passes,
    resolve_passes,
    run_passes,
)
from repro.analysis.races import RacePass

__all__ = [
    "AnalysisContext",
    "AnalysisPass",
    "AnalysisReport",
    "BoundsPass",
    "CODES",
    "Diagnostic",
    "FormCertificate",
    "FormsPass",
    "KernelPass",
    "LegalityPass",
    "LintPass",
    "RacePass",
    "Severity",
    "Span",
    "analyze_artifacts",
    "analyze_program",
    "available_passes",
    "build_context",
    "certify_node",
    "collect_suppressions",
    "default_passes",
    "normalize_suppressions",
    "resolve_passes",
    "run_passes",
    "sanitize_generated_source",
]
