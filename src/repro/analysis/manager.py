"""The analysis pass manager.

Two entry points:

* :func:`analyze_program` — run the compile pipeline
  (``access_normalize`` → ``generate_spmd``) on a source program, then
  every analysis pass over the artifacts.  This is what the ``repro
  analyze`` CLI uses; a pipeline failure becomes an ``ANA001`` error
  diagnostic instead of an exception, so one broken file never aborts a
  multi-file run.
* :func:`analyze_artifacts` — run the passes over artifacts the caller
  already produced (the fuzz oracle path: it has the
  :class:`NormalizationResult` and :class:`NodeProgram` in hand and must
  not pay for a second pipeline run).

Passes are isolated: one crashing pass produces an ``ANA002`` diagnostic
and the remaining passes still run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.analysis.bounds import BoundsPass
from repro.analysis.diagnostics import (
    AnalysisReport,
    Diagnostic,
    Severity,
    Span,
)
from repro.analysis.legality import LegalityPass
from repro.analysis.lint import LintPass
from repro.analysis.races import RacePass
from repro.errors import ReproError
from repro.ir.program import Program

if TYPE_CHECKING:
    from repro.codegen.spmd import NodeProgram
    from repro.core.normalize import NormalizationResult


@dataclass
class AnalysisContext:
    """Everything a pass may look at.

    ``result``/``node`` are ``None`` when the pipeline stage that produces
    them failed (or was skipped); passes must degrade gracefully.
    """

    program: Program
    result: Optional["NormalizationResult"] = None
    node: Optional["NodeProgram"] = None
    assumptions: Tuple[str, ...] = ()
    pipeline_error: Optional[str] = None
    notes: Tuple[str, ...] = field(default_factory=tuple)


class AnalysisPass(Protocol):
    """Interface of one analysis pass (structural; see the four passes)."""

    name: str

    def run(self, context: AnalysisContext) -> List[Diagnostic]:
        ...


def _forms_pass() -> AnalysisPass:
    from repro.analysis.forms import FormsPass

    return FormsPass()


def _kernels_pass() -> AnalysisPass:
    from repro.analysis.kernels import KernelPass

    return KernelPass()


#: The pass registry: name -> (description, factory), in execution
#: order.  ``legality``..``lint`` form the default pipeline; ``forms``
#: and ``kernels`` verify *derived artifacts* (tier-0 symbolic forms and
#: their generated evaluator code) and are opt-in via ``--passes`` — they
#: compile the artifacts they check, which the default lint run should
#: not pay for.
PASS_REGISTRY: Dict[str, Tuple[str, Callable[[], AnalysisPass]]] = {
    "legality": (
        "re-prove the transformation legal (LEG codes)",
        LegalityPass,
    ),
    "bounds": (
        "Fourier-Motzkin subscript bounds proofs (BND codes)",
        BoundsPass,
    ),
    "races": (
        "SPMD cross-processor race detection (RACE codes)",
        RacePass,
    ),
    "lint": (
        "structural lint of the normalized nest (LINT codes)",
        LintPass,
    ),
    "forms": (
        "verify + certify tier-0 symbolic forms against the "
        "closed-form engine (FORM codes)",
        _forms_pass,
    ),
    "kernels": (
        "sanitize the generated form-evaluator code (KERN codes)",
        _kernels_pass,
    ),
}

#: Pass names run when the user selects nothing explicitly.
DEFAULT_PASS_NAMES: Tuple[str, ...] = ("legality", "bounds", "races", "lint")


def available_passes() -> Tuple[Tuple[str, str], ...]:
    """``(name, description)`` rows for ``--list-passes``, in run order."""
    return tuple(
        (name, description) for name, (description, _) in PASS_REGISTRY.items()
    )


def resolve_passes(names: Iterable[str]) -> Tuple[AnalysisPass, ...]:
    """Instantiate the named passes, in registry (execution) order.

    Unknown names raise :class:`~repro.errors.ReproError` listing the
    registry — a typo must not silently run everything.
    """
    requested = [str(name).strip() for name in names]
    requested = [name for name in requested if name]
    unknown = sorted(set(requested) - set(PASS_REGISTRY))
    if unknown:
        known = ", ".join(PASS_REGISTRY)
        raise ReproError(
            f"unknown analysis pass(es): {', '.join(unknown)} "
            f"(available: {known})"
        )
    if not requested:
        raise ReproError("no analysis passes selected")
    chosen = set(requested)
    return tuple(
        factory()
        for name, (_description, factory) in PASS_REGISTRY.items()
        if name in chosen
    )


def default_passes() -> Tuple[AnalysisPass, ...]:
    """The standard pass pipeline, in execution order."""
    return resolve_passes(DEFAULT_PASS_NAMES)


def build_context(
    program: Program,
    *,
    priority: Optional[Sequence[str]] = None,
    assumptions: Optional[Sequence[str]] = None,
    schedule: str = "wrapped",
    block_transfers: bool = True,
    sync: bool = False,
) -> AnalysisContext:
    """Run the compile pipeline, capturing failures instead of raising.

    ``sync=False`` analyzes the node program exactly as ``repro compile``
    emits it (no synchronization events), so outer-carried dependences
    that survive normalization surface as race errors; ``sync=True``
    mirrors the fuzz oracle, which always inserts one sync event per
    carried dependence.
    """
    from repro.codegen.spmd import generate_spmd
    from repro.core.normalize import access_normalize
    from repro.ir.validate import validate_program

    facts = tuple(assumptions) if assumptions is not None else tuple(
        program.assumptions
    )
    context = AnalysisContext(program=program, assumptions=facts)
    try:
        validate_program(program)
        result = access_normalize(
            program, priority=priority, assumptions=facts or None
        )
        context.result = result
        context.notes = tuple(result.notes)
        context.node = generate_spmd(
            result.transformed,
            schedule=schedule,
            block_transfers=block_transfers,
            sync_events=result.outer_carried_count if sync else None,
        )
    except ReproError as error:
        context.pipeline_error = f"{type(error).__name__}: {error}"
    return context


def run_passes(
    context: AnalysisContext,
    *,
    passes: Optional[Sequence[AnalysisPass]] = None,
    suppressions: FrozenSet[str] = frozenset(),
) -> AnalysisReport:
    """Run every pass over ``context`` and assemble the report."""
    diagnostics: List[Diagnostic] = []
    if context.pipeline_error is not None:
        diagnostics.append(
            Diagnostic(
                "ANA001",
                Severity.ERROR,
                f"compilation pipeline failed: {context.pipeline_error}",
                Span(program=context.program.name),
            )
        )
    for analysis_pass in passes if passes is not None else default_passes():
        try:
            diagnostics.extend(analysis_pass.run(context))
        except Exception as error:  # noqa: BLE001 - a pass bug must not kill the run
            diagnostics.append(
                Diagnostic(
                    "ANA002",
                    Severity.ERROR,
                    f"analysis pass {analysis_pass.name!r} crashed: "
                    f"{type(error).__name__}: {error}",
                    Span(program=context.program.name),
                )
            )
    report = AnalysisReport(
        program_name=context.program.name, diagnostics=tuple(diagnostics)
    )
    return report.apply_suppressions(suppressions)


def analyze_program(
    program: Program,
    *,
    priority: Optional[Sequence[str]] = None,
    assumptions: Optional[Sequence[str]] = None,
    schedule: str = "wrapped",
    block_transfers: bool = True,
    sync: bool = False,
    passes: Optional[Sequence[AnalysisPass]] = None,
    suppressions: FrozenSet[str] = frozenset(),
) -> AnalysisReport:
    """Compile ``program`` and statically analyze every artifact."""
    context = build_context(
        program,
        priority=priority,
        assumptions=assumptions,
        schedule=schedule,
        block_transfers=block_transfers,
        sync=sync,
    )
    return run_passes(context, passes=passes, suppressions=suppressions)


def analyze_artifacts(
    program: Program,
    *,
    result: Optional["NormalizationResult"] = None,
    node: Optional["NodeProgram"] = None,
    assumptions: Optional[Sequence[str]] = None,
    passes: Optional[Sequence[AnalysisPass]] = None,
    suppressions: FrozenSet[str] = frozenset(),
) -> AnalysisReport:
    """Analyze artifacts the caller already produced (no pipeline re-run)."""
    facts = tuple(assumptions) if assumptions is not None else tuple(
        program.assumptions
    )
    context = AnalysisContext(
        program=program, result=result, node=node, assumptions=facts,
        notes=tuple(result.notes) if result is not None else (),
    )
    return run_passes(context, passes=passes, suppressions=suppressions)
