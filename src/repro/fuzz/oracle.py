"""The differential-testing oracle.

For one program spec, runs the full pipeline (``core.access_normalize`` →
``codegen.generate_spmd``) and checks, against the reference interpreter
(the library's documented semantic ground truth):

1. **Transformed equivalence** — interpreting the normalized program over
   identically seeded arrays produces bit-identical array contents;
2. **Node-program equivalence** — the SPMD node program's nest (sequential
   union semantics, prologue block reads included) is also bit-identical;
3. **Parallel execution** — when the distributed outer loop carries no
   dependence, executing the node program processor by processor in the
   NUMA simulator's ``execute`` mode reproduces the sequential result at
   every processor count;
4. **Accounting conservation** — across processor counts and schedules the
   simulator's counters are non-negative, ``local + remote`` equals the
   per-iteration access count times the iteration count (every access is
   charged exactly once), iteration/statement totals match the sequential
   interpreter, and a single processor sees no remote traffic at all;
5. **Tier equivalence** — the symbolic and closed-form accounting
   engines, wherever they accept the nest, reproduce the interpreter walk's
   per-processor :class:`AccessCounts` bit for bit.  A disagreement is
   reported with its own status, ``"tier-mismatch"``, because it is an
   engine bug rather than a semantics bug;
6. **Form certification** — each schedule's symbolic forms (when the nest
   has a tier 0) get a :class:`~repro.analysis.forms.FormCertificate`
   proving them identical to the closed-form engine on an interpolation
   grid.  The verdict is recorded (``certified``: ``yes`` / ``no`` /
   ``unverified`` / ``n/a``); a failed certificate is its own status,
   ``"form-uncertified"``, while an over-budget grid stays an honest
   ``unverified``, not a failure.

Arrays are seeded with small integers (``init="smallint"``), and the
generator only multiplies read-only values, so float64 arithmetic is exact
and ``ok`` really means *equal*, not *close*.

The oracle also cross-checks the :mod:`repro.analysis` static analyzer:
every case records the analyzer's verdict over the same artifacts
(``static``), and a dynamic mismatch on a case the analyzer called clean
is reported with status ``"inconsistent"`` instead of ``"mismatch"`` —
the invariant CI enforces is *analyzer clean ⇒ oracle match*.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.codegen.spmd import NodeProgram, generate_spmd
from repro.core.normalize import access_normalize
from repro.ir.interp import allocate_arrays, execute
from repro.ir.program import Program
from repro.ir.stmt import Assign
from repro.numa.simulator import simulate
from repro.fuzz.generator import generate_spec
from repro.fuzz.spec import ProgramSpec, SpecError

#: Processor counts every program is checked at.
DEFAULT_PROCS = (1, 2, 3, 4)
#: Outer-loop schedules exercised for the accounting checks.
DEFAULT_SCHEDULES = ("wrapped", "blocked")
#: Array-content RNG seed (independent of the program-shape seed).
ARRAY_SEED = 20240406


@dataclass
class CheckResult:
    """The oracle's verdict on one program."""

    ok: bool
    status: str  # "ok" | "mismatch" | "inconsistent" | "crash" | "invalid"
    stage: str = ""
    detail: str = ""
    checks: int = 0  # individual assertions that ran
    program_name: str = ""
    notes: Tuple[str, ...] = ()
    static: str = ""  # "clean" | "flagged:CODE,..." | "analyzer-crash: ..."
    certified: str = ""  # "yes" | "no" | "unverified" | "n/a"


@dataclass
class FuzzRecord:
    """One fuzz case's outcome, as returned by :func:`fuzz_task`.

    Plain picklable data: the parallel fuzz driver ships these back from
    worker processes and merges them in index order.
    """

    index: int
    seed: int
    status: str
    stage: str = ""
    detail: str = ""
    checks: int = 0
    spec: Optional[Dict] = None  # spec dict, kept only for failures
    static: str = ""  # static-analyzer verdict for the same artifacts
    certified: str = ""  # symbolic-form certificate verdict

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class _Mismatch(Exception):
    """Internal control flow: an oracle comparison failed."""

    def __init__(self, stage: str, detail: str):
        super().__init__(detail)
        self.stage = stage
        self.detail = detail


class _TierMismatch(_Mismatch):
    """Two accounting engines disagreed on a count (status ``tier-mismatch``)."""


class _FormUncertified(_Mismatch):
    """A symbolic form failed its certificate (status ``form-uncertified``).

    Distinct from :class:`_TierMismatch`: the tier check compares engines
    at the handful of swept cells, while the certificate compares the
    form against the closed-form engine on the full interpolation grid —
    a *derivation* bug can pass the former and fail only here.
    """


class _TunerIllegal(_Mismatch):
    """The autotuner emitted an illegal transformation (status
    ``tuner-illegal``): its pruner admitted a candidate that the analysis
    legality pass rejects over the materialized artifacts."""


def _fresh_arrays(program: Program):
    return allocate_arrays(program, init="smallint", seed=ARRAY_SEED)


def _forced_simulate(node: NodeProgram, processors: int, engine: str):
    """Simulate with a forced tier, or None when the tier rejects the nest.

    A rejection (e.g. guarded body for the closed-form engine) is
    legitimate — tier coverage is a performance property, not a
    correctness one — so it is skipped rather than reported.
    """
    from repro.errors import SimulationError

    try:
        return simulate(node, processors=processors, engine=engine)
    except SimulationError:
        return None


def _compare_arrays(stage: str, expected, actual) -> None:
    if expected.keys() != actual.keys():
        raise _Mismatch(stage, "array sets differ")
    for name in sorted(expected):
        if not np.array_equal(expected[name], actual[name]):
            delta = np.argwhere(expected[name] != actual[name])
            first = tuple(int(v) for v in delta[0]) if len(delta) else ()
            raise _Mismatch(
                stage,
                f"array {name!r} differs at {len(delta)} element(s), "
                f"first at index {first}",
            )


def _per_iteration_accesses(node: NodeProgram) -> int:
    """How many array accesses one innermost-body execution performs."""
    total = 0
    for statement in node.nest.body:
        if isinstance(statement, Assign):
            total += 1 + len(statement.rhs.references())
        else:  # guarded bodies do not occur on the generate_spmd path
            total += len(statement.array_refs())
    return total


def _static_verdict(program: Program, result, node) -> str:
    """The static analyzer's verdict over already-produced artifacts."""
    from repro.analysis.manager import analyze_artifacts

    try:
        report = analyze_artifacts(program, result=result, node=node)
    except Exception as error:  # noqa: BLE001 - analyzer bugs are findings too
        return f"analyzer-crash: {type(error).__name__}: {error}"
    if report.has_errors:
        return "flagged:" + ",".join(report.error_codes)
    return "clean"


def check_program(
    program: Program,
    *,
    procs: Tuple[int, ...] = DEFAULT_PROCS,
    schedules: Tuple[str, ...] = DEFAULT_SCHEDULES,
    tune: bool = False,
) -> CheckResult:
    """Run every oracle check on one (already validated) program.

    A dynamic mismatch on a program the static analyzer calls clean comes
    back with status ``"inconsistent"`` — one of the two is wrong, and the
    disagreement itself is the finding.
    """
    checks = 0
    notes: List[str] = []
    result = None
    first_node = None
    certified = "n/a"
    try:
        # -- sequential ground truth --------------------------------------
        baseline = _fresh_arrays(program)
        execute(program, baseline)

        # -- pipeline -----------------------------------------------------
        result = access_normalize(program)
        notes.extend(result.notes)

        # -- 1: transformed-program equivalence ---------------------------
        transformed_arrays = _fresh_arrays(program)
        execute(result.transformed, transformed_arrays)
        _compare_arrays("normalize", baseline, transformed_arrays)
        checks += 1

        sync_events = result.outer_carried_count
        nodes = {
            schedule: generate_spmd(
                result.transformed, schedule=schedule, sync_events=sync_events
            )
            for schedule in schedules
        }

        # -- 2: node-program (sequential union) equivalence ---------------
        first_node = nodes[schedules[0]]
        node_arrays = _fresh_arrays(program)
        execute(first_node.program, node_arrays)
        _compare_arrays("spmd", baseline, node_arrays)
        checks += 1

        # -- 3 & 4: simulator checks --------------------------------------
        accesses = _per_iteration_accesses(first_node)
        for schedule, node in nodes.items():
            reference_totals = None
            for processors in procs:
                outcome = simulate(node, processors=processors)
                totals = outcome.totals
                stage = f"simulate[{schedule},P={processors}]"
                for name in (
                    "local", "remote", "block_transfers", "block_bytes",
                    "guards", "statements", "iterations", "syncs",
                ):
                    if getattr(totals, name) < 0:
                        raise _Mismatch(stage, f"negative {name} count")
                if totals.local + totals.remote != totals.iterations * accesses:
                    raise _Mismatch(
                        stage,
                        f"access accounting not conserved: local={totals.local} "
                        f"remote={totals.remote} expected "
                        f"{totals.iterations * accesses}",
                    )
                if processors == 1:
                    if totals.remote or totals.block_transfers or totals.block_bytes:
                        raise _Mismatch(
                            stage, "single-processor run has remote traffic"
                        )
                    reference_totals = totals
                elif reference_totals is not None:
                    for name in ("iterations", "statements"):
                        if getattr(totals, name) != getattr(reference_totals, name):
                            raise _Mismatch(
                                stage,
                                f"{name} not conserved across P: "
                                f"{getattr(totals, name)} vs "
                                f"{getattr(reference_totals, name)}",
                            )
                checks += 1

                # -- 5: accounting-tier equivalence -----------------------
                # The default simulation above used engine="auto"; pin down
                # the walk and diff every tier that accepts the nest
                # against it, per processor, on every counter.
                walk = simulate(node, processors=processors, engine="walk")
                for tier_name, tier_outcome in (("auto", outcome),) + tuple(
                    (forced, _forced_simulate(node, processors, forced))
                    for forced in ("symbolic", "closed-form")
                ):
                    if tier_outcome is None:
                        continue  # forced tier rejected the nest: fine
                    for wp, tp in zip(walk.per_proc, tier_outcome.per_proc):
                        if wp.counts != tp.counts:
                            raise _TierMismatch(
                                f"tier[{tier_name},{schedule},P={processors}]",
                                f"engine {tier_outcome.engine!r} disagrees "
                                f"with walk on proc {wp.proc}: "
                                f"{tp.counts} vs {wp.counts}",
                            )
                    checks += 1

                # Parallel execute-mode differential run: only valid when the
                # distributed outer loop carries no dependence (the simulator
                # runs processors one after another).
                if (
                    node.sync_per_outer_iteration == 0
                    and processors > 1
                    and processors <= 3
                ):
                    exec_arrays = _fresh_arrays(program)
                    exec_outcome = simulate(
                        node, processors=processors, mode="execute",
                        arrays=exec_arrays,
                    )
                    _compare_arrays(
                        f"execute[{schedule},P={processors}]",
                        baseline, exec_arrays,
                    )
                    exec_totals = exec_outcome.totals
                    if (
                        exec_totals.local + exec_totals.remote
                        != totals.local + totals.remote
                        or exec_totals.iterations != totals.iterations
                    ):
                        raise _Mismatch(
                            f"execute[{schedule},P={processors}]",
                            "execute-mode accounting disagrees with account mode",
                        )
                    checks += 2

        # -- 6: symbolic-form certification ---------------------------
        # Tier equivalence (check 5) compared engines at the swept
        # cells; the certificate proves form ≡ closed-form engine on the
        # whole interpolation grid.  Memoized per node fingerprint, so
        # re-checking a shrunken case is free.
        from repro.analysis.forms import certify_node

        for schedule, node in nodes.items():
            certificate = certify_node(node)
            if certificate is None:
                continue  # no symbolic tier for this nest: nothing to certify
            checks += 1
            if certificate.verified:
                if certified == "n/a":
                    certified = "yes"
            elif certificate.failure in ("mismatch", "non-integral"):
                certified = "no"
                raise _FormUncertified(
                    f"certify[{schedule}]", certificate.reason
                )
            else:  # budget / structure: honestly unverified, not a failure
                certified = "unverified"

        # -- 7: tuner search-space legality ---------------------------
        # Every transformation the autotuner's enumerator emits (after
        # its own quick prune) must survive the analysis legality pass
        # over the materialized artifacts; an admitted-but-illegal
        # candidate is a tuner bug, not a semantics bug.
        if tune:
            from repro.tune.search import verify_search_legality

            tuner_checked, violation = verify_search_legality(program)
            checks += tuner_checked
            if violation:
                raise _TunerIllegal("tune", violation)
    except _Mismatch as mismatch:
        static = _static_verdict(program, result, first_node)
        if isinstance(mismatch, _TunerIllegal):
            status = "tuner-illegal"
        elif isinstance(mismatch, _FormUncertified):
            status = "form-uncertified"
        elif isinstance(mismatch, _TierMismatch):
            status = "tier-mismatch"
        else:
            status = "inconsistent" if static == "clean" else "mismatch"
        return CheckResult(
            ok=False,
            status=status,
            stage=mismatch.stage,
            detail=mismatch.detail, checks=checks,
            program_name=program.name, notes=tuple(notes), static=static,
            certified=certified,
        )
    except Exception as error:  # noqa: BLE001 - a fuzzer records every crash
        return CheckResult(
            ok=False, status="crash", stage=type(error).__name__,
            detail=_summarize_exception(error), checks=checks,
            program_name=program.name, notes=tuple(notes),
            static=_static_verdict(program, result, first_node),
            certified=certified,
        )
    return CheckResult(
        ok=True, status="ok", checks=checks, program_name=program.name,
        notes=tuple(notes), static=_static_verdict(program, result, first_node),
        certified=certified,
    )


def check_spec(
    spec: ProgramSpec,
    *,
    procs: Tuple[int, ...] = DEFAULT_PROCS,
    schedules: Tuple[str, ...] = DEFAULT_SCHEDULES,
    tune: bool = False,
) -> CheckResult:
    """Build a spec and run :func:`check_program` on it."""
    try:
        program = spec.build()
    except SpecError as error:
        return CheckResult(
            ok=False, status="invalid", stage="build", detail=str(error),
            program_name=spec.name,
        )
    return check_program(program, procs=procs, schedules=schedules, tune=tune)


def _summarize_exception(error: BaseException) -> str:
    frames = traceback.extract_tb(error.__traceback__)
    location = ""
    for frame in reversed(frames):
        if "/repro/" in frame.filename.replace("\\", "/"):
            location = f" at {frame.filename.rsplit('/', 1)[-1]}:{frame.lineno}"
            break
    return f"{type(error).__name__}: {error}{location}"


#: The argument tuple of :func:`fuzz_task`: ``(index, base_seed)`` or
#: ``(index, base_seed, tune_oracle)``.
FuzzTask = Tuple[int, ...]


def fuzz_task(task: FuzzTask) -> FuzzRecord:
    """Top-level, picklable entry point for one fuzz case.

    Derives the case seed from ``(base_seed, index)``, generates the
    program, runs the oracle, and returns a plain record — exceptions never
    escape, so a crashing case cannot take down a worker pool.
    """
    index, base_seed = task[0], task[1]
    tune = bool(task[2]) if len(task) > 2 else False
    case_seed = base_seed * 1_000_003 + index
    try:
        spec = generate_spec(case_seed)
    except Exception as error:  # noqa: BLE001 - generator bugs are findings too
        return FuzzRecord(
            index=index, seed=case_seed, status="generator-error",
            stage=type(error).__name__, detail=_summarize_exception(error),
        )
    outcome = check_spec(spec, tune=tune)
    record = FuzzRecord(
        index=index, seed=case_seed, status=outcome.status,
        stage=outcome.stage, detail=outcome.detail, checks=outcome.checks,
        static=outcome.static, certified=outcome.certified,
    )
    if not outcome.ok:
        record.spec = spec.to_dict()
    return record
