"""Symbolic-form verifier and certificate layer (codes ``FORM001``-``FORM007``).

Tier 0 of the accounting engine (:mod:`repro.numa.symbolic`) derives each
:class:`~repro.numa.simulator.AccessCounts` field as one quasi-polynomial
form over ``(params, P, proc)`` — after which every sweep cell is a pure
form evaluation.  Nothing *static* re-proved those forms against the node
program until this pass; the only check was the dynamic fuzz oracle.

The pass does two things:

1. **Well-formedness lint** over every derived form:

   * ``FORM001`` — a ``Mod``/``FloorDiv`` atom that the exact-identity
     constructor rewrites would simplify (or that the constructors reject
     outright): derived forms are always built through the constructors,
     so an unsimplified atom means a derivation or mutation bug;
   * ``FORM003`` — residual ``BoundedSum`` loops whose estimated
     evaluation cost exceeds the simulator's auto-selection ceiling, so
     ``auto`` will demote the form (the banded-nest inefficiency the
     ROADMAP names);
   * ``FORM004`` — a free symbol outside the program parameters and the
     ``(P, proc)`` processor symbols: such a form cannot be evaluated.

2. **Certification** that the form is *identical* to the independently
   derived closed-form engine (tier 1) on a finite grid whose size is
   computed from the form's own quasi-polynomial structure — a sound
   interpolation argument, not sampling:

   * with the processor count ``P`` fixed, every modulus in the form is a
     concrete integer; along each parameter axis the form is
     quasi-polynomial with congruence period ``L`` (the lcm of the moduli
     of atoms that move with the parameter), so on one residue class
     ``anchor + r + L∘y`` it is a polynomial in ``y``;
   * its degree is bounded by a *joint* degree over a set of variables:
     a symbol in the set counts 1, ``Mod``/``Ge0`` count 0,
     ``FloorDiv``/``Pos`` the degree of their argument, and a
     ``BoundedSum`` whose bound has degree ``g >= 1`` counts
     ``g * (t + 1)``, where ``t`` is the body's degree over the set plus
     the summation variable (Faulhaber); with ``g = 0`` the range is
     fixed and the sum counts the body's degree.  The per-axis degree
     ``d_i`` is the joint degree over ``{x_i}``, the total degree ``D``
     the joint degree over all parameters;
   * so the polynomial lies in ``span{y^a : a in A}`` with
     ``A = {a : a_i <= d_i, sum(a) <= D}``.  ``A`` is a lower set
     (downward closed), and a lower set of points is unisolvent for
     the monomials it indexes: a polynomial in that span vanishing on
     ``A`` is zero.  The grid is therefore ``anchor + r + L∘y`` for
     every residue class ``r`` and every ``y`` in ``A`` — never more
     points than the tensor grid of ``L * (d_i + 1)`` values per axis;
   * the ``P`` axis carries the moduli themselves, so it is swept
     exhaustively over ``1 .. max_processors`` with every processor id
     checked at each count.

   Agreement on the whole grid certifies form ≡ closed-form engine on
   the enclosing chamber (the region where no ``Pos``/``Ge0`` argument
   changes sign — see ``docs/analysis.md`` for the exact statement);
   disagreement is ``FORM005``, a non-integral form value is ``FORM002``,
   and a grid past the verification budget (or structure the argument
   cannot cover, e.g. a modulus that moves with a parameter) is
   ``FORM007``.  The resulting :class:`FormCertificate` is memoized in
   the process-wide :class:`~repro.runtime.cache.SimulationCache`
   alongside the form itself, keyed by the node fingerprint.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import product
from math import gcd
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity, Span
from repro.linalg.sympoly import (
    BoundedSum,
    FloorDiv,
    Ge0,
    Mod,
    Pos,
    SymExpr,
    SymbolicUnsupported,
    floordiv as make_floordiv,
    mod as make_mod,
)

if TYPE_CHECKING:
    from repro.analysis.manager import AnalysisContext
    from repro.codegen.spmd import NodeProgram
    from repro.numa.symbolic import SymbolicEngine

__all__ = [
    "FormCertificate",
    "FormsPass",
    "certify_engine",
    "certify_node",
]

#: Processor counts the certificate sweeps exhaustively (the ``P`` axis
#: carries the congruence moduli, so it cannot be interpolated).
CERT_MAX_PROCS = 4

#: Hard cap on checked grid cells; a grid past this comes back
#: ``verified=False`` with ``failure="budget"`` instead of running for
#: minutes (``FORM007``, a warning — never a silent pass).
CERT_POINT_BUDGET = 20_000


# ----------------------------------------------------------------------
# quasi-polynomial structure: degree and congruence period per variable
# ----------------------------------------------------------------------

def _degree(expr: SymExpr, names: FrozenSet[str]) -> int:
    """Upper bound on the total degree of ``expr`` jointly in ``names``."""
    best = 0
    for mono, _coeff in expr._terms:
        total = 0
        for base, exp in mono:
            total += exp * _base_degree(base, names)
        best = max(best, total)
    return best


def _base_degree(base: object, names: FrozenSet[str]) -> int:
    if isinstance(base, str):
        return 1 if base in names else 0
    if isinstance(base, (Mod, Ge0)):
        return 0
    if isinstance(base, (FloorDiv, Pos)):
        return _degree(base.arg, names)
    if isinstance(base, BoundedSum):
        outer = _degree(base.bound, names)
        if outer == 0:
            # The range does not move with ``names``: every term has at
            # most the body's degree, and so has their sum.
            return _degree(base.body, names)
        # Faulhaber: summing a body of total degree t in ``names`` and
        # the summation variable over [0, bound) gives total degree
        # t + 1 in (bound, names), and the bound has degree ``outer``.
        inner = _degree(base.body, names | frozenset((base.var,)))
        return outer * (inner + 1)
    raise SymbolicUnsupported(f"unknown atom kind {base!r}")


def _modulus_int(modulus: object, procs_name: str, processors: int) -> Optional[int]:
    """The concrete modulus value with ``P`` fixed, or ``None``."""
    if isinstance(modulus, int):
        return modulus
    if isinstance(modulus, SymExpr):
        if modulus.free_symbols() <= frozenset((procs_name,)):
            try:
                return modulus.evaluate({procs_name: processors})
            except SymbolicUnsupported:
                return None
    return None


def _collect_moduli(
    expr: SymExpr, var: str, moving: FrozenSet[str], out: Set[object]
) -> None:
    """Moduli of atoms that move with ``var`` (``None`` = opaque).

    A modulus is kept as it stands — an ``int`` or a ``SymExpr`` — so the
    walk runs once per (form, parameter) and only :func:`_period`
    depends on ``P``.  ``None`` records a modulus that itself moves with
    ``var``: no period exists along that axis.  ``moving`` carries bound
    variables of enclosing sums whose *bound* moves with ``var``: their
    iteration space shifts as ``var`` changes, so their atoms' periods
    fold into the period in ``var`` too.
    """
    names = frozenset((var,)) | moving
    for atom in expr.atoms():
        if isinstance(atom, BoundedSum):
            inner = moving
            if any(atom.bound.depends_on(name) for name in names):
                inner = moving | frozenset((atom.var,))
            _collect_moduli(atom.bound, var, moving, out)
            _collect_moduli(atom.body, var, inner, out)
        elif isinstance(atom, (Mod, FloorDiv)):
            _collect_moduli(atom.arg, var, moving, out)
            modulus = atom.modulus
            if isinstance(modulus, SymExpr):
                _collect_moduli(modulus, var, moving, out)
            if any(atom.depends_on(name) for name in names):
                if isinstance(modulus, SymExpr) and any(
                    modulus.depends_on(name) for name in names
                ):
                    out.add(None)  # the modulus itself moves: not periodic
                else:
                    out.add(modulus)
        elif isinstance(atom, (Pos, Ge0)):
            _collect_moduli(atom.arg, var, moving, out)


def _period(
    moduli: Set[object], procs_name: str, processors: int
) -> Optional[int]:
    """Congruence period of the collected ``moduli`` at a fixed ``P``.

    ``None`` when some modulus cannot be settled (it depends on the
    parameter itself, or on a symbol outside ``P``) — the interpolation
    argument then does not apply along this axis.
    """
    period = 1
    for modulus in moduli:
        value = _modulus_int(modulus, procs_name, processors)
        if value is None or value <= 0:
            return None
        period = period * value // gcd(period, value)
    return period


# ----------------------------------------------------------------------
# the certificate
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FormCertificate:
    """Machine-checkable record that form ≡ closed-form engine.

    ``verified`` is the verdict; on failure ``failure`` classifies it
    (``"mismatch"``, ``"non-integral"``, ``"budget"``, ``"structure"``)
    and ``reason`` pins the witness point.  ``degree`` (per-axis joint
    degrees), ``total_degree`` and ``period`` record the interpolation
    structure the grid was computed from, ``points`` the number of
    checked grid cells, and ``digest`` a SHA-256 over the forms, the
    anchor and the processor range so a cached certificate can be
    matched against the artifacts it certifies.
    """

    program: str
    verified: bool
    failure: str
    reason: str
    params: Tuple[str, ...]
    anchor: Tuple[Tuple[str, int], ...]
    degree: Tuple[Tuple[str, int], ...]
    total_degree: int
    period: Tuple[Tuple[str, int], ...]
    max_processors: int
    points: int
    digest: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-stable representation."""
        return {
            "program": self.program,
            "verified": self.verified,
            "failure": self.failure,
            "reason": self.reason,
            "params": list(self.params),
            "anchor": {name: value for name, value in self.anchor},
            "degree": {name: value for name, value in self.degree},
            "total_degree": self.total_degree,
            "period": {name: value for name, value in self.period},
            "max_processors": self.max_processors,
            "points": self.points,
            "digest": self.digest,
        }


def _failed(
    program: str,
    failure: str,
    reason: str,
    params: Tuple[str, ...],
    anchor: Tuple[Tuple[str, int], ...],
    degree: Tuple[Tuple[str, int], ...],
    total_degree: int,
    max_processors: int,
    points: int,
    digest: str,
) -> FormCertificate:
    return FormCertificate(
        program=program,
        verified=False,
        failure=failure,
        reason=reason,
        params=params,
        anchor=anchor,
        degree=degree,
        total_degree=total_degree,
        period=(),
        max_processors=max_processors,
        points=points,
        digest=digest,
    )


def certify_engine(
    engine: "SymbolicEngine",
    *,
    max_processors: int = CERT_MAX_PROCS,
    point_budget: int = CERT_POINT_BUDGET,
) -> FormCertificate:
    """Certify ``engine``'s forms against its own closed-form reference.

    The reference (``engine.base``) is the tier-1
    :class:`~repro.numa.counting.ClosedFormEngine` — an independent
    derivation that never touches :mod:`~repro.linalg.sympoly` — so
    agreement really is a cross-check, not a tautology.
    """
    node = engine.node
    program_name = node.program.name
    anchor_env = node.program.bound_params(None)
    params = tuple(sorted(node.program.params))
    anchor = tuple((name, int(anchor_env[name])) for name in params)

    degrees: Dict[str, int] = {}
    try:
        for name in params:
            degrees[name] = max(
                (
                    _degree(form, frozenset((name,)))
                    for form in engine.forms.values()
                ),
                default=0,
            )
        total_degree = max(
            (_degree(form, frozenset(params)) for form in engine.forms.values()),
            default=0,
        )
    except SymbolicUnsupported as error:
        return _failed(
            program_name, "structure", str(error), params, anchor, (), 0,
            max_processors, 0, "",
        )
    degree = tuple(sorted(degrees.items()))
    lower = _lower_set([degrees[name] for name in params], total_degree)

    digest = hashlib.sha256()
    for field in sorted(engine.forms):
        digest.update(field.encode("ascii"))
        digest.update(repr(engine.forms[field]).encode("utf-8"))
    digest.update(repr(anchor).encode("ascii"))
    digest.update(f"procs<={max_processors}".encode("ascii"))

    # One grid per anchor processor count: the periods depend on P, the
    # moduli that set them do not.
    moduli: Dict[str, Set[object]] = {name: set() for name in params}
    for name in params:
        for form in engine.forms.values():
            _collect_moduli(form, name, frozenset(), moduli[name])
    grids: List[Tuple[int, Dict[str, int]]] = []
    total_cells = 0
    worst_period: Dict[str, int] = {name: 1 for name in params}
    for processors in range(1, max_processors + 1):
        periods: Dict[str, int] = {}
        for name in params:
            period = _period(moduli[name], engine.procs_name, processors)
            if period is None:
                return _failed(
                    program_name, "structure",
                    f"no finite congruence period in {name!r} at "
                    f"P={processors} (a modulus moves with the "
                    "parameter)",
                    params, anchor, degree, total_degree,
                    max_processors, 0, digest.hexdigest(),
                )
            periods[name] = period
            worst_period[name] = max(worst_period[name], period)
        cells = processors * len(lower)
        for name in params:
            cells *= periods[name]
        total_cells += cells
        grids.append((processors, periods))
    if total_cells > point_budget:
        return _failed(
            program_name, "budget",
            f"certificate grid needs {total_cells} cells "
            f"(budget {point_budget})",
            params, anchor, degree, total_degree, max_processors, 0,
            digest.hexdigest(),
        )

    period = tuple(sorted(worst_period.items()))
    points = 0
    for processors, periods in grids:
        steps = [periods[name] for name in params]
        for env in _grid_envs(anchor_env, anchor, steps, lower):
            for proc in range(processors):
                points += 1
                try:
                    symbolic = engine.account(env, processors, proc)
                except SymbolicUnsupported as error:
                    return FormCertificate(
                        program=program_name, verified=False,
                        failure="non-integral",
                        reason=f"form evaluation failed at "
                        f"{_point_text(env, params, processors, proc)}: "
                        f"{error}",
                        params=params, anchor=anchor, degree=degree,
                        total_degree=total_degree, period=period,
                        max_processors=max_processors, points=points,
                        digest=digest.hexdigest(),
                    )
                reference = engine.base.account(env, processors, proc)
                if symbolic != reference:
                    return FormCertificate(
                        program=program_name, verified=False,
                        failure="mismatch",
                        reason=f"form disagrees with the closed-form "
                        f"engine at "
                        f"{_point_text(env, params, processors, proc)}: "
                        f"{symbolic} vs {reference}",
                        params=params, anchor=anchor, degree=degree,
                        total_degree=total_degree, period=period,
                        max_processors=max_processors, points=points,
                        digest=digest.hexdigest(),
                    )
    return FormCertificate(
        program=program_name, verified=True, failure="", reason="",
        params=params, anchor=anchor, degree=degree,
        total_degree=total_degree, period=period,
        max_processors=max_processors, points=points,
        digest=digest.hexdigest(),
    )


def _point_text(
    env: Dict[str, int], params: Tuple[str, ...], processors: int, proc: int
) -> str:
    bindings = ", ".join(f"{name}={env[name]}" for name in params)
    prefix = f"({bindings}, " if bindings else "("
    return f"{prefix}P={processors}, proc={proc})"


def _lower_set(degrees: List[int], total: int) -> List[Tuple[int, ...]]:
    """``{y in N^k : y_i <= degrees[i], sum(y) <= total}``."""
    return [
        y
        for y in product(*(range(degree + 1) for degree in degrees))
        if sum(y) <= total
    ]


def _grid_envs(
    anchor_env: Dict[str, int],
    anchor: Tuple[Tuple[str, int], ...],
    periods: List[int],
    lower: List[Tuple[int, ...]],
) -> List[Dict[str, int]]:
    """The points ``anchor + r + L∘y`` for every residue class ``r`` and
    ``y`` in ``lower``, in ascending lexicographic parameter order."""
    names = [name for name, _ in anchor]
    points = sorted(
        tuple(
            base + residue + period * step
            for (_, base), residue, period, step in zip(
                anchor, offset, periods, y
            )
        )
        for offset in product(*(range(period) for period in periods))
        for y in lower
    )
    return [{**anchor_env, **dict(zip(names, point))} for point in points]


def certify_node(node: "NodeProgram") -> Optional[FormCertificate]:
    """The (memoized) certificate for ``node``'s symbolic forms.

    ``None`` when the nest has no symbolic tier at all — that is an
    engine-coverage fact, not a verification failure.  Both the forms
    and the certificate live in the process-wide simulation cache keyed
    by the node fingerprint, so a sweep (or a fuzz campaign revisiting a
    shrunken program) certifies each distinct node program once.
    """
    from repro.numa.simulator import _cached_form
    from repro.numa.symbolic import FORM_SCHEMA
    from repro.runtime.cache import node_fingerprint, shared_cache

    status = _cached_form(node)
    if status[0] != "ok":
        return None
    engine = status[1]
    # FORM_SCHEMA in the key: a certificate proves one derivation
    # schema's forms; it must not vouch for a newer one from a shared
    # store.
    key = node_fingerprint(node) + f"|symcert:{FORM_SCHEMA}"

    def factory() -> FormCertificate:
        return certify_engine(engine)

    cert = shared_cache().form(key, factory)
    assert isinstance(cert, FormCertificate)
    return cert


# ----------------------------------------------------------------------
# the pass
# ----------------------------------------------------------------------

class FormsPass:
    """Verify and certify the tier-0 symbolic forms (``FORM001``-``FORM007``)."""

    name = "forms"

    def run(self, context: "AnalysisContext") -> List[Diagnostic]:
        node = context.node
        if node is None:
            return []
        from repro.numa.simulator import _cached_form

        diagnostics: List[Diagnostic] = []
        program_name = node.program.name
        status = _cached_form(node)
        if status[0] != "ok":
            diagnostics.append(
                Diagnostic(
                    "FORM006",
                    Severity.INFO,
                    f"symbolic tier unavailable for this nest: {status[1]}",
                    Span(program=program_name),
                )
            )
            return diagnostics
        engine = status[1]
        self._check_symbols(engine, program_name, diagnostics)
        self._check_atoms(engine, program_name, diagnostics)
        self._check_cost(engine, program_name, diagnostics)
        self._check_certificate(node, program_name, diagnostics)
        return diagnostics

    # ------------------------------------------------------------------
    def _check_symbols(
        self,
        engine: "SymbolicEngine",
        program_name: str,
        diagnostics: List[Diagnostic],
    ) -> None:
        allowed = frozenset(engine.node.program.params) | frozenset(
            (engine.procs_name, engine.proc_name)
        )
        for field in sorted(engine.forms):
            extra = engine.forms[field].free_symbols() - allowed
            if extra:
                diagnostics.append(
                    Diagnostic(
                        "FORM004",
                        Severity.ERROR,
                        f"form for {field!r} mentions "
                        f"{', '.join(sorted(extra))} outside the program "
                        "parameters and (P, proc)",
                        Span(program=program_name, reference=f"form:{field}"),
                    )
                )

    # ------------------------------------------------------------------
    def _check_atoms(
        self,
        engine: "SymbolicEngine",
        program_name: str,
        diagnostics: List[Diagnostic],
    ) -> None:
        from repro.linalg.sympoly import _deep_atoms

        seen: Set[object] = set()
        for field in sorted(engine.forms):
            for atom in _deep_atoms(engine.forms[field], []):
                if not isinstance(atom, (Mod, FloorDiv)) or atom in seen:
                    continue
                seen.add(atom)
                constructor = make_mod if isinstance(atom, Mod) else make_floordiv
                try:
                    rebuilt = constructor(atom.arg, atom.modulus)
                except SymbolicUnsupported as error:
                    diagnostics.append(
                        Diagnostic(
                            "FORM001",
                            Severity.ERROR,
                            f"ill-formed atom {atom!r} in the {field!r} "
                            f"form: {error}",
                            Span(
                                program=program_name,
                                reference=f"form:{field}",
                            ),
                        )
                    )
                    continue
                if rebuilt != SymExpr._atom(atom):
                    diagnostics.append(
                        Diagnostic(
                            "FORM001",
                            Severity.ERROR,
                            f"unsimplified atom {atom!r} in the {field!r} "
                            f"form: the exact-identity rewrites reduce it "
                            f"to {rebuilt!r}",
                            Span(
                                program=program_name,
                                reference=f"form:{field}",
                            ),
                        )
                    )

    # ------------------------------------------------------------------
    def _check_cost(
        self,
        engine: "SymbolicEngine",
        program_name: str,
        diagnostics: List[Diagnostic],
    ) -> None:
        from repro.numa.simulator import SYMBOLIC_COST_CEILING

        env = engine.node.program.bound_params(None)
        cost = engine.estimate_cost(dict(env), CERT_MAX_PROCS)
        if cost > SYMBOLIC_COST_CEILING:
            diagnostics.append(
                Diagnostic(
                    "FORM003",
                    Severity.WARNING,
                    f"residual BoundedSum loops put form evaluation at "
                    f"~{cost} loop ops under the default parameters "
                    f"(auto ceiling {SYMBOLIC_COST_CEILING}); the auto "
                    "engine will demote this nest to the closed-form tier",
                    Span(program=program_name, reference="forms"),
                )
            )

    # ------------------------------------------------------------------
    def _check_certificate(
        self,
        node: "NodeProgram",
        program_name: str,
        diagnostics: List[Diagnostic],
    ) -> None:
        cert = certify_node(node)
        if cert is None or cert.verified:
            return
        span = Span(program=program_name, reference="certificate")
        if cert.failure == "mismatch":
            diagnostics.append(
                Diagnostic("FORM005", Severity.ERROR, cert.reason, span)
            )
        elif cert.failure == "non-integral":
            diagnostics.append(
                Diagnostic("FORM002", Severity.ERROR, cert.reason, span)
            )
        else:  # budget / structure: unverified, honestly reported
            diagnostics.append(
                Diagnostic(
                    "FORM007",
                    Severity.WARNING,
                    f"form certificate not verified ({cert.failure}): "
                    f"{cert.reason}",
                    span,
                )
            )
