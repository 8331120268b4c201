"""Acceptance tests for the certifying analysis tier (forms + kernels).

Three layers of guarantees:

* every shipped input whose nest has a symbolic tier carries a *verified*
  :class:`~repro.analysis.forms.FormCertificate`;
* injected defects are caught — a mutated form coefficient trips the
  certificate (FORM005), a hand-built unsimplified atom trips the
  well-formedness lint (FORM001), and a mutated guard in the generated
  form evaluator trips the sanitizer (KERN003) at the right source line;
* the pass registry, ``--passes``/``--list-passes`` CLI surface, and the
  fuzz oracle's ``certified`` verdict behave as documented.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import Severity, analyze_program
from repro.analysis.cli import _load_input, render_pass_list
from repro.analysis.forms import (
    CERT_MAX_PROCS,
    FormCertificate,
    FormsPass,
    _degree,
    _grid_envs,
    _lower_set,
    certify_engine,
    certify_node,
)
from repro.analysis.kernels import KernelPass, sanitize_generated_source
from repro.analysis.manager import (
    DEFAULT_PASS_NAMES,
    PASS_REGISTRY,
    available_passes,
    build_context,
    default_passes,
    resolve_passes,
)
from repro.cli import main
from repro.codegen.spmd import generate_spmd
from repro.core.normalize import access_normalize
from repro.errors import ReproError
from repro.fuzz.cli import summarize
from repro.fuzz.generator import generate_spec
from repro.fuzz.oracle import DEFAULT_SCHEDULES, FuzzRecord, fuzz_task
from repro.linalg.sympoly import (
    FloorDiv,
    Ge0,
    Mod,
    Pos,
    SymExpr,
    bounded_sum,
    const,
    floordiv,
    pos,
    sym,
)
from repro.numa.simulator import _cached_form
from repro.numa.symbolic import SymbolicEngine
from repro.runtime.cache import shared_cache

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(REPO_ROOT, "examples", "programs")
CORPUS = os.path.join(REPO_ROOT, "tests", "corpus")
GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "golden_analysis_certify.json",
)
GOLDEN_CERTIFICATES = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "golden_certificates.json",
)


def all_inputs():
    files = [
        os.path.join(EXAMPLES, name)
        for name in sorted(os.listdir(EXAMPLES))
        if name.endswith(".an")
    ]
    files.extend(
        os.path.join(CORPUS, name)
        for name in sorted(os.listdir(CORPUS))
        if name.endswith(".json")
    )
    return files


def context_for(path):
    program, _ = _load_input(path)
    return build_context(
        program, assumptions=tuple(program.assumptions) or None
    )


def gemm_context():
    return context_for(os.path.join(EXAMPLES, "gemm.an"))


# ----------------------------------------------------------------------
# every shipped symbolic form carries a verified certificate
# ----------------------------------------------------------------------

class TestShippedFormsAreCertified:
    def test_every_symbolic_tier_input_verifies(self):
        certified = 0
        for path in all_inputs():
            context = context_for(path)
            assert context.node is not None, f"{path}: pipeline failed"
            certificate = certify_node(context.node)
            if certificate is None:
                continue  # no symbolic tier: FORM006 territory, not a failure
            assert certificate.verified, (
                f"{path}: certificate failed "
                f"({certificate.failure}: {certificate.reason})"
            )
            assert certificate.points > 0
            assert len(certificate.digest) == 64
            certified += 1
        # figure1, gemm, syr2k and singular-access-matrix all have tier 0.
        assert certified >= 4

    def test_certificate_is_memoized_per_node(self):
        context = gemm_context()
        first = certify_node(context.node)
        second = certify_node(context.node)
        assert first is second

    def test_certificate_to_dict_is_json_stable(self):
        certificate = certify_node(gemm_context().node)
        payload = certificate.to_dict()
        assert payload["verified"] is True
        assert payload["failure"] == ""
        assert set(payload) == {
            "program", "verified", "failure", "reason", "params", "anchor",
            "degree", "total_degree", "period", "max_processors", "points",
            "digest",
        }
        json.dumps(payload)  # raises if anything is not JSON-serializable

    def test_kernel_pass_never_errors_on_shipped_inputs(self):
        """The sanitizer may warn about real inefficiencies, but an ERROR
        on shipped code would be a codegen bug."""
        for path in all_inputs():
            context = context_for(path)
            for diagnostic in KernelPass().run(context):
                assert diagnostic.severity < Severity.ERROR, (
                    f"{path}: {diagnostic.format()}"
                )


# ----------------------------------------------------------------------
# injected form defects
# ----------------------------------------------------------------------

class TestInjectedFormDefects:
    def test_mutated_coefficient_fails_certification(self):
        context = gemm_context()
        engine = SymbolicEngine(context.node)
        engine.forms["local"] = engine.forms["local"] + const(1)
        certificate = certify_engine(engine)
        assert not certificate.verified
        assert certificate.failure == "mismatch"
        assert "disagrees with the closed-form engine" in certificate.reason
        assert "P=" in certificate.reason  # names the witness point

    def test_forms_pass_reports_form005_for_mutated_form(self, monkeypatch):
        context = gemm_context()
        engine = SymbolicEngine(context.node)
        engine.forms["remote"] = engine.forms["remote"] + sym("N")
        import repro.numa.simulator as simulator

        monkeypatch.setattr(
            simulator, "_cached_form", lambda node: ("ok", engine)
        )
        shared_cache().clear()  # drop the good memoized certificate
        try:
            diagnostics = FormsPass().run(context)
        finally:
            shared_cache().clear()  # never leak the poisoned certificate
        codes = [d.code for d in diagnostics]
        assert "FORM005" in codes
        (finding,) = [d for d in diagnostics if d.code == "FORM005"]
        assert finding.severity == Severity.ERROR
        assert finding.span.reference == "certificate"
        assert finding.span.program.startswith("gemm")

    def test_unsimplified_atom_is_form001(self):
        context = gemm_context()
        engine = SymbolicEngine(context.node)
        # Bypass the mod() constructor: Mod(2N, 2) should fold to 0, so a
        # raw atom wrapping it is exactly the "unsimplified" defect.
        dead = SymExpr._atom(Mod(sym("N") * 2, 2))
        engine.forms["guards"] = engine.forms["guards"] + dead
        diagnostics = []
        FormsPass()._check_atoms(engine, "gemm", diagnostics)
        (finding,) = diagnostics
        assert finding.code == "FORM001"
        assert finding.severity == Severity.ERROR
        assert finding.span.reference == "form:guards"
        assert "unsimplified atom" in finding.message

    def test_foreign_symbol_is_form004(self):
        context = gemm_context()
        engine = SymbolicEngine(context.node)
        engine.forms["syncs"] = engine.forms["syncs"] + sym("stray")
        diagnostics = []
        FormsPass()._check_symbols(engine, "gemm", diagnostics)
        (finding,) = diagnostics
        assert finding.code == "FORM004"
        assert "stray" in finding.message


# ----------------------------------------------------------------------
# the interpolation grid: joint degree and the lower set
# ----------------------------------------------------------------------

def axis_degree(expr, name):
    return _degree(expr, frozenset((name,)))


def structural_axis_degree(expr, var):
    """The per-axis rule the joint degree replaced: a ``BoundedSum``
    counted ``deg(body) + deg(bound) * (1 + inner degree)``."""
    best = 0
    for mono, _coeff in expr._terms:
        total = 0
        for base, exp in mono:
            if isinstance(base, str):
                degree = 1 if base == var else 0
            elif isinstance(base, (Mod, Ge0)):
                degree = 0
            elif isinstance(base, (FloorDiv, Pos)):
                degree = structural_axis_degree(base.arg, var)
            else:
                inner = structural_axis_degree(base.body, base.var)
                degree = structural_axis_degree(
                    base.body, var
                ) + structural_axis_degree(base.bound, var) * (inner + 1)
            total += exp * degree
        best = max(best, total)
    return best


def sampled_degree(values):
    """Degree of the polynomial through equally spaced samples: the order
    of the last finite difference that does not vanish."""
    degree = -1
    order = 0
    while values:
        if any(values):
            degree = order
        values = [b - a for a, b in zip(values, values[1:])]
        order += 1
    return degree


def fuzz_engines(index):
    """The tier-0 engines of the node programs the oracle certifies for
    fuzz campaign 0's case ``index``."""
    result = access_normalize(generate_spec(index).build())
    engines = []
    for schedule in DEFAULT_SCHEDULES:
        node = generate_spmd(
            result.transformed,
            schedule=schedule,
            sync_events=result.outer_carried_count,
        )
        status = _cached_form(node)
        if status[0] == "ok":
            engines.append(status[1])
    return engines


def grid_bounds(forms, params):
    """Per-axis and total joint degree over a node's forms."""
    forms = list(forms)
    degrees = [
        max((axis_degree(form, name) for form in forms), default=0)
        for name in params
    ]
    total = max(
        (_degree(form, frozenset(params)) for form in forms), default=0
    )
    return degrees, total


def falling(name, start, order):
    """``(x - start)(x - start - 1)...(x - start - order + 1)``."""
    result = const(1)
    for step in range(order):
        result = result * (sym(name) - (start + step))
    return result


class TestJointDegree:
    N, M, q, r = sym("N"), sym("M"), sym("q"), sym("r")

    def sums(self):
        """Hand-built sums with the joint degree over ``{N}`` and the
        degree of their closed form in ``N``."""
        N, q, r = self.N, self.q, self.r
        return {
            # N(N+1)/2: the structural rule gave 3.
            "triangle": (bounded_sum("q", N, N - q), 2),
            # The mixed atom the structural rule counted in N and in q.
            "mixed-pos": (
                bounded_sum("q", N, pos(1 + N - sym("P") * q)), 2
            ),
            # sum_q sum_{r<q} (N - r) = N^3/3 + ...: the structural rule
            # gave 4.
            "nested": (
                bounded_sum("q", N, bounded_sum("r", q, N - r)), 3
            ),
        }

    def test_hand_built_sums_get_their_closed_form_degree(self):
        for label, (expr, expected) in self.sums().items():
            assert axis_degree(expr, "N") == expected, label
            # The closed form really has that degree (P = 2: sample one
            # residue class of the mixed atom's period).
            values = [
                expr.evaluate({"N": start, "P": 2})
                for start in range(1, 24, 2)
            ]
            assert sampled_degree(values) == expected, label

    def test_joint_degree_is_tighter_than_the_structural_rule(self):
        for label, (expr, expected) in self.sums().items():
            assert structural_axis_degree(expr, "N") > expected, label

    def test_fixed_range_adds_no_degree(self):
        # sum_{q<M} N*q = N*M(M-1)/2: degree 1 in N, 2 in M, 3 jointly.
        expr = bounded_sum("q", self.M, self.N * self.q)
        assert axis_degree(expr, "N") == 1
        assert axis_degree(expr, "M") == 2
        assert _degree(expr, frozenset(("M", "N"))) == 3

    def test_atoms_follow_the_leaf_rules(self):
        N = self.N
        assert _degree(SymExpr._atom(Mod(N * N, 3)), frozenset("N")) == 0
        assert _degree(SymExpr._atom(Ge0(N - 5)), frozenset("N")) == 0
        assert _degree(SymExpr._atom(FloorDiv(N * N, 3)), frozenset("N")) == 2
        assert _degree(pos(N * self.M - 1), frozenset(("M", "N"))) == 2

    def test_fuzz_case1_iterations_form_has_degree_at_most_4(self):
        engines = fuzz_engines(1)
        assert engines
        for engine in engines:
            form = engine.forms["iterations"]
            params = sorted(engine.node.program.params)
            for name in params:
                assert axis_degree(form, name) <= 4, name
            assert _degree(form, frozenset(params)) <= 4

    def test_bounds_never_exceed_the_structural_rule(self):
        """Over the shipped examples, the corpus and fuzz campaign 0's
        cases 0-29: every per-axis bound is at most the structural one,
        so the lower-set grid never has more points than the tensor
        grid the structural degrees gave."""
        engines = []
        for path in all_inputs():
            context = context_for(path)
            status = _cached_form(context.node)
            if status[0] == "ok":
                engines.append(status[1])
        for index in range(30):
            engines.extend(fuzz_engines(index))
        assert len(engines) > 40
        for engine in engines:
            params = tuple(sorted(engine.node.program.params))
            forms = list(engine.forms.values())
            degrees, total = grid_bounds(forms, params)
            tensor = 1
            for name, degree in zip(params, degrees):
                structural = max(
                    structural_axis_degree(form, name) for form in forms
                )
                assert degree <= structural, (engine.node.program.name, name)
                tensor *= structural + 1
            assert len(_lower_set(degrees, total)) <= tensor


class TestLowerSetGrid:
    def test_lower_set_is_the_capped_simplex(self):
        lower = _lower_set([2, 3], 3)
        assert sorted(lower) == sorted(
            (a, b) for a in range(3) for b in range(4) if a + b <= 3
        )
        assert _lower_set([], 5) == [()]
        assert len(_lower_set([4, 4], 8)) == 25  # the tensor box

    def test_grid_covers_every_residue_class(self):
        anchor = (("M", 10), ("N", 20))
        envs = _grid_envs({"M": 10, "N": 20, "x": 1}, anchor, [2, 3],
                          _lower_set([1, 2], 2))
        points = [(env["M"], env["N"]) for env in envs]
        assert points == sorted(set(points))  # distinct, ascending
        assert len(points) == 2 * 3 * len(_lower_set([1, 2], 2))
        assert all(env["x"] == 1 for env in envs)
        for m, n in points:
            assert 10 <= m < 10 + 2 * 2 and 20 <= n < 20 + 3 * 3
            assert (m - 10) // 2 + (n - 20) // 3 <= 2

    def mutations(self, engine):
        """Every monomial in the lower set, as ``(exponent, polynomial,
        max_processors)``: plain over the whole certificate, and as a
        falling factorial from the anchor at ``P = 1``.  There every
        period is 1, so the grid is exactly ``anchor + A`` and the
        factorial vanishes on all of it but ``anchor + exponent``: a
        grid one point short of the lower set misses it."""
        program = engine.node.program
        params = tuple(sorted(program.params))
        anchor = program.bound_params(None)
        degrees, total = grid_bounds(engine.forms.values(), params)
        lower = _lower_set(degrees, total)
        assert certify_engine(engine, max_processors=1).points == len(lower)
        for exponent in lower:
            monomial, shifted = const(1), const(1)
            for name, power in zip(params, exponent):
                for _ in range(power):
                    monomial = monomial * sym(name)
                shifted = shifted * falling(name, int(anchor[name]), power)
            yield exponent, monomial, CERT_MAX_PROCS
            yield exponent, shifted, 1

    def test_any_monomial_in_the_lower_set_is_caught(self):
        engines = [
            SymbolicEngine(gemm_context().node),
            SymbolicEngine(context_for(os.path.join(EXAMPLES, "syr2k.an")).node),
            fuzz_engines(1)[0],
        ]
        for engine in engines:
            assert certify_engine(engine).verified
            original = dict(engine.forms)
            try:
                for exponent, poly, procs in self.mutations(engine):
                    engine.forms["local"] = original["local"] + poly
                    certificate = certify_engine(
                        engine, max_processors=procs
                    )
                    assert certificate.failure == "mismatch", (
                        engine.node.program.name, exponent, poly,
                    )
            finally:
                engine.forms.update(original)


#: Certificates of fuzz campaign 0 cases 0-3 and of the Figure 4/5
#: variants at a reduced size, in a fresh interpreter in this order (term
#: order, and so the digest, follows the atoms' first-sight numbering).
_CERTIFICATES_SCRIPT = """
import json
from repro.analysis.forms import certify_engine
from repro.bench import gemm_variants, syr2k_variants
from repro.codegen.spmd import generate_spmd
from repro.core.normalize import access_normalize
from repro.fuzz.generator import generate_spec
from repro.fuzz.oracle import DEFAULT_SCHEDULES
from repro.numa.symbolic import SymbolicEngine, SymbolicUnsupported

certificates = {}
for index in range(4):
    result = access_normalize(generate_spec(index).build())
    for schedule in DEFAULT_SCHEDULES:
        node = generate_spmd(
            result.transformed, schedule=schedule,
            sync_events=result.outer_carried_count,
        )
        try:
            engine = SymbolicEngine(node)
        except SymbolicUnsupported:
            continue
        key = f"fuzz0-{index}-{schedule}"
        certificates[key] = certify_engine(engine).to_dict()
for name, node in {**gemm_variants(24), **syr2k_variants(24, 6)}.items():
    certificates[name] = certify_engine(SymbolicEngine(node)).to_dict()
print(json.dumps(certificates))
"""


class TestPeriods:
    """The moduli behind each congruence period are collected once per
    (form, parameter) and only evaluated per ``P``."""

    def test_certificates_match_the_recorded_ones(self):
        # Recorded before the moduli were collected once per form: grids,
        # periods and digests must not move.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        output = subprocess.run(
            [sys.executable, "-c", _CERTIFICATES_SCRIPT],
            capture_output=True, text=True, check=True, env=env,
            cwd=REPO_ROOT,
        ).stdout
        with open(GOLDEN_CERTIFICATES, encoding="utf-8") as handle:
            assert json.loads(output) == json.load(handle)

    def test_modulus_moving_with_the_parameter_has_no_period(self):
        engine = SymbolicEngine(gemm_context().node)
        engine.forms["local"] = engine.forms["local"] + floordiv(
            sym("N"), sym("N") + const(1)
        )
        certificate = certify_engine(engine)
        assert certificate.failure == "structure"
        assert certificate.reason == (
            "no finite congruence period in 'N' at P=1 "
            "(a modulus moves with the parameter)"
        )
        assert certificate.points == 0


# ----------------------------------------------------------------------
# injected kernel defects
# ----------------------------------------------------------------------

SYNTHETIC_KERNEL = '''\
def account(_env, _P, _p, _shapes, _gathers, _cache):
    _n = _env["N"]
    _total = 0
    _dead = _n * 2
    for _i in range(_n):
        _inv = _n + 1
        if _i % _P == _p:
            if _i % _P == _p:
                _total += _inv
    return _total
'''


class TestInjectedKernelDefects:
    def test_mutated_guard_to_constant_is_kern003(self):
        status, engine = _cached_form(gemm_context().node)
        assert status == "ok"
        source = engine._fused().source
        lines = source.splitlines()
        guard_index = next(
            index for index, line in enumerate(lines)
            if line.lstrip().startswith("if ")
        )
        indent = lines[guard_index][: len(lines[guard_index])
                                    - len(lines[guard_index].lstrip())]
        lines[guard_index] = f"{indent}if True:"
        findings = sanitize_generated_source(
            "\n".join(lines), artifact="form:account", program="gemm"
        )
        flagged = [d for d in findings if d.code == "KERN003"]
        assert flagged, [d.format() for d in findings]
        assert flagged[0].span.statement == guard_index + 1
        assert flagged[0].span.reference == "form:account"

    def test_synthetic_kernel_catches_all_three_warnings(self):
        findings = sanitize_generated_source(
            SYNTHETIC_KERNEL, artifact="kernel", program="synth"
        )
        by_code = {d.code: d for d in findings}
        assert set(by_code) == {"KERN001", "KERN002", "KERN003"}
        assert by_code["KERN002"].span.statement == 4   # _dead never read
        assert by_code["KERN001"].span.statement == 6   # _inv is invariant
        assert by_code["KERN003"].span.statement == 8   # duplicated guard
        assert "_dead" in by_code["KERN002"].message
        assert "_inv" in by_code["KERN001"].message

    def test_kernel_pass_sanitizes_the_fused_form_source(self, monkeypatch):
        import repro.analysis.kernels as kernels

        context = build_context(
            generate_spec(49).build(), schedule="wrapped", sync=True
        )
        status, engine = _cached_form(context.node)
        assert status == "ok"
        seen = []
        sanitize = kernels.sanitize_generated_source

        def recording(source, **options):
            seen.append((options["artifact"], source))
            return sanitize(source, **options)

        monkeypatch.setattr(kernels, "sanitize_generated_source", recording)
        findings = KernelPass().run(context)
        assert seen == [("form:account", engine._fused().source)]
        flagged = [
            d for d in findings if d.span.reference == "form:account"
        ]
        assert [d.code for d in flagged] == ["KERN001"]


# ----------------------------------------------------------------------
# pass registry and CLI surface
# ----------------------------------------------------------------------

class TestPassRegistry:
    def test_registry_lists_all_six_passes(self):
        names = [name for name, _ in available_passes()]
        assert names == [
            "legality", "bounds", "races", "lint", "forms", "kernels",
        ]
        assert list(PASS_REGISTRY) == names

    def test_default_passes_exclude_certifying_tier(self):
        assert DEFAULT_PASS_NAMES == ("legality", "bounds", "races", "lint")
        assert [p.name for p in default_passes()] == list(DEFAULT_PASS_NAMES)

    def test_resolution_is_registry_ordered(self):
        passes = resolve_passes(["kernels", "forms"])
        assert [p.name for p in passes] == ["forms", "kernels"]

    def test_unknown_pass_name_is_rejected(self):
        with pytest.raises(ReproError) as excinfo:
            resolve_passes(["bogus", "forms"])
        assert "unknown analysis pass(es): bogus" in str(excinfo.value)
        assert "kernels" in str(excinfo.value)  # lists what is available

    def test_empty_selection_is_rejected(self):
        with pytest.raises(ReproError):
            resolve_passes(["", "  "])

    def test_render_pass_list_mentions_every_pass(self):
        listing = render_pass_list()
        for name, _ in available_passes():
            assert name in listing


class TestAnalyzeCliPasses:
    def test_list_passes_flag(self, capsys):
        assert main(["analyze", "--list-passes"]) == 0
        out = capsys.readouterr().out
        assert "forms" in out and "kernels" in out

    def test_no_files_without_list_passes_errors(self, capsys):
        assert main(["analyze"]) != 0
        assert "no input files" in capsys.readouterr().err

    def test_unknown_pass_errors(self, capsys):
        path = os.path.join(EXAMPLES, "figure1.an")
        assert main(["analyze", "--passes", "bogus", path]) != 0
        assert "unknown analysis pass(es): bogus" in capsys.readouterr().err

    def test_certifying_passes_run_clean_at_error(self, capsys):
        files = all_inputs()
        assert main(["analyze", "--passes", "forms,kernels", *files]) == 0
        out = capsys.readouterr().out
        assert "figure1: clean" in out


# ----------------------------------------------------------------------
# golden diagnostic snapshots
# ----------------------------------------------------------------------

class TestGoldenDiagnostics:
    """Pin the exact forms+kernels findings for every shipped input.

    The snapshot stores ``[code, severity, reference, statement]`` per
    diagnostic.  A legitimate behavior change (new lint, different
    codegen) updates ``tests/golden_analysis_certify.json`` alongside the
    change; an accidental diff here is a regression.
    """

    def snapshot(self):
        result = {}
        selected = resolve_passes(("forms", "kernels"))
        for path in all_inputs():
            program, suppressions = _load_input(path)
            report = analyze_program(
                program,
                assumptions=tuple(program.assumptions) or None,
                passes=selected,
                suppressions=suppressions,
            )
            result[os.path.basename(path)] = [
                [
                    d.code,
                    d.severity.label,
                    d.span.reference or "",
                    d.span.statement if d.span.statement is not None else -1,
                ]
                for d in report.diagnostics
            ]
        return result

    def test_matches_golden_snapshot(self):
        with open(GOLDEN, encoding="utf-8") as handle:
            golden = json.load(handle)
        assert self.snapshot() == golden


# ----------------------------------------------------------------------
# fuzz oracle: the certified verdict
# ----------------------------------------------------------------------

class TestFuzzCertification:
    def test_seeded_cases_carry_certified_verdicts(self):
        records = [fuzz_task((index, 0)) for index in range(8)]
        allowed = {"yes", "no", "unverified", "n/a"}
        for record in records:
            assert record.certified in allowed, record
            assert record.status != "form-uncertified"
        # At least one seeded case exercises the symbolic tier end to end.
        assert any(record.certified == "yes" for record in records)

    def test_summary_histogram_and_gate(self):
        records = [
            FuzzRecord(index=0, seed=0, status="ok", certified="yes"),
            FuzzRecord(index=1, seed=1, status="ok", certified="yes"),
            FuzzRecord(index=2, seed=2, status="ok", certified="n/a"),
            FuzzRecord(index=3, seed=3, status="ok", certified="unverified"),
        ]
        summary = summarize(records, seed=0, failures=[])
        assert summary["certified"] == {"n/a": 1, "unverified": 1, "yes": 2}
        assert summary["forms_certified"] is True

    def test_uncertified_case_fails_the_gate(self):
        records = [
            FuzzRecord(
                index=0, seed=0, status="form-uncertified",
                stage="certify[wrapped]", certified="no",
            ),
        ]
        summary = summarize(records, seed=0, failures=[])
        assert summary["certified"] == {"no": 1}
        assert summary["forms_certified"] is False
        assert summary["ok"] is False
