"""Acceptance tests for the certifying analysis tier (forms + kernels).

Three layers of guarantees:

* every shipped input whose nest has a symbolic tier carries a *verified*
  :class:`~repro.analysis.forms.FormCertificate`;
* injected defects are caught — a mutated form coefficient trips the
  certificate (FORM005), a hand-built unsimplified atom trips the
  well-formedness lint (FORM001), and a mutated kernel guard trips the
  sanitizer (KERN003/KERN004) at the right source line;
* the pass registry, ``--passes``/``--list-passes`` CLI surface, and the
  fuzz oracle's ``certified`` verdict behave as documented.
"""

import json
import os

import pytest

from repro.analysis import Severity, analyze_program
from repro.analysis.cli import _load_input, render_pass_list
from repro.analysis.forms import (
    FormCertificate,
    FormsPass,
    certify_engine,
    certify_node,
)
from repro.analysis.kernels import (
    KernelPass,
    expected_ownership,
    sanitize_generated_source,
)
from repro.analysis.manager import (
    DEFAULT_PASS_NAMES,
    PASS_REGISTRY,
    available_passes,
    build_context,
    default_passes,
    resolve_passes,
)
from repro.cli import main
from repro.codegen.pycodegen import compile_accounting
from repro.errors import ReproError
from repro.fuzz.cli import summarize
from repro.fuzz.generator import generate_spec
from repro.fuzz.oracle import FuzzRecord, fuzz_task
from repro.linalg.sympoly import Mod, SymExpr, const, sym
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
            "degree", "period", "max_processors", "points", "digest",
        }
        json.dumps(payload)  # raises if anything is not JSON-serializable

    def test_kernel_pass_never_errors_on_shipped_inputs(self):
        """The sanitizer may warn about real inefficiencies, but an ERROR
        (ownership inconsistent with the distributions) on shipped code
        would be a codegen bug."""
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
    def test_generated_kernel_baseline_has_no_errors(self):
        context = gemm_context()
        kernel = compile_accounting(context.node)
        findings = sanitize_generated_source(
            kernel.source,
            artifact="kernel",
            program="gemm",
            expected=expected_ownership(context.node),
        )
        assert all(d.severity < Severity.ERROR for d in findings)

    def test_mutated_guard_to_constant_is_kern003(self):
        context = gemm_context()
        source = compile_accounting(context.node).source
        lines = source.splitlines()
        guard_index = next(
            index for index, line in enumerate(lines)
            if line.lstrip().startswith("if ")
        )
        indent = lines[guard_index][: len(lines[guard_index])
                                    - len(lines[guard_index].lstrip())]
        lines[guard_index] = f"{indent}if True:"
        findings = sanitize_generated_source(
            "\n".join(lines), artifact="kernel", program="gemm"
        )
        flagged = [d for d in findings if d.code == "KERN003"]
        assert flagged, [d.format() for d in findings]
        assert flagged[0].span.statement == guard_index + 1
        assert flagged[0].span.reference == "kernel"

    def test_mutated_ownership_guard_is_kern004(self):
        context = gemm_context()
        source = compile_accounting(context.node).source
        assert expected_ownership(context.node) == {"wrapped"}
        # Turn a wrapped congruence guard into a blocked interval check:
        # the distributions say wrapped, so 'blocked' observed is an error.
        marker = next(
            m for m in ("% _P == _p", "% _P != _p") if m in source
        )
        mutated = source.replace(marker, "<= _hib_fake", 1)
        assert mutated != source
        findings = sanitize_generated_source(
            mutated, artifact="kernel", program="gemm", expected={"wrapped"}
        )
        flagged = [d for d in findings if d.code == "KERN004"]
        assert flagged, [d.format() for d in findings]
        assert flagged[0].severity == Severity.ERROR
        assert "blocked" in flagged[0].message
        assert flagged[0].span.statement is not None

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
        forms = [(a, src) for a, src in seen if a.startswith("form:")]
        assert forms == [("form:account", engine._fused().source)]
        flagged = [
            d for d in findings if d.span.reference == "form:account"
        ]
        assert [d.code for d in flagged] == ["KERN001"]

    def test_unexpected_wrapped_guard_without_wrapped_arrays(self):
        findings = sanitize_generated_source(
            SYNTHETIC_KERNEL, artifact="kernel", program="synth",
            expected=set(),
        )
        flagged = [d for d in findings if d.code == "KERN004"]
        assert flagged and flagged[0].span.statement == 7
        assert "wrapped" in flagged[0].message


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
