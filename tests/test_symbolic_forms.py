"""The symbolic (tier-0) accounting layer and the PR's hardening fixes.

Covers the :mod:`repro.linalg.sympoly` piecewise-quasi-polynomial layer,
:class:`repro.numa.symbolic.SymbolicEngine` pinned against the
interpreter walk on a sampled (params, P) grid, the forced-engine error
contracts, auto's cost-based demotion, the fingerprint-keyed form store,
the ``solve`` job, and regression tests for the satellite fixes
(``Progression`` step validation, ``REPRO_CACHE_MAX_ENTRIES``
validation, true-LRU disk eviction, HTTP-date ``Retry-After``).
"""

import json
import os

import pytest

from repro.bench import PAPER_PROCS, gemm_variants, syr2k_variants
from repro.codegen import generate_spmd
from repro.core import access_normalize
from repro.errors import ConfigurationError, ReproError, SimulationError
from repro.fuzz.generator import generate_spec
from repro.lang import parse_program
from repro.linalg import Progression, sympoly
from repro.linalg.sympoly import (
    SymbolicUnsupported,
    bounded_sum,
    compile_account,
    const,
    eq0,
    eval_cost,
    floordiv,
    ge0,
    mod,
    pos,
    sum_budget,
    sym,
    sym_sum,
)
from repro.numa import simulate
from repro.numa.symbolic import FIELDS, SymbolicEngine
from repro.runtime.cache import SimulationCache, set_shared_cache, shared_cache
from repro.service.client import _parse_retry_after
from repro.service.jobs import _parse_bindings, _parse_candidate, run_solve

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(REPO_ROOT, "examples", "programs")


def _force_branch(monkeypatch, branch):
    """Make every plan dispatch run ``branch``: the plan itself
    ("plan") or the fused loop ("loop")."""

    def forced(plan, env, limit):
        if branch == "loop":
            return None
        result = plan.run(env, limit)
        assert result is not None, "a plan run bailed"
        return result

    monkeypatch.setattr(sympoly._LoopPlan, "dispatch", forced)


def _record_dispatches(monkeypatch, only=None):
    """Record ``(trips, plan ran)`` for each non-empty plan dispatch
    (of plan ``only``, when given)."""
    taken = []
    original = sympoly._LoopPlan.dispatch

    def recording(plan, env, limit):
        result = original(plan, env, limit)
        if limit > 0 and (only is None or plan is only):
            taken.append((limit, result is not None))
        return result

    monkeypatch.setattr(sympoly._LoopPlan, "dispatch", recording)
    return taken


def _example_source(name):
    with open(os.path.join(EXAMPLES, name), "r", encoding="utf-8") as handle:
        return handle.read()


# ----------------------------------------------------------------------
# sympoly: the piecewise-quasi-polynomial layer
# ----------------------------------------------------------------------
class TestSympoly:
    def test_mod_floordiv_reconstruct(self):
        n = sym("n")
        expr = 5 * floordiv(n, 5) + mod(n, 5)
        for value in (-13, -1, 0, 1, 4, 5, 17):
            assert expr.evaluate({"n": value}) == value

    def test_indicator_semantics(self):
        n = sym("n")
        for value in (-3, -1, 0, 1, 7):
            assert pos(n).evaluate({"n": value}) == max(0, value)
            assert ge0(n).evaluate({"n": value}) == (1 if value >= 0 else 0)
            assert eq0(n).evaluate({"n": value}) == (1 if value == 0 else 0)

    def test_sym_sum_matches_bruteforce(self):
        body = const(2) + 3 * sym("t")
        closed = sym_sum(body, "t", sym("n"))
        assert not closed.depends_on("t")
        for n in (-4, 0, 1, 2, 9, 23):
            expected = sum(2 + 3 * t for t in range(max(0, n)))
            assert closed.evaluate({"n": n}) == expected

    def test_sym_sum_respects_budget(self):
        with sum_budget(0):
            with pytest.raises(SymbolicUnsupported):
                sym_sum(sym("t"), "t", sym("n"))

    def test_bounded_sum_evaluates_as_loop(self):
        squares = bounded_sum("t", sym("n"), sym("t") * sym("t"))
        assert squares.evaluate({"n": 6}) == 55
        assert squares.evaluate({"n": 0}) == 0
        assert squares.evaluate({"n": -2}) == 0

    def test_eval_cost_charges_loops_by_extent(self):
        hint = lambda bound: 10
        flat = const(1) + sym("x")
        body = sym("t") + const(1)
        loop = bounded_sum("t", sym("n"), body)
        assert eval_cost(flat, hint) <= 4
        assert eval_cost(loop, hint) >= 10 * (1 + eval_cost(body, hint))
        # A hint of zero extent still charges the surrounding expression.
        assert eval_cost(loop, lambda bound: 0) >= 1

    def test_compiled_forms_match_interpreter(self):
        # The fused evaluator is the only compiled path; the interpreter
        # is its oracle on the paper variants and a few fuzz nests.
        nodes = dict(gemm_variants(12))
        nodes.update(syr2k_variants(14, 3))
        for seed in (1, 6, 49):
            program = generate_spec(seed).build()
            result = access_normalize(program)
            for schedule in ("wrapped", "blocked"):
                nodes[f"fuzz-{seed}-{schedule}"] = generate_spmd(
                    result.transformed,
                    schedule=schedule,
                    sync_events=result.outer_carried_count,
                )
        for label, node in nodes.items():
            engine = SymbolicEngine(node)
            fused = engine._fused()
            env = node.program.bound_params(None)
            for P in (1, 3, 4):
                for proc in range(P):
                    full = dict(env)
                    full[engine.procs_name] = P
                    full[engine.proc_name] = proc
                    values = dict(zip(fused.fields, fused(full)))
                    for name, form in engine.forms.items():
                        assert values[name] == form.evaluate(full), (
                            label, name, P, proc,
                        )


# ----------------------------------------------------------------------
# SymbolicEngine pinned against the walk on a (params, P) grid
# ----------------------------------------------------------------------
GRID = [
    ("gemm.an", {"N": 8}),
    ("gemm.an", {"N": 19}),
    ("syr2k.an", {"N": 16, "b": 3}),
    ("syr2k.an", {"N": 25, "b": 5}),
    ("figure1.an", {"N1": 9, "N2": 7, "b": 2}),
]


@pytest.mark.parametrize(
    "filename,params", GRID, ids=[f"{n}-{p}" for n, p in GRID]
)
@pytest.mark.parametrize("processors", (1, 2, 5))
def test_symbolic_matches_walk_on_grid(filename, params, processors):
    program = parse_program(_example_source(filename), name=filename)
    normalized = access_normalize(program).transformed
    variants = (
        generate_spmd(program, block_transfers=False),
        generate_spmd(normalized, block_transfers=False),
        generate_spmd(normalized, block_transfers=True),
    )
    for node in variants:
        walk = simulate(
            node, processors=processors, params=params, engine="walk"
        )
        try:
            symbolic = simulate(
                node, processors=processors, params=params, engine="symbolic"
            )
        except SimulationError:
            # A forced tier may decline a nest, never disagree; the paper
            # kernels must not decline.
            assert filename == "figure1.an"
            continue
        assert symbolic.engine == "symbolic"
        for reference, tiered in zip(walk.per_proc, symbolic.per_proc):
            assert tiered.counts == reference.counts, (
                f"symbolic disagrees with walk on proc {reference.proc} "
                f"at P={processors}, params={params}"
            )


# ----------------------------------------------------------------------
# engine contracts and auto's cost-based demotion
# ----------------------------------------------------------------------
class TestEngineContracts:
    def test_symbolic_rejects_execute_mode(self):
        node = gemm_variants(8)["gemm"]
        with pytest.raises(SimulationError, match="account mode"):
            simulate(
                node, processors=2, engine="symbolic", mode="execute",
                arrays={},
            )

    def test_symbolic_rejects_block_cache(self):
        node = gemm_variants(8)["gemmB"]
        with pytest.raises(SimulationError, match="block cache"):
            simulate(node, processors=2, engine="symbolic", block_cache=True)

    def test_unknown_engine_rejected(self):
        node = gemm_variants(8)["gemm"]
        with pytest.raises(SimulationError, match="unknown engine"):
            simulate(node, processors=2, engine="quantum")

    def test_forced_symbolic_reports_unsupported_nest(self):
        source = """
program blockcyclic
param N = 16
real A(N) distribute (cyclic(2))

for i = 0, N-1
    A[i] = A[i] + 1
"""
        program = parse_program(source, name="blockcyclic")
        node = generate_spmd(program, block_transfers=False)
        with pytest.raises(SimulationError, match="symbolic engine cannot"):
            simulate(node, processors=2, engine="symbolic")
        # auto still answers (lower tier) and matches the walk.
        walk = simulate(node, processors=2, engine="walk")
        auto = simulate(node, processors=2)
        for reference, tiered in zip(walk.per_proc, auto.per_proc):
            assert tiered.counts == reference.counts

    def test_auto_derives_multi_armed_nests(self):
        # Auto derives even a nest with twelve extra max/min bound arms
        # (the derivation stays bounded by its sum budget), and the cost
        # ceiling keeps the cheap result.
        source = """
program armstorm
param N = 32
param b = 4
real A(N, N) distribute (*, wrapped)

for i = 0, N-1
    for j = max(i-b+1, i-2*b+1, i-3*b+1, i-4*b+1, 0), min(i+b-1, i+2*b-1, i+3*b-1, i+4*b-1, N-1)
        for k = max(j-b+1, j-2*b+1, 0), min(j+b-1, j+2*b-1, N-1)
            A[i, j] = A[i, j] + A[i, k]
"""
        program = parse_program(source, name="armstorm")
        node = generate_spmd(program, block_transfers=False)
        auto = simulate(node, processors=4)
        walk = simulate(node, processors=4, engine="walk")
        assert auto.engine == "symbolic"
        for reference, tiered in zip(walk.per_proc, auto.per_proc):
            assert tiered.counts == reference.counts

    def test_shadowing_forms_fall_down_the_ladder(self, monkeypatch):
        # An inner sum rebinding its enclosing sum's variable would
        # mis-share cached atoms in compiled code: compile_account
        # refuses it instead of silently miscounting.
        t = sym("t")
        shadowed = bounded_sum("t", sym("n"), bounded_sum("t", t + 1, t))
        with pytest.raises(SymbolicUnsupported):
            compile_account({"local": shadowed})
        with pytest.raises(SymbolicUnsupported):
            shadowed.compiled()

        # A derivation yielding such a form makes the whole tier decline.
        derive = SymbolicEngine._derive

        def shadowing_derive(engine):
            forms = derive(engine)
            forms["guards"] = forms["guards"] + bounded_sum(
                "t", sym(engine.procs_name), shadowed
            )
            return forms

        monkeypatch.setattr(SymbolicEngine, "_derive", shadowing_derive)
        previous = shared_cache()
        set_shared_cache(SimulationCache())
        try:
            node = gemm_variants(8)["gemm"]
            walk = simulate(node, processors=3, engine="walk")
            auto = simulate(node, processors=3)
            assert auto.engine == "closed-form"
            for reference, tiered in zip(walk.per_proc, auto.per_proc):
                assert tiered.counts == reference.counts
            with pytest.raises(SimulationError, match="symbolic engine"):
                simulate(node, processors=3, engine="symbolic")
        finally:
            set_shared_cache(previous)

    def test_estimate_cost_positive_and_param_sensitive(self):
        node = syr2k_variants(40, 6)["syr2k"]
        engine = SymbolicEngine(node)
        env = node.program.bound_params(None)
        small = engine.estimate_cost(env, 8)
        assert small > 0
        bigger = engine.estimate_cost(
            node.program.bound_params({"N": 400, "b": 48}), 8
        )
        assert bigger > small

    def test_form_store_derives_once_per_program(self):
        previous = shared_cache()
        cache = set_shared_cache(SimulationCache())
        try:
            node = gemm_variants(8)["gemm"]
            simulate(node, processors=2, engine="symbolic")
            simulate(node, processors=3, engine="symbolic")
            assert cache.form_derives == 1
            assert cache.form_hits >= 1
        finally:
            set_shared_cache(previous)

    def test_engine_fields_cover_access_counts(self):
        node = gemm_variants(8)["gemm"]
        engine = SymbolicEngine(node)
        assert set(engine.forms) == set(FIELDS)


# ----------------------------------------------------------------------
# the solve job
# ----------------------------------------------------------------------
class TestSolve:
    def _payload(self, **overrides):
        payload = {
            "source": _example_source("gemm.an"),
            "name": "gemm.an",
            "params": {"N": 12},
            "left": {"variant": "naive", "schedule": "wrapped"},
            "right": {"variant": "normalized+bt", "schedule": "wrapped"},
            "min_processors": 1,
            "max_processors": 6,
        }
        payload.update(overrides)
        return payload

    def test_solve_reports_crossover(self):
        output = run_solve(self._payload())
        assert "question: smallest P in [1, 6]" in output
        assert "naive/wrapped" in output
        assert "normalized+bt/wrapped" in output
        assert "answer:" in output
        # Deterministic: a re-run is byte-identical.
        assert run_solve(self._payload()) == output

    def test_solve_json_series_is_complete(self):
        document = json.loads(run_solve(self._payload(json=True)))
        assert document["tool"] == "repro-solve"
        assert document["min_processors"] == 1
        assert document["max_processors"] == 6
        assert len(document["series"]) == 6
        assert "crossover" in document
        for row in document["series"]:
            assert row["left_us"] >= 0 and row["right_us"] >= 0

    def test_solve_validates_candidates_and_range(self):
        with pytest.raises(ReproError, match="unknown variant"):
            run_solve(self._payload(left={"variant": "turbo"}))
        with pytest.raises(ReproError, match="unknown schedule"):
            run_solve(
                self._payload(right={"variant": "naive", "schedule": "x"})
            )
        with pytest.raises(ReproError, match="1 <= min <= max"):
            run_solve(self._payload(min_processors=5, max_processors=2))
        with pytest.raises(ReproError, match="solve cap"):
            run_solve(self._payload(max_processors=1 << 20))
        with pytest.raises(ReproError, match="integer bindings"):
            run_solve(self._payload(params={"N": "twelve"}))

    def test_candidate_and_binding_parsers(self):
        assert _parse_candidate("naive") == {
            "variant": "naive", "schedule": "wrapped",
        }
        assert _parse_candidate("normalized/blocked") == {
            "variant": "normalized", "schedule": "blocked",
        }
        assert _parse_bindings(["N=400", "b=48"]) == {"N": 400, "b": 48}
        assert _parse_bindings([]) is None
        with pytest.raises(ReproError, match="NAME=VALUE"):
            _parse_bindings(["N"])
        with pytest.raises(ReproError):
            _parse_bindings(["N=ten"])


# ----------------------------------------------------------------------
# satellite regressions
# ----------------------------------------------------------------------
class TestProgressionValidation:
    def test_zero_step_rejected(self):
        with pytest.raises(ValueError, match="step >= 1"):
            Progression(first=0, step=0, trips=3)
        with pytest.raises(ValueError, match="step >= 1"):
            Progression.from_bounds(0, 10, 0)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match="step >= 1"):
            Progression.from_bounds(0, 10, -2)

    def test_valid_step_unchanged(self):
        assert Progression.from_bounds(0, 10, 3).trips == 4


class TestSharedCacheConfig:
    def _reset(self):
        import repro.runtime.cache as cache_mod

        previous = cache_mod._SHARED
        cache_mod._SHARED = None
        return cache_mod, previous

    def test_malformed_cap_raises(self, monkeypatch):
        cache_mod, previous = self._reset()
        try:
            monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "10k")
            with pytest.raises(ConfigurationError, match="10k"):
                shared_cache()
        finally:
            cache_mod._SHARED = previous

    def test_valid_cap_applied(self, monkeypatch):
        cache_mod, previous = self._reset()
        try:
            monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "7")
            monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
            assert shared_cache().disk_max_entries == 7
        finally:
            cache_mod._SHARED = previous


class TestDiskLru:
    def test_disk_hit_refreshes_entry_against_eviction(self, tmp_path):
        node = gemm_variants(8)["gemm"]
        result = simulate(node, processors=2)
        cache = SimulationCache(store_dir=str(tmp_path), disk_max_entries=2)
        for index, key in enumerate(["old", "mid"]):
            cache.put(key, result)
            stamp = 1_000_000 + index
            os.utime(tmp_path / f"{key}.pkl", (stamp, stamp))
        # A disk hit (fresh cache: cold memory) must refresh the entry's
        # mtime, otherwise eviction is FIFO-by-write and the hottest
        # long-lived entry goes first.
        reader = SimulationCache(store_dir=str(tmp_path), disk_max_entries=2)
        assert reader.get("old") is not None
        reader.put("new", result)
        reader._evict_disk()
        assert reader.disk_entries() == 2
        assert (tmp_path / "old.pkl").exists()  # re-read: survives
        assert not (tmp_path / "mid.pkl").exists()  # coldest: evicted
        assert (tmp_path / "new.pkl").exists()


class TestRetryAfterParsing:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ("1.5", 1.5),
            ("0", 0.0),
            ("120", 120.0),
            ("Fri, 31 Dec 1999 23:59:59 GMT", None),  # RFC 9110 HTTP-date
            ("soon", None),
            ("-5", None),
            ("", None),
            (None, None),
        ],
    )
    def test_values(self, value, expected):
        assert _parse_retry_after(value) == expected


# ----------------------------------------------------------------------
# Residue-class specialized evaluators (tier-0 on banded nests)
# ----------------------------------------------------------------------
class TestResidueClassSpecialization:
    """The fused, plan-specialized evaluation path on banded forms.

    Three implementations of the same counts must agree bit-for-bit:
    the fused evaluator with residue-class loop plans ("split"), the
    per-form interpreter (`evaluate`, "unsplit"), and the walk.
    """

    def test_split_unsplit_walk_agree_on_banded_grid(self):
        for name, node in syr2k_variants(18, 3).items():
            engine = SymbolicEngine(node)
            fused = compile_account(engine.forms)
            for params in ({"N": 18, "b": 3}, {"N": 25, "b": 4}):
                env = node.program.bound_params(params)
                for processors in (1, 2, 3, 5):
                    walk = simulate(
                        node,
                        processors=processors,
                        params=params,
                        engine="walk",
                    )
                    for proc in range(processors):
                        point = dict(env)
                        point[engine.procs_name] = processors
                        point[engine.proc_name] = proc
                        split = dict(zip(fused.fields, fused(point)))
                        for field in FIELDS:
                            unsplit = engine.forms[field].evaluate(point)
                            reference = getattr(
                                walk.per_proc[proc].counts, field
                            )
                            key = (name, field, params, processors, proc)
                            assert split[field] == unsplit, key
                            assert split[field] == reference, key

    def test_banded_forms_use_residue_class_plans(self):
        # The whole point of the PR: SYR2K's wrapped banded nest must
        # actually compile a residue-class plan, not just a loop.
        node = syr2k_variants(24, 4)["syr2k"]
        engine = SymbolicEngine(node)
        fused = engine._fused()
        assert any(plan is not None for plan in fused.plans)

    def test_plan_matches_interpreter_on_synthetic_mod_sums(
        self, monkeypatch
    ):
        # Direct sympoly-level check: a banded-style sum whose body
        # carries Mod/FloorDiv/Pos atoms in the bound variable, over
        # trip counts below and above where the rule starts taking the
        # plan, for several moduli (incl. 1, where every class
        # collapses).  Each branch is checked: the rule's pick, the
        # plan run on every range (bypassing the rule), and the fused
        # fallback loop on every range.
        q = sym("q")
        P = sym("P")
        n = sym("n")
        body = (
            3 * mod(q, P)
            + floordiv(q, P) * 2
            + pos(q + (-1) * sym("c"))
            + mod(q + 5, 3)
        )
        expr = bounded_sum("q", n, body) + bounded_sum(
            "r", mod(n, P) + 2, sym("r") + 7
        )
        fast = compile_account({"value": expr})
        assert fast.plans
        for branch in ("rule", "plan", "loop"):
            with monkeypatch.context() as patch:
                if branch != "rule":
                    _force_branch(patch, branch)
                for N in (0, 1, 7, 12, 13, 40, 97, 2000):
                    for procs in (1, 2, 3, 4, 7):
                        for c in (0, 3, 50):
                            env = {"n": N, "P": procs, "c": c}
                            key = (branch, env)
                            assert fast(env)[0] == expr.evaluate(env), key

    def test_plan_resolves_ranges_shorter_than_their_period(self):
        # A range shorter than its residue period splits into
        # one-iteration classes; those must resolve, not split into
        # themselves until the work budget gives up.
        q = sym("q")
        P = sym("P")
        expr = bounded_sum("q", sym("n"), mod(q, P) + floordiv(3 * q, P))
        (plan,) = compile_account({"value": expr}).plans
        for trips in range(1, 12):
            env = {"n": trips, "P": 13}
            assert plan.run(env, trips) == (expr.evaluate(env),), trips

    @pytest.mark.parametrize("processors", [1, 4, 28])
    def test_plan_run_matches_fallback_on_syr2k_at_paper_scale(
        self, processors, monkeypatch
    ):
        # The SYR2K forms at paper scale (N=400, b=48), where the rule
        # keeps the plan off most ranges: the plan run on every range,
        # the fused fallback on every range, and the interpreter agree.
        for name, node in syr2k_variants(400, 48).items():
            engine = SymbolicEngine(node)
            fused = compile_account(engine.forms)
            assert fused.plans, name
            env = node.program.bound_params(None)
            for proc in sorted({0, processors - 1}):
                point = dict(env)
                point[engine.procs_name] = processors
                point[engine.proc_name] = proc
                values = {}
                for branch in ("plan", "loop"):
                    with monkeypatch.context() as patch:
                        _force_branch(patch, branch)
                        values[branch] = fused(point)
                key = (name, processors, proc)
                assert values["plan"] == values["loop"], key
                reference = tuple(
                    engine.forms[field].evaluate(point)
                    for field in fused.fields
                )
                assert values["loop"] == reference, key

    def test_rule_takes_the_plan_for_syr2k_only_at_one_processor(
        self, monkeypatch
    ):
        # At P=1 the SYR2K plan has one residue class and beats the
        # fused loop on the long ranges; at P=28 its 28 classes cost
        # several times the loop on every range.
        node = syr2k_variants(400, 48)["syr2k"]
        engine = SymbolicEngine(node)
        env = node.program.bound_params(None)
        taken = _record_dispatches(monkeypatch)
        engine.account(env, 1, 0)
        assert any(plan_ran for _trips, plan_ran in taken)
        longest = max(trips for trips, _plan_ran in taken)
        assert all(plan_ran for trips, plan_ran in taken if trips == longest)
        taken.clear()
        for proc in (0, 27):
            engine.account(env, 28, proc)
        assert taken and not any(plan_ran for _trips, plan_ran in taken)

    def test_planned_cost_prices_the_branch_the_runtime_takes(
        self, monkeypatch
    ):
        # For every planned level of the Figure 4/5 forms and every
        # paper processor count, estimate_cost prices the branch the
        # evaluator runs on most of that level's ranges.  (A nested
        # level is priced at its mean trip count; the runtime decides
        # per range, so at P=1 the short ranges of SYR2K's band edges
        # run the loop while the estimate prices the plan.)
        priced = {}
        original_choose = sympoly._LoopPlan.choose

        def pricing(plan, trips, classes):
            decision = original_choose(plan, trips, classes)
            priced[plan] = decision[0]
            return decision

        for variants in (gemm_variants(400), syr2k_variants(400, 48)):
            for name, node in variants.items():
                engine = SymbolicEngine(node)
                plans = engine._fused().plans
                env = node.program.bound_params(None)
                for processors in PAPER_PROCS:
                    priced.clear()
                    with monkeypatch.context() as patch:
                        patch.setattr(sympoly._LoopPlan, "choose", pricing)
                        engine.estimate_cost(env, processors)
                    assert set(priced) == set(plans), name
                    for plan in plans:
                        with monkeypatch.context() as patch:
                            taken = _record_dispatches(patch, plan)
                            engine.account(env, processors, 0)
                        if not taken:
                            continue
                        ran = sum(plan_ran for _trips, plan_ran in taken)
                        majority = 2 * ran > len(taken)
                        key = (name, processors, ran, len(taken))
                        assert priced[plan] == majority, key

    def test_plan_falls_back_on_nonpositive_modulus(self):
        # A runtime modulus <= 0 must raise the checked-atom error from
        # both the interpreter and the compiled/planned path.
        q = sym("q")
        expr = bounded_sum("q", sym("n"), mod(q, sym("P")))
        env = {"n": 64, "P": 0}
        with pytest.raises(SymbolicUnsupported):
            expr.evaluate(env)
        with pytest.raises(SymbolicUnsupported):
            expr.compiled()(env)

    def test_strength_reduced_sources_pass_kernel_sanitizer(self):
        # KERN001/KERN002 stay clean on the emitted fused sources even
        # after induction-variable strength reduction leaves counted
        # loops whose target the body no longer reads.
        from repro.analysis.kernels import sanitize_generated_source

        for kind, variants in (
            ("syr2k", syr2k_variants(24, 4)),
            ("gemm", gemm_variants(16)),
        ):
            for name, node in variants.items():
                engine = SymbolicEngine(node)
                fused = engine._fused()
                diagnostics = sanitize_generated_source(
                    fused.source, artifact="form:fused", program=name
                )
                assert diagnostics == [], (name, diagnostics)
