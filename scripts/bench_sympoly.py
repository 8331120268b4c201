#!/usr/bin/env python
"""Micro-benchmark the tier-0 form evaluators; calibrate the cost model.

The symbolic cost model (:func:`repro.linalg.sympoly.planned_cost` and
``SYMBOLIC_COST_CEILING`` in :mod:`repro.numa.simulator`) prices a form
in *loop ops*: the wall time of one flat op (``_flat_ops``) in a fused
loop iteration.  The same unit prices both branches of the
plan-vs-loop rule (``_LoopPlan.choose``) that the emitted dispatch and
``planned_cost`` share, so the rule only picks the faster branch, and
auto's tier gate only promotes honestly, if the model's constants track
what the evaluators cost at runtime.  This script measures, on the host
it runs on:

``flat_ns_per_op``
    Wall-clock per flat op of a straight-line compiled form (no loops).

``loop_ns_per_iter``
    Per-iteration cost of a compiled fused loop whose body no plan
    accepts (its ``Mod`` argument is quadratic in the bound variable,
    so the script asserts that the evaluator compiled no plan), timed
    at two trip counts to show the cost is O(trips).

``loop_fit``
    The loop side of the model, fitted on the paper kernels: every
    level of the Figure 4 GEMM and Figure 5 SYR2K forms (N=400, b=48)
    that compiles a plan is rebuilt alone as a fused loop (no plan,
    asserted) and run over every range processor 0 dispatches it over
    at P=16.  A least-squares line through ``(iter_ops, ns per trip)``
    gives ``ns_per_op`` (the unit) and ``iter_ops`` (the fixed
    per-iteration overhead in that unit; the model's
    ``_LOOP_ITER_OPS``).

``plan_fit``
    The plan side, fitted on the real SYR2K kernel: its plan's
    ``_LoopPlan.run`` over every range processor 0 dispatches it over,
    for P = 1 to 4 (the lcm of its moduli is P; past that the plan
    never pays).  A line ``setup + classes * per_class`` through the
    mean ns per range, divided by the unit (and the per-class term by
    ``1 + clamps``, the segments of one class), gives the model's
    ``_PLAN_SETUP_OPS`` and ``_PLAN_SEGMENT_OPS``.  Both fits are timed
    round-robin in one pass, so a slow stretch of host time hits both
    sides alike.  ``model`` holds the constants the code uses; re-run
    after evaluator changes and update them when the fit moves.

``syr2k_paper``
    The end-to-end check the tier gate rests on: on the real banded
    kernel at paper scale (N=400, b=48), ``estimate_cost`` (loop ops)
    versus measured ``account`` wall per cell.  An honest model keeps
    ``ns_per_estimated_op`` near ``loop_fit.ns_per_op`` at every P,
    whichever branch the rule takes there.  ``SYMBOLIC_COST_CEILING``
    is a per-cell wall bound divided by this conversion (its comment
    gives the derivation); if the conversion shifts by more than ~2x,
    re-derive the ceiling from the new one.

``derive``
    Form derivation, the tuner's bottleneck: every candidate the
    tune-search benchmark workload scores (SYR2K at N=24, b=3 and GEMM at
    N=24; P in {4, 16}; budget 12) is a new node program, derived from
    scratch.  Per kernel: the distinct candidate node programs, how many
    derivations were refused (``SymbolicUnsupported``), the best wall of
    deriving them all, ``forms_per_s`` (derivations per second, refused
    ones included), the ``SymExpr`` constructions one pass makes, and
    the share of those the intern table answered with an existing
    instance (``intern_hit_ratio``).  ``derive_before`` holds the
    candidates, refusals, wall and rate of the tree before ``SymExpr``
    was hash-consed (docs/performance.md gives the command), kept as
    recorded when the section is rewritten.

The results land in the ``sympoly`` section of ``BENCH_simulator.json``
(everything else in the file is preserved; ``bench_trajectory.py``
likewise preserves this section when it re-records the sweeps).

Usage (from the repo root):

    PYTHONPATH=src python scripts/bench_sympoly.py
    PYTHONPATH=src python scripts/bench_sympoly.py --repeats 7 --dry-run
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.bench import figure_machine, gemm_variants, syr2k_variants
from repro.blas import PAPER_PRIORITY, gemm_program, syr2k_program
from repro.linalg import sympoly
from repro.linalg.sympoly import (
    SymbolicUnsupported,
    SymExpr,
    _flat_ops,
    bounded_sum,
    compile_account,
    floordiv,
    mod,
    pos,
    sym,
)
from repro.numa import simulator
from repro.numa.simulator import SYMBOLIC_COST_CEILING
from repro.numa.symbolic import SymbolicEngine
from repro.runtime.cache import node_fingerprint, shared_cache
from repro.tune.search import tune_program

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_simulator.json")


def _best_of(repeats, fn, *args):
    """Best wall clock of ``repeats`` runs (noise floor, not average)."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def measure_flat(repeats):
    """ns per flat op of a straight-line compiled form."""
    n, p, P = sym("n"), sym("p"), sym("P")
    expr = (
        3 * n * n
        + 2 * n * p
        + 5 * floordiv(n, P)
        + mod(n + p, P)
        + pos(n + (-7) * p)
        + mod(3 * n + 1, 4)
    )
    ops = _flat_ops(expr)
    fn = expr.compiled()
    env = {"n": 400, "p": 3, "P": 28}
    calls = 20000

    def run():
        for _ in range(calls):
            fn(env)

    best = _best_of(repeats, run)
    return best * 1e9 / (calls * ops), ops


def measure_loop(repeats):
    """ns per iteration of a compiled fused loop, at two trip counts.

    ``mod(q*q, 7)`` has an argument quadratic in the bound variable, so
    no residue-class plan can take this body: the evaluator must be the
    plain fused loop, and the per-iteration time must not fall with the
    trip count the way a plan's O(classes) run would.
    """
    q = sym("q")
    expr = bounded_sum("q", sym("n"), mod(q * q, 7) + 3 * mod(q, sym("P")) + 2)
    fused = compile_account({"value": expr})
    assert fused.plans == (), "the loop probe compiled a residue-class plan"
    out = {}
    for trips in (2000, 20000):
        env = {"n": trips, "P": 7}
        best = _best_of(repeats, fused, env)
        out[trips] = best * 1e9 / trips
    return out


def _fit_line(points):
    """Least-squares ``(intercept, slope)`` through ``(x, y)`` points."""
    count = len(points)
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    slope = (count * sxy - sx * sy) / (count * sxx - sx * sx)
    return (sy - slope * sx) / count, slope


def _planned_levels(node, procs):
    """``(plan, var, bodies, ranges)`` per planned level of ``node``.

    The level's bodies come from compiling the engine's evaluator with
    ``_build_plan`` observed; ``ranges`` are the ``(env, limit)`` pairs
    of every dispatch of the level in processor 0's evaluation at
    ``procs`` (empty ranges left out).
    """
    built = {}
    original_build = sympoly._build_plan

    def observing_build(var, bodies):
        plan = original_build(var, bodies)
        if plan is not None:
            built[id(plan)] = (var, list(bodies))
        return plan

    sympoly._build_plan = observing_build
    try:
        engine = SymbolicEngine(node)
        fused = engine._fused()
    finally:
        sympoly._build_plan = original_build
    ranges = {id(plan): [] for plan in fused.plans}
    original_dispatch = sympoly._LoopPlan.dispatch

    def observing_dispatch(plan, env, limit):
        if limit > 0:
            ranges[id(plan)].append((dict(env), limit))
        return original_dispatch(plan, env, limit)

    sympoly._LoopPlan.dispatch = observing_dispatch
    try:
        engine.account(node.program.bound_params(None), procs, 0)
    finally:
        sympoly._LoopPlan.dispatch = original_dispatch
    return [
        (plan, *built[id(plan)], ranges[id(plan)]) for plan in fused.plans
    ]


#: The bound-variable name of a level rebuilt alone: its trip count.
TRIPS = "trips"


def _loop_only(var, bodies):
    """The fused loop of one level over ``env[TRIPS]`` trips, no plan."""
    original_build = sympoly._build_plan
    sympoly._build_plan = lambda var, bodies: None
    try:
        fused = compile_account({
            f"m{index}": bounded_sum(var, sym(TRIPS), body)
            for index, body in enumerate(bodies)
        })
    finally:
        sympoly._build_plan = original_build
    assert fused.plans == (), "the loop-only level compiled a plan"
    return fused


def _run_loops(fused, envs):
    for env in envs:
        fused(env)


def _run_plans(plan, ranges):
    for env, limit in ranges:
        if plan.run(env, limit) is None:
            raise AssertionError("a plan run bailed")


#: Calls per timed sample in the fits: enough work per sample that the
#: best of a few samples is stable.
CALLS = 3


def _interleaved_best(repeats, jobs):
    """Best wall per call of each ``(fn, args)`` job.

    The jobs are timed round-robin, ``repeats`` rounds of ``CALLS``
    calls, so a stretch of slow host time hits every job of a fit alike
    instead of bending the fitted line.
    """
    best = [None] * len(jobs)
    for _ in range(repeats):
        for index, (fn, args) in enumerate(jobs):
            start = time.perf_counter()
            for _ in range(CALLS):
                fn(*args)
            elapsed = (time.perf_counter() - start) / CALLS
            if best[index] is None or elapsed < best[index]:
                best[index] = elapsed
    return best


#: Processor counts of the plan fit: the SYR2K plan's classes are P, and
#: past a few classes its price is far above the loop's, so these are
#: the counts where the rule's answer can change.
PLAN_FIT_PROCS = (1, 2, 3, 4)


def measure_fits(repeats):
    """The loop and plan fits, timed interleaved in one pass.

    Both run every range the level is dispatched over in processor 0's
    evaluation, so the fit sees the ranges' real mix of lengths and
    sign changes.  Loop: ns per trip = ns_per_op * (iter_ops_fixed +
    iter_ops), one point per planned level of the paper kernels at
    P=16, each level rebuilt alone as a fused loop (per-range work such
    as hoisted invariants included, as the dispatch sees it).  Plan:
    the SYR2K plan's mean run per range, ns = setup + classes *
    per_class, over P = 1 to 4 (a range has ``min(P, trips)`` classes).
    """
    loops = []
    jobs = []
    for variants in (gemm_variants(400), syr2k_variants(400, 48)):
        for node in variants.values():
            for plan, var, bodies, ranges in _planned_levels(node, 16):
                envs = []
                for env, limit in ranges:
                    env = dict(env)
                    env[TRIPS] = limit
                    envs.append(env)
                loops.append((plan.iter_ops, sum(l for _, l in ranges)))
                jobs.append((_run_loops, (_loop_only(var, bodies), envs)))
    node = syr2k_variants(400, 48)["syr2k"]
    plan = None
    counts = []
    for procs in PLAN_FIT_PROCS:
        (plan, _var, _bodies, ranges), = _planned_levels(node, procs)
        classes = [min(procs, limit) for _, limit in ranges]
        counts.append((sum(classes) / len(classes), len(ranges)))
        jobs.append((_run_plans, (plan, ranges)))
    best = _interleaved_best(repeats, jobs)
    loop_points = [
        (iter_ops, seconds * 1e9 / trips)
        for (iter_ops, trips), seconds in zip(loops, best)
    ]
    intercept, op_ns = _fit_line(loop_points)
    plan_points = [
        (classes, seconds * 1e9 / count)
        for (classes, count), seconds in zip(counts, best[len(loops):])
    ]
    setup_ns, class_ns = _fit_line(plan_points)
    return {
        "op_ns": op_ns,
        "iter_ops": intercept / op_ns,
        "loop_points": loop_points,
        "setup_ns": max(setup_ns, 0.0),
        "class_ns": max(class_ns, 0.0),
        "clamps": plan.clamps,
        "plan_points": plan_points,
    }


def measure_syr2k(repeats):
    """End-to-end: estimate_cost loop ops vs account wall at paper scale."""
    node = syr2k_variants(400, 48)["syr2k"]
    engine = SymbolicEngine(node)
    env = node.program.bound_params(None)
    out = {}
    for procs in (1, 4, 28):
        estimate = engine.estimate_cost(env, procs)
        calls = 20

        def run():
            for proc in (0, procs - 1):
                for _ in range(calls):
                    engine.account(env, procs, proc)

        best = _best_of(repeats, run)
        wall_us = best * 1e6 / (2 * calls)
        out[str(procs)] = {
            "estimate_ops": estimate,
            "account_us": round(wall_us, 3),
            "ns_per_estimated_op": round(wall_us * 1000 / estimate, 3)
            if estimate
            else None,
        }
    return out


#: kernel -> (full-scale program, scoring params, access priority), as
#: the tune-search benchmark workload searches them.
TUNE_KERNELS = {
    "syr2k": (syr2k_program(400, 48), {"N": 24, "b": 3}, list(PAPER_PRIORITY)),
    "gemm": (gemm_program(400), {"N": 24}, None),
}


def tuner_nodes(kind):
    """The distinct node programs one tune-search scores for ``kind``."""
    program, params, priority = TUNE_KERNELS[kind]
    nodes = {}
    original = simulator._cached_form

    def recording(node):
        nodes.setdefault(node_fingerprint(node), node)
        return original(node)

    shared_cache().clear()
    simulator._cached_form = recording
    try:
        tune_program(
            program, processors=(4, 16), machine=figure_machine(),
            params=params, priority=priority, budget=12, jobs=1,
        )
    finally:
        simulator._cached_form = original
    return list(nodes.values())


def _derive_all(nodes):
    """Derive every node's forms; the number refused."""
    refused = 0
    for node in nodes:
        try:
            SymbolicEngine(node)
        except SymbolicUnsupported:
            refused += 1
    return refused


def _count_constructions(nodes):
    """``(constructions, intern hits)`` of one derivation pass.

    A miss is a construction that grows the intern table by one entry.
    """
    calls = [0, 0]
    original = SymExpr.__new__

    def counting(cls, terms):
        before = len(sympoly._EXPRS)
        expr = original(cls, terms)
        calls[0] += 1
        calls[1] += len(sympoly._EXPRS) == before
        return expr

    SymExpr.__new__ = counting
    try:
        _derive_all(nodes)
    finally:
        SymExpr.__new__ = original
    return calls[0], calls[1]


def measure_derive(repeats):
    """Forms derived per second for the tuner's candidates, per kernel."""
    out = {}
    for kind in TUNE_KERNELS:
        nodes = tuner_nodes(kind)
        refused = _derive_all(nodes)
        best = _best_of(repeats, _derive_all, nodes)
        constructions, hits = _count_constructions(nodes)
        out[kind] = {
            "candidates": len(nodes),
            "refused": refused,
            "wall_s": round(best, 4),
            "forms_per_s": round(len(nodes) / best, 2),
            "constructions": constructions,
            "intern_hit_ratio": round(hits / constructions, 4),
        }
    return out


def run_benchmark(repeats):
    flat_ns, flat_ops = measure_flat(repeats)
    loop_ns = measure_loop(repeats)
    fits = measure_fits(repeats)
    syr2k = measure_syr2k(repeats)
    derive = measure_derive(repeats)
    op_ns = fits["op_ns"]
    iter_ops = fits["iter_ops"]
    setup_ops = fits["setup_ns"] / op_ns
    segment_ops = fits["class_ns"] / ((1 + fits["clamps"]) * op_ns)
    model = {
        "loop_iter_ops": sympoly._LOOP_ITER_OPS,
        "plan_setup_ops": sympoly._PLAN_SETUP_OPS,
        "plan_segment_ops": sympoly._PLAN_SEGMENT_OPS,
    }
    section = {
        "flat_ns_per_op": round(flat_ns, 3),
        "flat_probe_ops": flat_ops,
        "loop_ns_per_iter": {str(n): round(ns, 3) for n, ns in loop_ns.items()},
        "loop_fit": {
            "ns_per_op": round(op_ns, 3),
            "iter_ops": round(iter_ops, 1),
            "points": [[ops, round(ns, 1)] for ops, ns in fits["loop_points"]],
        },
        "plan_fit": {
            "setup_ns": round(fits["setup_ns"], 1),
            "ns_per_class": round(fits["class_ns"], 1),
            "clamps": fits["clamps"],
            "setup_ops": round(setup_ops, 1),
            "segment_ops": round(segment_ops, 1),
            "points": [
                [round(classes, 3), round(ns, 1)]
                for classes, ns in fits["plan_points"]
            ],
        },
        "model": model,
        "cost_ceiling_ops": SYMBOLIC_COST_CEILING,
        "syr2k_paper": syr2k,
        "derive": derive,
    }
    print(f"flat evaluation: {flat_ns:.2f} ns/op ({flat_ops}-op probe)")
    print(
        "fused loop:      "
        + ", ".join(f"{ns:.1f} ns/iter at n={n}" for n, ns in loop_ns.items())
    )
    print(
        f"loop fit:        {op_ns:.2f} ns/loop op, {iter_ops:.1f} ops fixed "
        f"per iteration (model {model['loop_iter_ops']})"
    )
    print(
        f"plan fit:        {fits['setup_ns'] / 1000:.1f} us setup + "
        f"{fits['class_ns'] / 1000:.1f} us/class on SYR2K "
        f"({fits['clamps']} clamps) = setup {setup_ops:.0f}, segment "
        f"{segment_ops:.0f} loop ops (model {model['plan_setup_ops']}/"
        f"{model['plan_segment_ops']})"
    )
    for procs, row in syr2k.items():
        print(
            f"syr2k paper P={procs}: estimate {row['estimate_ops']} ops, "
            f"account {row['account_us']} us/cell "
            f"({row['ns_per_estimated_op']} ns/op)"
        )
    for kind, row in derive.items():
        print(
            f"derive {kind}: {row['candidates']} candidates "
            f"({row['refused']} refused) in {row['wall_s']} s = "
            f"{row['forms_per_s']} forms/s; {row['constructions']} SymExpr "
            f"constructions, intern hit ratio {row['intern_hit_ratio']}"
        )
    ceiling_ms = SYMBOLIC_COST_CEILING * op_ns / 1e6
    print(
        f"ceiling {SYMBOLIC_COST_CEILING} loop ops ~= {ceiling_ms:.0f} ms/cell "
        f"at the fitted loop rate"
    )
    return section


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--dry-run", action="store_true",
        help="measure and print, but do not touch the JSON record",
    )
    args = parser.parse_args(argv)

    section = run_benchmark(args.repeats)
    if args.dry_run:
        return 0

    document = {}
    if os.path.exists(args.output):
        with open(args.output, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    previous = document.get("sympoly", {})
    if "derive_before" in previous:
        section["derive_before"] = previous["derive_before"]
    document["sympoly"] = section
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote sympoly section of {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
