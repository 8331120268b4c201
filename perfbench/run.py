#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload served-mix --seed 1 --seconds 8 --trace 1

``--trace 0`` measures the end-to-end metrics with no wrappers in place:
set-up time (the median of five set-ups: this process's and four fresh
interpreters'), ops per second, median and tail op latency, and peak
resident memory.  ``--trace 1`` runs the same work with every layer
wrapped (``tracing.py``) while a child process runs it untraced, and
reports the per-layer ledger, the tracing overhead (traced against
untraced ops per second), and how much of the traced wall the spans'
self times cover; the spans go to ``.perfbench_work/``.

Every run checks its outputs (see ``workloads.py``).  The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is 1 when any op failed or any output was wrong, 2 when the repository
sources are missing.  ``--record`` rewrites the tune-search ranking
digests in ``reference.json`` (only when the tuner's output is meant to
change).
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups per run: this process plus ``SETUP_PROBES`` fresh interpreters.
SETUP_PROBES = 4

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

TIERS = ("symbolic", "closed-form", "compiled", "walk")
VARIANTS = ("gemm", "gemmT", "gemmB", "syr2k", "syr2kT", "syr2kB")
#: Spans reported as ``<layer>.calls`` and ``<layer>.self_s``.
SPANNED = (
    "numa.symbolic.account",
    "numa.symbolic.derive",
    "linalg.sympoly.compile",
    "numa.simulator.simulate",
    "analysis.forms.certify",
    "numa.counting.account",
    "lang.parse",
    "core.normalize",
    "core.transform",
    "codegen.spmd",
    "runtime.grid",
)
#: Spans reported as ``<layer>.self_s`` only.
SELF_ONLY = (
    "numa.symbolic.estimate",
    "fuzz.generate",
    "fuzz.check",
    "ir.interp.execute",
)


def per_layer_names():
    """Every per-layer metric as ``(name, unit)``, in report order."""
    names = []
    for layer in SPANNED:
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    names += [(f"{layer}.self_s", "s") for layer in SELF_ONLY]
    names += [
        ("numa.symbolic.derive.refused", "count"),
        ("runtime.form.derives", "count"),
        ("runtime.form.hits", "count"),
        ("runtime.cache.hit_ratio", "ratio"),
        ("analysis.forms.certified_ratio", "ratio"),
        ("numa.simulator.walk_share", "ratio"),
    ]
    for tier in TIERS:
        names += [
            (f"numa.simulator.tier.{tier}.cells", "count"),
            (f"numa.simulator.tier.{tier}.s", "s"),
        ]
    names += [
        ("tune.enumerate.s", "s"),
        ("tune.materialize.s", "s"),
        ("tune.score.s", "s"),
        ("tune.split.derive_s", "s"),
        ("tune.split.evaluate_s", "s"),
        ("tune.split.walk_s", "s"),
        ("tune.enumerated", "count"),
        ("tune.admitted", "count"),
        ("tune.scored", "count"),
        ("tune.admit_ratio", "ratio"),
        ("service.roundtrip.p50_ms", "ms"),
        ("service.job.p50_ms", "ms"),
        ("service.wait.p50_ms", "ms"),
        ("service.dedup_ratio", "ratio"),
        ("service.cache_hits", "count"),
        ("service.rejected", "count"),
    ]
    for variant in VARIANTS:
        for part in ("derive", "estimate", "evaluate"):
            names.append((f"variant.{variant}.{part}_s", "s"))
    names += [
        ("trace.ops_per_s", "1/s"),
        ("trace.untraced_ops_per_s", "1/s"),
        ("trace.overhead", "ratio"),
        ("trace.self_cover", "ratio"),
    ]
    return names


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def ledger(workload, tracer, traced, untraced):
    """The per-layer metrics of one traced phase, by name."""
    totals = tracer.layer_totals()
    counters = tracer.counters
    values = {}
    for layer in SPANNED + SELF_ONLY:
        calls, own, _ = totals.get(layer, (0, 0.0, 0.0))
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = own
    values["numa.symbolic.derive.refused"] = counters["derive.refused"]
    values["runtime.form.derives"] = counters["form.derives"]
    values["runtime.form.hits"] = counters["form.hits"]
    values["runtime.cache.hit_ratio"] = _ratio(counters["cache.hits"], counters["cache.gets"])
    values["analysis.forms.certified_ratio"] = _ratio(
        counters["certify.verified"], counters["certify.verdicts"]
    )
    cells = sum(counters[f"tier.{tier}.cells"] for tier in TIERS)
    values["numa.simulator.walk_share"] = _ratio(counters["tier.walk.cells"], cells)
    for tier in TIERS:
        values[f"numa.simulator.tier.{tier}.cells"] = counters[f"tier.{tier}.cells"]
        values[f"numa.simulator.tier.{tier}.s"] = counters[f"tier.{tier}.s"]

    inclusive = {"derive": {}, "estimate": {}, "evaluate": {}}
    kinds = {
        "numa.symbolic.derive": "derive",
        "numa.symbolic.estimate": "estimate",
        "numa.symbolic.account": "evaluate",
    }
    for span in tracer.finished():
        kind = kinds.get(span[0])
        if kind is not None:
            label = workload.op_labels.get(span[4], "")
            inclusive[kind][label] = inclusive[kind].get(label, 0.0) + span[2] - span[1]
    # The variant ledger is per pass of the sweep (48 cells).
    passes = max(1, traced.attempted // 48) if workload.name == "paper-sweep" else 0
    for variant in VARIANTS:
        for kind in inclusive:
            seconds = inclusive[kind].get(variant, 0.0)
            values[f"variant.{variant}.{kind}_s"] = seconds / passes if passes else 0.0

    extra = dict(traced.extra)
    for name in ("tune.enumerate.s", "tune.materialize.s", "tune.score.s",
                 "tune.enumerated", "tune.admitted", "tune.scored"):
        values[name] = extra.pop(name, 0)
    values["tune.admit_ratio"] = _ratio(values["tune.admitted"], values["tune.enumerated"])
    tuning = workload.name == "tune-search"
    values["tune.split.derive_s"] = (
        sum(inclusive["derive"].values()) if tuning else 0.0
    )
    values["tune.split.evaluate_s"] = (
        sum(inclusive["estimate"].values()) + sum(inclusive["evaluate"].values())
        if tuning else 0.0
    )
    # Self time only: a call that ends on the walk first tried to derive
    # and estimate a form, and those spans are its children.
    values["tune.split.walk_s"] = sum(
        own
        for index, own in enumerate(tracer.self_times())
        if tracer.tags.get(index) == "walk"
    ) if tuning else 0.0
    for name in ("service.roundtrip.p50_ms", "service.job.p50_ms",
                 "service.wait.p50_ms", "service.dedup_ratio",
                 "service.cache_hits", "service.rejected"):
        values[name] = extra.pop(name, 0)

    traced_rate = traced.attempted / traced.wall_s
    untraced_rate = untraced.attempted / untraced.wall_s
    values["trace.ops_per_s"] = traced_rate
    values["trace.untraced_ops_per_s"] = untraced_rate
    values["trace.overhead"] = 1.0 - traced_rate / untraced_rate
    values["trace.self_cover"] = self_cover(
        tracer, traced.host_wall_s + traced.paused_s + traced.repeated_s
    )
    return values


def self_cover(tracer, wall_s):
    """Summed self time of the spans on the lanes that ran ops, over the
    phase wall times the number of those lanes (1.0: the spans account
    for all of the driving threads' time)."""
    spans = tracer.finished()
    lanes = {span[5] for span in spans if span[0] == "op"}
    own = sum(
        seconds
        for span, seconds in zip(tracer.spans, tracer.self_times())
        if span is not None and span[5] in lanes
    )
    return _ratio(own, wall_s * len(lanes))


def end_to_end(phase, host_setup_s):
    """The end-to-end metrics of an untraced phase.  Set-up is scaled by
    the phase's own speed factor (``calibration.py``): the set-ups run
    seconds apart from the phase, in the same host state."""
    from stats import median, tail

    tail_value, tail_pct, samples = tail(phase.latencies)
    values = {
        "setup_s": host_setup_s * phase.wall_s / phase.host_wall_s,
        "ops_per_s": phase.attempted / phase.wall_s,
        "op_p50_ms": median(phase.latencies) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    note = (
        f"op_tail_ms is p{tail_pct:.1f} of {samples} ops\n"
        f"host seconds: setup_s {host_setup_s:.6g}, "
        f"ops_per_s {phase.attempted / phase.host_wall_s:.6g}, "
        f"op_p50_ms {median(phase.host_latencies) * 1e3:.6g}, "
        f"op_tail_ms {tail(phase.host_latencies)[0] * 1e3:.6g}"
    )
    cases = phase.extra.get("fuzz.cases")
    if cases:
        note += (
            f"\n{int(cases)} fuzz cases, {phase.attempted} checks: "
            f"{cases / phase.wall_s:.6g} cases per reference second"
        )
    return values, note


def probe_setups(workload, seed):
    """Set-up seconds of fresh interpreters (imports included)."""
    times = []
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {completed.stderr.strip()}")
        times.append(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def phase_to_json(phase):
    return json.dumps({
        "attempted": phase.attempted, "failed": phase.failed,
        "wall_s": phase.wall_s, "failures": phase.failures,
    })


def phase_from_json(text):
    from workloads import Phase

    document = json.loads(text)
    phase = Phase()
    phase.ok = [False] * document["failed"]
    phase.ok += [True] * (document["attempted"] - document["failed"])
    phase.wall_s = document["wall_s"]
    phase.failures = document["failures"]
    return phase


def record_reference():
    from repro.bench import figure_machine
    from repro.runtime.cache import shared_cache
    from workloads import TUNE_BUDGET, ranking_digest, run_tune, tune_kernels

    digests = {}
    for kind, kernel in sorted(tune_kernels().items()):
        shared_cache().clear()
        digests[kind] = ranking_digest(run_tune(kernel, figure_machine()))
    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"tune-search": {"budget": TUNE_BUDGET, "digests": digests}},
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
    print(f"wrote {path}")
    return 0


def emit(correct, attempted, failed, metrics, units):
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--baseline", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    if args.record:
        return record_reference()

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    setup_s = time.perf_counter() - _START
    if args.setup_probe:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        # The untraced comparison runs beside the traced phase, in a child
        # process on the machine's other core: the same workload, seed and
        # seconds.  Run one after the other, the two phases of the longest
        # workload would not fit a run's time limit.
        baseline = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--baseline"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            from tracing import Tracer, install

            tracer = Tracer()
            installation = install(tracer)
            try:
                traced = workload.run(args.seconds, tracer)
            finally:
                installation.uninstall()
                workload.close()
            workload.check(traced)
            out, err = baseline.communicate(timeout=170)
        finally:
            if baseline.poll() is None:
                baseline.kill()
                baseline.wait()
        if baseline.returncode != 0:
            raise RuntimeError(f"untraced baseline failed: {err.strip()}")
        untraced = phase_from_json(out.strip().splitlines()[-1])
        phases = [traced, untraced]
    else:
        try:
            untraced = workload.run(args.seconds)
        finally:
            workload.close()
        workload.check(untraced)
        phases = [untraced]
        if args.baseline:
            print(phase_to_json(untraced))
            return 0

    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    for phase in phases:
        for failure in phase.failures:
            print(f"FAIL: {failure}", file=sys.stderr)
    correct = failed == 0 and not any(phase.failures for phase in phases)

    if args.trace:
        metrics = ledger(workload, tracer, traced, untraced)
        units = dict(per_layer_names())
        metrics = {name: metrics[name] for name in units}
        work_dir = os.path.join(ROOT, ".perfbench_work")
        os.makedirs(work_dir, exist_ok=True)
        spans = os.path.join(work_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans)
        print(f"spans: {spans} ({len(tracer.finished())})")
    else:
        setups = [setup_s] + probe_setups(args.workload, args.seed)
        metrics, note = end_to_end(untraced, statistics.median(setups))
        units = dict(END_TO_END)
        print(note)
        print(f"failed_frac = {failed / attempted:.6g}")
    emit(correct, attempted, failed, metrics, units)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
