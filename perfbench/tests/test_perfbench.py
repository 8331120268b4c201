"""Tests for the benchmark's own code: statistics, spans, seeds, checks.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, install  # noqa: E402


# -- the percentile rule ------------------------------------------------
def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    value, percentile, samples = stats.tail(values)
    assert (value, percentile, samples) == (90, 90.0, 100)
    assert sum(1 for v in values if v > value) == stats.TAIL_BEYOND


def test_tail_on_the_smallest_sample_that_supports_it():
    # Eleven samples: only the smallest has ten beyond it.
    value, percentile, samples = stats.tail([5.0] * 10 + [1.0])
    assert value == 1.0 and samples == 11
    assert percentile == pytest.approx(100.0 / 11)


def test_tail_refuses_ten_or_fewer_samples():
    with pytest.raises(ValueError):
        stats.tail(list(range(10)))


def test_tail_ignores_input_order():
    values = [3.0, 9.0, 1.0, 7.0, 5.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0, 11.0]
    assert stats.tail(values) == stats.tail(sorted(values))


# -- span arithmetic ----------------------------------------------------
def _nested_run(tracer):
    for op in range(3):
        tracer.set_op(op)
        tracer.open("op")
        time.sleep(0.004)
        tracer.open("child")
        time.sleep(0.006)
        tracer.open("grandchild")
        time.sleep(0.003)
        tracer.close()
        tracer.close()
        tracer.open("child")
        time.sleep(0.002)
        tracer.close()
        tracer.close()
        tracer.set_op(None)


def test_children_fit_inside_their_parent():
    tracer = Tracer()
    _nested_run(tracer)
    spans = tracer.finished()
    children = {}
    for index, span in enumerate(tracer.spans):
        if span[3] >= 0:
            parent = tracer.spans[span[3]]
            assert parent[1] <= span[1] and span[2] <= parent[2]
            children.setdefault(span[3], 0.0)
            children[span[3]] += span[2] - span[1]
    for parent, covered in children.items():
        span = tracer.spans[parent]
        assert covered <= span[2] - span[1]
    assert all(own >= 0 for own in tracer.self_times())
    assert {span[4] for span in spans} == {0, 1, 2}


def test_self_times_sum_to_the_traced_wall():
    tracer = Tracer()
    start = time.perf_counter()
    _nested_run(tracer)
    wall = time.perf_counter() - start
    assert sum(tracer.self_times()) == pytest.approx(wall, rel=0.05)
    assert run.self_cover(tracer, wall) == pytest.approx(1.0, rel=0.05)
    calls, own, inclusive = tracer.layer_totals()["child"]
    assert calls == 6 and own < inclusive


def test_wrappers_are_removed_after_the_traced_run():
    import repro.numa.simulator as simulator
    import repro.runtime.executor as executor

    original = simulator.simulate
    tracer = Tracer()
    installation = install(tracer)
    try:
        assert simulator.simulate is not original
        assert simulator.simulate.__wrapped__ is original
    finally:
        installation.uninstall()
    assert simulator.simulate is original
    assert executor.run_grid.__module__ == "repro.runtime.executor"
    assert not hasattr(executor.run_grid, "__wrapped__")


# -- seed determinism ---------------------------------------------------
def test_served_mix_sequence_follows_the_seed():
    first = workloads.request_sequence(3, 200)
    assert first == workloads.request_sequence(3, 200)
    assert first != workloads.request_sequence(4, 200)
    # service_load's mixed model (compile, repeated simulate, fresh
    # simulate) plus one solve in every block of four.
    kinds = [op for op, _ in first]
    assert len(kinds) == 200
    assert kinds.count("compile") == kinds.count("solve") == 50
    assert kinds.count("simulate") == 100


def test_fuzz_verify_order_follows_the_seed():
    same = workloads.FuzzVerify(ROOT, 5).order
    assert same == workloads.FuzzVerify(ROOT, 5).order
    assert same != workloads.FuzzVerify(ROOT, 6).order
    assert sorted(same) == list(range(workloads.FUZZ_CASES))


def test_paper_sweep_cells_follow_the_seed():
    first = workloads.PaperSweep(ROOT, 1).pass_order(0)
    assert first == workloads.PaperSweep(ROOT, 1).pass_order(0)
    assert first != workloads.PaperSweep(ROOT, 2).pass_order(0)
    # Each pass draws its own order, over the same 48 cells.
    second = workloads.PaperSweep(ROOT, 1).pass_order(1)
    assert second != first and sorted(second) == sorted(first)
    assert len(first) == len(set(first)) == 48


# -- output checks ------------------------------------------------------
def _small_sweep():
    from repro.bench import figure_machine, gemm_variants
    from repro.numa.simulator import simulate

    figures = {"fig": gemm_variants(16)}
    procs = [1, 2]
    machine = figure_machine()
    results = {
        ("fig", name, p): simulate(node, processors=p, machine=machine)
        for name, node in figures["fig"].items()
        for p in procs
    }
    return figures, procs, results


def test_paper_sweep_check_passes_on_true_counts():
    figures, procs, results = _small_sweep()
    ordered = [results[("fig", n, p)] for p in procs for n in figures["fig"]]
    reference = {"fig": workloads.sweep_checksum(ordered)}
    assert workloads.check_sweep(results, figures, procs, reference) == []


def test_injected_wrong_count_fails_the_paper_sweep_check():
    import dataclasses

    figures, procs, results = _small_sweep()
    ordered = [results[("fig", n, p)] for p in procs for n in figures["fig"]]
    reference = {"fig": workloads.sweep_checksum(ordered)}
    key = ("fig", "gemmT", 2)
    result = results[key]
    first = result.per_proc[0]
    wrong = dataclasses.replace(
        first, counts=dataclasses.replace(first.counts, remote=first.counts.remote + 1)
    )
    results[key] = dataclasses.replace(
        result, per_proc=(wrong,) + tuple(result.per_proc[1:])
    )
    failures = workloads.check_sweep(results, figures, procs, reference)
    assert len(failures) == 1 and failures[0].startswith("fig:")


def test_recorded_paper_reference_is_the_walk_verified_checksum():
    with open(os.path.join(ROOT, "BENCH_simulator.json")) as handle:
        recorded = json.load(handle)
    sweep = workloads.PaperSweep(ROOT, 0)
    assert sweep.reference == {
        name: recorded["configs"][name]["counts_checksum"]
        for name in ("fig4-gemm", "fig5-syr2k")
    }


def test_served_and_direct_responses_compare_on_their_result():
    served = {"ok": True, "op": "solve", "result": {"stdout": "x"},
              "exit_code": 0, "elapsed_ms": 3.2}
    direct = {"ok": True, "result": {"stdout": "x"}, "exit_code": 0}
    assert workloads.canonical_response(served) == workloads.canonical_response(direct)
    direct["result"] = {"stdout": "y"}
    assert workloads.canonical_response(served) != workloads.canonical_response(direct)


def test_tune_walk_split_is_self_time_of_walked_simulates():
    tracer = Tracer()
    for tier in ("walk", "symbolic"):
        simulate = tracer.open("numa.simulator.simulate")
        tracer.open("numa.symbolic.derive")
        time.sleep(0.01)
        tracer.close()
        time.sleep(0.005)
        tracer.close()
        tracer.tags[simulate] = tier

    class Traced:
        attempted, wall_s, host_wall_s, paused_s, repeated_s = 1, 1.0, 1.0, 0.0, 0.0
        extra = {}

    class Tune:
        name = "tune-search"
        op_labels = {}

    values = run.ledger(Tune(), tracer, Traced(), Traced())
    own = tracer.self_times()
    walked = [i for i, tag in tracer.tags.items() if tag == "walk"]
    assert values["tune.split.walk_s"] == pytest.approx(own[walked[0]])
    assert values["tune.split.walk_s"] < 0.01
    assert values["tune.split.derive_s"] >= 0.02


def test_served_mix_checks_outside_the_traced_window(monkeypatch):
    # The direct re-execution that checks each reply must not land in
    # the traced ledger: the runner checks only after the wrappers are
    # gone, and run() itself re-executes nothing.
    calls = []
    monkeypatch.setattr(workloads, "execute_batch",
                        lambda *a, **k: calls.append(a) or ([{}], None))
    mix = workloads.ServedMix.__new__(workloads.ServedMix)
    mix.sequence = [("compile", {"source": "x"})]
    mix.done = [(0, None, {"ok": True, "result": 1, "exit_code": 0}, "")]
    phase = workloads.Phase()
    phase.ok = [True]
    mix.check(phase)
    assert len(calls) == 1 and phase.failed == 1
    source = open(os.path.join(BENCH, "workloads.py")).read()
    body = source[source.index("class ServedMix"):source.index("def check(self, phase")]
    assert "execute_batch(" not in body


# -- the benchmark definition ------------------------------------------
def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)



# -- calibration --------------------------------------------------------
def test_phase_scales_each_op_by_the_speed_around_it(monkeypatch):
    import calibration

    monkeypatch.setattr(calibration, "STRENGTH", 1.0)
    clock = calibration.HostClock()
    # The host runs at half speed for t < 10, at full speed after.
    for t in range(20):
        clock.times.append(float(t))
        clock.samples.append(calibration.REFERENCE_S * (2 if t < 10 else 1))
    clock.paused = 0.25

    class Op:
        def __init__(self, start, elapsed, latency):
            self.start, self.elapsed, self.latency = start, elapsed, latency

    phase = workloads.Phase()
    phase.record(Op(1.0, 7.0, 2.0))  # slow spell: seven samples inside
    phase.record(Op(12.5, 0.01, 2.0), share=2)  # fast: nearest five samples
    phase.wall_s = 4.0
    phase.calibrate(clock)
    assert phase.host_latencies == [2.0, 1.0, 1.0]
    assert phase.latencies == pytest.approx([1.0, 1.0, 1.0])
    assert phase.wall_s == pytest.approx(4.0 * 3.0 / 4.0)
    assert phase.host_wall_s == 4.0 and phase.paused_s == 0.25
    # An op with few samples inside takes the five nearest its middle.
    assert clock.local_factor(5.0, 5.0) == pytest.approx(0.5)
    assert clock.local_factor(9.0, 9.0) == pytest.approx(0.5)
    assert clock.local_factor(10.5, 10.5) == pytest.approx(1.0)
    # A long op takes the median of the samples inside it.
    assert clock.local_factor(0.0, 9.0) == pytest.approx(0.5)
    # At the shipped strength the factor is the square root.
    monkeypatch.setattr(calibration, "STRENGTH", 0.5)
    assert clock.local_factor(0.0, 9.0) == pytest.approx(0.5 ** 0.5)


def test_repeated_op_counts_its_median_run_once():
    import calibration

    clock = calibration.HostClock()
    clock.times = [float(t) for t in range(10)]
    clock.samples = [calibration.REFERENCE_S] * 10

    class Run:
        def __init__(self, start, latency):
            self.start, self.elapsed, self.latency = start, latency, latency

    phase = workloads.Phase()
    phase.record([Run(0.0, 0.3), Run(0.3, 0.1), Run(0.4, 0.2)], share=2)
    assert phase.host_latencies == [] and phase.latencies == [0.1, 0.1]
    # The phase wall counts the median run once, not the three runs.
    assert phase.repeated_s == pytest.approx(0.6 - 0.2)
    phase.calibrate(clock)
    assert phase.latencies == pytest.approx([0.1, 0.1])


def test_host_clock_samples_during_a_phase_and_subtracts_them():
    import calibration

    sweep = workloads.FuzzVerify(ROOT, 0)
    with calibration.HostClock() as clock:
        sweep.clock = clock
        with sweep.op("busy") as op:
            end = time.perf_counter() + 0.35
            while time.perf_counter() < end:
                pass
    assert len(clock.samples) >= 2
    assert clock.paused > 0
    assert op.latency == pytest.approx(0.35 - clock.paused, abs=0.02)
    assert clock.factor() > 0
