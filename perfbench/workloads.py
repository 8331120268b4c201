"""The four benchmark workloads.

Each workload builds its inputs from the seed in its constructor (the
set-up the benchmark times), runs complete units of work in
:meth:`run` until the requested seconds have passed, and checks every
output it produced.  Everything runs in this one process with
``jobs=1``, so the layer wrappers of the traced run see every call; layer
functions are called through their modules so that the wrappers apply.

* ``paper-sweep`` — the account-mode cells behind Figures 4 and 5.
* ``tune-search`` — the autotuner on SYR2K and GEMM.
* ``fuzz-verify`` — the differential fuzz oracle with certification.
* ``served-mix``  — an in-process server driven by two closed-loop
  clients.

See ``perfbench/README.md`` for why each was chosen.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
# The paper-sweep check uses the counts checksum of the script that
# recorded its reference, and served-mix sends that script directory's
# service traffic model, so both come from ``scripts/``.
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "scripts"))

from bench_trajectory import _checksum as sweep_checksum  # noqa: E402
from service_load import DEDUP_COUNTERS, GEMM_TEMPLATE, mixed_ops  # noqa: E402

from repro.bench import PAPER_PROCS, figure_machine, gemm_variants, syr2k_variants  # noqa: E402
from repro.blas import PAPER_PRIORITY, gemm_program, syr2k_program  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.fuzz.oracle import fuzz_task  # noqa: E402
from repro.runtime.cache import SimulationCache, shared_cache  # noqa: E402
from repro.runtime import executor  # noqa: E402
from repro.runtime.executor import SweepCell  # noqa: E402
from repro.runtime.metrics import Metrics  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.jobs import execute_batch  # noqa: E402
from repro.service.protocol import ServiceConfig, ServiceError  # noqa: E402
from repro.service.server import ServerThread  # noqa: E402
from repro.tune.search import tune_program  # noqa: E402

from calibration import HostClock  # noqa: E402
from stats import median  # noqa: E402


class Phase:
    """What one timed phase produced: per-op latencies and verdicts."""

    def __init__(self) -> None:
        #: Op latencies and phase wall in reference seconds once
        #: :meth:`calibrate` ran (``calibration.py``); the ``host_``
        #: copies keep host seconds.
        self.latencies: List[float] = []
        self.ok: List[bool] = []
        self.failures: List[str] = []
        self.wall_s = 0.0
        self.host_latencies: List[float] = []
        self.host_wall_s = 0.0
        #: Per op: ``(start, end, host latency)`` of each repetition
        #: whose median stands for it (one, unless the workload repeats).
        self.repetitions: List[List[Tuple[float, float, float]]] = []
        #: Host seconds spent in repetitions beyond the one per op that
        #: the phase wall counts.
        self.repeated_s = 0.0
        #: Host seconds the calibration samples took inside the phase.
        self.paused_s = 0.0
        #: Workload-specific per-layer figures (tuner timers, service
        #: counters); merged into the traced run's ledger.
        self.extra: Dict[str, float] = {}

    def record(self, op, ok: bool = True, share: int = 1) -> None:
        """Record ``op``, or a list of repetitions of one op whose median
        stands for it, as ``share`` ops that split its latency evenly."""
        runs = op if isinstance(op, list) else [op]
        windows = [
            (run.start, run.start + run.elapsed, run.latency / share)
            for run in runs
        ]
        latency = median([latency for _, _, latency in windows])
        self.repeated_s += sum(run.latency for run in runs) - latency * share
        for _ in range(share):
            self.latencies.append(latency)
            self.ok.append(ok)
            self.repetitions.append(windows)

    def calibrate(self, clock: Optional[HostClock]) -> None:
        """Scale each op by the host's speed while it ran, and the wall
        by the ops' time-weighted factor; with no clock, keep host
        seconds."""
        self.host_latencies = list(self.latencies)
        self.host_wall_s = self.wall_s
        if clock is None:
            return
        self.paused_s = clock.paused
        self.latencies = [
            median([
                latency * clock.local_factor(start, end)
                for start, end, latency in windows
            ])
            for windows in self.repetitions
        ]
        host = sum(self.host_latencies)
        self.wall_s *= sum(self.latencies) / host if host else clock.factor()

    def fail(self, first: int, last: int, why: str) -> None:
        """Mark ops ``first..last-1`` failed by a check made after them."""
        for index in range(first, last):
            self.ok[index] = False
        self.failures.append(why)

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def add(self, name: str, value: float) -> None:
        self.extra[name] = self.extra.get(name, 0.0) + value


class Workload:
    """Base: ``run`` repeats :meth:`unit` until ``seconds`` have passed
    and at least :attr:`min_units` units are done."""

    name = ""
    #: Units every run completes, so that on one machine every run does
    #: the same work and its percentiles cover the same number of ops.
    min_units = 1

    def __init__(self, root: str, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.tracer = None
        #: op id -> label (the variant or kernel an op worked on); the
        #: traced run groups span times by it.
        self.op_labels: Dict[int, str] = {}
        self.op_ids = itertools.count()
        self.clock = HostClock()

    def run(self, seconds: float, tracer=None) -> Phase:
        self.tracer = tracer
        phase = Phase()
        units = 0
        with HostClock() as self.clock:
            start = time.perf_counter()
            paused = self.clock.paused
            try:
                while True:
                    self.unit(phase)
                    units += 1
                    elapsed = time.perf_counter() - start - (self.clock.paused - paused)
                    if units >= self.min_units and elapsed >= seconds:
                        break
            finally:
                phase.wall_s = (
                    time.perf_counter() - start - (self.clock.paused - paused)
                    - phase.repeated_s
                )
                self.tracer = None
        phase.calibrate(self.clock)
        return phase

    def unit(self, phase: Phase) -> None:
        raise NotImplementedError

    def check(self, phase: Phase) -> None:
        """Checks made after :meth:`run` returned, outside the traced
        window (they call the layers themselves)."""

    def op(self, label: str) -> "_Op":
        """Context timing one op; an ``op`` root span when tracing."""
        return _Op(self, label)

    def close(self) -> None:
        pass


class _Op:
    def __init__(self, workload: Workload, label: str) -> None:
        self.workload = workload
        self.label = label
        self.latency = 0.0

    def __enter__(self) -> "_Op":
        tracer = self.workload.tracer
        if tracer is not None:
            op_id = next(self.workload.op_ids)
            self.workload.op_labels[op_id] = self.label
            tracer.set_op(op_id)
            tracer.open("op")
        self.paused = self.workload.clock.paused
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        #: Host seconds, and the same less the calibration samples taken
        #: meanwhile.
        self.elapsed = time.perf_counter() - self.start
        self.latency = self.elapsed - (self.workload.clock.paused - self.paused)
        if self.workload.tracer is not None:
            self.workload.tracer.close()
            self.workload.tracer.set_op(None)


# ----------------------------------------------------------------------
# paper-sweep
# ----------------------------------------------------------------------
def check_sweep(
    results: Dict[Tuple[str, str, int], object],
    figures: Dict[str, Dict[str, object]],
    procs: Sequence[int],
    reference: Dict[str, str],
) -> List[str]:
    """Figures whose counts checksum differs from ``reference``."""
    wrong = []
    for figure, nodes in figures.items():
        ordered = [results[(figure, name, p)] for p in procs for name in nodes]
        checksum = sweep_checksum(ordered)
        if checksum != reference[figure]:
            wrong.append(
                f"{figure}: counts checksum {checksum} != recorded "
                f"{reference[figure]}"
            )
    return wrong


class PaperSweep(Workload):
    """Figures 4 and 5 at paper scale: GEMM N=400 and banded SYR2K
    N=400, b=48, three variants each, P in {1, 4, ..., 28}, engine auto.

    One unit is a pass over all 48 cells in an order the seed draws
    anew for each pass (:meth:`pass_order`).  The in-process caches are
    cleared at the start of each pass, as a fresh ``repro simulate``
    starts cold, so the first cell of each variant in a pass also pays
    its derivation.  With one order for every pass, the same cell would
    pay it each time, and whether that cell is a heavy one would move the
    tail by seed.  Op: one cell.
    """

    name = "paper-sweep"
    min_units = 3

    def __init__(self, root: str, seed: int) -> None:
        super().__init__(root, seed)
        self.figures = {
            "fig4-gemm": gemm_variants(400),
            "fig5-syr2k": syr2k_variants(400, 48),
        }
        self.procs = list(PAPER_PROCS)
        self.machine = figure_machine()
        with open(os.path.join(root, "BENCH_simulator.json"), encoding="utf-8") as handle:
            recorded = json.load(handle)
        self.reference = {
            figure: recorded["configs"][figure]["counts_checksum"]
            for figure in self.figures
        }
        self.cells = [
            (figure, name, p)
            for figure, nodes in self.figures.items()
            for p in self.procs
            for name in nodes
        ]
        self.passes = 0

    def pass_order(self, number: int) -> List[Tuple[str, str, int]]:
        """The cell order of pass ``number`` (0-based) under this seed."""
        cells = list(self.cells)
        random.Random(f"paper-sweep:{self.seed}:{number}").shuffle(cells)
        return cells

    def unit(self, phase: Phase) -> None:
        shared_cache().clear()
        cache = SimulationCache()
        first = phase.attempted
        results = {}
        order = self.pass_order(self.passes)
        self.passes += 1
        for figure, name, p in order:
            node = self.figures[figure][name]
            cell = SweepCell(name, node, p, None, self.machine, engine="auto")
            with self.op(name) as op:
                try:
                    results[(figure, name, p)] = executor.run_grid(
                        [cell], jobs=1, cache=cache
                    )[0]
                    ok = True
                except ReproError as error:
                    phase.failures.append(f"{name} P={p}: {error}")
                    ok = False
            phase.record(op, ok)
        if len(results) == len(self.cells):
            wrong = check_sweep(results, self.figures, self.procs, self.reference)
            if wrong:
                phase.fail(first, phase.attempted, "; ".join(wrong))


# ----------------------------------------------------------------------
# tune-search
# ----------------------------------------------------------------------
#: Candidates admitted per search.  The first twelve cover the derived
#: recipes of both kernels, so a round both derives symbolic forms and
#: walks block-cyclic candidates.
TUNE_BUDGET = 12
TUNE_PROCESSORS = (4, 16)


def ranking_digest(result) -> str:
    """Digest of a tuner ranking: order, matrices, distributions, totals."""
    rows = [
        [
            candidate.describe_distributions(),
            candidate.describe_matrix(),
            repr(candidate.total_us),
        ]
        for candidate in result.ranking
    ]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def tune_kernels():
    """kernel -> (full-scale program, scoring params, access priority)."""
    return {
        "syr2k": (syr2k_program(400, 48), {"N": 24, "b": 3}, list(PAPER_PRIORITY)),
        "gemm": (gemm_program(400), {"N": 24}, None),
    }


def run_tune(kernel, machine, metrics=None):
    program, params, priority = kernel
    return tune_program(
        program,
        processors=TUNE_PROCESSORS,
        machine=machine,
        params=params,
        priority=priority,
        budget=TUNE_BUDGET,
        jobs=1,
        metrics=metrics,
    )


def load_reference() -> Dict[str, object]:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


class TuneSearch(Workload):
    """``tune_program`` on SYR2K (scored at N=24, b=3) and GEMM (scored
    at N=24), both at P in {4, 16}, budget :data:`TUNE_BUDGET`.

    One unit is a round of both searches, in a seed-permuted order, each
    starting from cleared caches as ``repro tune`` does.  Op: one scored
    candidate; its latency is its search's wall time over the number of
    candidates that search scored.
    """

    name = "tune-search"

    def __init__(self, root: str, seed: int) -> None:
        super().__init__(root, seed)
        self.machine = figure_machine()
        self.kernels = tune_kernels()
        reference = load_reference()["tune-search"]
        if reference["budget"] != TUNE_BUDGET:
            raise ReproError("perfbench/reference.json was recorded at another budget")
        self.reference = reference["digests"]
        self.order = sorted(self.kernels)
        random.Random(seed).shuffle(self.order)

    def unit(self, phase: Phase) -> None:
        for kind in self.order:
            shared_cache().clear()
            metrics = Metrics()
            first = phase.attempted
            with self.op(kind) as op:
                result = run_tune(self.kernels[kind], self.machine, metrics)
            scored = len(result.ranking)
            phase.record(op, share=scored)
            digest = ranking_digest(result)
            if digest != self.reference[kind]:
                phase.fail(
                    first, phase.attempted,
                    f"{kind}: ranking digest {digest} != recorded "
                    f"{self.reference[kind]}",
                )
            for stage in ("enumerate", "materialize", "score"):
                phase.add(f"tune.{stage}.s", metrics.timers.get(f"tune.{stage}", 0.0))
            phase.add("tune.enumerated", result.enumerated)
            phase.add("tune.admitted", result.admitted)
            phase.add("tune.scored", scored)


# ----------------------------------------------------------------------
# fuzz-verify
# ----------------------------------------------------------------------
#: The case set: campaign seed 0, cases 0-3, the first four of the set
#: ROADMAP's certification numbers were measured on.  Case 1 is one of
#: its two slow cases (about 25 s, some 90% of the pass).  Case 4, the
#: other, takes about 53 s; with it, 22 runs of this workload alone
#: would take some 2000 s, and the four workloads' runs would not fit
#: the benchmark's time budget.  A seed-chosen case set would make the
#: run length swing with how many slow cases it happened to draw, so
#: the seed permutes the order instead.
FUZZ_CAMPAIGN = 0
FUZZ_CASES = 4
#: A case is repeated, each time from cleared caches, until its runs
#: have taken this many seconds; the median run stands for it.  One run
#: of a 0.2 s case spread by a quarter of its median from run to run,
#: and the op median rests on one such case.  Ten runs of the benchmark
#: spread by 0.22 on it when cases were repeated up to 1 s.
CASE_REPEAT_S = 3.0


class FuzzVerify(Workload):
    """``fuzz_task`` over the fixed case set in a seed-permuted order.

    One unit is a pass over all cases from cleared caches, as a fresh
    ``repro fuzz --jobs 1`` runs.  Op: one oracle check (the record's
    ``checks``: tier equivalence, certification, ...); its latency is its
    case's wall time over the checks the case ran.  Four cases could
    carry no tail percentile, their 184 checks can.  A case shorter than
    :data:`CASE_REPEAT_S` runs again until it has taken that long, and
    its median run counts, in latency and in the phase wall.  A case's
    checks fail unless its status is ``ok`` (the oracle checks the
    pipeline against the reference interpreter and certifies the
    symbolic forms).
    """

    name = "fuzz-verify"

    def __init__(self, root: str, seed: int) -> None:
        super().__init__(root, seed)
        # The oracle imports these on its first case.  Imported here, in
        # the set-up, they do not make whichever case the seed puts first
        # some 90 ms slower than it is anywhere else in the order.
        import repro.analysis.forms  # noqa: F401
        import repro.analysis.manager  # noqa: F401

        self.order = list(range(FUZZ_CASES))
        random.Random(seed).shuffle(self.order)

    def unit(self, phase: Phase) -> None:
        for index in self.order:
            runs = []
            while sum(run.latency for run in runs) < CASE_REPEAT_S:
                shared_cache().clear()
                with self.op(f"case{index}") as op:
                    record = fuzz_task((index, FUZZ_CAMPAIGN))
                runs.append(op)
                ok = record.status == "ok"
                if not ok:
                    phase.failures.append(
                        f"case {index}: {record.status} at {record.stage}: "
                        f"{record.detail}"
                    )
                    break
            phase.record(runs, ok, share=max(1, record.checks))
            phase.add("fuzz.cases", 1)


# ----------------------------------------------------------------------
# served-mix
# ----------------------------------------------------------------------
CLIENTS = 2
#: Requests every phase sends, at least: with fewer, the run-to-run
#: spread of this workload's rates exceeds its bounds.
MIN_REQUESTS = 200
#: Blocks of ``scripts/service_load.py``'s mixed model per sequence; a
#: phase never gets near the end.
SEQUENCE_BLOCKS = 1500


def request_sequence(seed: int, count: int):
    """The seeded ``(op, payload)`` sequence the clients send, in order.

    The traffic is ``scripts/service_load.py``'s ``mixed`` model: blocks
    of one compile, one simulate of a cell from a four-cell pool (a
    repeat) and one simulate of a distinct cell (fresh).  Each block
    here also gets one small ``solve`` request, which that model lacks;
    the equal share is a choice, not a measurement.  The seed orders the
    blocks (so which fresh cells come first and which pool cell each
    repeat asks for), the requests within each block, and the solve
    parameters.
    """
    rng = random.Random(f"served-mix:{seed}")
    model = mixed_ops(3 * SEQUENCE_BLOCKS, GEMM_TEMPLATE.format(n=8))
    blocks = [model[i:i + 3] for i in range(0, len(model), 3)]
    rng.shuffle(blocks)
    sequence = []
    for block in blocks:
        block = list(block) + [("solve", {
            "source": GEMM_TEMPLATE.format(n=8),
            "params": {"N": rng.randrange(24, 97, 8)},
            "min_processors": 1, "max_processors": 8,
        })]
        rng.shuffle(block)
        sequence += block
        if len(sequence) >= count:
            break
    return sequence[:count]


def canonical_response(response: Dict[str, object]) -> str:
    """The bytes a served and a direct response must agree on."""
    return json.dumps(
        {
            "ok": response.get("ok"),
            "result": response.get("result"),
            "exit_code": response.get("exit_code"),
        },
        sort_keys=True,
    )


class ServedMix(Workload):
    """An in-process ``ServerThread`` (``jobs=1``, fresh cache directory
    per phase) driven closed-loop by :data:`CLIENTS` client connections
    for at least the requested seconds and :data:`MIN_REQUESTS` requests.

    Each client sends the next request of the seeded sequence
    (:func:`request_sequence`) as soon as its previous reply arrives.
    Op: one request; it fails on a non-ok reply (including 429 and 504)
    or when :meth:`check`, run after the phase, finds its result differs
    from the same job run directly through ``execute_batch``.
    """

    name = "served-mix"

    def __init__(self, root: str, seed: int) -> None:
        super().__init__(root, seed)
        self.sequence = request_sequence(seed, 4 * SEQUENCE_BLOCKS)
        self.done: List[Tuple[int, _Op, Optional[Dict], str]] = []
        self.work_dir = os.path.join(root, ".perfbench_work")
        os.makedirs(self.work_dir, exist_ok=True)
        self.server: Optional[ServerThread] = None
        self.cache_dir: Optional[str] = None
        self._start_server()

    def _start_server(self) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="served-", dir=self.work_dir)
        config = ServiceConfig(
            port=0, jobs=1, cache_dir=self.cache_dir, log_requests=False
        )
        self.server = ServerThread(config).start()

    def _stop_server(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    def run(self, seconds: float, tracer=None) -> Phase:
        if self.server is None:
            self._start_server()
        self.tracer = tracer
        phase = Phase()
        client = ServiceClient(port=self.server.port, timeout=120.0)
        lock = threading.Lock()
        cursor = [0]
        done: List[Tuple[int, _Op, Optional[Dict], str]] = []

        def drive() -> None:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= MIN_REQUESTS and time.perf_counter() >= deadline:
                        return
                    if index >= len(self.sequence):
                        phase.failures.append("the request sequence ran out")
                        return
                    cursor[0] += 1
                op, payload = self.sequence[index]
                with self.op(op) as timer:
                    try:
                        response, error = client.submit(op, payload), ""
                    except ServiceError as failure:
                        response, error = None, f"{failure.code}: {failure}"
                with lock:
                    done.append((index, timer, response, error))

        threads = [threading.Thread(target=drive) for _ in range(CLIENTS)]
        with HostClock() as self.clock:
            start = time.perf_counter()
            deadline = start + seconds
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            phase.wall_s = time.perf_counter() - start - self.clock.paused
        self.tracer = None
        snapshot = client.metrics()
        self._stop_server()

        done.sort(key=lambda entry: entry[0])
        for index, timer, response, error in done:
            ok = response is not None and bool(response.get("ok"))
            if not ok:
                phase.failures.append(f"request {index}: {error or response}")
            phase.record(timer, ok)
        phase.calibrate(self.clock)
        self._service_ledger(phase, done, snapshot)
        self.done = done
        return phase

    def check(self, phase: Phase) -> None:
        """Each response must equal the same job run directly."""
        direct: Dict[str, str] = {}
        for slot, (index, _, response, _) in enumerate(self.done):
            if response is None:
                continue
            op, payload = self.sequence[index]
            key = json.dumps([op, payload], sort_keys=True)
            if key not in direct:
                results, _ = execute_batch(
                    [(op, payload)], jobs=1, cache=SimulationCache()
                )
                direct[key] = canonical_response(results[0])
            if canonical_response(response) != direct[key]:
                phase.fail(
                    slot, slot + 1,
                    f"request {index} ({op}): served result differs from "
                    "the direct execute_batch result",
                )

    @staticmethod
    def _service_ledger(phase: Phase, done, snapshot) -> None:
        served = [
            (timer.elapsed, response["elapsed_ms"] / 1e3)
            for _, timer, response, _ in done
            if response is not None
        ]
        if served:
            phase.extra["service.roundtrip.p50_ms"] = median([r for r, _ in served]) * 1e3
            phase.extra["service.job.p50_ms"] = median([j for _, j in served]) * 1e3
            phase.extra["service.wait.p50_ms"] = median([r - j for r, j in served]) * 1e3
        counters = snapshot.get("metrics", {}).get("counters", {})
        simulates = counters.get("service.requests.simulate", 0)
        deduped = sum(counters.get(name, 0) for name in DEDUP_COUNTERS)
        phase.extra["service.dedup_ratio"] = deduped / simulates if simulates else 0.0
        phase.extra["service.cache_hits"] = counters.get("cache_hits", 0)
        phase.extra["service.rejected"] = counters.get("service.rejected", 0)

    def close(self) -> None:
        self._stop_server()


WORKLOADS = {
    workload.name: workload
    for workload in (PaperSweep, TuneSearch, FuzzVerify, ServedMix)
}
