"""In-memory span tracer and the layer wrappers of the traced run.

The traced run times calls into each layer's public functions from the
outside: :func:`install` replaces every binding of a layer function (the
defining module's attribute and every ``from x import f`` copy in other
``repro`` modules, or the method on its class) with a wrapper that opens a
span.  Nothing under ``src/`` changes, and :func:`uninstall` puts every
original back, so the measured (untraced) runs execute unwrapped code.

A span has a name, a start, an end, a parent (the innermost open span of
the same thread) and the op id that was current on that thread when it
opened.  Spans are kept as tuples in memory and written out once, when
the run ends.  A span's *self* time is its duration minus the time its
direct children cover; children on one thread nest inside their parent,
so the self times of one thread's spans add up to the time its root
spans cover.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: One finished span: (name, start, end, parent index or -1, op id, lane).
Span = Tuple[str, float, float, int, Optional[int], int]


class Tracer:
    """Records nested spans per thread; thread-safe for concurrent lanes."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counters: Dict[str, float] = defaultdict(int)
        #: span index -> tag a layer hook attached (the tier a
        #: ``simulate`` call ended on).
        self.tags: Dict[int, str] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._lanes: Dict[int, int] = {}

    def _state(self):
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = []  # (index, start, name) of each open span
            state.op = None
            with self._lock:
                state.lane = self._lanes.setdefault(
                    threading.get_ident(), len(self._lanes)
                )
        return state

    def set_op(self, op_id: Optional[int]) -> None:
        """Tag the spans this thread opens from now on with ``op_id``."""
        self._state().op = op_id

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def open(self, name: str) -> int:
        state = self._state()
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        state.stack.append((index, time.perf_counter(), name))
        return index

    def close(self) -> float:
        """Close this thread's innermost span; returns its duration."""
        end = time.perf_counter()
        state = self._state()
        index, start, name = state.stack.pop()
        parent = state.stack[-1][0] if state.stack else -1
        self.spans[index] = (name, start, end, parent, state.op, state.lane)
        return end - start

    def wrap(
        self,
        function: Callable,
        name: str,
        on_result: Optional[Callable] = None,
        on_error: Optional[Callable] = None,
    ) -> Callable:
        """``function`` timed as span ``name``.

        ``on_result(result, seconds, index)`` (``index``: the span's) and
        ``on_error(error)`` let a layer record counts where the work
        happens (tier chosen, derivation refused, certificate verdict).
        """
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            except BaseException as error:
                tracer.close()
                if on_error is not None:
                    on_error(error)
                raise
            seconds = tracer.close()
            if on_result is not None:
                on_result(result, seconds, index)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    # -- arithmetic ----------------------------------------------------
    def finished(self) -> List[Span]:
        return [span for span in self.spans if span is not None]

    def self_times(self) -> List[float]:
        """Self time of every span, in ``self.spans`` order."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        return [
            (span[2] - span[1]) - child[i] if span is not None else 0.0
            for i, span in enumerate(spans)
        ]

    def layer_totals(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, self seconds, inclusive seconds)."""
        totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for span, own in zip(self.spans, self.self_times()):
            if span is None:
                continue
            entry = totals[span[0]]
            entry[0] += 1
            entry[1] += own
            entry[2] += span[2] - span[1]
        return {k: (int(v[0]), v[1], v[2]) for k, v in totals.items()}

    def write(self, path: str) -> None:
        """Write every span as one JSON list per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.finished():
                handle.write(json.dumps(span) + "\n")


# ----------------------------------------------------------------------
# layer wrappers
# ----------------------------------------------------------------------
def _rebind(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


class Installation:
    """The wrappers one :func:`install` put in place."""

    def __init__(self) -> None:
        self.functions: List[Tuple[Callable, Callable]] = []
        self.methods: List[Tuple[type, str, Callable]] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.methods):
            setattr(owner, attr, original)
        for original, wrapper in reversed(self.functions):
            _rebind(wrapper, original)
        self.functions.clear()
        self.methods.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap each layer's public entry points; returns the undo handle."""
    import repro.analysis.forms as forms
    import repro.codegen.spmd as spmd
    import repro.core.normalize as normalize
    import repro.core.transform as transform
    import repro.fuzz.generator as generator
    import repro.fuzz.oracle as oracle
    import repro.ir.interp as interp
    import repro.lang.parser as parser
    import repro.linalg.sympoly as sympoly
    import repro.numa.counting as counting
    import repro.numa.simulator as simulator
    import repro.numa.symbolic as symbolic
    import repro.runtime.cache as cache
    import repro.runtime.executor as executor

    done = Installation()

    def function(module, attr, name, **hooks):
        original = getattr(module, attr)
        wrapper = tracer.wrap(original, name, **hooks)
        _rebind(original, wrapper)
        done.functions.append((original, wrapper))

    def method(owner, attr, name, **hooks):
        original = owner.__dict__[attr]
        setattr(owner, attr, tracer.wrap(original, name, **hooks))
        done.methods.append((owner, attr, original))

    def on_simulate(result, seconds, index):
        tier = getattr(result, "engine", "walk")
        tracer.count(f"tier.{tier}.cells")
        tracer.count(f"tier.{tier}.s", seconds)
        tracer.tags[index] = tier

    def on_derive_error(error):
        if isinstance(error, symbolic.SymbolicUnsupported):
            tracer.count("derive.refused")

    def on_certificate(result, seconds, index):
        tracer.count("certify.verdicts")
        if getattr(result, "verified", False):
            tracer.count("certify.verified")

    function(simulator, "simulate", "numa.simulator.simulate",
             on_result=on_simulate)
    method(symbolic.SymbolicEngine, "__init__", "numa.symbolic.derive",
           on_error=on_derive_error)
    method(symbolic.SymbolicEngine, "account", "numa.symbolic.account")
    method(symbolic.SymbolicEngine, "estimate_cost", "numa.symbolic.estimate")
    function(sympoly, "compile_account", "linalg.sympoly.compile")
    method(sympoly.SymExpr, "compiled", "linalg.sympoly.compile")
    method(counting.ClosedFormEngine, "account", "numa.counting.account")
    function(forms, "certify_engine", "analysis.forms.certify",
             on_result=on_certificate)
    function(generator, "generate_spec", "fuzz.generate")
    function(oracle, "check_spec", "fuzz.check")
    function(interp, "execute", "ir.interp.execute")
    function(parser, "parse_program", "lang.parse")
    function(normalize, "access_normalize", "core.normalize")
    function(transform, "apply_transformation", "core.transform")
    function(spmd, "generate_spmd", "codegen.spmd")
    function(executor, "run_grid", "runtime.grid")
    _install_cache_counters(tracer, cache.SimulationCache, done)
    return done


def _install_cache_counters(tracer: Tracer, owner: type, done: Installation):
    """Count result-cache hits and form-cache derives/hits at the cache.

    No spans here: a lookup is too small to time usefully, and the work a
    form miss triggers is already spanned as ``numa.symbolic.derive``.
    The form counts are read from the cache's own counters around each
    call.
    """
    original_get = owner.__dict__["get"]
    original_form = owner.__dict__["form"]

    def get(self, key):
        result = original_get(self, key)
        tracer.count("cache.gets")
        if result is not None:
            tracer.count("cache.hits")
        return result

    def form(self, key, factory):
        derives, hits = self.form_derives, self.form_hits
        value = original_form(self, key, factory)
        tracer.count("form.derives", self.form_derives - derives)
        tracer.count("form.hits", self.form_hits - hits)
        return value

    owner.get = get
    owner.form = form
    done.methods.append((owner, "get", original_get))
    done.methods.append((owner, "form", original_form))
