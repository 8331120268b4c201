"""Tier 1 of the accounting engine: whole-nest closed-form counting.

The interpreter walk (:class:`~repro.numa.simulator._ProcWalker`) visits
every iteration; its analytic fast path collapses only the innermost loop.
This module collapses *entire per-processor nests* into exact
:class:`~repro.numa.simulator.AccessCounts` by assigning each loop level a
strategy, chosen innermost-out at build time:

``inner``
    The innermost level.  Iterations, statements and per-reference
    local/remote splits over the loop's arithmetic progression reduce to
    congruence / interval counting (:mod:`repro.linalg.progression`) —
    O(refs) regardless of the trip count.

``const``
    No bound, subscript or block-read probe of any deeper level depends on
    this index: the inner accounting is computed once and multiplied by
    the trip count — O(1) per level.

``periodic``
    Deeper levels depend on this index only through wrapped (cyclic)
    ownership tests, whose outcome is periodic in the index value modulo
    the processor count: the progression splits into at most P residue
    classes (:func:`~repro.linalg.progression.residue_classes`), the inner
    accounting is evaluated once per class and scaled by the class size —
    O(P) instead of O(trips).

``segmented``
    The second-innermost level when every body reference is
    distribution-free and the innermost loop is a plain unit-step loop:
    the innermost trip count is a piecewise-affine function of this index
    (max-of-lowers / min-of-uppers), summed exactly per breakpoint segment
    as an arithmetic series — O(bounds^2) segments, independent of trips.

``enumerate``
    The general fallback: iterate this level's values and recurse (still
    benefiting from closed forms below).

The engine is *bit-identical* to the interpreter walk on every counter for
programs inside its domain and raises :class:`ClosedFormUnsupported` at
build time otherwise (guarded bodies, block-cyclic or multi-dimensional
distributions, rational bounds, block caching), letting the simulator fall
back to the walk.  Like the
interpreter's analytic path, ownership is computed from subscript values
directly, so out-of-range accesses that would make the walk's
``Distribution.owner`` raise are outside the shared domain (the static
bounds pass guards it).
"""

from __future__ import annotations

from itertools import product as _product
from typing import Dict, List, Optional, Sequence, Tuple

from repro.codegen.locality import RefClass
from repro.codegen.spmd import NodeProgram
from repro.ir.scalar import ArrayRef
from repro.ir.stmt import Assign, BlockRead
from repro.linalg.progression import (
    Progression,
    affine_segment_starts,
    congruence_period,
    count_congruent,
    count_in_interval,
    residue_classes,
    sum_affine_range,
)
from repro.numa.simulator import (
    AccessCounts,
    _compile_affine,
    _CompiledLoop,
    _eval_floor,
    _var,
)


class ClosedFormUnsupported(Exception):
    """The nest falls outside the closed-form engine's domain."""


def owned_elements(distribution, shape, processors: int, proc: int) -> int:
    """How many elements of an array one processor owns.

    Shared by the closed-form engine and the interpreter walk's gather
    accounting, so both tiers charge whole-array block reads identically.
    """
    kind = type(distribution).__name__
    dims = distribution.distribution_dims()
    if not dims:
        total = 1
        for extent in shape:
            total *= extent
        return total
    if len(dims) == 1 and kind in ("Wrapped", "Blocked"):
        dim = dims[0]
        extent = shape[dim]
        if kind == "Wrapped":
            mine = count_congruent(1, 0, 0, 1, extent, processors, proc)
        else:
            block = -(-extent // processors)
            mine = max(0, min((proc + 1) * block, extent) - proc * block)
        rest = 1
        for d, other in enumerate(shape):
            if d != dim:
                rest *= other
        return mine * rest
    # Generic fallback: enumerate owners (small arrays only).
    count = 0
    for indices in _product(*(range(extent) for extent in shape)):
        if distribution.owner(indices, processors, shape) == proc:
            count += 1
    return count


def _require_integral(expr, what: str) -> None:
    if expr.const.denominator != 1 or any(
        coeff.denominator != 1 for coeff in expr.coeffs.values()
    ):
        raise ClosedFormUnsupported(f"rational {what} '{expr}'")


class _RefRecipe:
    """Accounting recipe for one body reference."""

    __slots__ = ("kind", "slope", "rest", "array", "dim", "coeffs")

    def __init__(self, kind, slope=0, rest=None, array=None, dim=0, coeffs=None):
        self.kind = kind  # "free" | "wrapped" | "blocked"
        self.slope = slope  # innermost-index coefficient of the subscript
        self.rest = rest  # compiled subscript minus the innermost term
        self.array = array
        self.dim = dim
        self.coeffs = coeffs or {}  # index name -> integer coefficient


class _ReadRecipe:
    """Accounting recipe for one prologue block read."""

    __slots__ = ("kind", "slope", "rest", "array", "dim", "coeffs", "pattern")

    def __init__(self, kind, array, pattern, slope=0, rest=None, dim=0, coeffs=None):
        self.kind = kind  # "none" | "gather" | "wrapped" | "blocked"
        self.array = array
        self.pattern = pattern
        self.slope = slope  # own-level-index coefficient of the probe
        self.rest = rest
        self.dim = dim
        self.coeffs = coeffs or {}


class ClosedFormEngine:
    """Accounts a whole per-processor nest in closed form (tier 1).

    Build once per node program (the analysis is structural); then call
    :meth:`account` once per processor.  Raises
    :class:`ClosedFormUnsupported` from the constructor when any feature
    of the nest needs enumeration or guard evaluation.
    """

    def __init__(self, node: NodeProgram):
        nest = node.nest
        if nest.depth == 0:
            raise ClosedFormUnsupported("empty loop nest")
        if node.schedule not in ("wrapped", "blocked", "all"):
            raise ClosedFormUnsupported(f"unknown schedule {node.schedule!r}")
        self.node = node
        self.nest = nest
        program = node.program
        self.decls = {decl.name: decl for decl in program.arrays}
        self.element_bytes = {
            decl.name: decl.element_bytes for decl in program.arrays
        }
        self.distributions = program.distributions
        ref_classes: Dict[Tuple[ArrayRef, bool], RefClass] = {
            (info.ref, info.is_write): info.ref_class for info in node.plan.refs
        }
        indices = nest.indices

        self.compiled: List[_CompiledLoop] = []
        for loop in nest.loops:
            exprs = list(loop.lower) + list(loop.upper)
            if loop.align is not None:
                exprs.append(loop.align)
            for expr in exprs:
                _require_integral(expr, f"bound of loop {loop.index}")
            self.compiled.append(_CompiledLoop(loop))

        self.body_len = len(nest.body)
        self.refs: List[_RefRecipe] = []
        for statement in nest.body:
            if not isinstance(statement, Assign):
                raise ClosedFormUnsupported(
                    f"body statement {type(statement).__name__} needs "
                    "guard/read evaluation"
                )
            for ref, is_write in (
                [(statement.lhs, True)]
                + [(r, False) for r in statement.rhs.references()]
            ):
                self.refs.append(
                    self._ref_recipe(ref, is_write, ref_classes, indices)
                )

        self.reads: List[List[_ReadRecipe]] = []
        for level, loop in enumerate(nest.loops):
            recipes = []
            for statement in loop.prologue:
                if not isinstance(statement, BlockRead):
                    raise ClosedFormUnsupported(
                        f"prologue statement {type(statement).__name__} "
                        "is not a block read"
                    )
                recipes.append(self._read_recipe(statement, level, indices))
            self.reads.append(recipes)

        self.strategies = self._choose_strategies(indices)

    # ------------------------------------------------------------------
    # build-time analysis
    # ------------------------------------------------------------------
    def _ref_recipe(self, ref, is_write, ref_classes, indices) -> _RefRecipe:
        rc = ref_classes.get((ref, is_write), RefClass.CHECK)
        if rc in (RefClass.LOCAL, RefClass.COVERED):
            return _RefRecipe("free")
        distribution = self.distributions.get(ref.array)
        if distribution is None or not distribution.distribution_dims():
            return _RefRecipe("free")
        dims = distribution.distribution_dims()
        kind = type(distribution).__name__
        if len(dims) != 1 or kind not in ("Wrapped", "Blocked"):
            raise ClosedFormUnsupported(
                f"reference {ref} under '{distribution.describe()}' "
                "needs owner enumeration"
            )
        subscript = ref.subscripts[dims[0]]
        _require_integral(subscript, f"subscript of {ref.array!r}")
        inner = indices[-1]
        slope = int(subscript.coeff(inner))
        rest = _compile_affine(subscript - subscript.coeff(inner) * _var(inner))
        coeffs = {
            name: int(subscript.coeff(name))
            for name in indices
            if subscript.coeff(name) != 0
        }
        return _RefRecipe(
            "wrapped" if kind == "Wrapped" else "blocked",
            slope=slope, rest=rest, array=ref.array, dim=dims[0], coeffs=coeffs,
        )

    def _read_recipe(self, statement: BlockRead, level: int, indices) -> _ReadRecipe:
        array = statement.array
        if array not in self.decls:
            raise ClosedFormUnsupported(f"array {array!r} has no declared shape")
        distribution = self.distributions.get(array)
        if distribution is None or not distribution.distribution_dims():
            return _ReadRecipe("none", array, statement.pattern)
        dims = distribution.distribution_dims()
        if all(statement.pattern[d] is None for d in dims):
            return _ReadRecipe("gather", array, statement.pattern)
        kind = type(distribution).__name__
        if len(dims) != 1 or kind not in ("Wrapped", "Blocked"):
            raise ClosedFormUnsupported(
                f"block read of {array!r} under '{distribution.describe()}' "
                "needs owner enumeration"
            )
        probe = statement.pattern[dims[0]]
        _require_integral(probe, f"block-read probe of {array!r}")
        own = indices[level]
        for deeper in indices[level + 1:]:
            if probe.coeff(deeper) != 0:
                raise ClosedFormUnsupported(
                    f"block-read probe of {array!r} uses inner index {deeper!r}"
                )
        slope = int(probe.coeff(own))
        rest = _compile_affine(probe - probe.coeff(own) * _var(own))
        coeffs = {
            name: int(probe.coeff(name))
            for name in indices
            if probe.coeff(name) != 0
        }
        return _ReadRecipe(
            "wrapped" if kind == "Wrapped" else "blocked",
            array, statement.pattern,
            slope=slope, rest=rest, dim=dims[0], coeffs=coeffs,
        )

    def _choose_strategies(self, indices) -> List[Tuple]:
        depth = self.nest.depth
        loops = self.nest.loops
        strategies: List[Tuple] = []
        all_free = all(recipe.kind == "free" for recipe in self.refs)
        for level in range(depth):
            if level == depth - 1:
                strategies.append(("inner",))
                continue
            name = indices[level]
            bounds_dep = False
            for m in range(level + 1, depth):
                exprs = list(loops[m].lower) + list(loops[m].upper)
                if loops[m].align is not None:
                    exprs.append(loops[m].align)
                if any(expr.coeff(name) != 0 for expr in exprs):
                    bounds_dep = True
                    break
            wrapped_coeffs: List[int] = []
            blocked_dep = False
            for recipe in self.refs:
                coeff = recipe.coeffs.get(name, 0)
                if not coeff:
                    continue
                if recipe.kind == "wrapped":
                    wrapped_coeffs.append(coeff)
                elif recipe.kind == "blocked":
                    blocked_dep = True
            for m in range(level + 1, depth):
                for read in self.reads[m]:
                    coeff = read.coeffs.get(name, 0)
                    if not coeff:
                        continue
                    if read.kind == "wrapped":
                        wrapped_coeffs.append(coeff)
                    elif read.kind == "blocked":
                        blocked_dep = True
            if not bounds_dep and not wrapped_coeffs and not blocked_dep:
                strategies.append(("const",))
            elif not bounds_dep and not blocked_dep:
                strategies.append(("periodic", tuple(wrapped_coeffs)))
            elif (
                level == depth - 2
                and all_free
                and not self.nest.loops[depth - 1].prologue
                and loops[depth - 1].step == 1
                and loops[depth - 1].align is None
            ):
                strategies.append(("segmented",))
            else:
                strategies.append(("enumerate",))
        return strategies

    def describe_strategies(self) -> Tuple[str, ...]:
        """The per-level strategy names, outermost first (for tests/docs)."""
        return tuple(strategy[0] for strategy in self.strategies)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def account(self, env: Dict[str, int], processors: int, proc: int) -> AccessCounts:
        """Exact counts for one processor — never iterates the nest."""
        counts = AccessCounts()
        shapes = {name: decl.shape(env) for name, decl in self.decls.items()}
        self._level(0, env, processors, proc, shapes, counts)
        return counts

    def _progression(self, level, env, processors, proc) -> Progression:
        compiled = self.compiled[level]
        first = compiled.first(env)
        high = compiled.high(env)
        step = compiled.step
        if level > 0 or self.node.schedule == "all":
            return Progression.from_bounds(first, high, step)
        if first > high:
            return Progression(first, step, 0)
        if self.node.schedule == "wrapped":
            if step == 1:
                start = first + ((proc - first) % processors)
                return Progression.from_bounds(start, high, processors)
            return Progression.from_bounds(
                first + step * proc, high, step * processors
            )
        # blocked: contiguous position ranges
        trips = (high - first) // step + 1
        block = -(-trips // processors)
        start = proc * block
        end = min(trips, (proc + 1) * block) - 1
        if end < start:
            return Progression(first, step, 0)
        return Progression(first + step * start, step, end - start + 1)

    def _level(self, level, env, processors, proc, shapes, counts) -> None:
        progression = self._progression(level, env, processors, proc)
        if level == 0 and self.node.sync_per_outer_iteration:
            counts.syncs += self.node.sync_per_outer_iteration * progression.trips
        for read in self.reads[level]:
            self._charge_read(
                read, progression, env, processors, proc, shapes, counts
            )
        if progression.trips == 0:
            return
        strategy = self.strategies[level]
        kind = strategy[0]
        if kind == "inner":
            self._innermost(progression, env, processors, proc, shapes, counts)
            return
        index = self.nest.loops[level].index
        if kind == "const":
            inner = AccessCounts()
            env[index] = progression.first
            self._level(level + 1, env, processors, proc, shapes, inner)
            del env[index]
            _accumulate(counts, inner, progression.trips)
        elif kind == "periodic":
            period = congruence_period(
                processors, *(c * progression.step for c in strategy[1])
            )
            for value, size in residue_classes(progression, period):
                inner = AccessCounts()
                env[index] = value
                self._level(level + 1, env, processors, proc, shapes, inner)
                _accumulate(counts, inner, size)
            del env[index]
        elif kind == "segmented":
            self._segmented(level, progression, env, counts)
        else:  # enumerate
            value = progression.first
            for _ in range(progression.trips):
                env[index] = value
                self._level(level + 1, env, processors, proc, shapes, counts)
                value += progression.step
            del env[index]

    def _innermost(self, progression, env, processors, proc, shapes, counts) -> None:
        trips = progression.trips
        counts.iterations += trips
        counts.statements += trips * self.body_len
        first, step = progression.first, progression.step
        for recipe in self.refs:
            if recipe.kind == "free":
                counts.local += trips
                continue
            rest = _eval_floor(recipe.rest, env)
            if recipe.kind == "wrapped":
                local = count_congruent(
                    recipe.slope, rest, first, step, trips, processors, proc
                )
            else:
                extent = shapes[recipe.array][recipe.dim]
                block = -(-extent // processors)
                high = (proc + 1) * block - 1
                if self.nest.depth > 1:
                    # The walk's innermost summary clamps the owned interval
                    # to the array extent; its depth-1 enumeration path does
                    # not.  Equal for in-bounds programs — mirror both.
                    high = min(high, extent - 1)
                local = count_in_interval(
                    recipe.slope, rest, first, step, trips,
                    proc * block, high,
                )
            counts.local += local
            counts.remote += trips - local

    def _charge_read(
        self, read, progression, env, processors, proc, shapes, counts
    ) -> None:
        if read.kind == "none" or progression.trips == 0:
            return
        shape = shapes[read.array]
        if read.kind == "gather":
            total = 1
            for extent in shape:
                total *= extent
            distribution = self.distributions[read.array]
            remote = total - owned_elements(distribution, shape, processors, proc)
            if remote <= 0:
                return
            messages = min(processors - 1, remote)
            num_bytes = remote * self.element_bytes.get(read.array, 8)
            counts.block_transfers += messages * progression.trips
            counts.block_bytes += num_bytes * progression.trips
            return
        elements = 1
        for dim, entry in enumerate(read.pattern):
            if entry is None:
                elements *= shape[dim]
        num_bytes = elements * self.element_bytes.get(read.array, 8)
        rest = _eval_floor(read.rest, env)
        if read.kind == "wrapped":
            local = count_congruent(
                read.slope, rest, progression.first, progression.step,
                progression.trips, processors, proc,
            )
        else:
            extent = shape[read.dim]
            block = -(-extent // processors)
            local = count_in_interval(
                read.slope, rest, progression.first, progression.step,
                progression.trips, proc * block, (proc + 1) * block - 1,
            )
        fetches = progression.trips - local
        counts.block_transfers += fetches
        counts.block_bytes += fetches * num_bytes

    def _segmented(self, level, progression, env, counts) -> None:
        """Sum the innermost trip count over this level as affine segments."""
        inner = self.compiled[level + 1]
        index = self.nest.loops[level].index
        first, step = progression.first, progression.step

        def _as_position_affine(compiled_bound):
            pairs, _den, const = compiled_bound  # den == 1 by precondition
            slope_x = 0
            base = const
            for name, coeff in pairs:
                if name == index:
                    slope_x += coeff
                else:
                    base += coeff * env[name]
            return (slope_x * step, slope_x * first + base)

        lowers = [_as_position_affine(c) for c in inner.lowers]
        uppers = [_as_position_affine(c) for c in inner.uppers]
        differences = []
        for i in range(len(lowers)):
            for j in range(i + 1, len(lowers)):
                differences.append(
                    (lowers[i][0] - lowers[j][0], lowers[i][1] - lowers[j][1])
                )
        for i in range(len(uppers)):
            for j in range(i + 1, len(uppers)):
                differences.append(
                    (uppers[i][0] - uppers[j][0], uppers[i][1] - uppers[j][1])
                )
        for ls, li in lowers:
            for us, ui in uppers:
                differences.append((us - ls, ui - li + 1))
        starts = affine_segment_starts(differences, progression.trips)
        n_refs = len(self.refs)
        for k, start in enumerate(starts):
            end = (
                starts[k + 1] - 1 if k + 1 < len(starts)
                else progression.trips - 1
            )
            low = max(lowers, key=lambda f: f[0] * start + f[1])
            high = min(uppers, key=lambda f: f[0] * start + f[1])
            slope = high[0] - low[0]
            intercept = high[1] - low[1] + 1
            if slope * start + intercept <= 0:
                continue
            total = sum_affine_range(slope, intercept, start, end)
            counts.iterations += total
            counts.statements += total * self.body_len
            counts.local += total * n_refs


def _accumulate(counts: AccessCounts, inner: AccessCounts, factor: int) -> None:
    counts.local += inner.local * factor
    counts.remote += inner.remote * factor
    counts.block_transfers += inner.block_transfers * factor
    counts.block_bytes += inner.block_bytes * factor
    counts.guards += inner.guards * factor
    counts.statements += inner.statements * factor
    counts.iterations += inner.iterations * factor
    counts.syncs += inner.syncs * factor
