"""Executable-Python code generation.

The paper's compiler emits C for each node; our equivalent target is
Python source, generated from the IR and compiled with ``exec``.  The
generated code is semantically identical to the tree-walking interpreter
(:mod:`repro.ir.interp`) but runs an order of magnitude faster, which the
benchmark harness and the cross-validation tests exploit.

Exact rational bound arithmetic is preserved: a bound whose affine
expression has denominator ``L`` is emitted as an integer numerator
expression with an explicit floor/ceiling division by ``L``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

from repro.errors import CodegenError
from repro.ir.affine import AffineExpr
from repro.ir.loop import LoopNest
from repro.ir.program import Program
from repro.ir.scalar import BinOp, Const, IndexValue, Load, Param, ScalarExpr
from repro.ir.stmt import Assign, BlockRead, IfThen, Statement
from repro.linalg.intmat import vector_lcm


def _numerator_text(expr: AffineExpr, scale: int) -> str:
    """Render ``scale * expr`` (guaranteed integral) as a Python int expression."""
    parts: List[str] = []
    for name, coeff in expr.coeffs.items():
        value = coeff * scale
        if value.denominator != 1:
            raise CodegenError(f"scale {scale} does not clear {expr}")
        parts.append(f"{int(value)}*{name}")
    const = expr.const * scale
    if const.denominator != 1:
        raise CodegenError(f"scale {scale} does not clear {expr}")
    if int(const) or not parts:
        parts.append(str(int(const)))
    return " + ".join(parts).replace("+ -", "- ")


def _denominator(expr: AffineExpr) -> int:
    values = [expr.const.denominator] + [c.denominator for c in expr.coeffs.values()]
    return vector_lcm(values) or 1


def _floor_text(expr: AffineExpr) -> str:
    den = _denominator(expr)
    num = _numerator_text(expr, den)
    if den == 1:
        return f"({num})"
    return f"(({num}) // {den})"


def _ceil_text(expr: AffineExpr) -> str:
    den = _denominator(expr)
    num = _numerator_text(expr, den)
    if den == 1:
        return f"({num})"
    return f"(-((-({num})) // {den}))"


def _value_text(expr: AffineExpr) -> str:
    """Render the exact value of an affine expression (int or exact float)."""
    den = _denominator(expr)
    num = _numerator_text(expr, den)
    if den == 1:
        return f"({num})"
    return f"(({num}) / {den})"


def _int_value_text(expr: AffineExpr) -> str:
    """Render an affine expression known to be integral at run time."""
    den = _denominator(expr)
    num = _numerator_text(expr, den)
    if den == 1:
        return f"({num})"
    return f"(({num}) // {den})"


def _scalar_text(expr: ScalarExpr) -> str:
    if isinstance(expr, Const):
        if expr.value.denominator == 1:
            return str(int(expr.value))
        return f"({expr.value.numerator} / {expr.value.denominator})"
    if isinstance(expr, Param):
        return expr.name
    if isinstance(expr, IndexValue):
        return _value_text(expr.expr)
    if isinstance(expr, Load):
        subs = ", ".join(_int_value_text(s) for s in expr.ref.subscripts)
        return f"_arr_{expr.ref.array}[{subs}]"
    if isinstance(expr, BinOp):
        return f"({_scalar_text(expr.left)} {expr.op} {_scalar_text(expr.right)})"
    raise CodegenError(f"cannot emit Python for {expr!r}")


def _statement_lines(statement: Statement, pad: str) -> List[str]:
    if isinstance(statement, Assign):
        subs = ", ".join(_int_value_text(s) for s in statement.lhs.subscripts)
        return [f"{pad}_arr_{statement.lhs.array}[{subs}] = {_scalar_text(statement.rhs)}"]
    if isinstance(statement, IfThen):
        tests = []
        for cond in statement.conditions:
            tests.append(
                f"({_int_value_text(cond.expr)} % {_int_value_text(cond.modulus)}"
                f" == {_int_value_text(cond.target)} % {_int_value_text(cond.modulus)})"
            )
        joiner = " or " if statement.disjunctive else " and "
        lines = [f"{pad}if {joiner.join(tests)}:"]
        lines.extend(_statement_lines(statement.body, pad + "    "))
        return lines
    if isinstance(statement, BlockRead):
        return [f"{pad}pass  # read {statement.array} block (data movement only)"]
    raise CodegenError(f"cannot emit Python for {statement!r}")


def emit_python(program: Program, function_name: str = "run") -> str:
    """Generate Python source implementing the program's loop nest.

    The function signature is ``run(arrays, params)`` where ``arrays`` maps
    array names to numpy ndarrays and ``params`` binds every symbolic
    parameter.
    """
    nest: LoopNest = program.nest
    lines: List[str] = [
        f"def {function_name}(arrays, params):",
        '    """Generated by repro.codegen.pycodegen; do not edit."""',
    ]
    for name in nest.array_names():
        lines.append(f"    _arr_{name} = arrays['{name}']")
    free = set(nest.free_variables())
    for statement in nest.body:
        _collect_params(statement, free)
    for loop in nest.loops:
        for statement in loop.prologue:
            _collect_params(statement, free)
    free -= set(nest.indices)
    for name in sorted(free):
        lines.append(f"    {name} = params['{name}']")

    pad = "    "
    for loop in nest.loops:
        lowers = [_ceil_text(e) for e in loop.lower]
        uppers = [_floor_text(e) for e in loop.upper]
        low = lowers[0] if len(lowers) == 1 else "max(" + ", ".join(lowers) + ")"
        high = uppers[0] if len(uppers) == 1 else "min(" + ", ".join(uppers) + ")"
        lines.append(f"{pad}_lo = {low}")
        if loop.align is not None:
            offset = _int_value_text(loop.align)
            lines.append(f"{pad}_lo = _lo + (({offset} - _lo) % {loop.step})")
        lines.append(
            f"{pad}for {loop.index} in range(_lo, {high} + 1, {loop.step}):"
        )
        pad += "    "
        for statement in loop.prologue:
            lines.extend(_statement_lines(statement, pad))
    for statement in nest.body:
        lines.extend(_statement_lines(statement, pad))
    lines.append("    return arrays")
    return "\n".join(lines) + "\n"


def _collect_params(statement: Statement, out: set) -> None:
    """Collect every symbol a statement can mention at run time."""
    if isinstance(statement, Assign):
        _scalar_params(statement.rhs, out)
        for sub in statement.lhs.subscripts:
            out.update(sub.variables())
    elif isinstance(statement, IfThen):
        for cond in statement.conditions:
            out.update(cond.expr.variables())
            out.update(cond.modulus.variables())
            out.update(cond.target.variables())
        _collect_params(statement.body, out)
    elif isinstance(statement, BlockRead):
        for entry in statement.pattern:
            if entry is not None:
                out.update(entry.variables())


def _scalar_params(expr: ScalarExpr, out: set) -> None:
    if isinstance(expr, Param):
        out.add(expr.name)
    elif isinstance(expr, IndexValue):
        out.update(expr.expr.variables())
    elif isinstance(expr, Load):
        for sub in expr.ref.subscripts:
            out.update(sub.variables())
    elif isinstance(expr, BinOp):
        _scalar_params(expr.left, out)
        _scalar_params(expr.right, out)


def compile_program(
    program: Program, function_name: str = "run"
) -> Callable[[Dict, Optional[Mapping[str, int]]], Dict]:
    """Compile a program to a fast Python callable ``f(arrays, params)``.

    ``params`` defaults to the program's own parameter bindings.
    """
    source = emit_python(program, function_name)
    namespace: Dict = {}
    exec(compile(source, f"<generated {program.name}>", "exec"), namespace)
    generated = namespace[function_name]

    def runner(arrays: Dict, params: Optional[Mapping[str, int]] = None) -> Dict:
        return generated(arrays, program.bound_params(params))

    runner.source = source  # type: ignore[attr-defined]
    return runner
