"""Small expression grammar for declaring dynamics, costs and first integrals.

Expressions are built from state variables ``y1..ym``, control variables
``u1..up``, decimal numbers, ``pi``, the operators ``+ - * / ^`` (``^`` takes a
constant exponent), the functions ``sin cos exp sqrt abs`` and the
two-argument ``atan2(a, b)``, the angle of the point ``(b, a)``.  Python's
own parser reads an expression, and :func:`parse_expr` keeps of its tree
only what this grammar has, at most :data:`MAX_DEPTH` operations deep, so
that every parsed expression compiles.  Parsed expressions support exact
symbolic differentiation with respect to state variables, which is what the
first-integral check of every system build relies on.

Three compilation targets are provided: a scalar form operating on plain
float tuples; a run of Runge-Kutta steps on plain floats with the expressions
inlined (the fixed-step integrator's inner loop, where numpy's per-call
overhead would dominate), closed by a law over the state and the run's
control argument, which a held control reads as ``(u1, ..., up)``; and one
numpy form over states and controls whose leading shapes broadcast, which
evaluates row-paired points and state × control products alike (grid
assembly, certificate slacks, oracles, trajectory costs).  The scalar forms raise
``ValueError`` where a function leaves its domain (``sqrt`` or ``^`` of a
negative number); the numpy form gives NaN.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from array import array
from dataclasses import dataclass

import numpy as np

# name -> (scalar function, numpy function, number of arguments)
_FUNCTIONS = {
    "sin": (math.sin, np.sin, 1),
    "cos": (math.cos, np.cos, 1),
    "exp": (math.exp, np.exp, 1),
    "sqrt": (math.sqrt, np.sqrt, 1),
    "abs": (abs, np.abs, 1),
    "atan2": (math.atan2, np.arctan2, 2),
}


class ExpressionError(ValueError):
    """Raised when an expression cannot be parsed or differentiated."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    kind: str  # "y" or "u"
    index: int  # zero-based


@dataclass(frozen=True)
class Unary:
    op: str  # "neg"
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # "+", "-", "*", "/"
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Power:
    base: "Node"
    exponent: float


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Node", ...]


Node = Num | Var | Unary | Binary | Power | Call


# the deepest nesting of operations and calls that parse_expr accepts.  Each
# level is one bracket of the generated source, which adds two of its own
# (the result tuple and a subscript ``y[0]``), and Python's tokenizer allows
# 200 nested brackets
MAX_DEPTH = 198

_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_WHITESPACE = " \t\n\r\f\v"
_UNEXPECTED = re.compile(r"\*\*|[^A-Za-z0-9_.,+\-*/^()" + _WHITESPACE + "]")
_DECIMAL = re.compile(r"[0-9.eE+-]+")
# a number where Python's tokenizer starts one, and the name characters run into it
_NUMBER = re.compile(r"(?<![A-Za-z0-9_.])(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
                     r"([A-Za-z_][A-Za-z0-9_]*)?")
_LEADING_ZERO = re.compile(r"0+[1-9][0-9]*")


def parse_expr(text: str, dim_state: int, dim_control: int) -> Node:
    """Parse one expression; variable indices are validated against the dims.

    Python's own parser reads the text, with ``^`` as ``**`` and each
    whitespace character as a space, and a walk of its tree keeps what the
    grammar has: decimal literals (finite), ``pi``, ``y1..ym``, ``u1..up``,
    unary ``-``/``+``, ``+ - * /``, ``^`` of a number or a negated number, and
    the grammar's functions with their number of arguments.  It raises
    ExpressionError, with the position in ``text``, on anything else, and on
    a tree more than :data:`MAX_DEPTH` operations and calls deep, so that
    every expression it returns compiles.  A number run into a name (``2y1``)
    or an integer with a leading zero is rejected before Python can warn or
    advise on it."""
    bad = _UNEXPECTED.search(text)
    if bad:
        raise ExpressionError("use '^' for powers" if bad.group() == "**"
                              else f"unexpected character {bad.group()!r}", bad.start())
    for number in _NUMBER.finditer(text):
        literal = number.group()
        if number.group(1) or _LEADING_ZERO.fullmatch(literal):
            raise ExpressionError(f"{literal!r} is not a decimal number" if number.group(1)
                                  else f"integer {literal!r} has a leading zero", number.start())
    body = text.lstrip(_WHITESPACE)
    # origin[i] is the position in text of the source's character i
    origin = [len(text) - len(body) + i for i, ch in enumerate(body)
              for _ in range(1 + (ch == "^"))] + [len(text)]
    source = body.replace("^", "**").translate(
        str.maketrans(_WHITESPACE, " " * len(_WHITESPACE)))
    try:
        tree = ast.parse(source, mode="eval").body
    except SyntaxError as err:
        raise ExpressionError(err.msg, origin[min(max((err.offset or 1) - 1, 0), len(source))])
    except (RecursionError, MemoryError):
        raise ExpressionError(f"expression nests deeper than {MAX_DEPTH} levels") from None

    def fail(message: str, node: ast.expr):
        raise ExpressionError(message, origin[node.col_offset])

    def exponent(node: ast.expr) -> float:
        sign = 1.0
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            sign, node = -1.0, node.operand
        if isinstance(node, (ast.Constant, ast.Name)):
            value = read(node, 0)
            if isinstance(value, Num):
                return sign * value.value
        fail("exponent must be a constant", node)

    def read(node: ast.expr, depth: int) -> Node:
        if depth > MAX_DEPTH:
            fail(f"expression nests deeper than {MAX_DEPTH} levels", node)
        if isinstance(node, ast.Constant):
            literal = source[node.col_offset:node.end_col_offset]
            if type(node.value) not in (int, float) or not _DECIMAL.fullmatch(literal):
                fail(f"{literal!r} is not a decimal number", node)
            if not math.isfinite(float(literal)):
                fail(f"number {literal!r} is not finite", node)
            return Num(float(literal))
        if isinstance(node, ast.Name):
            name = node.id
            if name == "pi":
                return Num(math.pi)
            if name in _FUNCTIONS:
                fail(f"function {name!r} needs {_FUNCTIONS[name][2]} argument(s)", node)
            if name[0] in "yu" and name[1:].isdigit():
                index = int(name[1:]) - 1
                dim = dim_state if name[0] == "y" else dim_control
                if not 0 <= index < dim:
                    fail(f"variable {name!r} out of range (dimension {dim})", node)
                return Var(name[0], index)
            fail(f"unknown name {name!r}", node)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            arg = read(node.operand, depth + 1)
            return arg if isinstance(node.op, ast.UAdd) else Unary("neg", arg)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return Binary(_BINARY[type(node.op)], read(node.left, depth + 1),
                          read(node.right, depth + 1))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            return Power(read(node.left, depth + 1), exponent(node.right))
        # a call names its function right before its '(': not ``(sin)(y1)``
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCTIONS and node.func.col_offset == node.col_offset):
            name, arity = node.func.id, _FUNCTIONS[node.func.id][2]
            if len(node.args) != arity:
                fail(f"function {name!r} takes {arity} argument(s), got {len(node.args)}", node)
            return Call(name, tuple(read(arg, depth + 1) for arg in node.args))
        shown = text[origin[node.col_offset]:origin[node.end_col_offset]]
        fail(f"{shown!r} is not in the expression grammar", node)

    return read(tree, 0)


def depth(node: Node) -> int:
    """The number of operations and calls on the longest path from ``node`` to a leaf."""
    if isinstance(node, (Num, Var)):
        return 0
    if isinstance(node, Unary):
        return 1 + depth(node.arg)
    if isinstance(node, Binary):
        return 1 + max(depth(node.left), depth(node.right))
    return 1 + max(map(depth, (node.base,) if isinstance(node, Power) else node.args))


def diff(node: Node, index: int) -> Node:
    """Exact derivative with respect to state variable ``y{index+1}``."""
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        if node.kind == "y" and node.index == index:
            return Num(1.0)
        return Num(0.0)
    if isinstance(node, Unary):
        return Unary("neg", diff(node.arg, index))
    if isinstance(node, Binary):
        dl, dr = diff(node.left, index), diff(node.right, index)
        if node.op in "+-":
            return Binary(node.op, dl, dr)
        if node.op == "*":
            return Binary("+", Binary("*", dl, node.right), Binary("*", node.left, dr))
        # quotient rule
        num = Binary("-", Binary("*", dl, node.right), Binary("*", node.left, dr))
        return Binary("/", num, Power(node.right, 2.0))
    if isinstance(node, Power):
        inner = diff(node.base, index)
        scaled = Binary("*", Num(node.exponent), Power(node.base, node.exponent - 1.0))
        return Binary("*", scaled, inner)
    if isinstance(node, Call):
        if node.func == "atan2":
            # d atan2(a, b) = (b da - a db) / (a^2 + b^2)
            a, b = node.args
            num = Binary("-", Binary("*", b, diff(a, index)), Binary("*", a, diff(b, index)))
            return Binary("/", num, Binary("+", Power(a, 2.0), Power(b, 2.0)))
        (arg,) = node.args
        inner = diff(arg, index)
        if node.func == "sin":
            outer: Node = Call("cos", node.args)
        elif node.func == "cos":
            outer = Unary("neg", Call("sin", node.args))
        elif node.func == "exp":
            outer = Call("exp", node.args)
        elif node.func == "sqrt":
            outer = Binary("/", Num(0.5), Call("sqrt", node.args))
        else:
            raise ExpressionError(f"function {node.func!r} is not differentiable here")
        return Binary("*", outer, inner)
    raise ExpressionError(f"cannot differentiate node {node!r}")


def control_degrees(node: Node, dim_control: int) -> tuple[int, ...] | None:
    """The degree of ``node`` in each control variable ``u1..up``, read off its
    structure, or None where the walk cannot bound it.

    Numbers and state variables have degree 0, ``u_i`` degree 1 in ``u_i``;
    ``+`` and ``-`` take the larger degree per control, ``*`` adds them.  A
    quotient has its numerator's degree when its divisor is control-free,
    and a power or a function call degree 0 when its base or arguments are;
    any other quotient, power or call is None.  The walk does not cancel
    terms, so ``(u1 - u1) * u1`` has degree 2."""
    if isinstance(node, Num):
        return (0,) * dim_control
    if isinstance(node, Var):
        return tuple(int(node.kind == "u" and node.index == i) for i in range(dim_control))
    if isinstance(node, Unary):
        return control_degrees(node.arg, dim_control)
    if isinstance(node, Binary):
        left = control_degrees(node.left, dim_control)
        right = control_degrees(node.right, dim_control)
        if left is None or right is None:
            return None
        if node.op in "+-":
            return tuple(map(max, left, right))
        if node.op == "*":
            return tuple(map(operator.add, left, right))
        return None if any(right) else left
    parts = (node.base,) if isinstance(node, Power) else node.args
    degrees = [control_degrees(part, dim_control) for part in parts]
    return None if any(d is None or any(d) for d in degrees) else (0,) * dim_control


def multilinear_in_controls(nodes: tuple[Node, ...], dim_control: int) -> bool:
    """Whether :func:`control_degrees` finds every node of degree at most 1 in
    each control.  A "no" may be wrong (the walk does not simplify); a "yes"
    is not: each node is then affine in each control with the others held."""
    degrees = [control_degrees(node, dim_control) for node in nodes]
    return all(d is not None and max(d, default=0) <= 1 for d in degrees)


def _emit(node: Node, var) -> str:
    """Python source for ``node``; ``var(v)`` is the source naming variable ``v``."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return var(node)
    if isinstance(node, Unary):
        return f"(-{_emit(node.arg, var)})"
    if isinstance(node, Binary):
        return f"({_emit(node.left, var)} {node.op} {_emit(node.right, var)})"
    if isinstance(node, Power):
        return f"_pow({_emit(node.base, var)}, {repr(node.exponent)})"
    if isinstance(node, Call):
        return f"_{node.func}({', '.join(_emit(arg, var) for arg in node.args)})"
    raise ExpressionError(f"cannot compile node {node!r}")


def variables(node: Node) -> set[Var]:
    """The variables that ``node`` reads: those its source names."""
    found = set()
    _emit(node, lambda v: found.add(v) or "")
    return found


def _subscript(v: Var) -> str:
    return f"{v.kind}[{v.index}]"


def _define(lines: list[str], numpy_mode: bool = False):
    """Execute the source of one function ``_f`` with the grammar's functions in scope.

    ``^`` is ``math.pow`` on floats: bitwise Python's ``**``, except that it
    raises ``ValueError`` where ``**`` would return a complex number.  On
    arrays it is ``**``, which keeps numpy's fast paths for squares and roots.
    """
    namespace = {f"_{name}": numpy_fn if numpy_mode else scalar_fn
                 for name, (scalar_fn, numpy_fn, _) in _FUNCTIONS.items()}
    namespace["_pow"] = operator.pow if numpy_mode else math.pow
    namespace["_isfinite"], namespace["_array"] = math.isfinite, array
    exec(compile("\n".join(lines) + "\n", "<occlp-expr>", "exec"), namespace)
    return namespace["_f"]


def _compile(nodes: tuple[Node, ...], numpy_mode: bool):
    body = ", ".join(_emit(node, _subscript) for node in nodes)
    return _define(["def _f(y, u):", f"    return ({body},)"], numpy_mode)


def compile_scalar(nodes: tuple[Node, ...]):
    """Compile to ``f(y_tuple, u_tuple) -> tuple[float, ...]`` on plain floats."""
    return _compile(nodes, numpy_mode=False)


# the state each Runge-Kutta stage evaluates at: its variable prefix, and the
# multiple of the previous stage's slope that is added to y.  Python groups
# ``0.5 * dt * k`` as ``(0.5 * dt) * k``, so ``half_dt * k`` is the same float
# operation with the product taken once per run.
_RK4_STAGES = (("y", ""), ("a", "half_dt"), ("b", "half_dt"), ("c", "dt"))


def compile_rk4_run(nodes: tuple[Node, ...], law: tuple[Node, ...]):
    """Compile a run of classical Runge-Kutta steps of ``y' = nodes(y, u)``,
    closed by ``law``, on plain floats with the dynamics inlined per stage.

    ``run(y, u, lows, highs, dt, n, rows, controls) -> (done, state,
    escaped)`` takes up to ``n`` steps from the state tuple ``y``, keeping the
    state in local floats.  The law, one expression per control component,
    reads the state and the run's control argument ``u``: a held control is
    ``(u1, ..., up)``.  Its value is each step's control, evaluated at the
    step's left endpoint, or once before the first step if it reads no state.
    A control outside ``lows <= c <= highs`` (NaN is outside) stops the run
    there, with ``escaped`` the control and the state the one it was
    evaluated at.  Otherwise the control is appended to ``controls`` (``n``
    copies up front if evaluated once), the step is taken and the new state's
    components appended to ``rows``.  The run stops at the first non-finite
    state, returned unappended, with ``done`` the steps before it; otherwise
    ``done == n`` and the state is the last one.

    An arithmetic or domain error (an overflowing ``^`` or ``exp``, a division
    by zero, ``sqrt`` of a negative number) propagates, with the states and
    controls before it appended.  Every float operation of a step is one that
    ``rk4_step`` of ``tests/reference.py`` performs with ``compile_scalar(nodes)``
    at the control ``compile_scalar(law)(y, u)``, in the same order, so the
    states agree bitwise.
    """
    m, us = len(nodes), range(len(law))
    state, control = _tuple("y", range(m)), _tuple("u", us)
    per_step = any(v.kind == "y" for node in law for v in variables(node))

    def law_var(v: Var) -> str:
        return f"y{v.index}" if v.kind == "y" else f"u[{v.index}]"
    head = [f"u{c} = {_emit(node, law_var)}" for c, node in enumerate(law)]
    if law:
        inside = " and ".join(f"lo{c} <= u{c} <= hi{c}" for c in us)
        head += [f"if not ({inside}):",
                 f"    return {'i' if per_step else 0}, {state}, {control}"]
    if per_step:  # evaluated, checked and appended at every step
        body, head = [*head, *(f"put_u(u{c})" for c in us)], ["put_u = controls.append"]
    else:
        body, head = [], [*head, f"controls.extend(_array('d', {control}) * n)"]
    for s, (z, scale) in enumerate(_RK4_STAGES, start=1):
        if s > 1:
            body += [f"{z}{j} = y{j} + {scale} * k{s - 1}_{j}" for j in range(m)]

        def var(v: Var, z=z) -> str:
            return f"{z}{v.index}" if v.kind == "y" else f"u{v.index}"
        body += [f"k{s}_{j} = {_emit(node, var)}" for j, node in enumerate(nodes)]
    body += [f"y{j} = y{j} + dt * (k1_{j} + 2.0 * k2_{j} + 2.0 * k3_{j} + k4_{j}) / 6.0"
             for j in range(m)]
    finite = " and ".join(f"_isfinite(y{j})" for j in range(m))
    body += [f"if not ({finite}):", f"    return i, {state}, None"]
    body += [f"put(y{j})" for j in range(m)]
    lines = ["def _f(y, u, lows, highs, dt, n, rows, controls):",
             *(f"    {line}" for line in [f"{_tuple('lo', us)} = lows",
                                           f"{_tuple('hi', us)} = highs", f"{state} = y",
                                           "half_dt = 0.5 * dt", "put = rows.append", *head]),
             "    for i in range(n):", *("        " + line for line in body),
             f"    return n, {state}, None"]
    return _define(lines)


def _tuple(prefix: str, indices) -> str:
    """Source of the tuple of the locals ``prefix0, prefix1, ...``."""
    return "(" + "".join(f"{prefix}{i}, " for i in indices) + ")"


def compile_numpy(nodes: tuple[Node, ...]):
    """Compile to a numpy form ``f(Y, U) -> (len(nodes), *shape)`` on states
    ``(..., m)`` and controls ``(..., p)`` whose leading shapes broadcast to
    ``shape``: row-paired points as ``(n, m)`` against ``(n, p)``, a state ×
    control product as ``Y[:, None, :]`` against ``U[None, :, :]``, with no
    (state, control) row built.  Every operation is elementwise, so each
    entry is the float its pair gives as a row of its own."""
    raw = _compile(nodes, numpy_mode=True)

    def evaluate(ys, us) -> np.ndarray:
        ys = np.asarray(ys, dtype=float)
        us = np.asarray(us, dtype=float)
        cols = raw(np.moveaxis(ys, -1, 0), np.moveaxis(us, -1, 0))
        out = np.empty((len(cols), *np.broadcast_shapes(ys.shape[:-1], us.shape[:-1])))
        for j, col in enumerate(cols):
            out[j] = col
        return out

    return evaluate
