"""Small expression grammar for declaring dynamics, costs and first integrals.

Expressions are built from state variables ``y1..ym``, control variables
``u1..up``, decimal numbers, ``pi``, the operators ``+ - * / ^`` (``^`` takes a
constant exponent), the functions ``sin cos exp sqrt abs`` and the
two-argument ``atan2(a, b)``, the angle of the point ``(b, a)``.  Parsed
expressions support exact symbolic differentiation with respect to state
variables, which is what the first-integral checks rely on.

Three compilation targets are provided: a scalar form operating on plain
float tuples, a run of Runge-Kutta steps on plain floats with the expressions
inlined (the fixed-step integrator's inner loop, where numpy's per-call
overhead would dominate), at one held control or under a feedback law, and
one numpy form over states and controls whose leading shapes broadcast, which
evaluates row-paired points and state × control products alike (grid
assembly, certificate slacks, oracles, trajectory costs).  The scalar forms raise
``ValueError`` where a function leaves its domain (``sqrt`` or ``^`` of a
negative number); the numpy form gives NaN.
"""

from __future__ import annotations

import math
import operator
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

    def __init__(self, message: str, text: str = "", pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos} in {text!r})"
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


class _Parser:
    def __init__(self, text: str, dim_state: int, dim_control: int):
        self.text = text
        self.pos = 0
        self.m = dim_state
        self.p = dim_control

    def fail(self, message: str):
        raise ExpressionError(message, self.text, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Node:
        node = self.parse_sum()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("unexpected trailing input")
        return node

    def parse_sum(self) -> Node:
        node = self.parse_product()
        while True:
            ch = self.peek()
            if ch and ch in "+-":
                self.pos += 1
                rhs = self.parse_product()
                node = Binary(ch, node, rhs)
            else:
                return node

    def parse_product(self) -> Node:
        node = self.parse_unary()
        while True:
            ch = self.peek()
            if ch and ch in "*/":
                self.pos += 1
                rhs = self.parse_unary()
                node = Binary(ch, node, rhs)
            else:
                return node

    def parse_unary(self) -> Node:
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            return Unary("neg", self.parse_unary())
        if ch == "+":
            self.pos += 1
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Node:
        base = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            sign = 1.0
            if self.peek() == "-":
                self.pos += 1
                sign = -1.0
            exp_node = self.parse_atom()
            if not isinstance(exp_node, Num):
                self.fail("exponent must be a constant")
            return Power(base, sign * exp_node.value)
        return base

    def parse_atom(self) -> Node:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.parse_sum()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            return node
        if ch.isdigit() or ch == ".":
            return self.parse_number()
        if ch.isalpha() or ch == "_":
            return self.parse_name()
        self.fail("expected a number, variable or '('")

    def parse_number(self) -> Num:
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isdigit() or text[self.pos] == "."):
            self.pos += 1
        if self.pos < len(text) and text[self.pos] in "eE":
            probe = self.pos + 1
            if probe < len(text) and text[probe] in "+-":
                probe += 1
            if probe < len(text) and text[probe].isdigit():
                self.pos = probe
                while self.pos < len(text) and text[self.pos].isdigit():
                    self.pos += 1
        try:
            return Num(float(text[start:self.pos]))
        except ValueError:
            self.fail(f"bad number {text[start:self.pos]!r}")

    def parse_name(self) -> Node:
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] == "_"):
            self.pos += 1
        name = text[start:self.pos]
        if name == "pi":
            return Num(math.pi)
        if name in _FUNCTIONS:
            arity = _FUNCTIONS[name][2]
            if self.peek() != "(":
                self.fail(f"function {name!r} needs {arity} argument(s)")
            self.pos += 1
            args = [self.parse_sum()]
            while self.peek() == ",":
                self.pos += 1
                args.append(self.parse_sum())
            if self.peek() != ")":
                self.fail("expected ')'")
            if len(args) != arity:
                self.fail(f"function {name!r} takes {arity} argument(s), got {len(args)}")
            self.pos += 1
            return Call(name, tuple(args))
        if name[0] in "yu" and name[1:].isdigit():
            index = int(name[1:]) - 1
            dim = self.m if name[0] == "y" else self.p
            if not 0 <= index < dim:
                self.fail(f"variable {name!r} out of range (dimension {dim})")
            return Var(name[0], index)
        self.fail(f"unknown name {name!r}")


def parse_expr(text: str, dim_state: int, dim_control: int) -> Node:
    """Parse one expression; variable indices are validated against the dims."""
    return _Parser(text, dim_state, dim_control).parse()


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
    namespace["_isfinite"] = math.isfinite
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


def compile_rk4_run(nodes: tuple[Node, ...], law: tuple[Node, ...] | None = None):
    """Compile a run of classical Runge-Kutta steps of ``y' = nodes(y, u)``, on
    plain floats with the dynamics inlined per stage.

    Without a law the control is held: ``run(y, u, dt, n, rows) -> (done,
    state)`` takes up to ``n`` steps from the state tuple ``y`` at the control
    tuple ``u``, keeping the state in local floats, and appends each new
    state's components to ``rows``.  It stops at the first non-finite state,
    which it returns without appending, with ``done`` the number of steps
    before it; otherwise ``done == n`` and the state is the last one.

    With a law, one expression over the state per control component, the loop
    is closed: ``run(y, lows, highs, dt, n, rows, controls) -> (done, state,
    escaped)`` evaluates ``u = law(y)`` at the left endpoint of every step.  A
    ``u`` outside the box ``lows <= u <= highs`` (a NaN component is outside)
    stops the run before that step, with ``escaped`` the tuple ``u`` and the
    state the finite one it was evaluated at; otherwise ``u`` is appended to
    ``controls`` and the step is taken as above, and ``escaped`` is None.

    An arithmetic or domain error (an overflowing ``^`` or ``exp``, a division
    by zero, ``sqrt`` of a negative number) propagates, with the states and
    controls before it appended.  Every float operation of a step is one that
    ``simulate.rk4_step`` performs with ``compile_scalar(nodes)`` at the control
    ``compile_scalar(law)(y, ())``, in the same order, so the states agree
    bitwise.
    """
    m = len(nodes)
    controls = set()  # the control components the dynamics read
    body = []
    if law is not None:
        def state_var(v: Var) -> str:
            if v.kind == "u":
                raise ExpressionError("a feedback law must read the state only")
            return f"y{v.index}"
        us = range(len(law))
        body += [f"u{c} = {_emit(node, state_var)}" for c, node in enumerate(law)]
        inside = " and ".join(f"lo{c} <= u{c} <= hi{c}" for c in us)
        body += [f"if not ({inside}):",
                 "    return i, " + _tuple("y", range(m)) + ", " + _tuple("u", us)]
        body += [f"put_u(u{c})" for c in us]
    for s, (z, scale) in enumerate(_RK4_STAGES, start=1):
        if s > 1:
            body += [f"{z}{j} = y{j} + {scale} * k{s - 1}_{j}" for j in range(m)]

        def var(v: Var, z=z) -> str:
            if v.kind == "u":
                controls.add(v.index)
            return f"{z}{v.index}" if v.kind == "y" else f"u{v.index}"
        body += [f"k{s}_{j} = {_emit(node, var)}" for j, node in enumerate(nodes)]
    body += [f"y{j} = y{j} + dt * (k1_{j} + 2.0 * k2_{j} + 2.0 * k3_{j} + k4_{j}) / 6.0"
             for j in range(m)]
    state = _tuple("y", range(m))
    finite = " and ".join(f"_isfinite(y{j})" for j in range(m))
    body += [f"if not ({finite}):", f"    return i, {state}" + ("" if law is None else ", None")]
    body += [f"put(y{j})" for j in range(m)]
    if law is None:
        head = ["def _f(y, u, dt, n, rows):",
                *(f"    u{i} = u[{i}]" for i in sorted(controls))]
    else:
        head = ["def _f(y, lows, highs, dt, n, rows, controls):",
                f"    {_tuple('lo', us)} = lows", f"    {_tuple('hi', us)} = highs",
                "    put_u = controls.append"]
    lines = [*head, f"    {state} = y", "    half_dt = 0.5 * dt", "    put = rows.append",
             "    for i in range(n):", *("        " + line for line in body),
             f"    return n, {state}" + ("" if law is None else ", None")]
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
