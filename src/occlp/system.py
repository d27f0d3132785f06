"""Controlled dynamical systems: dynamics, costs, regions and first integrals.

A :class:`SystemSpec` bundles a control system ``y' = f(y, u)`` with a running
cost ``k(y, u)``, a compact state region, a compact control region, optional
first integrals (functions conserved along every admissible motion) and a
priori bounds on ``sup ||f||`` and ``sup |k|``.  Dynamics and costs are
referenced by identifier: a dynamics id names one of the built-in dynamics
or lists expressions in the grammar of :mod:`occlp.exprs`, and a cost id is
such an expression, so custom systems are declared as data rather than loaded
as code.

Specs are immutable after construction and every evaluator is a pure function,
safe to call from concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import exprs


class SystemSpecError(ValueError):
    pass


class UnknownEvaluatorError(SystemSpecError):
    pass


class DimensionMismatchError(SystemSpecError):
    pass


class RegionError(SystemSpecError):
    pass


# ---------------------------------------------------------------------------
# regions


def lattice(axes) -> np.ndarray:
    """Row-stacked product of 1-D axes, first axis slowest: shape (prod len, len(axes))."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def product_rows(ys: np.ndarray, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (state, control) pair as two row-aligned arrays, state-major."""
    return np.repeat(ys, us.shape[0], axis=0), np.tile(us, (ys.shape[0], 1))


@dataclass(frozen=True)
class StateRegion:
    """Compact state region: an axis-aligned box, or a 2-D annulus.

    ``signed_boundary_distance`` is negative strictly inside the region, zero
    on the boundary and positive outside; ``contains`` is the tolerance-relaxed
    sign test of that distance, so membership never flips from integration
    round-off alone.
    """

    kind: str  # "box" | "annulus"
    lower: tuple[float, ...] = ()
    upper: tuple[float, ...] = ()
    inner: float = 0.0
    outer: float = 0.0
    center: tuple[float, float] = (0.0, 0.0)
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.kind == "box":
            if len(self.lower) != len(self.upper) or not self.lower:
                raise RegionError("box needs matching lower/upper vectors")
            if not all(lo < hi for lo, hi in zip(self.lower, self.upper)):
                raise RegionError("box needs lower < upper componentwise")
        elif self.kind == "annulus":
            if not 0.0 < self.inner <= self.outer:
                raise RegionError("annulus needs 0 < inner <= outer")
        else:
            raise RegionError(f"unknown region kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return len(self.lower) if self.kind == "box" else 2

    def signed_boundary_distance(self, y):
        """Distance of one point ``(dim,)``, or of each row of ``(n, dim)``."""
        y = np.asarray(y, dtype=float)
        if y.ndim not in (1, 2) or y.shape[-1] != self.dim:
            raise DimensionMismatchError(f"state has shape {y.shape}, region dim {self.dim}")
        if self.kind == "box":
            lo, hi = self.bounding_box()
            return np.max(np.maximum(lo - y, y - hi), axis=-1)
        r = np.hypot(y[..., 0] - self.center[0], y[..., 1] - self.center[1])
        return np.maximum(self.inner - r, r - self.outer)

    def contains(self, y, tol: float | None = None):
        tol = self.tolerance if tol is None else tol
        return self.signed_boundary_distance(y) <= tol

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "box":
            return np.asarray(self.lower, dtype=float), np.asarray(self.upper, dtype=float)
        c = np.asarray(self.center, dtype=float)
        return c - self.outer, c + self.outer

    def axes(self, resolution) -> list[np.ndarray]:
        """The 1-D axes of :meth:`lattice`: a box's cell centres, one count per
        axis; an annulus's endpoint-inclusive radii (one radius for a circle)
        and ``n_theta`` angles from 0, for ``resolution = (n_r, n_theta)``."""
        if self.kind == "box":
            lo, hi = self.bounding_box()
            return [lo[j] + (np.arange(n) + 0.5) * (hi[j] - lo[j]) / n
                    for j, n in enumerate(resolution)]
        n_r, n_theta = resolution
        radii = (np.linspace(self.inner, self.outer, n_r)
                 if self.outer > self.inner else np.array([self.inner]))
        return [radii, 2.0 * np.pi * np.arange(n_theta) / n_theta]

    def lattice(self, resolution) -> np.ndarray:
        """Points of the region's product lattice, shape (K, dim), first axis slowest."""
        points = lattice(self.axes(resolution))
        if self.kind == "box":
            return points
        r, theta = points[:, 0], points[:, 1]
        return np.stack([self.center[0] + r * np.cos(theta),
                         self.center[1] + r * np.sin(theta)], axis=1)

    def sample(self, resolution: int) -> np.ndarray:
        """Deterministic quasi-uniform sample of the region, shape (K, dim)."""
        if self.kind == "box":
            return self.lattice([resolution] * self.dim)
        return self.lattice((resolution, 4 * resolution))

    def boundary_sample(self, resolution: int) -> tuple[np.ndarray, np.ndarray]:
        """Boundary points and unit outward normals, each of shape (K, dim)."""
        if self.kind == "annulus":
            angles = 2.0 * np.pi * np.arange(resolution) / resolution
            ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            c = np.asarray(self.center)
            points = [c + self.outer * ring, c + self.inner * ring]
            normals = [ring, -ring]
            return np.concatenate(points), np.concatenate(normals)
        lo, hi = self.bounding_box()
        axes = self.axes([resolution] * self.dim)
        points, normals = [], []
        for j in range(self.dim):
            for value, sign in ((hi[j], 1.0), (lo[j], -1.0)):
                face = lattice(axes[:j] + [np.array([value])] + axes[j + 1:])
                normal = np.zeros_like(face)
                normal[:, j] = sign
                points.append(face)
                normals.append(normal)
        return np.concatenate(points), np.concatenate(normals)


@dataclass(frozen=True)
class ControlRegion:
    """Control set: an axis-aligned box or an explicit finite set of points."""

    kind: str  # "box" | "finite"
    lower: tuple[float, ...] = ()
    upper: tuple[float, ...] = ()
    points: tuple[tuple[float, ...], ...] = ()
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.kind == "box":
            if len(self.lower) != len(self.upper) or not self.lower:
                raise RegionError("control box needs matching lower/upper vectors")
            if not all(lo <= hi for lo, hi in zip(self.lower, self.upper)):
                raise RegionError("control box needs lower <= upper")
        elif self.kind == "finite":
            if not self.points:
                raise RegionError("finite control set is empty")
        else:
            raise RegionError(f"unknown control kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return len(self.lower) if self.kind == "box" else len(self.points[0])

    def contains(self, u, tol: float | None = None) -> bool:
        tol = self.tolerance if tol is None else tol
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise DimensionMismatchError(f"control has shape {u.shape}, expected ({self.dim},)")
        if self.kind == "box":
            lo = np.asarray(self.lower)
            hi = np.asarray(self.upper)
            return bool(np.all(u >= lo - tol) and np.all(u <= hi + tol))
        pts = np.asarray(self.points)
        return bool(np.min(np.linalg.norm(pts - u, axis=1)) <= tol)

    def grid(self, resolution: int) -> np.ndarray:
        """Deterministic control grid of shape (K, dim).

        Box controls use endpoint-inclusive per-axis subdivision (so extreme
        controls are always representable); finite sets return their points.
        """
        if self.kind == "finite":
            return np.asarray(self.points, dtype=float)
        if resolution < 2:
            raise RegionError("control resolution must be >= 2 for box controls")
        return lattice([np.linspace(lo, hi, resolution)
                        for lo, hi in zip(self.lower, self.upper)])


# ---------------------------------------------------------------------------
# built-in dynamics ids

_BUILTIN_DYNAMICS = MappingProxyType({
    "rotation": ("u1*y2", "-u1*y1"),
    "frozen": ("0", "0"),
    "scalar-drift": ("-y1 + u1",),
})


@lru_cache(maxsize=None)
def _parsed_dynamics(dyn_id: str, m: int, p: int) -> tuple[exprs.Node, ...]:
    # any other id is a semicolon-separated expression list; garbage ids
    # surface as UnknownEvaluatorError when the expressions fail to parse
    expressions = _BUILTIN_DYNAMICS.get(dyn_id) or tuple(
        part.strip() for part in dyn_id.split(";"))
    if len(expressions) != m:
        raise DimensionMismatchError(
            f"dynamics_id {dyn_id!r} has {len(expressions)} components, state dim {m}")
    try:
        return tuple(exprs.parse_expr(text, m, p) for text in expressions)
    except exprs.ExpressionError as err:
        raise UnknownEvaluatorError(f"dynamics_id {dyn_id!r}: {err}") from err


@lru_cache(maxsize=None)
def _parsed_cost(cost_id: str, m: int, p: int) -> exprs.Node:
    try:
        return exprs.parse_expr(cost_id, m, p)
    except exprs.ExpressionError as err:
        raise UnknownEvaluatorError(f"unknown cost_id {cost_id!r}: {err}") from err


# ---------------------------------------------------------------------------
# the system description


@dataclass(frozen=True)
class SystemSpec:
    """Immutable description of one controlled system instance."""

    name: str
    dynamics_id: str
    cost_id: str
    region: StateRegion
    control: ControlRegion
    first_integrals: tuple[str, ...] = ()
    bound_f: float = 0.0
    bound_k: float = 0.0

    @property
    def dim_state(self) -> int:
        return self.region.dim

    @property
    def dim_control(self) -> int:
        return self.control.dim

    def __post_init__(self):
        # fail fast on unresolvable identifiers or dimension mismatches
        _parsed_dynamics(self.dynamics_id, self.dim_state, self.dim_control)
        _parsed_cost(self.cost_id, self.dim_state, self.dim_control)
        for text in self.first_integrals:
            node = exprs.parse_expr(text, self.dim_state, self.dim_control)
            if _uses_control(node):
                raise SystemSpecError(f"first integral {text!r} must not depend on controls")


def _uses_control(node: exprs.Node) -> bool:
    if isinstance(node, exprs.Var):
        return node.kind == "u"
    if isinstance(node, exprs.Unary):
        return _uses_control(node.arg)
    if isinstance(node, exprs.Binary):
        return _uses_control(node.left) or _uses_control(node.right)
    if isinstance(node, exprs.Power):
        return _uses_control(node.base)
    if isinstance(node, exprs.Call):
        return _uses_control(node.arg)
    return False


# compiled-evaluator caches keyed by (id, dims); all artifacts are pure


@lru_cache(maxsize=None)
def _dynamics_scalar(dyn_id: str, m: int, p: int):
    return exprs.compile_scalar(_parsed_dynamics(dyn_id, m, p))


@lru_cache(maxsize=None)
def _dynamics_batch(dyn_id: str, m: int, p: int):
    return exprs.compile_batch(_parsed_dynamics(dyn_id, m, p))


@lru_cache(maxsize=None)
def _cost_scalar(cost_id: str, m: int, p: int):
    return exprs.compile_scalar((_parsed_cost(cost_id, m, p),))


@lru_cache(maxsize=None)
def _cost_batch(cost_id: str, m: int, p: int):
    return exprs.compile_batch((_parsed_cost(cost_id, m, p),))


@lru_cache(maxsize=None)
def _first_integral_nodes(text: str, m: int) -> tuple[exprs.Node, tuple[exprs.Node, ...]]:
    node = exprs.parse_expr(text, m, 0)
    grads = tuple(exprs.diff(node, j) for j in range(m))
    return node, grads


def dynamics_fn(spec: SystemSpec):
    """Fast scalar evaluator ``f(y_tuple, u_tuple) -> tuple`` (no containment checks)."""
    return _dynamics_scalar(spec.dynamics_id, spec.dim_state, spec.dim_control)


def dynamics_batch(spec: SystemSpec):
    """Vectorised evaluator ``f(Y, U) -> (n, m)`` over row-stacked points."""
    return _dynamics_batch(spec.dynamics_id, spec.dim_state, spec.dim_control)


def cost_fn(spec: SystemSpec):
    scalar = _cost_scalar(spec.cost_id, spec.dim_state, spec.dim_control)
    return lambda y, u: scalar(y, u)[0]

def cost_batch(spec: SystemSpec):
    raw = _cost_batch(spec.cost_id, spec.dim_state, spec.dim_control)
    return lambda ys, us: raw(ys, us)[:, 0]


_EVAL_GUARD_TOL = 1e-6  # loose containment guard for the public evaluators


def _check_point(spec: SystemSpec, y, u) -> tuple[tuple, tuple]:
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    if y.shape != (spec.dim_state,):
        raise DimensionMismatchError(f"state shape {y.shape} != ({spec.dim_state},)")
    if u.shape != (spec.dim_control,):
        raise DimensionMismatchError(f"control shape {u.shape} != ({spec.dim_control},)")
    guard = max(spec.region.tolerance, _EVAL_GUARD_TOL)
    if not spec.region.contains(y, tol=guard):
        raise RegionError(f"state {y.tolist()} outside region {spec.region.kind}")
    if not spec.control.contains(u, tol=max(spec.control.tolerance, _EVAL_GUARD_TOL)):
        raise RegionError(f"control {u.tolist()} outside control region")
    return tuple(y.tolist()), tuple(u.tolist())


def eval_dynamics(spec: SystemSpec, y, u) -> np.ndarray:
    """Evaluate ``f(y, u)`` with containment and dimension checks."""
    yt, ut = _check_point(spec, y, u)
    return np.array(dynamics_fn(spec)(yt, ut), dtype=float)


def eval_cost(spec: SystemSpec, y, u) -> float:
    """Evaluate the running cost ``k(y, u)``."""
    yt, ut = _check_point(spec, y, u)
    return float(cost_fn(spec)(yt, ut))


def first_integral_values_and_rates(spec: SystemSpec, ys: np.ndarray, us: np.ndarray):
    """For each first integral F: values F(y) and rates grad F(y) . f(y, u)."""
    f_vals = dynamics_batch(spec)(ys, us)
    out = []
    for text in spec.first_integrals:
        node, grads = _first_integral_nodes(text, spec.dim_state)
        value_fn = exprs.compile_batch((node,))
        grad_fn = exprs.compile_batch(grads)
        values = value_fn(ys, np.zeros((ys.shape[0], 0)))[:, 0]
        grad_vals = grad_fn(ys, np.zeros((ys.shape[0], 0)))
        rates = np.einsum("ij,ij->i", grad_vals, f_vals)
        out.append((text, values, rates))
    return out


# ---------------------------------------------------------------------------
# report-only checks


@dataclass(frozen=True)
class FirstIntegralReport:
    max_residual: float
    passed: bool
    sample_count: int
    per_integral: tuple[tuple[str, float], ...]


def check_first_integrals(spec: SystemSpec, sample_count: int = 20,
                          tolerance: float = 1e-10) -> FirstIntegralReport:
    """Max |grad F . f| over a quasi-uniform sample of the state x control set."""
    if not spec.first_integrals:
        raise SystemSpecError("system declares no first integrals")
    ys = spec.region.sample(sample_count)
    us = spec.control.grid(min(sample_count, 9))
    ys_full, us_full = product_rows(ys, us)
    per = []
    worst = 0.0
    for text, _values, rates in first_integral_values_and_rates(spec, ys_full, us_full):
        residual = float(np.max(np.abs(rates)))
        per.append((text, residual))
        worst = max(worst, residual)
    return FirstIntegralReport(worst, worst <= tolerance, ys_full.shape[0], tuple(per))


@dataclass(frozen=True)
class InvarianceReport:
    max_outward_component: float
    passed: bool
    worst_point: tuple[float, ...]
    worst_control: tuple[float, ...]


def check_forward_invariance(spec: SystemSpec, boundary_sample_count: int = 64,
                             control_resolution: int = 9,
                             tolerance: float = 1e-8) -> InvarianceReport:
    """Max outward-normal component of f over sampled boundary points and controls."""
    points, normals = spec.region.boundary_sample(boundary_sample_count)
    us = spec.control.grid(control_resolution)
    # control-major, so ties go to the first control, then the first point
    us_full, ys_full = product_rows(us, points)
    outward = np.einsum("ij,ij->i", dynamics_batch(spec)(ys_full, us_full),
                        product_rows(us, normals)[1])
    i = int(np.argmax(outward))
    worst = float(outward[i])
    return InvarianceReport(worst, worst <= tolerance,
                            tuple(ys_full[i].tolist()), tuple(us_full[i].tolist()))


@dataclass(frozen=True)
class BoundReport:
    max_dynamics_norm: float
    max_cost_abs: float
    bound_f_ok: bool
    bound_k_ok: bool


def validate_bounds(spec: SystemSpec, state_resolution: int = 25,
                    control_resolution: int = 9) -> BoundReport:
    """Dense-sampling check that bound_f and bound_k dominate f and k."""
    ys = spec.region.sample(state_resolution)
    us = spec.control.grid(control_resolution)
    ys_full, us_full = product_rows(ys, us)
    f_norm = float(np.max(np.linalg.norm(dynamics_batch(spec)(ys_full, us_full), axis=1)))
    k_abs = float(np.max(np.abs(cost_batch(spec)(ys_full, us_full))))
    return BoundReport(f_norm, k_abs, f_norm <= spec.bound_f + 1e-12,
                       k_abs <= spec.bound_k + 1e-12)


# ---------------------------------------------------------------------------
# built-in systems


def _with_bound_k(spec: SystemSpec, bound_k: float | None) -> SystemSpec:
    """The spec with bound_k set; by default the sampled max |k| of validate_bounds."""
    if bound_k is None:
        bound_k = validate_bounds(spec).max_cost_abs
    return replace(spec, bound_k=bound_k)


def make_rotation(inner: float = 0.5, outer: float = 1.5, cost_id: str = "y1",
                  bound_k: float | None = None) -> SystemSpec:
    """Planar rotation at angular speed |u| <= 1 on an annulus.

    Every circle about the origin is invariant (the squared radius is a first
    integral), so long-run values genuinely depend on the starting circle.
    """
    return _with_bound_k(SystemSpec(
        name="rotation", dynamics_id="rotation", cost_id=cost_id,
        region=StateRegion(kind="annulus", inner=inner, outer=outer),
        control=ControlRegion(kind="box", lower=(-1.0,), upper=(1.0,)),
        first_integrals=("y1^2 + y2^2",), bound_f=outer), bound_k)


def make_frozen(lower=(-1.0, -1.0), upper=(1.0, 1.0), cost_id: str = "y1 + u1^2",
                bound_k: float | None = None) -> SystemSpec:
    """Degenerate system with identically zero dynamics on a box."""
    lower = tuple(float(v) for v in lower)
    upper = tuple(float(v) for v in upper)
    return _with_bound_k(SystemSpec(
        name="frozen", dynamics_id="frozen" if len(lower) == 2 else ";".join(["0"] * len(lower)),
        cost_id=cost_id, region=StateRegion(kind="box", lower=lower, upper=upper),
        control=ControlRegion(kind="box", lower=(-1.0,), upper=(1.0,)), bound_f=0.0), bound_k)


def make_scalar_drift(cost_id: str = "y1^2", bound_k: float | None = None) -> SystemSpec:
    """Ergodic contrast system y' = -y + u on [-1, 1] with u in [-1, 1]."""
    return _with_bound_k(SystemSpec(
        name="scalar-drift", dynamics_id="scalar-drift", cost_id=cost_id,
        region=StateRegion(kind="box", lower=(-1.0,), upper=(1.0,)),
        control=ControlRegion(kind="box", lower=(-1.0,), upper=(1.0,)), bound_f=2.0), bound_k)
