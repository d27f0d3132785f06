"""Controlled dynamical systems: dynamics, costs, regions and first integrals.

A :class:`SystemSpec` bundles a control system ``y' = f(y, u)`` with a running
cost ``k(y, u)``, a compact state region (a box or an annulus), a control box,
optional first integrals (functions conserved along every admissible motion)
and a priori bounds on ``sup ||f||`` and ``sup |k|``.  Dynamics and costs are
referenced by identifier: a dynamics id names one of the built-in dynamics
or lists expressions in the grammar of :mod:`occlp.exprs`, and a cost id is
such an expression, so custom systems are declared as data rather than loaded
as code.  Both regions also admit the points within ``REGION_TOL`` of them.

Specs are immutable after construction and every evaluator is a pure function,
safe to call from concurrent workers.  Each expression kind has one compiled
numpy evaluator, cached per id: :func:`dynamics_numpy` and :func:`cost_numpy`
take states and controls whose leading shapes broadcast, so a state × control
product is evaluated by broadcasting and row-paired points by the same code.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import exprs


class SystemSpecError(ValueError):
    """An invalid system; ``field`` names the part at fault (a ``SystemSpec``
    field: ``dynamics_id``, ``cost_id``, ``first_integrals``, ``region`` or
    ``control``) when one is."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class UnknownEvaluatorError(SystemSpecError):
    pass


class DimensionMismatchError(SystemSpecError):
    pass


class RegionError(SystemSpecError):
    pass


# slack of every membership test: in boundary distance, or per control axis
REGION_TOL = 1e-9


# ---------------------------------------------------------------------------
# regions


def lattice(axes) -> np.ndarray:
    """Row-stacked product of 1-D axes, first axis slowest: shape (prod len, len(axes))."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class StateRegion:
    """Compact state region: an axis-aligned box, or a 2-D annulus.

    ``signed_boundary_distance`` is negative strictly inside the region, zero
    on the boundary and positive outside; ``contains`` is the sign test of that
    distance relaxed by ``REGION_TOL``, so membership never flips from
    integration round-off alone.
    """

    kind: str  # "box" | "annulus"
    lower: tuple[float, ...] = ()
    upper: tuple[float, ...] = ()
    inner: float = 0.0
    outer: float = 0.0
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.kind == "box":
            if len(self.lower) != len(self.upper) or not self.lower:
                raise RegionError("box needs matching lower/upper vectors", "region")
            if not all(lo < hi for lo, hi in zip(self.lower, self.upper)):
                raise RegionError("box needs lower < upper componentwise", "region")
        elif self.kind == "annulus":
            if not 0.0 < self.inner <= self.outer:
                raise RegionError("annulus needs 0 < inner <= outer", "region")
        else:
            raise RegionError(f"unknown region kind {self.kind!r}", "region")

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

    def contains(self, y):
        return self.signed_boundary_distance(y) <= REGION_TOL

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

    def stencil(self, resolution, ys) -> np.ndarray:
        """Indices into :meth:`lattice` around the analytic cell of each row of
        ``ys``, shape (n, C), first axis slowest like the lattice.

        A box takes the cell ``floor((y - lo) / h)`` and its neighbours on each
        axis (3^dim candidates).  An annulus takes the radial bracket
        ``searchsorted(radii, rho) - 1`` and the angular sector ``floor(theta /
        dtheta)``, each from one below to two above (angles wrap, radii are
        clipped): 16 candidates, or more radii below when coarse angles sit next
        to fine radii.  For a finite query inside the region, within
        ``REGION_TOL``, the candidates hold every lattice point at least as near
        as any other, with one cell to spare for rounding in the cell index.
        Indices of queries farther out are clipped to the lattice.
        """
        ys = np.asarray(ys, dtype=float)
        if self.kind == "box":
            lo, hi = self.bounding_box()
            sizes = np.asarray(resolution)
            cell = np.clip(np.floor((ys - lo) * sizes / (hi - lo)), -1, sizes).astype(np.int64)
            per_axis = [np.clip(cell[:, j, None] + np.arange(-1, 2), 0, n - 1)
                        for j, n in enumerate(sizes)]
        else:
            radii, angles = self.axes(resolution)
            sizes = (len(radii), len(angles))
            dx, dy = ys[:, 0] - self.center[0], ys[:, 1] - self.center[1]
            ring = np.searchsorted(radii, np.hypot(dx, dy)) - 1
            # the nearest radius to a query at radius rho is the one nearest to
            # rho cos(dtheta) at the nearest angle, so coarse angles next to fine
            # radii reach further in
            below = 1
            if len(radii) > 1:
                sag = (self.outer + REGION_TOL) * (1.0 - np.cos(np.pi / len(angles)))
                below += min(len(radii), int(np.floor(sag / np.min(np.diff(radii)) + 0.5)))
            sector = np.floor(np.arctan2(dy, dx) * (len(angles) / (2.0 * np.pi))).astype(np.int64)
            per_axis = [np.clip(ring[:, None] + np.arange(-below, 3), 0, len(radii) - 1),
                        (sector[:, None] + np.arange(-1, 3)) % len(angles)]
        flat = per_axis[0]
        for idx, n in zip(per_axis[1:], sizes[1:]):
            flat = (flat[:, :, None] * n + idx[:, None, :]).reshape(ys.shape[0], -1)
        return flat

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
    """Control set: an axis-aligned box, admitting ``REGION_TOL`` beyond each face."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper) or not self.lower:
            raise RegionError("control box needs matching lower/upper vectors", "control")
        if not all(lo <= hi for lo, hi in zip(self.lower, self.upper)):
            raise RegionError("control box needs lower <= upper", "control")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def admission(self):
        """Membership test of one control given as ``dim`` plain floats (its length
        is not checked): ``lows <= v <= highs`` per axis of :meth:`limits`; NaN fails."""
        lows, highs = self.limits()
        return lambda u: all(map(operator.le, lows, u)) and all(map(operator.le, u, highs))

    def limits(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The admission limits ``(lo - REGION_TOL per axis, hi + REGION_TOL per axis)``."""
        return (tuple(lo - REGION_TOL for lo in self.lower),
                tuple(hi + REGION_TOL for hi in self.upper))

    def grid(self, resolution: int) -> np.ndarray:
        """Deterministic control grid of shape (K, dim): endpoint-inclusive
        per-axis subdivision, so extreme controls are always representable."""
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
            f"dynamics_id {dyn_id!r} has {len(expressions)} components, state dim {m}",
            "dynamics_id")
    try:
        return tuple(exprs.parse_expr(text, m, p) for text in expressions)
    except exprs.ExpressionError as err:
        raise UnknownEvaluatorError(f"dynamics_id {dyn_id!r}: {err}", "dynamics_id") from err


@lru_cache(maxsize=None)
def _parsed_cost(cost_id: str, m: int, p: int) -> exprs.Node:
    try:
        return exprs.parse_expr(cost_id, m, p)
    except exprs.ExpressionError as err:
        raise UnknownEvaluatorError(f"unknown cost_id {cost_id!r}: {err}", "cost_id") from err


def parses_to(spec: SystemSpec, dynamics_id: str) -> bool:
    """Whether the spec's dynamics parse to those of ``dynamics_id``, a built-in
    id or an expression list: a custom ``u1*y2; -u1 * y1`` is the rotation's."""
    m, p = spec.dim_state, spec.dim_control
    return _parsed_dynamics(spec.dynamics_id, m, p) == _parsed_dynamics(dynamics_id, m, p)


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
            _first_integral_nodes(text, self.dim_state)


# compiled-evaluator caches keyed by (id, dims); all artifacts are pure


@lru_cache(maxsize=None)
def _dynamics_scalar(dyn_id: str, m: int, p: int):
    return exprs.compile_scalar(_parsed_dynamics(dyn_id, m, p))


@lru_cache(maxsize=None)
def _rk4_run(dyn_id: str, m: int, p: int, law: tuple[exprs.Node, ...] | None):
    return exprs.compile_rk4_run(_parsed_dynamics(dyn_id, m, p), law)


@lru_cache(maxsize=None)
def _dynamics_numpy(dyn_id: str, m: int, p: int):
    return exprs.compile_numpy(_parsed_dynamics(dyn_id, m, p))


@lru_cache(maxsize=None)
def _cost_numpy(cost_id: str, m: int, p: int):
    return exprs.compile_numpy((_parsed_cost(cost_id, m, p),))


@lru_cache(maxsize=None)
def _first_integral_nodes(text: str, m: int) -> tuple[exprs.Node, tuple[exprs.Node, ...]]:
    # over the state only: a control in a first integral is out of range
    try:
        node = exprs.parse_expr(text, m, 0)
        return node, tuple(exprs.diff(node, j) for j in range(m))
    except exprs.ExpressionError as err:
        raise UnknownEvaluatorError(f"first integral {text!r}: {err}",
                                    "first_integrals") from err


@lru_cache(maxsize=None)
def _first_integral_numpy(text: str, m: int):
    node, grads = _first_integral_nodes(text, m)
    return exprs.compile_numpy((node, *grads))


def dynamics_fn(spec: SystemSpec):
    """Fast scalar evaluator ``f(y_tuple, u_tuple) -> tuple`` (no containment checks)."""
    return _dynamics_scalar(spec.dynamics_id, spec.dim_state, spec.dim_control)


def rk4_run_fn(spec: SystemSpec, law: tuple[exprs.Node, ...] | None = None):
    """Runge-Kutta steps at one held control, ``run(y_tuple, u_tuple, dt, n, rows)
    -> (done, state)``, or closed by a feedback law over the state, ``run(y_tuple,
    lows, highs, dt, n, rows, controls) -> (done, state, escaped)`` (see
    ``exprs.compile_rk4_run``); each state is bitwise
    ``simulate.rk4_step(dynamics_fn(spec), y, u, dt)`` of the one before."""
    return _rk4_run(spec.dynamics_id, spec.dim_state, spec.dim_control, law)


def dynamics_numpy(spec: SystemSpec):
    """Evaluator ``f(Y, U) -> (m, *shape)`` from states ``(..., m)`` and
    controls ``(..., p)`` whose leading shapes broadcast to ``shape``
    (``exprs.compile_numpy``): row-paired points, or a state × control product
    as ``Y[:, None, :]`` against ``U[None, :, :]``."""
    return _dynamics_numpy(spec.dynamics_id, spec.dim_state, spec.dim_control)


def cost_numpy(spec: SystemSpec):
    """Evaluator ``k(Y, U) -> shape`` over the same pairs as ``dynamics_numpy``."""
    raw = _cost_numpy(spec.cost_id, spec.dim_state, spec.dim_control)
    return lambda ys, us: raw(ys, us)[0]


def rate_along(grad, f_vals) -> np.ndarray:
    """grad . f: ``sum_j grad[j] * f_vals[j]`` over the leading axis, the state
    coordinates, broadcasting the rest; added in coordinate order from +0.0,
    as ``einsum`` adds a row of two coordinates, so a zero rate is +0.0."""
    total = 0.0
    for g, f in zip(grad, f_vals):
        total = total + g * f
    return total


def first_integral_values_and_rates(spec: SystemSpec, ys: np.ndarray, us: np.ndarray):
    """For each first integral F: values F(y) and rates grad F(y) . f(y, u),
    over states and controls that broadcast as in ``dynamics_numpy``."""
    f_vals = dynamics_numpy(spec)(ys, us)
    out = []
    for text in spec.first_integrals:
        value, *grads = _first_integral_numpy(text, spec.dim_state)(ys, np.empty(0))
        out.append((text, value, rate_along(grads, f_vals)))
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
    per = []
    worst = 0.0
    for text, _values, rates in first_integral_values_and_rates(spec, ys[:, None, :],
                                                                us[None, :, :]):
        residual = float(np.max(np.abs(rates)))
        per.append((text, residual))
        worst = max(worst, residual)
    return FirstIntegralReport(worst, worst <= tolerance, ys.shape[0] * us.shape[0],
                               tuple(per))


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
    # (control, point) pairs, control-major, so ties go to the first control,
    # then the first point
    outward = rate_along(normals.T, dynamics_numpy(spec)(points[None, :, :], us[:, None, :]))
    c, i = np.unravel_index(np.argmax(outward), outward.shape)
    worst = float(outward[c, i])
    return InvarianceReport(worst, worst <= tolerance,
                            tuple(points[i].tolist()), tuple(us[c].tolist()))


@dataclass(frozen=True)
class BoundReport:
    max_dynamics_norm: float
    max_cost_abs: float
    bound_f_ok: bool
    bound_k_ok: bool


def validate_bounds(spec: SystemSpec, state_resolution: int = 25,
                    control_resolution: int = 9) -> BoundReport:
    """Dense-sampling check that bound_f and bound_k dominate f and k."""
    ys = spec.region.sample(state_resolution)[:, None, :]
    us = spec.control.grid(control_resolution)[None, :, :]
    f_norm = float(np.max(np.linalg.norm(dynamics_numpy(spec)(ys, us), axis=0)))
    k_abs = float(np.max(np.abs(cost_numpy(spec)(ys, us))))
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
        control=ControlRegion(lower=(-1.0,), upper=(1.0,)),
        first_integrals=("y1^2 + y2^2",), bound_f=outer), bound_k)


def make_frozen(lower=(-1.0, -1.0), upper=(1.0, 1.0), cost_id: str = "y1 + u1^2",
                bound_k: float | None = None) -> SystemSpec:
    """Degenerate system with identically zero dynamics on a box."""
    lower = tuple(float(v) for v in lower)
    upper = tuple(float(v) for v in upper)
    return _with_bound_k(SystemSpec(
        name="frozen", dynamics_id="frozen" if len(lower) == 2 else ";".join(["0"] * len(lower)),
        cost_id=cost_id, region=StateRegion(kind="box", lower=lower, upper=upper),
        control=ControlRegion(lower=(-1.0,), upper=(1.0,)), bound_f=0.0), bound_k)


def make_scalar_drift(cost_id: str = "y1^2", bound_k: float | None = None) -> SystemSpec:
    """Ergodic contrast system y' = -y + u on [-1, 1] with u in [-1, 1]."""
    return _with_bound_k(SystemSpec(
        name="scalar-drift", dynamics_id="scalar-drift", cost_id=cost_id,
        region=StateRegion(kind="box", lower=(-1.0,), upper=(1.0,)),
        control=ControlRegion(lower=(-1.0,), upper=(1.0,)), bound_f=2.0), bound_k)
