"""Controlled dynamical systems: dynamics, costs, regions and first integrals.

A :class:`SystemSpec` bundles a control system ``y' = f(y, u)`` with a running
cost ``k(y, u)``, a compact state region (a box or an annulus), a control box,
optional first integrals (functions conserved along every admissible motion)
and a priori bounds on ``sup ||f||`` and ``sup |k|``.  The dynamics are a
tuple of expressions in the grammar of :mod:`occlp.exprs`, one per state
component, and the cost is one such expression, so systems are declared as
data rather than loaded as code (:func:`occlp.config.build_system` builds
them, the built-in ones from presets).  Both regions also admit the points
within ``REGION_TOL`` of them.

Specs are immutable values.  Each parses its expressions once, when it is
built, and compiles each evaluator from those trees on first use, once; every
evaluator is a pure function, safe to call from concurrent workers.
:meth:`SystemSpec.dynamics_at` and :meth:`SystemSpec.cost_at` take states and
controls whose leading shapes broadcast, so a state × control product is
evaluated by broadcasting and row-paired points by the same code.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass

import numpy as np

from . import exprs


class SystemSpecError(ValueError):
    """An invalid system; ``field`` names the part at fault (a ``SystemSpec``
    field: ``dynamics_text``, ``cost_id``, ``first_integrals``, ``region`` or
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
# parsing


def _parse_dynamics(texts: tuple[str, ...], m: int, p: int) -> tuple[exprs.Node, ...]:
    shown = "[" + ", ".join(texts) + "]"
    if len(texts) != m:
        raise DimensionMismatchError(f"dynamics_text {shown} has {len(texts)} components, "
                                     f"state dim {m}", "dynamics_text")
    try:
        return tuple(exprs.parse_expr(text, m, p) for text in texts)
    except exprs.ExpressionError as err:
        raise UnknownEvaluatorError(f"dynamics_text {shown}: {err}", "dynamics_text") from err


def _parse_integral(text: str, m: int) -> tuple[exprs.Node, ...]:
    # over the state only: a control in a first integral is out of range
    try:
        node = exprs.parse_expr(text, m, 0)
        return (node, *(exprs.diff(node, j) for j in range(m)))
    except exprs.ExpressionError as err:
        raise UnknownEvaluatorError(f"first integral {text!r}: {err}",
                                    "first_integrals") from err


def parses_to(spec: SystemSpec, texts: tuple[str, ...]) -> bool:
    """Whether the spec's dynamics parse to the expressions ``texts``: dynamics
    ``(u1*y2, -u1 * y1)`` parse to ``(u1*y2, -u1*y1)``."""
    return spec.dynamics == _parse_dynamics(texts, spec.dim_state, spec.dim_control)


# ---------------------------------------------------------------------------
# the system description

# held while an evaluator is compiled, so that each is compiled once per spec
_COMPILING = threading.Lock()


@dataclass(frozen=True)
class SystemSpec:
    """Immutable description of one controlled system instance.

    ``dynamics_text`` holds one expression per state component and
    ``cost_id`` the cost's expression.  Building a spec parses the dynamics,
    cost and first integrals, so a bad expression fails here, and keeps the
    trees: ``dynamics``, one node per state component; ``cost``; and
    ``integrals``, per first integral its node and its gradient's nodes.
    It also decides once whether the dynamics are
    multilinear in the controls, ``dynamics_multilinear``
    (``exprs.multilinear_in_controls``), which lets the LPs seed their xi
    columns at the control grid's corners (``programs._seed_columns``).  Each
    evaluator is compiled from the trees on first use, once per spec, also
    when pool threads ask for it together.  Equality, hashing and repr cover
    the declared fields only.
    """

    dynamics_text: tuple[str, ...]
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
        m, p = self.dim_state, self.dim_control
        dynamics = _parse_dynamics(self.dynamics_text, m, p)
        try:
            cost = exprs.parse_expr(self.cost_id, m, p)
        except exprs.ExpressionError as err:
            raise UnknownEvaluatorError(f"unknown cost_id {self.cost_id!r}: {err}",
                                        "cost_id") from err
        self.__dict__.update(dynamics=dynamics, cost=cost, integrals=tuple(
            _parse_integral(text, m) for text in self.first_integrals),
            dynamics_multilinear=exprs.multilinear_in_controls(dynamics, p))

    def _compiled(self, name: str, compile_nodes, nodes):
        """The evaluator ``name``: ``compile_nodes(nodes)`` on first use, kept after."""
        if name not in self.__dict__:
            with _COMPILING:
                if name not in self.__dict__:
                    self.__dict__[name] = compile_nodes(nodes)
        return self.__dict__[name]

    def dynamics_at(self, ys, us) -> np.ndarray:
        """f(Y, U) of shape ``(m, *shape)``, from states ``(..., m)`` and
        controls ``(..., p)`` whose leading shapes broadcast to ``shape``
        (``exprs.compile_numpy``): row-paired points, or a state × control
        product as ``Y[:, None, :]`` against ``U[None, :, :]``."""
        return self._compiled("_dynamics_numpy", exprs.compile_numpy, self.dynamics)(ys, us)

    def cost_at(self, ys, us) -> np.ndarray:
        """k(Y, U) of shape ``shape``, over the same pairs as :meth:`dynamics_at`."""
        return self._compiled("_cost_numpy", exprs.compile_numpy, (self.cost,))(ys, us)[0]

    def rk4_run(self, law: tuple[exprs.Node, ...] | None = None):
        """Runge-Kutta steps at one held control, ``run(y_tuple, u_tuple, dt, n,
        rows) -> (done, state)``, or closed by a feedback law over the state,
        ``run(y_tuple, lows, highs, dt, n, rows, controls) -> (done, state,
        escaped)`` (see ``exprs.compile_rk4_run``); each state is bitwise
        ``simulate.rk4_step(dynamics_fn(spec), y, u, dt)`` of the one before.
        The held-control run is compiled once; a law run on every call."""
        if law is not None:
            return exprs.compile_rk4_run(self.dynamics, law)
        return self._compiled("_rk4_held", exprs.compile_rk4_run, self.dynamics)

    def first_integral_values_and_rates(self, ys, us):
        """For each first integral F: its text, values F(y) and rates
        grad F(y) . f(y, u), over states and controls that broadcast as in
        :meth:`dynamics_at`."""
        if not self.integrals:
            return []
        rows = self._compiled("_integrals_numpy", exprs.compile_numpy,
                              sum(self.integrals, ()))(ys, np.empty(0))
        f_vals = self.dynamics_at(ys, us)
        return [(text, per[0], rate_along(per[1:], f_vals)) for text, per
                in zip(self.first_integrals, np.split(rows, len(self.integrals)))]


def dynamics_fn(spec: SystemSpec):
    """Scalar evaluator ``f(y_tuple, u_tuple) -> tuple`` (no containment checks),
    compiled on each call: the reference that the generated runs match bitwise."""
    return exprs.compile_scalar(spec.dynamics)


def rate_along(grad, f_vals) -> np.ndarray:
    """grad . f: ``sum_j grad[j] * f_vals[j]`` over the leading axis, the state
    coordinates, broadcasting the rest; added in coordinate order from +0.0,
    as ``einsum`` adds a row of two coordinates, so a zero rate is +0.0."""
    total = 0.0
    for g, f in zip(grad, f_vals):
        total = total + g * f
    return total


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
    for text, _values, rates in spec.first_integral_values_and_rates(ys[:, None, :],
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
    outward = rate_along(normals.T, spec.dynamics_at(points[None, :, :], us[:, None, :]))
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
    f_norm = float(np.max(np.linalg.norm(spec.dynamics_at(ys, us), axis=0)))
    k_abs = float(np.max(np.abs(spec.cost_at(ys, us))))
    return BoundReport(f_norm, k_abs, f_norm <= spec.bound_f + 1e-12,
                       k_abs <= spec.bound_k + 1e-12)
