"""Controlled dynamical systems: dynamics, costs, regions and first integrals.

A :class:`SystemSpec` bundles a control system ``y' = f(y, u)`` with a running
cost ``k(y, u)``, a compact state region (a box or an annulus), a control box,
optional first integrals (functions conserved along every admissible motion)
and a priori bounds on ``sup ||f||`` and ``sup |k|``; :func:`validate_bounds`
checks the integrals and the bounds on a sample.  The dynamics are a tuple of
expressions in the grammar of :mod:`occlp.exprs`, one per state component,
and the cost is one such expression, so systems are declared as data rather
than loaded as code (:func:`occlp.config.build_system` builds them, the
built-in ones from presets).  Both regions also admit the points within
``tolerances.REGION_TOL`` of them.

Specs are immutable values.  Each parses its expressions once, when it is
built, and compiles each evaluator from those trees on first use, once; every
evaluator is a pure function, safe to call from concurrent workers.
:meth:`SystemSpec.dynamics_at` and :meth:`SystemSpec.cost_at` take states and
controls whose leading shapes broadcast, so a state × control product is
evaluated by broadcasting and row-paired points by the same code.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import exprs, tolerances


class SystemSpecError(ValueError):
    """An invalid system; ``field`` names the part at fault (a ``SystemSpec``
    field: ``dynamics_text``, ``cost_text``, ``first_integrals``, ``region`` or
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


# ---------------------------------------------------------------------------
# regions


def lattice(axes) -> np.ndarray:
    """Row-stacked product of 1-D axes, first axis slowest: shape (prod len, len(axes))."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class StateRegion:
    """Compact state region: an axis-aligned box, or a 2-D annulus about the
    origin (``center``, a class constant, not a field).

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
    center: ClassVar[tuple[float, float]] = (0.0, 0.0)

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
        r = np.hypot(y[..., 0], y[..., 1])
        return np.maximum(self.inner - r, r - self.outer)

    def contains(self, y):
        return self.signed_boundary_distance(y) <= tolerances.REGION_TOL

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "box":
            return np.asarray(self.lower, dtype=float), np.asarray(self.upper, dtype=float)
        return np.full(2, -float(self.outer)), np.full(2, float(self.outer))

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
        if self.kind == "box":
            return lattice(self.axes(resolution))
        # r cos(theta) and r sin(theta), with cos and sin taken once per angle
        radii, angles = self.axes(resolution)
        return np.stack([np.outer(radii, np.cos(angles)).ravel(),
                         np.outer(radii, np.sin(angles)).ravel()], axis=1)

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
            dx, dy = ys[:, 0], ys[:, 1]
            ring = np.searchsorted(radii, np.hypot(dx, dy)) - 1
            # the nearest radius to a query at radius rho is the one nearest to
            # rho cos(dtheta) at the nearest angle, so coarse angles next to fine
            # radii reach further in
            below = 1
            if len(radii) > 1:
                sag = (self.outer + tolerances.REGION_TOL) * (1.0 - np.cos(np.pi / len(angles)))
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

    def limits(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The admission limits ``(lo - REGION_TOL per axis, hi + REGION_TOL per axis)``."""
        return (tuple(lo - tolerances.REGION_TOL for lo in self.lower),
                tuple(hi + tolerances.REGION_TOL for hi in self.upper))

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
    # the gradient, over the state only: a control in a first integral is out of range
    try:
        node = exprs.parse_expr(text, m, 0)
        gradient = tuple(exprs.diff(node, j) for j in range(m))
        if max(map(exprs.depth, gradient)) > exprs.MAX_DEPTH:
            raise exprs.ExpressionError(f"its gradient nests deeper than {exprs.MAX_DEPTH} "
                                        "levels")
        return gradient
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
    ``cost_text`` the cost's expression.  Building a spec parses the dynamics,
    cost and first integrals, so a bad expression fails here, and keeps the
    trees: ``dynamics``, one node per state component; ``cost``; and
    ``integrals``, per first integral its gradient's nodes.  It also decides
    once whether the dynamics are multilinear in the controls,
    ``dynamics_multilinear`` (``exprs.multilinear_in_controls``), which lets
    the LPs seed their xi columns at the control grid's corners
    (``programs._seed_columns``), and whether the cost is,
    ``cost_multilinear``, which lets certificate slacks be minimised there
    (``programs.certificate_slacks``).  Each evaluator, and the Runge-Kutta
    run of each law, is compiled from the trees on first use, once per spec,
    also when pool threads ask for it together; :meth:`with_bounds` shares
    them.  Equality, hashing and repr cover the declared fields only.
    """

    dynamics_text: tuple[str, ...]
    cost_text: str
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
            cost = exprs.parse_expr(self.cost_text, m, p)
        except exprs.ExpressionError as err:
            raise UnknownEvaluatorError(f"cost_text {self.cost_text!r}: {err}",
                                        "cost_text") from err
        self.__dict__.update(dynamics=dynamics, cost=cost, integrals=tuple(
            _parse_integral(text, m) for text in self.first_integrals),
            dynamics_multilinear=exprs.multilinear_in_controls(dynamics, p),
            cost_multilinear=exprs.multilinear_in_controls((cost,), p), _evaluators={})

    def _compiled(self, key, compile_nodes, *args):
        """The evaluator ``key``: ``compile_nodes(*args)`` on first use, kept after."""
        if key not in self._evaluators:
            with _COMPILING:
                if key not in self._evaluators:
                    self._evaluators[key] = compile_nodes(*args)
        return self._evaluators[key]

    def with_bounds(self, bound_f: float, bound_k: float) -> SystemSpec:
        """This spec with the bounds ``bound_f`` and ``bound_k``, sharing its parsed
        expressions and compiled evaluators, which the bounds do not enter."""
        twin = object.__new__(SystemSpec)
        twin.__dict__.update(self.__dict__, bound_f=bound_f, bound_k=bound_k)
        return twin

    def dynamics_at(self, ys, us) -> np.ndarray:
        """f(Y, U) of shape ``(m, *shape)``, from states ``(..., m)`` and
        controls ``(..., p)`` whose leading shapes broadcast to ``shape``
        (``exprs.compile_numpy``): row-paired points, or a state × control
        product as ``Y[:, None, :]`` against ``U[None, :, :]``."""
        return self._compiled("dynamics", exprs.compile_numpy, self.dynamics)(ys, us)

    def cost_at(self, ys, us) -> np.ndarray:
        """k(Y, U) of shape ``shape``, over the same pairs as :meth:`dynamics_at`."""
        return self._compiled("cost", exprs.compile_numpy, (self.cost,))(ys, us)[0]

    def rk4_run(self, law: tuple[exprs.Node, ...] | None = None):
        """Runge-Kutta steps closed by ``law`` (``exprs.compile_rk4_run``),
        ``run(y_tuple, u_tuple, lows, highs, dt, n, rows, controls) -> (done,
        state, escaped)``, compiled once per spec and law; without a law, at the
        held control ``(u1, ..., up)`` read from ``u``.  Each state is bitwise
        the step ``rk4_step`` of ``tests/reference.py`` takes from the one before."""
        if law is None:
            law = tuple(exprs.Var("u", c) for c in range(self.dim_control))
        return self._compiled(("rk4_run", law), exprs.compile_rk4_run, self.dynamics, law)


def rate_along(grad, f_vals) -> np.ndarray:
    """grad . f: ``sum_j grad[j] * f_vals[j]`` over the leading axis, the state
    coordinates, broadcasting the rest; added in coordinate order from +0.0,
    as ``einsum`` adds a row of two coordinates, so a zero rate is +0.0."""
    total = 0.0
    for g, f in zip(grad, f_vals):
        total = total + g * f
    return total


# ---------------------------------------------------------------------------
# the build-time check

BOUND_SAMPLE_STATES, BOUND_SAMPLE_CONTROLS = 25, 9  # validate_bounds' sample and grid


@dataclass(frozen=True)
class BoundReport:
    max_dynamics_norm: float
    max_cost_abs: float
    bound_f_ok: bool
    bound_k_ok: bool
    max_drifts: tuple[float, ...]  # per first integral, max |grad F . f|
    conserved: tuple[bool, ...]  # per first integral, drift within tolerances.DRIFT_TOL


def validate_bounds(spec: SystemSpec) -> BoundReport:
    """Dense-sampling check that bound_f and bound_k dominate f and k, and that
    each first integral's drift grad F . f vanishes, on one evaluation of f over
    the region sample × control grid of BOUND_SAMPLE_STATES × BOUND_SAMPLE_CONTROLS."""
    ys = spec.region.sample(BOUND_SAMPLE_STATES)[:, None, :]
    us = spec.control.grid(BOUND_SAMPLE_CONTROLS)[None, :, :]
    f_vals = spec.dynamics_at(ys, us)
    f_norms = np.linalg.norm(f_vals, axis=0)
    max_drifts, conserved = [], []
    for gradient in spec.integrals:
        grad = exprs.compile_numpy(gradient)(ys, np.empty(0))
        drift = np.abs(rate_along(grad, f_vals))
        max_drifts.append(float(np.max(drift)))
        conserved.append(bool(np.all(drift <= tolerances.DRIFT_TOL
                                     * np.linalg.norm(grad, axis=0) * f_norms)))
    f_norm = float(np.max(f_norms))
    k_abs = float(np.max(np.abs(spec.cost_at(ys, us))))
    return BoundReport(f_norm, k_abs,
                       f_norm <= spec.bound_f + tolerances.BOUND_TOL * max(1.0, abs(spec.bound_f)),
                       k_abs <= spec.bound_k + tolerances.BOUND_TOL * max(1.0, abs(spec.bound_k)),
                       tuple(max_drifts), tuple(conserved))
