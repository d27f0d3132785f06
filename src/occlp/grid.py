"""Discretisation of the state-control set into weighted atoms, plus assembly.

Atoms are the product of a deterministic state grid and a deterministic
control grid, ordered state-major.  Box state grids use cell centers so that
every atom is strictly feasible.  Annulus state grids are polar products: the
radial subdivision is endpoint-inclusive, so the invariant circles through the
inner radius, the outer radius, and every subdivision radius are exactly unions
of atoms -- measures concentrating on an invariant circle are then exactly
representable, which the initial-condition-coupled programs rely on.

The assembled matrices are shared by every program variant:

* flow matrix  B[b, a] = grad phi_b(y_a) . f(y_a, u_a)
* initial matrix C[b, a] = phi_b(y0) - phi_b(y_a)
* cost vector  c[a] = k(y_a, u_a)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, grad_matrix, phi_matrix
from .system import RegionError, SystemSpec, cost_batch, dynamics_batch


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    """Product grid over the state region and the control region."""

    spec: SystemSpec
    state_points: np.ndarray  # (S, m)
    control_points: np.ndarray  # (K, p)
    provenance: dict = field(default_factory=dict)

    @property
    def atom_count(self) -> int:
        return self.state_points.shape[0] * self.control_points.shape[0]

    @property
    def atom_states(self) -> np.ndarray:
        return np.repeat(self.state_points, self.control_points.shape[0], axis=0)

    @property
    def atom_controls(self) -> np.ndarray:
        return np.tile(self.control_points, (self.state_points.shape[0], 1))

    def atom(self, a: int) -> tuple[np.ndarray, np.ndarray]:
        k = self.control_points.shape[0]
        return self.state_points[a // k], self.control_points[a % k]

    def atom_index(self, state_index: int, control_index: int) -> int:
        return state_index * self.control_points.shape[0] + control_index

    def max_state_cell_diameter(self) -> float:
        """Upper bound on the distance from any region point to its nearest atom state."""
        pts = self.state_points
        if pts.shape[0] == 1:
            lo, hi = self.spec.region.bounding_box()
            return float(np.linalg.norm(hi - lo))
        prov = self.provenance
        if prov.get("state_kind") == "annulus":
            dr = prov["radial_spacing"]
            dth = 2.0 * np.pi / prov["angle_count"]
            rmax = prov["outer"]
            return float(np.hypot(dr / 2.0, rmax * dth / 2.0) * 2.0)
        spacing = np.asarray(prov["state_spacing"])
        return float(np.linalg.norm(spacing))


@dataclass
class DiscreteMeasure:
    """Nonnegative weights over the atoms of one grid."""

    grid: Grid
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.grid.atom_count,):
            raise GridError(f"weights shape {self.weights.shape} != ({self.grid.atom_count},)")
        if np.min(self.weights) < -1e-12:
            raise GridError(f"negative weight {np.min(self.weights)}")
        self.weights = np.maximum(self.weights, 0.0)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def is_probability(self, tol: float = 1e-9) -> bool:
        return abs(self.total_mass - 1.0) <= tol


def build_grid(spec: SystemSpec, state_resolution, control_resolution: int) -> Grid:
    """Discretise the state and control regions.

    ``state_resolution`` is an int applied per axis, or a per-axis sequence;
    for an annulus the two entries are (radial count, angle count).
    """
    region = spec.region
    if isinstance(state_resolution, int):
        res = [state_resolution] * (2 if region.kind == "annulus" else region.dim)
    else:
        res = [int(r) for r in state_resolution]

    if region.kind == "box":
        if len(res) != region.dim:
            raise GridError(f"expected {region.dim} state resolutions, got {len(res)}")
        if min(res) < 2:
            raise GridError("state resolution must be >= 2 per axis")
        lo, hi = region.bounding_box()
        provenance = {"state_kind": "box", "state_resolution": tuple(res),
                      "state_spacing": tuple(((hi - lo) / np.asarray(res)).tolist())}
    else:
        if len(res) != 2:
            raise GridError("annulus grids take (radial count, angle count)")
        n_r, n_theta = res
        degenerate = region.inner == region.outer
        if (n_r < 2 and not degenerate) or n_r < 1 or n_theta < 2:
            raise GridError("annulus resolutions must be >= 2 (radial >= 1 only for a circle)")
        radii = region.axes(res)[0]
        spacing = 0.0 if degenerate else float(radii[1] - radii[0])
        provenance = {"state_kind": "annulus", "radial_count": n_r,
                      "angle_count": n_theta, "radial_spacing": spacing,
                      "radii": tuple(radii.tolist()), "outer": region.outer}

    state_points = region.lattice(res)
    control_points = spec.control.grid(control_resolution)
    provenance["control_resolution"] = control_resolution

    outside = ~region.contains(state_points)
    if outside.any():
        raise GridError(f"internal: atom state {state_points[outside][0]} escaped the region")
    return Grid(spec=spec, state_points=state_points,
                control_points=control_points, provenance=provenance)


def assemble_flow_matrix(grid: Grid, basis: BasisSpec) -> np.ndarray:
    """B[b, a] = grad phi_b(y_a) . f(y_a, u_a); B g are the flow residuals of g."""
    ys, us = grid.atom_states, grid.atom_controls
    f_vals = dynamics_batch(grid.spec)(ys, us)  # (N, m)
    grads = grad_matrix(basis, ys)  # (count, N, m)
    return np.einsum("bnm,nm->bn", grads, f_vals)


def assemble_initial_matrix(grid: Grid, basis: BasisSpec, y0) -> np.ndarray:
    """C[b, a] = phi_b(y0) - phi_b(y_a); couples a measure to the start point y0."""
    y0 = np.asarray(y0, dtype=float)
    if not grid.spec.region.contains(y0):
        raise RegionError(f"y0 {y0.tolist()} outside the state region")
    phi_at_atoms = phi_matrix(basis, grid.atom_states)  # (count, N)
    phi_at_y0 = phi_matrix(basis, y0[None, :])[:, 0]  # (count,)
    return phi_at_y0[:, None] - phi_at_atoms


def assemble_cost_vector(grid: Grid, spec: SystemSpec) -> np.ndarray:
    """c[a] = k(y_a, u_a)."""
    return cost_batch(spec)(grid.atom_states, grid.atom_controls)


def integrate_measure(measure: DiscreteMeasure, q_values: np.ndarray) -> float:
    """Integral of the atomwise values against the measure (plain dot product)."""
    q = np.asarray(q_values, dtype=float)
    if q.shape != measure.weights.shape:
        raise GridError(f"length mismatch: {q.shape} vs {measure.weights.shape}")
    return float(measure.weights @ q)


def nearest_index(points: np.ndarray, queries, chunk: int = 16384) -> np.ndarray:
    """Row of ``points`` Euclidean-nearest to each query row; ties go to the lowest row."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    out = np.empty(queries.shape[0], dtype=np.int64)
    for start in range(0, queries.shape[0], chunk):
        block = queries[start:start + chunk]
        d2 = ((block[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        out[start:start + chunk] = np.argmin(d2, axis=1)
    return out


def nearest_atom_index(grid: Grid, ys: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Nearest atom for joint points; separable because atoms form a product set."""
    si = nearest_index(grid.state_points, ys)
    ci = nearest_index(grid.control_points, us)
    return si * grid.control_points.shape[0] + ci
