"""Plain forms of what the library computes in bulk, for the tests to compare
its fast paths with: one Runge-Kutta step on float tuples, the scalar
dynamics, the atoms of a grid row by row, and a region's boundary."""

import numpy as np

from occlp import exprs
from occlp.system import StateRegion, SystemSpec, lattice


def rk4_step(f, y: tuple, u: tuple, dt: float) -> tuple:
    """One classical Runge-Kutta step on plain float tuples: every generated
    run (``SystemSpec.rk4_run``) takes its steps bitwise as this does."""
    k1 = f(y, u)
    k2 = f(tuple(yi + 0.5 * dt * ki for yi, ki in zip(y, k1)), u)
    k3 = f(tuple(yi + 0.5 * dt * ki for yi, ki in zip(y, k2)), u)
    k4 = f(tuple(yi + dt * ki for yi, ki in zip(y, k3)), u)
    return tuple(yi + dt * (a + 2.0 * b + 2.0 * c + d) / 6.0
                 for yi, a, b, c, d in zip(y, k1, k2, k3, k4))


def dynamics_fn(spec: SystemSpec):
    """Scalar evaluator ``f(y_tuple, u_tuple) -> tuple`` (no containment checks)."""
    return exprs.compile_scalar(spec.dynamics)


def atom_states(grid) -> np.ndarray:
    """The state of every atom, row by row, atoms state-major."""
    return np.repeat(grid.state_points, grid.control_points.shape[0], axis=0)


def atom_controls(grid) -> np.ndarray:
    """The control of every atom, row by row, as :func:`atom_states`."""
    return np.tile(grid.control_points, (grid.state_points.shape[0], 1))


def atom(grid, a: int) -> tuple[np.ndarray, np.ndarray]:
    """The state and control of atom ``a``."""
    k = grid.control_points.shape[0]
    return grid.state_points[a // k], grid.control_points[a % k]


def boundary_sample(region: StateRegion, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Boundary points and unit outward normals, each of shape (K, dim): on an
    annulus ``resolution`` angles on each circle, on a box each face's cell
    centres at ``resolution`` per axis."""
    if region.kind == "annulus":
        angles = 2.0 * np.pi * np.arange(resolution) / resolution
        ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return (np.concatenate([region.outer * ring, region.inner * ring]),
                np.concatenate([ring, -ring]))
    lo, hi = region.bounding_box()
    axes = region.axes([resolution] * region.dim)
    points, normals = [], []
    for j in range(region.dim):
        for value, sign in ((hi[j], 1.0), (lo[j], -1.0)):
            face = lattice(axes[:j] + [np.array([value])] + axes[j + 1:])
            normal = np.zeros_like(face)
            normal[:, j] = sign
            points.append(face)
            normals.append(normal)
    return np.concatenate(points), np.concatenate(normals)
