"""Independent reference values, computed without any of the LP machinery.

For the planar rotation system every circle about the center is invariant, so
the long-run problem splits into one problem per circle.  On a fixed circle
the oracle scans two tractable families of admissible long-run measures:

(i)  point masses at (state, u = 0) -- admissible because the dynamics vanish
     at zero control, so the system can park anywhere on its circle; and
(ii) uniform-angle measures combined with any fixed control -- admissible
     because constant-speed rotation equidistributes over the circle.

For the costs used in acceptance, k(y, u) = (affine in y) + (convex in u
minimised at u = 0), the scan over family (i) already attains the global
minimum over all admissible long-run measures on the circle: for any such
measure, integral k >= min over the circle of the affine part plus the minimum
of the control part, and that bound is exactly the value of the point mass at
the minimising angle with u = 0.  Family (ii) is scanned as well both as a
cross-check and because costs rewarding motion can favour it.  Costs coupling
angle and control non-convexly are outside this oracle's remit and are not
used in acceptance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .system import SystemSpec, cost_numpy


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class OracleResult:
    instance: str
    value: float
    method: str  # "analytic" | "exhaustive-atom-scan" | "dense-simulation"
    error_bound: float
    attained_by: str = ""
    stationary_value: float | None = None  # family (i) minimum, when scanned
    circulating_value: float | None = None  # family (ii) minimum, when scanned


def _circle_scan(spec: SystemSpec, angle_resolution: int,
                 control_resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scan's angles (A,), the unit circle's points at them (A, 2) and the
    controls (U, p): what every level of one scan shares."""
    if spec.region.kind != "annulus":
        raise OracleError("level-set oracle applies to annulus regions")
    angles = 2.0 * np.pi * np.arange(angle_resolution) / angle_resolution
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return angles, ring, spec.control.grid(control_resolution)


def rotation_level_value(spec: SystemSpec, z: float,
                         angle_resolution: int = 4096,
                         control_resolution: int = 41) -> OracleResult:
    """Brute-force minimum over the two tractable measure families on one circle.

    ``z`` is the conserved quantity (squared radius); the circle scanned has
    radius sqrt(z).  The error bound is the cost's sampled modulus over one
    angular cell.
    """
    return _level_value(spec, z, *_circle_scan(spec, angle_resolution, control_resolution))


def _level_value(spec: SystemSpec, z: float, angles: np.ndarray, ring: np.ndarray,
                 controls: np.ndarray) -> OracleResult:
    a2, b2 = spec.region.inner ** 2, spec.region.outer ** 2
    if not a2 - 1e-12 <= z <= b2 + 1e-12:
        raise OracleError(f"level {z} outside [{a2}, {b2}]")
    # the cost on the circle's (angle, control) pairs, (A, U), by broadcasting
    ys = np.asarray(spec.region.center) + math.sqrt(z) * ring
    costs = cost_numpy(spec)(ys[:, None, :], controls[None, :, :])

    # family (i): park at any angle with zero control (requires 0 in the scan)
    zero_col = int(np.argmin(np.linalg.norm(controls, axis=1)))
    stationary = float(np.min(costs[:, zero_col]))
    stationary_angle = float(angles[int(np.argmin(costs[:, zero_col]))])

    # family (ii): uniform in angle, best fixed control
    circulating_per_u = costs.mean(axis=0)
    circulating = float(np.min(circulating_per_u))
    circulating_u = controls[int(np.argmin(circulating_per_u))]

    if stationary <= circulating:
        value, attained = stationary, f"stationary (angle={stationary_angle:.6f}, u=0)"
    else:
        value, attained = circulating, f"circulating (u={circulating_u.tolist()})"
    cell_modulus = float(np.max(np.abs(np.diff(costs, axis=0)))) if len(angles) > 1 else 0.0
    return OracleResult(instance=f"rotation level z={z} cost={spec.cost_id}",
                        value=value, method="exhaustive-atom-scan",
                        error_bound=cell_modulus, attained_by=attained,
                        stationary_value=stationary, circulating_value=circulating)


def frozen_value(spec: SystemSpec, y0, control_resolution: int = 201) -> OracleResult:
    """Exhaustive control scan of k(y0, .) for systems with zero dynamics.

    The error bound is the cost's sampled modulus over one control cell: the
    largest |k(y0, u) - k(y0, u')| over controls adjacent on the control
    lattice, as :func:`rotation_level_value` takes it over angular cells.
    """
    y0 = np.asarray(y0, dtype=float)
    controls = spec.control.grid(control_resolution)
    values = cost_numpy(spec)(y0, controls)
    best = int(np.argmin(values))
    on_lattice = values.reshape((control_resolution,) * spec.dim_control)
    cell_modulus = max(float(np.max(np.abs(np.diff(on_lattice, axis=j))))
                       for j in range(spec.dim_control))
    return OracleResult(instance=f"frozen y0={y0.tolist()} cost={spec.cost_id}",
                        value=float(values[best]), method="exhaustive-atom-scan",
                        error_bound=cell_modulus,
                        attained_by=f"u={controls[best].tolist()}")


@dataclass(frozen=True)
class LevelTable:
    rows: tuple[tuple[float, float], ...]  # (level z, value)
    min_value: float
    argmin_level: float


def level_set_ordering(spec: SystemSpec, levels,
                       angle_resolution: int = 4096,
                       control_resolution: int = 41) -> LevelTable:
    """Per-level values across a grid of invariant circles; the minimum over
    levels is the reference for the start-point-free (ergodic) program."""
    scan = _circle_scan(spec, angle_resolution, control_resolution)
    rows = [(float(z), _level_value(spec, float(z), *scan).value) for z in levels]
    values = [v for _, v in rows]
    best = int(np.argmin(values))
    return LevelTable(rows=tuple(rows), min_value=values[best], argmin_level=rows[best][0])
