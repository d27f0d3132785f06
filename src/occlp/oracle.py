"""Independent reference values, computed without any of the LP machinery.

For the planar rotation system every circle about the origin is invariant, so
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

Each oracle raises OracleError on a system it does not apply to: see
:func:`rotates` and :func:`is_frozen`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PRESETS, SystemConfig
from .system import SystemSpec, parses_to


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


def rotates(spec: SystemSpec) -> bool:
    """Whether the level-set oracle applies: an annulus, about the origin, whose
    dynamics parse to those of the rotation preset (``config.PRESETS``), which
    turn about the origin, so that every circle of the annulus is invariant,
    and a control box that holds u = 0, where the system parks (family (i))."""
    return (spec.region.kind == "annulus"
            and all(lo <= 0.0 <= hi for lo, hi in zip(spec.control.lower, spec.control.upper))
            and parses_to(spec, PRESETS["rotation"](SystemConfig())["dynamics"]))


def is_frozen(spec: SystemSpec) -> bool:
    """Whether the frozen oracle applies: the dynamics parse to those of the
    frozen preset on a box of the spec's dimension, 0 in every component."""
    box = SystemConfig(lower=(0.0,) * spec.dim_state)
    return parses_to(spec, PRESETS["frozen"](box)["dynamics"])


def _circle_scan(spec: SystemSpec, angle_resolution: int,
                 control_resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scan's angles (A,), the unit circle's points at them (A, 2) and the
    controls (U, p): what every level of one scan shares."""
    if not rotates(spec):
        raise OracleError("the level-set oracle applies to an annulus about the origin, with "
                          "the rotation's dynamics (u1*y2, -u1*y1) and u = 0 in the control box")
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
    angles, ring, controls = _circle_scan(spec, angle_resolution, control_resolution)
    costs, parked, circulating_per_u = _level_scan(spec, z, ring, controls)
    stationary = float(np.min(parked))
    circulating = float(np.min(circulating_per_u))
    if stationary <= circulating:
        angle = float(angles[int(np.argmin(parked))])
        value, attained = stationary, f"stationary (angle={angle:.6f}, u=0)"
    else:
        u = controls[int(np.argmin(circulating_per_u))]
        value, attained = circulating, f"circulating (u={u.tolist()})"
    cell_modulus = float(np.max(np.abs(np.diff(costs, axis=0)))) if len(angles) > 1 else 0.0
    return OracleResult(instance=f"rotation level z={z} cost={spec.cost_text}",
                        value=value, method="exhaustive-atom-scan",
                        error_bound=cell_modulus, attained_by=attained,
                        stationary_value=stationary, circulating_value=circulating)


def _level_scan(spec: SystemSpec, z: float, ring: np.ndarray,
                controls: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cost on circle ``z``'s (angle, control) pairs (A, U), by
    broadcasting; the cost at u = 0, family (i): park at any angle; and its
    mean over angles per control, family (ii): uniform in angle at one fixed
    control."""
    a2, b2 = spec.region.inner ** 2, spec.region.outer ** 2
    if not a2 - 1e-12 <= z <= b2 + 1e-12:
        raise OracleError(f"level {z} outside [{a2}, {b2}]")
    ys = math.sqrt(z) * ring
    costs = spec.cost_at(ys[:, None, :], controls[None, :, :])
    return costs, spec.cost_at(ys, np.zeros(spec.dim_control)), costs.mean(axis=0)


def frozen_value(spec: SystemSpec, y0, control_resolution: int = 201) -> OracleResult:
    """Exhaustive control scan of k(y0, .) for systems with zero dynamics.

    The error bound is the cost's sampled modulus over one control cell: the
    largest |k(y0, u) - k(y0, u')| over controls adjacent on the control
    lattice, as :func:`rotation_level_value` takes it over angular cells.
    """
    if not is_frozen(spec):
        raise OracleError("the frozen oracle applies to zero dynamics only")
    y0 = np.asarray(y0, dtype=float)
    controls = spec.control.grid(control_resolution)
    values = spec.cost_at(y0, controls)
    best = int(np.argmin(values))
    on_lattice = values.reshape((control_resolution,) * spec.dim_control)
    cell_modulus = max(float(np.max(np.abs(np.diff(on_lattice, axis=j))))
                       for j in range(spec.dim_control))
    return OracleResult(instance=f"frozen y0={y0.tolist()} cost={spec.cost_text}",
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
    """Per-level values across a grid of invariant circles, without
    :func:`rotation_level_value`'s error bounds; the minimum over levels is the
    reference for the start-point-free (ergodic) program."""
    _angles, ring, controls = _circle_scan(spec, angle_resolution, control_resolution)
    rows = []
    for z in levels:
        _costs, parked, circulating_per_u = _level_scan(spec, float(z), ring, controls)
        stationary, circulating = float(np.min(parked)), float(np.min(circulating_per_u))
        rows.append((float(z), stationary if stationary <= circulating else circulating))
    values = [v for _, v in rows]
    best = int(np.argmin(values))
    return LevelTable(rows=tuple(rows), min_value=values[best], argmin_level=rows[best][0])
