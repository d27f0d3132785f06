"""Discretisation of the state-control set into weighted atoms, plus assembly.

Atoms are the product of a deterministic state grid and a deterministic
control grid, ordered state-major.  Box state grids use cell centers so that
every atom is strictly feasible.  Annulus state grids are polar products: the
radial subdivision is endpoint-inclusive, so the invariant circles through the
inner radius, the outer radius, and every subdivision radius are exactly unions
of atoms -- measures concentrating on an invariant circle are then exactly
representable, which the initial-condition-coupled programs rely on.

Every LP of a study is stacked from three assembled blocks:

* flow matrix  B[b, a] = grad phi_b(y_a) . f(y_a, u_a)
* initial matrix C[b, a] = phi_b(y0) - phi_b(y_a)
* cost vector  c[a] = k(y_a, u_a)

phi and grad phi are evaluated once each at the grid states, through the
public :func:`basis.phi_matrix` and :func:`basis.grad_matrix`, and f and k
on the grid states against the grid controls by broadcasting, so no
(state, control) row is built; grad phi . f is added axis by axis from +0.0,
as ``einsum`` adds it, so every entry is the float an evaluation at the atom
itself gives.  The blocks of one (grid, basis, y0), the system being the
grid's, are one :class:`LpBlocks`: every LP, membership check and horizon
study is built from such an object alone, and a study assembles its one
object once.  The blocks are held inside the coupled programs' matrix, which
:func:`stack_rows` lays out and which every coupled LP built on them shares,
read-only.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerances
from .basis import BasisSpec, grad_matrix, phi_matrix
from .system import RegionError, StateRegion, SystemSpec, rate_along


log = logging.getLogger(__name__)
NEAREST_CHUNK = 16384  # query rows per block of nearest_index and nearest_state_index


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    """Product grid over the state region and the control region."""

    spec: SystemSpec
    state_points: np.ndarray  # (S, m)
    control_points: np.ndarray  # (K, p)
    resolution: tuple[int, ...]  # per state axis, as check_state_resolution returns it

    @property
    def atom_count(self) -> int:
        return self.state_points.shape[0] * self.control_points.shape[0]


@dataclass
class DiscreteMeasure:
    """Nonnegative weights over the atoms of one grid."""

    grid: Grid
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.grid.atom_count,):
            raise GridError(f"weights shape {self.weights.shape} != ({self.grid.atom_count},)")
        if np.min(self.weights) < -tolerances.NEGATIVE_WEIGHT_TOL:
            raise GridError(f"negative weight {np.min(self.weights)}")
        self.weights = np.maximum(self.weights, 0.0)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def is_probability(self) -> bool:
        return abs(self.total_mass - 1.0) <= tolerances.PROBABILITY_MASS_TOL


def check_state_resolution(region: StateRegion, state_resolution) -> tuple[int, ...]:
    """The per-axis counts of a state grid over ``region``, or a GridError.

    ``state_resolution`` is an int applied per axis, or a per-axis sequence;
    for an annulus the two entries are (radial count, angle count).
    """
    if isinstance(state_resolution, int):
        res = [state_resolution] * (2 if region.kind == "annulus" else region.dim)
    else:
        res = [int(r) for r in state_resolution]
    if region.kind == "box":
        if len(res) != region.dim:
            raise GridError(f"expected {region.dim} state resolutions, got {len(res)}")
        if min(res) < 2:
            raise GridError("state resolution must be >= 2 per axis")
    else:
        if len(res) != 2:
            raise GridError("annulus grids take (radial count, angle count)")
        n_r, n_theta = res
        if (n_r < 2 and region.inner != region.outer) or n_r < 1 or n_theta < 2:
            raise GridError("annulus resolutions must be >= 2 (radial >= 1 only for a circle)")
    return tuple(res)


def build_grid(spec: SystemSpec, state_resolution, control_resolution: int) -> Grid:
    """Discretise the state and control regions (see :func:`check_state_resolution`)."""
    region = spec.region
    res = check_state_resolution(region, state_resolution)
    state_points = region.lattice(res)
    control_points = spec.control.grid(control_resolution)

    outside = ~region.contains(state_points)
    if outside.any():
        raise GridError(f"internal: atom state {state_points[outside][0]} escaped the region")
    return Grid(spec=spec, state_points=state_points, control_points=control_points,
                resolution=res)


def assemble_flow_matrix(grid: Grid, basis: BasisSpec) -> np.ndarray:
    """B[b, a] = grad phi_b(y_a) . f(y_a, u_a); B g are the flow residuals of g."""
    grads = grad_matrix(basis, grid.state_points)  # (count, S, m)
    f_vals = grid.spec.dynamics_at(grid.state_points[:, None],
                                   grid.control_points[None])  # (m, S, K)
    return rate_along(np.moveaxis(grads, -1, 0)[..., None], f_vals).reshape(
        basis.count, grid.atom_count)


def assemble_initial_matrix(grid: Grid, basis: BasisSpec, y0) -> np.ndarray:
    """C[b, a] = phi_b(y0) - phi_b(y_a); couples a measure to the start point y0."""
    y0 = np.asarray(y0, dtype=float)
    if not grid.spec.region.contains(y0):
        raise RegionError(f"y0 {y0.tolist()} outside the state region")
    return np.repeat(phi_matrix(basis, y0[None, :]) - phi_matrix(basis, grid.state_points),
                     grid.control_points.shape[0], axis=1)


def assemble_cost_vector(grid: Grid) -> np.ndarray:
    """c[a] = k(y_a, u_a)."""
    return grid.spec.cost_at(grid.state_points[:, None], grid.control_points[None]).ravel()


def stack_rows(blocks, n_atoms: int) -> np.ndarray:
    """One read-only LP matrix: the row blocks ``(gamma coefficients, xi
    coefficients or None)`` in order, then the normalization row 1.gamma = 1.
    When a block has xi coefficients, the columns are [gamma | xi] and the cap
    row 1.xi <= cap comes last; otherwise there is no xi block."""
    xi = any(xi_block is not None for _, xi_block in blocks)
    rows = sum(gamma.shape[0] for gamma, _ in blocks)
    out = np.zeros((rows + 1 + xi, n_atoms * (1 + xi)))
    row = 0
    for gamma, xi_block in blocks:
        out[row:row + gamma.shape[0], :n_atoms] = gamma
        if xi_block is not None:
            out[row:row + gamma.shape[0], n_atoms:] = xi_block
        row += gamma.shape[0]
    out[row, :n_atoms] = 1.0
    if xi:
        out[row + 1, n_atoms:] = 1.0
    out.flags.writeable = False
    return out


def snap_to_state_grid(grid: Grid, y0) -> tuple[int, np.ndarray]:
    """Nearest state grid point to y0 (the representative the coupled rows use)."""
    y0 = np.asarray(y0, dtype=float)
    if not grid.spec.region.contains(y0):
        raise RegionError(f"y0 {y0.tolist()} outside the state region")
    idx = int(nearest_state_index(grid, y0)[0])
    return idx, grid.state_points[idx].copy()


class LpBlocks:
    """B, C at one start point and c, for one grid, basis and y0 (the system
    is ``grid.spec``), assembled once, on first use, for every LP built on them.

    ``coupled`` is the initial-coupled programs' matrix, with the rows B g = 0,
    C g + B x = 0, 1.g = 1 and last the cap row 1.x <= cap (see
    :func:`stack_rows`); ``flow`` and ``initial`` are views of its gamma
    block, so B and C are held once.  C is taken at y0 snapped to the state
    grid (:func:`snap_to_state_grid`).  The arrays are read-only and live as
    long as the object: a study holds one for its run.  The assembly logs one
    INFO line with its size, the megabytes it holds and its time.
    """

    def __init__(self, grid: Grid, basis: BasisSpec, y0):
        self.grid, self.basis = grid, basis
        self.y0_requested = np.asarray(y0, dtype=float)

    @cached_property
    def y0(self) -> np.ndarray:
        """The start point snapped to the state grid."""
        return snap_to_state_grid(self.grid, self.y0_requested)[1]

    @property
    def start(self) -> dict:
        """The requested and the snapped start point, as LP provenance."""
        return {"y0_requested": tuple(self.y0_requested.tolist()), "y0": tuple(self.y0.tolist())}

    @property
    def cost(self) -> np.ndarray:
        return self._assembled[0]

    @property
    def coupled(self) -> np.ndarray:
        return self._assembled[1]

    @property
    def flow(self) -> np.ndarray:
        return self.coupled[:self.basis.count, :self.grid.atom_count]

    @property
    def initial(self) -> np.ndarray:
        return self.coupled[self.basis.count:2 * self.basis.count, :self.grid.atom_count]

    @cached_property
    def _assembled(self) -> tuple[np.ndarray, np.ndarray]:
        began = time.perf_counter()
        cost = assemble_cost_vector(self.grid)
        cost.flags.writeable = False
        flow = assemble_flow_matrix(self.grid, self.basis)
        initial = assemble_initial_matrix(self.grid, self.basis, self.y0)
        coupled = stack_rows([(flow, None), (initial, flow)], self.grid.atom_count)
        log.info("assembly: %d states, %d atoms, %d basis rows, %.2f MB held, %.3f s",
                 self.grid.state_points.shape[0], self.grid.atom_count, self.basis.count,
                 (cost.nbytes + coupled.nbytes) / 1e6, time.perf_counter() - began)
        return cost, coupled


def _nearest_rows(points: np.ndarray, queries: np.ndarray, candidates=None) -> np.ndarray:
    """Position of the nearest candidate among ``points`` to each query row,
    the first on ties; ``candidates`` (n, C) indexes the rows each query is
    compared with, or None for every row.

    The squared distances are built one axis at a time on contiguous
    coordinate arrays, ``d = q_j - p_j; d *= d``, and summed in axis order:
    the float operations of the brute-force ``((q - p) ** 2).sum(axis=-1)``
    (which adds fewer than 8 axes in order too), without its (n, C, dim)
    temporary.
    """
    total = None
    for j in range(points.shape[1]):
        p = np.ascontiguousarray(points[:, j])
        d = queries[:, j, None] - (p if candidates is None else p[candidates])
        d *= d
        total = d if total is None else np.add(total, d, out=total)
    return np.argmin(total, axis=1)


def nearest_index(points: np.ndarray, queries) -> np.ndarray:
    """Row of ``points`` Euclidean-nearest to each query row; ties go to the
    lowest row.  The distances are the brute-force ones (:func:`_nearest_rows`)."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    out, chunk = np.empty(queries.shape[0], dtype=np.int64), NEAREST_CHUNK
    for start in range(0, queries.shape[0], chunk):
        out[start:start + chunk] = _nearest_rows(points, queries[start:start + chunk])
    return out


def nearest_state_index(grid: Grid, ys) -> np.ndarray:
    """``nearest_index(grid.state_points, ys)`` for queries inside the region.

    Only the candidates of the region's stencil are compared, with the same
    squared distances and the same lowest-row tie rule, so for any query inside
    the region (within ``REGION_TOL``) the answer is the brute-force one.
    """
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    out, chunk = np.empty(ys.shape[0], dtype=np.int64), NEAREST_CHUNK
    for start in range(0, ys.shape[0], chunk):
        block = ys[start:start + chunk]
        candidates = np.sort(grid.spec.region.stencil(grid.resolution, block), axis=1)
        out[start:start + chunk] = np.take_along_axis(
            candidates, _nearest_rows(grid.state_points, block, candidates)[:, None],
            axis=1)[:, 0]
    return out


def nearest_atom_index(grid: Grid, ys: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Nearest atom for joint points; separable because atoms form a product set."""
    si = nearest_state_index(grid, ys)
    ci = nearest_index(grid.control_points, us)
    return si * grid.control_points.shape[0] + ci
