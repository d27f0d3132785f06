"""Finite linear programs over discrete occupation measures, with dual certificates.

Four program variants share one assembly path: each stacks its row blocks
over the same normalization row.  Writing B for the flow matrix,
C for the initial-coupling matrix of a start point y0, c for the atom costs and
1 for the all-ones row:

* ergodic            min c.g      s.t.  B g = 0,               1.g = 1, g >= 0
* initial-coupled    min c.g      s.t.  B g = 0, C g + B x = 0, 1.g = 1, g, x >= 0
* discounted (rate r) min c.g     s.t.  (B + r C) g = 0,        1.g = 1, g >= 0
* perturbed (eps)    min (c+2e).g + M e 1.x  over the initial-coupled rows,
  with M the dynamics norm bound of the system.

The dual multipliers of a solved initial-coupled or perturbed program assemble
into a certificate (mu, psi, eta) with psi and eta polynomials in the test
basis, satisfying at every atom

    k + (psi(y0) - psi(y)) + grad eta(y) . f(y, u) - mu >= -2*eps - tol
    grad psi(y) . f(y, u) >= -M*eps - tol

and mu equal to the optimal value (finite LP strong duality).  mu is always a
certified lower bound for the primal value (weak duality), which is asserted
for every solve.

Start points are snapped to the nearest state grid point when building the
coupled rows: the rows are exact equalities, so an off-grid start point would
generically make the finite program infeasible even though its continuum
counterpart is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .basis import BasisSpec, grad_matrix, phi_matrix
from .grid import (DiscreteMeasure, Grid, assemble_cost_vector,
                   assemble_flow_matrix, assemble_initial_matrix, nearest_state_index)
from .system import RegionError, SystemSpec, cost_batch, dynamics_batch, lattice, product_rows


class ProgramError(ValueError):
    pass


ROW_KINDS = ("flow", "initial", "discounted", "normalization")

DEFAULT_XI_MASS_CAP = 1e6
PRIMAL_RESIDUAL_TOL = 1e-7
COMPLEMENTARITY_TOL = 1e-6
DUALITY_GAP_TOL = 1e-8
CERTIFICATE_TOL = 1e-6


@dataclass(frozen=True)
class RowMeta:
    kind: str
    basis_index: int | None


@dataclass(frozen=True)
class LpInstance:
    """One finite LP over a gamma block and an optional xi block."""

    grid: Grid
    basis: BasisSpec
    objective_gamma: np.ndarray
    objective_xi: np.ndarray | None
    eq_gamma: np.ndarray  # (rows, N) coefficients on the gamma block
    eq_xi: np.ndarray | None  # (rows, N) coefficients on the xi block
    eq_rhs: np.ndarray
    row_meta: tuple[RowMeta, ...]
    xi_mass_cap: float | None
    provenance: dict = field(default_factory=dict)

    @property
    def n_gamma(self) -> int:
        return self.objective_gamma.shape[0]

    @property
    def n_xi(self) -> int:
        return 0 if self.objective_xi is None else self.objective_xi.shape[0]

    @property
    def has_xi(self) -> bool:
        return self.objective_xi is not None

    def __post_init__(self):
        norm_rows = [i for i, meta in enumerate(self.row_meta) if meta.kind == "normalization"]
        if len(norm_rows) != 1:
            raise ProgramError(f"expected exactly one normalization row, got {len(norm_rows)}")
        if len(self.row_meta) != self.eq_gamma.shape[0]:
            raise ProgramError("row metadata must cover every row exactly once")
        for meta in self.row_meta:
            if meta.kind not in ROW_KINDS:
                raise ProgramError(f"unknown row kind {meta.kind!r}")

    def rows_of_kind(self, kind: str) -> list[int]:
        return [i for i, meta in enumerate(self.row_meta) if meta.kind == kind]


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded | tolerance-failure
    value: float | None
    gamma: DiscreteMeasure | None
    xi: DiscreteMeasure | None
    row_duals: np.ndarray | None
    cap_dual: float
    cap_binding: bool
    xi_canonical: bool  # xi has minimal mass on the optimal face (or its mass is priced)
    dual_objective: float | None
    primal_residual: float
    complementarity_residual: float
    iterations: int
    message: str


def snap_to_state_grid(grid: Grid, y0) -> tuple[int, np.ndarray]:
    """Nearest state grid point to y0 (the representative the coupled rows use)."""
    y0 = np.asarray(y0, dtype=float)
    if not grid.spec.region.contains(y0):
        raise RegionError(f"y0 {y0.tolist()} outside the state region")
    idx = int(nearest_state_index(grid, y0)[0])
    return idx, grid.state_points[idx].copy()


def _stack(grid: Grid, basis: BasisSpec, cost: np.ndarray, blocks, provenance: dict,
           xi_cost: np.ndarray | None = None,
           xi_mass_cap: float | None = None) -> LpInstance:
    """Stack row blocks ``(kind, gamma coefficients, xi coefficients or None)``
    over the normalization row; the xi block exists iff ``xi_cost`` is given."""
    n = grid.atom_count
    eq_gamma = np.vstack([g for _, g, _ in blocks] + [np.ones((1, n))])
    eq_xi = None
    if xi_cost is not None:
        eq_xi = np.vstack([np.zeros_like(g) if x is None else x for _, g, x in blocks]
                          + [np.zeros((1, n))])
    rhs = np.concatenate([np.zeros(eq_gamma.shape[0] - 1), [1.0]])
    meta = (tuple(RowMeta(kind, b) for kind, g, _ in blocks for b in range(g.shape[0]))
            + (RowMeta("normalization", None),))
    return LpInstance(grid=grid, basis=basis, objective_gamma=cost, objective_xi=xi_cost,
                      eq_gamma=eq_gamma, eq_xi=eq_xi, eq_rhs=rhs, row_meta=meta,
                      xi_mass_cap=xi_mass_cap, provenance=provenance)


def _initial_rows(grid: Grid, basis: BasisSpec, y0) -> tuple[np.ndarray, dict]:
    """Initial-coupling rows at y0 snapped to the state grid, and both points."""
    _, y0_snapped = snap_to_state_grid(grid, y0)
    return (assemble_initial_matrix(grid, basis, y0_snapped),
            {"y0_requested": tuple(np.asarray(y0, float).tolist()),
             "y0": tuple(y0_snapped.tolist())})


def _coupled_lp(grid: Grid, basis: BasisSpec, y0, cost: np.ndarray, xi_cost: np.ndarray,
                xi_mass_cap: float, provenance: dict) -> LpInstance:
    """Flow rows B g = 0 and initial rows C g + B x = 0 over a gamma and an xi block."""
    flow = assemble_flow_matrix(grid, basis)
    initial, start = _initial_rows(grid, basis, y0)
    return _stack(grid, basis, cost, [("flow", flow, None), ("initial", initial, flow)],
                  {**provenance, **start}, xi_cost, xi_mass_cap)


def build_ergodic_lp(grid: Grid, basis: BasisSpec, spec: SystemSpec) -> LpInstance:
    """Long-run program with flow rows only; its value ignores the start point."""
    return _stack(grid, basis, assemble_cost_vector(grid, spec),
                  [("flow", assemble_flow_matrix(grid, basis), None)], {"variant": "ergodic"})


def build_nonergodic_lp(grid: Grid, basis: BasisSpec, spec: SystemSpec, y0,
                        xi_mass_cap: float = DEFAULT_XI_MASS_CAP) -> LpInstance:
    """Start-point-dependent program: flow rows plus initial-coupling rows.

    Infeasibility (possible when no admissible motion connects the feasible
    long-run measures back to y0 on the grid) surfaces as solution status.
    """
    return _coupled_lp(grid, basis, y0, assemble_cost_vector(grid, spec),
                       np.zeros(grid.atom_count), xi_mass_cap, {"variant": "nonergodic"})


def build_discounted_lp(grid: Grid, basis: BasisSpec, spec: SystemSpec, y0,
                        discount_rate: float) -> LpInstance:
    """Discounted-constraint program: rows (B + rate * C) g = 0 plus normalization."""
    if discount_rate <= 0:
        raise ProgramError("discount rate must be positive")
    flow = assemble_flow_matrix(grid, basis)
    initial, start = _initial_rows(grid, basis, y0)
    return _stack(grid, basis, assemble_cost_vector(grid, spec),
                  [("discounted", flow + discount_rate * initial, None)],
                  {"variant": "discounted", "rate": discount_rate, **start})


def build_perturbed_lp(grid: Grid, basis: BasisSpec, spec: SystemSpec, y0,
                       epsilon: float,
                       xi_mass_cap: float = DEFAULT_XI_MASS_CAP) -> LpInstance:
    """Regularised coupled program; epsilon = 0 reduces exactly to the unperturbed one."""
    if epsilon < 0:
        raise ProgramError("epsilon must be nonnegative")
    return _coupled_lp(grid, basis, y0, assemble_cost_vector(grid, spec) + 2.0 * epsilon,
                       np.full(grid.atom_count, spec.bound_f * epsilon), xi_mass_cap,
                       {"variant": "perturbed", "epsilon": epsilon, "f_bound": spec.bound_f})


def _minimal_mass_refinement(instance: LpInstance, a_eq: np.ndarray,
                             objective: np.ndarray, value: float):
    """Re-solve for minimal xi mass over the (near-)optimal face.

    Returns None unless that solve succeeds with a point inside the primal
    residual tolerance."""
    n_g, n_x = instance.n_gamma, instance.n_xi
    mass_obj = np.concatenate([np.zeros(n_g), np.ones(n_x)])
    rows_ub = [objective]  # keep the original objective at its optimum
    rhs_ub = [value + 1e-9 * (1.0 + abs(value))]
    if instance.xi_mass_cap is not None:
        rows_ub.append(mass_obj)
        rhs_ub.append(instance.xi_mass_cap)
    result = linprog(mass_obj, A_eq=a_eq, b_eq=instance.eq_rhs,
                     A_ub=np.vstack(rows_ub), b_ub=np.array(rhs_ub),
                     bounds=(0, None), method="highs")
    if result.status != 0:
        return None
    x = np.maximum(np.asarray(result.x), 0.0)
    if np.max(np.abs(a_eq @ x - instance.eq_rhs)) > PRIMAL_RESIDUAL_TOL:
        return None  # the caller keeps the unrefined vertex
    return (DiscreteMeasure(instance.grid, np.maximum(x[:n_g], 0.0)),
            DiscreteMeasure(instance.grid, np.maximum(x[n_g:], 0.0)))


def solve(instance: LpInstance) -> LpSolution:
    """Solve with HiGHS; optimality is demoted to tolerance-failure when the
    returned point violates the residual or duality-gap contracts."""
    n_g, n_x = instance.n_gamma, instance.n_xi
    if instance.has_xi:
        objective = np.concatenate([instance.objective_gamma, instance.objective_xi])
        a_eq = np.hstack([instance.eq_gamma, instance.eq_xi])
    else:
        objective = instance.objective_gamma
        a_eq = instance.eq_gamma

    a_ub = b_ub = None
    if instance.has_xi and instance.xi_mass_cap is not None:
        cap_row = np.concatenate([np.zeros(n_g), np.ones(n_x)])[None, :]
        a_ub, b_ub = cap_row, np.array([instance.xi_mass_cap])

    result = linprog(objective, A_eq=a_eq, b_eq=instance.eq_rhs,
                     A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")

    iterations = int(getattr(result, "nit", 0) or 0)
    if result.status != 0:
        status = {2: "infeasible", 3: "unbounded"}.get(result.status, "tolerance-failure")
        return LpSolution(status, None, None, None, None, 0.0, False, False, None,
                          np.inf, np.inf, iterations, result.message)

    x = np.asarray(result.x)
    gamma = DiscreteMeasure(instance.grid, np.maximum(x[:n_g], 0.0))
    xi = DiscreteMeasure(instance.grid, np.maximum(x[n_g:], 0.0)) if instance.has_xi else None
    row_duals = np.asarray(result.eqlin.marginals)
    cap_dual = float(result.ineqlin.marginals[0]) if a_ub is not None else 0.0

    # With a weightless xi block its mass is a free degree of freedom and the
    # solver may park at an arbitrary vertex (including the cap).  A secondary
    # mass-minimising solve over the optimal face yields a canonical pair, and
    # only then does a binding cap signal anything structural.
    xi_mass_canonical = instance.has_xi
    if instance.has_xi and not np.any(instance.objective_xi):
        refined = _minimal_mass_refinement(instance, a_eq, objective, float(result.fun))
        xi_mass_canonical = refined is not None
        if refined is not None:
            gamma, xi = refined
    # binding = the cap influences the value (nonzero shadow price) or even the
    # minimal-mass xi needs the whole budget
    cap_binding = bool(instance.has_xi and instance.xi_mass_cap is not None
                       and (cap_dual < -1e-9
                            or (xi_mass_canonical
                                and xi.total_mass >= instance.xi_mass_cap * (1.0 - 1e-9))))

    primal_residual = float(np.max(np.abs(a_eq @ x - instance.eq_rhs)))
    reduced = objective - a_eq.T @ row_duals
    if a_ub is not None:
        reduced = reduced - a_ub.T[:, 0] * cap_dual
    complementarity = float(np.max(np.abs(x * reduced)))
    dual_objective = float(instance.eq_rhs @ row_duals)
    if a_ub is not None:
        dual_objective += float(b_ub[0] * cap_dual)

    value = float(result.fun)
    status = "optimal"
    message = result.message
    if primal_residual > PRIMAL_RESIDUAL_TOL or complementarity > COMPLEMENTARITY_TOL:
        status = "tolerance-failure"
        message = (f"residuals out of tolerance: primal {primal_residual:.3e}, "
                   f"complementarity {complementarity:.3e}")
    elif abs(value - dual_objective) > DUALITY_GAP_TOL * max(1.0, abs(value)):
        status = "tolerance-failure"
        message = f"duality gap {value - dual_objective:.3e} exceeds tolerance"

    return LpSolution(status, value, gamma, xi, row_duals, cap_dual, cap_binding,
                      xi_mass_canonical, dual_objective, primal_residual, complementarity,
                      iterations, message)


# ---------------------------------------------------------------------------
# dual certificates


@dataclass(frozen=True)
class DualCertificate:
    """Triple (mu, psi, eta) built from the row multipliers of a solved program.

    psi and eta are stored as coefficient vectors over the test basis; epsilon
    and f_bound record the slack the perturbed variant is entitled to (both
    zero for unperturbed programs).
    """

    mu: float
    psi_coeffs: np.ndarray
    eta_coeffs: np.ndarray
    y0: np.ndarray | None
    epsilon: float = 0.0
    f_bound: float = 0.0


def extract_dual_certificate(solution: LpSolution, instance: LpInstance,
                             basis: BasisSpec, y0=None) -> DualCertificate:
    """Assemble (mu, psi, eta) from equality-row duals.

    With the solver's sign convention (marginals are sensitivities of the
    optimal value to the right-hand side), the certificate coefficients are
    the negated initial-row and flow-row duals, and mu is the normalization
    dual.  Applies to ergodic (psi = 0), initial-coupled and perturbed
    programs; the discounted variant has no certificate of this shape.
    """
    if solution.status != "optimal":
        raise ProgramError(f"cannot extract a certificate from a {solution.status} solve")
    variant = instance.provenance.get("variant")
    if variant == "discounted":
        raise ProgramError("discounted programs do not yield (mu, psi, eta) certificates")
    duals = solution.row_duals
    norm_row = instance.rows_of_kind("normalization")[0]
    mu = float(duals[norm_row])
    psi = np.zeros(basis.count)
    eta = np.zeros(basis.count)
    for i in instance.rows_of_kind("initial"):
        psi[instance.row_meta[i].basis_index] = -duals[i]
    for i in instance.rows_of_kind("flow"):
        eta[instance.row_meta[i].basis_index] = -duals[i]
    if y0 is None:
        y0 = instance.provenance.get("y0")
    y0 = None if y0 is None else np.asarray(y0, dtype=float)
    return DualCertificate(mu=mu, psi_coeffs=psi, eta_coeffs=eta, y0=y0,
                           epsilon=float(instance.provenance.get("epsilon", 0.0)),
                           f_bound=float(instance.provenance.get("f_bound", 0.0)))


def certificate_slacks(cert: DualCertificate, grid: Grid, basis: BasisSpec,
                       spec: SystemSpec,
                       ys: np.ndarray | None = None,
                       us: np.ndarray | None = None):
    """Pointwise slacks of the two certificate inequality families.

    Defaults to the grid atoms; pass denser (ys, us) for an off-grid report.
    Returns (lower-bound family slacks, monotonicity family slacks).
    """
    if ys is None:
        ys, us = grid.atom_states, grid.atom_controls
    f_vals = dynamics_batch(spec)(ys, us)
    cost = cost_batch(spec)(ys, us)
    phis = phi_matrix(basis, ys)
    grads = grad_matrix(basis, ys)
    psi_vals = cert.psi_coeffs @ phis
    grad_eta = np.einsum("b,bnm->nm", cert.eta_coeffs, grads)
    grad_psi = np.einsum("b,bnm->nm", cert.psi_coeffs, grads)
    psi_at_y0 = (float(cert.psi_coeffs @ phi_matrix(basis, cert.y0[None, :])[:, 0])
                 if cert.y0 is not None else 0.0)
    family1 = (cost + (psi_at_y0 - psi_vals)
               + np.einsum("nm,nm->n", grad_eta, f_vals) - cert.mu
               + 2.0 * cert.epsilon)
    family2 = (np.einsum("nm,nm->n", grad_psi, f_vals)
               + cert.f_bound * cert.epsilon)
    return family1, family2


def certificate_is_valid(cert: DualCertificate, grid: Grid, basis: BasisSpec,
                         spec: SystemSpec, tol: float = CERTIFICATE_TOL) -> bool:
    f1, f2 = certificate_slacks(cert, grid, basis, spec)
    return bool(np.min(f1) >= -tol and np.min(f2) >= -tol)


def certificate_offgrid_report(cert: DualCertificate, grid: Grid, basis: BasisSpec,
                               spec: SystemSpec, density_factor: int = 10):
    """Diagnostic only: worst slacks on a sample ~density_factor times denser
    than the grid.  The finite certificate is not expected to be feasible off
    the grid; the report quantifies how far off it is."""
    prov = grid.provenance
    if prov.get("state_kind") == "annulus":
        ys = spec.region.lattice((max(2, prov["radial_count"] * density_factor),
                                  prov["angle_count"] * density_factor))
    else:
        lo, hi = spec.region.bounding_box()
        ys = lattice([np.linspace(lo[j], hi[j], r * density_factor)
                      for j, r in enumerate(prov["state_resolution"])])
    ys_full, us_full = product_rows(ys, grid.control_points)
    f1, f2 = certificate_slacks(cert, grid, basis, spec, ys_full, us_full)
    return {"min_lower_bound_slack": float(np.min(f1)),
            "min_monotonicity_slack": float(np.min(f2)),
            "sample_count": int(ys_full.shape[0])}


def verify_weak_duality(primal_value: float, dual_mu: float,
                        tol: float = CERTIFICATE_TOL) -> bool:
    """The certified lower bound must not exceed the primal value."""
    return primal_value >= dual_mu - tol


# ---------------------------------------------------------------------------
# membership residuals


@dataclass(frozen=True)
class MembershipResidual:
    w_residual: float  # sup-norm of the flow rows applied to the measure
    omega_residual: float  # best sup-norm fit of the initial rows over xi >= 0


def membership_residual(measure: DiscreteMeasure, grid: Grid, basis: BasisSpec,
                        y0) -> MembershipResidual:
    """How far a probability measure is from the two feasible sets.

    ``w_residual`` needs no optimisation.  ``omega_residual`` is the optimal t
    of: minimise t subject to -t <= (C g + B x)_b <= t for every basis row,
    x >= 0, t >= 0.
    """
    if not measure.is_probability(tol=1e-7):
        raise ProgramError(f"measure mass {measure.total_mass} is not 1")
    flow = assemble_flow_matrix(grid, basis)
    w_residual = float(np.max(np.abs(flow @ measure.weights)))

    initial, _ = _initial_rows(grid, basis, y0)
    target = initial @ measure.weights  # (count,)
    n = grid.atom_count
    # variables: xi (n) then t (1)
    ones = np.ones((basis.count, 1))
    a_ub = np.vstack([np.hstack([flow, -ones]),
                      np.hstack([-flow, -ones])])
    b_ub = np.concatenate([-target, target])
    objective = np.concatenate([np.zeros(n), [1.0]])
    result = linprog(objective, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if result.status != 0:
        raise ProgramError(f"membership auxiliary program failed: {result.message}")
    return MembershipResidual(w_residual=w_residual, omega_residual=float(result.fun))
