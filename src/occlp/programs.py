"""Finite linear programs over discrete occupation measures, with dual certificates.

Four program variants share one stacking path (:func:`~occlp.grid.stack_rows`):
each stacks its row blocks over the same normalization row.  Writing B for the
flow matrix, C for the initial-coupling matrix of a start point y0, c for the
atom costs and 1 for the all-ones row:

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

and mu equal to the optimal value (finite LP strong duality).  mu is a lower
bound on the grid LP's value, up to the solver's tolerances (weak duality),
which is asserted for every solve.

Each builder takes one :class:`~occlp.grid.LpBlocks`, which holds the grid,
the basis, the start point and B, C and c, and builds its LP from that object
alone; so does the membership check.  The initial-coupled and perturbed
programs built on one such object share its coupled matrix, cap row included,
as their ``matrix``: the epsilon sweep and the nonergodic LP hold one
read-only array between them, and the solver reads it in place.

Every LP here, including the membership LP, is solved on a :class:`_Model`:
one HiGHS model, built through scipy's bundled binding with the options of
HIGHS_OPTIONS (dual simplex, presolve off, max-value scaling, feasibility
tolerances of FACE_TOL), that holds a restricted master of the LP's columns.
A column's reduced cost is its certificate slack, so one mat-vec prices
every atom: an LP with at least MASTER_MIN_COLUMNS_PER_ROW columns per row
starts from the columns of a sub-lattice of states and of the start state
and grows by the columns that price negative until none does (column
generation; a master that does not end optimal gets every column), and a
smaller LP holds every column from the start.  When the system's dynamics
are multilinear in the controls (every shipped system's are), the xi block
of any size starts from the atoms whose control is a corner of the control
grid instead: an xi column at any other grid control is a convex
combination of the corner columns at its state, with the same cost, so the
corners already hold the LP's optimum.  The reported point, its residuals
and the reduced costs are taken over every column either way.  A coupled
program whose xi block carries no cost then gets its minimal xi mass on its
optimal face, the columns of zero reduced cost, from a model of its own that
starts from the face columns the main model held.  The membership LP's model
starts from the same xi columns as a coupled LP's (corners, sub-lattice or
all) and its residual column.  The perturbed programs of an epsilon sweep
share every row, so :func:`solve_chain` solves the first cold and each later
one by changing the model's costs and re-running it warm.  The binding's
extension module is loaded straight from its file under
``scipy/optimize/_highspy``, and scipy's version from ``scipy/version.py``:
importing either by its dotted name would first run the package imports of
``scipy`` and ``scipy.optimize``, about 0.6 s in every command process, for
nothing used here.  So no command imports the ``scipy`` package itself.

Start points are snapped to the nearest state grid point when building the
coupled rows: the rows are exact equalities, so an off-grid start point would
generically make the finite program infeasible even though its continuum
counterpart is not.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, polynomials_at
from .grid import DiscreteMeasure, Grid, LpBlocks, snap_to_state_grid, stack_rows
from .system import SystemSpec, lattice, rate_along


log = logging.getLogger(__name__)

_HIGHS_CORE = "scipy.optimize._highspy._core"


def _scipy_dir() -> str:
    """The scipy package's directory, found without running its ``__init__``."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("no scipy package; occlp needs scipy>=1.15")
    return spec.submodule_search_locations[0]


def _load_from_file(name: str, search_dir: str):
    """Run scipy's module ``name`` from its file in search_dir.

    Neither the module nor a package above it is entered in ``sys.modules``.
    The interpreter keeps the one instance of an extension module, so a later
    ``import scipy.optimize`` binds the same ``_core`` and ``_Highs`` type,
    and sets the ``scipy.optimize._highspy._core`` attribute itself."""
    spec = importlib.machinery.PathFinder.find_spec(name, [search_dir])
    if spec is None:
        raise ImportError(f"no {name} in {search_dir}; occlp needs scipy>=1.15")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SCIPY_DIR = _scipy_dir()
_core = _load_from_file(_HIGHS_CORE, os.path.join(_SCIPY_DIR, "optimize", "_highspy"))
SCIPY_VERSION = _load_from_file("scipy.version", _SCIPY_DIR).version  # scipy.__version__
HighsModelStatus, HighsStatus, _Highs = _core.HighsModelStatus, _core.HighsStatus, _core._Highs


class ProgramError(ValueError):
    pass


ROW_KINDS = ("flow", "initial", "discounted", "normalization")

DEFAULT_XI_MASS_CAP = 1e6
PRIMAL_RESIDUAL_TOL = 1e-7
COMPLEMENTARITY_TOL = 1e-6
DUALITY_GAP_TOL = 1e-8
CERTIFICATE_TOL = 1e-6
# reduced cost on the optimal face and the pricing bound of a restricted
# master, relative to 1 + |c|; also every HiGHS model's primal and dual
# feasibility tolerance (HIGHS_OPTIONS), so every column prices out to it and
# no entry of a point that HiGHS calls optimal is below -FACE_TOL
FACE_TOL = 1e-9
# An LP with at least this many columns per constraint (an equality row; in
# the membership LP, a basis row) is solved on a restricted master seeded
# with the columns of every MASTER_STATE_STRIDE-th state; a smaller one holds
# every column from the start.  This sets the gamma block's seed, and the xi
# block's unless the dynamics are multilinear in the controls: then the xi
# block starts from the control grid's corners at every size, which is exact
# (_xi_seed), and holds 512 of box-custom's 2304 xi columns.  Measured under
# HIGHS_OPTIONS on the main solves of all four variants (median of 5, one
# process, before the corner seed), the master's time against the full
# model's:
#   annulus (5,64)/4, (5,64)/6, (5,128)/6  103-209 per row  0.19-0.33x
#   box 16x16/6                             82-84           0.79-2.99x
#   box 16x16/4                             154-159         0.65-2.46x
#   box 20x20/6                             129-131         0.81-2.69x
#   box 24x24/6                             185-189         0.85-1.52x
#   box 32x32/6                             329-335         0.54-0.82x
# (nonergodic LP: 19 against 80 ms at (5,128)/6, 139 against 47 ms at box
# 16x16/6, 247 against 170 ms at 20x20/6, 277 against 429 ms at 32x32/6).
# No count per row separates the annulus from the box.  Any count from 86 to
# 192 keeps the benchmark LPs where they are: box-custom's (82-85) hold every
# column, the annulus ones (192 and more) start from a master.
MASTER_MIN_COLUMNS_PER_ROW = 128
MASTER_STATE_STRIDE = 4


@dataclass(frozen=True)
class RowMeta:
    kind: str
    basis_index: int | None


@dataclass(frozen=True)
class LpInstance:
    """One finite LP over a gamma block and an optional xi block.

    ``matrix`` holds every row over the columns [gamma | xi]: the equality
    rows of ``row_meta``, then, if the LP has an xi block, the cap row
    1.xi <= xi_mass_cap.  The builders hand it out read-only, and LPs may
    share it."""

    grid: Grid
    basis: BasisSpec
    objective_gamma: np.ndarray
    objective_xi: np.ndarray | None
    matrix: np.ndarray
    eq_rhs: np.ndarray
    row_meta: tuple[RowMeta, ...]
    xi_mass_cap: float | None  # required with an xi block
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

    @property
    def a_eq(self) -> np.ndarray:
        """The equality rows of ``matrix``, over [gamma | xi] (a view)."""
        return self.matrix[:len(self.row_meta)]

    def __post_init__(self):
        norm_rows = [i for i, meta in enumerate(self.row_meta) if meta.kind == "normalization"]
        if len(norm_rows) != 1:
            raise ProgramError(f"expected exactly one normalization row, got {len(norm_rows)}")
        if self.has_xi and self.xi_mass_cap is None:
            raise ProgramError("an LP with an xi block needs an xi_mass_cap")
        shape = (len(self.row_meta) + self.has_xi, self.n_gamma + self.n_xi)
        if self.matrix.shape != shape:
            raise ProgramError(f"matrix shape {self.matrix.shape} is not {shape}: one row per "
                               "row_meta entry and the xi block's cap row, one column per "
                               "gamma and xi atom")
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
    iterations: int  # of the main solve
    message: str
    refine_iterations: int | None = None  # None when no minimal-mass refinement ran
    start: str = "cold"  # or "warm from <LP>", or "same LP as <LP>" for a shared solution
    master_columns: int = 0  # columns in the model when it ended
    xi_seed: str = "no xi"  # the xi columns its model started from (_seed_columns)
    pricing_rounds: int = 1  # runs of the main model, each followed by one pricing
    fallback: bool = False  # a master that did not end optimal was grown to the full LP
    refine_master_columns: int = 0  # face columns in the refinement's model when it ended
    refine_face_columns: int = 0  # columns of the optimal face
    refine_rounds: int = 0  # runs of the refinement's model
    raw_minimum: float = 0.0  # most negative entry of the reported point before clipping, or 0


def lp_name(instance: LpInstance) -> str:
    """The report's name of an LP: its variant, with the rate or epsilon if it has one."""
    prov = instance.provenance
    variant = prov.get("variant", "unnamed")
    if "rate" in prov:
        return f"{variant}[rate={prov['rate']:g}]"
    if "epsilon" in prov:
        return f"{variant}[eps={prov['epsilon']:g}]"
    return variant


def _instance(blocks: LpBlocks, kinds, matrix: np.ndarray, cost: np.ndarray,
              provenance: dict, xi_cost: np.ndarray | None = None,
              xi_mass_cap: float | None = None) -> LpInstance:
    """An LP on the blocks' grid and basis over ``matrix``, whose equality rows
    are the row blocks ``kinds`` (kind, rows) and then the normalization row;
    the xi block exists iff ``xi_cost`` is given."""
    meta = (tuple(RowMeta(kind, b) for kind, rows in kinds for b in range(rows))
            + (RowMeta("normalization", None),))
    rhs = np.zeros(len(meta))
    rhs[-1] = 1.0
    return LpInstance(grid=blocks.grid, basis=blocks.basis, objective_gamma=cost,
                      objective_xi=xi_cost, matrix=matrix, eq_rhs=rhs, row_meta=meta,
                      xi_mass_cap=xi_mass_cap, provenance=provenance)


def _coupled_lp(blocks: LpBlocks, cost: np.ndarray, xi_cost: np.ndarray,
                xi_mass_cap: float, provenance: dict) -> LpInstance:
    """Flow rows B g = 0 and initial rows C g + B x = 0 over a gamma and an xi
    block, on the blocks' coupled matrix, cap row included."""
    count = blocks.basis.count
    return _instance(blocks, [("flow", count), ("initial", count)], blocks.coupled, cost,
                     {**provenance, **blocks.start}, xi_cost, xi_mass_cap)


def build_ergodic_lp(blocks: LpBlocks) -> LpInstance:
    """Long-run program with flow rows only; its value ignores the start point,
    and the blocks of any start point hold its B and c."""
    return _instance(blocks, [("flow", blocks.basis.count)],
                     stack_rows([(blocks.flow, None)], blocks.grid.atom_count),
                     blocks.cost, {"variant": "ergodic"})


def build_nonergodic_lp(blocks: LpBlocks,
                        xi_mass_cap: float = DEFAULT_XI_MASS_CAP) -> LpInstance:
    """Start-point-dependent program: flow rows plus initial-coupling rows.

    Infeasibility (possible when no admissible motion connects the feasible
    long-run measures back to y0 on the grid) surfaces as solution status.
    """
    return _coupled_lp(blocks, blocks.cost, np.zeros(blocks.grid.atom_count), xi_mass_cap,
                       {"variant": "nonergodic"})


def build_discounted_lp(blocks: LpBlocks, discount_rate: float) -> LpInstance:
    """Discounted-constraint program: rows (B + rate * C) g = 0 plus normalization."""
    if discount_rate <= 0:
        raise ProgramError("discount rate must be positive")
    rows = blocks.flow + discount_rate * blocks.initial
    return _instance(blocks, [("discounted", blocks.basis.count)],
                     stack_rows([(rows, None)], blocks.grid.atom_count),
                     blocks.cost, {"variant": "discounted", "rate": discount_rate,
                                   **blocks.start})


def build_perturbed_lp(blocks: LpBlocks, epsilon: float,
                       xi_mass_cap: float = DEFAULT_XI_MASS_CAP) -> LpInstance:
    """Regularised coupled program; epsilon = 0 reduces exactly to the unperturbed one."""
    if epsilon < 0:
        raise ProgramError("epsilon must be nonnegative")
    f_bound = blocks.grid.spec.bound_f
    return _coupled_lp(blocks, blocks.cost + 2.0 * epsilon,
                       np.full(blocks.grid.atom_count, f_bound * epsilon), xi_mass_cap,
                       {"variant": "perturbed", "epsilon": epsilon, "f_bound": f_bound})


# The options of every HiGHS model built here (_Model); HiGHS 1.12's names
# and numbering.  Max-value scaling fits the dense Legendre rows better than
# the default equilibration: each benchmark command takes 0.43-0.92x the dual
# simplex iterations (lp-annulus-m's solve 979 -> 573).  HiGHS's default
# feasibility tolerances (1e-7) let a vertex with a -4.6e-8 entry, or a
# master column at -3.5e-8 reduced cost, end optimal.
HIGHS_OPTIONS = {"output_flag": False, "presolve": "off",
                 "simplex_strategy": 1,  # dual simplex
                 "simplex_scale_strategy": 4,  # max value
                 "primal_feasibility_tolerance": FACE_TOL,
                 "dual_feasibility_tolerance": FACE_TOL}


# HiGHS model status -> solution status; any other is a tolerance-failure.  A
# model error counts as infeasible, as scipy's linprog reports it.
_STATUS = {HighsModelStatus.kOptimal: "optimal",
           HighsModelStatus.kInfeasible: "infeasible",
           HighsModelStatus.kModelError: "infeasible",
           HighsModelStatus.kUnbounded: "unbounded"}


class _Model:
    """A HiGHS model of  min cost.x  s.t.  row_lower <= a x <= row_upper, x >= 0
    with the options of HIGHS_OPTIONS (one that HiGHS rejects is a
    ProgramError), over the ``columns`` of ``a`` it holds, in its own order,
    which ``held`` marks: a restricted master that each :meth:`run` grows
    until it solves the LP over every column.  A run records its ``status``,
    simplex ``iterations``, HiGHS runs (``rounds``) and whether the full-LP
    ``fallback`` ran.  Columns go in with their nonzeros as numpy arrays; a
    model of every column reads ``a`` itself, not a copy, which would sit
    beside ``a`` at the build's memory peak."""

    def __init__(self, cost: np.ndarray, a: np.ndarray, row_lower: np.ndarray,
                 row_upper: np.ndarray, columns: np.ndarray):
        self.highs = _Highs()
        for option, setting in HIGHS_OPTIONS.items():
            if self.highs.setOptionValue(option, setting) != HighsStatus.kOk:
                raise ProgramError(f"HiGHS rejected the option {option} = {setting!r}")
        no_entries = np.zeros(0, dtype=np.int32)
        self.highs.addRows(a.shape[0], row_lower, row_upper, 0, no_entries, no_entries,
                           np.zeros(0))
        self.cost, self.a = cost, a
        self.columns, self.held = columns[:0], np.zeros(a.shape[1], dtype=bool)
        self.run(columns)

    def run(self, add=()) -> None:
        """Add the columns ``add`` and run from the current basis.  While the
        model ends optimal, the columns it lacks whose reduced cost c - A^T y
        (one mat-vec) is below -FACE_TOL * (1 + |c|) are added and it re-runs;
        one that does not end optimal gets every column, the full LP, and
        re-runs.  Columns are only added, so this ends."""
        self.iterations, self.rounds, self.fallback = 0, 0, False
        while True:
            if len(add):
                n_col = len(add)
                start, index, value = _csc_triple(self.a[:, add] if n_col < self.a.shape[1]
                                                  else self.a)
                self.highs.addCols(n_col, self.cost[add], np.zeros(n_col),
                                   np.full(n_col, np.inf), len(index), start[:-1], index, value)
                self.columns = np.concatenate([self.columns, add])
                self.held[add] = True
            self.highs.run()
            self.status = _STATUS.get(self.highs.getModelStatus(), "tolerance-failure")
            self.iterations += int(self.highs.getInfo().simplex_iteration_count)
            self.rounds += 1
            if self.held.all():
                return
            if self.status == "optimal":
                duals = np.asarray(self.highs.getSolution().row_dual)
                priced = self.cost - self.a.T @ duals < -FACE_TOL * (1.0 + np.abs(self.cost))
                add = np.flatnonzero(priced & ~self.held)
                if not len(add):
                    return
            else:
                add, self.fallback = np.flatnonzero(~self.held), True

    def set_costs(self, cost: np.ndarray) -> None:
        """Set the costs of every column of ``a``, then :meth:`run` warm."""
        self.cost = cost
        self.highs.changeColsCost(len(self.columns), np.arange(len(self.columns), dtype=np.int32),
                                  cost[self.columns])
        self.run()

    def set_row_upper(self, upper: np.ndarray) -> None:
        """Make the rows ``-inf <= a x <= upper``, then :meth:`run` warm."""
        for row, bound in enumerate(upper.tolist()):
            self.highs.changeRowBounds(row, -np.inf, bound)
        self.run()

    def point(self) -> tuple[np.ndarray, float]:
        """The point over every column of ``a`` (0 off the master) clipped at 0,
        and its most negative entry before that (0 if none is negative)."""
        x = np.zeros(self.a.shape[1])
        x[self.columns] = self.highs.getSolution().col_value
        return np.maximum(x, 0.0), min(0.0, float(np.min(x)))


def _csc_triple(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-wise (start, index, value) of the nonzeros of a dense matrix, in
    column then row order with int32 indices, as ``scipy.sparse.csc_array``
    stores them.  The nonzeros are picked by a boolean mask of the transpose,
    so no int64 (column, row) index pair is made for each of them."""
    nonzero = a.T != 0
    start = np.zeros(a.shape[1] + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(nonzero, axis=1), out=start[1:])
    rows = np.broadcast_to(np.arange(a.shape[0], dtype=np.int32), nonzero.shape)
    return start, rows[nonzero], a.T[nonzero]


def _residual_contract(instance: LpInstance, x: np.ndarray, raw_minimum: float,
                       reduced: np.ndarray) -> tuple[float, float, str | None]:
    """The primal residual and the complementarity (against ``reduced``) of the
    clipped point ``x``, and why it breaks the residual contract (a raw entry
    below -FACE_TOL or a residual above its tolerance), or None."""
    primal_residual = float(np.max(np.abs(instance.a_eq @ x - instance.eq_rhs)))
    complementarity = float(np.max(np.abs(x * reduced)))
    breach = None
    if raw_minimum < -FACE_TOL:
        breach = f"negative entry {raw_minimum:.3e} below -FACE_TOL ({-FACE_TOL:g})"
    elif primal_residual > PRIMAL_RESIDUAL_TOL or complementarity > COMPLEMENTARITY_TOL:
        breach = (f"residuals out of tolerance: primal {primal_residual:.3e}, "
                  f"complementarity {complementarity:.3e}")
    return primal_residual, complementarity, breach


def _minimal_mass_refinement(instance: LpInstance, objective: np.ndarray, reduced: np.ndarray,
                             value: float, cap_dual: float, columns: np.ndarray):
    """Minimal xi mass over the optimal face, solved cold on a :class:`_Model` of
    its own.

    The face is the columns whose reduced cost against the main solve's duals
    is zero (at most FACE_TOL relative to their cost).  By complementary
    slackness every feasible point on them is optimal, provided a cap row
    with a nonzero dual stays tight, so such a row enters as an equality.
    The model starts from the face columns among ``columns``, the main
    model's when it ended: they hold the main point's support, so this master
    is feasible, and it is the whole face when the main model held every
    column.  Its run prices the rest of the face against its own duals.

    Returns the LpSolution fields of the refinement and the refined (gamma,
    xi, raw minimum), or None unless the model ends optimal at a point that
    meets the main point's :func:`_residual_contract` and whose objective is
    ``value`` to within DUALITY_GAP_TOL."""
    n_g = instance.n_gamma
    face = np.flatnonzero(reduced <= FACE_TOL * (1.0 + np.abs(objective)))
    rhs = instance.eq_rhs
    if cap_dual < -FACE_TOL:
        rhs = np.append(rhs, instance.xi_mass_cap)
    model = _Model((face >= n_g).astype(float), instance.matrix[:len(rhs), face], rhs, rhs,
                   np.flatnonzero(np.isin(face, columns)))
    stats = dict(refine_iterations=model.iterations, refine_master_columns=len(model.columns),
                 refine_face_columns=len(face), refine_rounds=model.rounds)
    if model.status != "optimal":
        return stats, None
    on_face, raw_minimum = model.point()
    x = np.zeros(len(objective))
    x[face] = on_face
    if (_residual_contract(instance, x, raw_minimum, reduced)[2] is not None
            or abs(objective @ x - value) > DUALITY_GAP_TOL * max(1.0, abs(value))):
        return stats, None  # the caller keeps the unrefined vertex
    return stats, (DiscreteMeasure(instance.grid, x[:n_g]),
                   DiscreteMeasure(instance.grid, x[n_g:]), raw_minimum)


def log_solution(instance: LpInstance, solution: LpSolution) -> None:
    """One INFO line with the LP's size, its master and xi seed, how it was
    started and how it ended."""
    refinement = ("not run" if solution.refine_iterations is None
                  else f"{solution.refine_iterations} iterations, master "
                       f"{solution.refine_master_columns} of {solution.refine_face_columns} "
                       f"face columns, {solution.refine_rounds} rounds")
    log.info("%s: %d rows, master %d of %d columns, %s, %d pricing rounds, fallback %s, "
             "start %s, %d iterations, status %s, raw minimum %.3g, xi_canonical %s, "
             "cap_dual %.6g, refinement %s", lp_name(instance), len(instance.row_meta),
             solution.master_columns, instance.n_gamma + instance.n_xi, solution.xi_seed,
             solution.pricing_rounds, "ran" if solution.fallback else "not run",
             solution.start, solution.iterations, solution.status, solution.raw_minimum,
             solution.xi_canonical, solution.cap_dual, refinement)


def needs_refinement(instance: LpInstance) -> bool:
    """Whether the LP's xi block carries no cost, so its xi gets the minimal-mass
    refinement (and a chain solves it cold and hands nothing on from it)."""
    return instance.has_xi and not np.any(instance.objective_xi)


def _seed_atoms(grid: Grid, n_col: int, rows: int, y0) -> np.ndarray | None:
    """The gamma atoms a cold model of ``n_col`` columns over ``rows``
    constraints starts from, or None for every atom.

    An LP with fewer than MASTER_MIN_COLUMNS_PER_ROW columns per constraint
    holds every column.  A larger one starts from a restricted master: the
    atoms of every MASTER_STATE_STRIDE-th state in lattice order (on the
    annulus, every 4th angle of every ring) and of y0's snapped state, if
    there is a y0."""
    if n_col < MASTER_MIN_COLUMNS_PER_ROW * rows:
        return None
    seeded = np.zeros(grid.state_points.shape[0], dtype=bool)
    seeded[::MASTER_STATE_STRIDE] = True
    if y0 is not None:
        seeded[snap_to_state_grid(grid, y0)[0]] = True
    return np.flatnonzero(np.repeat(seeded, grid.control_points.shape[0]))


def _corner_controls(controls: np.ndarray) -> np.ndarray:
    """Which rows of a control grid are corners of its box: the first or last
    grid value on every axis."""
    return np.all((controls == controls.min(axis=0)) | (controls == controls.max(axis=0)), axis=1)


def _xi_seed(grid: Grid, atoms: np.ndarray | None) -> tuple[np.ndarray | None, str]:
    """The xi atoms a cold model starts from (None for every atom), and the
    name its INFO line gives them.

    When the system's dynamics are multilinear in the controls
    (``SystemSpec.dynamics_multilinear``), these are the atoms whose control
    is a corner of the control grid (:func:`_corner_controls`).  An xi
    column's entries are grad phi(y) . f(y, u) in the initial rows and 1 in
    the cap row, and its cost is the same at every control, so with f
    multilinear in u the column at a grid control is the combination of the
    columns at the corners, at the same state, with the multilinear
    interpolation weights of u, which are nonnegative and sum to 1.  Any
    point is then matched, row for row and in cost, by one on the corners,
    and the corners' master already has the LP's optimum; the run's pricing
    checks that over every column all the same.  Otherwise the xi block
    starts from ``atoms``, the gamma block's seed."""
    controls = grid.control_points
    if grid.spec.dynamics_multilinear:
        corner = _corner_controls(controls)
        return (np.flatnonzero(np.tile(corner, grid.state_points.shape[0])),
                f"xi at {np.count_nonzero(corner)} of {len(controls)} controls")
    return atoms, "xi at every atom" if atoms is None else "xi on the sub-lattice"


def _seed_columns(instance: LpInstance) -> tuple[np.ndarray, str]:
    """The columns a cold model starts from, in the order it holds them, and
    the name of its xi seed (``no xi`` without an xi block): the gamma
    columns of the :func:`_seed_atoms` of the LP's equality rows, then the xi
    columns of :func:`_xi_seed`.  The cost a gamma column pays at an interior
    control may be below every corner's (box-custom's ``0.5*u1^2``), so the
    gamma block keeps its seed."""
    n_g = instance.n_gamma
    atoms = _seed_atoms(instance.grid, n_g + instance.n_xi, len(instance.row_meta),
                        instance.provenance.get("y0"))
    gamma = np.arange(n_g) if atoms is None else atoms
    if not instance.has_xi:
        return gamma, "no xi"
    xi, name = _xi_seed(instance.grid, atoms)
    return np.concatenate([gamma, n_g + (np.arange(n_g) if xi is None else xi)]), name


@dataclass
class _Chain:
    """The :class:`_Model` a chain hands on and the LP whose optimal basis it holds."""

    model: _Model | None = None
    holder: LpInstance | None = None


def solve_chain(instances) -> list[LpSolution]:
    """Solve LPs in turn, handing one :class:`_Model` from each to the next.

    An LP with the matrix object and cap of the LP before it, where that one
    ended optimal, only sets the model's costs (:meth:`_Model.set_costs`):
    so in a sweep over costs alone, such as the epsilon sweep, only the first
    LP is solved cold, and the restricted master grows across the sweep.  An
    LP whose xi gets the minimal-mass refinement is solved cold and hands
    nothing on.  A chain of one is one cold solve."""
    chain = _Chain()
    return [solve(instance, chain) for instance in instances]


def solve(instance: LpInstance, chain: _Chain | None = None,
          refine: bool = True) -> LpSolution:
    """Solve one LP: cold on a :class:`_Model` of its own that starts from the
    columns of :func:`_seed_columns`, or warm on the model of a
    :func:`solve_chain` when that allows it.  The LP's ``matrix`` is read in
    place, never copied whole.  The model's run prices every column before
    any status is reported, so each column's certificate slack is at least
    -FACE_TOL * (1 + |c|); the point, its residuals and the reduced costs are
    taken over every column.  The point is HiGHS's clipped at 0, and
    ``raw_minimum`` records its most negative entry before that.

    When the xi block carries no cost and ``refine`` holds, xi is the
    minimal-mass one of :func:`_minimal_mass_refinement`; the value, the duals
    and the cap dual stay those of the main solve.  A caller that reads only
    the value passes ``refine=False``, and its xi is then not canonical.
    Optimality is demoted to tolerance-failure when the returned point breaks
    the :func:`_residual_contract` or the duality gap exceeds
    DUALITY_GAP_TOL."""
    n_g, has_xi = instance.n_gamma, instance.has_xi
    objective = instance.objective_gamma
    lower, upper = instance.eq_rhs, instance.eq_rhs
    if has_xi:  # the last row: xi mass <= cap
        objective = np.concatenate([objective, instance.objective_xi])
        lower = np.append(lower, -np.inf)
        upper = np.append(upper, instance.xi_mass_cap)

    weightless = needs_refinement(instance)
    seed, xi_seed = _seed_columns(instance)
    held = None if chain is None else chain.holder
    # the coupled LPs of one LpBlocks share their matrix object, which fixes
    # every row but the cap's bound
    if held is not None and not weightless and held.matrix is instance.matrix \
            and held.xi_mass_cap == instance.xi_mass_cap:
        model, start = chain.model, f"warm from {lp_name(held)}"
        model.set_costs(objective)
    else:
        model, start = _Model(objective, instance.matrix, lower, upper, seed), "cold"
    master = dict(master_columns=len(model.columns), xi_seed=xi_seed,
                  pricing_rounds=model.rounds, fallback=model.fallback)
    optimal = model.status == "optimal"
    if chain is not None:
        chain.model, chain.holder = ((model, instance) if optimal and not weightless
                                     else (None, None))
    highs = model.highs
    message = highs.modelStatusToString(highs.getModelStatus())
    if not optimal:
        return LpSolution(model.status, None, None, None, None, 0.0, False, False, None,
                          np.inf, np.inf, model.iterations, message, start=start, **master)

    x, raw_minimum = model.point()
    duals = np.asarray(highs.getSolution().row_dual)
    value = float(highs.getInfo().objective_function_value)
    gamma = DiscreteMeasure(instance.grid, x[:n_g])
    xi = DiscreteMeasure(instance.grid, x[n_g:]) if has_xi else None
    row_duals = duals[:len(instance.row_meta)]
    cap_dual = float(duals[-1]) if has_xi else 0.0

    reduced = objective - instance.a_eq.T @ row_duals
    dual_objective = float(instance.eq_rhs @ row_duals)
    if has_xi:
        reduced = reduced - instance.matrix[-1] * cap_dual
        dual_objective += float(instance.xi_mass_cap * cap_dual)

    # With a weightless xi block its mass is a free degree of freedom and the
    # solver may park at an arbitrary vertex (including the cap).  A secondary
    # mass-minimising solve over the optimal face yields a canonical pair, and
    # only then does a binding cap signal anything structural.
    xi_mass_canonical = has_xi and not weightless
    refinement = {}
    if weightless and refine:
        refinement, refined = _minimal_mass_refinement(instance, objective, reduced, value,
                                                       cap_dual, model.columns)
        xi_mass_canonical = refined is not None
        if refined is not None:
            gamma, xi, raw_minimum = refined
            x = np.concatenate([gamma.weights, xi.weights])
    primal_residual, complementarity, breach = _residual_contract(instance, x, raw_minimum,
                                                                  reduced)
    # binding = the cap influences the value (nonzero shadow price) or even the
    # minimal-mass xi needs the whole budget
    cap_binding = bool(has_xi
                       and (cap_dual < -FACE_TOL
                            or (xi_mass_canonical
                                and xi.total_mass >= instance.xi_mass_cap * (1.0 - FACE_TOL))))

    if breach is None and abs(value - dual_objective) > DUALITY_GAP_TOL * max(1.0, abs(value)):
        breach = f"duality gap {value - dual_objective:.3e} exceeds tolerance"
    status, message = ("optimal", message) if breach is None else ("tolerance-failure", breach)
    return LpSolution(status, value, gamma, xi, row_duals, cap_dual, cap_binding,
                      xi_mass_canonical, dual_objective, primal_residual, complementarity,
                      model.iterations, message, start=start, raw_minimum=raw_minimum,
                      **master, **refinement)


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


def extract_dual_certificate(solution: LpSolution, instance: LpInstance) -> DualCertificate:
    """Assemble (mu, psi, eta) from equality-row duals.

    With the solver's sign convention (marginals are sensitivities of the
    optimal value to the right-hand side), the certificate coefficients are
    the negated initial-row and flow-row duals, and mu is the normalization
    dual.  Applies to ergodic (psi = 0), initial-coupled and perturbed
    programs; the discounted variant has no certificate of this shape.  The
    coefficients are over the LP's basis, and y0 is its snapped start point
    (None for the ergodic LP).
    """
    if solution.status != "optimal":
        raise ProgramError(f"cannot extract a certificate from a {solution.status} solve")
    variant = instance.provenance.get("variant")
    if variant == "discounted":
        raise ProgramError("discounted programs do not yield (mu, psi, eta) certificates")
    duals = solution.row_duals
    norm_row = instance.rows_of_kind("normalization")[0]
    mu = float(duals[norm_row])
    psi = np.zeros(instance.basis.count)
    eta = np.zeros(instance.basis.count)
    for i in instance.rows_of_kind("initial"):
        psi[instance.row_meta[i].basis_index] = -duals[i]
    for i in instance.rows_of_kind("flow"):
        eta[instance.row_meta[i].basis_index] = -duals[i]
    y0 = instance.provenance.get("y0")
    y0 = None if y0 is None else np.asarray(y0, dtype=float)
    return DualCertificate(mu=mu, psi_coeffs=psi, eta_coeffs=eta, y0=y0,
                           epsilon=float(instance.provenance.get("epsilon", 0.0)),
                           f_bound=float(instance.provenance.get("f_bound", 0.0)))


def certificate_slacks(cert: DualCertificate, grid: Grid, basis: BasisSpec,
                       spec: SystemSpec, ys: np.ndarray | None = None):
    """Each state's minimum slack of the two certificate inequality families
    over the grid controls.

    The states are ``ys`` (default: the grid's state points, which gives the
    grid atoms).  psi, grad psi and grad eta are evaluated once per state
    (:func:`~occlp.basis.polynomials_at`), the dynamics and the cost on the
    states against the controls by broadcasting, so no (state, control) row
    is built.  A family multilinear in u is taken at the control grid's
    corners only (:func:`_corner_controls`): the monotonicity family when
    ``spec.dynamics_multilinear``, the lower-bound family when
    ``spec.cost_multilinear`` too.  At a fixed state such a family's minimum
    over the control box is at a vertex, so each minimum is still the one
    over every grid control.  Returns (lower-bound family minima,
    monotonicity family minima), one per state.
    """
    if ys is None:
        ys = grid.state_points
    controls = grid.control_points
    every = np.ones(controls.shape[0], dtype=bool)
    monotonicity = _corner_controls(controls) if spec.dynamics_multilinear else every
    lower = monotonicity if spec.cost_multilinear else every
    pairs = (ys[:, None, :], controls[lower][None, :, :])
    f_vals = spec.dynamics_at(*pairs)  # (m, n, k)
    values, grads = polynomials_at(basis, np.stack([cert.psi_coeffs, cert.eta_coeffs]), ys)
    # grad psi and grad eta per state, axis first: (m, n, 1) against f_vals
    grad_psi, grad_eta = grads[..., None]
    psi_at_y0 = (float(polynomials_at(basis, cert.psi_coeffs, cert.y0[None, :])[0][0, 0])
                 if cert.y0 is not None else 0.0)
    family1 = (spec.cost_at(*pairs) + (psi_at_y0 - values[0])[:, None]
               + rate_along(grad_eta, f_vals) - cert.mu
               + 2.0 * cert.epsilon)
    family2 = (rate_along(grad_psi, f_vals[..., monotonicity[lower]])
               + cert.f_bound * cert.epsilon)
    return family1.min(axis=1), family2.min(axis=1)


def certificate_offgrid_report(cert: DualCertificate, grid: Grid, basis: BasisSpec,
                               spec: SystemSpec, density_factor: int = 10,
                               chunk: int = 8192):
    """Diagnostic only: worst slacks on a sample ~density_factor times denser
    than the grid.  The finite certificate is not expected to be feasible off
    the grid; the report quantifies how far off it is.

    The slacks are taken ``chunk`` sample states at a time, one call of
    :func:`certificate_slacks` per chunk, at the control grid's corners where
    a family is multilinear in u, and only their running minima are kept, so
    memory is bounded by one block of ``chunk`` × controls pairs, not by the
    sample.  ``sample_count`` is still every state × control pair, since the
    minima cover them all.
    """
    if spec.region.kind == "annulus":
        n_r, n_theta = grid.resolution
        ys = spec.region.lattice((max(2, n_r * density_factor), n_theta * density_factor))
    else:
        lo, hi = spec.region.bounding_box()
        ys = lattice([np.linspace(lo[j], hi[j], r * density_factor)
                      for j, r in enumerate(grid.resolution)])
    low = mono = np.inf
    for start in range(0, ys.shape[0], chunk):
        f1, f2 = certificate_slacks(cert, grid, basis, spec, ys[start:start + chunk])
        low, mono = min(low, float(np.min(f1))), min(mono, float(np.min(f2)))
    return {"min_lower_bound_slack": low,
            "min_monotonicity_slack": mono,
            "sample_count": ys.shape[0] * grid.control_points.shape[0]}


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


def membership_residual(measures, blocks: LpBlocks) -> list[MembershipResidual]:
    """How far each of a sequence of probability measures on the blocks' grid
    is from the two feasible sets; one result per measure, in order.

    ``w_residual`` needs no optimisation.  ``omega_residual`` is the optimal t
    of: minimise t subject to -t <= (C g + B x)_b <= t for every basis row,
    x >= 0, t >= 0.  These LPs share their matrix and costs and differ only in
    the row bounds (C g), so they are one HiGHS model: the first measure's LP
    is solved cold, and each later one changes the row bounds
    (:meth:`_Model.set_row_upper`) and re-runs from the previous optimal
    basis, which stays dual feasible.  The :class:`_Model` is a restricted
    master: the t column and the xi columns of :func:`_xi_seed`, the control
    grid's corners when the dynamics are multilinear in the controls, else
    those of the :func:`_seed_atoms` of the basis rows, each a constraint of
    two rows.  The corners are exact here too: an xi column enters these
    rows as B x, and one at another control is a convex combination of the
    corner columns at its state.  Any master is feasible, as t absorbs every
    row.  Each run adds the xi columns that price negative, so each omega is
    the optimum over every column.  Every measure is checked to be a
    probability measure before any model is built.  Each run logs one INFO
    line, which names the xi seed.  B and C, at the blocks' start point, are
    read from ``blocks``.
    """
    measures = list(measures)
    for k, measure in enumerate(measures):
        if not measure.is_probability(tol=1e-7):
            raise ProgramError(f"measure {k} mass {measure.total_mass} is not 1")
    grid, basis = blocks.grid, blocks.basis
    flow, initial = blocks.flow, blocks.initial
    # variables: xi (n) then t (1); rows: B x - t <= -C g, then -B x - t <= C g
    ones = np.ones((basis.count, 1))
    a_ub = np.vstack([np.hstack([flow, -ones]),
                      np.hstack([-flow, -ones])])
    objective = np.concatenate([np.zeros(grid.atom_count), [1.0]])
    lower = np.full(a_ub.shape[0], -np.inf)
    atoms, xi_seed = _xi_seed(grid, _seed_atoms(grid, a_ub.shape[1], basis.count,
                                                blocks.y0_requested))
    columns = np.arange(a_ub.shape[1]) if atoms is None else np.append(atoms, grid.atom_count)
    model, results = None, []
    for k, measure in enumerate(measures):
        target = initial @ measure.weights  # (count,)
        upper = np.concatenate([-target, target])
        if model is None:
            model, start = _Model(objective, a_ub, lower, upper, columns), "cold"
        else:
            model.set_row_upper(upper)
            start = f"warm from measure {k - 1}"
        omega = float(model.highs.getInfo().objective_function_value)
        log.info("membership of measure %d: %d rows, master %d of %d columns, %s, %d rounds, "
                 "start %s, %d iterations, status %s, omega_residual %.6g", k, a_ub.shape[0],
                 len(model.columns), a_ub.shape[1], xi_seed, model.rounds, start,
                 model.iterations, model.status, omega)
        if model.status != "optimal":
            raise ProgramError("membership auxiliary program failed: "
                               + model.highs.modelStatusToString(model.highs.getModelStatus()))
        results.append(MembershipResidual(
            w_residual=float(np.max(np.abs(flow @ measure.weights))), omega_residual=omega))
    return results
