import logging
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse import csc_array

from occlp import cli, exprs, oracle, programs
from occlp.cli import run_study
from occlp.basis import basis_for_region, grad_matrix, phi_matrix
from occlp.config import build_system, parse_config
from occlp.grid import DiscreteMeasure, Grid, LpBlocks, build_grid
from occlp.programs import (CERTIFICATE_TOL, PRIMAL_RESIDUAL_TOL, LpInstance, ProgramError,
                            RowMeta, build_discounted_lp, build_ergodic_lp,
                            build_nonergodic_lp, build_perturbed_lp, certificate_offgrid_report,
                            certificate_slacks, extract_dual_certificate, lp_name,
                            membership_residual, snap_to_state_grid, solve, solve_chain,
                            verify_weak_duality)
from occlp.system import ControlRegion, StateRegion, SystemSpec, lattice

from systems import built


def product_rows(ys, us):
    """Every (state, control) pair as two row-aligned arrays, state-major: the
    materialised product that the broadcast evaluations are checked against."""
    return np.repeat(ys, us.shape[0], axis=0), np.tile(us, (ys.shape[0], 1))


def _stacked(spec, kind, y, u, shape):
    """The system's dynamics or cost, compiled for numpy and run on the
    components ``y[i]`` and ``u[i]``, stacked into (expressions, *shape): the
    row-paired batch evaluation (components of materialised rows) and the
    state × control product evaluation (components as columns against rows)
    that one broadcast evaluator replaces."""
    nodes = spec.dynamics if kind == "dynamics" else (spec.cost,)
    out = np.empty((len(nodes), *shape))
    for j, col in enumerate(exprs._compile(nodes, numpy_mode=True)(y, u)):
        out[j] = col
    return out


def dynamics_rows(spec, ys, us):
    """f at row-paired points as C-contiguous (n, m) rows, the batch way."""
    return np.ascontiguousarray(_stacked(spec, "dynamics", ys.T, us.T, ys.shape[:1]).T)


def cost_rows(spec, ys, us):
    """k at row-paired points, the batch way."""
    return _stacked(spec, "cost", ys.T, us.T, ys.shape[:1])[0]


@pytest.fixture(scope="module")
def frozen_setup():
    spec = built("frozen", lower=(0.0, 0.0), upper=(1.0, 1.0), cost="y1 + u1^2")
    g = build_grid(spec, 2, 9)
    b = basis_for_region(spec.region, 4)
    return spec, g, b


@pytest.fixture(scope="module")
def rotation_setup():
    spec = built("rotation")
    g = build_grid(spec, (5, 64), 9)
    b = basis_for_region(spec.region, 4)
    return spec, g, b


@pytest.fixture(scope="module")
def rotation_solved(rotation_setup):
    spec, g, b = rotation_setup
    instance = build_nonergodic_lp(LpBlocks(g, b, (1.0, 0.0)))
    return instance, solve(instance)


def brute_force_atom_minimum(grid, spec):
    return float(np.min(spec.cost_at(grid.atom_states, grid.atom_controls)))


def certificate_holds(cert, grid, basis, spec):
    """Both slack families at every grid atom are at least -CERTIFICATE_TOL."""
    return min(map(np.min, certificate_slacks(cert, grid, basis, spec))) >= -CERTIFICATE_TOL


# ---------------------------------------------------------------------------
# solve contract


def test_ergodic_frozen_equals_exhaustive_scan(frozen_setup):
    spec, g, b = frozen_setup
    solution = solve(build_ergodic_lp(LpBlocks(g, b, (0.25, 0.25))))
    assert solution.status == "optimal"
    assert solution.value == pytest.approx(brute_force_atom_minimum(g, spec), abs=1e-9)
    # zero dynamics leave only the simplex: optimum sits on the cheapest atom
    best = int(np.argmax(solution.gamma.weights))
    y, u = g.atom(best)
    assert spec.cost_at(y, u) == pytest.approx(solution.value, abs=1e-9)


def test_ergodic_constant_cost(frozen_setup):
    _spec, _g, b = frozen_setup
    const = built("frozen", lower=(0.0, 0.0), upper=(1.0, 1.0), cost="3")
    solution = solve(build_ergodic_lp(LpBlocks(build_grid(const, 2, 9), b, (0.25, 0.25))))
    assert solution.value == pytest.approx(3.0, abs=1e-9)


def test_infeasible_instance_surfaces_as_status(frozen_setup):
    _spec, g, b = frozen_setup
    n = g.atom_count
    meta = (RowMeta("flow", 0), RowMeta("normalization", None))
    instance = LpInstance(grid=g, basis=b, objective_gamma=np.ones(n), objective_xi=None,
                          matrix=np.ones((2, n)), eq_rhs=np.array([2.0, 1.0]),
                          row_meta=meta, xi_mass_cap=None)
    assert solve(instance).status == "infeasible"


def test_instance_validation(frozen_setup):
    _spec, g, b = frozen_setup
    n = g.atom_count
    with pytest.raises(ProgramError):
        LpInstance(grid=g, basis=b, objective_gamma=np.ones(n), objective_xi=None,
                   matrix=np.ones((1, n)), eq_rhs=np.array([1.0]),
                   row_meta=(RowMeta("flow", 0),), xi_mass_cap=None)  # no normalization
    with pytest.raises(ProgramError):
        LpInstance(grid=g, basis=b, objective_gamma=np.ones(n), objective_xi=None,
                   matrix=np.ones((1, n)), eq_rhs=np.array([1.0]),
                   row_meta=(RowMeta("bogus", None),), xi_mass_cap=None)
    meta = (RowMeta("flow", 0), RowMeta("normalization", None))
    with pytest.raises(ProgramError, match="xi block needs an xi_mass_cap"):
        LpInstance(grid=g, basis=b, objective_gamma=np.ones(n), objective_xi=np.zeros(n),
                   matrix=np.ones((3, 2 * n)), eq_rhs=np.array([0.0, 1.0]),
                   row_meta=meta, xi_mass_cap=None)  # every xi block has its cap row


def test_highs_binding_has_every_method_programs_calls():
    # the solver is scipy's private HiGHS binding; the declared scipy floor
    # must ship every method programs.py calls on it
    from scipy.optimize._highspy._core import _Highs
    called = set(re.findall(r"\bhighs\.(\w+)\(", Path(programs.__file__).read_text()))
    assert {"addRows", "addCols", "run", "changeColsCost", "changeRowBounds",
            "setOptionValue"} <= called
    assert not [name for name in called if not callable(getattr(_Highs, name, None))]


def _options_of(highs) -> dict:
    return {option: highs.getOptionValue(option)[1] for option in programs.HIGHS_OPTIONS}


def test_every_highs_run_reads_back_the_option_table(monkeypatch):
    # the main solve, its re-runs after pricing, the refinement, a warm chain
    # step and the membership LP: each model runs with the whole table.  The
    # xi block starts from the sub-lattice, whose masters need re-runs
    spec = built("rotation")
    g, b, y0 = build_grid(spec, (5, 64), 9), basis_for_region(spec.region, 4), (0.0, 1.25)
    _not_multilinear(monkeypatch, spec)
    runs, highs_type = [], programs._Highs

    class Recording:
        """A HiGHS model that records its options each time it runs."""

        def __init__(self):
            self.highs = highs_type()

        def __getattr__(self, name):
            return getattr(self.highs, name)

        def run(self):
            runs.append(_options_of(self.highs))
            return self.highs.run()
    monkeypatch.setattr(programs, "_Highs", Recording)
    blocks = LpBlocks(g, b, y0)
    solution = solve(build_nonergodic_lp(blocks))
    assert solution.refine_rounds > 1
    assert len(runs) == solution.pricing_rounds + solution.refine_rounds
    chained = solve_chain([build_perturbed_lp(blocks, eps) for eps in (0.1, 0.01)])
    assert chained[0].pricing_rounds > 1 and chained[1].start == "warm from perturbed[eps=0.1]"
    assert len(runs) == (solution.pricing_rounds + solution.refine_rounds
                         + sum(s.pricing_rounds for s in chained))
    before = len(runs)
    membership_residual([solution.gamma], blocks)
    assert len(runs) > before
    assert all(options == programs.HIGHS_OPTIONS for options in runs)
    assert programs.HIGHS_OPTIONS["simplex_scale_strategy"] == 4  # max value
    assert programs.HIGHS_OPTIONS["primal_feasibility_tolerance"] == programs.FACE_TOL
    assert programs.HIGHS_OPTIONS["dual_feasibility_tolerance"] == programs.FACE_TOL


@pytest.mark.parametrize("option,setting", [("simplex_scale_strategy", 5),
                                            ("simplex_scale_stratgy", 4)])
def test_an_option_highs_rejects_is_a_program_error(frozen_setup, monkeypatch, option, setting):
    spec, g, b = frozen_setup
    monkeypatch.setitem(programs.HIGHS_OPTIONS, option, setting)
    with pytest.raises(ProgramError, match=f"option {option} = {setting}$"):
        solve(build_ergodic_lp(LpBlocks(g, b, (0.25, 0.25))))


def _run_python(code: str, *args: str, env=None) -> str:
    """Run code in a fresh interpreter that imports occlp from this tree; its stdout.
    ``env`` replaces the inherited environment, apart from ``PYTHONPATH``."""
    env = os.environ if env is None else env
    src = str(Path(programs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                          capture_output=True, text=True, timeout=120,
                          env={**env, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("setting", [None, "2"])
def test_importing_occlp_pins_blas_to_one_thread_unless_set(setting):
    # the largest mat-vec of a study (55 rows by 11,520 columns) wakes an
    # OpenBLAS worker thread unless the pin took effect before numpy loaded
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    out = _run_python("""
        import os
        import occlp
        import numpy as np
        np.ones((55, 11520)) @ np.ones(11520)
        tasks = os.listdir("/proc/self/task") if os.path.isdir("/proc/self/task") else None
        print(os.environ["OPENBLAS_NUM_THREADS"], -1 if tasks is None else len(tasks))
    """, env=env)
    value, threads = out.split()
    assert value == (setting or "1")
    if setting is None and threads != "-1":
        assert threads == "1"


SMALL_ROTATION = """
[system]
name = rotation
[grid]
state_resolution = [3, 16]
control_resolution = 5
[basis]
degree = 3
[program]
variants = [ergodic, nonergodic, discounted, perturbed]
epsilons = [0.1, 0.0]
"""


def test_a_solve_imports_neither_scipy_optimize_nor_scipy_sparse(tmp_path):
    # the HiGHS extension is loaded from its file, so a command process never
    # pays for the package import of scipy.optimize (about 0.6 s)
    config_path = tmp_path / "study.conf"
    config_path.write_text(SMALL_ROTATION)
    out = _run_python("""
        import sys
        from occlp.cli import run_study
        from occlp.config import build_system, parse_config
        with open(sys.argv[1], encoding="utf-8") as fh:
            bundle = run_study(parse_config(fh.read()), sections=("solve",))
        assert bundle.all_passed(), bundle.invariants
        print(*sys.modules)
    """, str(config_path))
    loaded = out.split()
    assert "occlp.programs" in loaded
    assert not [name for name in loaded
                if name.startswith(("scipy.optimize", "scipy.sparse"))
                and not name.startswith("scipy.optimize._highspy._core.")]


@pytest.mark.parametrize("first", ["occlp.programs", "scipy.optimize"])
def test_highs_binding_is_the_one_scipy_optimize_uses(first):
    out = _run_python(f"""
        import {first}
        import occlp.programs
        import scipy.optimize
        assert occlp.programs._Highs is scipy.optimize._highspy._core._Highs
        print(scipy.optimize.linprog([1, 1], A_eq=[[1, 1]], b_eq=[1]).status)
    """)
    assert out.split() == ["0"]


def test_missing_highs_extension_names_the_scipy_floor(tmp_path, monkeypatch):
    with pytest.raises(ImportError, match=r"scipy>=1\.15"):
        programs._load_from_file(programs._HIGHS_CORE, str(tmp_path))
    # no scipy at all
    monkeypatch.setattr(programs.importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match=r"scipy>=1\.15"):
        programs._scipy_dir()


def test_importing_the_cli_does_not_import_the_scipy_package():
    # the HiGHS extension and the version string are loaded from their files,
    # so scipy/__init__ never runs in a command process
    out = _run_python("""
        import sys
        import occlp.cli
        print(occlp.cli._environment_stamp()["scipy"])
        print(*sorted(sys.modules))
    """)
    version, loaded = out.splitlines()
    assert [name for name in loaded.split() if name.split(".")[0] == "scipy"
            and not name.startswith("scipy.optimize._highspy._core.")] == []
    import scipy
    assert version == scipy.__version__


@st.composite
def _dense_matrices(draw):
    rows, columns = draw(st.integers(1, 60)), draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(rows, columns))
    a[rng.random((rows, columns)) < draw(st.sampled_from([0.0, 0.5, 0.95, 1.0]))] = 0.0
    a[draw(st.lists(st.integers(0, rows - 1), max_size=rows)), :] = 0.0
    a[:, draw(st.lists(st.integers(0, columns - 1), max_size=columns))] = 0.0
    return a


@settings(max_examples=60, deadline=None)
@given(_dense_matrices())
def test_csc_triple_matches_scipy_sparse(a):
    start, index, value = programs._csc_triple(a)
    reference = csc_array(a)
    assert start.dtype == index.dtype == np.int32
    np.testing.assert_array_equal(start, reference.indptr)
    np.testing.assert_array_equal(index, reference.indices)
    np.testing.assert_array_equal(value, reference.data)


def test_solver_duality_gap_contract(rotation_solved):
    _instance, solution = rotation_solved
    assert solution.status == "optimal"
    assert abs(solution.value - solution.dual_objective) <= 1e-8 * max(1.0, abs(solution.value))
    assert solution.primal_residual <= 1e-7
    assert solution.complementarity_residual <= 1e-6


def test_returned_point_meets_residual_contract():
    # at this size and degree the refined point must still meet the primal
    # residual tolerance, and it does: the refinement is accepted
    spec = built("rotation")
    g = build_grid(spec, (5, 128), 9)
    b = basis_for_region(spec.region, 6)
    instance = build_nonergodic_lp(LpBlocks(g, b, (1.0, 0.0)))
    solution = solve(instance)
    assert solution.status == "optimal"
    x = np.concatenate([solution.gamma.weights, solution.xi.weights])
    a_eq = instance.a_eq
    assert np.max(np.abs(a_eq @ x - instance.eq_rhs)) <= PRIMAL_RESIDUAL_TOL
    membership_residual([solution.gamma], LpBlocks(g, b, (1.0, 0.0)))
    assert solution.xi_canonical


BOX_CUSTOM = """
[system]
name = custom
region = box
lower = [-1.0, -1.0]
upper = [1.0, 1.0]
dynamics = [-y1 + u1, -y2 + y1]
cost = y2^2 + 0.5*u1^2
"""


@pytest.fixture(scope="module")
def degree_six_setups():
    rotation = built("rotation")
    box = build_system(parse_config(BOX_CUSTOM).system)
    setups = {f"{n_r}x128": (rotation, (n_r, 128)) for n_r in (5, 9)}
    setups["box"] = (box, (16, 16))
    return {name: (spec, build_grid(spec, res, 9), basis_for_region(spec.region, 6))
            for name, (spec, res) in setups.items()}


DEGREE_SIX_CASES = {"5x128-east": ("5x128", (1.0, 0.0)), "5x128-north": ("5x128", (0.0, 1.0)),
                    "5x128-west": ("5x128", (-1.0, 0.0)), "5x128-south": ("5x128", (0.0, -1.0)),
                    "9x128-east": ("9x128", (1.0, 0.0)),
                    **{f"box-{y1:g},{y2:g}": ("box", (y1, y2))
                       for y1, y2 in ((0.5, -0.5), (-0.5, 0.5), (0.25, 0.75), (-0.75, -0.25),
                                      (0.0, 0.0))}}


@pytest.mark.parametrize("setup,y0", DEGREE_SIX_CASES.values(), ids=DEGREE_SIX_CASES.keys())
def test_degree_six_start_points_solve_with_canonical_xi(degree_six_setups, setup, y0):
    spec, g, b = degree_six_setups[setup]
    instance = build_nonergodic_lp(LpBlocks(g, b, y0))
    solution = solve(instance)
    assert solution.status == "optimal" and solution.xi_canonical
    x = np.concatenate([solution.gamma.weights, solution.xi.weights])
    a_eq = instance.a_eq
    assert np.max(np.abs(a_eq @ x - instance.eq_rhs)) <= PRIMAL_RESIDUAL_TOL
    if oracle.rotates(spec):
        reference = oracle.rotation_level_value(spec, float(np.dot(y0, y0)))
        assert solution.value == pytest.approx(reference.value, abs=1e-6)
    # an independent cold solve of the same minimal-mass LP over the exact
    # optimal face: the objective row is capped at the optimal value itself
    n = g.atom_count
    mass = np.concatenate([np.zeros(n), np.ones(n)])
    objective = np.concatenate([instance.objective_gamma, instance.objective_xi])
    cold = linprog(mass, A_eq=a_eq, b_eq=instance.eq_rhs,
                   A_ub=np.vstack([objective, mass]),
                   b_ub=[solution.value, instance.xi_mass_cap],
                   bounds=(0, None), method="highs")
    assert cold.status == 0
    assert solution.xi.total_mass == pytest.approx(cold.fun, abs=1e-8)


def test_box_start_point_reports_a_feasible_discounted_vertex(degree_six_setups, monkeypatch):
    # at y0 = (0.25, 0.75) HiGHS's default scaling and 1e-7 feasibility
    # tolerances end optimal at a vertex with a -4.6e-8 column, whose value is
    # 3.2e-5 relative too low; the point contract demotes that vertex
    spec, g, b = degree_six_setups["box"]
    instance = build_discounted_lp(LpBlocks(g, b, (0.25, 0.75)), 0.05)
    solution = solve(instance)
    assert solution.status == "optimal"
    assert -programs.FACE_TOL <= solution.raw_minimum <= 0.0
    assert solution.gamma.total_mass == pytest.approx(1.0, abs=1e-9)
    assert solution.value == pytest.approx(0.02460236071067628, rel=1e-7)
    defaults = {"output_flag": False, "presolve": "off", "simplex_strategy": 1}
    monkeypatch.setattr(programs, "HIGHS_OPTIONS", defaults)
    loose = solve(instance)
    assert loose.raw_minimum < -programs.FACE_TOL and loose.status == "tolerance-failure"
    assert "below -FACE_TOL" in loose.message
    # the residual is the reported (clipped) point's
    for reported in (solution, loose):
        residual = np.max(np.abs(instance.a_eq @ reported.gamma.weights - instance.eq_rhs))
        assert reported.primal_residual == residual


# ---------------------------------------------------------------------------
# the coupled program


def test_nonergodic_frozen_matches_frozen_oracle(frozen_setup):
    spec, g, b = frozen_setup
    y0 = (0.25, 0.25)  # a grid state
    solution = solve(build_nonergodic_lp(LpBlocks(g, b, y0)))
    assert solution.status == "optimal"
    reference = oracle.frozen_value(spec, y0)
    assert solution.value == pytest.approx(reference.value, abs=1e-8)
    # the optimal measure reproduces the start point's moments up to degree d
    phis = phi_matrix(b, g.atom_states)
    moments = phis @ solution.gamma.weights
    target = phi_matrix(b, np.array([y0]))[:, 0]
    assert np.max(np.abs(moments - target)) <= 1e-7


def test_nonergodic_snaps_off_grid_start(frozen_setup):
    spec, g, b = frozen_setup
    idx, snapped = snap_to_state_grid(g, (0.26, 0.27))
    assert np.allclose(snapped, (0.25, 0.25))
    blocks = LpBlocks(g, b, (0.26, 0.27))
    # every LP built on the blocks is read-only; the coupled rows and the
    # provenance of each LP with a start point take the snapped y0
    for instance in (build_ergodic_lp(blocks), build_nonergodic_lp(blocks),
                     build_discounted_lp(blocks, 0.05), build_perturbed_lp(blocks, 0.1)):
        assert not instance.matrix.flags.writeable
        if instance.provenance["variant"] != "ergodic":
            assert instance.provenance["y0"] == tuple(snapped.tolist())
            assert instance.provenance["y0_requested"] == (0.26, 0.27)
    solution = solve(build_nonergodic_lp(blocks))
    assert solution.status == "optimal"
    assert solution.value == pytest.approx(oracle.frozen_value(spec, snapped).value, abs=1e-8)


def test_nonergodic_rotation_start_circle_pins_value(rotation_setup, rotation_solved):
    spec, g, b = rotation_setup
    _instance, solution = rotation_solved
    assert solution.status == "optimal"
    reference = oracle.rotation_level_value(spec, 1.0)
    assert reference.value == pytest.approx(-1.0, abs=1e-9)
    assert solution.value == pytest.approx(reference.value, abs=0.05)
    # the ergodic program ignores the start circle and digs to the outer rim
    erg = solve(build_ergodic_lp(LpBlocks(g, b, (1.0, 0.0))))
    assert erg.value == pytest.approx(-1.5, abs=1e-8)
    assert erg.value <= solution.value + 1e-7


def test_nonergodic_constant_cost(rotation_setup):
    _spec, _g, b = rotation_setup
    const = built("rotation", cost="3")
    solution = solve(build_nonergodic_lp(LpBlocks(build_grid(const, (5, 64), 9), b, (1.0, 0.0))))
    assert solution.value == pytest.approx(3.0, abs=1e-8)


def test_support_concentrates_on_start_circle(rotation_setup, rotation_solved):
    _spec, g, _b = rotation_setup
    _instance, solution = rotation_solved
    radii = np.linalg.norm(g.atom_states, axis=1)
    on_circle = np.abs(radii - 1.0) <= 1e-9
    assert solution.gamma.weights[on_circle].sum() >= 0.999


def test_ergodic_system_value_is_start_independent():
    # contrast system: every start point can reach the optimal equilibrium, so
    # the coupled value collapses to the start-free one, with the transport
    # mass growing with the distance to cover
    spec = built("scalar-drift", cost="y1^2")
    g = build_grid(spec, 9, 9)
    b = basis_for_region(spec.region, 4)
    ergodic = solve(build_ergodic_lp(LpBlocks(g, b, g.state_points[4]))).value
    assert ergodic == pytest.approx(0.0, abs=1e-8)
    masses = []
    for y0 in (g.state_points[4, 0], g.state_points[7, 0]):
        solution = solve(build_nonergodic_lp(LpBlocks(g, b, (y0,))))
        assert solution.status == "optimal"
        assert solution.value == pytest.approx(ergodic, abs=1e-7)
        masses.append(solution.xi.total_mass)
    assert masses[0] == pytest.approx(0.0, abs=1e-9)  # starting at the optimum
    assert masses[1] > 0.1  # starting away from it needs transport


# ---------------------------------------------------------------------------
# discounted program


def test_discounted_frozen_equals_nonergodic(frozen_setup):
    spec, g, b = frozen_setup
    y0 = (0.25, 0.25)
    base = solve(build_nonergodic_lp(LpBlocks(g, b, y0))).value
    for rate in (0.01, 0.5, 10.0):
        solution = solve(build_discounted_lp(LpBlocks(g, b, y0), rate))
        assert solution.status == "optimal"
        assert solution.value == pytest.approx(base, abs=1e-7)


def test_discounted_large_rate_concentrates_at_start():
    spec = built("scalar-drift", cost="y1^2")
    g = build_grid(spec, 9, 9)
    b = basis_for_region(spec.region, 4)
    y0 = (g.state_points[6, 0],)  # a grid state away from the cost minimum
    start_cost = np.min(spec.cost_at(np.array(y0), g.control_points))
    gaps = []
    for rate in (1.0, 10.0, 100.0):
        solution = solve(build_discounted_lp(LpBlocks(g, b, y0), rate))
        assert solution.status == "optimal"
        gaps.append(abs(solution.value - start_cost))
    assert gaps[0] >= gaps[1] >= gaps[2] - 1e-12
    assert gaps[-1] <= 0.05


def test_discounted_constant_cost(rotation_setup):
    _spec, _g, b = rotation_setup
    const = built("rotation", cost="3")
    solution = solve(build_discounted_lp(LpBlocks(build_grid(const, (5, 64), 9), b, (1.0, 0.0)),
                                         0.1))
    assert solution.value == pytest.approx(3.0, abs=1e-8)


def test_discounted_rejects_nonpositive_rate(rotation_setup):
    spec, g, b = rotation_setup
    with pytest.raises(ProgramError):
        build_discounted_lp(LpBlocks(g, b, (1.0, 0.0)), 0.0)


# ---------------------------------------------------------------------------
# perturbed program


def test_perturbed_zero_epsilon_is_identical(rotation_setup):
    spec, g, b = rotation_setup
    base = build_nonergodic_lp(LpBlocks(g, b, (1.0, 0.0)))
    pert = build_perturbed_lp(LpBlocks(g, b, (1.0, 0.0)), 0.0)
    assert np.array_equal(base.objective_gamma, pert.objective_gamma)
    assert np.array_equal(base.objective_xi, pert.objective_xi)
    assert np.array_equal(base.matrix, pert.matrix)
    assert np.array_equal(base.eq_rhs, pert.eq_rhs)
    assert base.row_meta == pert.row_meta


def test_perturbed_sweep_monotone_and_convergent(rotation_setup):
    spec, g, b = rotation_setup
    values = {}
    for eps in (0.1, 0.01, 0.001, 0.0):
        solution = solve(build_perturbed_lp(LpBlocks(g, b, (1.0, 0.0)), eps))
        assert solution.status == "optimal"
        values[eps] = solution.value
    assert values[0.0] <= values[0.001] + 1e-7
    assert values[0.001] <= values[0.01] + 1e-7
    assert values[0.01] <= values[0.1] + 1e-7
    assert all(v >= values[0.0] - 1e-7 for v in values.values())
    assert abs(values[0.001] - values[0.0]) <= 1e-2


# ---------------------------------------------------------------------------
# the epsilon sweep on one model

SWEEP_EPSILONS = (0.1, 0.03, 0.01, 0.001, 0.0)


@pytest.fixture(scope="module")
def cold_perturbed(rotation_setup):
    spec, g, b = rotation_setup
    return {eps: solve(build_perturbed_lp(LpBlocks(g, b, (1.0, 0.0)), eps))
            for eps in SWEEP_EPSILONS}


def _solve_section(text: str, setup, variants=("nonergodic", "perturbed")):
    """The study's solve section on a parsed config and a prebuilt (spec, grid, basis)."""
    _spec, g, b = setup
    bundle = cli.ReportBundle(config={})
    cfg = parse_config(text)
    results = cli._solve_section(bundle, LpBlocks(g, b, cfg.program.y0), cfg, variants, 1)
    return bundle, results


def _assert_member_matches(instance, solution, cold, setup):
    spec, g, b = setup
    assert solution.status == "optimal"
    assert solution.value == pytest.approx(cold.value, abs=1e-9)
    assert certificate_holds(extract_dual_certificate(solution, instance), g, b, spec)
    x = np.concatenate([solution.gamma.weights, solution.xi.weights])
    a_eq = instance.a_eq
    assert np.max(np.abs(a_eq @ x - instance.eq_rhs)) <= PRIMAL_RESIDUAL_TOL


@settings(max_examples=12, deadline=None)
@given(st.lists(st.sampled_from(SWEEP_EPSILONS), min_size=1, max_size=5, unique=True))
def test_warm_sweep_matches_cold_solves(rotation_setup, cold_perturbed, epsilons):
    spec, g, b = rotation_setup
    # a chain in the drawn order: each member with a priced xi block re-runs
    # the model of the one before it; eps = 0 is refined, so it runs cold and
    # hands nothing on
    blocks = LpBlocks(g, b, (1.0, 0.0))
    instances = [build_perturbed_lp(blocks, eps) for eps in epsilons]
    previous = None
    for instance, eps, solution in zip(instances, epsilons, solve_chain(instances)):
        _assert_member_matches(instance, solution, cold_perturbed[eps], rotation_setup)
        warm = previous is not None and previous != 0.0 and eps != 0.0
        assert solution.start == (f"warm from perturbed[eps={previous:g}]" if warm else "cold")
        previous = eps

    # the study: one chain in decreasing epsilon, entries in report order
    text = f"[program]\nvariants = [nonergodic, perturbed]\nepsilons = {list(epsilons)}\n"
    bundle, results = _solve_section(text, rotation_setup)
    names = [f"perturbed[eps={eps:g}]" for eps in epsilons]
    assert list(results) == ["nonergodic", *names]
    for eps, name in zip(epsilons, names):
        _assert_member_matches(*results[name], cold_perturbed[eps], rotation_setup)
    assert bundle.all_passed(), [e for e in bundle.invariants if not e["passed"]]
    if len(epsilons) >= 2:
        rows = bundle.tables["epsilon_sweep"]["rows"]
        assert [row[:2] for row in rows] == [[eps, results[f"perturbed[eps={eps:g}]"][1].value]
                                             for eps in sorted(epsilons)]


def test_weightless_xi_members_are_solved_cold(frozen_setup):
    # bound_f = 0: every perturbed xi block is weightless and gets the
    # minimal-mass refinement, so each is solved cold and hands nothing on
    spec, g, b = frozen_setup
    assert spec.bound_f == 0.0
    epsilons = (0.1, 0.01, 0.001)
    blocks = LpBlocks(g, b, (0.25, 0.25))
    instances = [build_perturbed_lp(blocks, eps) for eps in epsilons]
    text = ("[system]\nname = frozen\ncost = y1 + u1^2\nlower = [0.0, 0.0]\n"
            "upper = [1.0, 1.0]\n[grid]\nstate_resolution = [2, 2]\n[program]\n"
            "variants = [perturbed]\ny0 = [0.25, 0.25]\nepsilons = [0.1, 0.01, 0.001]\n")
    _, results = _solve_section(text, frozen_setup, ("perturbed",))
    for chained in (solve_chain(instances), [results[lp_name(i)][1] for i in instances]):
        for instance, solution in zip(instances, chained):
            cold = solve(instance)
            assert solution.start == "cold" and solution.refine_iterations is not None
            assert solution.value == cold.value
            assert solution.cap_dual == cold.cap_dual
            assert solution.xi_canonical == cold.xi_canonical
            assert solution.xi.total_mass == cold.xi.total_mass


def test_chain_with_other_rows_starts_cold(rotation_setup):
    # rows are compared by the identity of their matrix, so LPs built on two
    # LpBlocks never share a model, even with the same grid, basis and y0
    spec, g, b = rotation_setup
    for second_y0 in ((0.0, 1.0), (1.0, 0.0)):
        instances = [build_perturbed_lp(LpBlocks(g, b, (1.0, 0.0)), 0.1),
                     build_perturbed_lp(LpBlocks(g, b, second_y0), 0.01)]
        chained = solve_chain(instances)
        assert [solution.start for solution in chained] == ["cold", "cold"]
        assert chained[1].value == solve(instances[1]).value


def test_perturbed_constant_cost_shift(frozen_setup):
    _spec, _g, b = frozen_setup
    const = built("frozen", lower=(0.0, 0.0), upper=(1.0, 1.0), cost="3")
    solution = solve(build_perturbed_lp(LpBlocks(build_grid(const, 2, 9), b, (0.25, 0.25)),
                                        0.01))
    assert solution.xi.total_mass <= 1e-9  # no transport needed from a grid start
    assert solution.value == pytest.approx(3.0 + 2 * 0.01, abs=1e-8)


def test_perturbed_rejects_negative_epsilon(rotation_setup):
    spec, g, b = rotation_setup
    with pytest.raises(ProgramError):
        build_perturbed_lp(LpBlocks(g, b, (1.0, 0.0)), -0.1)


# ---------------------------------------------------------------------------
# certificates


def test_certificate_constant_cost(frozen_setup):
    _spec, _g, b = frozen_setup
    const = built("frozen", lower=(0.0, 0.0), upper=(1.0, 1.0), cost="3")
    g = build_grid(const, 2, 9)
    instance = build_nonergodic_lp(LpBlocks(g, b, (0.25, 0.25)))
    solution = solve(instance)
    cert = extract_dual_certificate(solution, instance)
    assert cert.mu == pytest.approx(3.0, abs=1e-8)
    assert certificate_holds(cert, g, b, const)


def test_certificate_rotation(rotation_setup, rotation_solved):
    spec, g, b = rotation_setup
    instance, solution = rotation_solved
    cert = extract_dual_certificate(solution, instance)
    assert cert.mu == pytest.approx(solution.value, abs=1e-6)
    f1, f2 = certificate_slacks(cert, g, b, spec)
    assert np.min(f1) >= -1e-6
    assert np.min(f2) >= -1e-6
    assert verify_weak_duality(solution.value, cert.mu)
    report = certificate_offgrid_report(cert, g, b, spec, density_factor=4)
    assert report["sample_count"] > g.atom_count
    assert report["min_lower_bound_slack"] <= 1e-6  # tight somewhere near the optimum


def test_certificate_frozen_equals_scan(frozen_setup):
    spec, g, b = frozen_setup
    instance = build_nonergodic_lp(LpBlocks(g, b, (0.25, 0.25)))
    solution = solve(instance)
    cert = extract_dual_certificate(solution, instance)
    assert cert.mu == pytest.approx(oracle.frozen_value(spec, (0.25, 0.25)).value, abs=1e-7)


def test_certificate_perturbed_families_use_epsilon_slack(rotation_setup):
    spec, g, b = rotation_setup
    instance = build_perturbed_lp(LpBlocks(g, b, (1.0, 0.0)), 0.01)
    solution = solve(instance)
    cert = extract_dual_certificate(solution, instance)
    assert cert.epsilon == 0.01
    assert cert.f_bound == spec.bound_f
    assert certificate_holds(cert, g, b, spec)
    assert cert.mu == pytest.approx(solution.value, abs=1e-6)


def _reference_slacks(cert, basis, spec, ys, us):
    """Both slack families with the basis evaluated at every atom row (ys, us)."""
    f_vals = dynamics_rows(spec, ys, us)
    grads = grad_matrix(basis, ys)
    grad_eta = np.einsum("b,bnm->nm", cert.eta_coeffs, grads)
    grad_psi = np.einsum("b,bnm->nm", cert.psi_coeffs, grads)
    psi_at_y0 = (float(cert.psi_coeffs @ phi_matrix(basis, cert.y0[None, :])[:, 0])
                 if cert.y0 is not None else 0.0)
    family1 = (cost_rows(spec, ys, us) + (psi_at_y0 - cert.psi_coeffs @ phi_matrix(basis, ys))
               + np.einsum("nm,nm->n", grad_eta, f_vals) - cert.mu + 2.0 * cert.epsilon)
    family2 = np.einsum("nm,nm->n", grad_psi, f_vals) + cert.f_bound * cert.epsilon
    return family1, family2


@pytest.fixture(scope="module")
def box_drift_setup():
    spec = SystemSpec(dynamics_text=("-y1 + u1", "-y2 + y1"), cost_id="y2^2 + 0.5*u1^2",
                      region=StateRegion(kind="box", lower=(-1.0, -1.0), upper=(1.0, 1.0)),
                      control=ControlRegion(lower=(-1.0,), upper=(1.0,)),
                      bound_f=3.0, bound_k=1.5)
    g = build_grid(spec, (6, 6), 5)
    b = basis_for_region(spec.region, 4)
    return spec, g, b


@pytest.mark.parametrize("setup,y0", [("rotation_setup", (1.0, 0.0)),
                                      ("box_drift_setup", (0.5, -0.5))])
@pytest.mark.parametrize("epsilon", [None, 0.1])
def test_certificate_slacks_evaluate_the_basis_once_per_state(request, monkeypatch, setup, y0,
                                                              epsilon):
    spec, g, b = request.getfixturevalue(setup)
    instance = (build_nonergodic_lp(LpBlocks(g, b, y0)) if epsilon is None
                else build_perturbed_lp(LpBlocks(g, b, y0), epsilon))
    solution = solve(instance)
    cert = extract_dual_certificate(solution, instance)
    assert cert.y0 is not None and cert.epsilon == (epsilon or 0.0)
    f1, f2 = certificate_slacks(cert, g, b, spec)
    r1, r2 = _reference_slacks(cert, b, spec, g.atom_states, g.atom_controls)
    assert np.array_equal(f1, r1) and np.array_equal(f2, r2)

    report = certificate_offgrid_report(cert, g, b, spec, density_factor=4)
    if spec.region.kind == "annulus":
        n_r, n_theta = g.resolution
        ys = spec.region.lattice((n_r * 4, n_theta * 4))
    else:
        ys = lattice([np.linspace(-1.0, 1.0, r * 4) for r in g.resolution])
    r1, r2 = _reference_slacks(cert, b, spec, *product_rows(ys, g.control_points))
    reference = {"min_lower_bound_slack": float(np.min(r1)),
                 "min_monotonicity_slack": float(np.min(r2)),
                 "sample_count": r1.shape[0]}
    assert report == reference
    # 7 states a block: many blocks, and a ragged last one, which together
    # are the sample in order
    assert ys.shape[0] % 7
    blocks = []

    def recording(cert, grid, basis, spec, block):
        blocks.append(block)
        return certificate_slacks(cert, grid, basis, spec, block)

    monkeypatch.setattr(programs, "certificate_slacks", recording)
    assert certificate_offgrid_report(cert, g, b, spec, density_factor=4, chunk=7) == reference
    assert {len(block) for block in blocks[:-1]} == {7}
    assert np.array_equal(np.vstack(blocks), ys)


def _product_rows_slacks(cert, grid, basis, spec, ys):
    """Both slack families with every (state, control) pair built as a row, and
    psi, grad psi and grad eta repeated over the controls: the formulation that
    ``certificate_slacks`` broadcasts, kept as its bitwise reference."""
    n_controls = grid.control_points.shape[0]
    ys_full, us_full = product_rows(ys, grid.control_points)
    f_vals = dynamics_rows(spec, ys_full, us_full)
    cost = cost_rows(spec, ys_full, us_full)
    grads = grad_matrix(basis, ys)
    psi_vals = np.repeat(cert.psi_coeffs @ phi_matrix(basis, ys), n_controls)
    grad_eta = np.repeat(np.einsum("b,bnm->nm", cert.eta_coeffs, grads), n_controls, axis=0)
    grad_psi = np.repeat(np.einsum("b,bnm->nm", cert.psi_coeffs, grads), n_controls, axis=0)
    psi_at_y0 = (float(cert.psi_coeffs @ phi_matrix(basis, cert.y0[None, :])[:, 0])
                 if cert.y0 is not None else 0.0)
    family1 = (cost + (psi_at_y0 - psi_vals)
               + np.einsum("nm,nm->n", grad_eta, f_vals) - cert.mu
               + 2.0 * cert.epsilon)
    family2 = (np.einsum("nm,nm->n", grad_psi, f_vals)
               + cert.f_bound * cert.epsilon)
    return family1, family2


@pytest.fixture(scope="module")
def transcendental_setup():
    spec = SystemSpec(dynamics_text=("sin(3*y2) * u1 - y1 + cos(u1)",
                                     "exp(-y1^2) - sqrt(1 + y2^2) * u1 + atan2(y1, 2 + u1)"),
                      cost_id="exp(y1) * u1^2 + sqrt(1.5 + y2) + sin(y1*u1)",
                      region=StateRegion(kind="box", lower=(-1.0, -1.0), upper=(1.0, 1.0)),
                      control=ControlRegion(lower=(-1.0,), upper=(1.0,)),
                      bound_f=5.0, bound_k=5.0)
    return spec, build_grid(spec, (7, 5), 5), basis_for_region(spec.region, 4)


@pytest.mark.parametrize("setup", ["rotation_setup", "box_drift_setup", "transcendental_setup",
                                   "frozen_setup"])
@pytest.mark.parametrize("points", ["grid", "offgrid"])
@pytest.mark.parametrize("kind", ["coupled", "perturbed", "ergodic", "zero"])
def test_broadcast_slacks_are_bitwise_the_product_rows_slacks(request, setup, points, kind):
    spec, g, b = request.getfixturevalue(setup)
    rng = np.random.default_rng(len(setup) + 7 * len(kind))
    lo, hi = spec.region.bounding_box()
    y0 = g.state_points[g.state_points.shape[0] // 3]
    coeffs = (np.zeros((2, b.count)) if kind == "zero"
              else rng.normal(size=(2, b.count)) * 10.0 ** rng.integers(-3, 2, size=(2, b.count)))
    cert = programs.DualCertificate(
        mu=0.0 if kind == "zero" else float(rng.normal()),
        psi_coeffs=np.zeros(b.count) if kind == "ergodic" else coeffs[0],
        eta_coeffs=coeffs[1], y0=None if kind == "ergodic" else y0,
        epsilon=0.1 if kind == "perturbed" else 0.0,
        f_bound=spec.bound_f if kind == "perturbed" else 0.0)
    ys = (g.state_points if points == "grid"
          else lattice([np.linspace(lo[j], hi[j], 4 * r) for j, r in enumerate(g.resolution)]))
    got = certificate_slacks(cert, g, b, spec, None if points == "grid" else ys)
    want = _product_rows_slacks(cert, g, b, spec, ys)
    for family, reference in zip(got, want):
        assert family.shape == reference.shape == (ys.shape[0] * g.control_points.shape[0],)
        assert family.tobytes() == reference.tobytes()


def test_product_evaluators_are_bitwise_the_batch_evaluators(request):
    # one numpy evaluator per expression kind: on row-paired points it gives
    # the batch evaluation's floats, and on a state × control product, by
    # broadcasting, both the product evaluation's and the batch evaluation's
    # of the materialised rows
    for setup in ("rotation_setup", "frozen_setup", "box_drift_setup", "transcendental_setup"):
        spec, g, _b = request.getfixturevalue(setup)
        lo, hi = spec.region.bounding_box()
        ys = np.random.default_rng(3).uniform(lo, hi, size=(257, spec.dim_state))
        us = g.control_points
        pairs = (ys.shape[0], us.shape[0])
        ys_full, us_full = product_rows(ys, us)
        for kind, evaluate in (("dynamics", spec.dynamics_at),
                               ("cost", lambda y, u: spec.cost_at(y, u)[None])):
            batch = _stacked(spec, kind, ys_full.T, us_full.T, ys_full.shape[:1])
            product = _stacked(spec, kind, ys.T[:, :, None], us.T[:, None, :], pairs)
            paired = evaluate(ys_full, us_full)
            broadcast = evaluate(ys[:, None], us[None])
            assert paired.shape == batch.shape and broadcast.shape == product.shape
            assert paired.tobytes() == batch.tobytes()
            assert broadcast.tobytes() == product.tobytes()
            assert broadcast.tobytes() == batch.reshape(product.shape).tobytes()
    # a constant component broadcasts to every pair
    frozen = built("frozen", cost="y1 + u1^2")
    assert np.array_equal(frozen.dynamics_at(ys[:, None], us[None]),
                          np.zeros((2, *pairs)))


def test_certificate_requires_optimal(frozen_setup):
    spec, g, b = frozen_setup
    n = g.atom_count
    meta = (RowMeta("flow", 0), RowMeta("normalization", None))
    bad = LpInstance(grid=g, basis=b, objective_gamma=np.ones(n), objective_xi=None,
                     matrix=np.ones((2, n)), eq_rhs=np.array([2.0, 1.0]),
                     row_meta=meta, xi_mass_cap=None)
    solution = solve(bad)
    with pytest.raises(ProgramError):
        extract_dual_certificate(solution, bad)


def test_certificate_not_defined_for_discounted(frozen_setup):
    spec, g, b = frozen_setup
    instance = build_discounted_lp(LpBlocks(g, b, (0.25, 0.25)), 1.0)
    solution = solve(instance)
    with pytest.raises(ProgramError):
        extract_dual_certificate(solution, instance)


def test_weak_duality_helper():
    assert verify_weak_duality(1.0, 1.0)
    assert verify_weak_duality(1.0, 0.5)
    assert not verify_weak_duality(0.5, 1.0)


# ---------------------------------------------------------------------------
# membership residuals


def test_membership_of_lp_optimum(rotation_setup, rotation_solved):
    spec, g, b = rotation_setup
    _instance, solution = rotation_solved
    [res] = membership_residual([solution.gamma], LpBlocks(g, b, (1.0, 0.0)))
    assert res.w_residual <= 1e-7
    assert res.omega_residual <= 1e-7


def test_membership_flags_flow_violations():
    spec = built("scalar-drift", cost="y1^2")
    g = build_grid(spec, 9, 5)
    b = basis_for_region(spec.region, 4)
    uniform = DiscreteMeasure(g, np.full(g.atom_count, 1.0 / g.atom_count))
    [res] = membership_residual([uniform], LpBlocks(g, b, (0.0,)))
    assert res.w_residual > 0.1


def test_membership_requires_probability(rotation_setup):
    spec, g, b = rotation_setup
    with pytest.raises(ProgramError):
        membership_residual([DiscreteMeasure(g, np.zeros(g.atom_count))],
                            LpBlocks(g, b, (1.0, 0.0)))


def test_omega_residual_shrinks_under_grid_refinement():
    # empirical measure of a whole loop: coarser angular binning leaves a
    # larger best-fit coupling residual
    import math

    from occlp.simulate import ConstantPolicy, empirical_occupational_measure, integrate

    spec = built("rotation")
    residuals = []
    for n_theta in (8, 16, 32):
        g = build_grid(spec, (5, n_theta), 3)
        b = basis_for_region(spec.region, 4)
        traj = integrate(spec, (1.0, 0.0), ConstantPolicy(1.0), 2 * math.pi, 1e-3)
        emp = empirical_occupational_measure(traj, g)
        residuals.append(membership_residual([emp], LpBlocks(g, b, (1.0, 0.0)))[0].omega_residual)
    assert residuals[0] >= residuals[1] >= residuals[2] - 1e-12
    assert residuals[-1] <= 0.05


def _loop_measures(g):
    """Empirical measures of growing windows of unit-speed rotation from (1, 0),
    then the uniform measure: the sequence is not monotone in anything."""
    import math

    from occlp.simulate import ConstantPolicy, empirical_occupational_measure, integrate

    spec = g.spec
    out = [empirical_occupational_measure(
        integrate(spec, (1.0, 0.0), ConstantPolicy(1.0), turns * 2 * math.pi, 1e-3), g)
        for turns in (0.25, 1.0, 0.5, 3.0)]
    return out + [DiscreteMeasure(g, np.full(g.atom_count, 1.0 / g.atom_count))]


def test_membership_of_many_measures_matches_cold_solves(monkeypatch, caplog):
    # one model, warm after the first measure, against a cold model of every
    # column per measure; the coarse angular grid leaves the whole loop a
    # nonzero omega residual.  With the rotation's dynamics multilinear in u1
    # the model starts from the xi columns at the controls -1 and 1 and the t
    # column, whatever the crossover.  Seeded as if they were not, the model
    # holds every column below the crossover; with the crossover lowered to 0
    # it starts from every 4th state and y0's, and pricing must grow it
    spec = built("rotation")
    g = build_grid(spec, (5, 8), 3)
    b = basis_for_region(spec.region, 4)
    n_controls = g.control_points.shape[0]
    # the second measure sits on the 4th angle of the 3rd ring, off the sub-lattice
    off_lattice = np.zeros(g.atom_count)
    off_lattice[(2 * 8 + 3) * n_controls:(2 * 8 + 4) * n_controls] = 1.0 / n_controls
    loop = _loop_measures(g)
    measures = [loop[0], DiscreteMeasure(g, off_lattice), *loop[1:]]
    with monkeypatch.context() as full:
        _full_model(full)
        cold = [membership_residual([measure], LpBlocks(g, b, (1.0, 0.0)))[0]
                for measure in measures]
    for multilinear, crossover in ((True, 0), (True, np.inf), (False, np.inf), (False, 0)):
        monkeypatch.setitem(spec.__dict__, "dynamics_multilinear", multilinear)
        monkeypatch.setattr(programs, "MASTER_MIN_COLUMNS_PER_ROW", crossover)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="occlp.programs"):
            together = membership_residual(measures, LpBlocks(g, b, (1.0, 0.0)))
        assert len(together) == len(measures)
        for res, reference in zip(together, cold):
            assert res.w_residual == pytest.approx(reference.w_residual, abs=1e-12)
            assert res.omega_residual == pytest.approx(reference.omega_residual, abs=1e-12)
        found = [re.search(r"master (\d+) of 121 columns, ([^,]+), (\d+) rounds, start (\w+)",
                           r.getMessage()).groups() for r in caplog.records]
        sizes = [int(size) for size, _, _, _ in found]
        assert sizes == sorted(sizes)
        if multilinear:
            # 40 states at 2 controls, and t
            assert all(found_ == ("81", "xi at 2 of 3 controls", "1", "cold" if k == 0 else "warm")
                       for k, found_ in enumerate(found))
        elif crossover:
            assert all(found_ == ("121", "xi at every atom", "1", "cold" if k == 0 else "warm")
                       for k, found_ in enumerate(found))
        else:
            assert sizes[-1] < 121
            assert {seed for _, seed, _, _ in found} == {"xi on the sub-lattice"}
            # pricing grew the master on the warm re-run of the off-lattice measure
            assert found[1][2:] == ("2", "warm") and sizes[1] > sizes[0]
    assert together[2].omega_residual > 1e-3
    assert membership_residual([], LpBlocks(g, b, (1.0, 0.0))) == []


@pytest.mark.parametrize("bad_at", [0, 2, 4])
def test_membership_checks_every_measure_before_building(monkeypatch, bad_at):
    spec = built("rotation")
    g = build_grid(spec, (5, 8), 3)
    b = basis_for_region(spec.region, 4)
    measures = _loop_measures(g)
    measures[bad_at] = DiscreteMeasure(g, 0.5 * measures[bad_at].weights)

    def no_model():
        raise AssertionError("a HiGHS model was built")
    monkeypatch.setattr(programs, "_Highs", no_model)
    with pytest.raises(ProgramError, match=f"measure {bad_at} mass"):
        membership_residual(measures, LpBlocks(g, b, (1.0, 0.0)))


# ---------------------------------------------------------------------------
# mass cap


def test_xi_mass_is_canonical_minimum(rotation_solved):
    _instance, solution = rotation_solved
    # the steering transport from (1,0) to the antipode occupies about a half
    # loop of unit-speed time; far below the cap, and certainly not at it
    assert 0.0 < solution.xi.total_mass < 10.0
    assert not solution.cap_binding
    assert solution.xi_canonical


def test_tiny_cap_binds_and_is_flagged(rotation_setup):
    spec, g, b = rotation_setup
    instance = build_nonergodic_lp(LpBlocks(g, b, (1.0, 0.0)), xi_mass_cap=1.0)
    solution = solve(instance)
    if solution.status == "optimal":
        assert solution.cap_binding
    else:
        assert solution.status == "infeasible"


@pytest.mark.parametrize("cap", [1.0, 2.0, 2.4])
def test_binding_cap_keeps_the_refined_point_optimal(rotation_setup, cap):
    # a tight cap row has a nonzero dual, so every optimal point spends the
    # whole budget: the refined point must too, at the optimal value
    spec, g, b = rotation_setup
    instance = build_nonergodic_lp(LpBlocks(g, b, (1.0, 0.0)), xi_mass_cap=cap)
    solution = solve(instance)
    assert solution.status == "optimal" and solution.xi_canonical
    assert solution.cap_dual < 0.0 and solution.cap_binding
    assert solution.xi.total_mass == pytest.approx(cap, abs=1e-8)
    objective = np.concatenate([instance.objective_gamma, instance.objective_xi])
    x = np.concatenate([solution.gamma.weights, solution.xi.weights])
    assert objective @ x == pytest.approx(solution.value, abs=programs.DUALITY_GAP_TOL)


# ---------------------------------------------------------------------------
# the restricted master

def _full_model(monkeypatch):
    """Make every LP start from all of its columns, as below the crossover on
    a system whose dynamics are not multilinear in the controls."""
    monkeypatch.setattr(programs, "MASTER_MIN_COLUMNS_PER_ROW", np.inf)
    monkeypatch.setattr(programs, "_xi_seed", lambda grid, atoms: (atoms, "xi at every atom"))


def _not_multilinear(monkeypatch, spec):
    """Make the LPs on ``spec`` seed their xi block as on a system whose
    dynamics are not multilinear in the controls."""
    monkeypatch.setitem(spec.__dict__, "dynamics_multilinear", False)


def _priced_out(instance, solution) -> bool:
    """Whether no column of the LP prices below -FACE_TOL * (1 + |c|) against
    the solution's duals, c - A^T y - cap dual.  This is solve's contract:
    the master's pricing bounds the columns outside the model, and HiGHS's
    dual feasibility tolerance, FACE_TOL, the model's own."""
    objective = instance.objective_gamma
    if instance.has_xi:
        objective = np.concatenate([objective, instance.objective_xi])
    reduced = objective - instance.a_eq.T @ solution.row_duals
    if instance.has_xi:
        reduced[instance.n_gamma:] -= solution.cap_dual
    return bool(np.all(reduced >= -programs.FACE_TOL * (1.0 + np.abs(objective))))


@pytest.fixture(scope="module")
def master_setups():
    """An acceptance LP grid, an M-size grid and a box above the crossover
    (16 x 16 at degree 4: 154-159 columns per row)."""
    rotation = built("rotation")
    box = build_system(parse_config(BOX_CUSTOM).system)
    setups = {"acceptance": (rotation, (5, 64), 4, (1.0, 0.0)),
              "m-size": (rotation, (5, 128), 6, (0.0, 1.25)),
              "box": (box, (16, 16), 4, (0.5, -0.5))}
    return {name: (spec, build_grid(spec, res, 9), basis_for_region(spec.region, degree), y0)
            for name, (spec, res, degree, y0) in setups.items()}


def _variants(spec, g, b, y0):
    blocks = LpBlocks(g, b, y0)
    return [build_ergodic_lp(blocks), build_nonergodic_lp(blocks),
            build_discounted_lp(blocks, 0.05), build_perturbed_lp(blocks, 0.1)]


@pytest.mark.parametrize("setup", ["acceptance", "m-size", "box"])
def test_master_matches_the_full_model(master_setups, monkeypatch, setup):
    spec, g, b, y0 = master_setups[setup]
    instances = _variants(spec, g, b, y0)
    crossover = programs.MASTER_MIN_COLUMNS_PER_ROW
    mastered = [solve(instance) for instance in instances]
    _full_model(monkeypatch)
    for instance, solution in zip(instances, mastered):
        columns = instance.n_gamma + instance.n_xi
        assert columns >= crossover * len(instance.row_meta)
        assert solution.status == "optimal" and not solution.fallback
        assert solution.master_columns < columns
        full = solve(instance)
        assert full.master_columns == columns and full.pricing_rounds == 1
        assert solution.value == pytest.approx(full.value, rel=1e-9, abs=1e-12)
        assert solution.xi_canonical == full.xi_canonical
        if instance.has_xi and not np.any(instance.objective_xi):
            assert solution.xi.total_mass == pytest.approx(full.xi.total_mass, rel=1e-6)
        # the certificate holds on every atom of the full grid, whether the
        # column was priced out of the master or held by the model all along
        assert _priced_out(instance, solution) and _priced_out(instance, full)
        if instance.provenance["variant"] != "discounted":
            cert = extract_dual_certificate(solution, instance)
            assert certificate_holds(cert, g, b, spec)


def test_master_seed_is_a_sub_lattice_with_the_start_state(master_setups, monkeypatch):
    spec, g, b, _ = master_setups["acceptance"]
    start = 2 * 64 + 5  # the 6th angle of the 3rd ring: not on the sub-lattice
    instance = build_nonergodic_lp(LpBlocks(g, b, g.state_points[start]))
    n_controls = g.control_points.shape[0]
    for multilinear in (True, False):
        if not multilinear:
            _not_multilinear(monkeypatch, spec)
        seed, xi_seed = programs._seed_columns(instance)
        states = np.unique(seed[seed < instance.n_gamma] // n_controls)
        assert programs.MASTER_STATE_STRIDE == 4
        assert states.tolist() == sorted([*range(0, len(g.state_points), 4), start])
        # every control of each seeded state in the gamma block; in the xi
        # block the same atoms, or with the rotation's dynamics multilinear in
        # u1, the controls -1 and 1 of every state
        gamma = [s * n_controls + k for s in states.tolist() for k in range(n_controls)]
        xi = ([s * n_controls + k for s in range(len(g.state_points))
               for k in (0, n_controls - 1)] if multilinear else gamma)
        assert seed.tolist() == [*gamma, *(instance.n_gamma + np.array(xi)).tolist()]
        assert xi_seed == ("xi at 2 of 9 controls" if multilinear else "xi on the sub-lattice")


def test_infeasible_master_falls_back_to_the_full_lp(master_setups, monkeypatch):
    spec, g, b, y0 = master_setups["acceptance"]
    instance = build_nonergodic_lp(LpBlocks(g, b, y0))
    reference = solve(instance)
    # xi columns alone cannot meet the normalization row 1.g = 1
    monkeypatch.setattr(programs, "_seed_columns",
                        lambda lp: (np.arange(lp.n_gamma, lp.n_gamma + lp.n_xi), "xi only"))
    solution = solve(instance)
    assert solution.fallback and solution.status == "optimal"
    assert solution.master_columns == instance.n_gamma + instance.n_xi
    assert solution.pricing_rounds == 2
    assert solution.value == pytest.approx(reference.value, rel=1e-9)
    assert solution.xi_canonical


def _recorded_refinement(monkeypatch, instance):
    """Solve the LP; its solution and, for its refinement, the arguments, the
    result and the row duals of the model it ended with."""
    models, record = [], {}
    build, refine = programs._Model.__init__, programs._minimal_mass_refinement

    def recording_build(model, *args):
        models.append(model)
        build(model, *args)

    def recording_refine(*args):
        record.update(args=args, result=refine(*args))
        record["duals"] = np.asarray(models[-1].highs.getSolution().row_dual)
        return record["result"]
    monkeypatch.setattr(programs._Model, "__init__", recording_build)
    monkeypatch.setattr(programs, "_minimal_mass_refinement", recording_refine)
    return solve(instance), record


AXIS_START_POINTS = {"east": (1.0, 0.0), "north": (0.0, 1.0), "west": (-1.0, 0.0),
                     "south": (0.0, -1.0)}
REFINEMENT_CASES = {**{f"{setup}-{name}": (setup, y0, None) for setup in ("acceptance", "m-size")
                       for name, y0 in AXIS_START_POINTS.items()},
                    "box": ("box", (0.5, -0.5), None),
                    **{f"cap-{cap:g}": ("acceptance", (1.0, 0.0), cap) for cap in (1.0, 2.0, 2.4)}}


@pytest.mark.parametrize("setup,y0,cap", REFINEMENT_CASES.values(), ids=REFINEMENT_CASES.keys())
def test_priced_refinement_matches_a_full_face_solve(master_setups, monkeypatch, setup, y0, cap):
    spec, g, b, _ = master_setups[setup]
    instance = build_nonergodic_lp(LpBlocks(g, b, y0),
                                   **({} if cap is None else {"xi_mass_cap": cap}))
    refine = programs._minimal_mass_refinement
    solution, record = _recorded_refinement(monkeypatch, instance)
    assert solution.status == "optimal" and solution.xi_canonical
    _, objective, reduced, _, cap_dual, _ = record["args"]
    stats, refined = record["result"]
    face = np.flatnonzero(reduced <= programs.FACE_TOL * (1.0 + np.abs(objective)))
    assert stats["refine_face_columns"] == len(face)
    # a binding cap leaves a face of a few dozen columns, which the master may reach
    assert stats["refine_master_columns"] < len(face) or (
        cap is not None and stats["refine_master_columns"] == len(face))
    # every face column prices out against the refinement's own final duals,
    # the cap row's included when it is in
    mass = (face >= instance.n_gamma).astype(float)
    a = instance.a_eq[:, face]
    if cap_dual < -programs.FACE_TOL:
        a = np.vstack([a, mass])
    assert np.all(mass - a.T @ record["duals"] >= -programs.FACE_TOL * (1.0 + mass))
    # the same refinement on a model that holds the whole face from the start
    full_stats, full = refine(*record["args"][:-1], np.arange(len(objective)))
    assert full_stats["refine_master_columns"] == len(face)
    assert full_stats["refine_rounds"] == 1
    assert refined[1].total_mass == pytest.approx(full[1].total_mass, rel=1e-9)
    if cap is not None:
        assert solution.cap_binding and solution.xi.total_mass == pytest.approx(cap, abs=1e-8)


def test_infeasible_face_master_falls_back_to_the_whole_face(master_setups, monkeypatch):
    spec, g, b, y0 = master_setups["acceptance"]
    instance = build_nonergodic_lp(LpBlocks(g, b, y0))
    reference = solve(instance)
    refine, results = programs._minimal_mass_refinement, []

    def xi_seeded(lp, *args):
        # xi columns alone cannot meet the normalization row 1.g = 1
        results.append(refine(lp, *args[:-1], np.arange(lp.n_gamma, lp.n_gamma + lp.n_xi)))
        return results[-1]
    monkeypatch.setattr(programs, "_minimal_mass_refinement", xi_seeded)
    solution = solve(instance)
    [(stats, refined)] = results
    assert stats["refine_master_columns"] == stats["refine_face_columns"]
    assert stats["refine_rounds"] == 2
    assert refined is not None and solution.xi_canonical
    assert solution.xi.total_mass == pytest.approx(reference.xi.total_mass, rel=1e-9)


def test_warm_chain_grows_one_master(master_setups):
    spec, g, b, y0 = master_setups["m-size"]
    epsilons = (0.1, 0.01, 0.001)
    blocks = LpBlocks(g, b, y0)
    instances = [build_perturbed_lp(blocks, eps) for eps in epsilons]
    chained = solve_chain(instances)
    assert [s.start for s in chained] == ["cold", "warm from perturbed[eps=0.1]",
                                          "warm from perturbed[eps=0.01]"]
    sizes = [s.master_columns for s in chained]
    assert sizes == sorted(sizes) and sizes[-1] < instances[0].n_gamma + instances[0].n_xi
    for instance, solution in zip(instances, chained):
        cold = solve(instance)
        assert solution.status == "optimal"
        assert solution.value == pytest.approx(cold.value, rel=1e-9, abs=1e-12)
        assert _priced_out(instance, solution)


def test_lp_below_the_crossover_is_built_once_with_every_column(frozen_setup, monkeypatch):
    # below the crossover a model holds every gamma column from the start, and
    # with the frozen dynamics (0, multilinear in u1) the xi columns at the
    # controls -1 and 1; seeded as if they were not, every xi column
    spec, g, b = frozen_setup
    # a model packs each batch of columns it adds with one _csc_triple call
    added = []
    csc_triple = programs._csc_triple
    monkeypatch.setattr(programs, "_csc_triple",
                        lambda a: (added.append(a.shape[1]), csc_triple(a))[1])
    for multilinear, instance in [(multilinear, instance) for multilinear in (True, False)
                                  for instance in _variants(spec, g, b, (0.25, 0.25))]:
        if not multilinear:
            _not_multilinear(monkeypatch, spec)
        added.clear()
        solution = solve(instance)
        columns = instance.n_gamma + instance.n_xi
        assert columns < programs.MASTER_MIN_COLUMNS_PER_ROW * len(instance.row_meta)
        held = (instance.n_gamma + 2 * len(g.state_points)
                if multilinear and instance.has_xi else columns)
        assert solution.master_columns == held and _priced_out(instance, solution)
        assert solution.pricing_rounds == 1 and not solution.fallback
        # so the refinement's model, in a model of its own, holds the face
        # columns the main model held: the whole face when it held every column
        face = solution.refine_face_columns
        assert added == ([held] if solution.refine_iterations is None
                         else [held, solution.refine_master_columns])
        assert solution.refine_master_columns == face or (multilinear and instance.has_xi)
        assert solution.refine_rounds == (0 if solution.refine_iterations is None else 1)


def _membership_rounds(caplog) -> list[tuple[str, str]]:
    """(xi seed, rounds) of each membership INFO line caught."""
    return [re.search(r"columns, ([^,]+), (\d+) rounds", r.getMessage()).groups()
            for r in caplog.records if r.getMessage().startswith("membership")]


@pytest.mark.parametrize("setup,y0", [("5x128", (1.0, 0.0)), ("box", (0.5, -0.5))])
def test_corner_seeded_xi_holds_the_optimum(degree_six_setups, monkeypatch, caplog, setup, y0):
    # both dynamics are multilinear in u1, so every xi block starts from the
    # controls -1 and 1 and already holds the optimum: the coupled LPs, their
    # warm chain and the membership LP end optimal in their first run, at the
    # values of models that hold every column.  (At [5, 128] the gamma block
    # starts from the sub-lattice, which needs pricing from other start
    # points, such as (0, 1.25): 3 and 2 rounds for the perturbed chain, 4
    # and 2 with the sub-lattice xi seed.)  A master priced out to -FACE_TOL
    # may stop a little above the optimum: box's warm perturbed[eps=0.01] LP
    # ends 3.7e-12 (6e-11 relative) above the model of every column
    spec, g, b = degree_six_setups[setup]
    assert spec.dynamics_multilinear
    blocks = LpBlocks(g, b, y0)
    instances = [build_nonergodic_lp(blocks),
                 *(build_perturbed_lp(blocks, eps) for eps in (0.1, 0.01))]
    seeded = [solve(instances[0]), *solve_chain(instances[1:])]
    uniform = DiscreteMeasure(g, np.full(g.atom_count, 1.0 / g.atom_count))
    measures = [seeded[0].gamma, uniform]
    with caplog.at_level(logging.INFO, logger="occlp.programs"):
        omegas = membership_residual(measures, blocks)
    assert _membership_rounds(caplog) == [("xi at 2 of 9 controls", "1")] * 2
    with monkeypatch.context() as full:
        _full_model(full)
        references = [solve(instance) for instance in instances]
        full_omegas = membership_residual(measures, blocks)
    assert seeded[2].start == "warm from perturbed[eps=0.1]"
    for instance, solution, reference in zip(instances, seeded, references):
        assert solution.xi_seed == "xi at 2 of 9 controls"
        assert solution.status == "optimal" and solution.pricing_rounds == 1
        assert not solution.fallback
        assert solution.master_columns < reference.master_columns
        assert reference.master_columns == instance.n_gamma + instance.n_xi
        assert solution.value == pytest.approx(reference.value, rel=1e-10)
        assert _priced_out(instance, solution)
    for omega, reference in zip(omegas, full_omegas):
        assert omega.omega_residual == pytest.approx(reference.omega_residual, rel=1e-12,
                                                     abs=1e-15)
    # on the annulus the uniform measure is off the omega set; on the box every
    # measure tried is on it
    assert (full_omegas[1].omega_residual > 1e-3) == (setup == "5x128")


def _parent_seed_columns(instance):
    """The seed of a model before the corner rule: the xi block took the
    gamma block's atoms."""
    n_g = instance.n_gamma
    atoms = programs._seed_atoms(instance.grid, n_g + instance.n_xi, len(instance.row_meta),
                                 instance.provenance.get("y0"))
    if atoms is None:
        return np.arange(n_g + instance.n_xi), "seed"
    return (np.concatenate([atoms, n_g + atoms]) if instance.has_xi else atoms), "seed"


def test_dynamics_not_multilinear_keep_the_parent_seed(monkeypatch, caplog):
    # a control squared and cubed in the dynamics: the xi block keeps the
    # gamma block's seed, every column below the crossover and the
    # sub-lattice above it, and the study's solver path is the one it had
    text = BOX_CUSTOM.replace("dynamics = [-y1 + u1, -y2 + y1]",
                              "dynamics = [-y1 + u1^2 - 0.5*u1, -y2 + y1 + 0.3*u1^3]")
    cfg = parse_config(text + "[grid]\nstate_resolution = [12, 12]\ncontrol_resolution = 5\n"
                              "[program]\nvariants = [nonergodic, perturbed]\n"
                              "y0 = [0.5, -0.5]\nepsilons = [0.1, 0.01]\n"
                              "[simulate]\npolicy = constant:0\nhorizons = [2.0, 4.0]\n"
                              "dt = 0.01\n")
    spec = cfg.system_spec()
    assert not spec.dynamics_multilinear
    g = build_grid(spec, (12, 12), 5)
    blocks = LpBlocks(g, basis_for_region(spec.region, 4), (0.5, -0.5))
    for crossover in (programs.MASTER_MIN_COLUMNS_PER_ROW, 0):
        monkeypatch.setattr(programs, "MASTER_MIN_COLUMNS_PER_ROW", crossover)
        for instance in (build_nonergodic_lp(blocks), build_perturbed_lp(blocks, 0.1)):
            columns, xi_seed = programs._seed_columns(instance)
            assert columns.tolist() == _parent_seed_columns(instance)[0].tolist()
            assert xi_seed == ("xi on the sub-lattice" if crossover == 0 else "xi at every atom")
    monkeypatch.undo()
    logs = []
    for seed_columns in (_parent_seed_columns, programs._seed_columns):
        monkeypatch.setattr(programs, "_seed_columns", seed_columns)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="occlp.programs"):
            run_study(cfg, sections=("simulate",))
        logs.append([re.sub(r"columns, [^,]+, ", "columns, ", r.getMessage())
                     for r in caplog.records if r.name == "occlp.programs"])
    # the nonergodic LP, then a membership run per horizon
    assert len(logs[1]) == 3 and logs[1] == logs[0]


def test_a_one_control_grid_is_its_own_corner(frozen_setup):
    # a grid whose one control is u1 = 0 seeds its xi block with it
    spec, g, b = frozen_setup
    one = Grid(spec=spec, state_points=g.state_points, control_points=np.zeros((1, 1)),
               resolution=g.resolution)
    instance = build_nonergodic_lp(LpBlocks(one, b, (0.25, 0.25)))
    columns, xi_seed = programs._seed_columns(instance)
    assert xi_seed == "xi at 1 of 1 controls"
    assert columns.tolist() == list(range(2 * one.atom_count))
    solution = solve(instance)
    assert solution.status == "optimal" and solution.pricing_rounds == 1
    assert solution.value == pytest.approx(0.25)  # the cost y1 at the start state


# ---------------------------------------------------------------------------
# the study's LP blocks


def _reference_csc_triple(a):
    columns, rows = np.nonzero(a.T)
    start = np.zeros(a.shape[1] + 1, dtype=np.int32)
    np.cumsum(np.bincount(columns, minlength=a.shape[1]), out=start[1:])
    return start, rows.astype(np.int32), a[rows, columns]


CSC_CASES = {"empty-columns": np.array([[0.0, 1.5, 0.0, -2.0], [0.0, 0.0, 0.0, 3.0],
                                        [0.0, -0.25, 0.0, 0.0]]),
             "all-zero": np.zeros((3, 5)),
             "dense": np.arange(1.0, 13.0).reshape(3, 4)}


@pytest.mark.parametrize("case", CSC_CASES)
def test_csc_triple_matches_the_nonzero_reference(case):
    a = CSC_CASES[case]
    for matrix in (a, np.ascontiguousarray(a[:, ::-1])):
        got, reference = programs._csc_triple(matrix), _reference_csc_triple(matrix)
        for array, expected in zip(got, reference):
            assert array.dtype == expected.dtype
            assert np.array_equal(array, expected)
        # what scipy.sparse stores for the same matrix
        csc = csc_array(matrix)
        assert np.array_equal(got[0], csc.indptr) and np.array_equal(got[1], csc.indices)
        assert np.array_equal(got[2], csc.data)


def _m_size_study():
    text = Path(__file__).parent.parent.joinpath("configs", "rotation_acceptance.conf")
    text = re.sub(r"state_resolution = .*", "state_resolution = [5, 128]", text.read_text())
    cfg = parse_config(re.sub(r"degree = .*", "degree = 6", text))
    spec = build_system(cfg.system)
    return spec, build_grid(spec, (5, 128), 9), basis_for_region(spec.region, 6), cfg


def test_coupled_lps_of_a_solve_section_share_one_read_only_matrix(monkeypatch):
    spec, g, b, cfg = _m_size_study()
    built = []
    monkeypatch.setattr(cli, "_solve_all", lambda instances, jobs: built.extend(instances)
                        or [programs.LpSolution("infeasible", None, None, None, None, 0.0,
                                                False, False, None, np.inf, np.inf, 0, "")
                            for _ in instances])
    cli._solve_section(cli.ReportBundle(config={}), LpBlocks(g, b, cfg.program.y0), cfg,
                       cfg.program.variants, 1)
    coupled = [instance for instance in built if instance.has_xi]
    assert [lp_name(i) for i in coupled] == ["nonergodic"] + [
        f"perturbed[eps={eps:g}]" for eps in cfg.program.epsilons]
    for instance in coupled:
        assert instance.matrix is coupled[0].matrix
    assert np.shares_memory(coupled[0].matrix, coupled[-1].matrix)
    for instance in built:
        assert not instance.matrix.flags.writeable
        assert instance.has_xi or not np.shares_memory(instance.matrix, coupled[0].matrix)


def test_m_size_study_lps_hold_one_coupled_matrix():
    # the 7 LPs of the M-size study hold little beyond their three matrices;
    # a builder of its own per LP held 27 MB of dense copies here
    spec, g, b, cfg = _m_size_study()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        blocks = LpBlocks(g, b, cfg.program.y0)
        instances = cli._build_lps(blocks, cfg, cfg.program.variants)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(instances) == 7
    matrices = {lp_name(i): i.matrix.nbytes for i in instances}
    assert matrices["nonergodic"] == blocks.coupled.nbytes
    budget = blocks.coupled.nbytes + matrices["ergodic"] + matrices["discounted[rate=0.005]"]
    assert held <= 1.1 * budget


@pytest.mark.parametrize("jobs", [1, 2])
def test_longest_tasks_go_first_and_solutions_come_back_in_lp_order(
        rotation_setup, monkeypatch, jobs):
    spec, g, b = rotation_setup
    cfg = parse_config("[program]\nvariants = [ergodic, nonergodic, discounted, perturbed]\n"
                       "epsilons = [0.01, 0.0, 0.1]\n")
    instances = cli._build_lps(LpBlocks(g, b, cfg.program.y0), cfg, cfg.program.variants)
    names = [lp_name(i) for i in instances]
    submitted, pool_map = [], cli._pool_map

    def recording_pool_map(fn, tasks, jobs):
        submitted.extend([names[k] for k in task] for task in tasks)
        return pool_map(fn, tasks, jobs)
    monkeypatch.setattr(cli, "_pool_map", recording_pool_map)
    solutions = cli._solve_all(instances, jobs)
    # the chain in decreasing epsilon, then the refined LP, then the rest in LP order
    assert submitted == [["perturbed[eps=0.1]", "perturbed[eps=0.01]"], ["nonergodic"],
                         ["ergodic"], ["discounted[rate=0.005]"]]
    for name, instance, solution in zip(names, instances, solutions):
        if name == "perturbed[eps=0]":
            assert solution.start == "same LP as nonergodic"
            instance = instances[names.index("nonergodic")]
        own = solve(instance)
        assert solution.status == own.status == "optimal"
        assert solution.value == pytest.approx(own.value, rel=1e-9, abs=1e-12)
        assert solution.gamma.weights.shape == (instance.n_gamma,)
