import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from occlp import basis as basis_mod
from occlp import grid as grid_mod
from occlp import system
from occlp.basis import basis_for_region, enumerate_basis
from occlp.grid import (DiscreteMeasure, GridError, assemble_cost_vector,
                        assemble_flow_matrix, assemble_initial_matrix, build_grid,
                        integrate_measure, nearest_atom_index, nearest_index,
                        nearest_state_index)
from occlp.system import ControlRegion, RegionError, StateRegion


@pytest.fixture(scope="module")
def rotation():
    return system.make_rotation()


@pytest.fixture(scope="module")
def rotation_grid(rotation):
    return build_grid(rotation, (5, 64), 9)


def test_degenerate_circle_enumeration():
    spec = system.make_rotation(inner=1.0, outer=1.0)
    g = build_grid(spec, (1, 4), 3)
    assert g.atom_count == 12
    angles = np.mod(np.arctan2(g.state_points[:, 1], g.state_points[:, 0]), 2 * np.pi)
    assert np.allclose(sorted(angles), [0.0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-12)
    assert np.allclose(sorted(g.control_points.ravel()), [-1.0, 0.0, 1.0])


def test_box_cell_centers():
    spec = system.make_frozen(lower=(0.0,), upper=(1.0,), cost_id="y1")
    g = build_grid(spec, 2, 2)
    assert np.allclose(sorted(g.state_points.ravel()), [0.25, 0.75])
    assert g.atom_count == 4


def test_annulus_radii_include_invariant_boundary_circles(rotation_grid):
    # endpoint-inclusive radial subdivision: start circles through the inner
    # and outer radius are exactly representable on the grid
    assert rotation_grid.provenance["radii"] == (0.5, 0.75, 1.0, 1.25, 1.5)


def test_resolution_validation(rotation):
    with pytest.raises(GridError):
        build_grid(rotation, (1, 64), 9)
    with pytest.raises(GridError):
        build_grid(rotation, (5, 1), 9)
    box = system.make_frozen()
    with pytest.raises(GridError):
        build_grid(box, (2, 1), 3)
    with pytest.raises(RegionError):
        build_grid(box, (2, 2), 1)


def test_flow_matrix_frozen_is_zero():
    spec = system.make_frozen()
    g = build_grid(spec, 3, 3)
    b = basis_for_region(spec.region, 3)
    assert np.all(assemble_flow_matrix(g, b) == 0.0)


def test_flow_matrix_rotation_entry():
    # grad(y1) . f = u * y2; pick the atom at angle pi/2 on the unit circle
    spec = system.make_rotation()
    g = build_grid(spec, (5, 4), 3)
    b = enumerate_basis(2, 2)  # identity scaling so phi = y1 exactly
    flow = assemble_flow_matrix(g, b)
    row = b.exponents.index((1, 0))
    target = None
    for a in range(g.atom_count):
        y, u = g.atom(a)
        if np.allclose(y, (0.0, 1.0), atol=1e-12) and u[0] == 1.0:
            target = a
    assert target is not None
    assert flow[row, target] == pytest.approx(1.0, rel=1e-12)


def test_flow_rows_vanish_for_first_integral_combinations(rotation, rotation_grid):
    # any polynomial in the conserved quantity gives a zero row combination
    b = basis_for_region(rotation.region, 4)
    flow = assemble_flow_matrix(rotation_grid, b)
    sample = rotation.region.sample(10)
    for target in (lambda y: y[0] ** 2 + y[1] ** 2,
                   lambda y: (y[0] ** 2 + y[1] ** 2) ** 2,
                   lambda y: (y[0] ** 2 + y[1] ** 2 - 1.0) ** 2):
        coeffs, _const, residual = basis_mod.combination_coefficients(b, target, sample)
        assert residual <= 1e-9
        assert np.max(np.abs(coeffs @ flow)) <= 1e-9


def test_initial_matrix(rotation, rotation_grid):
    b = enumerate_basis(2, 2)  # identity scaling
    y0 = np.array([1.0, 0.0])
    initial = assemble_initial_matrix(rotation_grid, b, y0)
    # y0 is itself an atom state: its column vanishes
    col = None
    for a in range(rotation_grid.atom_count):
        y, _u = rotation_grid.atom(a)
        if np.allclose(y, y0, atol=1e-12):
            col = a
            break
    assert col is not None
    assert np.max(np.abs(initial[:, col])) <= 1e-12
    # phi = y1 at the antipodal atom: phi(y0) - phi(y) = 1 - (-1) = 2
    row = b.exponents.index((1, 0))
    for a in range(rotation_grid.atom_count):
        y, _u = rotation_grid.atom(a)
        if np.allclose(y, (-1.0, 0.0), atol=1e-12):
            assert initial[row, a] == pytest.approx(2.0, rel=1e-12)


def test_initial_matrix_rejects_outside_y0(rotation, rotation_grid):
    b = basis_for_region(rotation.region, 2)
    with pytest.raises(RegionError):
        assemble_initial_matrix(rotation_grid, b, (0.1, 0.0))


def test_cost_vectors(rotation_grid):
    const = system.make_rotation(cost_id="3")
    g = build_grid(const, (5, 64), 9)
    assert np.all(assemble_cost_vector(g, const) == 3.0)

    spec = system.make_rotation(cost_id="y1")
    c = assemble_cost_vector(rotation_grid, spec)
    for a in range(rotation_grid.atom_count):
        y, _u = rotation_grid.atom(a)
        if np.allclose(y, (-1.0, 0.0), atol=1e-12):
            assert c[a] == pytest.approx(-1.0, rel=1e-12)
            break

    mixed = system.make_rotation(cost_id="y1 + u1^2")
    c = assemble_cost_vector(build_grid(mixed, (5, 4), 3), mixed)
    g2 = build_grid(mixed, (5, 4), 3)
    for a in range(g2.atom_count):
        y, u = g2.atom(a)
        if np.allclose(y, (0.0, 1.0), atol=1e-12) and u[0] == -1.0:
            assert c[a] == pytest.approx(1.0, rel=1e-12)


def test_integrate_measure(rotation_grid):
    g = rotation_grid
    w = np.zeros(g.atom_count)
    w[:4] = 0.25
    measure = DiscreteMeasure(g, w)
    q = np.zeros(g.atom_count)
    q[:4] = [1.0, 2.0, 3.0, 4.0]
    assert integrate_measure(measure, q) == pytest.approx(2.5)

    dirac = np.zeros(g.atom_count)
    dirac[2] = 1.0
    assert integrate_measure(DiscreteMeasure(g, dirac), q) == 3.0

    w2 = np.zeros(g.atom_count)
    w2[0], w2[1] = 0.25, 0.75
    q2 = np.zeros(g.atom_count)
    q2[1] = 4.0
    assert integrate_measure(DiscreteMeasure(g, w2), q2) == 3.0

    with pytest.raises(GridError):
        integrate_measure(measure, q[:-1])


def test_uniform_circle_measure_annihilates_flow_rows(rotation):
    # uniform angles at fixed control: trigonometric sums over a uniform grid
    # vanish exactly for every basis degree below the grid size
    b = basis_for_region(rotation.region, 4)
    for n_theta in (16, 32):
        g = build_grid(rotation, (5, n_theta), 3)
        flow = assemble_flow_matrix(g, b)
        w = np.zeros(g.atom_count)
        for a in range(g.atom_count):
            y, u = g.atom(a)
            if abs(np.hypot(*y) - 1.0) < 1e-9 and u[0] == 1.0:
                w[a] = 1.0 / n_theta
        assert abs(DiscreteMeasure(g, w).total_mass - 1.0) <= 1e-9
        assert np.max(np.abs(flow @ w)) <= 1e-12


def test_assembly_is_deterministic(rotation, rotation_grid):
    b = basis_for_region(rotation.region, 3)
    f1 = assemble_flow_matrix(rotation_grid, b)
    f2 = assemble_flow_matrix(rotation_grid, b)
    assert f1.tobytes() == f2.tobytes()
    c1 = assemble_initial_matrix(rotation_grid, b, (1.0, 0.0))
    c2 = assemble_initial_matrix(rotation_grid, b, (1.0, 0.0))
    assert c1.tobytes() == c2.tobytes()


def test_measure_validation(rotation_grid):
    with pytest.raises(GridError):
        DiscreteMeasure(rotation_grid, np.zeros(3))
    w = np.zeros(rotation_grid.atom_count)
    w[0] = -1e-3
    with pytest.raises(GridError):
        DiscreteMeasure(rotation_grid, w)
    w = np.zeros(rotation_grid.atom_count)
    w[0] = 1.0
    assert DiscreteMeasure(rotation_grid, w).is_probability()


def test_nearest_atom_matches_joint_brute_force(rotation_grid):
    rng = np.random.default_rng(5)
    r = rng.uniform(0.5, 1.5, size=30)
    th = rng.uniform(0, 2 * np.pi, size=30)
    ys = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    us = rng.uniform(-1, 1, size=(30, 1))
    got = nearest_atom_index(rotation_grid, ys, us)
    atoms_y = rotation_grid.atom_states
    atoms_u = rotation_grid.atom_controls
    for i in range(30):
        d2 = ((atoms_y - ys[i]) ** 2).sum(axis=1) + ((atoms_u - us[i]) ** 2).sum(axis=1)
        assert got[i] == np.argmin(d2)


def _neighbour_midpoints(points: np.ndarray, strides) -> np.ndarray:
    return np.concatenate([(points[:-k] + points[k:]) / 2.0 for k in strides if k < len(points)])


@st.composite
def _region_and_resolution(draw):
    if draw(st.booleans()):
        inner = draw(st.floats(0.1, 2.0))
        outer = inner if draw(st.booleans()) else inner + draw(st.floats(1e-3, 3.0))
        center = (draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
        region = StateRegion(kind="annulus", inner=inner, outer=outer, center=center)
        return region, (1 if inner == outer else draw(st.integers(2, 30)),
                        draw(st.integers(2, 40)))
    dim = draw(st.integers(1, 3))
    lower = tuple(draw(st.floats(-3.0, 3.0)) for _ in range(dim))
    upper = tuple(lo + draw(st.floats(1e-2, 5.0)) for lo in lower)
    return (StateRegion(kind="box", lower=lower, upper=upper),
            tuple(draw(st.integers(2, 8)) for _ in range(dim)))


@settings(max_examples=80, deadline=None)
@given(_region_and_resolution(), st.integers(0, 2**32 - 1))
# coarse angles next to fine radii: the nearest radius lies rings inside the query's
@example((StateRegion(kind="annulus", inner=0.5, outer=1.5, center=(0.3, -0.2)), (30, 3)), 0)
def test_nearest_state_index_is_brute_force(setup, seed):
    region, resolution = setup
    dynamics = ";".join(["0"] * region.dim)
    spec = system.SystemSpec(name="probe", dynamics_id=dynamics, cost_id="y1", region=region,
                             control=ControlRegion(kind="box", lower=(-1.0,), upper=(1.0,)))
    grid = build_grid(spec, resolution, 2)
    points = grid.state_points
    boundary, normals = region.boundary_sample(7)
    lo, hi = region.bounding_box()
    queries = np.concatenate([
        points,
        # ties between neighbours along the last axis, the first axis and a diagonal
        _neighbour_midpoints(points, (1, resolution[-1], resolution[-1] + 1)),
        boundary,
        boundary + 0.5 * region.tolerance * normals,  # just outside, within tolerance
        np.random.default_rng(seed).uniform(lo, hi, size=(500, region.dim)),
    ])
    queries = queries[region.contains(queries)]
    assert np.array_equal(nearest_state_index(grid, queries),
                          nearest_index(points, queries))
    # far outside: no brute-force promise, but valid rows and no warning
    far = np.concatenate([np.full((1, region.dim), 1e12), np.full((1, region.dim), -1e12),
                          np.asarray(region.bounding_box()).mean(axis=0)[None, :]])
    got = nearest_state_index(grid, far)
    assert np.all((got >= 0) & (got < points.shape[0]))
