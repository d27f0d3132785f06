import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from occlp import grid as grid_mod
from occlp import system
from occlp.basis import basis_for_region, enumerate_basis, grad_matrix, phi_matrix
from occlp.config import build_system, parse_config
from occlp.grid import (DiscreteMeasure, GridError, LpBlocks, assemble_cost_vector,
                        assemble_flow_matrix, assemble_initial_matrix, build_grid,
                        nearest_atom_index, nearest_index,
                        nearest_state_index)
from occlp.system import REGION_TOL, ControlRegion, RegionError, StateRegion

from reference import atom, atom_controls, atom_states, boundary_sample
from systems import built


@pytest.fixture(scope="module")
def rotation():
    return built("rotation")


@pytest.fixture(scope="module")
def rotation_grid(rotation):
    return build_grid(rotation, (5, 64), 9)


def test_degenerate_circle_enumeration():
    spec = built("rotation", inner_radius=1.0, outer_radius=1.0)
    g = build_grid(spec, (1, 4), 3)
    assert g.atom_count == 12
    angles = np.mod(np.arctan2(g.state_points[:, 1], g.state_points[:, 0]), 2 * np.pi)
    assert np.allclose(sorted(angles), [0.0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-12)
    assert np.allclose(sorted(g.control_points.ravel()), [-1.0, 0.0, 1.0])


def test_box_cell_centers():
    spec = built("frozen", lower=(0.0,), upper=(1.0,), cost="y1")
    g = build_grid(spec, 2, 2)
    assert np.allclose(sorted(g.state_points.ravel()), [0.25, 0.75])
    assert g.atom_count == 4


def test_annulus_radii_include_invariant_boundary_circles(rotation_grid):
    # endpoint-inclusive radial subdivision: start circles through the inner
    # and outer radius are exactly representable on the grid
    radii = rotation_grid.spec.region.axes(rotation_grid.resolution)[0]
    assert radii.tolist() == [0.5, 0.75, 1.0, 1.25, 1.5]
    atom_radii = np.hypot(*rotation_grid.state_points.T)
    assert np.allclose(np.unique(atom_radii.round(12)), radii, rtol=0, atol=1e-12)


def test_resolution_validation(rotation):
    with pytest.raises(GridError):
        build_grid(rotation, (1, 64), 9)
    with pytest.raises(GridError):
        build_grid(rotation, (5, 1), 9)
    box = built("frozen", cost="y1 + u1^2")
    with pytest.raises(GridError):
        build_grid(box, (2, 1), 3)
    with pytest.raises(RegionError):
        build_grid(box, (2, 2), 1)


def test_flow_matrix_frozen_is_zero():
    spec = built("frozen", cost="y1 + u1^2")
    g = build_grid(spec, 3, 3)
    b = basis_for_region(spec.region, 3)
    assert np.all(assemble_flow_matrix(g, b) == 0.0)


def test_flow_matrix_rotation_entry():
    # grad(y1) . f = u * y2; pick the atom at angle pi/2 on the unit circle
    spec = built("rotation")
    g = build_grid(spec, (5, 4), 3)
    b = enumerate_basis(2, 2, (-1.0, -1.0), (1.0, 1.0))  # identity scaling: phi = y1
    flow = assemble_flow_matrix(g, b)
    row = b.exponents.index((1, 0))
    target = None
    for a in range(g.atom_count):
        y, u = atom(g, a)
        if np.allclose(y, (0.0, 1.0), atol=1e-12) and u[0] == 1.0:
            target = a
    assert target is not None
    assert flow[row, target] == pytest.approx(1.0, rel=1e-12)


def test_flow_rows_vanish_for_first_integral_combinations(rotation, rotation_grid):
    # any polynomial in the conserved quantity gives a zero row combination
    b = basis_for_region(rotation.region, 4)
    flow = assemble_flow_matrix(rotation_grid, b)
    sample = rotation.region.sample(10)
    # least squares over the basis plus a constant column
    design = np.vstack([phi_matrix(b, sample), np.ones(len(sample))]).T
    z = sample[:, 0] ** 2 + sample[:, 1] ** 2
    for target in (z, z ** 2, (z - 1.0) ** 2):
        coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
        assert np.max(np.abs(design @ coeffs - target)) <= 1e-9
        assert np.max(np.abs(coeffs[:-1] @ flow)) <= 1e-9


def test_initial_matrix(rotation, rotation_grid):
    b = enumerate_basis(2, 2, (-1.0, -1.0), (1.0, 1.0))  # identity scaling
    y0 = np.array([1.0, 0.0])
    initial = assemble_initial_matrix(rotation_grid, b, y0)
    # y0 is itself an atom state: its column vanishes
    col = None
    for a in range(rotation_grid.atom_count):
        y, _u = atom(rotation_grid, a)
        if np.allclose(y, y0, atol=1e-12):
            col = a
            break
    assert col is not None
    assert np.max(np.abs(initial[:, col])) <= 1e-12
    # phi = y1 at the antipodal atom: phi(y0) - phi(y) = 1 - (-1) = 2
    row = b.exponents.index((1, 0))
    for a in range(rotation_grid.atom_count):
        y, _u = atom(rotation_grid, a)
        if np.allclose(y, (-1.0, 0.0), atol=1e-12):
            assert initial[row, a] == pytest.approx(2.0, rel=1e-12)


def test_initial_matrix_rejects_outside_y0(rotation, rotation_grid):
    b = basis_for_region(rotation.region, 2)
    with pytest.raises(RegionError):
        assemble_initial_matrix(rotation_grid, b, (0.1, 0.0))


def test_cost_vectors(rotation_grid):
    const = built("rotation", cost="3")
    g = build_grid(const, (5, 64), 9)
    assert np.all(assemble_cost_vector(g) == 3.0)

    c = assemble_cost_vector(rotation_grid)  # the fixture's rotation costs y1
    for a in range(rotation_grid.atom_count):
        y, _u = atom(rotation_grid, a)
        if np.allclose(y, (-1.0, 0.0), atol=1e-12):
            assert c[a] == pytest.approx(-1.0, rel=1e-12)
            break

    mixed = built("rotation", cost="y1 + u1^2")
    g2 = build_grid(mixed, (5, 4), 3)
    c = assemble_cost_vector(g2)
    for a in range(g2.atom_count):
        y, u = atom(g2, a)
        if np.allclose(y, (0.0, 1.0), atol=1e-12) and u[0] == -1.0:
            assert c[a] == pytest.approx(1.0, rel=1e-12)


def test_uniform_circle_measure_annihilates_flow_rows(rotation):
    # uniform angles at fixed control: trigonometric sums over a uniform grid
    # vanish exactly for every basis degree below the grid size
    b = basis_for_region(rotation.region, 4)
    for n_theta in (16, 32):
        g = build_grid(rotation, (5, n_theta), 3)
        flow = assemble_flow_matrix(g, b)
        w = np.zeros(g.atom_count)
        for a in range(g.atom_count):
            y, u = atom(g, a)
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


BOX_CUSTOM = """
[system]
name = custom
region = box
lower = [-1.0, -1.0]
upper = [1.0, 1.0]
dynamics = [-y1 + u1, -y2 + y1]
cost = y2^2 + 0.5*u1^2
"""

# (system, state resolution, degree, y0): the acceptance and M-size annuli
# and the benchmark's box layout
ASSEMBLY_CASES = {"5x64": ("rotation", (5, 64), 4, (1.0, 0.0)),
                  "5x128": ("rotation", (5, 128), 6, (0.0, 1.0)),
                  "box": ("box", (16, 16), 6, (0.5, -0.5))}


@pytest.fixture(scope="module")
def assembly_setups(rotation):
    systems = {"rotation": rotation, "box": build_system(parse_config(BOX_CUSTOM).system)}
    return {name: (systems[kind], build_grid(systems[kind], res, 9),
                   basis_for_region(systems[kind].region, degree), y0)
            for name, (kind, res, degree, y0) in ASSEMBLY_CASES.items()}


@pytest.mark.parametrize("case", ASSEMBLY_CASES)
def test_statewise_assembly_is_bitwise_the_atomwise_one(assembly_setups, case):
    spec, g, b, y0 = assembly_setups[case]
    # f at every atom's row, one row per atom, as (N, m) C-contiguous rows
    f = np.ascontiguousarray(spec.dynamics_at(atom_states(g), atom_controls(g)).T)
    if spec.region.kind == "annulus":  # the rotation: the control u = 0 stops the motion
        assert np.any(np.all(f == 0.0, axis=1))
    flow = np.einsum("bnm,nm->bn", grad_matrix(b, atom_states(g)), f)
    initial = phi_matrix(b, np.array([y0])) - phi_matrix(b, atom_states(g))
    assert assemble_flow_matrix(g, b).tobytes() == flow.tobytes()
    assert assemble_initial_matrix(g, b, y0).tobytes() == initial.tobytes()
    # the study's blocks: C at y0 snapped to the grid, and both views of the
    # one coupled matrix, which holds B twice
    blocks = LpBlocks(g, b, y0)
    snapped = phi_matrix(b, blocks.y0[None]) - phi_matrix(b, atom_states(g))
    assert np.array_equal(blocks.flow, flow) and np.array_equal(blocks.initial, snapped)
    assert np.array_equal(blocks.coupled[b.count:2 * b.count, g.atom_count:], flow)
    assert blocks.cost.tobytes() == assemble_cost_vector(g).tobytes()
    for array in (blocks.coupled, blocks.flow, blocks.initial, blocks.cost):
        assert not array.flags.writeable
    assert np.shares_memory(blocks.flow, blocks.coupled)
    assert np.shares_memory(blocks.initial, blocks.coupled)


def test_blocks_stack_the_coupled_rows(rotation, rotation_grid):
    b = basis_for_region(rotation.region, 3)
    blocks = LpBlocks(rotation_grid, b, (1.0, 0.0))
    n, count = rotation_grid.atom_count, b.count
    expected = np.zeros((2 * count + 2, 2 * n))
    expected[:count, :n] = blocks.flow
    expected[count:2 * count, :n] = blocks.initial
    expected[count:2 * count, n:] = blocks.flow
    expected[-2, :n] = 1.0
    expected[-1, n:] = 1.0
    assert np.array_equal(blocks.coupled, expected)


def test_assembly_evaluates_the_basis_once_per_state(monkeypatch, caplog, rotation,
                                                     rotation_grid):
    rows = []
    for name in ("grad_matrix", "phi_matrix"):
        monkeypatch.setattr(grid_mod, name, lambda basis, ys, name=name, fn=getattr(
            grid_mod, name): rows.append((name, len(ys))) or fn(basis, ys))
    b = basis_for_region(rotation.region, 4)
    blocks = LpBlocks(rotation_grid, b, (1.0, 0.0))
    assert rows == []  # nothing is assembled before it is read
    with caplog.at_level("INFO", logger="occlp.grid"):
        blocks.flow, blocks.initial, blocks.cost, blocks.coupled
    states = rotation_grid.state_points.shape[0]
    # grad phi and phi once each at the grid states, phi once at y0
    assert sorted(rows) == [("grad_matrix", states), ("phi_matrix", 1), ("phi_matrix", states)]
    [line] = [r.getMessage() for r in caplog.records if r.name == "occlp.grid"]
    assert re.fullmatch(rf"assembly: {states} states, {rotation_grid.atom_count} atoms, "
                        rf"{b.count} basis rows, \d+\.\d\d MB held, \d+\.\d{{3}} s", line)
    held = (blocks.coupled.nbytes + blocks.cost.nbytes) / 1e6
    assert f"{held:.2f} MB held" in line


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
    atoms_y = atom_states(rotation_grid)
    atoms_u = atom_controls(rotation_grid)
    for i in range(30):
        d2 = ((atoms_y - ys[i]) ** 2).sum(axis=1) + ((atoms_u - us[i]) ** 2).sum(axis=1)
        assert got[i] == np.argmin(d2)


def _brute_force(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Nearest row of points to each query, lowest row on ties."""
    return np.argmin(((queries[:, None, :] - points[None]) ** 2).sum(axis=2), axis=1)


@pytest.mark.parametrize("dim", [2, 3])
def test_nearest_index_is_brute_force_with_exact_ties(dim):
    # a control lattice with exactly representable midpoints, so every
    # midpoint query ties between two points and the lowest row must win
    axes = [np.linspace(-1.0, 1.0, 5)] * dim
    points = system.lattice(axes)
    stride = 5 ** (dim - 1)
    rng = np.random.default_rng(dim)
    queries = np.concatenate([
        points,
        _neighbour_midpoints(points, (1, 5, stride, stride + 1)),
        points[:-1] + 0.25 * (points[1:] - points[:-1]),
        rng.uniform(-1.5, 1.5, size=(400, dim)),
    ])
    got = nearest_index(points, queries, chunk=97)
    assert np.array_equal(got, _brute_force(points, queries))
    # scrambled rows: the tie rule follows row order, not lattice order
    order = rng.permutation(points.shape[0])
    assert np.array_equal(nearest_index(points[order], queries),
                          _brute_force(points[order], queries))


def _neighbour_midpoints(points: np.ndarray, strides) -> np.ndarray:
    return np.concatenate([(points[:-k] + points[k:]) / 2.0 for k in strides if k < len(points)])


@st.composite
def _region_and_resolution(draw):
    if draw(st.booleans()):
        inner = draw(st.floats(0.1, 2.0))
        outer = inner if draw(st.booleans()) else inner + draw(st.floats(1e-3, 3.0))
        region = StateRegion(kind="annulus", inner=inner, outer=outer)
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
@example((StateRegion(kind="annulus", inner=0.5, outer=1.5), (30, 3)), 0)
def test_nearest_state_index_is_brute_force(setup, seed):
    region, resolution = setup
    spec = system.SystemSpec(dynamics_text=("0",) * region.dim, cost_text="y1", region=region,
                             control=ControlRegion(lower=(-1.0,), upper=(1.0,)))
    grid = build_grid(spec, resolution, 2)
    points = grid.state_points
    boundary, normals = boundary_sample(region, 7)
    lo, hi = region.bounding_box()
    queries = np.concatenate([
        points,
        # ties between neighbours along the last axis, the first axis and a diagonal
        _neighbour_midpoints(points, (1, resolution[-1], resolution[-1] + 1)),
        boundary,
        boundary + 0.5 * REGION_TOL * normals,  # just outside, within tolerance
        np.random.default_rng(seed).uniform(lo, hi, size=(500, region.dim)),
    ])
    queries = queries[region.contains(queries)]
    assert np.array_equal(nearest_state_index(grid, queries), _brute_force(points, queries))
    # far outside: no brute-force promise, but valid rows and no warning
    far = np.concatenate([np.full((1, region.dim), 1e12), np.full((1, region.dim), -1e12),
                          np.asarray(region.bounding_box()).mean(axis=0)[None, :]])
    got = nearest_state_index(grid, far)
    assert np.all((got >= 0) & (got < points.shape[0]))
