import numpy as np
import pytest

from occlp import system
from occlp.system import (ControlRegion, DimensionMismatchError, RegionError,
                          StateRegion, SystemSpec, UnknownEvaluatorError)


@pytest.fixture(scope="module")
def rotation():
    return system.make_rotation()


@pytest.fixture(scope="module")
def frozen():
    return system.make_frozen()


def f_at(spec, y, u):
    """f(y, u) at one point, through the batch evaluator."""
    return system.dynamics_batch(spec)(np.array([y], dtype=float), np.array([u], dtype=float))[0]


def k_at(spec, y, u):
    """k(y, u) at one point, through the batch evaluator."""
    return system.cost_batch(spec)(np.array([y], dtype=float), np.array([u], dtype=float))[0]


def test_rotation_dynamics_reference_point(rotation):
    # clockwise rotation: the first component follows the second
    assert np.allclose(f_at(rotation, (1.0, 0.0), (1.0,)), (0.0, -1.0))


def test_rotation_dynamics_substitution():
    # wide annulus so that (0, 2) is admissible; f = (u*y2, -u*y1)
    spec = system.make_rotation(inner=0.5, outer=2.0)
    assert np.allclose(f_at(spec, (0.0, 2.0), (-0.5,)), (-1.0, 0.0))


def test_frozen_dynamics_vanish(frozen):
    for y in [(-1.0, -1.0), (0.3, -0.7), (1.0, 1.0)]:
        for u in [(-1.0,), (0.0,), (1.0,)]:
            assert np.all(f_at(frozen, y, u) == 0.0)


def test_costs():
    spec = system.make_rotation(cost_id="y1")
    assert k_at(spec, (-1.0, 0.0), (0.0,)) == -1.0
    const = system.make_rotation(cost_id="3")
    assert k_at(const, (0.7, 0.7), (0.5,)) == 3.0
    mixed = system.make_frozen(cost_id="y1 + u1^2")
    assert k_at(mixed, (0.5, 0.0), (1.0,)) == 1.5


def test_unknown_ids_rejected():
    region = StateRegion(kind="box", lower=(-1.0,), upper=(1.0,))
    control = ControlRegion(lower=(-1.0,), upper=(1.0,))
    with pytest.raises(UnknownEvaluatorError):
        SystemSpec(name="x", dynamics_id="no-such-dynamics", cost_id="y1",
                   region=region, control=control, bound_f=1.0, bound_k=1.0)
    with pytest.raises(UnknownEvaluatorError):
        SystemSpec(name="x", dynamics_id="scalar-drift", cost_id="$$$",
                   region=region, control=control, bound_f=2.0, bound_k=1.0)


def test_evaluators_are_pure(rotation):
    a = f_at(rotation, (0.6, 0.8), (0.37,))
    b = f_at(rotation, (0.6, 0.8), (0.37,))
    assert a.tobytes() == b.tobytes()
    assert k_at(rotation, (0.6, 0.8), (0.37,)) == \
        k_at(rotation, (0.6, 0.8), (0.37,))


def test_rotation_speed_identity_and_bound(rotation):
    # ||f(y, u)|| = |u| ||y|| exactly for the rotation field
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = rng.uniform(0.5, 1.5)
        theta = rng.uniform(0, 2 * np.pi)
        u = rng.uniform(-1, 1)
        y = (r * np.cos(theta), r * np.sin(theta))
        f = f_at(rotation, y, (u,))
        assert np.linalg.norm(f) == pytest.approx(abs(u) * r, rel=1e-12)
    report = system.validate_bounds(rotation)
    assert report.bound_f_ok and report.bound_k_ok
    assert report.max_dynamics_norm == pytest.approx(rotation.bound_f, rel=1e-12)


def test_first_integral_rotation(rotation):
    report = system.check_first_integrals(rotation, sample_count=24)
    assert report.passed
    assert report.max_residual <= 1e-10


def test_first_integral_frozen_any_function():
    spec = system.make_frozen()
    spec = SystemSpec(name="frozen", dynamics_id=spec.dynamics_id, cost_id=spec.cost_id,
                      region=spec.region, control=spec.control,
                      first_integrals=("y1^3 - y2",), bound_f=0.0, bound_k=spec.bound_k)
    report = system.check_first_integrals(spec)
    assert report.max_residual == 0.0


def test_wrong_first_integral_detected():
    # with F = y1 the drift along F is u*y2, maximised at |u| = 1, |y2| = outer
    spec = system.make_rotation()
    spec = SystemSpec(name="rotation", dynamics_id="rotation", cost_id="y1",
                      region=spec.region, control=spec.control,
                      first_integrals=("y1",), bound_f=spec.bound_f, bound_k=spec.bound_k)
    report = system.check_first_integrals(spec, sample_count=24)
    assert not report.passed
    assert report.max_residual == pytest.approx(spec.region.outer, rel=1e-9)


def test_forward_invariance(rotation, frozen):
    assert system.check_forward_invariance(rotation).passed
    report = system.check_forward_invariance(frozen)
    assert report.passed and report.max_outward_component == 0.0


def test_forward_invariance_violation():
    drift = SystemSpec(name="drift-right", dynamics_id="1", cost_id="y1",
                       region=StateRegion(kind="box", lower=(0.0,), upper=(1.0,)),
                       control=ControlRegion(lower=(-1.0,), upper=(1.0,)),
                       bound_f=1.0, bound_k=1.0)
    report = system.check_forward_invariance(drift)
    assert not report.passed
    assert report.max_outward_component == pytest.approx(1.0)
    assert report.worst_point == (1.0,)


def test_region_membership_and_signed_distance():
    box = StateRegion(kind="box", lower=(0.0, 0.0), upper=(1.0, 2.0))
    assert box.contains((0.5, 1.0))
    assert box.contains((1.0 + 5e-10, 1.0))  # inside tolerance
    assert not box.contains((1.1, 1.0))
    assert box.signed_boundary_distance((0.5, 1.0)) == -0.5
    assert box.signed_boundary_distance((1.5, 1.0)) == 0.5

    ring = StateRegion(kind="annulus", inner=0.5, outer=1.5)
    assert ring.contains((1.0, 0.0))
    assert not ring.contains((0.2, 0.0))
    assert ring.signed_boundary_distance((1.0, 0.0)) == -0.5
    assert ring.signed_boundary_distance((2.0, 0.0)) == 0.5
    assert ring.signed_boundary_distance((0.25, 0.0)) == 0.25

    # rows give the per-point results
    for region, rows, inside in (
            (box, [(0.5, 1.0), (1.0 + 5e-10, 1.0), (1.1, 1.0), (1.5, 1.0)],
             [True, True, False, False]),
            (ring, [(1.0, 0.0), (0.2, 0.0), (2.0, 0.0), (0.0, 1.5 + 5e-10)],
             [True, False, False, True])):
        assert region.contains(np.array(rows)).tolist() == inside
        assert np.array_equal(region.signed_boundary_distance(rows),
                              [region.signed_boundary_distance(y) for y in rows])
        with pytest.raises(DimensionMismatchError):
            region.contains(np.zeros((2, 3)))


def test_box_boundary_sample_lies_on_faces():
    box = StateRegion(kind="box", lower=(0.0, -1.0), upper=(1.0, 2.0))
    points, normals = box.boundary_sample(5)
    assert points.shape == normals.shape == (20, 2)
    lo, hi = box.bounding_box()
    for y, normal in zip(points, normals):
        (j,) = np.flatnonzero(normal)
        assert abs(normal[j]) == 1.0
        assert y[j] == (hi[j] if normal[j] > 0 else lo[j])
        assert lo[1 - j] < y[1 - j] < hi[1 - j]


def test_region_construction_errors():
    with pytest.raises(RegionError):
        StateRegion(kind="box", lower=(1.0,), upper=(0.0,))
    with pytest.raises(RegionError):
        StateRegion(kind="annulus", inner=0.0, outer=1.0)
    with pytest.raises(RegionError):
        StateRegion(kind="sphere")
    with pytest.raises(RegionError):
        ControlRegion(lower=(1.0,), upper=(-1.0,))


def test_scalar_drift_bounds():
    spec = system.make_scalar_drift()
    report = system.validate_bounds(spec)
    assert report.bound_f_ok
    assert spec.bound_f == 2.0
