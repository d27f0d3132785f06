import dataclasses
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from occlp import exprs, system
from occlp.config import ConfigError
from occlp.system import (ControlRegion, DimensionMismatchError, RegionError,
                          StateRegion, SystemSpec, UnknownEvaluatorError)

from reference import boundary_sample
from systems import built


@pytest.fixture(scope="module")
def rotation():
    return built("rotation")


@pytest.fixture(scope="module")
def frozen():
    return built("frozen", cost="y1 + u1^2")


def f_at(spec, y, u):
    """f(y, u) at one point, through the numpy evaluator."""
    return spec.dynamics_at(np.array(y, dtype=float), np.array(u, dtype=float))


def k_at(spec, y, u):
    """k(y, u) at one point, through the numpy evaluator."""
    return spec.cost_at(np.array(y, dtype=float), np.array(u, dtype=float))


def test_rotation_dynamics_reference_point(rotation):
    # clockwise rotation: the first component follows the second
    assert np.allclose(f_at(rotation, (1.0, 0.0), (1.0,)), (0.0, -1.0))


def test_rotation_dynamics_substitution():
    # wide annulus so that (0, 2) is admissible; f = (u*y2, -u*y1)
    spec = built("rotation", inner_radius=0.5, outer_radius=2.0)
    assert np.allclose(f_at(spec, (0.0, 2.0), (-0.5,)), (-1.0, 0.0))


def test_frozen_dynamics_vanish(frozen):
    for y in [(-1.0, -1.0), (0.3, -0.7), (1.0, 1.0)]:
        for u in [(-1.0,), (0.0,), (1.0,)]:
            assert np.all(f_at(frozen, y, u) == 0.0)


def test_costs():
    spec = built("rotation", cost="y1")
    assert k_at(spec, (-1.0, 0.0), (0.0,)) == -1.0
    const = built("rotation", cost="3")
    assert k_at(const, (0.7, 0.7), (0.5,)) == 3.0
    mixed = built("frozen", cost="y1 + u1^2")
    assert k_at(mixed, (0.5, 0.0), (1.0,)) == 1.5


def test_unknown_ids_rejected():
    region = StateRegion(kind="box", lower=(-1.0,), upper=(1.0,))
    control = ControlRegion(lower=(-1.0,), upper=(1.0,))
    with pytest.raises(UnknownEvaluatorError):
        SystemSpec(dynamics_text=("no-such-dynamics",), cost_text="y1",
                   region=region, control=control, bound_f=1.0, bound_k=1.0)
    with pytest.raises(UnknownEvaluatorError):
        SystemSpec(dynamics_text=("-y1 + u1",), cost_text="$$$",
                   region=region, control=control, bound_f=2.0, bound_k=1.0)


def test_evaluators_are_pure(rotation):
    a = f_at(rotation, (0.6, 0.8), (0.37,))
    b = f_at(rotation, (0.6, 0.8), (0.37,))
    assert a.tobytes() == b.tobytes()
    assert k_at(rotation, (0.6, 0.8), (0.37,)) == \
        k_at(rotation, (0.6, 0.8), (0.37,))


def test_a_spec_parses_once_and_compiles_each_evaluator_once(monkeypatch):
    parsed, compiled = [], []
    parse, compile_numpy, compile_rk4_run = (exprs.parse_expr, exprs.compile_numpy,
                                             exprs.compile_rk4_run)
    monkeypatch.setattr(exprs, "parse_expr", lambda text, m, p: (
        parsed.append(text), parse(text, m, p))[1])
    # each compile yields the CPU, widening the window a second one would use
    monkeypatch.setattr(exprs, "compile_numpy", lambda nodes: (
        compiled.append(nodes), time.sleep(1e-3), compile_numpy(nodes))[2])
    monkeypatch.setattr(exprs, "compile_rk4_run", lambda nodes, law: (
        compiled.append(nodes), time.sleep(1e-3), compile_rk4_run(nodes, law))[2])
    spec = SystemSpec(dynamics_text=("u1*y2", "-u1*y1"), cost_text="y1",
                      region=StateRegion(kind="annulus", inner=0.5, outer=1.5),
                      control=ControlRegion(lower=(-1.0,), upper=(1.0,)),
                      first_integrals=("y1^2 + y2^2",), bound_f=1.5, bound_k=1.5)
    assert parsed == ["u1*y2", "-u1*y1", "y1", "y1^2 + y2^2"] and compiled == []
    assert spec.dynamics == (exprs.parse_expr("u1*y2", 2, 1), exprs.parse_expr("-u1*y1", 2, 1))
    del parsed[:]
    ys, us = spec.region.sample(4), spec.control.grid(3)
    start = threading.Barrier(8)

    def use(_):
        start.wait(timeout=60)
        return (spec.dynamics_at(ys[:, None], us[None]).tobytes(),
                spec.cost_at(ys[:, None], us[None]).tobytes(),
                spec.rk4_run()((1.0, 0.0), (1.0,), (-1.0,), (1.0,), 0.01, 3, [], [])[1])
    # more threads than cores, switching often, all asking at once
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(use, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(result == results[0] for result in results)
    # dynamics, cost and held run, each once and from the trees
    assert parsed == []
    assert sorted(map(repr, compiled)) == sorted(map(repr, [
        spec.dynamics, (spec.cost,), spec.dynamics]))
    # each law's run compiles once too, the held law (u1) being one of them
    law = (exprs.parse_expr("1", 2, 0),)
    assert spec.rk4_run(law) is spec.rk4_run((exprs.parse_expr("1", 2, 0),))
    assert spec.rk4_run((exprs.Var("u", 0),)) is spec.rk4_run()
    assert len(compiled) == 4
    # equality, hashing and repr cover the declared fields only
    twin = dataclasses.replace(spec)
    assert twin == spec and hash(twin) == hash(spec) and repr(twin) == repr(spec)
    assert repr(spec).startswith("SystemSpec(dynamics_text=('u1*y2', '-u1*y1'), ")
    assert "Var(" not in repr(spec) and "_numpy" not in repr(spec)


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
    # the squared radius the preset declares: its drift is rounding alone
    report = system.validate_bounds(rotation)
    assert report.conserved == (True,)
    assert report.max_drifts[0] <= 1e-10


def test_first_integral_frozen_any_function():
    spec = built("custom", region="box", dynamics=("0", "0"), cost="y1 + u1^2",
                 first_integrals=("y1^3 - y2",))
    report = system.validate_bounds(spec)
    assert report.max_drifts == (0.0,) and report.conserved == (True,)


def test_wrong_first_integral_detected():
    # with F = y1 the drift along F is u*y2, maximised at |u| = 1, |y2| = outer
    with pytest.raises(ConfigError) as err:
        built("custom", region="annulus", dynamics=("u1*y2", "-u1*y1"), cost="y1",
              first_integrals=("y1^2 + y2^2", "y1"))
    assert err.value.key == "first_integrals"
    assert str(err.value) == ("first integral 'y1' is not conserved: its drift |grad F . f| "
                              "reaches 1.5 on the sampled state region")


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
    points, normals = boundary_sample(box, 5)
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
    spec = built("scalar-drift", cost="y1^2")
    report = system.validate_bounds(spec)
    assert report.bound_f_ok
    assert spec.bound_f == 2.0


def test_the_shipped_systems_are_multilinear_in_the_controls():
    box = built("custom", region="box", dynamics=("-y1 + u1", "-y2 + y1"), cost="u1^2")
    for spec in (built("rotation"), built("frozen", cost="y1 + u1^2"), box):
        assert spec.dynamics_multilinear
    # the cost plays no part; a control squared in the dynamics does
    squared = dataclasses.replace(box, dynamics_text=("-y1 + u1^2 - 0.5*u1", "-y2 + y1"))
    assert not squared.dynamics_multilinear


@pytest.mark.parametrize("inner,outer,resolution", [(0.5, 1.5, (5, 64)), (0.5, 1.5, (50, 1280)),
                                                    (0.3, 2.0, (7, 13)), (1.0, 1.0, (1, 37)),
                                                    (1.0, 1.0, (3, 8))])
def test_the_annulus_lattice_is_bitwise_the_per_point_polar_formula(inner, outer, resolution):
    # every (radius, angle) pair as a row, first axis slowest, and each point
    # r cos(theta), r sin(theta) from its own row; a one-radius circle gives
    # one ring whatever n_r asks for
    region = StateRegion(kind="annulus", inner=inner, outer=outer)
    n_r, n_theta = resolution
    radii = np.linspace(inner, outer, n_r) if outer > inner else np.array([inner])
    theta = np.tile(2.0 * np.pi * np.arange(n_theta) / n_theta, len(radii))
    r = np.repeat(radii, n_theta)
    want = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    got = region.lattice(resolution)
    assert got.shape == want.shape == (len(radii) * n_theta, 2)
    assert got.tobytes() == want.tobytes()
