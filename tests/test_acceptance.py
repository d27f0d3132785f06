"""Acceptance suite: every criterion at its stated tolerance, one line each.

All reference numbers are produced by independent oracles (exhaustive scans
and closed forms), never by the code paths under test.  Shared solves and
simulations are computed once in module-scoped fixtures; each criterion prints
one PASS/FAIL line before asserting, so a full run reads as a checklist.
"""

import math
import time

import numpy as np
import pytest

from occlp import oracle
from occlp.basis import basis_for_region
from occlp.grid import LpBlocks, build_grid
from occlp.programs import (build_discounted_lp, build_ergodic_lp,
                            build_nonergodic_lp, build_perturbed_lp,
                            certificate_slacks, extract_dual_certificate,
                            membership_residual, solve, verify_weak_duality)
from occlp.simulate import (ConstantPolicy, SchedulePolicy, abel_value,
                            cesaro_value, empirical_occupational_measure,
                            integrate, periodic_value_search,
                            rotation_delta_family)

from systems import built

EPSILONS = (0.1, 0.01, 0.001, 0.0)


def _report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion:2d}: {status} - {detail}")


@pytest.fixture(scope="module")
def rotation():
    return built("rotation", inner_radius=0.5, outer_radius=1.5, cost="y1")


@pytest.fixture(scope="module")
def setup(rotation):
    grid = build_grid(rotation, (5, 64), 9)
    basis = basis_for_region(rotation.region, 4)
    return grid, basis


@pytest.fixture(scope="module")
def solve_unit_circle(rotation, setup):
    grid, basis = setup
    start = time.perf_counter()
    instance = build_nonergodic_lp(LpBlocks(grid, basis, (1.0, 0.0)))
    solution = solve(instance)
    elapsed = time.perf_counter() - start
    return instance, solution, elapsed


@pytest.fixture(scope="module")
def solve_inner_circle(rotation, setup):
    grid, basis = setup
    instance = build_nonergodic_lp(LpBlocks(grid, basis, (0.5, 0.0)))
    return instance, solve(instance)


@pytest.fixture(scope="module")
def solve_ergodic(rotation, setup):
    grid, basis = setup
    instance = build_ergodic_lp(LpBlocks(grid, basis, (1.0, 0.0)))
    return instance, solve(instance)


@pytest.fixture(scope="module")
def perturbed_solutions(rotation, setup):
    grid, basis = setup
    out = {}
    for eps in EPSILONS:
        instance = build_perturbed_lp(LpBlocks(grid, basis, (1.0, 0.0)), eps)
        out[eps] = (instance, solve(instance))
    return out


@pytest.fixture(scope="module")
def steer_hold_policy():
    switch = round(math.pi / 1e-3) * 1e-3  # land the switch on a step boundary
    return SchedulePolicy([0.0, switch], [1.0, 0.0])


@pytest.fixture(scope="module")
def steer_hold_trajectories(rotation, steer_hold_policy):
    return {horizon: integrate(rotation, (1.0, 0.0), steer_hold_policy, horizon, 1e-3)
            for horizon in (25.0, 50.0, 100.0, 200.0)}


def test_criterion_1_unit_circle_value_matches_oracle(rotation, solve_unit_circle):
    _instance, solution, elapsed = solve_unit_circle
    reference = oracle.rotation_level_value(rotation, 1.0)
    ok = (solution.status == "optimal"
          and abs(solution.value - reference.value) <= 0.05
          and elapsed < 10.0)
    _report(1, ok, f"coupled LP value {solution.value:.6f} vs oracle "
                   f"{reference.value:.6f} (solve {elapsed:.2f}s)")
    assert solution.status == "optimal"
    assert abs(solution.value - reference.value) <= 0.05
    assert elapsed < 10.0


def test_criterion_2_start_dependence(rotation, solve_unit_circle,
                                      solve_inner_circle, solve_ergodic):
    _i1, outer, _t = solve_unit_circle
    _i2, inner = solve_inner_circle
    _i3, ergodic = solve_ergodic
    inner_ref = oracle.rotation_level_value(rotation, 0.25)
    ergodic_ref = oracle.level_set_ordering(
        rotation, np.linspace(0.25, 2.25, 41)).min_value
    gap = outer.value - inner.value
    ok = (inner.status == "optimal"
          and abs(inner.value - inner_ref.value) <= 0.05
          and abs(gap - (-0.5)) <= 0.1
          and abs(ergodic.value - ergodic_ref) <= 0.05)
    _report(2, ok, f"values {outer.value:.4f} / {inner.value:.4f} "
                   f"(gap {gap:.4f}), start-free value {ergodic.value:.4f} "
                   f"vs min over circles {ergodic_ref:.4f}")
    assert inner.status == "optimal"
    assert abs(inner.value - inner_ref.value) <= 0.05
    assert abs(gap - (-0.5)) <= 0.1
    assert abs(ergodic.value - ergodic_ref) <= 0.05


def test_criterion_3_duality_certificates(rotation, setup, solve_unit_circle,
                                          solve_inner_circle, solve_ergodic,
                                          perturbed_solutions):
    grid, basis = setup
    solves = [("unit-circle", *solve_unit_circle[:2]),
              ("inner-circle", *solve_inner_circle),
              ("ergodic", *solve_ergodic)]
    solves += [(f"perturbed[{eps}]", inst, sol)
               for eps, (inst, sol) in perturbed_solutions.items()]
    worst_gap, worst_slack = 0.0, 0.0
    for _name, instance, solution in solves:
        assert solution.status == "optimal"
        cert = extract_dual_certificate(solution, instance)
        worst_gap = max(worst_gap, abs(solution.value - cert.mu))
        f1, f2 = certificate_slacks(cert, grid, basis, rotation)
        worst_slack = min(worst_slack, float(np.min(f1)), float(np.min(f2)))
        assert verify_weak_duality(solution.value, cert.mu)
    # the discounted program has no such certificate; its duality statement is
    # agreement of the primal value with the solver's dual objective
    disc = solve(build_discounted_lp(LpBlocks(grid, basis, (1.0, 0.0)), 0.005))
    assert disc.status == "optimal"
    disc_gap = abs(disc.value - disc.dual_objective)
    ok = worst_gap <= 1e-6 and worst_slack >= -1e-6 and disc_gap <= 1e-6
    _report(3, ok, f"max |value - mu| {worst_gap:.2e}, min certificate slack "
                   f"{worst_slack:.2e}, discounted gap {disc_gap:.2e}")
    assert worst_gap <= 1e-6
    assert worst_slack >= -1e-6
    assert disc_gap <= 1e-6


def test_criterion_4_support_concentration(setup, solve_unit_circle):
    grid, _basis = setup
    _instance, solution, _t = solve_unit_circle
    radii = np.linalg.norm(grid.atom_states, axis=1)
    mass = float(solution.gamma.weights[np.abs(radii - 1.0) <= 1e-9].sum())
    ok = mass >= 0.999
    _report(4, ok, f"mass on the start circle {mass:.6f}")
    assert mass >= 0.999


def test_criterion_5_simulation_consistency(rotation, steer_hold_policy,
                                            steer_hold_trajectories,
                                            solve_unit_circle, setup):
    _grid, basis = setup
    instance, solution, _t = solve_unit_circle
    cesaro = cesaro_value(steer_hold_trajectories[200.0], rotation)
    abel = abel_value(rotation, (1.0, 0.0), steer_hold_policy, rate=0.005,
                      horizon=1200.0, dt=1e-2, tail_tolerance=1e-2)
    cert = extract_dual_certificate(solution, instance)
    ok = (abs(cesaro - (-1.0)) <= 0.05
          and abs(abel.value - cesaro) <= 0.1
          and cesaro >= cert.mu - 0.05
          and abel.value >= cert.mu - 0.05)
    _report(5, ok, f"average {cesaro:.4f}, discounted {abel.value:.4f} "
                   f"(tail {abel.tail_bound:.1e}), bound {cert.mu:.4f}")
    assert abs(cesaro - (-1.0)) <= 0.05
    assert abs(abel.value - cesaro) <= 0.1
    assert cesaro >= cert.mu - 0.05
    assert abel.value >= cert.mu - 0.05


def test_criterion_6_residual_decay(rotation, setup, steer_hold_trajectories):
    grid, basis = setup
    rows = []
    for horizon in (25.0, 50.0, 100.0, 200.0):
        emp = empirical_occupational_measure(steer_hold_trajectories[horizon], grid)
        [res] = membership_residual([emp], LpBlocks(grid, basis, (1.0, 0.0)))
        rows.append((horizon, res.w_residual, res.omega_residual))
    floor = min(w for _h, w, _o in rows)
    nonincreasing = all(b[1] <= a[1] + 2.0 * floor for a, b in zip(rows, rows[1:]))
    final_omega = rows[-1][2]
    ok = nonincreasing and final_omega <= 0.02
    _report(6, ok, "w residuals " + ", ".join(f"{w:.4f}" for _h, w, _o in rows)
                   + f"; final coupling residual {final_omega:.4f}")
    assert nonincreasing
    assert final_omega <= 0.02


def test_criterion_7_periodic_trend(rotation):
    deltas = (0.5, 0.1, 0.02)
    candidates = rotation_delta_family(rotation, (1.0, 0.0), deltas)
    result = periodic_value_search(rotation, (1.0, 0.0), candidates,
                                   dt=1e-2, closure_tolerance=1e-3)
    values = [row.value for row in result.rows]
    closures = [row.closure_error for row in result.rows]
    ok = (values[0] > values[1] > values[2]
          and values[2] <= -0.9
          and all(c <= 1e-3 for c in closures))
    _report(7, ok, "loop averages " + ", ".join(f"{v:.4f}" for v in values)
                   + f"; worst closure {max(closures):.1e}")
    assert values[0] > values[1] > values[2]
    assert values[2] <= -0.9
    assert all(c <= 1e-3 for c in closures)


def test_criterion_8_perturbed_sweep(perturbed_solutions):
    values = {eps: sol.value for eps, (_inst, sol) in perturbed_solutions.items()}
    assert all(sol.status == "optimal" for _i, sol in perturbed_solutions.values())
    ordered = [values[eps] for eps in sorted(EPSILONS)]  # increasing epsilon
    monotone = all(a <= b + 1e-7 for a, b in zip(ordered, ordered[1:]))
    dominated = all(v >= values[0.0] - 1e-7 for v in values.values())
    convergent = abs(values[0.001] - values[0.0]) <= 0.01
    ok = monotone and dominated and convergent
    _report(8, ok, "values " + ", ".join(f"{eps:g}: {values[eps]:.4f}"
                                         for eps in sorted(EPSILONS))
                   + f"; |v(0.001) - v(0)| = {abs(values[0.001] - values[0.0]):.2e}")
    assert monotone
    assert dominated
    assert convergent


def test_criterion_9_frozen_exactness():
    spec = built("frozen", lower=(0.0, 0.0), upper=(1.0, 1.0), cost="y1 + u1^2")
    grid = build_grid(spec, 2, 9)
    basis = basis_for_region(spec.region, 4)
    y0 = (0.25, 0.25)  # a grid state, so the coupling rows are exactly satisfiable
    reference = oracle.frozen_value(spec, y0).value

    blocks = LpBlocks(grid, basis, y0)
    values = {
        "ergodic": solve(build_ergodic_lp(blocks)).value,
        "coupled": solve(build_nonergodic_lp(blocks)).value,
        "discounted": solve(build_discounted_lp(blocks, 1.0)).value,
        "perturbed0": solve(build_perturbed_lp(blocks, 0.0)).value,
    }
    traj = integrate(spec, y0, ConstantPolicy(0.0), 5.0, 1e-3)
    values["cesaro"] = cesaro_value(traj, spec)
    values["abel"] = abel_value(spec, y0, ConstantPolicy(0.0), rate=1.0,
                                horizon=25.0, dt=1e-3, tail_tolerance=1e-6).value
    worst = max(abs(v - reference) for v in values.values())
    ok = worst <= 1e-6
    _report(9, ok, f"reference {reference:.6f}, max deviation {worst:.2e} over "
                   + ", ".join(sorted(values)))
    assert worst <= 1e-6


def test_criterion_10_refinement_stability(rotation, solve_unit_circle):
    _instance, base, _t = solve_unit_circle
    fine_grid = build_grid(rotation, (5, 128), 9)
    fine_basis = basis_for_region(rotation.region, 6)
    fine = solve(build_nonergodic_lp(LpBlocks(fine_grid, fine_basis, (1.0, 0.0))))
    delta = abs(fine.value - base.value)
    ok = fine.status == "optimal" and delta <= 0.02
    _report(10, ok, f"value {base.value:.6f} -> {fine.value:.6f} "
                    f"(angles x2, degree +2), |change| = {delta:.2e}")
    assert fine.status == "optimal"
    assert delta <= 0.02
