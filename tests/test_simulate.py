import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as integrate_quad

from occlp import exprs, simulate, system
from occlp.basis import basis_for_region, phi_matrix
from occlp.grid import LpBlocks, build_grid, nearest_atom_index
from occlp.simulate import (ConstantPolicy, FeedbackPolicy, InsufficientHorizonError,
                            LawPolicy, PeriodicCandidate, Policy, SchedulePolicy,
                            SimulationError, StateConstraintError, abel_value, cesaro_value,
                            empirical_occupational_measure, feedback_table_policy,
                            horizon_study, integrate, periodic_value_search,
                            rk4_step, rotation_delta_family)
from occlp.system import dynamics_fn

from systems import built


@pytest.fixture(scope="module")
def rotation():
    return built("rotation")


@pytest.fixture(scope="module")
def frozen():
    return built("frozen", lower=(0.0, 0.0), upper=(1.0, 1.0), cost="y1 + u1^2")


def test_frozen_trajectory_is_constant(frozen):
    traj = integrate(frozen, (0.25, 0.75), ConstantPolicy(0.3), 2.0, 1e-2)
    assert np.all(traj.states == traj.states[0])
    assert traj.fully_in_region


def test_rotation_loop_closure(rotation):
    traj = integrate(rotation, (1.0, 0.0), ConstantPolicy(1.0), 2 * math.pi, 1e-3)
    assert np.linalg.norm(traj.final_state() - (1.0, 0.0)) <= 1e-6
    # the conserved radius stays put over a long run
    long = integrate(rotation, (1.0, 0.0), ConstantPolicy(1.0), 100.0, 1e-3)
    energy = long.states[:, 0] ** 2 + long.states[:, 1] ** 2
    assert np.max(np.abs(energy - 1.0)) <= 1e-9


def test_scalar_drift_exponential():
    spec = built("scalar-drift", cost="y1^2")
    traj = integrate(spec, (1.0,), ConstantPolicy(0.0), 1.0, 1e-3)
    assert traj.final_state()[0] == pytest.approx(math.exp(-1.0), abs=1e-6)


def _custom(*dynamics: str) -> system.SystemSpec:
    dim = len(dynamics)
    return built("custom", region="box", lower=(-2.0,) * dim, upper=(2.0,) * dim,
                 dynamics=dynamics)


# systems with their start points: built-in and expression-compiled dynamics
_SYSTEMS = [(built("rotation"), (1.0, 0.0)),
            (built("scalar-drift", cost="y1^2"), (0.6,)),
            (_custom("-y1 + u1", "-y2 + y1"), (0.5, -0.5)),
            (_custom("sin(y2)*u1^2", "-exp(y1)*u1"), (0.3, -0.7))]


def test_states_satisfy_recomputable_update():
    for spec, y0 in _SYSTEMS:
        traj = integrate(spec, y0, SchedulePolicy([0.0, 0.02], [0.7, -0.4]), 0.05, 1e-3)
        f = dynamics_fn(spec)
        for i in range(len(traj.controls)):
            expected = rk4_step(f, tuple(traj.states[i]), tuple(traj.controls[i]), traj.dt)
            assert np.asarray(expected).tobytes() == traj.states[i + 1].tobytes()


def _step_by_step(spec, y0, policy, horizon, dt):
    """The reference loop: ask the policy at every step, then one ``rk4_step``."""
    n = math.ceil(horizon / dt)
    dt = horizon / n
    f = dynamics_fn(spec)
    y, states, controls = tuple(y0), [tuple(y0)], []
    for i in range(n):
        u = policy.control(i * dt, y)
        y = rk4_step(f, y, u, dt)
        controls.append(u)
        states.append(y)
    return np.array(states), np.array(controls)


_CONTROLS = st.floats(-1.0, 1.0)


@st.composite
def _schedules(draw):
    # piece lengths from far below to a few times the step (dt is at most 0.02),
    # so switch times fall off the step grid and some pieces hold for no step
    lengths = draw(st.lists(st.floats(1e-4, 0.06), min_size=0, max_size=5))
    times = [0.0]
    for length in lengths:
        times.append(times[-1] + length)
    values = draw(st.lists(_CONTROLS, min_size=len(times), max_size=len(times)))
    tail = draw(st.none() | st.floats(1e-4, 0.06))
    return SchedulePolicy(times, values, None if tail is None else times[-1] + tail)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(range(len(_SYSTEMS))),
       policy=_schedules() | _CONTROLS.map(ConstantPolicy),
       horizon=st.floats(0.01, 0.3), dt=st.sampled_from([1e-3, 3e-3, 0.01, 0.02]))
def test_held_control_runs_match_step_by_step_integration(case, policy, horizon, dt):
    spec, y0 = _SYSTEMS[case]
    traj = integrate(spec, y0, policy, horizon, dt)
    states, controls = _step_by_step(spec, y0, policy, horizon, dt)
    assert traj.controls.tobytes() == controls.tobytes()
    assert traj.states.tobytes() == states.tobytes()


def test_schedule_runs_never_ask_the_policy(monkeypatch, rotation):
    # a schedule's pieces are looked up for all steps at once; a lost fast path
    # would fall back to one control call per step without failing anything else
    calls = []
    monkeypatch.setattr(SchedulePolicy, "control", lambda self, t, y: calls.append(t))
    for policy in (SchedulePolicy([0.0, 0.5], [1.0, -1.0], period=1.0), ConstantPolicy(0.5)):
        integrate(rotation, (1.0, 0.0), policy, 3.0, 1e-3)
    assert calls == []


@pytest.mark.parametrize("bad", [2.0, math.nan], ids=["box", "nan"])
def test_escaping_control_is_reported_at_its_step(bad):
    spec = _custom("-y1 + u1")
    k = 7
    # y decreases under u = 0, so the feedback first leaves the control set at step k
    free = integrate(spec, (1.0,), ConstantPolicy(0.0), 0.02, 1e-3)
    threshold = free.states[k, 0]
    policy = FeedbackPolicy(lambda y: (0.0,) if y[0] > threshold else (bad,))
    message = f"escapes the control region at t={k * free.dt}"
    with pytest.raises(SimulationError, match=re.escape(message) + "$"):
        integrate(spec, (1.0,), policy, 0.02, 1e-3)


@pytest.mark.parametrize("period", [None, 0.05])
def test_escaping_schedule_piece_is_reported_at_its_first_step(period):
    spec = _custom("-y1 + u1")
    switch = 0.0123  # off the step grid: the piece is first held at step 13
    free = integrate(spec, (0.5,), ConstantPolicy(0.0), 0.02, 1e-3)
    k = next(i for i in range(len(free.controls)) if i * free.dt >= switch)
    policy = SchedulePolicy([0.0, switch], [0.5, 2.0], period)
    message = f"policy control (2.0,) escapes the control region at t={k * free.dt}"
    with pytest.raises(SimulationError, match=re.escape(message) + "$"):
        integrate(spec, (0.5,), policy, 0.02, 1e-3)


def _rotation_about(center) -> system.SystemSpec:
    return system.SystemSpec(
        dynamics_text=("u1*y2", "-u1*y1"), cost_id="y1",
        region=system.StateRegion(kind="annulus", inner=0.5, outer=1.5, center=center),
        control=system.ControlRegion(lower=(0.0,), upper=(1.0,)))


def _delta_closure(delta, cx, cy):
    """The angle-feedback law of ``rotation_delta_family`` as plain Python."""
    def feedback(y):
        theta = math.atan2(y[1] - cy, y[0] - cx)
        return ((delta + (1.0 - delta) * (1.0 + math.cos(theta)) / 2.0) ** 2,)
    return feedback


@settings(max_examples=60, deadline=None)
@given(delta=st.floats(1e-3, 1.0), radius=st.floats(0.5, 1.5),
       angle=st.floats(-math.pi, math.pi), center=st.sampled_from([(0.0, 0.0), (0.25, -0.5)]),
       horizon=st.floats(0.01, 1.0), dt=st.sampled_from([1e-3, 3e-3, 0.01, 0.02]))
def test_closed_loop_law_runs_match_step_by_step_integration(delta, radius, angle, center,
                                                             horizon, dt):
    spec = _rotation_about(center)
    y0 = (center[0] + radius * math.cos(angle), center[1] + radius * math.sin(angle))
    policy = rotation_delta_family(spec, y0, [delta])[0].policy
    assert isinstance(policy, LawPolicy)
    traj = integrate(spec, y0, policy, horizon, dt)
    states, controls = _step_by_step(spec, y0, policy, horizon, dt)
    assert traj.controls.tobytes() == controls.tobytes()
    assert traj.states.tobytes() == states.tobytes()
    # the law is the closed-form feedback, float operation for float operation
    closure = _delta_closure(delta, *center)
    expected = np.array([closure(tuple(y)) for y in traj.states[:-1]])
    assert traj.controls.tobytes() == expected.tobytes()


def test_closed_loop_runs_never_ask_the_policy(monkeypatch, rotation):
    calls = []
    monkeypatch.setattr(FeedbackPolicy, "control", lambda self, t, y: calls.append(t))
    for cand in rotation_delta_family(rotation, (1.0, 0.0), [0.5, 0.1]):
        integrate(rotation, (1.0, 0.0), cand.policy, cand.period, 1e-2)
    assert calls == []


# 0 while y1 >= 0.8 and 0.8 - y1 once below: a switch that needs no comparison
_BELOW = "((0.8 - y1) + abs(0.8 - y1))"


@pytest.mark.parametrize("law", [
    f"{_BELOW} * 1e12",
    # finite times 1e308 twice is inf for any positive switch, and inf * 0 is NaN
    f"{_BELOW} * 1e308 * 1e308 * 0",
], ids=["box", "nan"])
def test_escaping_law_is_reported_like_step_by_step(law):
    spec = _custom("-y1 + u1")
    policy = LawPolicy([exprs.parse_expr(law, 1, 0)])
    # y decreases under u = 0, so the law first leaves the control set at step k
    free = integrate(spec, (1.0,), ConstantPolicy(0.0), 0.3, 1e-3)
    k = int(np.argmax(free.states[:, 0] < 0.8))
    message = f"escapes the control region at t={k * free.dt}"
    with pytest.raises(SimulationError, match=re.escape(message) + "$") as closed:
        integrate(spec, (1.0,), policy, 0.3, 1e-3)
    with pytest.raises(SimulationError) as stepwise:
        integrate(spec, (1.0,), FeedbackPolicy(policy.fn), 0.3, 1e-3)
    assert str(closed.value) == str(stepwise.value)


@pytest.mark.parametrize("dynamics", ["sqrt(y1) - 1 + u1", "y1^0.5 - 1 + u1",
                                      "0 / y1 - 1 + u1"])
def test_failing_closed_loop_run_is_reported_like_step_by_step(dynamics):
    # y1 falls through 0 (exactly, for the last one): a domain error or a division by 0
    spec = system.SystemSpec(
        dynamics_text=(dynamics,), cost_id="y1",
        region=system.StateRegion(kind="box", lower=(-2.0,), upper=(2.0,)),
        control=system.ControlRegion(lower=(-1.0,), upper=(1.0,)))
    policy = LawPolicy([exprs.parse_expr("0 * y1", 1, 0)])
    with pytest.raises(SimulationError, match=r"^non-finite state at t=\S+: \w+Error") as closed:
        integrate(spec, (0.75,), policy, 10.0, 0.25)
    with pytest.raises(SimulationError) as stepwise:
        integrate(spec, (0.75,), FeedbackPolicy(policy.fn), 10.0, 0.25)
    assert str(closed.value) == str(stepwise.value)


# runs of thousands of steps, each parking at the step given: the rotation
# steered half a turn and then held, the frozen system, a law that holds u = 0
# while the state decays to a subnormal that RK4 maps to itself, and a start
# at -0.0 that the first step maps to +0.0, so that only the second step parks
_PARKING_RUNS = {
    "steer-then-hold": (built("rotation"), (1.0, 0.0),
                        SchedulePolicy([0.0, math.pi], [1.0, 0.0]), 20.0, 1e-3, 3142),
    "frozen": (built("frozen", cost="y1 + u1^2"), (0.25, -0.75), ConstantPolicy(0.3), 50.0,
               1e-2, 0),
    "law": (_custom("-y1 + u1"), (0.75,), LawPolicy([exprs.parse_expr("0 * y1", 1, 0)]),
            2500.0, 0.25, 2973),
    "negative-zero": (built("frozen", cost="y1 + u1^2"), (-0.0, 0.5), ConstantPolicy(0.3), 50.0,
                      1e-2, 1),
}


@pytest.mark.parametrize("chunk", [simulate.PARK_CHUNK, 3])
@pytest.mark.parametrize("name", list(_PARKING_RUNS))
def test_parking_runs_match_step_by_step_integration(monkeypatch, name, chunk):
    spec, y0, policy, horizon, dt, parked = _PARKING_RUNS[name]
    monkeypatch.setattr(simulate, "PARK_CHUNK", chunk)
    traj = integrate(spec, y0, policy, horizon, dt)
    states, controls = _step_by_step(spec, y0, policy, horizon, dt)
    assert len(traj.controls) > 4096
    assert traj.cycle == (parked, 1)
    assert traj.controls.tobytes() == controls.tobytes()
    assert traj.states.tobytes() == states.tobytes()
    if name == "negative-zero":
        assert np.signbit(traj.states[:3, 0]).tolist() == [True, False, False]


# box-custom: y1' = -y1 + u1, y2' = -y2 + y1 on [-1, 1]^2 under a period-4
# schedule, whose runs repeat one period exactly from the step given on
_BOX = built("custom", region="box", dynamics=("-y1 + u1", "-y2 + y1"),
              cost="y2^2 + 0.5*u1^2")
_BOX_SCHEDULE = SchedulePolicy([0.0, 2.0], [1.0, -1.0], period=4.0)
_BOX_CYCLES = {(0.5, -0.5): (44000, 4400), (-0.5, 0.5): (40000, 4400),
               (0.25, 0.75): (44000, 4400), (-0.75, -0.25): (36000, 4000),
               (0.0, 0.0): (44000, 4400)}  # cycle start at dt 1e-3 and at dt 1e-2

# runs whose tail repeats a whole period: (spec, y0, policy, horizon, dt, cycle)
_PERIODIC_RUNS = {
    **{f"box-{y0[0]:g},{y0[1]:g}-dt{dt:g}":
       (_BOX, y0, _BOX_SCHEDULE, 60.0, dt, (start, round(4.0 / dt)))
       for y0, starts in _BOX_CYCLES.items() for dt, start in zip((1e-3, 1e-2), starts)},
    # the switches drift off the step grid, so the pieces never repeat
    "box-off-grid-period": (_BOX, (0.5, -0.5), SchedulePolicy([0.0, 2.0], [1.0, -1.0], 4.0005),
                            60.0, 1e-3, None),
    # the state never moves, so the first period already maps it to itself
    "frozen-periodic": (built("frozen", cost="y1 + u1^2"), (0.25, -0.75), _BOX_SCHEDULE, 60.0,
                        1e-3, (0, 4000)),
    # half a radian per period, forever
    "rotation-turning": (built("rotation"), (1.0, 0.0),
                         SchedulePolicy([0.0, 0.5], [1.0, 0.0], period=2.0), 60.0, 1e-3, None),
}


class _AskedSchedule(Policy):
    """A schedule that ``integrate`` has to ask step by step."""

    def __init__(self, schedule):
        self.schedule = schedule

    def control(self, t, y):
        return self.schedule.control(t, y)


@pytest.mark.parametrize("name", list(_PERIODIC_RUNS))
def test_periodic_schedule_runs_match_step_by_step_integration(name):
    spec, y0, policy, horizon, dt, cycle = _PERIODIC_RUNS[name]
    traj = integrate(spec, y0, policy, horizon, dt)
    reference = integrate(spec, y0, _AskedSchedule(policy), horizon, dt)
    assert traj.cycle == cycle and reference.cycle is None
    assert traj.controls.tobytes() == reference.controls.tobytes()
    assert traj.states.tobytes() == reference.states.tobytes()
    assert traj.in_region.tobytes() == reference.in_region.tobytes()


_TAIL_RUNS = {name: (*run[:5], (run[5], 1)) for name, run in _PARKING_RUNS.items()}
_TAIL_RUNS.update((name, _PERIODIC_RUNS[name]) for name in (
    "box-0.5,-0.5-dt0.001", "box--0.75,-0.25-dt0.01", "frozen-periodic"))


@pytest.mark.parametrize("name", list(_TAIL_RUNS))
def test_parked_tail_is_tested_and_costed_once(monkeypatch, name):
    spec, y0, policy, horizon, dt, cycle = _TAIL_RUNS[name]
    grid = build_grid(spec, (5, 16) if spec.region.kind == "annulus" else 4, 3)
    evaluated, binned = [], []
    contains, cost_at = system.StateRegion.contains, system.SystemSpec.cost_at
    monkeypatch.setattr(system.StateRegion, "contains",
                        lambda self, y: evaluated.append(len(y)) or contains(self, y))
    monkeypatch.setattr(system.SystemSpec, "cost_at", lambda self, y, u: (
        evaluated.append(len(y)), cost_at(self, y, u))[1])
    monkeypatch.setattr(simulate, "nearest_atom_index", lambda grid, y, u: (
        binned.append(len(y)), nearest_atom_index(grid, y, u))[1])
    traj = integrate(spec, y0, policy, horizon, dt)
    left, right = simulate._endpoint_costs(traj)
    cesaro = cesaro_value(traj, spec)
    atoms = simulate._atoms(traj, grid)
    assert traj.cycle == cycle
    assert max(evaluated[1:]) == sum(cycle)  # evaluated[0] tests y0
    assert binned == [sum(cycle)]
    # bitwise what every sample gives
    monkeypatch.undo()
    k = spec.cost_at
    every_left, every_right = k(traj.states[:-1], traj.controls), k(traj.states[1:], traj.controls)
    assert traj.in_region.tobytes() == spec.region.contains(traj.states).tobytes()
    every = nearest_atom_index(grid, traj.states[:-1], traj.controls)
    assert atoms.dtype == every.dtype and atoms.tobytes() == every.tobytes()
    assert left.tobytes() == every_left.tobytes() and right.tobytes() == every_right.tobytes()
    assert cesaro == float(np.sum(0.5 * (every_left + every_right) * traj.dt) / traj.horizon)
    rate = 0.01
    discounted = (every_left * np.exp(-rate * traj.times[:-1])
                  + every_right * np.exp(-rate * traj.times[1:]))
    reference = rate * float(np.sum(0.5 * discounted * traj.dt))
    assert abel_value(spec, y0, policy, rate, horizon, dt, tail_tolerance=10.0).value == reference


@pytest.mark.parametrize("chunk", [simulate.PARK_CHUNK, 3])
@pytest.mark.parametrize("law", [None, "0 * y1"])
def test_late_blow_up_is_reported_like_step_by_step(monkeypatch, law, chunk):
    # y1' = y1^2 / 1000 from 1 blows up at t = 1000, after 10,000 steps of 0.1
    spec = _custom("0.001 * y1 * y1 + u1")
    if law is None:
        policy, stepwise = ConstantPolicy(0.0), FeedbackPolicy(lambda y: (0.0,))
    else:
        policy = LawPolicy([exprs.parse_expr(law, 1, 0)])
        stepwise = FeedbackPolicy(policy.fn)
    monkeypatch.setattr(simulate, "PARK_CHUNK", chunk)
    with pytest.raises(SimulationError, match=r"^non-finite state at t=1000\.3\d*: ") as run:
        integrate(spec, (1.0,), policy, 2000.0, 0.1)
    with pytest.raises(SimulationError) as reference:
        integrate(spec, (1.0,), stepwise, 2000.0, 0.1)
    assert str(run.value) == str(reference.value)


def test_integrate_validation(rotation):
    with pytest.raises(StateConstraintError):
        integrate(rotation, (0.1, 0.0), ConstantPolicy(0.0), 1.0)
    with pytest.raises(SimulationError):
        integrate(rotation, (1.0, 0.0), ConstantPolicy(2.0), 1.0)  # control escapes
    with pytest.raises(SimulationError):
        integrate(rotation, (1.0, 0.0), ConstantPolicy(0.0), -1.0)


def test_cesaro_constant(frozen):
    traj = integrate(frozen, (0.25, 0.25), ConstantPolicy(0.5), 3.0, 1e-3)
    assert cesaro_value(traj, frozen) == pytest.approx(0.25 + 0.25, abs=1e-12)


def test_cesaro_full_rotation_averages_out(rotation):
    traj = integrate(rotation, (1.0, 0.0), ConstantPolicy(1.0), 2 * math.pi, 1e-3)
    assert abs(cesaro_value(traj, rotation)) <= 1e-4


def test_cesaro_steer_then_hold_transient_bound(rotation):
    # steer half a turn at unit speed, then park at the angle of minimal cost;
    # the average is exactly -(T - pi)/T plus the vanishing cosine integral
    horizon = 60.0
    policy = SchedulePolicy([0.0, math.pi], [1.0, 0.0])
    traj = integrate(rotation, (1.0, 0.0), policy, horizon, 1e-3)
    assert cesaro_value(traj, rotation) == pytest.approx(-(horizon - math.pi) / horizon,
                                                         abs=1e-3)


def test_cesaro_rejects_escaping_trajectory():
    drift = system.SystemSpec(
        dynamics_text=("1",), cost_id="y1",
        region=system.StateRegion(kind="box", lower=(0.0,), upper=(1.0,)),
        control=system.ControlRegion(lower=(-1.0,), upper=(1.0,)),
        bound_f=1.0, bound_k=1.0)
    traj = integrate(drift, (0.5,), ConstantPolicy(0.0), 1.0, 1e-2)
    assert not traj.fully_in_region
    with pytest.raises(StateConstraintError):
        cesaro_value(traj, drift)


def test_abel_constant_cost(rotation):
    const = built("rotation", cost="3")
    result = abel_value(const, (1.0, 0.0), ConstantPolicy(1.0), rate=0.5,
                        horizon=40.0, dt=1e-3)
    assert result.value == pytest.approx(3.0, abs=3 * result.tail_bound + 1e-6)


def test_abel_frozen(frozen):
    result = abel_value(frozen, (0.25, 0.25), ConstantPolicy(0.5), rate=1.0,
                        horizon=25.0, dt=1e-3, tail_tolerance=1e-6)
    assert result.value == pytest.approx(0.5, abs=1e-6)


def test_abel_cesaro_consistency_at_matched_scales(rotation):
    # matched scales: discount rate ~ 1 / averaging horizon
    horizon = 60.0
    policy = SchedulePolicy([0.0, math.pi], [1.0, 0.0])
    traj = integrate(rotation, (1.0, 0.0), policy, horizon, 1e-2)
    cesaro = cesaro_value(traj, rotation)
    abel = abel_value(rotation, (1.0, 0.0), policy, rate=1.0 / horizon, horizon=450.0,
                      dt=1e-2, tail_tolerance=1e-3)
    assert abs(abel.value - cesaro) <= 0.1


def test_abel_insufficient_horizon(rotation):
    with pytest.raises(InsufficientHorizonError):
        abel_value(rotation, (1.0, 0.0), ConstantPolicy(0.0), rate=0.001, horizon=10.0)


def test_empirical_measure_constant_trajectory(frozen):
    g = build_grid(frozen, 2, 3)
    traj = integrate(frozen, (0.25, 0.75), ConstantPolicy(0.0), 1.0, 1e-2)
    measure = empirical_occupational_measure(traj, g)
    assert measure.total_mass == pytest.approx(1.0, abs=1e-9)
    assert np.count_nonzero(measure.weights) == 1
    a = int(np.argmax(measure.weights))
    y, u = g.atom(a)
    assert np.allclose(y, (0.25, 0.75))
    assert u[0] == 0.0


def test_empirical_measure_equidistributes(rotation):
    n_theta = 32
    g = build_grid(rotation, (5, n_theta), 3)
    traj = integrate(rotation, (1.0, 0.0), ConstantPolicy(1.0), 4 * 2 * math.pi, 1e-3)
    measure = empirical_occupational_measure(traj, g)
    # mass sits on the unit circle at the u = 1 cell, near-uniform per angle
    radii = np.linalg.norm(g.atom_states, axis=1)
    on_circle = np.abs(radii - 1.0) <= 1e-9
    at_u1 = g.atom_controls[:, 0] == 1.0
    assert measure.weights[on_circle & at_u1].sum() == pytest.approx(1.0, abs=1e-9)
    cell_weights = measure.weights[on_circle & at_u1]
    assert np.max(np.abs(cell_weights - 1.0 / n_theta)) <= 2.0 / n_theta


def annulus_cell_diameter(g):
    """Twice the half-diagonal of the widest polar cell of an annulus grid: a bound
    on the distance from a point of the annulus to its nearest atom state."""
    radii, angles = g.spec.region.axes(g.resolution)
    return 2.0 * np.hypot(np.max(np.diff(radii)) / 2.0, radii[-1] * angles[1] / 2.0)


def test_measure_trajectory_duality(rotation):
    g = build_grid(rotation, (5, 64), 9)
    b = basis_for_region(rotation.region, 4)
    policy = SchedulePolicy([0.0, 1.0], [1.0, 0.25])
    traj = integrate(rotation, (1.0, 0.0), policy, 30.0, 1e-3)
    measure = empirical_occupational_measure(traj, g)
    phis_atoms = phi_matrix(b, g.atom_states)
    phis_path = phi_matrix(b, traj.states[:-1])
    cell = annulus_cell_diameter(g)
    lo, hi = rotation.region.bounding_box()
    probe = rotation.region.sample(24)
    from occlp.basis import grad_matrix
    grad_sup = np.max(np.linalg.norm(grad_matrix(b, probe), axis=2), axis=1)
    for idx in range(b.count):
        lhs = measure.weights @ phis_atoms[idx]
        rhs = float(np.mean(phis_path[idx]))
        assert abs(lhs - rhs) <= grad_sup[idx] * cell + 1e-6


def test_empirical_measure_integral_identity(rotation):
    # integrating the running cost against the binned measure reproduces the
    # time average within the cost's modulus over one cell
    g = build_grid(rotation, (5, 64), 9)
    traj = integrate(rotation, (1.0, 0.0), ConstantPolicy(0.8), 50.0, 1e-3)
    measure = empirical_occupational_measure(traj, g)
    k_atoms = rotation.cost_at(g.atom_states, g.atom_controls)
    lhs = measure.weights @ k_atoms
    k_path = rotation.cost_at(traj.states[:-1], traj.controls)
    rhs = float(np.mean(k_path))
    assert abs(lhs - rhs) <= annulus_cell_diameter(g) + 1e-6


def test_periodic_family_values_match_closed_form(rotation):
    # the slowdown family has the closed-form loop average -(1-d)/(1+d) for
    # the first-coordinate cost on the unit circle
    deltas = [0.5, 0.1, 0.02]
    candidates = rotation_delta_family(rotation, (1.0, 0.0), deltas)
    result = periodic_value_search(rotation, (1.0, 0.0), candidates, dt=1e-2)
    values = [row.value for row in result.rows]
    for delta, value in zip(deltas, values):
        assert value == pytest.approx(-(1 - delta) / (1 + delta), abs=2e-3)
    assert values[0] > values[1] > values[2]
    assert all(row.closure_error <= 1e-3 for row in result.rows)
    assert result.best_value == min(values)
    # the closed-form period is the integral of 1/u(theta) over one turn
    for delta, cand in zip(deltas, candidates):
        period, _ = integrate_quad(
            lambda t: (delta + (1 - delta) * (1 + math.cos(t)) / 2) ** -2,
            0.0, 2 * math.pi, epsabs=0.0, epsrel=1e-13, limit=200)
        assert cand.period == pytest.approx(period, rel=1e-12)


def test_periodic_unit_speed_loop_is_zero_mean(rotation):
    candidate = PeriodicCandidate("u=1", ConstantPolicy(1.0), 2 * math.pi)
    result = periodic_value_search(rotation, (1.0, 0.0), [candidate], dt=1e-3)
    assert abs(result.best_value) <= 1e-3


def test_periodic_frozen_constant_policies(frozen):
    candidates = [PeriodicCandidate(f"u={u}", ConstantPolicy(u), 1.0) for u in (-1.0, 0.0, 0.5)]
    result = periodic_value_search(frozen, (0.25, 0.25), candidates, dt=1e-2)
    by_label = {row.label: row.value for row in result.rows}
    assert by_label["u=0.0"] == pytest.approx(0.25)
    assert by_label["u=0.5"] == pytest.approx(0.5)
    assert by_label["u=-1.0"] == pytest.approx(1.25)
    assert result.best_value == pytest.approx(0.25)


def test_periodic_search_requires_closure(rotation):
    broken = PeriodicCandidate("u=1 wrong period", ConstantPolicy(1.0), 3.0)
    with pytest.raises(SimulationError):
        periodic_value_search(rotation, (1.0, 0.0), [broken], dt=1e-3)


def test_delta_family_validates_parameters(rotation):
    with pytest.raises(SimulationError):
        rotation_delta_family(rotation, (1.0, 0.0), [1.5])


def test_residual_decay_rotation(rotation):
    g = build_grid(rotation, (5, 64), 9)
    b = basis_for_region(rotation.region, 4)
    policy = SchedulePolicy([0.0, math.pi], [1.0, 0.0])
    rows = horizon_study(LpBlocks(g, b, (1.0, 0.0)), policy, (10.0, 20.0, 40.0), dt=1e-2)
    w = [row.residual.w_residual for row in rows]
    assert w[0] >= w[1] >= w[2] - 1e-12
    assert rows[-1].residual.omega_residual <= 0.02


def test_residual_decay_frozen_floor(frozen):
    g = build_grid(frozen, 2, 3)
    b = basis_for_region(frozen.region, 4)
    rows = horizon_study(LpBlocks(g, b, (0.25, 0.25)), ConstantPolicy(0.0), (1.0, 2.0, 4.0),
                         dt=1e-2)
    for row in rows:
        assert row.residual.w_residual <= 1e-12
        assert row.residual.omega_residual <= 1e-9


def test_residual_decay_integer_periods_at_floor(rotation):
    g = build_grid(rotation, (5, 64), 3)
    b = basis_for_region(rotation.region, 4)
    rows = horizon_study(LpBlocks(g, b, (1.0, 0.0)), ConstantPolicy(1.0),
                         (2 * math.pi, 4 * math.pi), dt=1e-3)
    # whole numbers of loops average exactly; the floor does not grow with T
    w = [row.residual.w_residual for row in rows]
    assert all(v <= 1e-3 for v in w)
    assert abs(w[0] - w[1]) <= 1e-3


def test_horizon_study_windows_are_separate_runs():
    cases = [
        # at dt = 1e-3 the horizons 25 and 50 are exact prefixes of the 100 run
        (built("rotation"), (1.0, 0.0), SchedulePolicy([0.0, math.pi], [1.0, 0.0]),
         (50.0, 25.0, 100.0), [(3142, 1)] * 3),
        # box-custom's cycle starts at step 44,000 and first repeats at 48,000: the
        # windows end before it starts, inside its first pass, and in its repeats
        (_BOX, (0.5, -0.5), _BOX_SCHEDULE, (25.0, 46.0, 48.0, 60.0),
         [None, None, (44000, 4000), (44000, 4000)]),
    ]
    for spec, y0, policy, horizons, cycles in cases:
        g = build_grid(spec, (5, 16) if spec.region.kind == "annulus" else 4, 3)
        b = basis_for_region(spec.region, 2)
        rows = horizon_study(LpBlocks(g, b, y0), policy, horizons, dt=1e-3)
        assert [row.horizon for row in rows] == sorted(horizons)
        assert [row.trajectory.cycle for row in rows] == cycles
        for row in rows:
            alone = integrate(spec, y0, policy, row.horizon, 1e-3)
            assert row.trajectory.dt == alone.dt
            for name in ("times", "states", "controls", "in_region", "cycle"):
                assert np.array_equal(getattr(row.trajectory, name), getattr(alone, name))
            measure = empirical_occupational_measure(alone, g)
            assert np.array_equal(row.measure.weights, measure.weights)
        with pytest.raises(SimulationError):
            horizon_study(LpBlocks(g, b, y0), policy, (0.0, 1.0))


def test_parked_tail_is_binned_like_every_sample(rotation):
    g = build_grid(rotation, (5, 16), 3)
    b = basis_for_region(rotation.region, 2)
    policy = SchedulePolicy([0.0, math.pi], [1.0, 0.0])
    run = integrate(rotation, (1.0, 0.0), policy, 100.0, 1e-2)
    assert run.cycle == (315, 1)
    every = nearest_atom_index(g, run.states[:-1], run.controls)
    # the last steered sample (u = 1) and the parked one (u = 0) bin apart, so a
    # tail taken to start one step early would move mass between atoms
    assert every[314] != every[315]
    atoms = simulate._atoms(run, g)
    assert atoms.dtype == every.dtype
    assert atoms.tobytes() == every.tobytes()
    rows = horizon_study(LpBlocks(g, b, (1.0, 0.0)), policy, (25.0, 50.0, 100.0), dt=1e-2)
    for row in rows:
        assert row.trajectory.cycle == (315, 1)
        measure = empirical_occupational_measure(row.trajectory, g)
        assert row.measure.weights.tobytes() == measure.weights.tobytes()


def test_policies():
    schedule = SchedulePolicy([0.0, 1.0, 2.0], [0.1, 0.2, 0.3])
    assert schedule.control(0.5, None) == (0.1,)
    assert schedule.control(1.0, None) == (0.2,)
    assert schedule.control(5.0, None) == (0.3,)
    wrapped = SchedulePolicy([0.0, 1.0], [0.1, 0.2], period=2.0)
    assert wrapped.control(2.5, None) == (0.1,)
    assert wrapped.control(3.5, None) == (0.2,)
    with pytest.raises(SimulationError):
        SchedulePolicy([1.0], [0.1])
    with pytest.raises(SimulationError):
        SchedulePolicy([0.0, 0.0], [0.1, 0.2])

    feedback = FeedbackPolicy(lambda y: (-np.sign(y[0]),))
    assert feedback.control(0.0, (2.0, 0.0)) == (-1.0,)


def test_feedback_table_policy(rotation):
    g = build_grid(rotation, (5, 8), 3)
    table = np.full((g.state_points.shape[0], 1), 0.25)
    policy = feedback_table_policy(g, table)
    assert policy.control(0.0, (1.0, 0.0)) == (0.25,)
    with pytest.raises(SimulationError):
        feedback_table_policy(g, np.ones((3, 1)))
