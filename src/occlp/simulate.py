"""Trajectory integration and simulation-side values.

Fixed-step fourth-order Runge-Kutta with the control held at its value from
the left endpoint of each step; no adaptivity, so runs are reproducible
bit-for-bit, each step as ``rk4_step`` of ``tests/reference.py`` takes
it.  Steps are taken in generated runs, all through one loop in
:func:`integrate`: a stretch of steps with one control is one run, so an
open-loop schedule costs one run per piece it visits; a feedback law given as
expressions is evaluated inside the generated loop, so a closed-loop
trajectory is one run; and any other policy is asked at every step, one run
per step.  A run is one call of the generated loop, or, past ``PARK_CHUNK``
steps, one call per chunk, and such a run parks once a step maps its state to
itself byte for byte: every later step would too, so the rest of the run is
copied, not stepped.  Likewise a periodic schedule stops once a whole period
maps its state to itself byte for byte, and the rest of the trajectory is
that period, tiled.  Either tail, a cycle of one step or of one period, is
tested, costed and binned once.  On top of the integrator:

* finite-horizon average values (per-step trapezoidal quadrature),
* discounted values with a truncation-tail bound exp(-rate T) * bound_k, which
  holds if bound_k bounds |k| (a declared bound, or an estimate: see
  :func:`abel_value`),
* empirical measures on a grid, by nearest-atom binning with a repeating
  tail binned once, which keeps them exactly nonnegative and exactly massed,
* a periodic-policy family search, whose best closed loop estimates an upper
  bound on the best periodic value (an RK4 average, not a proven bound), plus
  a trend table, and
* a horizon study: windows of one run, their empirical measures and
  membership residuals.
"""

from __future__ import annotations

import logging
import math
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, pairwise

import numpy as np

from . import exprs
from .grid import DiscreteMeasure, Grid, LpBlocks, nearest_atom_index, nearest_state_index
from .programs import MembershipResidual, membership_residual
from .system import SystemSpec

log = logging.getLogger(__name__)


class SimulationError(RuntimeError):
    pass


class StateConstraintError(SimulationError):
    pass


class InsufficientHorizonError(SimulationError):
    pass


# ---------------------------------------------------------------------------
# policies


class Policy:
    """Maps (time, state) to a control vector inside the control region."""

    def control(self, t: float, y: tuple) -> tuple:
        raise NotImplementedError


class SchedulePolicy(Policy):
    """Piecewise-constant open-loop schedule; optionally periodic.

    ``times`` are the left endpoints of the pieces (first must be 0, all finite
    and strictly increasing) and ``values`` the controls held on them.  With
    ``period`` set, the schedule wraps around modulo the period, which must be
    finite and greater than the last switch time so that every piece is held.
    """

    def __init__(self, times, values, period: float | None = None):
        self.times = [float(t) for t in times]
        self.values = [tuple(np.atleast_1d(np.asarray(v, dtype=float)).tolist())
                       for v in values]
        if len(self.times) != len(self.values) or not self.times or self.times[0] != 0.0:
            raise SimulationError("schedule needs matching times/values starting at t=0")
        if not all(map(math.isfinite, self.times)):
            raise SimulationError("schedule times must be finite")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise SimulationError("schedule times must be strictly increasing")
        if period is not None:
            period = float(period)
            if not (math.isfinite(period) and period > self.times[-1]):
                raise SimulationError(f"schedule period {period} must be finite and greater "
                                      f"than the last switch time {self.times[-1]}")
        self.period = period

    def step_pieces(self, dt: float, n: int) -> np.ndarray:
        """Index of the piece held at each step time ``i * dt``, ``0 <= i < n``:
        ``control``'s rule for all steps at once, with the same float operations."""
        # in place: a long run has one step time and one index per step
        t = np.arange(n, dtype=float)
        t *= dt
        if self.period is not None:
            np.remainder(t, self.period, out=t)
        pieces = np.searchsorted(self.times, t, "right")
        pieces -= 1
        return pieces

    def control(self, t, y):
        if self.period is not None:
            t = t % self.period
        return self.values[bisect_right(self.times, t) - 1]


class ConstantPolicy(SchedulePolicy):
    """One control held for all time: a one-piece schedule."""

    def __init__(self, u):
        super().__init__([0.0], [u])


class FeedbackPolicy(Policy):
    """Stationary feedback from an arbitrary state-to-control callable."""

    def __init__(self, fn):
        self.fn = fn

    def control(self, t, y):
        out = self.fn(y)
        if isinstance(out, (tuple, list)):
            return tuple(float(v) for v in out)
        return tuple(np.atleast_1d(np.asarray(out, dtype=float)).tolist())


class LawPolicy(FeedbackPolicy):
    """Stationary feedback given as a law: one ``exprs`` expression over the
    state per control component.  ``integrate`` evaluates the law inside its
    generated Runge-Kutta loop; ``control`` evaluates its scalar compilation,
    with the same float operations."""

    def __init__(self, law):
        self.law = tuple(law)
        if any(v.kind == "u" for node in self.law for v in exprs.variables(node)):
            raise SimulationError("a feedback law must read the state only")
        scalar = exprs.compile_scalar(self.law)
        super().__init__(lambda y: scalar(y, ()))


def feedback_table_policy(grid: Grid, table: np.ndarray) -> FeedbackPolicy:
    """Feedback defined cellwise on a grid's state points (nearest-cell lookup;
    a state outside the region gets the control of a cell near it)."""
    table = np.atleast_2d(np.asarray(table, dtype=float))
    if table.shape[0] != grid.state_points.shape[0]:
        raise SimulationError("feedback table must give one control per state point")
    return FeedbackPolicy(lambda y: table[int(nearest_state_index(grid, y)[0])])


# ---------------------------------------------------------------------------
# integration

# the longest chunk of steps a run that may park takes between two checks
PARK_CHUNK = 4096


@dataclass
class Trajectory:
    spec: SystemSpec
    dt: float
    times: np.ndarray  # (n+1,)
    states: np.ndarray  # (n+1, m)
    controls: np.ndarray  # (n, p), left-endpoint control of each step
    in_region: np.ndarray  # (n+1,) bool
    # (start, length) of a repeating tail: from step start + length on, each
    # state and control is the one length steps before it.  A run that parks
    # until the end is a cycle of length 1; None if the tail does not repeat
    cycle: tuple[int, int] | None = None

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def fully_in_region(self) -> bool:
        return bool(np.all(self.in_region))

    def final_state(self) -> np.ndarray:
        return self.states[-1].copy()

    @property
    def distinct_steps(self) -> int:
        """The steps up to the end of the cycle's first pass: every later step
        repeats the state, control and next state of the step one cycle
        before it."""
        return len(self.controls) if self.cycle is None else sum(self.cycle)

    def prefix(self, steps: int) -> Trajectory:
        """The first ``steps`` steps, as views into this trajectory; it keeps
        the cycle if it holds the cycle's first pass."""
        cycle = self.cycle if self.cycle is not None and sum(self.cycle) <= steps else None
        return Trajectory(self.spec, self.dt, self.times[:steps + 1], self.states[:steps + 1],
                          self.controls[:steps], self.in_region[:steps + 1], cycle)


def _run_until_parked(go, y: tuple, count: int, rows: array, m: int,
                      controls: array, p: int):
    """Take one run of ``count`` steps with ``go(y, k)``, a generated loop of
    ``SystemSpec.rk4_run`` bound to all but its start state and its step count.

    The run's step is a pure function of its state: its law reads the state
    and the run's fixed control argument.  So once a step maps its state to
    itself byte for byte, so does every later one.  The run parks
    there: the rest of its states are appended as copies of that state, and
    the rest of its controls as copies of the last one.  Bytes are compared,
    not floats, since -0.0 == 0.0 and ``atan2`` tells them apart.  A run
    longer than ``PARK_CHUNK`` steps is taken in chunks of 1, 2, 4, ...
    steps, at most ``PARK_CHUNK``, and its last two states are compared after
    each chunk; a shorter run, such as the one-step run of a policy asked at
    every step, is one call and never parks.  Returns the last call's
    ``(done, state, escaped)`` with ``done`` counted from the run's start,
    and the index in the run of the first step that maps its state to itself,
    or None.
    """
    if count <= PARK_CHUNK:
        return go(y, count), None
    done, k = 0, 1
    while True:
        k = min(k, count - done)
        got, y, escaped = go(y, k)
        done += got
        if got < k or done == count:
            return (done, y, escaped), None
        if rows[-2 * m:-m].tobytes() == rows[-m:].tobytes():
            # no earlier chunk parked, so the first step that did is in this one
            chunk = np.frombuffer(rows[-(k + 1) * m:], np.uint64).reshape(k + 1, m)
            parked = done - k + int(np.argmax((chunk[1:] == chunk[:-1]).all(axis=1)))
            _repeat_rows(rows, m, 1, count - done)
            _repeat_rows(controls, p, 1, count - done)
            return (count, y, escaped), parked
        k = min(2 * k, PARK_CHUNK)


def integrate(spec: SystemSpec, y0, policy: Policy, horizon: float,
              dt: float = 1e-3) -> Trajectory:
    """Integrate from y0 for ceil(horizon / dt) fixed steps.

    The steps are taken in runs, each one call of ``_run_until_parked`` on
    one generated ``SystemSpec.rk4_run``; only how a run gets its control
    argument ``u`` differs.  A ``LawPolicy`` is one run of its own law, with
    ``u`` empty.  Other policies hold ``u`` through each run, under the law
    ``(u1, ..., up)``: a ``SchedulePolicy`` has one run per piece, found for
    all steps at once by ``step_pieces``, with ``u`` the piece's value; any
    other policy, such as a plain ``FeedbackPolicy``, may read the time, so
    each step is a run, with ``u`` its answer to ``Policy.control``.  A run
    parks once a step maps its state to itself byte for byte: the rest of
    the run repeats that state and its control.  A run that parks until the
    end of the horizon sets the trajectory's ``cycle`` to (the step it
    parked at, 1).

    A periodic ``SchedulePolicy`` whose pieces repeat every ``L`` steps (the
    period in steps, checked once on ``step_pieces``) also compares, at each
    period start ``c * L`` that ends a run, the bytes of its state with those
    of the state at ``(c - 1) * L``.  On a match, every later step repeats
    the step ``L`` before it: the states and controls are filled to the
    horizon by tiling the last period, and ``cycle`` is ``((c - 1) * L, L)``.
    Pieces that do not repeat exactly, as when the switches drift across the
    step grid, never take this shortcut.

    Every run reports alike: a control (or law) of the wrong length before
    the run, a control outside the control set at the time of the first step
    that holds it, and a non-finite state, or an arithmetic or domain error
    in the dynamics, at the end of its step.  A repeating tail holds only
    states, controls and steps already checked.
    """
    if horizon <= 0 or dt <= 0:
        raise SimulationError("horizon and dt must be positive")
    y0 = np.asarray(y0, dtype=float)
    if not spec.region.contains(y0):
        raise StateConstraintError(f"y0 {y0.tolist()} outside the state region")
    started = time.perf_counter()
    n_steps = math.ceil(horizon / dt)
    # dt is a target step size; the actual step divides the horizon exactly so
    # that the final time is the requested one (loop-closure checks need this)
    dt = horizon / n_steps
    m, p = spec.dim_state, spec.dim_control
    # rows are appended as C doubles and reshaped once at the end
    y = tuple(y0.tolist())
    state_rows, control_rows = array("d", y), array("d")
    parks = []  # the step at which each parked run parked
    cycle = lag = None  # lag: the steps of one period, if the pieces repeat with it
    # the law of every run, and each run's control argument: () under a
    # LawPolicy, a schedule piece's value, or asked for (None)
    law = policy.law if isinstance(policy, LawPolicy) else None
    if law is not None:
        starts, held, path = [0], [()], "closed-loop law"
    elif isinstance(policy, SchedulePolicy):
        pieces = policy.step_pieces(dt, n_steps)
        starts = [0, *(np.flatnonzero(pieces[1:] != pieces[:-1]) + 1).tolist()]
        held = [policy.values[k] for k in pieces[starts].tolist()]
        path = f"{len(held)} held-control runs"
        if policy.period is not None:
            lag = round(policy.period / dt)
            if not (0 < lag <= n_steps and np.array_equal(pieces[lag:], pieces[:-lag])):
                lag = None
    else:
        starts, held, path = range(n_steps), None, "feedback"
    run, (lows, highs) = spec.rk4_run(law), spec.control.limits()
    for r, (i, end) in enumerate(pairwise(chain(starts, (n_steps,)))):
        u = policy.control(i * dt, y) if held is None else held[r]
        size = len(law or u)  # the law's controls, or the held ones
        if size != p:
            raise SimulationError(f"policy produced control of length {size}, expected {p}")
        count, escaped = end - i, None
        try:
            (done, y, escaped), parked = _run_until_parked(
                lambda y, k: run(y, u, lows, highs, dt, k, state_rows, control_rows),
                y, count, state_rows, m, control_rows, p)
        except (ArithmeticError, ValueError) as err:
            # ``^`` or ``exp`` overflowed, a division by 0, or ``sqrt`` or ``^``
            # left its domain; the run appended the states before the error
            done, y = len(state_rows) // m - 1 - i, repr(err)
        if escaped is not None:
            raise SimulationError(f"policy control {escaped} escapes the control region "
                                  f"at t={(i + done) * dt}")
        if done < count:
            raise SimulationError(f"non-finite state at t={(i + done) * dt + dt}: {y}")
        cycle = None
        if parked is not None:
            parked += i
            parks.append(parked)
            cycle = (parked, 1)
        if lag is not None and end % lag == 0 and (
                state_rows[end * m:].tobytes()
                == state_rows[(end - lag) * m:(end - lag + 1) * m].tobytes()):
            cycle = (end - lag, lag)
            _repeat_rows(state_rows, m, lag, n_steps - end)
            _repeat_rows(control_rows, p, lag, n_steps - end)
            break
    if cycle is not None and cycle[1] > 1:
        tail = f"repeats a {cycle[1]}-step cycle from step {cycle[0]}"
    elif not parks:
        tail = "not parked"
    elif len(parks) == 1:
        tail = f"parked at step {parks[0]}"
    else:
        tail = f"parked {len(parks)} times, first at step {parks[0]}"
    log.info("integrate: %d steps, %s, %s, %.3f s", n_steps, path, tail,
             time.perf_counter() - started)
    states = np.frombuffer(state_rows).reshape(n_steps + 1, m)
    # a repeating tail repeats states already tested
    tested = n_steps + 1 if cycle is None else sum(cycle)
    return Trajectory(spec=spec, dt=dt, times=dt * np.arange(n_steps + 1), states=states,
                      controls=np.frombuffer(control_rows).reshape(n_steps, p),
                      in_region=_with_tail(spec.region.contains(states[:tested]),
                                           n_steps + 1, cycle),
                      cycle=cycle)


def _repeat_rows(rows: array, width: int, length: int, count: int) -> None:
    """Append ``count`` rows of ``width`` entries to ``rows``, each a copy of
    the row ``length`` rows before it: the last ``length`` rows, tiled."""
    block = rows[len(rows) - length * width:]
    rows.extend(block * (count // length))
    rows.extend(block[:count % length * width])


def _with_tail(head: np.ndarray, total: int, cycle: tuple[int, int] | None) -> np.ndarray:
    """``head``, one entry per row up to the end of the cycle's first pass,
    extended to ``total`` entries by tiling its last ``cycle[1]`` entries."""
    if len(head) == total:
        return head
    rest, length = total - len(head), cycle[1]
    # np.tile, not np.resize: np.resize concatenates one array per repeat
    tiles = np.tile(head[len(head) - length:], -(-rest // length))
    return np.concatenate([head, tiles[:rest]])


# ---------------------------------------------------------------------------
# values


def _endpoint_costs(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """The cost at the start and at the end of each step, under the step's
    control.  Every step of a repeating tail has the states at both ends and
    the control of the step one cycle before it, so the tail is costed once."""
    k = traj.spec.cost_at  # on row-paired states and controls
    n, costed = len(traj.controls), traj.distinct_steps
    left = k(traj.states[:costed], traj.controls[:costed])
    right = k(traj.states[1:costed + 1], traj.controls[:costed])
    return _with_tail(left, n, traj.cycle), _with_tail(right, n, traj.cycle)


def _step_costs(traj: Trajectory) -> np.ndarray:
    """Trapezoidal per-step cost integrals (control frozen within each step)."""
    left, right = _endpoint_costs(traj)
    return 0.5 * (left + right) * traj.dt


def _require_in_region(traj: Trajectory) -> None:
    """The one check before a value or measure of ``traj``: every state is in
    the region, or a StateConstraintError names the first exit time."""
    if not traj.fully_in_region:
        bad = int(np.argmin(traj.in_region))
        raise StateConstraintError(f"trajectory leaves the region at t={traj.times[bad]:.6g}")


def cesaro_value(traj: Trajectory) -> float:
    """Average cost of ``traj.spec`` over the trajectory's horizon."""
    _require_in_region(traj)
    return float(np.sum(_step_costs(traj)) / traj.horizon)


@dataclass(frozen=True)
class AbelValue:
    value: float
    tail_bound: float
    horizon: float


def abel_value(spec: SystemSpec, y0, policy: Policy, rate: float,
               horizon: float, dt: float = 1e-3,
               tail_tolerance: float = 1e-3) -> AbelValue:
    """Discounted value rate * integral of exp(-rate t) k, truncated at the horizon.

    The truncation error is |tail| <= exp(-rate*horizon) * bound_k whenever
    bound_k bounds |k| on the region and control set.  Only a declared bound
    makes that a proof: by default bound_k is a maximum over a finite sample
    (times 1.1 for a custom system, see ``config.build_system``), which a
    cost can exceed between samples.  The value itself is a trapezoid sum on
    an RK4 trajectory, whose error is not bounded here.  Raises when the
    requested horizon cannot meet the tail tolerance.
    """
    if rate <= 0:
        raise SimulationError("discount rate must be positive")
    tail = math.exp(-rate * horizon) * spec.bound_k
    if tail > tail_tolerance:
        raise InsufficientHorizonError(
            f"horizon {horizon} leaves tail bound {tail:.3e} > {tail_tolerance:.3e}")
    traj = integrate(spec, y0, policy, horizon, dt)
    _require_in_region(traj)
    left, right = _endpoint_costs(traj)
    left = left * np.exp(-rate * traj.times[:-1])
    right = right * np.exp(-rate * traj.times[1:])
    value = rate * float(np.sum(0.5 * (left + right) * traj.dt))
    return AbelValue(value=value, tail_bound=tail, horizon=traj.horizon)


# ---------------------------------------------------------------------------
# empirical measures


def _occupation(traj: Trajectory, grid: Grid, atoms: np.ndarray,
                step_mass) -> DiscreteMeasure:
    """The measure putting each step's mass on that step's atom."""
    _require_in_region(traj)
    weights = np.zeros(grid.atom_count)
    np.add.at(weights, atoms, step_mass)
    return DiscreteMeasure(grid, weights)


def _atoms(traj: Trajectory, grid: Grid) -> np.ndarray:
    """The nearest atom of each step's (state, control), binning a repeating
    tail once: each of its steps repeats the pair of the step one cycle
    before it, whose atom it takes."""
    binned = traj.distinct_steps
    return _with_tail(nearest_atom_index(grid, traj.states[:binned], traj.controls[:binned]),
                      len(traj.controls), traj.cycle)


def empirical_occupational_measure(traj: Trajectory, grid: Grid) -> DiscreteMeasure:
    """Bin each step's (state, control) to its nearest atom with mass dt / T,
    a repeating tail once (:func:`_atoms`)."""
    return _occupation(traj, grid, _atoms(traj, grid), traj.dt / traj.horizon)


# ---------------------------------------------------------------------------
# periodic search


@dataclass(frozen=True)
class PeriodicCandidate:
    label: str
    policy: Policy
    period: float


@dataclass(frozen=True)
class PeriodicSearchRow:
    label: str
    period: float
    closure_error: float
    value: float
    closed: bool


@dataclass(frozen=True)
class PeriodicSearchResult:
    best_value: float
    best_label: str
    rows: tuple[PeriodicSearchRow, ...]


def periodic_value_search(spec: SystemSpec, y0, candidates,
                          dt: float = 1e-2,
                          closure_tolerance: float = 1e-3) -> PeriodicSearchResult:
    """Average cost over one verified period for each candidate loop.

    A candidate counts only if its trajectory returns to y0 within the closure
    tolerance.  The minimum over closed candidates estimates an upper bound
    on the best periodic value: each value is the average cost of an RK4
    trajectory over one period, and a loop closes only to within the
    tolerance, so neither the integration error nor the closure gap is
    bounded, and it is not a proven bound.  The full row table exposes the
    trend across the family parameter.
    """
    y0 = np.asarray(y0, dtype=float)
    rows = []
    best_value, best_label = math.inf, ""
    for cand in candidates:
        traj = integrate(spec, y0, cand.policy, cand.period, dt)
        closure = float(np.linalg.norm(traj.final_state() - y0))
        closed = closure <= closure_tolerance
        value = cesaro_value(traj)
        rows.append(PeriodicSearchRow(cand.label, cand.period, closure, value, closed))
        if closed and value < best_value:
            best_value, best_label = value, cand.label
    if not math.isfinite(best_value):
        raise SimulationError("no candidate closes its loop within tolerance")
    return PeriodicSearchResult(best_value=best_value, best_label=best_label,
                                rows=tuple(rows))


def rotation_delta_family(spec: SystemSpec, y0, deltas) -> list[PeriodicCandidate]:
    """Angle-feedback loops for the planar rotation system.

    The control law u(theta) = (delta + (1 - delta)(1 + cos theta) / 2)^2 keeps
    every loop inside [0, 1], slows down near theta = pi as delta shrinks (so
    loop time concentrates where the first state coordinate is most negative),
    and stays positive, so every candidate closes.  Writing u = (a + b cos
    theta)^2 with a = (1 + delta)/2, b = (1 - delta)/2 and a^2 - b^2 = delta,
    the loop period is the integral of 1/u over one turn, 2 pi a / delta^(3/2).
    Each law is an expression, theta being the angle about the origin, so
    ``integrate`` runs the whole loop in one closed-loop call.
    """
    candidates = []
    for delta in deltas:
        if not 0.0 < delta <= 1.0:
            raise SimulationError("delta must lie in (0, 1]")
        d = float(delta)
        law = f"({d!r} + (1.0 - {d!r}) * (1.0 + cos(atan2(y2, y1))) / 2.0) ^ 2"
        candidates.append(PeriodicCandidate(
            label=f"delta={delta}",
            policy=LawPolicy([exprs.parse_expr(law, spec.dim_state, 0)]),
            period=math.pi * (1.0 + delta) / delta ** 1.5))
    return candidates


# ---------------------------------------------------------------------------
# horizon study


@dataclass(frozen=True)
class HorizonRow:
    horizon: float
    trajectory: Trajectory  # the window [0, horizon] of the longest run
    measure: DiscreteMeasure
    residual: MembershipResidual


def horizon_study(blocks: LpBlocks, policy: Policy, horizons,
                  dt: float = 1e-3) -> list[HorizonRow]:
    """Empirical measures on the blocks' grid and their membership residuals
    over growing windows of one run of the grid's system from the blocks'
    requested start point.

    The run is integrated to the longest horizon; horizon T is its
    first ceil(T / dt) steps, which is bitwise the run ``integrate`` returns
    for T whenever T / ceil(T / dt) equals the long run's step, and otherwise
    ends within one step of T.  The flow residual of an empirical measure
    decays like the boundary term (phi(y(T)) - phi(y0)) / T plus a binning
    floor, so across horizon doublings it should be non-increasing up to that
    floor.  The run is binned once, by per-axis squared distances
    (:func:`~occlp.grid.nearest_atom_index`), and every window's membership
    LP is one call of :func:`~occlp.programs.membership_residual` on
    ``blocks``, which solves the shortest window cold and each longer one
    warm from the window before it.  When the run's tail
    repeats (``Trajectory.cycle``: a run parked until its end, or a periodic
    schedule whose period maps its state to itself), the tail's (state,
    control) pairs are binned once, on the cycle's first pass, and every
    window that holds that pass keeps the cycle.
    """
    horizons = sorted(float(t) for t in horizons)
    if not horizons or horizons[0] <= 0:
        raise SimulationError("horizons must be a nonempty list of positive times")
    grid = blocks.grid
    run = integrate(grid.spec, blocks.y0_requested, policy, horizons[-1], dt)
    atoms = _atoms(run, grid)
    windows, measures = [], []
    for horizon in horizons:
        steps = math.ceil(horizon / dt)
        window = run.prefix(steps)
        windows.append(window)
        measures.append(_occupation(window, grid, atoms[:steps], window.dt / window.horizon))
    residuals = membership_residual(measures, blocks)
    return [HorizonRow(*row) for row in zip(horizons, windows, measures, residuals)]
