import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occlp.basis import basis_for_region
from occlp.grid import DiscreteMeasure, LpBlocks, build_grid
from occlp.metrics import MetricError, make_test_function_set, rho_hat

from reference import atom, atom_states
from systems import built


@pytest.fixture(scope="module")
def setup():
    spec = built("rotation")
    g = build_grid(spec, (3, 8), 3)
    tf = make_test_function_set(basis_for_region(spec.region, 3), spec.region)
    return spec, g, tf


def dirac_at_state(g, target):
    w = np.zeros(g.atom_count)
    for a in range(g.atom_count):
        y, u = atom(g, a)
        if np.allclose(y, target, atol=1e-9) and u[0] == 0.0:
            w[a] = 1.0
            return DiscreteMeasure(g, w)
    raise AssertionError(f"no atom at {target}")


def test_identity(setup):
    _spec, g, tf = setup
    w = np.random.default_rng(0).uniform(size=g.atom_count)
    w /= w.sum()
    measure = DiscreteMeasure(g, w)
    assert rho_hat(measure, measure, tf) == 0.0


def test_dirac_separation(setup):
    spec, g, tf = setup
    d1 = dirac_at_state(g, (1.0, 0.0))
    d2 = dirac_at_state(g, (-1.0, 0.0))
    # the normalised first coordinate alone separates the two by 2 / sup|y1|
    assert rho_hat(d1, d2, tf) >= 2.0 / spec.region.outer - 1e-12


def test_normalisation_positive(setup):
    _spec, _g, tf = setup
    assert np.all(tf.norms > 0)
    assert tf.degree == 3


def test_grid_mismatch_rejected(setup):
    spec, g, tf = setup
    other = build_grid(spec, (3, 8), 3)
    w = np.zeros(g.atom_count)
    w[0] = 1.0
    with pytest.raises(MetricError):
        rho_hat(DiscreteMeasure(g, w), DiscreteMeasure(other, w), tf)


def test_pseudometric_blindness_to_untested_moments(setup):
    # the family tests state moments only: measures differing only in how
    # they split mass across controls at the same states are at distance zero
    _spec, g, tf = setup
    n_u = g.control_points.shape[0]
    w1 = np.zeros(g.atom_count)
    w2 = np.zeros(g.atom_count)
    w1[0 * n_u + 0] = 1.0
    w2[0 * n_u + (n_u - 1)] = 1.0
    assert rho_hat(DiscreteMeasure(g, w1), DiscreteMeasure(g, w2), tf) == 0.0


@st.composite
def measures_on(draw, atom_count):
    raw = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                        min_size=atom_count, max_size=atom_count))
    w = np.asarray(raw)
    total = w.sum()
    if total == 0:
        w[0] = 1.0
        total = 1.0
    return w / total


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_pseudometric_properties(setup, data):
    _spec, g, tf = setup
    n = g.atom_count
    a = DiscreteMeasure(g, data.draw(measures_on(n)))
    b = DiscreteMeasure(g, data.draw(measures_on(n)))
    c = DiscreteMeasure(g, data.draw(measures_on(n)))
    dab = rho_hat(a, b, tf)
    dba = rho_hat(b, a, tf)
    assert dab == pytest.approx(dba, abs=1e-12)  # symmetry
    assert dab >= 0.0
    assert dab <= rho_hat(a, c, tf) + rho_hat(c, b, tf) + 1e-12  # triangle


def test_hausdorff_empirical_sweep_shrinks_towards_optimum():
    import math

    from occlp.basis import basis_for_region
    from occlp.programs import build_nonergodic_lp, solve
    from occlp.simulate import (SchedulePolicy, empirical_occupational_measure,
                                integrate)

    spec = built("rotation")
    g = build_grid(spec, (5, 32), 5)
    b = basis_for_region(spec.region, 4)
    tf = make_test_function_set(b, spec.region)
    solution = solve(build_nonergodic_lp(LpBlocks(g, b, (1.0, 0.0))))
    assert solution.status == "optimal"
    policy = SchedulePolicy([0.0, math.pi], [1.0, 0.0])
    distances = []
    for horizon in (10.0, 20.0, 40.0):
        traj = integrate(spec, (1.0, 0.0), policy, horizon, 1e-2)
        emp = empirical_occupational_measure(traj, g)
        distances.append(rho_hat(emp, solution.gamma, tf))
    assert distances[0] >= distances[1] >= distances[2] - 1e-9


def test_values_on_grid_are_bitwise_the_atomwise_ones():
    from occlp.basis import basis_for_region, phi_matrix

    spec = built("rotation")
    g = build_grid(spec, (5, 64), 9)
    tf = make_test_function_set(basis_for_region(spec.region, 4), spec.region)
    atomwise = np.vstack([phi_matrix(tf.basis, atom_states(g)) / tf.norms[:, None],
                          np.ones((1, g.atom_count))])
    assert tf.values_on_grid(g).tobytes() == atomwise.tobytes()
