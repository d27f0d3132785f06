import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occlp.basis import (BasisError, _legendre_tables, basis_for_region, enumerate_basis,
                         grad_matrix, phi_matrix, polynomials_at)
from occlp.system import StateRegion


def _unit_basis(m, d):
    """The family on [-1, 1]^m, whose scaling is exactly the identity."""
    return enumerate_basis(m, d, (-1.0,) * m, (1.0,) * m)


def test_linear_basis_ordering():
    b = _unit_basis(2, 1)
    assert b.exponents == ((1, 0), (0, 1))
    assert b.count == 2


@pytest.mark.parametrize("m,d,count", [(2, 2, 5), (3, 3, 19), (2, 4, 14), (1, 4, 4)])
def test_counts(m, d, count):
    b = _unit_basis(m, d)
    assert b.count == count == math.comb(m + d, d) - 1
    assert len(set(b.exponents)) == b.count  # duplicate-free


def test_graded_lex_order_is_deterministic():
    b1 = _unit_basis(2, 3)
    b2 = _unit_basis(2, 3)
    assert b1.exponents == b2.exponents
    degrees = [sum(a) for a in b1.exponents]
    assert degrees == sorted(degrees)
    assert b1.exponents[:2] == ((1, 0), (0, 1))
    assert b1.exponents[2:5] == ((2, 0), (1, 1), (0, 2))


def test_invalid_sizes():
    with pytest.raises(BasisError):
        enumerate_basis(0, 2, (), ())
    with pytest.raises(BasisError):
        _unit_basis(2, 0)
    with pytest.raises(BasisError):
        enumerate_basis(2, 2, (0.0, 0.0), (0.0, 1.0))


def phi_at(basis, index, y):
    return phi_matrix(basis, np.array([y], dtype=float))[index, 0]


def grad_at(basis, index, y):
    return grad_matrix(basis, np.array([y], dtype=float))[index, 0]


def test_eval_identity_scaling_examples():
    b = _unit_basis(2, 3)
    idx = b.exponents.index((1, 1))
    assert phi_at(b, idx, (1.0, 2.0)) == 2.0
    assert np.allclose(grad_at(b, idx, (1.0, 2.0)), (2.0, 1.0))

    # P2(s) = (3 s^2 - 1) / 2, P2'(s) = 3 s
    idx = b.exponents.index((2, 0))
    assert phi_at(b, idx, (0.0, 5.0)) == -0.5
    assert np.allclose(grad_at(b, idx, (0.0, 5.0)), (0.0, 0.0))

    idx = b.exponents.index((2, 1))
    assert phi_at(b, idx, (2.0, 3.0)) == 16.5  # P2(2) * P1(3) = 5.5 * 3
    assert np.allclose(grad_at(b, idx, (2.0, 3.0)), (18.0, 5.5))


def test_gradients_match_finite_differences_everywhere():
    region = StateRegion(kind="annulus", inner=0.5, outer=1.5)
    b = basis_for_region(region, 4)
    rng = np.random.default_rng(0)
    points = rng.uniform(-1.5, 1.5, size=(100, 2))
    grads = grad_matrix(b, points)
    h = 1e-5
    for j in range(2):
        shift = np.zeros(2)
        shift[j] = h
        numeric = (phi_matrix(b, points + shift) - phi_matrix(b, points - shift)) / (2 * h)
        scale = np.maximum(np.abs(grads[:, :, j]), 1.0)
        assert np.max(np.abs(grads[:, :, j] - numeric) / scale) <= 1e-6


def test_scaling_uses_region_bounding_box():
    region = StateRegion(kind="box", lower=(0.0, -2.0), upper=(4.0, 2.0))
    b = basis_for_region(region, 2)
    assert b.scale_center == (2.0, 0.0)
    assert b.scale_half == (2.0, 2.0)
    # at the box corner every scaled coordinate is 1
    idx = b.exponents.index((1, 1))
    assert phi_at(b, idx, (4.0, 2.0)) == 1.0
    # gradient carries the chain-rule factor 1 / halfwidth
    idx = b.exponents.index((1, 0))
    assert np.allclose(grad_at(b, idx, (1.0, 0.0)), (0.5, 0.0))


def test_constant_function_rows_vanish():
    # a constant test function contributes nothing: zero gradient kills the
    # flow row and phi(y0) - phi(y) kills the coupling row
    y0 = np.array([0.3, -0.2])
    points = np.random.default_rng(1).uniform(-1, 1, size=(50, 2))
    const = lambda y: 7.5
    flow_row = [0.0 * const(y) for y in points]  # grad of a constant is zero
    coupling_row = [const(y0) - const(y) for y in points]
    assert np.all(np.asarray(flow_row) == 0.0)
    assert np.all(np.asarray(coupling_row) == 0.0)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5))
@settings(max_examples=20, deadline=None)
def test_count_identity_property(m, d):
    assert _unit_basis(m, d).count == math.comb(m + d, d) - 1


def test_combination_coefficients_reconstruct_radial_polynomial():
    region = StateRegion(kind="annulus", inner=0.5, outer=1.5)
    b = basis_for_region(region, 4)
    sample = region.sample(12)
    target = lambda ys: (ys[:, 0] ** 2 + ys[:, 1] ** 2 - 1.0) ** 2
    # least squares over the basis plus a constant column
    design = np.vstack([phi_matrix(b, sample), np.ones(len(sample))]).T
    coeffs, *_ = np.linalg.lstsq(design, target(sample), rcond=None)
    assert np.max(np.abs(design @ coeffs - target(sample))) <= 1e-10
    probe = np.array([[1.3, -0.4], [0.5, 0.5], [-1.1, 0.2]])
    values = coeffs[:-1] @ phi_matrix(b, probe) + coeffs[-1]
    assert np.allclose(values, target(probe), atol=1e-10)


def test_values_and_gradients_match_numpy_legendre():
    region = StateRegion(kind="box", lower=(0.0, -2.0), upper=(4.0, 2.0))
    b = basis_for_region(region, 6)
    points = np.random.default_rng(3).uniform((0.0, -2.0), (4.0, 2.0), size=(50, 2))
    s = b.scale(points)
    legendre = np.polynomial.legendre.Legendre.basis
    values = np.array([legendre(a0)(s[:, 0]) * legendre(a1)(s[:, 1])
                       for a0, a1 in b.exponents])
    grads = np.stack([np.array([legendre(a0).deriv()(s[:, 0]) * legendre(a1)(s[:, 1]) / 2.0
                                for a0, a1 in b.exponents]),
                      np.array([legendre(a0)(s[:, 0]) * legendre(a1).deriv()(s[:, 1]) / 2.0
                                for a0, a1 in b.exponents])], axis=2)
    assert np.allclose(phi_matrix(b, points), values, rtol=0, atol=1e-12)
    assert np.allclose(grad_matrix(b, points), grads, rtol=0, atol=1e-11)


@pytest.mark.parametrize("lower,upper", [((0.0, -2.0), (4.0, 2.0)),
                                         ((-1.0, 0.5, 2.0), (1.0, 3.0, 2.5))])
def test_legendre_family_spans_the_monomials(lower, upper):
    # every scaled monomial s^alpha of degree <= 6 lies in the span of the
    # constant and the family, so the LP rows span the same space as before
    b = enumerate_basis(len(lower), 6, lower, upper)
    points = np.random.default_rng(2).uniform(lower, upper, size=(400, len(lower)))
    design = np.vstack([np.ones((1, len(points))), phi_matrix(b, points)]).T
    s = b.scale(points)
    for alpha in b.exponents:
        monomial = np.prod(s ** np.asarray(alpha), axis=1)
        coeffs, *_ = np.linalg.lstsq(design, monomial, rcond=None)
        assert np.max(np.abs(design @ coeffs - monomial)) <= 1e-10


@pytest.mark.parametrize("lower,upper", [((-1.5, -1.5), (1.5, 1.5)),
                                         ((-1.0, 0.5, 2.0), (1.0, 3.0, 2.7))])
def test_products_are_bitwise_the_per_element_ones(lower, upper):
    # each element's product of Legendre table rows, with the chain-rule
    # factor divided into its derivative row, taken per element from
    # np.ones: the float operations phi_matrix and grad_matrix must keep
    b = enumerate_basis(len(lower), 6, lower, upper)
    points = np.random.default_rng(4).uniform(lower, upper, size=(300, len(lower)))
    values, derivs = _legendre_tables(b, points)
    phi = np.empty((b.count, len(points)))
    grads = np.zeros((b.count, len(points), b.dim))
    for k, alpha in enumerate(b.exponents):
        acc = np.ones(len(points))
        for j, e in enumerate(alpha):
            if e:
                acc = acc * values[j, e]
        phi[k] = acc
        for j, e in enumerate(alpha):
            if e:
                acc = derivs[j, e] / b.scale_half[j]
                for i, ei in enumerate(alpha):
                    if i != j and ei:
                        acc = acc * values[i, ei]
                grads[k, :, j] = acc
    assert phi_matrix(b, points).tobytes() == phi.tobytes()
    assert grad_matrix(b, points).tobytes() == grads.tobytes()


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("d", range(1, 7))
def test_polynomials_at_is_the_contraction_of_the_element_matrices(m, d):
    # random coefficient rows over a box that does not scale to the identity:
    # values and gradients agree with the sums over the elements' rows of
    # phi_matrix and grad_matrix entry by entry, within 16 machine epsilons of
    # the sum of the absolute values of the summed terms (at most 5 seen)
    rng = np.random.default_rng(10 * m + d)
    lower, upper = np.array([-1.5, 0.0, 2.0][:m]), np.array([2.0, 0.5, 7.0][:m])
    b = enumerate_basis(m, d, lower, upper)
    points = rng.uniform(lower, upper, size=(200, m))
    coeffs = rng.normal(size=(3, b.count)) * 10.0 ** rng.integers(-3, 2, size=(3, b.count))
    phi, grads = phi_matrix(b, points), grad_matrix(b, points)
    values, gradients = polynomials_at(b, coeffs, points)
    assert values.shape == (3, len(points)) and gradients.shape == (3, m, len(points))
    bound = 16 * np.finfo(float).eps
    assert np.all(np.abs(values - coeffs @ phi) <= bound * (np.abs(coeffs) @ np.abs(phi)))
    assert np.all(np.abs(gradients - np.einsum("rb,bnm->rmn", coeffs, grads))
                  <= bound * np.einsum("rb,bnm->rmn", np.abs(coeffs), np.abs(grads)))
    # one coefficient vector is one row
    one_values, one_gradients = polynomials_at(b, coeffs[1], points)
    assert one_values.shape == (1, len(points)) and one_gradients.shape == (1, m, len(points))
