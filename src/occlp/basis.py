"""Finite polynomial test-function family with exact gradients.

Constraint sets that quantify over all continuously differentiable test
functions are truncated to the polynomials of total degree 1..d in affinely
prescaled coordinates s (the region's bounding box mapped onto [-1, 1]^m).
The family spanning them is the tensor products P_alpha(s) = prod_j P_{alpha_j}(s_j)
of Legendre polynomials (normalised by P_k(1) = 1) with 1 <= |alpha| <= d:
the same span as the monomials s^alpha, but with far better conditioned LP
rows at high degree.  The constant function is excluded: its flow and
initial-coupling rows are identically zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import mul

import numpy as np

from .system import StateRegion


class BasisError(ValueError):
    pass


@dataclass(frozen=True)
class BasisSpec:
    """Tensor Legendre family in scaled coordinates s = (y - center) / halfwidth.

    Element b is prod_j P_{exponents[b][j]}(s_j); ``exponents`` holds the
    multi-indices alpha (per-coordinate Legendre degrees).
    """

    dim: int
    max_degree: int
    exponents: tuple[tuple[int, ...], ...]
    scale_center: tuple[float, ...]
    scale_half: tuple[float, ...]

    @property
    def count(self) -> int:
        return len(self.exponents)

    def scale(self, ys: np.ndarray) -> np.ndarray:
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        return (ys - np.asarray(self.scale_center)) / np.asarray(self.scale_half)


def _graded_lex_exponents(m: int, d: int) -> tuple[tuple[int, ...], ...]:
    exps = [alpha for alpha in itertools.product(range(d + 1), repeat=m)
            if 1 <= sum(alpha) <= d]
    exps.sort(key=lambda alpha: (sum(alpha), tuple(-a for a in alpha)))
    return tuple(exps)


def enumerate_basis(m: int, d: int, lower, upper) -> BasisSpec:
    """All multi-indices with 1 <= |alpha| <= d in graded-lex order.

    The scaling maps the box [lower, upper] onto [-1, 1]^m, so [-1, 1]^m
    scales to the identity exactly.  The family size is C(m + d, d) - 1.
    """
    if m < 1 or d < 1:
        raise BasisError("state dimension and max_degree must both be >= 1")
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    if lo.shape != (m,) or hi.shape != (m,) or np.any(hi <= lo):
        raise BasisError("bounding box must satisfy lower < upper componentwise")
    center = tuple(((lo + hi) / 2.0).tolist())
    half = tuple(((hi - lo) / 2.0).tolist())
    basis = BasisSpec(dim=m, max_degree=d,
                      exponents=_graded_lex_exponents(m, d),
                      scale_center=center, scale_half=half)
    assert basis.count == math.comb(m + d, d) - 1
    return basis


def basis_for_region(region: StateRegion, d: int) -> BasisSpec:
    lo, hi = region.bounding_box()
    return enumerate_basis(region.dim, d, lo, hi)


def _legendre_tables(basis: BasisSpec, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_k(s[:, j]) and P_k'(s[:, j]) for k = 0..d, each of shape (dim, d + 1, n).

    Values follow (k + 1) P_{k+1} = (2k + 1) s P_k - k P_{k-1} and derivatives
    P'_{k+1} = P'_{k-1} + (2k + 1) P_k, from P_0 = 1 and P_1 = s.
    """
    s = basis.scale(ys).T  # (m, n)
    d = basis.max_degree
    values = np.empty((basis.dim, d + 1, s.shape[1]))
    derivs = np.zeros_like(values)
    values[:, 0] = 1.0
    values[:, 1] = s
    derivs[:, 1] = 1.0
    for k in range(1, d):
        values[:, k + 1] = ((2 * k + 1) * s * values[:, k] - k * values[:, k - 1]) / (k + 1)
        derivs[:, k + 1] = derivs[:, k - 1] + (2 * k + 1) * values[:, k]
    return values, derivs


def phi_matrix(basis: BasisSpec, ys: np.ndarray) -> np.ndarray:
    """Values of every basis element at row-stacked points, shape (count, n)."""
    values = _legendre_tables(basis, ys)[0]
    # each product is taken left to right from its first factor: every
    # element has one, and 1.0 * x is x bitwise, so no np.ones is needed
    out = np.empty((basis.count, values.shape[2]))
    for b, alpha in enumerate(basis.exponents):
        out[b] = reduce(mul, [values[j, e] for j, e in enumerate(alpha) if e])
    return out


def grad_matrix(basis: BasisSpec, ys: np.ndarray) -> np.ndarray:
    """Gradients w.r.t. unscaled coordinates, shape (count, n, m)."""
    values, derivs = _legendre_tables(basis, ys)
    # the chain-rule factor of the prescaling, divided in once per table entry
    scaled = derivs / np.asarray(basis.scale_half)[:, None, None]
    out = np.zeros((basis.count, values.shape[2], basis.dim))
    for b, alpha in enumerate(basis.exponents):
        for j, e in enumerate(alpha):
            if e:
                out[b, :, j] = reduce(mul, [scaled[j, e]] + [
                    values[i, ei] for i, ei in enumerate(alpha) if i != j and ei])
    return out


def sup_norms(basis: BasisSpec, sample_points: np.ndarray) -> np.ndarray:
    """Per-element sup |phi| over the given sample, used for normalisation."""
    return np.max(np.abs(phi_matrix(basis, sample_points)), axis=1)
