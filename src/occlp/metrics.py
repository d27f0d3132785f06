"""Moment-proxy distance between discrete measures.

The distance is the maximum disagreement of integrals over a fixed finite set
of test functions (the polynomial basis plus the constant, each normalised to
unit sup-norm over the state region).  At fixed degree this is a pseudometric,
not a metric: measures whose tested moments agree are at distance zero even if
they differ elsewhere.  Every report that quotes it therefore also records the
degree of the family used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, phi_matrix, sup_norms
from .grid import DiscreteMeasure, Grid
from .system import StateRegion


NORM_SAMPLE = 48  # the region sample (StateRegion.sample) of each sup-norm


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class TestFunctionSet:
    basis: BasisSpec
    norms: np.ndarray  # per basis element; the constant needs none

    @property
    def degree(self) -> int:
        return self.basis.max_degree

    def values_on_grid(self, grid: Grid) -> np.ndarray:
        """Normalised test-function values at the grid atoms, (count+1, N):
        taken once per state and repeated over the controls."""
        values = phi_matrix(self.basis, grid.state_points) / self.norms[:, None]
        const = np.ones((1, grid.state_points.shape[0]))
        return np.repeat(np.vstack([values, const]), grid.control_points.shape[0], axis=1)


def make_test_function_set(basis: BasisSpec, region: StateRegion) -> TestFunctionSet:
    norms = sup_norms(basis, region.sample(NORM_SAMPLE))
    if np.any(norms <= 0):
        raise MetricError("degenerate test function (zero sup-norm on the region)")
    return TestFunctionSet(basis=basis, norms=norms)


def rho_hat(g1: DiscreteMeasure, g2: DiscreteMeasure, tf: TestFunctionSet) -> float:
    """Max moment disagreement over the test family; zero iff all tested moments agree."""
    if g1.grid is not g2.grid:
        raise MetricError("measures live on different grids")
    values = tf.values_on_grid(g1.grid)
    return float(np.max(np.abs(values @ (g1.weights - g2.weights))))
