"""Long-run average optimal control via occupation-measure linear programs.

The package discretises the measure-theoretic formulation of long-run average
optimal control of constrained ODEs into finite linear programs, extracts dual
certificates from their multipliers, and cross-validates every program value
against trajectory simulation and brute-force oracles.
"""

from .basis import BasisSpec, basis_for_region, enumerate_basis, eval_grad_phi, eval_phi
from .grid import (DiscreteMeasure, Grid, assemble_cost_vector, assemble_flow_matrix,
                   assemble_initial_matrix, build_grid, integrate_measure)
from .metrics import TestFunctionSet, make_test_function_set, rho_hat, rho_hausdorff
from .oracle import LevelTable, OracleResult, frozen_value, level_set_ordering, rotation_level_value
from .programs import (DualCertificate, LpInstance, LpSolution, MembershipResidual,
                       build_discounted_lp, build_ergodic_lp, build_nonergodic_lp,
                       build_perturbed_lp, certificate_is_valid, certificate_slacks,
                       extract_dual_certificate, membership_residual, solve,
                       verify_weak_duality)
from .simulate import (AbelValue, ConstantPolicy, FeedbackPolicy, LawPolicy, Policy,
                       SchedulePolicy, Trajectory, abel_value, cesaro_value,
                       empirical_occupational_measure, horizon_study, integrate,
                       periodic_value_search, rotation_delta_family)
from .system import (ControlRegion, StateRegion, SystemSpec, check_first_integrals,
                     check_forward_invariance, eval_cost, eval_dynamics, make_frozen,
                     make_rotation, make_scalar_drift, validate_bounds)

__version__ = "0.1.0"
