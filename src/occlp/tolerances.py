"""Every tolerance of occlp, each named once with the reason for its value.
Modules read an entry as an attribute of this module, so a test can patch it."""

# regions, measures and the build-time check of a system
REGION_TOL = 1e-9  # membership slack: integration round-off never flips membership
BOUND_TOL = 1e-12  # a declared bound under its sampled maximum, relative past 1: round-off
DRIFT_TOL = 1e-9  # |grad F . f| over |grad F| |f| of a first integral: round-off of a zero
NEGATIVE_WEIGHT_TOL = 1e-12  # a measure's weight above -this is clipped to 0: round-off
PROBABILITY_MASS_TOL = 1e-7  # |mass - 1|: PRIMAL_RESIDUAL_TOL, which an LP's gamma meets
LEVEL_TOL = 1e-12  # an oracle level beyond [inner^2, outer^2]: round-off of squaring a radius

# LP solves: the residual contract of a reported point, and its certificate.  FACE_TOL
# bounds reduced costs on the optimal face and in pricing, relative to 1 + |c|, and is
# HiGHS's feasibility tolerance: at its 1e-7 a vertex with a -4.6e-8 entry ended optimal
FACE_TOL = 1e-9
PRIMAL_RESIDUAL_TOL = 1e-7  # |A x - b|: HiGHS's own default feasibility tolerance
COMPLEMENTARITY_TOL = 1e-6  # max |x * reduced cost|: a weight up to 1 times CERTIFICATE_TOL
DUALITY_GAP_TOL = 1e-8  # relative past |value| = 1; a simplex optimum's gap is round-off
# the most negative certificate slack at an atom, a reduced cost priced to FACE_TOL
# (1 + |c|) so |c| up to 999; and mu above the value in weak duality
CERTIFICATE_TOL = 1e-6

# the study's invariants
MU_VALUE_TOL = 1e-6  # |value - mu|: CERTIFICATE_TOL, mu being the normalization row's dual
ORDERING_TOL = 1e-7  # ergodic <= nonergodic, perturbed values monotone: PRIMAL_RESIDUAL_TOL
MEMBERSHIP_TOL = 1e-7  # residuals of the optimal gamma: PRIMAL_RESIDUAL_TOL, which it meets
# |value(0.001) - value(0)|: eps = 0's optimum costs at most eps (2 + bound_f xi mass) more
SMALL_EPS_TOL = 1e-2
REFINEMENT_TOL = 0.02  # value change under angular doubling and a degree bump: discretisation
SIMULATION_TOL = 0.05  # LP value to Abel value, Cesaro value to mu: RK4, binning and horizon
ABEL_TAIL_TOL = 1e-2  # the Abel value's tail bound past its horizon: within SIMULATION_TOL
CLOSURE_TOL = 1e-3  # |y(period) - y0| of a periodic candidate that counts as a closed loop
# w residuals across horizon doublings: each of the two compared may hold the binning floor
DECAY_FLOOR_FACTOR = 2.0
DECAY_TOL = 1e-12  # round-off past DECAY_FLOOR_FACTOR floors
