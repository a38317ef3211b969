"""heatlab: heat kernels of symmetric Markov semigroups on the real line.

Discretizes Sturm-Liouville generators on a truncated window, computes
their heat kernels spectrally, and verifies weighted-Nash / Lyapunov
decay bounds against the exact Ornstein-Uhlenbeck (Mehler) oracle.
"""

from .errors import CalibrationError, ConfigError, IntegrabilityError, NumericError
from .measures import (
    TAIL_TOL,
    MeasureModel,
    Weight,
    make_cauchy,
    make_lebesgue,
    make_mu_a,
    make_ou,
    mehler_diag_bound,
    mehler_kernel,
    mehler_weight,
    soft_abs,
    suggest_radius,
    tail_mass,
    unit_weight,
    universal_weight,
    weight_mu_a,
)
from .spectral import (
    DEFAULT_T_MIN,
    Grid,
    SpectralDecomposition,
    TridiagonalOperator,
    apply_semigroup,
    bulk_indices,
    chapman_kolmogorov_residual,
    diagonal_trace_quadrature,
    dirichlet_energy,
    discretize,
    eigendecompose,
    gaussian_bump_family,
    ground_state_transform_residual,
    kernel_matrix,
    kernel_tail,
    l2_norm,
    make_grid,
    stochasticity_defect,
    trace,
    trace_tail,
    weighted_l1,
)
from .bounds import (
    DEFAULT_CONVERSE_TIMES,
    KProfile,
    LyapunovCertificate,
    MuAExponents,
    RateFunction,
    classical_nash_rate,
    converse_rate,
    empirical_rate,
    envelope_violations,
    integrability_test,
    k_profile,
    kernel_bound,
    l2_bound,
    log_rate,
    lyapunov_constant,
    mu_a_exponents,
    nash_quotients,
    power_rate,
    quotient_monotonicity_defect,
    super_poincare_envelope,
    trace_bound,
    u_integral,
    weight_squared_mass,
)

__version__ = "0.1.0"
