"""Fisher, Helstrom and Wigner-Yanase information for one-parameter quantum models.

The toolkit computes the classical Fisher information of measurement
outcomes, the Helstrom information via the symmetric logarithmic
derivative, and the Wigner-Yanase skew information, each along independent
routes (definitional, weight-based closed forms in two dimensions, and
eigenvalue-based closed forms for spectral mixtures), and cross-verifies
the routes against each other. It also checks the associated Cramér-Rao
bound chain by Monte Carlo sampling of a locally unbiased estimator.
"""

from .errors import (
    BoundaryRegularityError,
    ConfigError,
    DimensionError,
    DomainError,
    EigenConvergenceError,
    InvalidPovm,
    NotDensityMatrix,
    NotHermitianError,
    NotPositiveSemidefinite,
    QcrbError,
    RankDeficientInconsistent,
    StationaryFamilyError,
    SupportRegularityError,
    ZeroInformationError,
)
from .hermitian import (
    DensityMatrix,
    HermitianMatrix,
    SpectralDecomposition,
    UnitVector,
    eigh,
    psd_sqrt,
    solve_symmetric_product,
    trace_product,
)
from .models import (
    ParametricStateModel,
    PureFamily,
    PureStateModel,
    QubitMixtureModel,
    SpectralMixtureModel,
    StateGrid,
    StatePoint,
    WeightFunction,
    builtin_models,
    canonical_psi2,
    complex_rotation_family,
    constant_weight,
    fixed_spectrum_model,
    logistic_weight,
    qubit_mixture_as_spectral,
    random_pure_family,
    random_spectral_model,
    rotation_family,
    rotation_mixture,
    sine_weight,
)
from .quantum import (
    QuantumInfoResult,
    SldResult,
    alpha_beta,
    gamma_qubit_closed,
    gamma_spectral,
    helstrom_info_qubit_closed,
    helstrom_info_sld,
    helstrom_info_spectral,
    relation_report,
    sld,
    sld_spectral_sum,
    wy_info_generic,
    wy_info_qubit_closed,
    wy_info_spectral,
)
from .classical import (
    BoundCheck,
    OutcomeDistribution,
    Povm,
    basis_povm,
    bound_check,
    classical_fisher,
    classical_fishers,
    outcome_probs,
    random_povm,
    random_povms,
)
from .simulate import (
    SimConfig,
    SimResult,
    bound_chain_ok,
    exact_estimator_moments,
    one_step_estimator,
    run_sim,
    sample_outcomes,
)
from .verify import CheckResult, VerifyOptions, all_passed, run_suite

__version__ = "1.0.0"

__all__ = [
    "BoundaryRegularityError", "ConfigError", "DimensionError", "DomainError",
    "EigenConvergenceError", "InvalidPovm", "NotDensityMatrix",
    "NotHermitianError", "NotPositiveSemidefinite", "QcrbError",
    "RankDeficientInconsistent", "StationaryFamilyError",
    "SupportRegularityError", "ZeroInformationError",
    "DensityMatrix", "HermitianMatrix", "SpectralDecomposition", "UnitVector",
    "eigh", "psd_sqrt", "solve_symmetric_product", "trace_product",
    "ParametricStateModel", "PureFamily", "PureStateModel",
    "QubitMixtureModel", "SpectralMixtureModel", "StateGrid", "StatePoint", "WeightFunction",
    "builtin_models", "canonical_psi2", "complex_rotation_family",
    "constant_weight", "fixed_spectrum_model", "logistic_weight",
    "qubit_mixture_as_spectral", "random_pure_family",
    "random_spectral_model", "rotation_family", "rotation_mixture",
    "sine_weight",
    "QuantumInfoResult", "SldResult", "alpha_beta", "gamma_qubit_closed",
    "gamma_spectral", "helstrom_info_qubit_closed",
    "helstrom_info_sld", "helstrom_info_spectral", "relation_report", "sld",
    "sld_spectral_sum", "wy_info_generic",
    "wy_info_qubit_closed", "wy_info_spectral",
    "BoundCheck", "OutcomeDistribution", "Povm", "basis_povm", "bound_check",
    "classical_fisher", "classical_fishers", "outcome_probs", "random_povm", "random_povms",
    "SimConfig", "SimResult", "bound_chain_ok", "exact_estimator_moments",
    "one_step_estimator", "run_sim", "sample_outcomes",
    "CheckResult", "VerifyOptions", "all_passed", "run_suite",
]
