"""defosc: generalized oscillators from orthogonal-polynomial recurrences.

A three-term recurrence x psi_n = b_n psi_{n+1} + a_n psi_n + b_{n-1} psi_{n-1}
determines a deformed oscillator: ladder operators, a number operator, a
structure function B(N) and a Hamiltonian.  The package builds truncated
matrix representations, verifies the deformed Heisenberg relations, decides
whether the generated algebra closes at dimension 4, constructs
annihilation-operator eigenstates, and implements the Fibonacci-flavored
exact results (reciprocal-Fibonacci matrix inversion, moment-functional
orthogonality, deformed Fibonacci identities) that motivate the golden
little q-Jacobi family.
"""

from .classifier import (
    FINITE,
    INCONCLUSIVE,
    INFINITE,
    ClassificationResult,
    DifferenceTable,
    classify,
    difference_table,
    fit_beta,
)
from .coherent import (
    CoherentState,
    eigen_residual,
    make_state,
    normalization,
    uncertainty,
)
from .errors import (
    CalibrationError,
    DefoscError,
    DegenerateParameterError,
    DimensionError,
    DivergenceError,
    InsufficientMomentsError,
    InternalConsistencyError,
    NonPositiveDefiniteError,
    ParameterDomainError,
    SingularMatrixError,
    TruncationError,
    UnknownFamilyError,
    ZeroCoefficientError,
)
from .fibonacci import (
    GOLDEN_Q_EXACT,
    PHI,
    THETA0,
    BergReport,
    GoldenNumber,
    MomentFunctional,
    NuMomentResult,
    berg_moment_classical,
    berg_orthogonality,
    calibrate_affine,
    exact_inverse,
    exact_matmul,
    fib,
    fib_classical,
    fib_via_chebyshev,
    filbert_matrix,
    gen_fib,
    is_integer_matrix,
    ismail_fib,
    nu_moments,
)
from .oscillator import (
    AlgebraReport,
    BandMatrix,
    Operators,
    build_operators,
    commutator,
    verify_algebra,
)
from .qseries import (
    HyperSeriesResult,
    HyperSeriesSpec,
    basic_hypergeometric,
    little_q_jacobi,
    q_pochhammer,
)
from .recurrence import (
    GOLDEN_Q,
    CoefficientSequence,
    FamilySpec,
    ParamSpec,
    QParams,
    custom_sequence,
    evaluate_polynomial,
    family_names,
    get_family,
    little_q_jacobi_monic_coeffs,
    make_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # recurrence
    "GOLDEN_Q",
    "QParams",
    "CoefficientSequence",
    "ParamSpec",
    "FamilySpec",
    "little_q_jacobi_monic_coeffs",
    "evaluate_polynomial",
    "custom_sequence",
    "family_names",
    "get_family",
    "make_sequence",
    # qseries
    "q_pochhammer",
    "little_q_jacobi",
    "HyperSeriesSpec",
    "HyperSeriesResult",
    "basic_hypergeometric",
    # oscillator
    "BandMatrix",
    "Operators",
    "AlgebraReport",
    "build_operators",
    "commutator",
    "verify_algebra",
    # classifier
    "FINITE",
    "INFINITE",
    "INCONCLUSIVE",
    "DifferenceTable",
    "ClassificationResult",
    "difference_table",
    "fit_beta",
    "classify",
    # coherent
    "CoherentState",
    "normalization",
    "make_state",
    "eigen_residual",
    "uncertainty",
    # fibonacci
    "GoldenNumber",
    "GOLDEN_Q_EXACT",
    "PHI",
    "THETA0",
    "fib",
    "fib_classical",
    "gen_fib",
    "ismail_fib",
    "fib_via_chebyshev",
    "NuMomentResult",
    "nu_moments",
    "filbert_matrix",
    "exact_inverse",
    "exact_matmul",
    "is_integer_matrix",
    "berg_moment_classical",
    "MomentFunctional",
    "calibrate_affine",
    "BergReport",
    "berg_orthogonality",
    # errors
    "DefoscError",
    "ParameterDomainError",
    "DegenerateParameterError",
    "NonPositiveDefiniteError",
    "UnknownFamilyError",
    "DimensionError",
    "DivergenceError",
    "TruncationError",
    "ZeroCoefficientError",
    "InternalConsistencyError",
    "SingularMatrixError",
    "CalibrationError",
    "InsufficientMomentsError",
]
