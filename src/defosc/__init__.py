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

Public names resolve on first access (PEP 562), so importing the package
loads neither numpy nor mpmath; a module is imported when one of its names
is first used.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "recurrence": (
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
    ),
    "qseries": (
        "q_pochhammer",
        "little_q_jacobi",
        "HyperSeriesSpec",
        "HyperSeriesResult",
        "basic_hypergeometric",
    ),
    "oscillator": (
        "BandMatrix",
        "Operators",
        "AlgebraReport",
        "build_operators",
        "commutator",
        "verify_algebra",
    ),
    "classifier": (
        "FINITE",
        "INFINITE",
        "INCONCLUSIVE",
        "DifferenceTable",
        "ClassificationResult",
        "difference_table",
        "fit_beta",
        "classify",
    ),
    "coherent": (
        "CoherentState",
        "normalization",
        "make_state",
        "eigen_residual",
        "uncertainty",
    ),
    "fibonacci": (
        "GoldenNumber",
        "GOLDEN_Q_EXACT",
        "PHI",
        "THETA0",
        "fib",
        "fib_classical",
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
    ),
    "errors": (
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
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
