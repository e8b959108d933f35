"""Three-term recurrence coefficients for the supported polynomial families.

Orthonormal convention:

    x psi_n = b_n psi_{n+1} + a_n psi_n + b_{n-1} psi_{n-1},   b_{-1} = 0,

with the canonical positive gauge b_n = +sqrt(A_n C_{n+1}) >= 0.  Flipping the
sign of any single b_n is a diagonal similarity, so spectra, commutation
residuals and classification verdicts do not depend on the gauge.

Monic-normalized convention for the q-families (p_n(0) = 1):

    -x p_n = A_n p_{n+1} - (A_n + C_n) p_n + C_n p_{n-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import (
    DegenerateParameterError,
    NonPositiveDefiniteError,
    ParameterDomainError,
    UnknownFamilyError,
    ZeroCoefficientError,
)

__all__ = [
    "GOLDEN_Q",
    "QParams",
    "CoefficientSequence",
    "ParamSpec",
    "FamilySpec",
    "little_q_jacobi_monic_coeffs",
    "evaluate_polynomial",
    "custom_sequence",
    "get_family",
    "make_sequence",
    "family_names",
]

# (1 - sqrt(5)) / (1 + sqrt(5)) = (sqrt(5) - 3) / 2, the negative deformation
# parameter of the golden oscillator.
GOLDEN_Q = (1.0 - math.sqrt(5.0)) / (1.0 + math.sqrt(5.0))


@dataclass(frozen=True)
class QParams:
    """Parameter triple (a, b, q) of a little q-Jacobi family."""

    a: float
    b: float
    q: float

    def __post_init__(self) -> None:
        if not (0.0 < abs(self.q) < 1.0):
            raise ParameterDomainError(f"q must satisfy 0 < |q| < 1, got q={self.q}")
        for name in ("a", "b"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ParameterDomainError(f"{name} must be finite, got {v}")


def _nonzero(value: float, what: str) -> float:
    if value == 0.0:
        raise DegenerateParameterError(f"degenerate parameters: {what} vanishes")
    return value


def little_q_jacobi_monic_coeffs(p: QParams, n: int) -> tuple[float, float]:
    """Return (A_n, C_n) of the monic-form little q-Jacobi recurrence."""
    if n < 0:
        raise ParameterDomainError(f"n must be >= 0, got {n}")
    a, b, q = p.a, p.b, p.q
    ab = a * b
    a_num = q**n * (1.0 - a * q ** (n + 1)) * (1.0 - ab * q ** (n + 1))
    a_den = _nonzero(1.0 - ab * q ** (2 * n + 1), "1 - a*b*q^(2n+1)") * _nonzero(
        1.0 - ab * q ** (2 * n + 2), "1 - a*b*q^(2n+2)"
    )
    c_num = a * q**n * (1.0 - q**n) * (1.0 - b * q**n)
    c_den = _nonzero(1.0 - ab * q ** (2 * n), "1 - a*b*q^(2n)") * _nonzero(
        1.0 - ab * q ** (2 * n + 1), "1 - a*b*q^(2n+1)"
    )
    return a_num / a_den, c_num / c_den


class CoefficientSequence:
    """Memoized recurrence coefficients a_n, b_n of one family instance."""

    def __init__(
        self,
        family_id: str,
        params: dict,
        a_fn: Callable[[int], float],
        b_fn: Callable[[int], float],
    ):
        self.family_id = family_id
        self.params = dict(params)
        self._a_fn = a_fn
        self._b_fn = b_fn
        self._a_cache: dict[int, float] = {}
        self._b_cache: dict[int, float] = {}

    def a(self, n: int) -> float:
        if n < 0:
            raise ParameterDomainError(f"a(n) requires n >= 0, got {n}")
        if n not in self._a_cache:
            self._a_cache[n] = float(self._a_fn(n))
        return self._a_cache[n]

    def b(self, n: int) -> float:
        if n == -1:
            return 0.0
        if n < -1:
            raise ParameterDomainError(f"b(n) requires n >= -1, got {n}")
        if n not in self._b_cache:
            self._b_cache[n] = float(self._b_fn(n))
        return self._b_cache[n]

    def b_squared(self, n: int) -> float:
        bn = self.b(n)
        return bn * bn

    def __repr__(self) -> str:
        return f"CoefficientSequence({self.family_id!r}, params={self.params!r})"


def evaluate_polynomial(seq: CoefficientSequence, n: int, x: float) -> float:
    """Evaluate the orthonormal polynomial psi_n(x) by the forward recurrence."""
    if n < 0:
        raise ParameterDomainError(f"n must be >= 0, got {n}")
    prev = 0.0  # psi_{-1}
    cur = 1.0  # psi_0
    for k in range(n):
        b_k = seq.b(k)
        if b_k == 0.0:
            raise ZeroCoefficientError(f"b_{k} = 0: psi_{k + 1} undefined")
        nxt = ((x - seq.a(k)) * cur - seq.b(k - 1) * prev) / b_k
        prev, cur = cur, nxt
    return cur


def custom_sequence(
    b_fn: Callable[[int], float],
    a_fn: Callable[[int], float] | None = None,
    family_id: str = "custom",
    params: dict | None = None,
) -> CoefficientSequence:
    """Wrap raw callables as a sequence (no positivity check, for tests and fits)."""
    if a_fn is None:
        a_fn = lambda n: 0.0
    return CoefficientSequence(family_id, params or {}, a_fn, b_fn)


# ---------------------------------------------------------------------------
# family registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamSpec:
    """One named family parameter with its admissible range."""

    name: str
    default: float | None = None  # None with optional=False means required
    minimum: float | None = None
    maximum: float | None = None
    description: str = ""
    optional: bool = False  # optional with a computed (non-constant) default

    @property
    def required(self) -> bool:
        return self.default is None and not self.optional


@dataclass(frozen=True)
class FamilySpec:
    """Registry entry: name, parameter schema and sequence factory."""

    name: str
    symmetric: bool
    params: tuple[ParamSpec, ...]
    description: str
    factory: Callable[..., CoefficientSequence] = field(repr=False)


def _harmonic() -> CoefficientSequence:
    return CoefficientSequence("harmonic", {}, lambda n: 0.0, lambda n: math.sqrt((n + 1) / 2.0))


def _chebyshev_t() -> CoefficientSequence:
    return CoefficientSequence(
        "chebyshev-t",
        {},
        lambda n: 0.0,
        lambda n: 1.0 / math.sqrt(2.0) if n == 0 else 0.5,
    )


def _chebyshev_u() -> CoefficientSequence:
    return CoefficientSequence("chebyshev-u", {}, lambda n: 0.0, lambda n: 0.5)


def _laguerre(alpha: float = 0.0) -> CoefficientSequence:
    if not (alpha > -1.0):
        raise ParameterDomainError(f"laguerre requires alpha > -1, got {alpha}")

    # X^2 and the other operator products square a_n, so a_n^2 must be finite too
    def a_fn(n: int) -> float:
        a_n = 2.0 * n + alpha + 1.0
        if not math.isfinite(a_n * a_n):
            raise ParameterDomainError(
                f"laguerre a_{n}^2 = (2n+alpha+1)^2 overflows a float at alpha={alpha}, n={n}"
            )
        return a_n

    def b_fn(n: int) -> float:
        b_sq = (n + 1.0) * (n + alpha + 1.0)
        if not math.isfinite(b_sq):
            raise ParameterDomainError(
                f"laguerre b_{n}^2 = (n+1)(n+alpha+1) overflows a float at alpha={alpha}, n={n}"
            )
        return math.sqrt(b_sq)

    return CoefficientSequence("laguerre", {"alpha": alpha}, a_fn, b_fn)


def _little_q_jacobi_seq(
    p: QParams, family_id: str, params: dict, scale: float = 1.0
) -> CoefficientSequence:
    def a_fn(n: int) -> float:
        A_n, C_n = little_q_jacobi_monic_coeffs(p, n)
        return scale * (A_n + C_n)

    def b_fn(n: int) -> float:
        b_sq = (
            little_q_jacobi_monic_coeffs(p, n)[0]
            * little_q_jacobi_monic_coeffs(p, n + 1)[1]
        )
        if b_sq < 0.0:
            raise NonPositiveDefiniteError(
                f"A_{n}*C_{n + 1} = {b_sq} < 0: parameters do not define a real oscillator"
            )
        return scale * math.sqrt(b_sq)

    return CoefficientSequence(family_id, params, a_fn, b_fn)


def _little_q_jacobi(a: float, b: float, q: float) -> CoefficientSequence:
    p = QParams(a, b, q)
    return _little_q_jacobi_seq(p, "little-q-jacobi", {"a": a, "b": b, "q": q})


def _fibonacci_golden() -> CoefficientSequence:
    p = QParams(GOLDEN_Q, 1.0, GOLDEN_Q)
    return _little_q_jacobi_seq(p, "fibonacci-golden", {})


def _ismail_theta(theta: float, alpha: float = 2.0, q: float | None = None) -> CoefficientSequence:
    """Oscillator of the measure nu: little q-Jacobi at (q^(alpha-1), 1), x scaled by e^-theta."""
    if not (theta > 0.0):
        raise ParameterDomainError(f"ismail-theta requires theta > 0, got {theta}")
    if q is None:
        q = -math.exp(-2.0 * theta)
    if alpha != int(alpha) and q < 0.0:
        raise ParameterDomainError(
            f"alpha must be an integer when q < 0, got alpha={alpha}, q={q}"
        )
    if alpha < 1.0:
        raise ParameterDomainError(f"ismail-theta requires alpha >= 1, got {alpha}")
    a = q ** (int(alpha) - 1) if alpha == int(alpha) else q ** (alpha - 1.0)
    p = QParams(a, 1.0, q)
    return _little_q_jacobi_seq(
        p,
        "ismail-theta",
        {"theta": theta, "alpha": alpha, "q": q},
        scale=math.exp(-theta),
    )


_FAMILIES: dict[str, FamilySpec] = {
    spec.name: spec
    for spec in (
        FamilySpec(
            "harmonic",
            True,
            (),
            "harmonic oscillator, b_n = sqrt((n+1)/2)",
            _harmonic,
        ),
        FamilySpec(
            "chebyshev-t",
            True,
            (),
            "Chebyshev T weight, b_0 = 1/sqrt(2), b_n = 1/2",
            _chebyshev_t,
        ),
        FamilySpec(
            "chebyshev-u",
            True,
            (),
            "Chebyshev U weight, b_n = 1/2",
            _chebyshev_u,
        ),
        FamilySpec(
            "laguerre",
            False,
            (ParamSpec("alpha", 0.0, -1.0, None, "weight exponent, alpha > -1"),),
            "Laguerre weight, a_n = 2n+alpha+1, b_n = sqrt((n+1)(n+alpha+1))",
            _laguerre,
        ),
        FamilySpec(
            "little-q-jacobi",
            False,
            (
                ParamSpec("a", None, None, None, "first q-Jacobi parameter"),
                ParamSpec("b", None, None, None, "second q-Jacobi parameter"),
                ParamSpec("q", None, -1.0, 1.0, "deformation, 0 < |q| < 1"),
            ),
            "orthonormalized little q-Jacobi oscillator",
            _little_q_jacobi,
        ),
        FamilySpec(
            "fibonacci-golden",
            False,
            (),
            "little q-Jacobi at a = q, b = 1, q = (1-sqrt5)/(1+sqrt5)",
            _fibonacci_golden,
        ),
        FamilySpec(
            "ismail-theta",
            False,
            (
                ParamSpec("theta", None, 0.0, None, "measure parameter, theta > 0"),
                ParamSpec("alpha", 2.0, 1.0, None, "mass exponent (integer for q < 0)"),
                ParamSpec(
                    "q", None, -1.0, 1.0, "base, defaults to -exp(-2*theta)", optional=True
                ),
            ),
            "scaled little q-Jacobi at (q^(alpha-1), 1)",
            _ismail_theta,
        ),
    )
}


def family_names() -> tuple[str, ...]:
    return tuple(_FAMILIES)


def get_family(name: str) -> FamilySpec:
    try:
        return _FAMILIES[name]
    except KeyError:
        raise UnknownFamilyError(
            f"unknown family {name!r}; known: {', '.join(_FAMILIES)}"
        ) from None


def make_sequence(name: str, params: dict | None = None) -> CoefficientSequence:
    """Instantiate a registered family from a parameter mapping."""
    spec = get_family(name)
    params = dict(params or {})
    known = {ps.name for ps in spec.params}
    unknown = set(params) - known
    if unknown:
        raise ParameterDomainError(
            f"family {name!r} does not accept parameter(s) {sorted(unknown)}"
        )
    kwargs = {}
    for ps in spec.params:
        if ps.name in params:
            if not math.isfinite(params[ps.name]):
                raise ParameterDomainError(
                    f"family {name!r} parameter {ps.name!r} must be finite, got {params[ps.name]}"
                )
            kwargs[ps.name] = params[ps.name]
        elif ps.required:
            raise ParameterDomainError(f"family {name!r} requires parameter {ps.name!r}")
    return spec.factory(**kwargs)
