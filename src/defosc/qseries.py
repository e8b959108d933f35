"""q-Pochhammer products, basic hypergeometric series and little q-Jacobi values.

All arguments in scope are real; negative q is fully supported.  No complex
arithmetic is used: parameter pairs that would individually be complex are
always consumed through their real pairwise products.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    DegenerateParameterError,
    DivergenceError,
    NonPositiveDefiniteError,
    ParameterDomainError,
    ZeroCoefficientError,
)

__all__ = [
    "q_pochhammer",
    "little_q_jacobi_coeffs",
    "little_q_jacobi",
    "HyperSeriesSpec",
    "HyperSeriesResult",
    "basic_hypergeometric",
    "generalized_factorial_closed",
    "normalization_series_closed",
]

_INF_TOL = 1e-17
_INF_MAX_TERMS = 100_000
_SERIES_MAX_TERMS = 10_000


def q_pochhammer(a: float, q: float, n: int | float | None) -> float:
    """(a; q)_n = prod_{k<n} (1 - a q^k); n = None or math.inf gives the full product.

    The finite product stays in the numeric carrier of a and q (float,
    Fraction or an mpmath float); the full product is computed in floats.
    """
    if n is None or n == math.inf:
        if not (0.0 < abs(q) < 1.0):
            raise ParameterDomainError(
                f"infinite product requires 0 < |q| < 1, got q={q}"
            )
        result = 1.0
        factor = a
        for _ in range(_INF_MAX_TERMS):
            result *= 1.0 - factor
            factor *= q
            if abs(factor) < _INF_TOL:
                break
        return result
    if not isinstance(n, int) or n < 0:
        raise ParameterDomainError(f"n must be a nonnegative integer or inf, got {n!r}")
    result = a**0  # the carrier's one, also for the empty product n = 0
    power = 1
    for _ in range(n):
        result = result * (1 - a * power)
        power = power * q
    return result


def little_q_jacobi_coeffs(n: int, a, b, q) -> list:
    """Ascending coefficients of the little q-Jacobi polynomial p_n(x; a, b).

        coeff_j = [n,j]_q (abq^{n+1};q)_j / (aq;q)_j * q^{binom(j+1,2) - n j} (-1)^j

    with the Gaussian binomial [n,j]_q = (q;q)_n / ((q;q)_j (q;q)_{n-j}), in
    whatever numeric carrier a, b and q are supplied in.  Each coefficient
    follows from the one before by the term ratio, O(n) products in all:

        coeff_{j+1} / coeff_j = -(1 - q^{n-j}) (1 - abq^{n+1+j})
                                / ((1 - q^{j+1}) (1 - aq^{j+1}) q^{n-j-1})
    """
    powers = [q**0]
    for _ in range(2 * n):
        powers.append(powers[-1] * q)
    ab = a * b
    coeffs = [powers[0]]
    for j in range(n):
        den = 1 - a * powers[j + 1]
        if den == 0:
            raise DegenerateParameterError(
                f"(aq; q)_{j + 1} = 0 at a={a}, q={q}: polynomial undefined"
            )
        num = (1 - powers[n - j]) * (1 - ab * powers[n + 1 + j])
        coeffs.append(-coeffs[-1] * num / ((1 - powers[j + 1]) * den * powers[n - j - 1]))
    return coeffs


def little_q_jacobi(n: int, x: float, a: float, b: float, q: float) -> float:
    """Value of the monic-normalized little q-Jacobi polynomial p_n(x; a, b).

    Sums the terminating series of little_q_jacobi_coeffs, normalized so that
    p_0 = 1 and p_n(0) = 1.  Satisfies the monic-form recurrence
    -x p_n = A_n p_{n+1} - (A_n + C_n) p_n + C_n p_{n-1}.
    """
    if n < 0:
        raise ParameterDomainError(f"n must be >= 0, got {n}")
    if not (0.0 < abs(q) < 1.0):
        raise ParameterDomainError(f"little_q_jacobi requires 0 < |q| < 1, got q={q}")
    return sum(c * x**j for j, c in enumerate(little_q_jacobi_coeffs(n, a, b, q)))


@dataclass(frozen=True)
class HyperSeriesSpec:
    """Arguments of a basic hypergeometric series r_phi_s.

    numerator/denominator hold the upper and lower parameters; q is the base,
    z the argument.  The standard convention multiplies term k by
    ((-1)^k q^binom(k,2))^(1 + s - r).  tol is the relative size of the
    terms that end the sum; every series stops at 10,000 terms at most.
    """

    numerator: tuple[float, ...]
    denominator: tuple[float, ...]
    q: float
    z: float
    tol: float = 1e-14

    def __post_init__(self) -> None:
        if not (0.0 < abs(self.q) < 1.0):
            raise ParameterDomainError(f"require 0 < |q| < 1, got q={self.q}")
        if not 0.0 < self.tol < math.inf:
            raise ParameterDomainError(f"tol must be finite and positive, got {self.tol}")


@dataclass(frozen=True)
class HyperSeriesResult:
    value: float
    terms_used: int
    tail_estimate: float


def sum_ratio_series(multipliers: Iterable[float], tol: float) -> HyperSeriesResult:
    """Sum 1 + t_1 + t_2 + ... with t_{k+1} = t_k m_k over the multipliers m_k.

    One stopping rule for every series: a term that is exactly 0 ends the
    series with tail 0.  With ratio = |t_{k+1}| / |t_k|, two consecutive
    terms at or below tol * max(1, |sum|) while the ratio is below 1 end it
    with the geometric tail estimate |t| / (1 - ratio).  Three consecutive
    steps with ratio >= 1, each no smaller than the step before (the first
    step has none before it), raise DivergenceError, as does running out of
    multipliers.
    """
    term = total = 1.0
    small_streak = growth_streak = 0
    prev_ratio = None
    k = -1
    for k, multiplier in enumerate(multipliers):
        next_term = term * multiplier
        if next_term == 0.0:
            return HyperSeriesResult(total, k + 1, 0.0)
        ratio = abs(next_term) / abs(term)
        if ratio >= 1.0 and prev_ratio is not None and ratio >= prev_ratio:
            growth_streak += 1
            if growth_streak >= 3:
                raise DivergenceError(f"series diverges: term ratio grew to {ratio} at k={k}")
        else:
            growth_streak = 0
        prev_ratio = ratio
        term = next_term
        total += term
        if abs(term) <= tol * max(1.0, abs(total)) and ratio < 1.0:
            small_streak += 1
            if small_streak >= 2:
                return HyperSeriesResult(total, k + 2, abs(term) / (1.0 - ratio))
        else:
            small_streak = 0
    raise DivergenceError(f"series did not converge within {k + 1} terms")


def basic_hypergeometric(spec: HyperSeriesSpec) -> HyperSeriesResult:
    """Sum an r_phi_s series with tail control and divergence detection.

    Its term ratios, the Pochhammer multipliers, go to sum_ratio_series (at
    most 10,000 of them): the sum stops once two consecutive decreasing
    terms fall below tol relative to it, and growing ratios or running out
    of terms raise DivergenceError.  A vanishing denominator factor raises
    DegenerateParameterError.
    """
    exponent = 1 + len(spec.denominator) - len(spec.numerator)
    q, z = spec.q, spec.z

    def multipliers():
        for k in range(_SERIES_MAX_TERMS):
            qk = q**k
            num = 1.0
            for a in spec.numerator:
                num *= 1.0 - a * qk
            den = 1.0 - q ** (k + 1)
            for b in spec.denominator:
                den *= 1.0 - b * qk
            if den == 0.0:
                raise DegenerateParameterError(
                    f"denominator Pochhammer factor vanishes at k={k}"
                )
            yield num / den * z * (-qk) ** exponent

    return sum_ratio_series(multipliers(), spec.tol)


def _factorial_prefixes(a: float, b: float, q: float, n: int):
    """Yield generalized_factorial_closed(a, b, q, m) for m = 0, 1, ..., n in O(n).

    The Pochhammer products are carried as prefixes, one factor per step.
    Stops at the first negative product (NonPositiveDefiniteError) and at
    the first factor 2 b_k^2 that is exactly zero (ZeroCoefficientError).
    """
    if not (0.0 < abs(q) < 1.0):
        raise ParameterDomainError(f"require 0 < |q| < 1, got q={q}")
    ab = a * b
    xs = (a * q, ab * q, q, b * q)  # numerator (x; q)_m
    ys = (ab * q, ab * q**2)  # denominator (y; q)_{2m}
    num, den, powers = [1] * 4, [1] * 2, [1]  # powers: q^k by repeated products
    for m in range(n + 1):
        if m:
            factors = [1 - x * powers[m - 1] for x in xs]
            if a == 0.0 or 0.0 in factors:
                raise ZeroCoefficientError(f"b_{m - 1} = 0: levels above {m - 1} are unreachable")
            num = [p * f for p, f in zip(num, factors)]
            for _ in range(2):
                den = [d * (1 - y * powers[-1]) for d, y in zip(den, ys)]
                powers.append(powers[-1] * q)
        den_m = den[0] * den[1]
        if den_m == 0.0:
            raise DegenerateParameterError("Pochhammer denominator vanishes")
        product = 2.0**m * a**m * q ** (m * m) * num[0] * num[1] * num[2] * num[3] / den_m
        if product < 0.0:
            raise NonPositiveDefiniteError(
                f"prod_(k<{m}) 2 b_k^2 = {product} < 0 at m={m}: "
                "parameters do not define a real oscillator"
            )
        yield product


def generalized_factorial_closed(a: float, b: float, q: float, n: int) -> float:
    """prod_{k<n} 2 b_k^2 for the little q-Jacobi oscillator, via Pochhammer products.

    Closed form

        2^n a^n q^(n^2) (aq;q)_n (abq;q)_n (q;q)_n (bq;q)_n
        / ((abq;q)_{2n} (abq^2;q)_{2n}),

    an independent route to the product of the factors 2 A_k C_{k+1} that
    make_sequence("little-q-jacobi", ...).b_squared gives one at a time.
    A negative product for some m <= n has a negative factor 2 b_k^2, so its
    parameters define no real oscillator: NonPositiveDefiniteError, also
    when a second negative factor cancels the sign at n.  A zero factor
    raises ZeroCoefficientError, as coherent.make_state does.
    """
    if n < 0:
        raise ParameterDomainError(f"n must be >= 0, got {n}")
    *_, product = _factorial_prefixes(a, b, q, n)
    return product


def normalization_series_closed(
    a: float, b: float, q: float, r2: float, n_terms: int
) -> float:
    """Partial sum sum_{m<n_terms} r2^m / prod_{k<m}(2 b_k^2), closed-form route.

    Cross-check of coherent.make_state, whose norm_constant at dim n_terms is
    the same partial sum accumulated in log space from the recurrence
    coefficients; here the products are those of generalized_factorial_closed,
    formed in one pass that stops at the first negative or zero factor.
    A product below the smallest normal float (a = b = 0.5, n_terms = 24 and
    q <= 0.25, say) would divide by zero or lose digits, so it raises
    ParameterDomainError naming m.  May overflow to inf for decaying b_k at
    large n_terms; callers compare partial sums at a safe depth.
    """
    if n_terms < 1:
        raise ParameterDomainError(f"n_terms must be >= 1, got {n_terms}")
    if r2 < 0.0:
        raise ParameterDomainError(f"r2 must be >= 0, got {r2}")
    total = 0.0
    for m, product in enumerate(_factorial_prefixes(a, b, q, n_terms - 1)):
        if abs(product) < sys.float_info.min:
            raise ParameterDomainError(
                f"prod_(k<{m}) 2 b_k^2 = {product} underflows at m={m}, q={q}"
            )
        total += r2**m / product
    return total
