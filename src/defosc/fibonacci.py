"""Fibonacci numbers, their deformations, and two exact-arithmetic results.

Two indexing conventions coexist on purpose:

  fib(n)            F_0 = F_1 = 1 (the convention used throughout the rest of
                    this package: 1, 1, 2, 3, 5, 8, ...)
  fib_classical(k)  F_1 = F_2 = 1 with F_0 = 0, so fib(n) = fib_classical(n+1).

The reciprocal-Fibonacci (Filbert) matrix inverse is integer valued in the
classical convention, and the classical reciprocals 1/F_{k+2} = 1, 1/2, 1/3,
1/5, ... (berg_moment_classical) are the moment sequence whose Hankel
functional orthogonalizes the golden little q-Jacobi polynomials after the
affine calibration computed here (the calibration scale comes out as the
golden ratio; C. Berg, "Fibonacci numbers and orthogonal polynomials", 2011).
The reciprocals 1/2, 1/3, 1/5, ... of the first convention admit no real
calibration (alpha^2 < 0), so the Berg table uses the classical moments only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import qseries, recurrence
from .errors import (
    CalibrationError,
    InsufficientMomentsError,
    InternalConsistencyError,
    ParameterDomainError,
    SingularMatrixError,
)

__all__ = [
    "GoldenNumber",
    "GOLDEN_Q_EXACT",
    "PHI",
    "THETA0",
    "fib",
    "fib_classical",
    "fib_iterative",
    "gen_fib",
    "ismail_fib",
    "ismail_fib_values",
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
]

# sinh(THETA0) = 1/2; at this point the deformed Fibonacci sequence becomes
# the integer one and -exp(-2*THETA0) is the golden deformation base.
THETA0 = math.asinh(0.5)


class GoldenNumber:
    """Exact element r + s*sqrt(5) of the quadratic field Q(sqrt 5)."""

    __slots__ = ("r", "s")

    def __init__(self, r, s=0):
        object.__setattr__(self, "r", r if isinstance(r, Fraction) else Fraction(r))
        object.__setattr__(self, "s", s if isinstance(s, Fraction) else Fraction(s))

    def __setattr__(self, name, value):
        raise AttributeError("GoldenNumber is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, GoldenNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return GoldenNumber(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else GoldenNumber(self.r + o.r, self.s + o.s)

    __radd__ = __add__

    def __neg__(self):
        return GoldenNumber(-self.r, -self.s)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GoldenNumber(self.r * o.r + 5 * self.s * o.s, self.r * o.s + self.s * o.r)

    __rmul__ = __mul__

    def inverse(self) -> "GoldenNumber":
        # (r + s sqrt5)(r - s sqrt5) = r^2 - 5 s^2, never 0 for r, s rational
        # unless both vanish (sqrt 5 is irrational)
        den = self.r * self.r - 5 * self.s * self.s
        if den == 0:
            raise ZeroDivisionError("division by zero GoldenNumber")
        return GoldenNumber(self.r / den, -self.s / den)

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        out = GoldenNumber(1)
        base = self if exponent >= 0 else self.inverse()
        e = abs(exponent)
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def conjugate(self) -> "GoldenNumber":
        return GoldenNumber(self.r, -self.s)

    def __gt__(self, other):
        d = self - other
        # whichever of |r| and |s| sqrt5 is larger carries the sign of r + s sqrt5
        return d.r > 0 if d.r * d.r > 5 * d.s * d.s else d.s > 0

    def sqrt(self) -> "GoldenNumber":
        """The root y >= 0 with y * y == self; ValueError if none lies in Q(sqrt 5).

        y = u + v sqrt5 squares to (u^2 + 5 v^2) + 2uv sqrt5, so u^2 + 5 v^2 = r
        and u^2 - 5 v^2 = +-sqrt(r^2 - 5 s^2) fix u^2 and v^2; uv has the sign of s.
        """
        norm_root = _rational_sqrt(self.r * self.r - 5 * self.s * self.s)
        for n in () if norm_root is None else (norm_root, -norm_root):
            u, v = _rational_sqrt((self.r + n) / 2), _rational_sqrt((self.r - n) / 10)
            if u is not None and v is not None:
                y = GoldenNumber(u, v if self.s >= 0 else -v)
                return -y if -y > 0 else y
        raise ValueError(f"{self!r} has no square root in Q(sqrt 5)")

    def __eq__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else (self.r == o.r and self.s == o.s)

    def __hash__(self):
        return hash((self.r, self.s))

    def __float__(self) -> float:
        if self.r * self.s < 0:
            # r + s sqrt5 = (r^2 - 5 s^2) / (r - s sqrt5): no cancellation left
            return float(self.r * self.r - 5 * self.s * self.s) / (
                float(self.r) - float(self.s) * math.sqrt(5.0)
            )
        return float(self.r) + float(self.s) * math.sqrt(5.0)

    def __repr__(self) -> str:
        return f"GoldenNumber({self.r!r}, {self.s!r})"


def _rational_sqrt(x: Fraction) -> Fraction | None:
    """The root y >= 0 of x in Q, or None when x has none."""
    if x >= 0:
        y = Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))
        if y * y == x:
            return y
    return None


# (1 - sqrt5)/(1 + sqrt5) = (sqrt5 - 3)/2 and the golden ratio (1 + sqrt5)/2;
# they satisfy GOLDEN_Q_EXACT = PHI - 2 = -1/PHI**2 exactly.
GOLDEN_Q_EXACT = GoldenNumber(Fraction(-3, 2), Fraction(1, 2))
PHI = GoldenNumber(Fraction(1, 2), Fraction(1, 2))


# -- Fibonacci numbers ---------------------------------------------------------


def _fib_pair(k: int) -> tuple[int, int]:
    """(G_k, G_{k+1}) with G_0 = 0, G_1 = 1, by halving the index."""
    if k == 0:
        return 0, 1
    a, b = _fib_pair(k >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    if k & 1:
        return d, c + d
    return c, d


def fib(n: int) -> int:
    """Fibonacci number with F_0 = F_1 = 1: 1, 1, 2, 3, 5, 8, 13, ..."""
    if n < 0:
        raise ParameterDomainError(f"n must be >= 0, got {n}")
    return _fib_pair(n + 1)[0]


def fib_classical(k: int) -> int:
    """Fibonacci number with F_0 = 0, F_1 = F_2 = 1."""
    if k < 0:
        raise ParameterDomainError(f"k must be >= 0, got {k}")
    return _fib_pair(k)[0]


def fib_iterative(n: int) -> int:
    """fib(n) by plain addition; independent route kept for consistency checks."""
    if n < 0:
        raise ParameterDomainError(f"n must be >= 0, got {n}")
    prev, cur = 1, 1
    for _ in range(n):
        prev, cur = cur, prev + cur
    return prev


def gen_fib(a: float, b: float, n: int) -> float:
    """Two-parameter deformation y_{k+1} = a y_k + b y_{k-1}, y_0 = y_1 = 1."""
    if n < 0:
        raise ParameterDomainError(f"n must be >= 0, got {n}")
    prev, cur = 1.0, 1.0
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, a * cur + b * prev
    return cur


def ismail_fib_values(theta: float, n: int) -> tuple[float, float]:
    """(closed form, recurrence value) of the theta-deformed Fibonacci F_n.

    Closed form e^{(n-1) theta} (1 - Q^n)/(1 - Q) with Q = -e^{-2 theta};
    recurrence y_{k+1} = 2 sinh(theta) y_k + y_{k-1}, F_1 = 1,
    F_2 = 2 sinh(theta).  Both are at most e^{(n-1) theta}, which must fit
    in a float.
    """
    if not (0.0 < theta < math.inf):
        raise ParameterDomainError(f"theta must be finite and > 0, got {theta}")
    if n < 1:
        raise ParameterDomainError(f"n must be >= 1, got {n}")
    q_base = -math.exp(-2.0 * theta)
    try:
        growth = math.exp((n - 1) * theta)
    except OverflowError:
        raise ParameterDomainError(f"F_{n}({theta}) overflows a float") from None
    # (1 - Q^n)/(1 - Q) = 1 + Q + ... + Q^{n-1} lies in (0, 1] for -1 < Q < 0
    closed = growth * (1.0 - q_base**n) / (1.0 - q_base)
    if n == 1:
        return closed, 1.0
    two_sinh = 2.0 * math.sinh(theta)
    prev, cur = 1.0, two_sinh
    for _ in range(n - 2):
        prev, cur = cur, two_sinh * cur + prev
    return closed, cur


_ISMAIL_TOL = 1e-9


def ismail_fib(theta: float, n: int) -> float:
    """Closed-form F_n(theta), cross-checked against the recurrence route."""
    closed, rec = ismail_fib_values(theta, n)
    if abs(closed - rec) > _ISMAIL_TOL * max(1.0, abs(closed)):
        raise InternalConsistencyError(
            f"F_{n}({theta}): closed form {closed!r} vs recurrence {rec!r}"
        )
    return closed


_CHEBYSHEV_MAX_N = 77  # fib(78) >= 2**53: past it the float carrier rounds


def fib_via_chebyshev(n: int) -> int:
    """fib(n) = (-i)^n U_n(i/2), evaluated by the chebyshev-u family's recurrence.

    The orthonormal polynomials of the chebyshev-u family (b_n = 1/2) are the
    U_n, and U_n(i/2) = i^n fib(n).  Every intermediate of the complex
    recurrence is a Gaussian integer or half-integer, so the float arithmetic
    is exact while fib(n) < 2**53, that is for n <= 77; larger n is rejected.
    """
    if n < 0:
        raise ParameterDomainError(f"n must be >= 0, got {n}")
    if n > _CHEBYSHEV_MAX_N:
        raise ParameterDomainError(
            f"n must be <= {_CHEBYSHEV_MAX_N} for the exact Chebyshev route, got {n}"
        )
    seq = recurrence.make_sequence("chebyshev-u")
    return int(((-1j) ** n * recurrence.evaluate_polynomial(seq, n, 0.5j)).real)


# -- nu-measure moments --------------------------------------------------------


def _geometric_partial_sum(s, K: int):
    """sum_{k<K} s^k by doubling over the bits of K, most significant first.

    Carries S(m) = sum_{k<m} s^k and s^m through S(2m) = S(m) (1 + s^m) and
    S(m+1) = S(m) + s^m: at most 3 log2 K products in the carrier of s,
    instead of the K of term-by-term summation.
    """
    total, power = 0, 1
    for bit in bin(K)[2:]:
        total, power = total * (1 + power), power * power
        if bit == "1":
            total, power = total + power, power * s
    return total


@dataclass(frozen=True)
class NuMomentResult:
    """Truncated vs closed-form n-th moment of the discrete measure nu.

    within_bound compares |truncated - closed_form| against tail_bound plus a
    rounding margin at the working precision dps, which is sized so the margin
    sits far below the bound.  precision is always "extended" (mpmath).
    """

    n: int
    alpha: float
    theta: float
    q: float
    terms: int
    truncated: float
    closed_form: float
    tail_bound: float
    within_bound: bool
    precision: str
    dps: int


def nu_moments(
    n: int,
    alpha: float,
    theta: float,
    q: float | None = None,
    K: int = 200,
) -> NuMomentResult:
    """Moments of nu = (1 - q^alpha) sum_k q^{alpha k} delta(x - q^k e^{-theta}).

    truncated sums the first K mass points; closed_form is
    (1 - q^alpha) e^{-n theta} / (1 - q^{alpha+n}); tail_bound is the
    geometric bound |1 - q^alpha| e^{-n theta} |q|^{(alpha+n)K} / (1 - |q|^{alpha+n})
    on their true difference.  q defaults to -e^{-2 theta}, which needs
    theta > 0.

    Everything is evaluated in mpmath at a working precision that grows with
    K so that rounding stays below the tail bound, and the K-term partial sum
    is formed by doubling over the bits of K (O(log K) products, see
    _geometric_partial_sum).  The cost grows with that precision, which is
    dps = K (alpha + n) log10(1/|q|) + 30 digits (at least 50): n = alpha = 3,
    q = 1e-3, K = 4097 runs at 73,776 digits and takes seconds (3.4-5.4 s
    measured on a 2-core Xeon).  dps is not lowered to save time; a smaller
    K is the cheaper choice when its bound suffices.

    When q^{alpha+n} > 0 the dropped tail is a positive geometric series and
    the bound is attained exactly, so within_bound compares with a small
    working-precision margin; without it the verdict at equality would be
    decided by the last rounding of two equal quantities.
    """
    if n < 0:
        raise ParameterDomainError(f"n must be >= 0, got {n}")
    if not isinstance(K, int) or K < 1:
        raise ParameterDomainError(f"K must be an integer >= 1, got {K!r}")
    if not math.isfinite(theta):
        raise ParameterDomainError(f"theta must be finite, got {theta}")
    if not (math.isfinite(alpha) and alpha + n > 0):
        # |q^(alpha+n)| < 1 is what makes the moment series converge
        raise ParameterDomainError(
            f"alpha must be finite with alpha + n > 0, got alpha={alpha}, n={n}"
        )
    if q is None and not theta > 0.0:
        raise ParameterDomainError(
            f"theta must be > 0 for the default q = -e^(-2 theta) to have |q| < 1, got {theta}"
        )
    q_known = -math.exp(-2.0 * theta) if q is None else q
    if not (0.0 < abs(q_known) < 1.0):
        raise ParameterDomainError(f"require 0 < |q| < 1, got q={q_known}")
    if q_known < 0.0 and alpha != int(alpha):
        raise ParameterDomainError(
            f"alpha must be an integer when q < 0, got alpha={alpha}"
        )
    import mpmath

    # working precision sized so rounding stays below the geometric tail
    dps = max(50, int(math.ceil(K * (alpha + n) * -math.log10(abs(q_known)))) + 30)
    alpha_i = int(alpha) if alpha == int(alpha) else alpha
    with mpmath.workdps(dps):
        tv = mpmath.mpf(theta)
        qv = -mpmath.exp(-2 * tv) if q is None else mpmath.mpf(q)
        e_nt = mpmath.exp(-n * tv)
        mass = 1 - qv**alpha_i
        step = qv ** (alpha_i + n)
        truncated = mass * e_nt * _geometric_partial_sum(step, K)
        closed = mass * e_nt / (1 - step)
        tail = abs(mass) * e_nt * abs(qv) ** ((alpha_i + n) * K) / (1 - abs(qv) ** (alpha_i + n))
        margin = (abs(truncated) + abs(closed)) * mpmath.mpf(10) ** (15 - dps)
        within = bool(abs(truncated - closed) <= tail + margin)
        return NuMomentResult(
            n,
            alpha,
            theta,
            float(qv),
            K,
            float(truncated),
            float(closed),
            float(tail),
            within,
            "extended",
            dps,
        )


# -- Filbert matrix and exact inversion ----------------------------------------


def filbert_matrix(n: int) -> list[list[Fraction]]:
    """n x n matrix with entries 1/F_{i+j+1} (classical indexing, i, j >= 1)."""
    if n < 1:
        raise ParameterDomainError(f"n must be >= 1, got {n}")
    return [
        [Fraction(1, fib_classical(i + j + 1)) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


def _as_exact_square(m: Sequence[Sequence]) -> list[list[Fraction]]:
    rows = [[Fraction(v) for v in row] for row in m]
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ParameterDomainError("matrix must be square and non-empty")
    return rows


def _integer_scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(d * values, d) with d the lcm of the denominators: an integer vector."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def exact_inverse(m: Sequence[Sequence]) -> list[list[Fraction]]:
    """Inverse by Gauss-Jordan elimination on [A | I]; exact, no rounding.

    Each row of [A | I] is held as a primitive integer vector, a nonzero
    multiple of the rational row: it starts scaled by the lcm of its
    denominators, an update r <- p r - f r_pivot (p : f the pivot and the
    entry to clear, in lowest terms) stays integral, and one gcd per update
    removes the content, so no Fraction arithmetic runs inside the
    elimination.  The pivot is the first nonzero entry at or below the
    diagonal, so a singular matrix is reported at the same column as
    rational elimination would.  Row i ends as a multiple of
    [e_i | row i of the inverse], whence the inverse entry (i, j) is
    Fraction(row[n + j], row[i]).
    """
    a = _as_exact_square(m)
    n = len(a)
    rows = []
    for i, row in enumerate(a):
        ints, den = _integer_scaled(row)
        rows.append(ints + [den if j == i else 0 for j in range(n)])  # content 1, den is the lcm
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            raise SingularMatrixError(f"matrix is singular (column {col})")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col]
        for r in range(n):
            entry = rows[r][col]
            if r == col or not entry:
                continue
            g = math.gcd(pivot[col], entry)
            p, f = pivot[col] // g, entry // g
            row = [p * v - f * w for v, w in zip(rows[r], pivot)]
            g = math.gcd(*row)  # >= 1: the rows of [A | I] stay independent
            rows[r] = row if g == 1 else [v // g for v in row]
    return [[Fraction(row[n + j], row[i]) for j in range(n)] for i, row in enumerate(rows)]


def exact_matmul(
    a: Sequence[Sequence], b: Sequence[Sequence]
) -> list[list[Fraction]]:
    """Exact product of two rational matrices; ragged input is rejected.

    Each row of a and each column of b is scaled to integers by the lcm of
    its denominators, so an entry is one integer dot product over the
    product of the two scales, made a Fraction once.
    """
    rows_a = [[Fraction(v) for v in row] for row in a]
    rows_b = [[Fraction(v) for v in row] for row in b]
    if (
        not rows_a
        or not rows_b
        or any(len(row) != len(rows_b) for row in rows_a)
        or any(len(row) != len(rows_b[0]) for row in rows_b)
    ):
        raise ParameterDomainError(
            "matrices must be non-empty and rectangular, with matching inner dimensions"
        )
    left = [_integer_scaled(row) for row in rows_a]
    right = [_integer_scaled(col) for col in zip(*rows_b)]
    return [
        [Fraction(sum(x * y for x, y in zip(u, v)), du * dv) for v, dv in right]
        for u, du in left
    ]


def is_integer_matrix(m: Sequence[Sequence[Fraction]]) -> bool:
    return all(Fraction(v).denominator == 1 for row in m for v in row)


# -- Berg moments and the Hankel moment functional ------------------------------


def berg_moment_classical(n: int) -> Fraction:
    """1/F_{n+2} in the classical convention: 1, 1/2, 1/3, 1/5, ..."""
    if n < 0:
        raise ParameterDomainError(f"n must be >= 0, got {n}")
    return Fraction(1, fib_classical(n + 2))


class MomentFunctional:
    """Linear functional L(x^k) = mu_k with bilinear (Hankel) application.

    The carrier is whatever numeric type the moments are supplied in:
    Fraction for exact work, float, or an mpmath float for extended
    precision.  All arithmetic stays within that carrier.
    """

    def __init__(self, moments: Sequence):
        self._moments = list(moments)
        if not self._moments:
            raise InsufficientMomentsError("at least one moment is required")

    def __len__(self) -> int:
        return len(self._moments)

    def moment(self, k: int):
        if k < 0:
            raise ParameterDomainError(f"moment index must be >= 0, got {k}")
        if k >= len(self._moments):
            raise InsufficientMomentsError(
                f"moment {k} requested but only {len(self._moments)} stored"
            )
        return self._moments[k]

    def apply(self, p1: Sequence, p2: Sequence):
        """L(p1 * p2) for coefficient lists in ascending powers of x."""
        need = (len(p1) - 1) + (len(p2) - 1)
        if need >= len(self._moments):
            raise InsufficientMomentsError(
                f"degree {need} product needs {need + 1} moments, have {len(self._moments)}"
            )
        total = 0
        for i, c1 in enumerate(p1):
            for j, c2 in enumerate(p2):
                total = total + c1 * c2 * self._moments[i + j]
        return total

    def affine(self, alpha, beta) -> "MomentFunctional":
        """Functional of x -> alpha x + beta: mu'_m = L((alpha x + beta)^m)."""
        n = len(self._moments)
        a_pows, b_pows = [1], [1]
        for _ in range(1, n):
            a_pows.append(a_pows[-1] * alpha)
            b_pows.append(b_pows[-1] * beta)
        out = []
        for m in range(n):
            acc = 0
            for k in range(m + 1):
                if b_pows[m - k] != 0:  # beta = 0 keeps only k = m
                    acc = acc + math.comb(m, k) * a_pows[k] * b_pows[m - k] * self._moments[k]
            out.append(acc)
        return MomentFunctional(out)


def calibrate_affine(
    functional: MomentFunctional, p1: Sequence, p2: Sequence
) -> tuple[object, object]:
    """Affine map x -> alpha x + beta with L(p1(x')) = L(p2(x')) = 0.

    p1 must have degree 1 and p2 degree 2 (ascending coefficients).  Solves
    for the first two moments U = L(x'), V = L(x'^2) of the mapped variable,
    then alpha^2 = (V - U^2/mu0) / (mu2 - mu1^2/mu0) and
    beta = (U - alpha mu1)/mu0, taking the positive root.
    """
    if len(p1) != 2 or p1[1] == 0:
        raise CalibrationError("p1 must have exact degree 1")
    if len(p2) != 3 or p2[2] == 0:
        raise CalibrationError("p2 must have exact degree 2")
    mu0 = functional.moment(0)
    mu1 = functional.moment(1)
    mu2 = functional.moment(2)
    if mu0 == 0:
        raise CalibrationError("mu_0 = 0: functional not normalizable")
    u = -p1[0] * mu0 / p1[1]
    v = -(p2[0] * mu0 + p2[1] * u) / p2[2]
    denom = mu2 - mu1 * mu1 / mu0
    if denom == 0:
        raise CalibrationError("moment variance vanishes, no affine map exists")
    alpha_sq = (v - u * u / mu0) / denom
    if not alpha_sq > 0:
        raise CalibrationError(
            f"alpha^2 = {float(alpha_sq):.6g} <= 0: no real affine calibration"
        )
    alpha = alpha_sq.sqrt() if isinstance(alpha_sq, GoldenNumber) else math.sqrt(alpha_sq)
    beta = (u - alpha * mu1) / mu0
    return alpha, beta


@dataclass(frozen=True)
class BergReport:
    """Calibrated Gram table of the reciprocal-Fibonacci moment functional."""

    n_max: int
    alpha: float
    beta: float
    normalized_off_diagonal: tuple[tuple[float, ...], ...]  # rows m, entries n > m
    diagonal: tuple[float, ...]
    max_off_diagonal: float
    diagonal_positive: bool

    def passes(self, tol: float) -> bool:
        return self.diagonal_positive and self.max_off_diagonal < tol

    def to_dict(self) -> dict:
        return {
            "convention": "classical",
            "n_max": self.n_max,
            "alpha": self.alpha,
            "beta": self.beta,
            "normalized_off_diagonal": [list(r) for r in self.normalized_off_diagonal],
            "diagonal": list(self.diagonal),
            "max_off_diagonal": self.max_off_diagonal,
            "diagonal_positive": self.diagonal_positive,
        }


def berg_orthogonality(n_max: int = 6) -> BergReport:
    """Gram table L(p_m p_n) of golden-base little q-Jacobi polynomials.

    Moments are the exact classical reciprocal Fibonacci numbers
    (berg_moment_classical) and the polynomials have the exact base
    GOLDEN_Q_EXACT, so everything runs in Q(sqrt 5) (GoldenNumber): the
    affine map x -> alpha x + beta is calibrated from L(p_1) = L(p_2) = 0,
    then the table is formed, and each zero and each sign is decided
    exactly.  Floats appear only in the report.  Off-diagonal entries are
    reported normalized by sqrt(L(p_m^2) L(p_n^2)).
    """
    if not (1 <= n_max <= 16):
        raise ParameterDomainError(f"n_max must be in 1..16, got {n_max}")
    q = GOLDEN_Q_EXACT
    base = MomentFunctional([berg_moment_classical(k) for k in range(2 * n_max + 1)])
    # the calibration needs p_1 and p_2 even when the table stops at n_max = 1
    polys = [qseries.little_q_jacobi_coeffs(n, q, 1, q) for n in range(max(n_max, 2) + 1)]
    alpha, beta = calibrate_affine(base, polys[1], polys[2])
    cal = base.affine(alpha, beta)
    mu = [cal.moment(k) for k in range(len(cal))]

    # gram[n][m] = L(p_m p_n) for m <= n, as sum_k c_{m,k} L(x^k p_n)
    gram = []
    for n in range(n_max + 1):
        x_moments = [sum(c * mu[k + j] for j, c in enumerate(polys[n])) for k in range(n + 1)]
        gram.append([sum(c * x for c, x in zip(polys[m], x_moments)) for m in range(n + 1)])
    diag = [gram[m][m] for m in range(n_max + 1)]
    diagonal_positive = all(d > 0 for d in diag)
    scale = [math.sqrt(float(d)) if diagonal_positive else 1.0 for d in diag]
    rows = tuple(
        tuple(abs(float(gram[n][m])) / (scale[m] * scale[n]) for n in range(m + 1, n_max + 1))
        for m in range(n_max + 1)
    )
    diagonal = tuple(float(d) for d in diag)
    max_off = max((v for row in rows for v in row), default=0.0)
    return BergReport(n_max, float(alpha), float(beta), rows, diagonal, max_off, diagonal_positive)
