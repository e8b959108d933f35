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
from itertools import chain, cycle, islice, repeat
from typing import Callable, Iterable, Iterator

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


def _monic_pairs(p: QParams, ns: range) -> Iterator[tuple[float, float]]:
    """(A_n, C_n) for n in ns, in order, raising at the first n that cannot be formed.

    q^n and 1 - ab q^(2n) carry over from the previous index, so each power
    of q comes from Python's ** once: q^(n+1), q^(2n+1) and q^(2n+2).
    """
    a, b, q = p.a, p.b, p.q
    ab = a * b
    q_n = q**ns.start
    d0 = 1.0 - ab * q ** (2 * ns.start)  # 1 - ab q^(2n)
    for n in ns:
        q_n1 = q ** (n + 1)
        d1 = 1.0 - ab * q ** (2 * n + 1)
        d2 = 1.0 - ab * q ** (2 * n + 2)
        if d1 == 0.0 or d2 == 0.0 or (n and d0 == 0.0):
            factor = "2n+1" if d1 == 0.0 else "2n+2" if d2 == 0.0 else "2n"
            raise DegenerateParameterError(
                f"degenerate parameters: 1 - a*b*q^({factor}) vanishes at n={n}"
            )
        den_a, den_c = d1 * d2, d0 * d1
        A_n = q_n * (1.0 - a * q_n1) * (1.0 - ab * q_n1) / den_a
        # C_0 multiplies p_{-1} = 0; its closed form is 0/0 at ab = 1 (q-Legendre)
        C_n = a * q_n * (1.0 - q_n) * (1.0 - b * q_n) / den_c if n else 0.0
        if not (math.isfinite(A_n) and math.isfinite(C_n)):
            raise ParameterDomainError(
                f"little q-Jacobi A_{n}, C_{n} overflow a float at a={a}, b={b}, q={q}"
            )
        # a finite numerator over an infinite denominator rounds A_n or C_n to 0
        if not (math.isfinite(den_a) and (not n or math.isfinite(den_c))):
            raise ParameterDomainError(
                f"little q-Jacobi denominators (1 - a*b*q^k) overflow a float "
                f"at n={n}, a={a}, b={b}, q={q}"
            )
        yield A_n, C_n
        q_n, d0 = q_n1, d2


def little_q_jacobi_monic_coeffs(p: QParams, n: int) -> tuple[float, float]:
    """Return (A_n, C_n) of the monic-form little q-Jacobi recurrence.

    The one-index case of the pair generator the q-families fill from.
    """
    if n < 0:
        raise ParameterDomainError(f"n must be >= 0, got {n}")
    return next(_monic_pairs(p, range(n, n + 1)))


class CoefficientSequence:
    """Recurrence coefficients a_n, b_n of one family instance.

    a_fn and b_fn map a range of indices to an iterator over its values in
    index order, which raises at the first index whose value cannot be formed.
    Each coefficient is kept in a list that a read extends from that iterator;
    the extension keeps the values yielded before an error, so every index is
    evaluated once, reads below a failing index succeed and reads at or above
    it raise the lowest failing index's error.
    radius_sq is R^2 = lim 2 b_n^2, the radius of convergence in |z|^2 of the
    coherent-state norm series sum_n |z|^{2n} / prod_{k<n} 2 b_k^2; NaN when
    the family does not state it.
    """

    def __init__(
        self,
        family_id: str,
        params: dict,
        a_fn: Callable[[range], Iterable[float]],
        b_fn: Callable[[range], Iterable[float]],
        radius_sq: float = math.nan,
    ):
        self.family_id = family_id
        self.params = dict(params)
        self.radius_sq = radius_sq
        self._a_fn = a_fn
        self._b_fn = b_fn
        self._a_vals: list[float] = []
        self._b_vals: list[float] = []

    def a(self, n: int) -> float:
        if n < 0:
            raise ParameterDomainError(f"a(n) requires n >= 0, got {n}")
        vals = self._a_vals
        if len(vals) <= n:
            vals.extend(self._a_fn(range(len(vals), n + 1)))
        return vals[n]

    def b(self, n: int) -> float:
        if n == -1:
            return 0.0
        if n < -1:
            raise ParameterDomainError(f"b(n) requires n >= -1, got {n}")
        vals = self._b_vals
        if len(vals) <= n:
            vals.extend(self._b_fn(range(len(vals), n + 1)))
        return vals[n]

    def a_values(self, count: int) -> list[float]:
        """[a_0, ..., a_{count-1}], evaluated through a(count - 1)."""
        return self._values(self.a, self._a_vals, count)

    def b_values(self, count: int) -> list[float]:
        """[b_0, ..., b_{count-1}], evaluated through b(count - 1)."""
        return self._values(self.b, self._b_vals, count)

    @staticmethod
    def _values(read: Callable[[int], float], vals: list[float], count: int) -> list[float]:
        if count < 0:
            raise ParameterDomainError(f"count must be >= 0, got {count}")
        if count:
            read(count - 1)
        return vals[:count]

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
    """Wrap raw callables n -> value as a sequence (no positivity check, for tests and fits).

    Each callable is asked for one index per call, in index order and only up
    to the index read, so an error it raises at some n surfaces on the read of
    n and never earlier, and the values below n are kept.  Its
    radius of convergence R^2 is unknown (NaN), so make_state treats its
    coherent states as divergent: the exact normalized finite section.
    """
    if a_fn is None:
        a_fn = lambda n: 0.0
    return CoefficientSequence(
        family_id,
        params or {},
        lambda ns: (float(a_fn(n)) for n in ns),
        lambda ns: (float(b_fn(n)) for n in ns),
    )


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


# Each family states R^2 = lim 2 b_n^2 next to its b_n: inf where b_n grows,
# 1/2 where b_n -> 1/2, and 0 for the q-families, whose b_n decay like |q|^n.


def _zeros(ns: range) -> Iterator[float]:
    return repeat(0.0, len(ns))


def _harmonic() -> CoefficientSequence:
    return CoefficientSequence(
        "harmonic",
        {},
        _zeros,
        lambda ns: (math.sqrt((n + 1) / 2.0) for n in ns),
        radius_sq=math.inf,
    )


def _chebyshev_t() -> CoefficientSequence:
    return CoefficientSequence(
        "chebyshev-t",
        {},
        _zeros,
        lambda ns: (1.0 / math.sqrt(2.0) if n == 0 else 0.5 for n in ns),
        radius_sq=0.5,
    )


def _chebyshev_u() -> CoefficientSequence:
    return CoefficientSequence(
        "chebyshev-u", {}, _zeros, lambda ns: repeat(0.5, len(ns)), radius_sq=0.5
    )


def _laguerre(alpha: float = 0.0) -> CoefficientSequence:
    if not (alpha > -1.0):
        raise ParameterDomainError(f"laguerre requires alpha > -1, got {alpha}")

    # X^2 and the other operator products square a_n, so a_n^2 must be finite too
    def a_fn(ns: range) -> Iterator[float]:
        for n in ns:
            a_n = 2.0 * n + alpha + 1.0
            if not math.isfinite(a_n * a_n):
                raise ParameterDomainError(
                    f"laguerre a_{n}^2 = (2n+alpha+1)^2 overflows a float at alpha={alpha}, n={n}"
                )
            yield a_n

    def b_fn(ns: range) -> Iterator[float]:
        for n in ns:
            b_sq = (n + 1.0) * (n + alpha + 1.0)
            if not math.isfinite(b_sq):
                raise ParameterDomainError(
                    f"laguerre b_{n}^2 = (n+1)(n+alpha+1) overflows a float at alpha={alpha}, n={n}"
                )
            yield math.sqrt(b_sq)

    return CoefficientSequence("laguerre", {"alpha": alpha}, a_fn, b_fn, radius_sq=math.inf)


def _first_zero_power(q: float) -> int:
    """The least n with q**n == 0.0, for 0 < |q| < 1: doubling, then bisection."""
    hi = 1
    while q**hi != 0.0:
        hi *= 2
    lo = hi // 2 + 1  # q**(hi // 2) != 0.0, and |q|^n falls with n
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if q**mid == 0.0 else (mid + 1, hi)
    return lo


def _little_q_jacobi_seq(
    p: QParams, family_id: str, params: dict, scale: float = 1.0
) -> CoefficientSequence:
    A: list[float] = []  # monic-form (A_n, C_n), each index evaluated once, in order
    C: list[float] = []
    # n0 + 2 for n0 the least n with q**n == 0.0.  From n0 on, every power of q
    # the pairs take is a signed zero of the parity of n and every 1 - (...) q^k
    # factor is 1.0, so pair n, a_n and b_n equal their values at
    # n0 + (n - n0) % 2 bit for bit, and the checks that passed there pass at
    # every later n: only pairs 0 .. n0 + 1 are evaluated.
    tail = _first_zero_power(p.q) + 2

    def pairs(ns: range) -> Iterator[tuple[float, float]]:
        # needs ns.start <= len(A) and ns.stop <= tail + 1, which hold for every
        # head read: a stored a_n below the tail implies pair n was stored, a
        # stored b_n pair n + 1, and b_{n0+1} takes pair n0 + 2 = pair n0
        stop = min(ns.stop, tail)
        yield from zip(A[ns.start : stop], C[ns.start : stop])
        for A_n, C_n in _monic_pairs(p, range(len(A), stop)):
            A.append(A_n)
            C.append(C_n)
            yield A_n, C_n
        if stop < ns.stop:
            yield A[tail - 2], C[tail - 2]

    def with_tail(head: Callable[[range], Iterator[float]]) -> Callable[[range], Iterable[float]]:
        # head evaluates the indices below the tail; the rest repeat head's
        # values at n0 and n0 + 1, chained lazily once head is exhausted
        def fill(ns: range) -> Iterable[float]:
            if ns.stop <= tail:
                return head(ns)

            def parts() -> Iterator[Iterable[float]]:
                if ns.start < tail:
                    yield head(range(ns.start, tail))
                start = max(ns.start, tail)
                skip = (start - tail) % 2
                yield islice(cycle(list(head(range(tail - 2, tail)))), skip, skip + ns.stop - start)

            return chain.from_iterable(parts())

        return fill

    def a_head(ns: range) -> Iterator[float]:
        for n, (A_n, C_n) in enumerate(pairs(ns), ns.start):
            a_n = scale * (A_n + C_n)
            if not math.isfinite(a_n * a_n):
                raise ParameterDomainError(
                    f"{family_id} a_{n}^2 overflows a float at a={p.a}, b={p.b}, q={p.q}"
                )
            yield a_n

    def b_head(ns: range) -> Iterator[float]:
        pair_iter = pairs(range(ns.start, ns.stop + 1))  # b_n = sqrt(A_n C_{n+1})
        A_n = next(pair_iter)[0]
        for n, (A_next, C_next) in enumerate(pair_iter, ns.start):
            b_sq = A_n * C_next
            if not 0.0 <= b_sq < math.inf:
                if b_sq < 0.0:
                    raise NonPositiveDefiniteError(
                        f"A_{n}*C_{n + 1} = {b_sq} < 0: parameters do not define a real oscillator"
                    )
                raise ParameterDomainError(
                    f"{family_id} b_{n}^2 overflows a float at a={p.a}, b={p.b}, q={p.q}"
                )
            yield scale * math.sqrt(b_sq)
            A_n = A_next

    return CoefficientSequence(
        family_id, params, with_tail(a_head), with_tail(b_head), radius_sq=0.0
    )


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
