"""Annihilation-operator eigenstates (Barut-Girardello construction).

The state |z> has coefficients c_n proportional to z^n / prod_{k<n} sqrt(2) b_k
in the orthonormal polynomial basis, and squared norm

    N(|z|^2) = sum_n |z|^{2n} / prod_{k<n} (2 b_k^2).

It converges exactly when |z|^2 < R^2 = lim 2 b_n^2, the radius each family
states as CoefficientSequence.radius_sq.  For the q-families, whose b_n decay
like |q|^n, R^2 = 0 and the series diverges for every |z| > 0; the truncated
state is still well defined as the normalized finite section, and the
eigenvector relation a-|z> = z|z> holds on interior coordinates by
construction.  Coefficients are therefore assembled in log space: the partial
normalization sum may overflow to inf while its log companion and the
normalized coefficients stay finite.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import qseries
from .errors import (
    DefoscError,
    DimensionError,
    ParameterDomainError,
    TruncationError,
    ZeroCoefficientError,
)
from .oscillator import _xp_products
from .recurrence import CoefficientSequence

__all__ = [
    "CoherentState",
    "normalization",
    "make_state",
    "eigen_residual",
    "uncertainty",
    "state_to_dict",
]

_SQRT2 = math.sqrt(2.0)
_B_MAX = sys.float_info.max / _SQRT2  # the largest b with sqrt(2) b finite
_NORMALIZATION_TOL = 1e-12
_NORMALIZATION_MAX_TERMS = 10000


def normalization(seq: CoefficientSequence, r2: float) -> float:
    """N(r2) = sum_n r2^n / prod_{k<n} 2 b_k^2 for a convergent series.

    The term ratios r2 / (2 b_m^2) of its first 10000 terms go to
    qseries.sum_ratio_series, whose stopping rule and DivergenceError every
    series of the package shares.  A partial sum at a fixed depth is the
    norm_constant of make_state(seq, sqrt(r2), depth, strict=False).
    """
    if not 0.0 <= r2 < math.inf:
        raise ParameterDomainError(f"r2 must be finite and >= 0, got {r2}")
    if r2 == 0.0:
        return 1.0

    def ratios():
        for m in range(1, _NORMALIZATION_MAX_TERMS):
            denom = 2.0 * seq.b_squared(m - 1)
            if denom == 0.0:
                raise ZeroCoefficientError(f"b_{m - 1} = 0: term {m} undefined")
            yield r2 / denom

    return qseries.sum_ratio_series(ratios(), _NORMALIZATION_TOL).value


@dataclass(frozen=True, eq=False)
class CoherentState:
    """Normalized truncated eigenstate of the annihilation operator.

    norm_constant is the partial normalization sum over the kept levels (inf
    if it overflows; log_norm_constant is always finite).  convergent is
    |z|^2 < R^2 (or z = 0).  tail_bound bounds the discarded coefficient mass
    sum_{n>=dim} |c_n|^2: geometric from the edge ratio, the trivial 1.0 when
    that ratio is >= 1, and inf when the series diverges, in which case the
    state is the exact normalized finite section.
    """

    z: complex
    dim: int
    coeffs: np.ndarray
    norm_constant: float
    log_norm_constant: float
    tail_bound: float
    convergent: bool


def _check_level(k: int, b_k: float) -> None:
    """Raise for a b_k from which no level above k can be built."""
    if b_k == 0.0:
        raise ZeroCoefficientError(
            f"b_{k} = 0 in double precision (a true zero or an underflow): "
            f"levels above {k} are unreachable"
        )
    if not 0.0 < b_k <= _B_MAX:
        raise ParameterDomainError(
            f"b_{k} = {b_k!r} is outside the canonical gauge b_n >= 0 "
            "with sqrt(2) b_n finite"
        )


def make_state(
    seq: CoefficientSequence,
    z: complex,
    dim: int,
    tol: float = 1e-12,
    strict: bool = True,
) -> CoherentState:
    """Build |z> truncated at `dim` levels.

    Convergent means |z|^2 < seq.radius_sq, never for custom_sequence (NaN).
    There a tail_bound above tol raises TruncationError carrying a suggested
    dimension, None if the edge bound gives no finite one (unless strict=False,
    which returns the state flagged instead).  In the divergent regime no
    truncation error is possible: every finite section is exact.  Reads
    b_0..b_{dim-2} in doubling windows, scanning only each window's new levels
    and stopping at the first that holds a bad b_k, and b_{dim-1} only when
    convergent.  The first bad b_k raises even where a higher index in its
    window fails: ZeroCoefficientError for 0.0, ParameterDomainError for a
    negative, NaN or infinite b_k (or one whose sqrt(2) b_k overflows), since
    the canonical gauge has b_n >= 0.  Levels whose amplitude underflows are
    exact 0j: the phase is raised only over the window of nonzero amplitudes.
    """
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")
    if not 0.0 <= tol < math.inf:
        raise ParameterDomainError(f"tol must be finite and >= 0, got {tol}")
    z = complex(z)
    if not cmath.isfinite(z):
        raise ParameterDomainError(f"z must be finite, got {z}")
    try:
        r2 = abs(z) ** 2
    except OverflowError:
        raise ParameterDomainError(f"|z|^2 overflows a double, got z={z}") from None

    if r2 == 0.0:
        coeffs = np.zeros(dim, dtype=complex)
        coeffs[0] = 1.0
        return CoherentState(z, dim, coeffs, 1.0, 0.0, 0.0, True)

    # b_0 .. b_{dim-2} in doubling windows, each checked only on its new levels
    # before the next is read.  A q-family b_k can underflow to 0 a few hundred
    # levels in, below the index where its fill stops evaluating and copies
    # (golden: b_387 = 0, copies from 777); windows keep the levels evaluated
    # past the zero to about as many again.
    b = np.empty(dim - 1)
    count = 0
    while count < dim - 1:
        start, count = count, min(dim - 1, 2 * count + 64)
        try:
            new = np.fromiter(seq.b_values(count)[start:], float, count - start)
            good = new.min() > 0.0 and new.max() <= _B_MAX  # False on a NaN
        except DefoscError:
            good = False
        if not good:
            # the first bad b_k in the window raises; a read that failed kept the
            # values below its failing index, and reading that index again raises
            for k in range(start, count):
                _check_level(k, seq.b(k))
        b[start:count] = new

    # log |t_n| for unnormalized amplitudes t_n = |z|^n / prod_{k<n} sqrt2 b_k;
    # cumsum adds the logs in index order
    logs = np.empty(dim)
    logs[0] = 0.0
    logs[1:] = np.arange(1, dim) * math.log(abs(z)) - np.cumsum(np.log(_SQRT2 * b))

    shift = float(logs.max())
    scaled = np.exp(logs - shift)  # amplitude scale, max entry 1
    sum_sq = float(np.dot(scaled, scaled))
    amps = scaled / math.sqrt(sum_sq)
    # the phase (z/|z|)^n is raised only on the window [lo, hi) from the first to
    # the last amplitude that has not underflowed; levels outside it are exact 0j.
    # Writing through out= keeps numpy from reusing a large temporary in place,
    # whose loop gives an underflowed imaginary part another zero sign.
    kept = np.flatnonzero(amps)
    lo, hi = int(kept[0]), int(kept[-1]) + 1
    coeffs = np.zeros(dim, dtype=complex)
    np.multiply(amps[lo:hi], (z / abs(z)) ** np.arange(lo, hi), out=coeffs[lo:hi])

    log_norm = 2.0 * shift + math.log(sum_sq)
    try:
        norm_constant = math.exp(log_norm)
    except OverflowError:
        norm_constant = math.inf

    if not r2 < seq.radius_sq:
        return CoherentState(z, dim, coeffs, norm_constant, log_norm, math.inf, False)

    # 2 b_k^2 of a convergent family rises to R^2 (or is constant from k = 1), so
    # rho = t_dim^2 / t_{dim-1}^2 bounds every later ratio t_{k+1}^2 / t_k^2
    rho = r2 / (2.0 * seq.b_squared(dim - 1))
    edge_sq = float(scaled[dim - 1] ** 2)  # t_{dim-1}^2 / e^{2 shift}
    tail_bound = 1.0
    if rho < 1.0:
        tail_scaled = edge_sq * rho / (1.0 - rho)
        tail_bound = tail_scaled / (sum_sq + tail_scaled)
    if strict and tail_bound > tol:
        # levels until the geometric tail drops below tol; none if tol = 0 or rho >= 1
        target = tol * sum_sq * (1.0 - rho) / (edge_sq * rho) if rho < 1.0 else 0.0
        suggested = None
        if target > 0.0:
            suggested = dim + max(2, math.ceil(math.log(target) / math.log(rho)))
        raise TruncationError(
            f"tail bound {tail_bound:.3g} exceeds tol {tol:.3g} at dim {dim}",
            suggested_dim=suggested,
        )
    return CoherentState(z, dim, coeffs, norm_constant, log_norm, tail_bound, True)


def eigen_residual(state: CoherentState, seq: CoefficientSequence) -> float:
    """l2 norm of (a- v - z v) over the first dim-1 coordinates.

    The last coordinate is excluded: the truncation cannot know c_dim.
    """
    v = state.coeffs
    b_vals = np.fromiter(seq.b_values(state.dim - 1), float, state.dim - 1)
    resid = _SQRT2 * b_vals * v[1:] - state.z * v[:-1]
    return float(np.linalg.norm(resid))


def uncertainty(
    state: CoherentState, seq: CoefficientSequence
) -> tuple[float, float, float]:
    """(dX, dP, bound) in the truncated representation, bound = |<[X,P]>|/2.

    X v, P v, X (P v) and P (X v) come from the a_n and b_n vectors directly,
    with no operator object built; each is bit-identical to the matvec of
    build_operators(seq, state.dim).x or .p.
    """
    v = state.coeffs
    xv, pv, xpv, pxv = _xp_products(seq, v)
    mean_x = float(np.vdot(v, xv).real)
    mean_p = float(np.vdot(v, pv).real)
    # centred form: <X^2> - <X>^2 cancels catastrophically when a_n >> b_n
    cx, cp = xv - mean_x * v, pv - mean_p * v
    d_x, d_p = math.sqrt(np.vdot(cx, cx).real), math.sqrt(np.vdot(cp, cp).real)
    comm = np.vdot(v, xpv) - np.vdot(v, pxv)
    bound = 0.5 * abs(comm)
    return d_x, d_p, float(bound)


def state_to_dict(state: CoherentState, residual: float | None = None) -> dict:
    """JSON-ready view; non-finite floats become None."""

    def _num(x: float):
        return float(x) if math.isfinite(x) else None

    return {
        "z": [state.z.real, state.z.imag],
        "dim": state.dim,
        "coeffs": [[c.real, c.imag] for c in state.coeffs],
        "norm_constant": _num(state.norm_constant),
        "log_norm_constant": _num(state.log_norm_constant),
        "tail_bound": _num(state.tail_bound),
        "convergent": state.convergent,
        "residual": None if residual is None else float(residual),
    }
