"""Annihilation-operator eigenstates (Barut-Girardello construction).

The state |z> has coefficients c_n proportional to z^n / prod_{k<n} sqrt(2) b_k
in the orthonormal polynomial basis, and squared norm

    N(|z|^2) = sum_n |z|^{2n} / prod_{k<n} (2 b_k^2).

For families whose b_n decay (the golden family does, like q^n) this series
diverges for every |z| > 0; the truncated state is still well defined as the
normalized finite section, and the eigenvector relation a-|z> = z|z> holds on
interior coordinates by construction.  Coefficients are therefore assembled in
log space: the partial normalization sum may overflow to inf while its log
companion and the normalized coefficients stay finite.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import oscillator, qseries
from .errors import (
    DimensionError,
    ParameterDomainError,
    TruncationError,
    ZeroCoefficientError,
)
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


def normalization(
    seq: CoefficientSequence, r2: float, tol: float = 1e-12, max_terms: int = 10000
) -> float:
    """N(r2) = sum_n r2^n / prod_{k<n} 2 b_k^2 for a convergent series.

    The term ratios r2 / (2 b_m^2) of its first max_terms terms go to
    qseries.sum_ratio_series, whose stopping rule and DivergenceError every
    series of the package shares.  A partial sum at a fixed depth is the
    norm_constant of make_state(seq, sqrt(r2), depth, strict=False).
    """
    if not 0.0 <= r2 < math.inf:
        raise ParameterDomainError(f"r2 must be finite and >= 0, got {r2}")
    if r2 == 0.0:
        return 1.0

    def ratios():
        for m in range(1, max_terms):
            denom = 2.0 * seq.b_squared(m - 1)
            if denom == 0.0:
                raise ZeroCoefficientError(f"b_{m - 1} = 0: term {m} undefined")
            yield r2 / denom

    return qseries.sum_ratio_series(ratios(), tol).value


@dataclass(frozen=True, eq=False)
class CoherentState:
    """Normalized truncated eigenstate of the annihilation operator.

    norm_constant is the partial normalization sum over the kept levels (inf
    if it overflows; log_norm_constant is always finite).  tail_bound is a
    geometric estimate of the discarded coefficient mass sum_{n>=dim} |c_n|^2,
    inf when the underlying series diverges (convergent = False), in which
    case the state is the exact normalized finite section.
    """

    z: complex
    dim: int
    coeffs: np.ndarray
    norm_constant: float
    log_norm_constant: float
    tail_bound: float
    convergent: bool


_EDGE_SAMPLE = 32  # ratios checked past the truncation edge for the tail bound


def make_state(
    seq: CoefficientSequence,
    z: complex,
    dim: int,
    tol: float = 1e-12,
    strict: bool = True,
) -> CoherentState:
    """Build |z> truncated at `dim` levels.

    In the convergent regime a tail_bound above tol raises TruncationError
    carrying a suggested dimension, None if no finite one meets tol (unless
    strict=False, which returns the state flagged instead).  In the divergent
    regime no truncation error is possible: every finite section is exact.
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

    # log |t_n| for unnormalized amplitudes t_n = |z|^n / prod_{k<n} sqrt2 b_k
    logs = np.empty(dim)
    logs[0] = 0.0
    log_r = math.log(abs(z))
    acc = 0.0
    for n in range(1, dim):
        step = _SQRT2 * seq.b(n - 1)
        if step == 0.0:
            raise ZeroCoefficientError(
                f"b_{n - 1} = 0: levels above {n - 1} are unreachable"
            )
        acc += math.log(step)
        logs[n] = n * log_r - acc

    shift = float(logs.max())
    scaled = np.exp(logs - shift)  # amplitude scale, max entry 1
    sum_sq = float(np.dot(scaled, scaled))
    phase = z / abs(z)
    coeffs = (scaled / math.sqrt(sum_sq)) * phase ** np.arange(dim)

    log_norm = 2.0 * shift + math.log(sum_sq)
    try:
        norm_constant = math.exp(log_norm)
    except OverflowError:
        norm_constant = math.inf

    # squared-amplitude ratios t_{k+1}^2 / t_k^2 = r2 / (2 b_k^2) past the edge
    ratios = []
    for k in range(dim - 1, dim - 1 + _EDGE_SAMPLE):
        b_sq = seq.b_squared(k)
        if b_sq == 0.0:
            raise ZeroCoefficientError(f"b_{k} = 0: the tail past level {dim - 1} is undefined")
        ratios.append(r2 / (2.0 * b_sq))
    rho = max(ratios)
    if rho >= 1.0:
        return CoherentState(z, dim, coeffs, norm_constant, log_norm, math.inf, False)

    edge_sq = float(scaled[dim - 1] ** 2)  # t_{dim-1}^2 / e^{2 shift}
    tail_scaled = edge_sq * ratios[0] / (1.0 - rho)
    tail_bound = tail_scaled / (sum_sq + tail_scaled)
    if strict and tail_bound > tol:
        # extra levels needed for the geometric tail to drop below tol; no
        # finite dimension reaches tol = 0
        target = tol * sum_sq * (1.0 - rho) / (edge_sq * ratios[0])
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
    n = np.arange(state.dim - 1)
    b_vals = np.array([seq.b(k) for k in n])
    resid = _SQRT2 * b_vals * v[1:] - state.z * v[:-1]
    return float(np.linalg.norm(resid))


def uncertainty(
    state: CoherentState, seq: CoefficientSequence
) -> tuple[float, float, float]:
    """(dX, dP, bound) in the truncated representation, bound = |<[X,P]>|/2."""
    ops = oscillator.build_operators(seq, state.dim)
    v = state.coeffs
    xv = ops.x.matvec(v)
    pv = ops.p.matvec(v)
    mean_x = float(np.vdot(v, xv).real)
    mean_p = float(np.vdot(v, pv).real)
    var_x = float(np.vdot(xv, xv).real) - mean_x**2
    var_p = float(np.vdot(pv, pv).real) - mean_p**2
    comm = np.vdot(v, ops.x.matvec(pv)) - np.vdot(v, ops.p.matvec(xv))
    bound = 0.5 * abs(comm)
    return math.sqrt(max(var_x, 0.0)), math.sqrt(max(var_p, 0.0)), float(bound)


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
