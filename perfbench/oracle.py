"""Reference results built outside the library, and the seed-defect catalogue.

Every check returns None when the op's result is right and a failure label
otherwise.  Labels name the defect and the size class it shows in, so the
catalogue below can tell a defect already present at the seed from a new one.
Failures are counted either way; the catalogue only decides `correct`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

FINITE_FAMILIES = frozenset({"harmonic", "laguerre"})
Q_FAMILIES = frozenset({"little-q-jacobi", "fibonacci-golden", "ismail-theta"})
GOLDEN_Q = (1.0 - math.sqrt(5.0)) / (1.0 + math.sqrt(5.0))
THETA0 = math.asinh(0.5)

# Wrong answers the library gives at the seed commit, reproduced by this
# benchmark.  A run whose failures all carry one of these labels is `correct`;
# any other failure label makes it incorrect.
KNOWN_SEED_DEFECTS = {
    "verify_rejects_true_relations:laguerre:dim>=1024":
        "absolute tolerance on residuals that grow like eps*n*b_n",
    "verify_rejects_true_relations:harmonic:dim>=16384":
        "absolute tolerance on residuals that grow like eps*n*b_n",
    "make_state_zero_coefficient:little-q-jacobi:dim>=1024":
        "b_n underflows to 0.0 and is reported as an unreachable level",
    "make_state_zero_coefficient:ismail-theta:dim>=1024":
        "b_n underflows to 0.0 and is reported as an unreachable level",
    "make_state_zero_coefficient:fibonacci-golden:dim>387":
        "b_n underflows to 0.0 and is reported as an unreachable level",
    "state_called_divergent:harmonic:|z|^2>=dim":
        "convergence decided from a 32-term ratio window past the edge",
    "berg_not_orthogonal:n_max>=12":
        "Gram table fixed at 50 dps loses the cancellation (off-diagonal and diagonal sign)",
}


def _exc_label(kind: str, exc: BaseException) -> str:
    return f"{kind}_raised:{type(exc).__name__}"


# -- recurrence coefficients -----------------------------------------------------


def q_params(family: str, params: dict) -> tuple[float, float, float, float]:
    """(a, b, q, x-scale) of the little q-Jacobi form behind a q-family."""
    if family == "little-q-jacobi":
        return params["a"], params["b"], params["q"], 1.0
    if family == "fibonacci-golden":
        return GOLDEN_Q, 1.0, GOLDEN_Q, 1.0
    theta = params["theta"]
    alpha = int(params.get("alpha", 2))
    q = -math.exp(-2.0 * theta)
    return q ** (alpha - 1), 1.0, q, math.exp(-theta)


def log_b(family: str, params: dict, count: int) -> np.ndarray:
    """log b_n for n < count, in closed form and in the log domain.

    Working with logs keeps q-family coefficients finite where b_n itself
    underflows, so the reference knows every level is reachable.
    """
    n = np.arange(count, dtype=float)
    if family == "harmonic":
        return 0.5 * np.log((n + 1.0) / 2.0)
    if family == "chebyshev-u":
        return np.full(count, math.log(0.5))
    if family == "chebyshev-t":
        out = np.full(count, math.log(0.5))
        out[0] = -0.5 * math.log(2.0)
        return out
    if family == "laguerre":
        alpha = params["alpha"]
        return 0.5 * (np.log(n + 1.0) + np.log(n + alpha + 1.0))
    a, b, q, scale = q_params(family, params)
    ab = a * b

    def qp(e):  # q**e for integer-valued float arrays, sign kept
        sign = np.where((q < 0) & (np.mod(e, 2) == 1), -1.0, 1.0)
        return sign * np.exp(e * math.log(abs(q)))

    # b_n^2 = A_n C_{n+1}; the q^n q^(n+1) prefactors are kept as logs
    a_rest = (1 - a * qp(n + 1)) * (1 - ab * qp(n + 1)) / ((1 - ab * qp(2 * n + 1)) * (1 - ab * qp(2 * n + 2)))
    m = n + 1
    c_rest = a * (1 - qp(m)) * (1 - b * qp(m)) / ((1 - ab * qp(2 * m)) * (1 - ab * qp(2 * m + 1)))
    sign_pref = np.where((q < 0) & (np.mod(2 * n + 1, 2) == 1), -1.0, 1.0)
    prod = sign_pref * a_rest * c_rest
    if np.any(prod <= 0):
        raise ValueError(f"{family} {params}: not positive definite")
    return 0.5 * (np.log(prod) + (2 * n + 1) * math.log(abs(q))) + math.log(scale)


def radius_sq(family: str) -> float:
    """R^2 = lim 2 b_n^2: the squared radius of convergence of the state series."""
    if family in FINITE_FAMILIES:
        return math.inf
    if family in ("chebyshev-t", "chebyshev-u"):
        return 0.5
    return 0.0


# -- per-op checks -------------------------------------------------------------


def check_verify(family: str, dim: int, report, exc) -> str | None:
    if exc is not None:
        return _exc_label("verify", exc)
    if report.dim != dim:
        return "verify_wrong_dim"
    if not report.passed:
        # every registered family satisfies the relations exactly
        size = {"laguerre": 1024, "harmonic": 16384}.get(family)
        cls = f"dim>={size}" if size is not None and dim >= size else f"dim={dim}"
        return f"verify_rejects_true_relations:{family}:{cls}"
    return None


def check_classify(family: str, params: dict, result, exc) -> str | None:
    if exc is not None:
        return _exc_label("classify", exc)
    expected = "Finite" if family in FINITE_FAMILIES else "Infinite"
    if result.verdict != expected:
        return f"classify_wrong_verdict:{family}"
    if expected == "Finite":
        beta0, beta2 = (0.5, 0.0) if family == "harmonic" else (params["alpha"] + 1.0, 1.0)
        if abs(result.beta0 - beta0) > 1e-9 * max(1.0, beta0) or abs(result.beta2 - beta2) > 1e-9:
            return f"classify_wrong_beta:{family}"
    return None


def check_state(family: str, params: dict, z: complex, dim: int, out, exc) -> str | None:
    """make_state + eigen_residual + uncertainty against the closed-form state."""
    r2 = abs(z) ** 2
    if exc is not None:
        if type(exc).__name__ == "ZeroCoefficientError" and family in Q_FAMILIES:
            cls = "dim>387" if family == "fibonacci-golden" and dim > 387 else (
                "dim>=1024" if dim >= 1024 else f"dim={dim}")
            return f"make_state_zero_coefficient:{family}:{cls}"
        return _exc_label("state", exc)
    state, residual, (d_x, d_p, bound) = out
    truly_convergent = r2 < radius_sq(family)
    if state.convergent != truly_convergent:
        cls = "|z|^2>=dim" if family == "harmonic" and r2 >= dim else f"dim={dim}"
        called = "divergent" if truly_convergent else "convergent"
        return f"state_called_{called}:{family}:{cls}"

    extra = int(4 * r2) + 200 if truly_convergent and family == "harmonic" else 64
    lb = log_b(family, params, dim + extra)
    log_t = np.concatenate(([0.0], np.arange(1, dim + extra) * math.log(abs(z))
                            - np.cumsum(lb[: dim + extra - 1] + 0.5 * math.log(2.0))))
    kept = log_t[:dim]
    shift = kept.max()
    amp = np.exp(kept - shift)
    norm_sq = float(np.dot(amp, amp))
    ref = amp / math.sqrt(norm_sq) * (z / abs(z)) ** np.arange(dim)
    if np.max(np.abs(state.coeffs - ref)) > 1e-8:
        return f"state_coefficients_wrong:{family}"
    if abs(float(np.linalg.norm(state.coeffs)) - 1.0) > 1e-10:
        return f"state_not_normalized:{family}"

    b_vals = np.exp(lb[: dim - 1])
    ref_resid = float(np.linalg.norm(math.sqrt(2.0) * b_vals * state.coeffs[1:] - z * state.coeffs[:-1]))
    limit = 1e-8 * max(1.0, abs(z))
    if residual > limit or ref_resid > limit:
        return f"eigen_residual_above_bound:{family}"

    if truly_convergent:
        if family in ("chebyshev-t", "chebyshev-u"):
            edge = math.exp(2.0 * (log_t[dim] - shift))
            tail = edge / (1.0 - 2.0 * r2)
        else:
            beyond = np.exp(2.0 * (log_t[dim:] - shift))
            tail = float(beyond.sum())
        true_tail = tail / (norm_sq + tail)
        if state.tail_bound < true_tail * (1.0 - 1e-6):
            return f"tail_bound_below_true_tail:{family}"

    if d_x * d_p < bound - 1e-9 * max(1.0, bound):
        return f"uncertainty_below_robertson_bound:{family}"
    if family == "harmonic" and truly_convergent and state.tail_bound < 1e-13:
        # Glauber states saturate the bound at exactly 1/2
        if abs(d_x * d_p - 0.5) > 1e-6 or abs(bound - 0.5) > 1e-6:
            return "harmonic_state_not_minimum_uncertainty"
    return None


def b_squared_products(family: str, params: dict, count: int) -> np.ndarray:
    """prod_{k<m} 2 b_k^2 for m < count."""
    lb = log_b(family, params, max(count - 1, 1))
    logs = np.concatenate(([0.0], np.cumsum(2.0 * lb[: count - 1] + math.log(2.0))))
    return np.exp(logs)


def check_normalization_series(params: dict, r2: float, n_terms: int, value, exc) -> str | None:
    if exc is not None:
        return _exc_label("normalization_series", exc)
    denom = b_squared_products("little-q-jacobi", params, n_terms)
    ref = float(np.sum(r2 ** np.arange(n_terms) / denom))
    if abs(value - ref) > 1e-9 * abs(ref):
        return "normalization_series_wrong"
    return None


def _q_inf(x: mpmath.mpf, q: mpmath.mpf) -> mpmath.mpf:
    out, power = mpmath.mpf(1), mpmath.mpf(1)
    while abs(x * power) > mpmath.mpf(10) ** -30:
        out *= 1 - x * power
        power *= q
    return out


def check_phi_10(a: float, q: float, z: float, result, exc) -> str | None:
    """q-binomial theorem: 1phi0(a; -; q, z) = (az; q)_inf / (z; q)_inf."""
    if exc is not None:
        return _exc_label("hypergeometric", exc)
    with mpmath.workdps(40):
        qa, qq, qz = mpmath.mpf(a), mpmath.mpf(q), mpmath.mpf(z)
        ref = float(_q_inf(qa * qz, qq) / _q_inf(qz, qq))
    if abs(result.value - ref) > 1e-11 * max(1.0, abs(ref)):
        return "phi10_wrong"
    return None


def check_phi_21(a: float, b: float, c: float, q: float, result, exc) -> str | None:
    """q-Gauss sum: 2phi1(a, b; c; q, c/ab) = (c/a, c/b; q)_inf / (c, c/ab; q)_inf."""
    if exc is not None:
        return _exc_label("hypergeometric", exc)
    with mpmath.workdps(40):
        qa, qb, qc, qq = (mpmath.mpf(v) for v in (a, b, c, q))
        ref = float(_q_inf(qc / qa, qq) * _q_inf(qc / qb, qq) / (_q_inf(qc, qq) * _q_inf(qc / (qa * qb), qq)))
    if abs(result.value - ref) > 1e-11 * max(1.0, abs(ref)):
        return "phi21_wrong"
    return None


# -- exact arithmetic ---------------------------------------------------------------

_PRIMES = (1_000_000_007, 998_244_353)
_LOG2_PHI = math.log2((1.0 + math.sqrt(5.0)) / 2.0)


def _fib_mod(k: int, p: int) -> int:
    """Classical F_k mod p by 2x2 matrix powers."""
    result = (1, 0, 0, 1)
    base = (1, 1, 1, 0)
    while k:
        if k & 1:
            a, b, c, d = result
            e, f, g, h = base
            result = ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)
        e, f, g, h = base
        base = ((e * e + f * g) % p, (e * f + f * h) % p, (g * e + h * g) % p, (g * f + h * h) % p)
        k >>= 1
    return result[1]


def check_fib(n: int, value, exc) -> str | None:
    """fib(n) = F_{n+1} (classical): residues mod two primes and the bit length."""
    if exc is not None:
        return _exc_label("fib", exc)
    for p in _PRIMES:
        if value % p != _fib_mod(n + 1, p):
            return "fib_wrong_residue"
    expected_bits = (n + 1) * _LOG2_PHI - 0.5 * math.log2(5.0)
    if abs(value.bit_length() - expected_bits) > 2:
        return "fib_wrong_size"
    return None


def _classical_fibs(count: int) -> list[int]:
    out = [0, 1]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out


def check_filbert(n: int, row: int, out, exc) -> str | None:
    """Filbert x inverse = I in Fraction, integer inverse, one row re-multiplied here."""
    if exc is not None:
        return _exc_label("filbert", exc)
    inverse, product = out
    if any(product[i][j] != (1 if i == j else 0) for i in range(n) for j in range(n)):
        return "filbert_product_not_identity"
    if any(Fraction(v).denominator != 1 for r in inverse for v in r):
        return "filbert_inverse_not_integer"
    fibs = _classical_fibs(2 * n + 3)
    filbert_row = [Fraction(1, fibs[row + j + 1]) for j in range(1, n + 1)]
    for col in range(n):
        value = sum(filbert_row[k] * inverse[k][col] for k in range(n))
        if value != (1 if col == row - 1 else 0):
            return "filbert_inverse_wrong_row"
    return None


def check_berg(n_max: int, report, exc) -> str | None:
    if exc is not None:
        return _exc_label("berg", exc)
    # the true Gram table is diagonal with a positive diagonal
    if not (report.passes(1e-8) and all(d > 0 for d in report.diagonal)):
        cls = "n_max>=12" if n_max >= 12 else f"n_max={n_max}"
        return f"berg_not_orthogonal:{cls}"
    return None


def check_nu(n: int, alpha: int, theta: float, K: int, result, exc) -> str | None:
    """Closed form, exact truncation and tail bound of the nu-measure moment."""
    if exc is not None:
        return _exc_label("nu_moments", exc)
    with mpmath.workdps(60):
        q = -mpmath.exp(-2 * mpmath.mpf(theta))
        e_nt = mpmath.exp(-n * mpmath.mpf(theta))
        mass = 1 - q**alpha
        step = q ** (alpha + n)
        closed = mass * e_nt / (1 - step)
        truncated = closed * (1 - step**K)
        tail = abs(mass) * e_nt * abs(q) ** ((alpha + n) * K) / (1 - abs(q) ** (alpha + n))
        closed, truncated, tail = float(closed), float(truncated), float(tail)
    if not result.within_bound:
        return "nu_outside_tail_bound"
    if abs(result.closed_form - closed) > 1e-13 * abs(closed):
        return "nu_wrong_closed_form"
    if abs(result.truncated - truncated) > 1e-13 * abs(closed):
        return "nu_wrong_truncation"
    if abs(result.tail_bound - tail) > 1e-9 * tail:
        return "nu_wrong_tail_bound"
    return None


def check_ismail(theta: float, n: int, value, exc) -> str | None:
    if exc is not None:
        return _exc_label("ismail_fib", exc)
    with mpmath.workdps(40):
        t = mpmath.mpf(theta)
        q = -mpmath.exp(-2 * t)
        ref = float(mpmath.exp((n - 1) * t) * (1 - q**n) / (1 - q))
    if abs(value - ref) > 1e-12 * abs(ref):
        return "ismail_wrong_value"
    if theta == THETA0 and abs(value - _classical_fibs(n + 1)[n]) > 1e-12 * value:
        return "ismail_theta0_not_fibonacci"
    return None
