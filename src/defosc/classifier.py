"""Dimension classification of the oscillator algebra from b_n^2.

The algebra generated by {a+, a-, N, I} closes at dimension 4 exactly when
b_n^2 = (beta0 + beta2 n)(1 + n) for constants beta0, beta2; otherwise it is
infinite dimensional.  The decision procedure fits (beta0, beta2) from
n = 0, 1 and verifies the factored form over n <= n_max.  Iterated forward
differences of b_n^2 are computed as diagnostic output: row j of the table
is constant for every quadratic, so the smallest non-constant row witnesses
a non-quadratic sequence.

Every tolerance is relative to one scale S = max_{n <= n_max} b_n^2, the
largest b_n^2 in the window.  The factored form is unchanged by
b_n^2 -> c b_n^2, and so is every verdict.  The window is read once per
call; when every b_n^2 in it is 0.0 there is nothing to classify.

Verdicts are "up to n_max": a sequence that departs from the factored form
only beyond the tested range is reported Finite.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import ParameterDomainError, ZeroCoefficientError, _count
from .recurrence import CoefficientSequence

__all__ = [
    "FINITE",
    "INFINITE",
    "INCONCLUSIVE",
    "DifferenceTable",
    "ClassificationResult",
    "difference_table",
    "fit_beta",
    "classify",
]

FINITE = "Finite"
INFINITE = "Infinite"
INCONCLUSIVE = "Inconclusive"

# Rounding bound on the spread of row j, over S.  A b_n^2 formed as (sqrt x)^2
# has relative error |dx| + 3u (u = eps/2: u from the root, doubled by the
# square, u from the product), where dx is the family's own rounding of x;
# 4 eps covers dx up to 5u, so each b_n^2 is off by at most 4 eps S.  Row j is
# the (j+1)-th difference of b_n^2 (b_{-1} = 0 is exact), so its entries are
# off by at most 2^(j+1) times that, and max - min of a quadratic's constant
# row by 2^(j+4) eps S.  Spreads below it are noise, not a witness.
_EPS = math.ulp(1.0)


def _squares(seq: CoefficientSequence, n_max: int) -> list[float]:
    """[b_0^2, ..., b_{n_max}^2]; ZeroCoefficientError when all are 0.0."""
    b_sq = [b * b for b in seq.b_values(n_max + 1)]
    if not any(b_sq):  # a NaN counts as nonzero and is the caller's to judge
        raise ZeroCoefficientError(
            f"every b_n^2 with n <= {n_max} is 0 in double precision "
            "(a true zero or an underflow): no oscillator to classify"
        )
    return b_sq


def _rows(b_sq: list[float], j_max: int) -> tuple[tuple[float, ...], ...]:
    row = [b - prev for prev, b in zip([0.0, *b_sq], b_sq)]  # A^(0)_0 = b_0^2 via b_{-1} = 0
    rows = [tuple(row)]
    for _ in range(j_max):
        row = [b - a for a, b in zip(row, row[1:])]
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class DifferenceTable:
    """Iterated forward differences A^(j)_n of b_n^2.

    Row 0 is A^(0)_n = b_n^2 - b_{n-1}^2 with b_{-1} = 0, for 0 <= n <= n_max;
    row j is the forward difference of row j-1, for 0 <= n <= n_max - j.
    scale is S = max_{n <= n_max} b_n^2, which is > 0.
    """

    rows: tuple[tuple[float, ...], ...]
    scale: float

    def spread(self, j: int) -> float:
        """max - min of row j over S."""
        row = self.rows[j]
        return (max(row) - min(row)) / self.scale

    def csv_rows(self):
        for j, row in enumerate(self.rows):
            for n, value in enumerate(row):
                yield j, n, value


def difference_table(seq: CoefficientSequence, n_max: int, j_max: int) -> DifferenceTable:
    """Build the difference table of b_n^2 up to order j_max."""
    j_max = _count("j_max", j_max, 0)
    if n_max < j_max + 2:
        raise ParameterDomainError(
            f"n_max must be >= j_max + 2, got n_max={n_max}, j_max={j_max}"
        )
    n_max = _count("n_max", n_max, j_max + 2)
    b_sq = _squares(seq, n_max)
    return DifferenceTable(_rows(b_sq, j_max), max(b_sq))


def fit_beta(seq: CoefficientSequence) -> tuple[float, float]:
    """(beta0, beta2) of the candidate form b_n^2 = (beta0 + beta2 n)(1 + n).

    Solved from n = 0 and n = 1: beta0 = b_0^2, beta2 = b_1^2/2 - beta0.
    The fit always exists; whether it reproduces the sequence is what
    classify() verifies.
    """
    beta0 = seq.b_squared(0)
    beta2 = seq.b_squared(1) / 2.0 - beta0
    return beta0, beta2


@dataclass(frozen=True)
class ClassificationResult:
    verdict: str
    n_max: int
    tolerance: float
    fit_residual: float  # max_n |b_n^2 - (beta0+beta2 n)(1+n)| / S, S = max_n b_n^2
    beta0: float | None = None  # Finite only
    beta2: float | None = None
    dim: int | None = None  # 4 when Finite
    witness_j: int | None = None  # Infinite only
    row_spreads: tuple[float, ...] | None = None  # spreads of rows 1, 2 over S

    def to_dict(self) -> dict:
        return asdict(self)


def classify(
    seq: CoefficientSequence, n_max: int = 64, tol: float = 1e-9
) -> ClassificationResult:
    """Decide Finite (dim 4) vs Infinite from b_n^2 over n <= n_max.

    Finite iff |b_n^2 - (beta0 + beta2 n)(1 + n)| <= tol * S for every
    n <= n_max, with (beta0, beta2) from fit_beta and S = max_{n <= n_max}
    b_n^2.  Otherwise Infinite, with witness_j the smallest j in {1, 2}
    whose difference-table row spreads by more than both tol * S and the
    row's rounding bound 2^(j+4) eps S (rows j >= 3 of any quadratic vanish,
    so a non-constant low row certifies non-quadratic b_n^2).  Inconclusive
    when the factored-form check fails but both rows look constant, i.e.
    numeric noise straddles the tolerance, or when some b_n^2 is NaN; the
    residuals found are reported.  S = 0, every b_n^2 a zero or an
    underflow, raises ZeroCoefficientError.
    """
    n_max = _count("n_max", n_max, 8)
    if not 0.0 <= tol < math.inf:
        raise ParameterDomainError(f"tol must be finite and >= 0, got {tol}")
    beta0, beta2 = fit_beta(seq)
    b_sq = _squares(seq, n_max)
    if math.isnan(sum(b_sq)):  # a NaN b_n^2 fits no form and decides nothing
        return ClassificationResult(INCONCLUSIVE, n_max, tol, math.nan)
    scale = max(b_sq)
    residual = max(abs(b - (beta0 + beta2 * n) * (1.0 + n)) for n, b in enumerate(b_sq))
    fit_residual = residual / scale
    if fit_residual <= tol:
        return ClassificationResult(
            FINITE, n_max, tol, fit_residual, beta0=beta0, beta2=beta2, dim=4
        )
    table = DifferenceTable(_rows(b_sq, 2), scale)
    spreads = (table.spread(1), table.spread(2))
    for j, spread in zip((1, 2), spreads):
        if spread > max(tol, 2.0 ** (j + 4) * _EPS):
            return ClassificationResult(
                INFINITE, n_max, tol, fit_residual, witness_j=j, row_spreads=spreads
            )
    return ClassificationResult(
        INCONCLUSIVE, n_max, tol, fit_residual, row_spreads=spreads
    )
