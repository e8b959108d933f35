"""Dimension classification of the oscillator algebra from b_n^2.

The algebra generated by {a+, a-, N, I} closes at dimension 4 exactly when
b_n^2 = (beta0 + beta2 n)(1 + n) for constants beta0, beta2; otherwise it is
infinite dimensional.  The decision procedure fits (beta0, beta2) from
n = 0, 1 and verifies the factored form over n <= n_max.  Iterated forward
differences of b_n^2 are computed as diagnostic output: row j of the table
is constant for every quadratic, so the smallest non-constant row witnesses
a non-quadratic sequence.

Verdicts are "up to n_max": a sequence that departs from the factored form
only beyond the tested range is reported Finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError
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


@dataclass(frozen=True)
class DifferenceTable:
    """Iterated forward differences A^(j)_n of b_n^2.

    Row 0 is A^(0)_n = b_n^2 - b_{n-1}^2 with b_{-1} = 0, for 0 <= n <= n_max;
    row j is the forward difference of row j-1, for 0 <= n <= n_max - j.
    """

    n_max: int
    j_max: int
    rows: tuple[tuple[float, ...], ...]

    def row(self, j: int) -> tuple[float, ...]:
        return self.rows[j]

    def spread(self, j: int) -> float:
        """max - min of row j, normalized by max(1, max |entry|)."""
        vals = np.asarray(self.rows[j])
        scale = max(1.0, float(np.max(np.abs(vals))))
        return float(vals.max() - vals.min()) / scale

    def csv_rows(self):
        for j, row in enumerate(self.rows):
            for n, value in enumerate(row):
                yield j, n, value

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "j_max": self.j_max,
            "rows": [list(r) for r in self.rows],
        }


def difference_table(seq: CoefficientSequence, n_max: int, j_max: int) -> DifferenceTable:
    """Build the difference table of b_n^2 up to order j_max."""
    if j_max < 0:
        raise ParameterDomainError(f"j_max must be >= 0, got {j_max}")
    if n_max < j_max + 2:
        raise ParameterDomainError(
            f"n_max must be >= j_max + 2, got n_max={n_max}, j_max={j_max}"
        )
    b_sq = np.array([seq.b_squared(n) for n in range(n_max + 1)])
    with np.errstate(invalid="ignore"):  # inf - inf is NaN in the table, not a warning
        row = np.diff(b_sq, prepend=0.0)  # A^(0)_0 = b_0^2 via b(-1) = 0
        rows = [tuple(float(v) for v in row)]
        for _ in range(j_max):
            row = np.diff(row)
            rows.append(tuple(float(v) for v in row))
    return DifferenceTable(n_max, j_max, tuple(rows))


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
    fit_residual: float  # max_n |b_n^2 - (beta0+beta2 n)(1+n)| / max(1, b_n^2)
    beta0: float | None = None  # Finite only
    beta2: float | None = None
    dim: int | None = None  # 4 when Finite
    witness_j: int | None = None  # Infinite only
    row_spreads: tuple[float, ...] | None = None  # normalized spreads of rows 1, 2

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "n_max": self.n_max,
            "tolerance": self.tolerance,
            "fit_residual": self.fit_residual,
            "beta0": self.beta0,
            "beta2": self.beta2,
            "dim": self.dim,
            "witness_j": self.witness_j,
            "row_spreads": list(self.row_spreads) if self.row_spreads is not None else None,
        }


def classify(
    seq: CoefficientSequence, n_max: int = 64, tol: float = 1e-9
) -> ClassificationResult:
    """Decide Finite (dim 4) vs Infinite from b_n^2 over n <= n_max.

    Finite iff |b_n^2 - (beta0 + beta2 n)(1 + n)| <= tol * max(1, b_n^2) for
    every n <= n_max, with (beta0, beta2) from fit_beta.  Otherwise Infinite,
    with witness_j the smallest j in {1, 2} whose difference-table row is
    non-constant beyond tol (rows j >= 3 of any quadratic vanish, so a
    non-constant low row certifies non-quadratic b_n^2).  Inconclusive when
    the factored-form check fails but both rows look constant, i.e. numeric
    noise straddles the tolerance, or when some b_n^2 is NaN; both
    residuals are reported.
    """
    if n_max < 8:
        raise ParameterDomainError(f"n_max must be >= 8, got {n_max}")
    if not 0.0 <= tol < math.inf:
        raise ParameterDomainError(f"tol must be finite and >= 0, got {tol}")
    beta0, beta2 = fit_beta(seq)
    fit_residual = 0.0
    for n in range(n_max + 1):
        b_sq = seq.b_squared(n)
        r = abs(b_sq - (beta0 + beta2 * n) * (1.0 + n)) / max(1.0, b_sq)
        # a NaN residual sticks (max(0.0, nan) would drop it), so it is never Finite
        if r > fit_residual or r != r:
            fit_residual = r
    if fit_residual <= tol:
        return ClassificationResult(
            FINITE, n_max, tol, fit_residual, beta0=beta0, beta2=beta2, dim=4
        )
    table = difference_table(seq, n_max, 2)
    spreads = (table.spread(1), table.spread(2))
    for j, spread in zip((1, 2), spreads):
        if spread > tol:
            return ClassificationResult(
                INFINITE, n_max, tol, fit_residual, witness_j=j, row_spreads=spreads
            )
    return ClassificationResult(
        INCONCLUSIVE, n_max, tol, fit_residual, row_spreads=spreads
    )
