"""Truncated matrix representation of the generalized oscillator.

Operators act on the coordinate vector (c_0, ..., c_{dim-1}) of an expansion
sum_n c_n psi_n in the orthonormal polynomial basis:

    X   tridiagonal symmetric, diag a_n, off-diagonals b_n
    P   i * K with K[n, n+1] = +b_n, K[n+1, n] = -b_n (stored real,
        imaginary flag set)
    a+  strict lower shift, entries sqrt(2) b_n at [n+1, n]
    a-  transpose of a+
    N   diag(0, 1, ..., dim-1)
    B   diag(b_{-1}^2, b_0^2, ...) = diag(0, b_0^2, ...)
    H   a+ a- + a- a+  (exactly diagonal by construction)

a+- = (X -+... +- i P)/sqrt(2) holds exactly when a_n = 0; for families with
a_n != 0 the ladder operators stay pure shifts and the entrywise gap
X^2 + P^2 - H is reported, never asserted.  All relation checks exclude the
last two rows and columns, where a finite section cannot close the algebra.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, ParameterDomainError, ZeroCoefficientError, _count
from .recurrence import CoefficientSequence

__all__ = [
    "BandMatrix",
    "Operators",
    "RelationCheck",
    "AlgebraReport",
    "build_operators",
    "commutator",
    "verify_algebra",
    "matrix_to_json",
]


_NOTHING = np.empty(0)
_NOTHING.setflags(write=False)


class _Column:
    """A read-only float64 vector that grows only at its end.

    The buffer at least doubles whenever it is replaced, so growing a column
    to n entries copies O(n) floats in all, however it grows.  It is
    writeable only while `extend` writes into it, so every slice `head` and
    `read` hand out is read-only.
    """

    __slots__ = ("buf", "size")

    def __init__(self):
        self.buf, self.size = _NOTHING, 0

    def head(self, count: int) -> np.ndarray:
        """The first count entries, count <= size."""
        return self.buf[:count]

    def read(self, values: Callable[[int], list[float]], count: int) -> np.ndarray:
        """The first count entries, converting values(count)[size:] first if short.

        values(count) raises the sequence's error for a level it cannot form,
        before the column changes.
        """
        if self.size < count:
            self.extend(np.fromiter(values(count)[self.size :], float, count - self.size))
        return self.buf[:count]

    def extend(self, new: np.ndarray) -> None:
        size = self.size + len(new)
        if size > len(self.buf):
            self.reserve(2 * size)
        buf = self.buf
        buf.setflags(write=True)
        buf[self.size : size] = new
        buf.setflags(write=False)
        self.size = size

    def reserve(self, count: int) -> None:
        """Room for at least count entries, so that growing to count moves none."""
        if count > len(self.buf):
            buf = np.empty(max(count, 2 * len(self.buf)))
            buf[: self.size] = self.buf[: self.size]
            buf.setflags(write=False)
            self.buf = buf


class _Floats:
    """The numpy side of one CoefficientSequence, kept in its _floats slot.

    a and b hold a_n and b_n as float64, converted in index order from the
    sequence's lists; a read of more levels converts only the new ones, so
    each index is converted once per sequence.  log_sums belongs to
    coherent.make_state: entry k is the running sum of log(sqrt(2) b_j) over
    j <= k, kept only for levels whose b_k passed make_state's check, so its
    size is the checked prefix and a bad b_k is never counted.
    """

    __slots__ = ("a", "b", "log_sums")

    def __init__(self):
        self.a, self.b, self.log_sums = _Column(), _Column(), _Column()


def _floats(seq: CoefficientSequence) -> _Floats:
    """The float view of seq, made empty on first use."""
    if seq._floats is None:
        seq._floats = _Floats()
    return seq._floats


def _a_floats(seq: CoefficientSequence, count: int) -> np.ndarray:
    """[a_0, ..., a_{count-1}] as a read-only float64 array."""
    return _floats(seq).a.read(seq.a_values, count)


def _b_floats(seq: CoefficientSequence, count: int) -> np.ndarray:
    """[b_0, ..., b_{count-1}] as a read-only float64 array."""
    return _floats(seq).b.read(seq.b_values, count)


def _peak(maxima: list) -> float:
    """Largest of some maxima, 0.0 if there are none; NaN if one is NaN.

    Python's max(0.0, nan) returns 0.0, which would let a NaN residual pass.
    """
    return float(np.max(maxima)) if maxima else 0.0


class BandMatrix:
    """Square matrix stored by diagonals, optionally carrying a factor of i.

    bands[o] holds the diagonal at offset o = j - i as a vector indexed by
    k = min(i, j); entries off the stored bands are zero.  When `imaginary`
    is true the represented matrix is i times the stored real data, so a
    single flag bit is enough to keep all arithmetic real.
    """

    __slots__ = ("dim", "bands", "imaginary")

    def __init__(self, dim: int, bands: dict[int, np.ndarray], *, imaginary: bool = False):
        if dim < 1:
            raise DimensionError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.imaginary = bool(imaginary)
        self.bands: dict[int, np.ndarray] = {}
        for o, vals in bands.items():
            o = int(o)
            arr = np.asarray(vals, dtype=float)
            if abs(o) >= dim or arr.shape != (dim - abs(o),):
                raise DimensionError(
                    f"band {o} of a {dim}x{dim} matrix must have length {dim - abs(o)}"
                )
            if arr.any():  # NaN counts as nonzero, -0.0 as zero
                self.bands[o] = arr.copy()

    # -- accessors ---------------------------------------------------------

    def band(self, o: int) -> np.ndarray:
        """Diagonal at offset o (a fresh zero vector if not stored)."""
        if o in self.bands:
            return self.bands[o].copy()
        return np.zeros(self.dim - abs(o))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex if self.imaginary else float)
        unit = 1j if self.imaginary else 1.0
        for o, vals in self.bands.items():
            k = np.arange(len(vals))
            out[k + max(0, -o), k + max(0, o)] = unit * vals
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product; complex output when the i flag is set."""
        v = np.asarray(v)
        if v.shape != (self.dim,):
            raise DimensionError(f"vector of length {self.dim} expected, got {v.shape}")
        return _matvec(self.bands, v, self.imaginary)

    # -- arithmetic ---------------------------------------------------------

    def _combine(self, other: "BandMatrix", sign: float) -> "BandMatrix":
        if not isinstance(other, BandMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionError(f"dim mismatch: {self.dim} vs {other.dim}")
        if self.imaginary != other.imaginary:
            raise ValueError("cannot add a real-valued and an i-valued BandMatrix")
        out = dict(self.bands)  # the constructor copies every band
        for o, v in other.bands.items():
            out[o] = out[o] + sign * v if o in out else sign * v
        return BandMatrix(self.dim, out, imaginary=self.imaginary)

    def __add__(self, other: "BandMatrix") -> "BandMatrix":
        return self._combine(other, 1.0)

    def __sub__(self, other: "BandMatrix") -> "BandMatrix":
        return self._combine(other, -1.0)

    def __mul__(self, scalar: float) -> "BandMatrix":
        return BandMatrix(
            self.dim, {o: scalar * v for o, v in self.bands.items()}, imaginary=self.imaginary
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "BandMatrix") -> "BandMatrix":
        if not isinstance(other, BandMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionError(f"dim mismatch: {self.dim} vs {other.dim}")
        dim = self.dim
        out: dict[int, np.ndarray] = {}
        for p, av in self.bands.items():
            for r, bv in other.bands.items():
                o = p + r
                if abs(o) >= dim:
                    continue
                lo = max(0, -p, -o)
                hi = dim - max(0, p, o)
                if hi <= lo:
                    continue
                a_sl = av[lo + min(p, 0) : hi + min(p, 0)]
                b_sl = bv[lo + p + min(r, 0) : hi + p + min(r, 0)]
                tgt = out.setdefault(o, np.zeros(dim - abs(o)))
                tgt[lo + min(o, 0) : hi + min(o, 0)] += a_sl * b_sl
        # (iA)(iB) = -(AB): both flags set cancels the i and flips the sign
        if self.imaginary and other.imaginary:
            out = {o: -v for o, v in out.items()}
        return BandMatrix(dim, out, imaginary=self.imaginary ^ other.imaginary)

    # -- residual norms ------------------------------------------------------

    def max_abs(self, skip_edge: int = 0) -> float:
        """Largest |entry| over rows and columns below dim - skip_edge (NaN if any is)."""
        cut = self.dim - skip_edge
        # both endpoints of band entry k are < cut iff k < cut - |o|
        parts = [v[: max(0, cut - abs(o))] for o, v in self.bands.items()]
        return _peak([np.abs(p).max() for p in parts if p.size])

    def edge_max_abs(self, skip_edge: int = 2) -> float:
        """Largest |entry| touching the last skip_edge rows or columns (NaN if any is)."""
        cut = self.dim - skip_edge
        parts = [v[max(0, cut - abs(o)) :] for o, v in self.bands.items()]
        return _peak([np.abs(p).max() for p in parts if p.size])

    def __repr__(self) -> str:
        return f"BandMatrix(dim={self.dim}, offsets={sorted(self.bands)}, imaginary={self.imaginary})"


def _matvec(bands: dict[int, np.ndarray], v: np.ndarray, imaginary: bool) -> np.ndarray:
    """Sum of the band products with v, added in the bands' order onto zeros, times i last."""
    dim = len(v)
    out = np.zeros(dim, dtype=np.result_type(v.dtype, float))
    for o, vals in bands.items():
        if o >= 0:
            out[: dim - o] += vals * v[o:]
        else:
            out[-o:] += vals * v[: dim + o]
    return out * 1j if imaginary else out


@dataclass(frozen=True)
class Operators:
    """The operator set of one family at one truncation dimension."""

    dim: int
    x: BandMatrix
    p: BandMatrix
    a_plus: BandMatrix
    a_minus: BandMatrix
    n_op: BandMatrix
    b_op: BandMatrix
    hamiltonian: BandMatrix


def _xp_products(seq: CoefficientSequence, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """X v, P v, X (P v) and P (X v) for the X and P of build_operators(seq, len(v)).

    No BandMatrix is built: X and P go to _matvec as the bands a BandMatrix
    would store, only those with an entry other than +-0.0 (so 0 * inf never
    makes a NaN), in the order diagonal, +1, -1.  Each product is therefore
    bit-identical to the matvec of the built operator.
    """
    dim = len(v)
    b_vals = _b_floats(seq, dim - 1)
    a_vals = _a_floats(seq, dim)
    x = {0: a_vals} if a_vals.any() else {}
    p = {}
    if b_vals.any():  # -b_n is nonzero exactly where b_n is
        x.update({1: b_vals, -1: b_vals})
        p = {1: b_vals, -1: -b_vals}
    xv, pv = _matvec(x, v, False), _matvec(p, v, True)
    return xv, pv, _matvec(x, pv, False), _matvec(p, xv, True)


def build_operators(seq: CoefficientSequence, dim: int) -> Operators:
    """Assemble X, P, a+-, N, B(N) and H for `seq` truncated at `dim`."""
    dim = _count("dim", dim, 2, error=DimensionError)
    b_vals = _b_floats(seq, dim - 1)
    a_vals = _a_floats(seq, dim)
    x = BandMatrix(dim, {0: a_vals, 1: b_vals, -1: b_vals})
    p = BandMatrix(dim, {1: b_vals, -1: -b_vals}, imaginary=True)
    # B's eigenvalues are assembled from the same sqrt(2) b_n products that
    # fill the ladder operators, so 2B(N) - a+ a- cancels exactly in floating
    # point instead of leaving eps * b_n^2 noise that commutators amplify.
    s_vals = np.sqrt(2.0) * b_vals
    b_shift = np.concatenate(([0.0], 0.5 * s_vals * s_vals))  # b(-1) = 0

    a_plus = BandMatrix(dim, {-1: s_vals})
    a_minus = BandMatrix(dim, {1: s_vals})
    n_op = BandMatrix(dim, {0: np.arange(dim, dtype=float)})
    b_op = BandMatrix(dim, {0: b_shift})
    h = a_plus @ a_minus + a_minus @ a_plus
    return Operators(dim, x, p, a_plus, a_minus, n_op, b_op, h)


def commutator(m1: BandMatrix, m2: BandMatrix) -> BandMatrix:
    """[M1, M2] = M1 M2 - M2 M1; pentadiagonal at most for tridiagonal input."""
    return m1 @ m2 - m2 @ m1


@dataclass(frozen=True)
class RelationCheck:
    name: str
    interior_residual: float
    boundary_residual: float
    passed: bool


@dataclass(frozen=True)
class AlgebraReport:
    """Interior residuals of the defining relations at one truncation."""

    family_id: str
    dim: int
    tolerance: float
    relations: tuple[RelationCheck, ...]
    xp_identity_gap: float  # || X^2 + P^2 - H ||, reported only

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.relations)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["family"] = d.pop("family_id")
        return {**d, "passed": self.passed}


def _number_commutator(m: BandMatrix) -> BandMatrix:
    """[N, M] entrywise: entry (i, j) is (i - j) M_ij, i.e. -o M_o on band o = j - i."""
    return BandMatrix(m.dim, {o: -o * v for o, v in m.bands.items()}, imaginary=m.imaginary)


def _check(name: str, tol: float, *residuals: BandMatrix) -> RelationCheck:
    interior = _peak([r.max_abs(2) for r in residuals])
    boundary = _peak([r.edge_max_abs(2) for r in residuals])
    return RelationCheck(name, interior, boundary, interior <= tol)


def verify_algebra(seq: CoefficientSequence, dim: int, tol: float = 1e-10) -> AlgebraReport:
    """Check the oscillator relations on interior rows at truncation `dim`.

      1. [a-, a+] = 2 (B(N + I) - B(N))
      2. [N, a+] = a+   and   [N, a-] = -a-
      3. H = a+ a- + a- a+ is diagonal with H_nn = 2 (b_{n-1}^2 + b_n^2)
      4. the central element 2 B(N) - a+ a- vanishes and commutes with a+-

    Each is an identity of the construction for any finite b_n, so a nonzero
    residual means an arithmetic defect (NaN, overflow, subnormal rounding);
    only xp_identity_gap depends on the family.  Every b_n with n < dim - 1
    equal to 0.0 leaves no oscillator to verify and raises ZeroCoefficientError.
    """
    dim = _count("dim", dim, 4, error=DimensionError)
    if not 0.0 <= tol < math.inf:
        raise ParameterDomainError(f"tol must be finite and >= 0, got {tol}")
    ops = build_operators(seq, dim)
    if not ops.a_plus.bands:  # every sqrt(2) b_n is +-0.0; NaN is nonzero
        raise ZeroCoefficientError(
            f"every b_n with n < {dim - 1} is 0 in double precision "
            "(a true zero or an underflow): no oscillator to verify"
        )

    # The target diagonals reuse the same sqrt(2) b_n floats that fill the
    # ladder bands; otherwise the residuals carry eps * b_n^2 rounding noise,
    # which the casimir commutator inflates by another factor b_n.
    s_vals = np.sqrt(2.0) * _b_floats(seq, dim)
    s_sq = s_vals * s_vals
    # B(N + I) has eigenvalue b_n^2 on psi_n
    b_next = BandMatrix(dim, {0: 0.5 * s_sq})
    lam_op = BandMatrix(dim, {0: np.concatenate(([0.0], s_sq[:-1])) + s_sq})

    up = ops.a_plus @ ops.a_minus
    casimir = 2.0 * ops.b_op - up
    cas_comms = (commutator(casimir, ops.a_plus), commutator(casimir, ops.a_minus))
    checks = (
        _check("ladder_commutator", tol, ops.a_minus @ ops.a_plus - up - 2.0 * (b_next - ops.b_op)),
        _check("number_raising", tol, _number_commutator(ops.a_plus) - ops.a_plus),
        _check("number_lowering", tol, _number_commutator(ops.a_minus) + ops.a_minus),
        _check("hamiltonian_diagonal", tol, ops.hamiltonian - lam_op),
        _check("casimir_zero", tol, casimir),
        _check("casimir_commutes", tol, *cas_comms),
    )

    xp_gap = (ops.x @ ops.x + ops.p @ ops.p - ops.hamiltonian).max_abs(2)
    return AlgebraReport(seq.family_id, dim, tol, checks, xp_gap)


# -- export ------------------------------------------------------------------

_DENSE_LIMIT = 64


def matrix_to_json(m: BandMatrix, kind: str) -> dict:
    """Banded JSON form under the operator label `kind`; a dense mirror is included up to 64x64."""
    out = {
        "dim": m.dim,
        "kind": kind,
        "imaginary": m.imaginary,
        "bands": {str(o): [float(v) for v in vals] for o, vals in sorted(m.bands.items())},
    }
    if m.dim <= _DENSE_LIMIT:
        dense = m.to_dense()
        real = dense.imag if m.imaginary else dense.real
        out["dense"] = [[float(v) for v in row] for row in real]
    return out

