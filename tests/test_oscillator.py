"""Tests for banded operator assembly and algebra verification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defosc import (
    BandMatrix,
    DimensionError,
    ParameterDomainError,
    build_operators,
    commutator,
    custom_sequence,
    make_sequence,
    verify_algebra,
)
from defosc.oscillator import matrix_to_json

RELATION_NAMES = (
    "ladder_commutator",
    "number_raising",
    "number_lowering",
    "hamiltonian_diagonal",
    "casimir_zero",
    "casimir_commutes",
)

REGISTERED_FAMILIES = (
    ("harmonic", None),
    ("chebyshev-t", None),
    ("chebyshev-u", None),
    ("laguerre", {"alpha": 0.5}),
    ("little-q-jacobi", {"a": 0.5, "b": 0.5, "q": 0.5}),
    ("fibonacci-golden", None),
    ("ismail-theta", {"theta": math.asinh(0.5), "alpha": 2.0}),
)


def _random_band(rng, dim, imaginary=False, integers=True):
    bands = {}
    for o in range(-3, 4):
        if abs(o) >= dim or rng.random() < 0.3:
            continue
        if integers:
            bands[o] = rng.integers(-5, 6, size=dim - abs(o)).astype(float)
        else:
            bands[o] = rng.standard_normal(dim - abs(o))
    return BandMatrix(dim, bands, imaginary=imaginary)


# -- BandMatrix construction --

def test_constructor_validation():
    with pytest.raises(DimensionError):
        BandMatrix(0, {})
    with pytest.raises(DimensionError):
        BandMatrix(4, {1: np.zeros(2)})
    with pytest.raises(DimensionError):
        BandMatrix(3, {3: np.zeros(0)})
    # imaginary is keyword-only: a positional operator label used to set the i flag
    with pytest.raises(TypeError):
        BandMatrix(4, {0: np.ones(4)}, "X")
    assert BandMatrix(4, {0: np.ones(4)}, imaginary=True).imaginary is True


def test_zero_bands_are_dropped():
    m = BandMatrix(4, {1: np.zeros(3), 0: np.array([1.0, 0.0, 0.0, 2.0])})
    assert set(m.bands) == {0}
    assert m.band(1).tolist() == [0.0, 0.0, 0.0]
    assert m.to_dense()[[0, 1, 2], [1, 2, 3]].tolist() == [0.0, 0.0, 0.0]
    empty = BandMatrix(4, {})
    assert empty.max_abs() == 0.0
    assert empty.edge_max_abs() == 0.0


def test_band_accessor_returns_copies():
    m = BandMatrix(3, {0: np.ones(3)})
    m.band(0)[0] = 99.0
    assert m.band(0).tolist() == [1.0, 1.0, 1.0]


# -- dense-matrix oracle --

def test_product_matches_dense_exactly_on_integers():
    # integer entries keep every float operation exact
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3, 5, 9, 12):
        for _ in range(8):
            a = _random_band(rng, dim)
            b = _random_band(rng, dim)
            got = (a @ b).to_dense()
            want = a.to_dense() @ b.to_dense()
            assert np.array_equal(got, want)


def test_product_matches_dense_on_floats():
    rng = np.random.default_rng(11)
    for dim in (4, 8, 16):
        a = _random_band(rng, dim, integers=False)
        b = _random_band(rng, dim, integers=False)
        got = (a @ b).to_dense()
        want = a.to_dense() @ b.to_dense()
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_matvec_matches_dense():
    rng = np.random.default_rng(5)
    for dim in (3, 7):
        m = _random_band(rng, dim)
        v = rng.integers(-4, 5, size=dim).astype(float)
        assert np.array_equal(m.matvec(v), m.to_dense() @ v)
    with pytest.raises(DimensionError):
        m.matvec(np.zeros(dim + 1))


def test_add_sub_scalar_match_dense():
    rng = np.random.default_rng(13)
    a = _random_band(rng, 6)
    b = _random_band(rng, 6)
    assert np.array_equal((a + b).to_dense(), a.to_dense() + b.to_dense())
    assert np.array_equal((a - b).to_dense(), a.to_dense() - b.to_dense())
    assert np.array_equal((2.0 * a).to_dense(), 2.0 * a.to_dense())
    assert np.array_equal((-1.0 * a).to_dense(), -a.to_dense())
    assert np.array_equal((2.0 * a).to_dense(), (a + a).to_dense())


# -- imaginary flag --

def test_imaginary_dense_and_matvec():
    m = BandMatrix(3, {1: np.array([1.0, 2.0])}, imaginary=True)
    dense = m.to_dense()
    assert dense.dtype == complex
    assert np.array_equal(dense.real, np.zeros((3, 3)))
    v = np.array([1.0, 1.0, 1.0])
    assert np.array_equal(m.matvec(v), dense @ v)


def test_imaginary_product_sign():
    # (iA)(iB) = -(A B)
    rng = np.random.default_rng(17)
    a = _random_band(rng, 5)
    b = _random_band(rng, 5)
    ia = BandMatrix(5, a.bands, imaginary=True)
    ib = BandMatrix(5, b.bands, imaginary=True)
    prod = ia @ ib
    assert not prod.imaginary
    assert np.array_equal(prod.to_dense(), -(a @ b).to_dense())
    mixed = ia @ b
    assert mixed.imaginary
    assert np.array_equal(mixed.to_dense(), 1j * (a @ b).to_dense())


def test_mixed_addition_rejected():
    a = BandMatrix(3, {0: np.ones(3)})
    b = BandMatrix(3, {0: np.ones(3)}, imaginary=True)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(DimensionError):
        a + BandMatrix(4, {0: np.ones(4)})


@settings(max_examples=25)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**31 - 1))
def test_product_associates_with_dense(dim, seed):
    rng = np.random.default_rng(seed)
    a = _random_band(rng, dim)
    b = _random_band(rng, dim)
    c = _random_band(rng, dim)
    got = ((a @ b) @ c).to_dense()
    want = a.to_dense() @ b.to_dense() @ c.to_dense()
    assert np.array_equal(got, want)


# -- operator assembly --

def test_commutator_of_matrix_with_itself_vanishes():
    x = build_operators(make_sequence("harmonic"), 8).x
    assert commutator(x, x).max_abs() == 0.0


def test_harmonic_operator_entries():
    ops = build_operators(make_sequence("harmonic"), 6)
    assert ops.n_op.band(0).tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert ops.b_op.band(0) == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0, 2.5], rel=1e-14)
    # H psi_n = (2n + 1) psi_n away from the truncation edge
    assert ops.hamiltonian.band(0)[:5] == pytest.approx([1, 3, 5, 7, 9], rel=1e-14)
    assert ops.x.band(0).tolist() == [0.0] * 6
    assert ops.x.band(1) == pytest.approx(np.sqrt(np.arange(1, 6) / 2.0), rel=1e-15)


def test_ladder_operators_are_transposes():
    ops = build_operators(make_sequence("laguerre", {"alpha": 0.5}), 10)
    assert set(ops.a_plus.bands) == {-1} and set(ops.a_minus.bands) == {1}
    assert np.array_equal(ops.a_plus.to_dense().T, ops.a_minus.to_dense())


def test_x_action_on_ground_state():
    seq = make_sequence("laguerre")
    ops = build_operators(seq, 5)
    e0 = np.zeros(5)
    e0[0] = 1.0
    got = ops.x.matvec(e0)
    assert got[0] == seq.a(0)
    assert got[1] == seq.b(0)
    assert got[2:].tolist() == [0.0, 0.0, 0.0]


def test_number_operator_annihilates_ground_state():
    ops = build_operators(make_sequence("harmonic"), 5)
    e0 = np.zeros(5)
    e0[0] = 1.0
    assert ops.n_op.matvec(e0).tolist() == [0.0] * 5


def test_non_integer_dim_is_rejected_where_it_enters():
    # both were a bare TypeError from range
    seq = make_sequence("harmonic")
    with pytest.raises(DimensionError, match=r"^dim must be an integer >= 2, got 10\.5$"):
        build_operators(seq, 10.5)
    with pytest.raises(DimensionError, match=r"^dim must be an integer >= 4, got 64\.0$"):
        verify_algebra(seq, 64.0)
    with pytest.raises(DimensionError, match=r"^dim must be >= 4, got 3$"):
        verify_algebra(seq, 3)
    assert build_operators(seq, np.int32(4)).dim == 4
    assert verify_algebra(seq, np.int64(8)).dim == 8


def test_build_operators_rejects_small_dim():
    with pytest.raises(DimensionError, match="dim must be >= 2"):
        build_operators(make_sequence("harmonic"), 1)
    # dim 2 has every product: H = a+ a- + a- a+ = diag(1, 1) for harmonic
    ops = build_operators(make_sequence("harmonic"), 2)
    assert np.allclose(ops.hamiltonian.to_dense(), np.eye(2), rtol=0.0, atol=1e-15)


def test_chebyshev_u_position_spectrum():
    # X truncated at dim N has eigenvalues cos(k pi / (N + 1))
    n = 32
    ops = build_operators(make_sequence("chebyshev-u"), n)
    got = np.sort(np.linalg.eigvalsh(ops.x.to_dense()))
    want = np.sort(np.cos(np.arange(1, n + 1) * math.pi / (n + 1)))
    assert np.allclose(got, want, atol=1e-12)


# -- algebra verification --

def test_verify_harmonic_tightly():
    report = verify_algebra(make_sequence("harmonic"), 64, tol=1e-12)
    assert report.passed
    assert tuple(r.name for r in report.relations) == RELATION_NAMES
    assert report.xp_identity_gap < 1e-12
    by_name = {r.name: r for r in report.relations}
    # the casimir is assembled from the exact same floats it cancels against
    assert by_name["casimir_zero"].interior_residual == 0.0
    assert by_name["casimir_commutes"].interior_residual == 0.0


def test_verify_golden_family():
    report = verify_algebra(make_sequence("fibonacci-golden"), 64, tol=1e-10)
    assert report.passed
    assert report.dim == 64


def test_verify_laguerre_half():
    report = verify_algebra(make_sequence("laguerre", {"alpha": 0.5}), 64, tol=1e-10)
    assert report.passed


def test_registered_family_residuals_vanish_at_tol_zero():
    # every relation is an identity of the construction, so no rounding
    # noise is left for a tight tolerance to reject
    for name, params in REGISTERED_FAMILIES:
        report = verify_algebra(make_sequence(name, params), 64, tol=0.0)
        assert report.passed, name
        assert all(r.interior_residual == 0.0 for r in report.relations), name


@pytest.mark.parametrize("dim", [64, 1024, 4096])
@pytest.mark.parametrize("name, params", REGISTERED_FAMILIES)
def test_number_relations_are_exact(name, params, dim):
    report = verify_algebra(make_sequence(name, params), dim)
    for r in report.relations:
        if r.name in ("number_raising", "number_lowering"):
            assert (r.interior_residual, r.boundary_residual) == (0.0, 0.0), r.name


@pytest.mark.parametrize(
    "name, params, dim",
    [
        ("laguerre", {"alpha": 0.5}, 1024),
        ("laguerre", {"alpha": 0.5}, 4096),
        ("harmonic", None, 16384),
    ],
)
def test_verify_passes_at_large_dim(name, params, dim):
    # [N, a+-] from two band products left eps * n * b_n rounding here
    assert verify_algebra(make_sequence(name, params), dim, tol=1e-10).passed


def test_verify_forms_each_band_product_once(monkeypatch):
    calls = []
    matmul = BandMatrix.__matmul__

    def counting(self, other):
        calls.append(1)
        return matmul(self, other)

    monkeypatch.setattr(BandMatrix, "__matmul__", counting)
    verify_algebra(make_sequence("harmonic"), 16)
    # H (2), a+ a- shared by the casimir and [a-, a+] (1), a- a+ (1),
    # [C, a+-] (4), X^2 + P^2 (2)
    assert len(calls) == 10


def test_verify_report_dict():
    report = verify_algebra(make_sequence("harmonic"), 8, tol=1e-10)
    d = report.to_dict()
    assert d["family"] == "harmonic"
    assert d["dim"] == 8
    assert d["passed"] is True
    assert len(d["relations"]) == len(RELATION_NAMES)
    assert all(set(r) == {"name", "interior_residual", "boundary_residual", "passed"} for r in d["relations"])
    assert set(d) == {"family", "dim", "tolerance", "passed", "relations", "xp_identity_gap"}
    assert d["tolerance"] == 1e-10
    assert d["xp_identity_gap"] == report.xp_identity_gap
    for r, check in zip(d["relations"], report.relations, strict=True):
        assert type(r) is dict
        assert r == {
            "name": check.name,
            "interior_residual": check.interior_residual,
            "boundary_residual": check.boundary_residual,
            "passed": check.passed,
        }


def test_verify_rejects_small_dim():
    with pytest.raises(DimensionError):
        verify_algebra(make_sequence("harmonic"), 3)


def test_verify_rejects_non_finite_or_negative_tol():
    # tol = nan used to make every relation fail (CLI exit 3), not invalid input
    for tol in (math.nan, math.inf, -1e-10):
        with pytest.raises(ParameterDomainError, match="tol"):
            verify_algebra(make_sequence("harmonic"), 8, tol)


def test_nan_residual_fails_its_relation():
    # max(0.0, nan) is 0.0, so folding band maxima with Python's max let a
    # NaN coefficient pass every relation
    seq = custom_sequence(lambda n: math.nan if n == 3 else 1.0)
    report = verify_algebra(seq, 8)
    assert not report.passed
    assert all(math.isnan(r.interior_residual) for r in report.relations if not r.passed)
    m = BandMatrix(4, {0: [0.0, 1.0, math.nan, 2.0], 1: [5.0, 0.0, 0.0]})
    assert math.isnan(m.max_abs()) and math.isnan(m.edge_max_abs(2))
    assert m.max_abs(skip_edge=2) == 5.0
    # a band of -0.0 is zero and is dropped; one NaN keeps its band, and the
    # maxima of that band are NaN wherever the NaN lies
    m = BandMatrix(4, {0: [-0.0] * 4, 1: [0.0, -0.0, math.nan], -1: [-0.0, 0.0, 0.0]})
    assert list(m.bands) == [1]
    assert math.isnan(m.max_abs()) and math.isnan(m.edge_max_abs(2))
    assert m.max_abs(skip_edge=2) == 0.0


def test_algebra_is_gauge_invariant():
    # flipping signs of individual b_n leaves every relation unchanged
    base = make_sequence("harmonic")
    flipped = custom_sequence(
        lambda n: (-1.0 if n % 2 else 1.0) * base.b(n), family_id="harmonic-flip"
    )
    report = verify_algebra(flipped, 32, tol=1e-10)
    assert report.passed
    x_flip = build_operators(flipped, 16).x.to_dense()
    x_base = build_operators(base, 16).x.to_dense()
    assert np.allclose(
        np.linalg.eigvalsh(x_flip), np.linalg.eigvalsh(x_base), atol=1e-12
    )


# -- serialization --

def test_matrix_to_json_includes_dense_mirror():
    ops = build_operators(make_sequence("harmonic"), 5)
    payload = matrix_to_json(ops.x, "X")
    assert payload["dim"] == 5
    assert payload["kind"] == "X"
    assert payload["imaginary"] is False
    assert set(payload["bands"]) == {"-1", "1"}
    dense = np.array(payload["dense"])
    assert np.array_equal(dense, ops.x.to_dense())
