"""Tests for Fibonacci variants, exact matrices, Berg orthogonality and nu moments."""

import hashlib
import json
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, seed, settings, strategies as st

from defosc import (
    GOLDEN_Q,
    CalibrationError,
    InsufficientMomentsError,
    ParameterDomainError,
    SingularMatrixError,
    cli,
)
from defosc.fibonacci import (
    GOLDEN_Q_EXACT,
    PHI,
    THETA0,
    GoldenNumber,
    MomentFunctional,
    berg_moment_classical,
    berg_orthogonality,
    calibrate_affine,
    exact_inverse,
    exact_matmul,
    fib,
    fib_classical,
    fib_iterative,
    fib_via_chebyshev,
    filbert_matrix,
    is_integer_matrix,
    nu_moments,
)
from defosc.qseries import little_q_jacobi_coeffs


# -- integer Fibonacci routes --

def test_fib_small_values():
    assert [fib(n) for n in range(11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]


def test_fib_frozen_large_value():
    assert fib(100) == 573147844013817084101


def test_fib_doubling_matches_iteration():
    for n in range(3001):
        assert fib(n) == fib_iterative(n), n


def test_fib_recurrence_at_both_parities_of_the_last_doubling_step():
    # fib(k) = G_{k+1}: these k end the doubling on odd and even indices alike
    for k in (10**5 - 1, 10**5, 10**5 + 1):
        assert fib(k + 1) == fib(k) + fib(k - 1), k
        assert fib_classical(k + 1) == fib_classical(k) + fib_classical(k - 1), k


def test_classical_indexing_shift():
    assert [fib_classical(k) for k in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    for k in range(1, 40):
        assert fib_classical(k) == fib(k - 1)


def test_fib_rejects_negative():
    for fn in (fib, fib_classical, fib_iterative, fib_via_chebyshev):
        with pytest.raises(ParameterDomainError):
            fn(-1)


def test_chebyshev_route_equals_fib():
    for n in range(21):
        value = fib_via_chebyshev(n)
        assert isinstance(value, int)
        assert value == fib(n)
    assert fib_via_chebyshev(0) == 1
    assert fib_via_chebyshev(4) == 5
    assert fib_via_chebyshev(10) == 89
    # the float recurrence stays exact while fib(n) < 2**53
    assert fib_via_chebyshev(77) == fib(77) == 8944394323791464
    with pytest.raises(ParameterDomainError, match="Chebyshev"):
        fib_via_chebyshev(78)


# -- theta-deformed Fibonacci --

def test_deformed_fib_base_cases():
    from defosc.fibonacci import ismail_fib, ismail_fib_values

    closed, rec = ismail_fib_values(0.7, 1)
    assert rec == 1.0
    assert closed == pytest.approx(1.0, rel=1e-14)
    closed, rec = ismail_fib_values(0.7, 2)
    assert rec == pytest.approx(2.0 * math.sinh(0.7), rel=1e-15)
    assert ismail_fib(0.7, 2) == pytest.approx(2.0 * math.sinh(0.7), rel=1e-12)


@pytest.mark.parametrize("theta", [0.2, THETA0, 1.5])
def test_deformed_fib_closed_form_matches_recurrence(theta):
    from defosc.fibonacci import ismail_fib_values

    for n in range(1, 41):
        closed, rec = ismail_fib_values(theta, n)
        assert closed == pytest.approx(rec, rel=1e-12)


def test_deformed_fib_at_theta0_is_integer_fibonacci():
    # sinh(theta0) = 1/2 turns the deformed recurrence into the integer one
    from defosc.fibonacci import ismail_fib

    for n in range(1, 31):
        assert ismail_fib(THETA0, n) == pytest.approx(float(fib(n - 1)), rel=1e-12)


def test_deformed_fib_validation():
    from defosc.fibonacci import ismail_fib_values

    with pytest.raises(ParameterDomainError):
        ismail_fib_values(0.0, 3)
    with pytest.raises(ParameterDomainError):
        ismail_fib_values(0.5, 0)


def test_deformed_fib_rejects_non_finite_theta_and_overflow():
    from defosc.fibonacci import ismail_fib, ismail_fib_values

    for theta in (math.inf, math.nan):
        with pytest.raises(ParameterDomainError, match="finite"):
            ismail_fib_values(theta, 5)
        with pytest.raises(ParameterDomainError):
            ismail_fib(theta, 5)
    # e^{4 * 800} is past the float range: rejected, not an OverflowError
    with pytest.raises(ParameterDomainError, match="overflows"):
        ismail_fib_values(800.0, 5)
    with pytest.raises(ParameterDomainError, match="overflows"):
        ismail_fib_values(710.0, 2)
    closed, rec = ismail_fib_values(709.0, 2)
    assert math.isfinite(closed) and closed == pytest.approx(rec, rel=1e-12)
    assert ismail_fib_values(800.0, 1) == (1.0, 1.0)


def test_theta0_constants():
    assert math.sinh(THETA0) == 0.5
    assert -math.exp(-2.0 * THETA0) == GOLDEN_Q


# -- exact golden-field arithmetic --

def test_golden_number_defining_identities():
    zero = GoldenNumber(0)
    assert PHI**2 == PHI + 1
    assert GOLDEN_Q_EXACT**2 + 3 * GOLDEN_Q_EXACT + 1 == zero
    assert GOLDEN_Q_EXACT == PHI - 2
    assert PHI**2 * GOLDEN_Q_EXACT == -1 + zero
    assert float(GOLDEN_Q_EXACT) == pytest.approx(GOLDEN_Q, rel=1e-15)
    assert float(PHI) == pytest.approx((1 + math.sqrt(5.0)) / 2.0, rel=1e-15)


def test_golden_number_arithmetic():
    q = GOLDEN_Q_EXACT
    assert q * q.inverse() == GoldenNumber(1)
    # q has field norm 1, so conjugation inverts it
    assert q.inverse() == q.conjugate()
    assert (PHI / PHI) == GoldenNumber(1)
    assert 1 / PHI == PHI - 1
    assert 2 + PHI == PHI + 2
    assert (3 - PHI) == -(PHI - 3)
    assert PHI * Fraction(1, 2) == GoldenNumber(Fraction(1, 4), Fraction(1, 4))


def test_golden_number_powers_follow_fibonacci():
    for n in range(2, 13):
        assert PHI**n == PHI ** (n - 1) + PHI ** (n - 2)
    assert PHI**0 == GoldenNumber(1)


def test_golden_number_guards():
    with pytest.raises(ZeroDivisionError):
        GoldenNumber(0).inverse()
    with pytest.raises(ZeroDivisionError):
        GoldenNumber(0) ** -1
    with pytest.raises(TypeError):
        PHI**0.5
    with pytest.raises(AttributeError):
        PHI.r = Fraction(1)


_PHI_TO_MINUS_80 = GoldenNumber(Fraction(52361396397820127, 2), Fraction(-23416728348467685, 2))


def test_golden_number_negative_powers():
    assert PHI**-1 == PHI - 1
    assert PHI**-80 == _PHI_TO_MINUS_80
    assert PHI**-2 == -GOLDEN_Q_EXACT
    assert GOLDEN_Q_EXACT**-3 * GOLDEN_Q_EXACT**3 == GoldenNumber(1)


@pytest.mark.parametrize(
    "value, positive",
    [
        (GoldenNumber(1, 1), True),  # r, s > 0
        (GoldenNumber(-1, -1), False),  # r, s < 0
        (GoldenNumber(3, -1), True),  # r > 0 > s: 9 > 5
        (GoldenNumber(2, -1), False),  # r > 0 > s: 4 < 5
        (GoldenNumber(-2, 1), True),  # s > 0 > r: 4 < 5
        (GoldenNumber(-3, 1), False),  # s > 0 > r: 9 > 5
        (GoldenNumber(0, 1), True),
        (GoldenNumber(0), False),
        # phi^-80, about 2e-17 from r and s near 1e16: floats cannot decide
        (_PHI_TO_MINUS_80, True),
        (-_PHI_TO_MINUS_80, False),
    ],
)
def test_golden_number_sign_is_exact(value, positive):
    assert (value > 0) is positive
    # <, <= and >= are derived from the same exact sign
    non_negative = positive or value == 0
    assert (value >= 0) is non_negative
    assert (value < 0) is not non_negative
    assert (value <= 0) is not positive
    assert (0 < value) is positive
    assert (0 >= value) is not positive


def test_golden_number_sqrt():
    assert (PHI**2).sqrt() == PHI
    assert GoldenNumber(5).sqrt() == GoldenNumber(0, 1)  # the root with u = 0
    assert GoldenNumber(Fraction(9, 4)).sqrt() == Fraction(3, 2)
    assert (GOLDEN_Q_EXACT**2).sqrt() == -GOLDEN_Q_EXACT  # the positive root
    assert GoldenNumber(0).sqrt() == 0
    for value in (GoldenNumber(2), GoldenNumber(-1), GOLDEN_Q_EXACT, PHI):
        with pytest.raises(ValueError):
            value.sqrt()


def test_golden_number_float_is_accurate_for_either_sign_of_power():
    # r + s sqrt5 cancelled to 0.0 at PHI**-40, whose value is about 4.4e-9
    with mpmath.workdps(60):
        phi = (1 + mpmath.sqrt(5)) / 2
        for k in range(-200, 201):
            want = phi**k
            assert abs((mpmath.mpf(float(PHI**k)) - want) / want) <= 1e-15, k


def test_golden_number_float_near_the_bottom_of_the_double_range():
    # r - s sqrt5 of PHI**k overflows a double from k = -1475: the conversion
    # gave 0.0 at k = -1475 and -1476 and raised OverflowError from k = -1477,
    # though the values run from 5.5e-309 down past the smallest subnormal
    with mpmath.workdps(60):
        phi = (1 + mpmath.sqrt(5)) / 2
        for k in range(-1560, -1469):
            want = phi**k
            got = float(PHI**k)
            if want < mpmath.mpf(2) ** -1075:
                assert got == 0.0, k
            else:
                assert abs(got - float(want)) <= math.ulp(float(want)), k
    for k in range(1475, 1481):  # phi^1475 is about 1.8e308; 1475 and 1476 gave inf
        with pytest.raises(OverflowError):
            float(PHI**k)


def test_golden_number_float_rounds_once():
    # r + s sqrt5 rounded r, s, sqrt5, the product and the sum apart: 43 of
    # these powers lay more than 1 ulp off, the worst 1.94 ulp at k = -206
    with mpmath.workdps(60):
        phi = (1 + mpmath.sqrt(5)) / 2
        for k in range(-400, 400):
            want = phi**k
            error = abs(mpmath.mpf(float(PHI**k)) - want) / math.ulp(float(want))
            assert error <= 0.5 + 1e-9, k


def test_golden_number_hash_and_float_coercion():
    assert hash(GoldenNumber(Fraction(1, 2), Fraction(1, 2))) == hash(PHI)
    assert len({PHI, GoldenNumber(Fraction(1, 2), Fraction(1, 2)), GoldenNumber(1)}) == 2
    assert GoldenNumber(7) == 7
    assert PHI.__eq__(0.5) is NotImplemented
    # equal elements hash equal across int, Fraction and GoldenNumber
    assert hash(GoldenNumber(1)) == hash(1)
    assert 1 in {GoldenNumber(1)}
    assert GoldenNumber(Fraction(1, 2)) in {Fraction(1, 2)}
    assert len({GoldenNumber(7), 7, Fraction(14, 2)}) == 1
    # ordering against int and Fraction is exact; floats are not compared
    assert PHI < 2 and PHI <= 2 and PHI >= 1 and 2 > PHI and Fraction(3, 2) < PHI
    assert not (PHI < 1) and GoldenNumber(2) <= 2 and GoldenNumber(2) >= 2
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(PHI, op)(1.5) is NotImplemented
    with pytest.raises(TypeError):
        PHI < 1.5


# -- GoldenNumber against a reference model on (Fraction, Fraction) pairs --

_parts = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**3)),
)
_pairs = st.tuples(_parts, _parts)


def _pair(g):
    return g.r, g.s


def _model_mul(x, y):
    return x[0] * y[0] + 5 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _model_inverse(x):
    norm = x[0] * x[0] - 5 * x[1] * x[1]
    return x[0] / norm, -x[1] / norm


def _model_pow(x, e):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(e)):
        out = _model_mul(out, x)
    return _model_inverse(out) if e < 0 else out


def _model_value(x):
    # r + s sqrt5, read under workdps(60): far finer than the gap between
    # any two distinct values drawn here
    r, s = (mpmath.mpf(v.numerator) / v.denominator for v in x)
    return r + s * mpmath.sqrt(5)


@seed(5)
@settings(max_examples=300, deadline=None)
@given(_pairs, _pairs, st.integers(min_value=-4, max_value=4))
def test_golden_number_matches_the_pair_model(x, y, e):
    gx, gy = GoldenNumber(*x), GoldenNumber(*y)
    assert _pair(gx) == x and GoldenNumber(gx.r, gx.s) == gx
    assert repr(gx) == f"GoldenNumber({x[0]!r}, {x[1]!r})"
    assert hash(gx) == (hash(x[0]) if x[1] == 0 else hash(x))
    if x[1] == 0:
        assert hash(gx) == hash(gx.r)
    assert (gx == gy) is (x == y)
    assert _pair(gx.conjugate()) == (x[0], -x[1])
    # the right operand as a GoldenNumber, and as a Fraction or int where s = 0
    others = [gy]
    if y[1] == 0:
        others.append(y[0])
        if y[0].denominator == 1:
            others.append(int(y[0]))
    for o in others:
        assert _pair(gx + o) == _pair(o + gx) == (x[0] + y[0], x[1] + y[1])
        assert _pair(gx - o) == (x[0] - y[0], x[1] - y[1])
        assert _pair(o - gx) == (y[0] - x[0], y[1] - x[1])
        assert _pair(gx * o) == _pair(o * gx) == _model_mul(x, y)
        assert (gx == o) is (x == y)
        if x != (0, 0):
            assert _pair(o / gx) == _model_mul(y, _model_inverse(x))
        if y != (0, 0):
            assert _pair(gx / o) == _model_mul(x, _model_inverse(y))
        else:
            with pytest.raises(ZeroDivisionError):
                gx / o
    if x != (0, 0):
        assert _pair(gx.inverse()) == _model_inverse(x)
        assert _pair(gx**e) == _model_pow(x, e)
    else:
        with pytest.raises(ZeroDivisionError):
            gx.inverse()
        assert gx**abs(e) == (1 if e == 0 else 0)
    with mpmath.workdps(60):
        for o in others:
            assert (gx > o) is (_model_value(x) > _model_value(y))
        want = _model_value(x)
        got = float(gx)
        assert abs(mpmath.mpf(got) - want) <= (math.ulp(got) / 2 if got else 0)
        root = (gx * gx).sqrt()
        assert _pair(root) in (x, (-x[0], -x[1])) and _model_value(_pair(root)) >= 0
        try:
            root = gx.sqrt()
        except ValueError:
            pass
        else:
            assert _model_mul(_pair(root), _pair(root)) == x and _model_value(_pair(root)) >= 0


# sha256 of each Berg payload as the Fraction-pair GoldenNumber produced it:
# a change of the exact carrier may not move a byte of the report
_BERG_TO_DICT_SHA256 = {
    1: "525b8684f70a65b4551b0656b95571e59c9d271df968c66c06b3ce747956dfdd",
    2: "a50875bc948e060fa6bea6025652393e4e5bbce56e7d01e68c94d1668ca44a85",
    3: "14b29b58373354f4b46ca62830d06f291e7497089b35c31d546cbd42c71e3230",
    4: "6301fe7e1d6e6c5e2076d813509073e797d2db9e46873d76ef2badd642f7757d",
    5: "1c9cb365e9ca85278add27d512c525a401f5512278348ac708f4300ae1028fed",
    6: "07fa1f764d87a4f5ecc85c1f52fcf6b3bf98eea0233403552d76696d7d3e1191",
    7: "ac3e1074b04e6efd013133f5d39bcc1fd35ae34f2365e392664cfa92b40bc04a",
    8: "bd6dc7cba5028b9fa1358eb19719c97107d8e3f11517bfcacd8985e1e1a91171",
    9: "b911e48b9c54f10be3afe580c4cf76fd5dafbee07284db1417a0950b1a0a4fc6",
    10: "327c87031cce7237220b77b594ea1ee5db309e0c12916ea1de26b50b268b52b2",
    11: "b05d37b0ebb093188907a6ebfa70247f81babbdbe78e199b614a05be495e26d3",
    12: "12c4a1221742bb3b315b66f7bf5758a8a7b93decf1f81122238bccda5beb3aa3",
    13: "59dfeda1e9b06a7d89a8b4a5c3c9517b62c5d403b3b313ca6cd0017710496ab6",
    14: "ae3566ce68be65ff34481de330e2783c9bbf99293bd54c27b093d00182a2065e",
    15: "ac4dde402a178c2e587542a08fc0b71696a6d41379ea53340acea3f526e8a19d",
    16: "a379369f3f5b5ac38fcf10f20cd149a36b422a734817ebdb8a7646a659a33639",
}
_FIB_BERG_16_CSV_SHA256 = "06730cec79de360e9774eb6e62a46e9d054f4e9c351bf02c84c53efb34e6c820"


def test_berg_payloads_are_pinned(capsys):
    for n_max, digest in _BERG_TO_DICT_SHA256.items():
        payload = json.dumps(berg_orthogonality(n_max).to_dict())
        assert hashlib.sha256(payload.encode()).hexdigest() == digest, n_max
    assert cli.main(["fib", "berg", "--nmax", "16", "--format", "csv"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == _FIB_BERG_16_CSV_SHA256


# -- Filbert matrix --

def test_filbert_entries_are_reciprocal_fibonacci():
    m = filbert_matrix(3)
    assert m == [
        [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)],
        [Fraction(1, 3), Fraction(1, 5), Fraction(1, 8)],
        [Fraction(1, 5), Fraction(1, 8), Fraction(1, 13)],
    ]


def test_filbert_one_by_one():
    m = filbert_matrix(1)
    assert m == [[Fraction(1, 2)]]
    assert exact_inverse(m) == [[Fraction(2)]]


def test_filbert_two_by_two_inverse_frozen():
    inv = exact_inverse(filbert_matrix(2))
    assert inv == [[Fraction(-18), Fraction(30)], [Fraction(30), Fraction(-45)]]


def test_filbert_inverses_are_integer_matrices():
    for n in range(1, 17):
        m = filbert_matrix(n)
        inv = exact_inverse(m)
        assert is_integer_matrix(inv)
        product = exact_matmul(m, inv)
        identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        assert product == identity


def test_filbert_validation():
    with pytest.raises(ParameterDomainError):
        filbert_matrix(0)


# -- exact linear algebra --

def test_exact_inverse_hand_case():
    inv = exact_inverse([[1, Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 3)]])
    assert inv == [[Fraction(4), Fraction(-6)], [Fraction(-6), Fraction(12)]]


def test_exact_inverse_identity():
    eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert exact_inverse(eye) == eye


def test_exact_inverse_rejects_singular_and_ragged():
    with pytest.raises(SingularMatrixError):
        exact_inverse([[1, 1], [1, 1]])
    with pytest.raises(ParameterDomainError):
        exact_inverse([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ParameterDomainError):
        exact_matmul([[1, 2]], [[1, 2], [3, 4], [5, 6]])
    # ragged rows used to be truncated silently by zip
    with pytest.raises(ParameterDomainError):
        exact_matmul([[1, 2], [3, 4]], [[1, 2], [3]])
    with pytest.raises(ParameterDomainError):
        exact_matmul([[1, 2], [3]], [[1], [2]])


def _fraction_inverse(m):
    """Textbook Gauss-Jordan on Fraction rows, same pivot rule as exact_inverse."""
    a = [[Fraction(v) for v in row] for row in m]
    n = len(a)
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError(f"matrix is singular (column {col})")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        pivot = a[col][col]
        a[col] = [v / pivot for v in a[col]]
        inv[col] = [v / pivot for v in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
                inv[r] = [v - factor * w for v, w in zip(inv[r], inv[col])]
    return inv


_rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7)),
)


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(st.lists(_rationals, min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_exact_inverse_matches_fraction_elimination(m):
    # zero entries are drawn often, so pivots need row swaps and some draws are singular
    try:
        want = _fraction_inverse(m)
    except SingularMatrixError as exc:
        with pytest.raises(SingularMatrixError) as got:
            exact_inverse(m)
        assert str(got.value) == str(exc)
        return
    inv = exact_inverse(m)
    assert inv == want
    n = len(m)
    assert exact_matmul(m, inv) == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    plain = [[sum(Fraction(m[i][k]) * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert exact_matmul(m, m) == plain


def test_exact_inverse_row_swap_case():
    # zero leading pivot: the first column's pivot comes from row 1
    m = [[0, 1, 2], [3, 0, 1], [Fraction(1, 2), 4, 0]]
    assert exact_inverse(m) == _fraction_inverse(m)
    with pytest.raises(SingularMatrixError, match="column 1"):
        exact_inverse([[1, 2, 3], [2, 4, 6], [0, 0, 1]])


def test_exact_matmul_hand_case():
    got = exact_matmul([[1, 2], [3, 4]], [[0, 1], [1, 0]])
    assert got == [[Fraction(2), Fraction(1)], [Fraction(4), Fraction(3)]]


def test_is_integer_matrix():
    assert is_integer_matrix([[Fraction(2), Fraction(-3)]])
    assert not is_integer_matrix([[Fraction(1, 2)]])


# -- moment functional --

def test_berg_moments_frozen():
    assert [berg_moment_classical(n) for n in range(5)] == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(1, 5),
        Fraction(1, 8),
    ]
    with pytest.raises(ParameterDomainError):
        berg_moment_classical(-1)


def test_functional_moment_access():
    func = MomentFunctional([Fraction(1), Fraction(1, 2), Fraction(1, 3)])
    assert len(func) == 3
    assert func.moment(2) == Fraction(1, 3)
    with pytest.raises(ParameterDomainError):
        func.moment(-1)
    with pytest.raises(InsufficientMomentsError):
        func.moment(3)
    with pytest.raises(InsufficientMomentsError):
        MomentFunctional([])


def test_functional_affine_change_of_variable():
    func = MomentFunctional([Fraction(1), Fraction(1, 2), Fraction(1, 3)])
    mapped = func.affine(2, 1)
    # L((2x + 1)^2) = 4 mu2 + 4 mu1 + mu0
    assert mapped.moment(0) == Fraction(1)
    assert mapped.moment(1) == Fraction(2)
    assert mapped.moment(2) == Fraction(4, 3) + 2 + 1


def test_calibrate_affine_synthetic():
    # standard normal moments: x' = sqrt(2) x satisfies L(x') = 0, L(x'^2 - 2) = 0
    func = MomentFunctional([1.0, 0.0, 1.0, 0.0, 3.0])
    alpha, beta = calibrate_affine(func, [0.0, 1.0], [-2.0, 0.0, 1.0])
    assert alpha == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert beta == pytest.approx(0.0, abs=1e-14)


def test_calibrate_affine_error_paths():
    func = MomentFunctional([1.0, 0.0, 1.0])
    with pytest.raises(CalibrationError):
        calibrate_affine(func, [1.0], [-2.0, 0.0, 1.0])
    with pytest.raises(CalibrationError):
        calibrate_affine(func, [0.0, 1.0], [1.0, 2.0])
    with pytest.raises(CalibrationError):
        calibrate_affine(MomentFunctional([0.0, 1.0, 1.0]), [0.0, 1.0], [0.0, 0.0, 1.0])
    with pytest.raises(CalibrationError):
        # mu2 = mu1^2/mu0: degenerate (point-mass) variance
        calibrate_affine(MomentFunctional([1.0, 2.0, 4.0]), [0.0, 1.0], [0.0, 0.0, 1.0])
    with pytest.raises(CalibrationError):
        # forces L(x'^2) < 0, so no real scale exists
        calibrate_affine(func, [0.0, 1.0], [1.0, 0.0, 1.0])


# -- Berg orthogonality --

def test_berg_classical_calibrates_to_golden_ratio():
    report = berg_orthogonality(6)
    assert report.alpha == pytest.approx(1.618033988749895, rel=1e-12)
    assert abs(report.beta) < 1e-12
    assert report.diagonal_positive
    assert report.max_off_diagonal < 1e-8
    assert report.passes(1e-8)
    assert len(report.diagonal) == 7
    assert [len(r) for r in report.normalized_off_diagonal] == [6, 5, 4, 3, 2, 1, 0]


@pytest.mark.parametrize("n_max", range(1, 17))
def test_berg_table_is_exact_at_every_size(n_max):
    # the 50-digit table lost the cancellation: diagonal_positive was false
    # from n_max 11 and max_off_diagonal reached 2.2e43 at 16
    report = berg_orthogonality(n_max)
    assert report.alpha == 1.618033988749895
    assert report.beta == 0.0
    assert all(v == 0.0 for row in report.normalized_off_diagonal for v in row)
    assert report.max_off_diagonal == 0.0
    assert report.diagonal_positive and all(d > 0.0 for d in report.diagonal)


def test_calibrate_affine_exact_golden_root():
    base = MomentFunctional([berg_moment_classical(k) for k in range(3)])
    p1, p2 = (little_q_jacobi_coeffs(n, GOLDEN_Q_EXACT, 1, GOLDEN_Q_EXACT) for n in (1, 2))
    assert calibrate_affine(base, p1, p2) == (PHI, 0)


def test_berg_shifted_convention_fails_calibration():
    # the F_0 = F_1 = 1 reciprocals 1/2, 1/3, 1/5, ... make alpha^2 negative,
    # which is why the Berg table uses the classical moments only
    shifted = MomentFunctional([Fraction(1, fib(k + 2)) for k in range(3)])
    p1, p2 = (little_q_jacobi_coeffs(n, GOLDEN_Q, 1.0, GOLDEN_Q) for n in (1, 2))
    with pytest.raises(CalibrationError, match="alpha\\^2 = -4.9088"):
        calibrate_affine(shifted, p1, p2)


def test_berg_validation():
    with pytest.raises(ParameterDomainError):
        berg_orthogonality(0)
    with pytest.raises(ParameterDomainError):
        berg_orthogonality(17)


def test_berg_smallest_table():
    # the calibration needs p_1 and p_2 even when the table stops at degree 1
    report = berg_orthogonality(1)
    assert report.n_max == 1
    assert report.alpha == pytest.approx(1.618033988749895, rel=1e-12)
    assert len(report.diagonal) == 2
    assert [len(r) for r in report.normalized_off_diagonal] == [1, 0]
    assert report.passes(1e-8)
    assert report.alpha == berg_orthogonality(2).alpha


def test_berg_report_dict():
    d = berg_orthogonality(3).to_dict()
    assert d["convention"] == "classical"
    assert d["n_max"] == 3
    assert d["diagonal_positive"] is True
    assert len(d["normalized_off_diagonal"]) == 4
    assert "dps" not in d


# -- nu-measure moments --

def test_nu_zeroth_moment_is_total_mass():
    res = nu_moments(0, 2, THETA0)
    assert res.closed_form == pytest.approx(1.0, rel=1e-12)
    assert res.truncated == pytest.approx(1.0, rel=1e-12)
    assert res.within_bound
    assert res.precision == "extended"
    assert res.terms == 200
    assert res.dps is not None and res.dps >= 50
    assert res.q == pytest.approx(GOLDEN_Q, rel=1e-14)


def test_nu_closed_form_formula():
    n, alpha, theta = 1, 2, 0.5
    res = nu_moments(n, alpha, theta)
    q = -math.exp(-2.0 * theta)
    want = (1.0 - q**alpha) * math.exp(-n * theta) / (1.0 - q ** (alpha + n))
    assert res.closed_form == pytest.approx(want, rel=1e-12)
    assert res.within_bound


def test_nu_explicit_base_overrides_default():
    res = nu_moments(2, 1.5, 0.7, q=0.5)
    assert res.q == 0.5
    assert res.within_bound


@pytest.mark.parametrize("value", ["double", "single"])
def test_nu_ignores_precision_environment(monkeypatch, value):
    # DEFOSC_PRECISION once chose a float carrier (or raised for "single")
    want = nu_moments(1, 1, THETA0)
    monkeypatch.setenv("DEFOSC_PRECISION", value)
    assert nu_moments(1, 1, THETA0) == want
    assert want.precision == "extended" and isinstance(want.dps, int)


def test_nu_validation():
    with pytest.raises(ParameterDomainError):
        nu_moments(-1, 2, 0.5)
    with pytest.raises(ParameterDomainError):
        nu_moments(0, 2, 0.5, K=0)
    with pytest.raises(ParameterDomainError, match="K"):
        nu_moments(0, 2, 0.5, K=2.5)  # was a TypeError
    # e^(-n theta) past the double range is evaluated, not rejected
    assert nu_moments(1, 2, -800.0, q=0.5, K=4).dps == 50
    with pytest.raises(ParameterDomainError):
        nu_moments(0, 2, math.inf)
    with pytest.raises(ParameterDomainError):
        nu_moments(0, 2, 0.5, q=1.5)
    with pytest.raises(ParameterDomainError):
        nu_moments(0, 1.5, 0.5)  # non-integer alpha with negative default q
    # non-finite alpha used to surface as int() errors naming the wrong cause
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterDomainError, match="alpha"):
            nu_moments(0, alpha, 0.5)
    # alpha + n <= 0 makes |q^(alpha+n)| >= 1: the series diverges (was ZeroDivisionError at 0)
    with pytest.raises(ParameterDomainError, match="alpha"):
        nu_moments(0, 0, 0.5)
    with pytest.raises(ParameterDomainError, match="alpha"):
        nu_moments(1, -2, 0.5, q=0.5)
    # default q = -e^{-2 theta} needs theta > 0; theta = -0.5 returned a 1e260
    # "truncated" value, theta = 0 raised ZeroDivisionError
    for theta in (-0.5, 0.0):
        with pytest.raises(ParameterDomainError, match="theta"):
            nu_moments(0, 2, theta)
    # a default q that underflows to 0 is rejected too
    with pytest.raises(ParameterDomainError, match="q"):
        nu_moments(0, 2, 400.0)
    # an explicit q frees theta
    assert nu_moments(1, 2, -0.5, q=0.5).within_bound


def _nu_plain_loop(n, alpha, theta, q, K, dps):
    """The K-term nu moment summed term by term at the given precision."""
    with mpmath.workdps(dps):
        qv = mpmath.mpf(q)
        e_nt = mpmath.exp(-n * mpmath.mpf(theta))
        mass = 1 - qv**alpha
        step = qv ** (alpha + n)
        acc, power = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(K):
            acc += power
            power *= step
        truncated = mass * e_nt * acc
        closed = mass * e_nt / (1 - step)
        tail = abs(mass) * e_nt * abs(qv) ** ((alpha + n) * K) / (1 - abs(qv) ** (alpha + n))
        margin = (abs(truncated) + abs(closed)) * mpmath.mpf(10) ** (15 - dps)
        within = bool(abs(truncated - closed) <= tail + margin)
        return float(truncated), float(closed), float(tail), within


@pytest.mark.parametrize("q", [-0.999, -0.5, 0.5, 0.999])
def test_nu_doubling_sum_equals_plain_loop(q):
    for K in [*range(1, 71), 1000]:
        for alpha in (1, 2, 3):
            for n in range(4):
                res = nu_moments(n, alpha, 0.7, q=q, K=K)
                want = _nu_plain_loop(n, alpha, 0.7, q, K, res.dps)
                got = (res.truncated, res.closed_form, res.tail_bound, res.within_bound)
                assert got == want, (K, alpha, n)


def test_nu_within_bound_for_non_integer_alpha():
    # q > 0 attains the tail bound, so one ulp of error in alpha + n decides the verdict
    for alpha in (0.3, 0.7, 1.1, 1.5, 2.5, 3.3):
        for n in range(4):
            for q in (0.2, 0.5, 0.9):
                for K in (7, 100, 300, 1000):
                    assert nu_moments(n, alpha, 0.1, q=q, K=K).within_bound, (alpha, n, q, K)


def test_nu_working_precision_is_kept():
    # K (alpha + n) log10(1/|q|) + 30 digits with q = -e^{-1}
    assert nu_moments(6, 2, 0.5, K=2000).dps == 6979


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=2))
def test_nu_moments_decrease_with_n(n, alpha):
    # mass points sit in (0, e^-theta], so moments shrink as n grows
    res_n = nu_moments(n, alpha, 0.8, K=60)
    res_next = nu_moments(n + 1, alpha, 0.8, K=60)
    assert abs(res_next.closed_form) < abs(res_n.closed_form)
