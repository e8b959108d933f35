"""Tests for recurrence coefficient families and polynomial evaluation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from defosc import (
    GOLDEN_Q,
    DegenerateParameterError,
    NonPositiveDefiniteError,
    ParameterDomainError,
    QParams,
    UnknownFamilyError,
    ZeroCoefficientError,
    custom_sequence,
    evaluate_polynomial,
    family_names,
    get_family,
    little_q_jacobi_monic_coeffs,
    make_sequence,
)
from defosc import recurrence
from defosc.fibonacci import THETA0
from defosc.qseries import q_pochhammer


# -- independent oracle: recurrence coefficients from Hankel determinants --

def _hermite_moment(k):
    # weight exp(-x^2)/sqrt(pi): m_{2j} = (2j)! / (4^j j!), odd moments vanish
    if k % 2:
        return Fraction(0)
    j = k // 2
    return Fraction(math.factorial(k), 4**j * math.factorial(j))


def _hankel_det(moments, size):
    if size == 0:
        return Fraction(1)
    m = [[moments(i + j) for j in range(size)] for i in range(size)]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, size):
            factor = m[r][col] / m[col][col]
            for c in range(col, size):
                m[r][c] -= factor * m[col][c]
    return det


def test_harmonic_b_squared_matches_hankel_determinants():
    # b_n^2 = D_{n+1} D_{n-1} / D_n^2 with D_n the nth moment determinant
    seq = make_sequence("harmonic")
    for n in range(6):
        d_prev = _hankel_det(_hermite_moment, n)
        d_mid = _hankel_det(_hermite_moment, n + 1)
        d_next = _hankel_det(_hermite_moment, n + 2)
        exact = d_next * d_prev / d_mid**2
        assert exact == Fraction(n + 1, 2)
        assert seq.b_squared(n) == pytest.approx(float(exact), rel=1e-15)


# -- named families --

def test_family_names_cover_builtins():
    names = family_names()
    for name in (
        "harmonic",
        "chebyshev-t",
        "chebyshev-u",
        "laguerre",
        "little-q-jacobi",
        "fibonacci-golden",
        "ismail-theta",
    ):
        assert name in names


def test_harmonic_coefficients():
    seq = make_sequence("harmonic")
    assert seq.a(0) == 0.0
    assert seq.a(17) == 0.0
    assert seq.b(0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert seq.b(3) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_chebyshev_coefficients():
    t = make_sequence("chebyshev-t")
    assert t.b(0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert t.b(1) == 0.5
    assert t.b(40) == 0.5
    u = make_sequence("chebyshev-u")
    assert u.b(0) == 0.5
    assert u.b(40) == 0.5
    assert t.a(5) == 0.0 and u.a(5) == 0.0


def test_laguerre_coefficients():
    seq = make_sequence("laguerre")
    assert seq.a(0) == 1.0
    assert seq.a(2) == 5.0
    assert seq.b_squared(0) == pytest.approx(1.0, rel=1e-15)
    assert seq.b_squared(1) == pytest.approx(4.0, rel=1e-15)
    half = make_sequence("laguerre", {"alpha": 0.5})
    assert half.a(1) == 3.5
    assert half.b_squared(2) == pytest.approx(3.0 * 3.5, rel=1e-15)


def test_laguerre_alpha_domain():
    with pytest.raises(ParameterDomainError):
        make_sequence("laguerre", {"alpha": -1.0})


def test_non_finite_family_parameters_rejected():
    # laguerre alpha = inf built a sequence that verify passed and classify
    # called Finite; ismail-theta alpha = inf or nan failed in int()
    cases = [
        ("laguerre", {"alpha": math.inf}, "alpha"),
        ("ismail-theta", {"theta": 0.5, "alpha": math.inf}, "alpha"),
        ("ismail-theta", {"theta": 0.5, "alpha": math.nan}, "alpha"),
        ("ismail-theta", {"theta": math.inf}, "theta"),
        ("little-q-jacobi", {"a": 0.5, "b": 0.5, "q": math.nan}, "'q'"),
    ]
    for name, params, arg in cases:
        with pytest.raises(ParameterDomainError, match=arg):
            make_sequence(name, params)


def test_fibonacci_golden_matches_q_jacobi_at_golden_point():
    seq = make_sequence("fibonacci-golden")
    ref = make_sequence("little-q-jacobi", {"a": GOLDEN_Q, "b": 1.0, "q": GOLDEN_Q})
    for n in range(32):
        assert seq.b(n) == ref.b(n)
        assert seq.a(n) == ref.a(n)


def test_golden_q_is_quadratic_root():
    assert GOLDEN_Q**2 + 3.0 * GOLDEN_Q + 1.0 == pytest.approx(0.0, abs=1e-15)
    assert -1.0 < GOLDEN_Q < 0.0


# -- little q-Jacobi monic coefficients --

def test_monic_pair_frozen_golden_values():
    # 50-digit evaluation of A_1, C_1 at a=q, b=1, q=(1-sqrt 5)/(1+sqrt 5)
    p = QParams(GOLDEN_Q, 1.0, GOLDEN_Q)
    a1, c1 = little_q_jacobi_monic_coeffs(p, 1)
    assert a1 == pytest.approx(-0.4314757303333053, rel=1e-14)
    assert c1 == pytest.approx(0.2696723314583158, rel=1e-14)


def test_monic_c0_vanishes():
    # C_0 multiplies p_{-1} = 0; at ab = 1 (little q-Legendre) its closed form
    # is 0/0 and raised DegenerateParameterError
    for params in (QParams(0.5, 0.5, 0.5), QParams(GOLDEN_Q, 1.0, GOLDEN_Q), QParams(1.0, 1.0, 0.5)):
        _, c0 = little_q_jacobi_monic_coeffs(params, 0)
        assert c0 == 0.0


def test_monic_product_positive_through_dim_64():
    for params in (QParams(0.5, 0.5, 0.5), QParams(GOLDEN_Q, 1.0, GOLDEN_Q)):
        for n in range(1, 65):
            a_prev, _ = little_q_jacobi_monic_coeffs(params, n - 1)
            _, c_n = little_q_jacobi_monic_coeffs(params, n)
            assert a_prev * c_n > 0.0


def test_degenerate_parameters_raise():
    with pytest.raises(DegenerateParameterError):
        little_q_jacobi_monic_coeffs(QParams(2.0, 1.0, 0.5), 0)


def test_orthonormalize_rejects_indefinite_parameters():
    # A_0 C_1 < 0: the sequence refuses b_0 rather than taking a complex root
    seq = make_sequence("little-q-jacobi", {"a": -0.5, "b": 0.5, "q": 0.5})
    with pytest.raises(NonPositiveDefiniteError, match="A_0\\*C_1"):
        seq.b(0)


def test_orthonormalize_base_case():
    p = QParams(0.5, 0.5, 0.5)
    seq = make_sequence("little-q-jacobi", {"a": 0.5, "b": 0.5, "q": 0.5})
    assert seq.b(-1) == 0.0
    a_monic, c_monic = little_q_jacobi_monic_coeffs(p, 0)
    assert seq.a(0) == pytest.approx(a_monic + c_monic, rel=1e-15)


def _gamma(p, n):
    # gamma_n = sqrt(C_1 ... C_n / (A_0 ... A_{n-1})) rescales the monic-form
    # polynomials onto the orthonormal ones, p_n = +-gamma_n psi_n
    gamma_sq = 1.0
    for k in range(1, n + 1):
        c_k = little_q_jacobi_monic_coeffs(p, k)[1]
        gamma_sq *= c_k / little_q_jacobi_monic_coeffs(p, k - 1)[0]
    return math.sqrt(gamma_sq)


def _gamma_closed(q, n):
    # |gamma_n| at a=q, b=1
    return (
        q**n
        * q_pochhammer(q, q, n)
        / q_pochhammer(q * q, q, n)
        * math.sqrt((1.0 - q * q) / (1.0 - q ** (2 * (n + 1))))
    )


def _b_closed(q, n):
    # |b_{n-1}| at a=q, b=1
    return (
        q**n
        / (1.0 - q ** (2 * n + 1))
        * (1.0 - q**n)
        * (1.0 - q ** (n + 1))
        / math.sqrt((1.0 - q ** (2 * n)) * (1.0 - q ** (2 * (n + 1))))
    )


@pytest.mark.parametrize("q", [GOLDEN_Q, 0.5])
def test_symmetric_point_closed_forms(q):
    # at a=q, b=1 the norms and off-diagonal entries reduce to q-factorial ratios
    p = QParams(q, 1.0, q)
    seq = make_sequence("little-q-jacobi", {"a": q, "b": 1.0, "q": q})
    for n in range(1, 11):
        assert _gamma(p, n) == pytest.approx(abs(_gamma_closed(q, n)), rel=1e-12)
        assert seq.b(n - 1) == pytest.approx(abs(_b_closed(q, n)), rel=1e-12)


# -- sequence object behavior --

def test_b_minus_one_is_zero():
    for name in ("harmonic", "chebyshev-u", "laguerre"):
        assert make_sequence(name).b(-1) == 0.0


def test_negative_indices_rejected():
    seq = make_sequence("harmonic")
    with pytest.raises(ParameterDomainError):
        seq.b(-2)
    with pytest.raises(ParameterDomainError):
        seq.a(-1)


@pytest.mark.parametrize(
    "name,params", [("harmonic", {}), ("little-q-jacobi", {"a": 0.5, "b": 0.5, "q": 0.5})]
)
def test_vector_reads_of_count_zero_and_below(name, params):
    # a_values(0) used to read a(-1), and b_values(-3) blamed b(-4)
    seq = make_sequence(name, params)
    for read in (seq.a_values, seq.b_values):
        assert read(0) == []
        for count in (-1, -3):
            with pytest.raises(ParameterDomainError, match=rf"^count must be >= 0, got {count}$"):
                read(count)


def test_b_squared_is_exact_square():
    for name in ("harmonic", "laguerre", "fibonacci-golden"):
        seq = make_sequence(name)
        for n in range(64):
            b = seq.b(n)
            assert b >= 0.0
            assert seq.b_squared(n) == b * b


def test_sequences_are_deterministic():
    first = make_sequence("little-q-jacobi", {"a": 0.5, "b": 0.5, "q": 0.5})
    second = make_sequence("little-q-jacobi", {"a": 0.5, "b": 0.5, "q": 0.5})
    for n in range(32):
        assert first.b(n) == second.b(n)
        assert first.a(n) == second.a(n)


_INSTANCES = (
    ("harmonic", {}),
    ("chebyshev-t", {}),
    ("chebyshev-u", {}),
    ("laguerre", {"alpha": 0.5}),
    ("little-q-jacobi", {"a": 0.5, "b": 0.5, "q": 0.5}),
    ("fibonacci-golden", {}),
    ("ismail-theta", {"theta": 0.7}),
    ("little-q-jacobi", {"a": -0.5, "b": 0.5, "q": -0.5}),
)


def _hex(values):
    # float.hex tells -0.0 from 0.0, which == does not
    return [v.hex() for v in values]


@pytest.mark.parametrize("count", [1, 64, 4096, 16384])
@pytest.mark.parametrize("name,params", _INSTANCES)
def test_vectors_equal_scalar_reads(name, params, count):
    # where a read starts never changes a value: one read, one index per
    # read, and ragged windows give the same floats bit for bit
    vec = make_sequence(name, params)
    one = make_sequence(name, params)
    ragged = make_sequence(name, params)
    want_b = _hex(one.b(n) for n in range(count))
    want_a = _hex(one.a(n) for n in range(count))
    for window in (1, 7, 64, count):
        ragged.b_values(min(window, count))
        ragged.a_values(min(window, count))
    assert _hex(vec.b_values(count)) == want_b == _hex(ragged.b_values(count))
    assert _hex(vec.a_values(count)) == want_a == _hex(ragged.a_values(count))
    assert vec.b_values(0) == []


# -- the q-family tail: from the first n0 with q**n0 == 0.0, values repeat with period 2 --

def _first_zero_power(q):
    n = 0
    while q**n != 0.0:
        n += 1
    return n


def _reference(a, b, q, scale, count):
    """a_n and b_n for n < count, each pair (A_n, C_n) formed on its own.

    No power of q is carried from one index to the next and nothing is
    copied.  b stops below the first n with A_n C_{n+1} < 0, which it returns.
    """
    ab = a * b

    def pair(n):
        q_n, q_n1 = q**n, q ** (n + 1)
        d0, d1, d2 = 1.0 - ab * q ** (2 * n), 1.0 - ab * q ** (2 * n + 1), 1.0 - ab * q ** (2 * n + 2)
        A_n = q_n * (1.0 - a * q_n1) * (1.0 - ab * q_n1) / (d1 * d2)
        C_n = a * q_n * (1.0 - q_n) * (1.0 - b * q_n) / (d0 * d1) if n else 0.0
        return A_n, C_n

    pairs = [pair(n) for n in range(count + 1)]
    a_vals = [scale * (A_n + C_n) for A_n, C_n in pairs[:count]]
    b_vals = []
    for n in range(count):
        b_sq = pairs[n][0] * pairs[n + 1][1]
        if b_sq < 0.0:
            return a_vals, b_vals, n
        b_vals.append(scale * math.sqrt(b_sq))
    return a_vals, b_vals, None


def _ismail(theta, alpha):
    q = -math.exp(-2.0 * theta)
    return ("ismail-theta", {"theta": theta, "alpha": alpha}), (q ** (alpha - 1), 1.0, q, math.exp(-theta))


_TAIL_INSTANCES = {
    "golden": (("fibonacci-golden", {}), (GOLDEN_Q, 1.0, GOLDEN_Q, 1.0)),
    "half": (("little-q-jacobi", {"a": 0.5, "b": 0.5, "q": 0.5}), (0.5, 0.5, 0.5, 1.0)),
    # q < 0 and a < 0: the tail pairs hold -0.0, which a_n and b_n sum and multiply to 0.0
    "negative": (("little-q-jacobi", {"a": -0.5, "b": 0.5, "q": -0.5}), (-0.5, 0.5, -0.5, 1.0)),
    # q < 0 and a > 0: a_n = -0.0 at odd n in the tail, and b_0 already fails
    "signed-zero": (("little-q-jacobi", {"a": 0.5, "b": 0.5, "q": -0.5}), (0.5, 0.5, -0.5, 1.0)),
    "ismail-theta0": _ismail(THETA0, 2),
    "ismail-alpha4": _ismail(0.6, 4),
    "tiny-q": (("little-q-jacobi", {"a": 0.5, "b": 0.5, "q": 1e-200}), (0.5, 0.5, 1e-200, 1.0)),
}
_TAIL_COUNT = 16384


@pytest.fixture(scope="module")
def tail_references():
    return {key: _reference(*ref, _TAIL_COUNT) for key, (_, ref) in _TAIL_INSTANCES.items()}


def _read_orders(n0):
    # one vector read; one index per read across n0; ragged windows whose
    # reads start below, at and past the tail start n0 + 2
    yield "vector", [_TAIL_COUNT]
    yield "scalar", [n + 1 for n in range(max(0, n0 - 3), n0 + 6)] + [_TAIL_COUNT]
    for start in (n0 - 1, n0 + 2, n0 + 5):
        yield f"window from {start}", [start, start + 1, start + 3, _TAIL_COUNT]


@pytest.mark.parametrize("key", sorted(_TAIL_INSTANCES))
def test_q_family_tail_matches_a_reference_bit_for_bit(key, tail_references):
    (name, params), (_, _, q, _) = _TAIL_INSTANCES[key]
    want_a, want_b, b_fails = tail_references[key]
    n0 = _first_zero_power(q)
    assert n0 < _TAIL_COUNT - 8
    if key == "signed-zero":
        assert "-0x0.0p+0" in _hex(want_a[n0:])
    for order, stops in _read_orders(n0):
        seq = make_sequence(name, params)
        for stop in stops:
            seq.a(stop - 1)
        assert _hex(seq.a_values(_TAIL_COUNT)) == _hex(want_a), order
        seq = make_sequence(name, params)
        if b_fails is not None:
            with pytest.raises(NonPositiveDefiniteError, match=rf"A_{b_fails}\*C_{b_fails + 1} "):
                seq.b(stops[0] - 1)
            with pytest.raises(NonPositiveDefiniteError, match=rf"A_{b_fails}\*C_{b_fails + 1} "):
                seq.b_values(_TAIL_COUNT)
            continue
        for stop in stops:
            seq.b(stop - 1)
        assert _hex(seq.b_values(_TAIL_COUNT)) == _hex(want_b), order


@pytest.mark.parametrize(
    "q,n0",
    [(GOLDEN_Q, 775), (0.5, 1075), (-0.5, 1075), (0.35, 710), (0.6, 1459), (1e-200, 2), (0.999, 744761)],
)
def test_first_zero_power(q, n0):
    # the tail start is found once, at construction, by doubling and bisection
    assert q**n0 == 0.0 != q ** (n0 - 1)
    assert recurrence._first_zero_power(q) == n0


def test_block_fill_keeps_the_values_below_a_failing_index():
    # 1 - a*b*q^6 = 0: the pair (A_2, C_2) cannot be formed, so a_2 and b_1 fail
    params = {"a": 64.0, "b": 1.0, "q": 0.5}
    seq = make_sequence("little-q-jacobi", params)
    with pytest.raises(DegenerateParameterError, match=r"q\^\(2n\+2\) vanishes at n=2"):
        seq.a_values(100)
    fresh = make_sequence("little-q-jacobi", params)
    assert (seq.a(0), seq.a(1), seq.b(0)) == (fresh.a(0), fresh.a(1), fresh.b(0))
    with pytest.raises(DegenerateParameterError, match="at n=2"):
        seq.b(1)
    # a read past the tail start (n0 = 1075) fails in the head, keeping what is below
    for read in (seq.a_values, seq.b_values):
        with pytest.raises(DegenerateParameterError, match="at n=2"):
            read(16384)
    assert seq.a_values(2) == fresh.a_values(2)
    assert seq.b_values(1) == fresh.b_values(1)


@pytest.mark.parametrize(
    "name,params",
    [
        ("little-q-jacobi", {"a": 0.5, "b": 0.5, "q": 0.5}),
        ("fibonacci-golden", {}),
        ("ismail-theta", {"theta": 0.7}),
    ],
)
def test_q_family_evaluates_each_monic_pair_once(monkeypatch, name, params):
    from defosc.classifier import classify
    from defosc.coherent import make_state
    from defosc.oscillator import verify_algebra

    indices = []
    monic_pairs = recurrence._monic_pairs

    def counted(p, ns):
        for n, pair in zip(ns, monic_pairs(p, ns)):
            indices.append(n)
            yield pair

    monkeypatch.setattr(recurrence, "_monic_pairs", counted)
    # a_0..a_63 and b_0..b_63 need (A_n, C_n) for n <= 64; b_0..b_64 for n <= 65;
    # the divergent state b_0..b_62 for n <= 63; at 16384 only pairs up to
    # n0 + 1 are evaluated, n0 the first n with q**n == 0.0 (775 for golden)
    tail = _first_zero_power(make_sequence(name, params).params.get("q", GOLDEN_Q)) + 2
    assert tail < 1100
    for run, pairs in (
        (lambda seq: verify_algebra(seq, 64), 65),
        (lambda seq: classify(seq, 64), 66),
        (lambda seq: make_state(seq, 0.5, 64), 64),
        (lambda seq: verify_algebra(seq, 16384), tail),
        (lambda seq: classify(seq, 16384), tail),
    ):
        indices.clear()
        seq = make_sequence(name, params)
        run(seq)
        run(seq)  # a second pass evaluates nothing
        assert indices == list(range(pairs))


def test_q_family_overflowing_squares_raise():
    # a_0 = A_0 + C_0 is about -a q, whose square overflows
    seq = make_sequence("little-q-jacobi", {"a": 1e200, "b": 1e-300, "q": 0.5})
    with pytest.raises(ParameterDomainError, match=r"a_0\^2 overflows a float at a=1e\+200"):
        seq.a(0)
    # b_0 .. b_10 are finite and b_11^2 = A_11 C_12 overflows: b_11 was inf
    seq = make_sequence("little-q-jacobi", {"a": 1e230, "b": -1e-170, "q": -0.25})
    assert all(math.isfinite(b * b) for b in seq.b_values(11))
    with pytest.raises(ParameterDomainError, match=r"b_11\^2 overflows a float"):
        seq.b_values(12)


def test_read_surfaces_the_lowest_failing_index():
    # alpha = 1 with the default q < 0: A_0 C_1 < 0 already
    seq = make_sequence("ismail-theta", {"theta": 0.7, "alpha": 1.0})
    for _ in range(2):
        with pytest.raises(NonPositiveDefiniteError, match=r"A_0\*C_1 "):
            seq.b(5)
    with pytest.raises(NonPositiveDefiniteError, match=r"A_0\*C_1 "):
        seq.b_values(6)
    # the failure at n = 0 wins over the copied tail, which starts at n = 535
    for _ in range(2):
        with pytest.raises(NonPositiveDefiniteError, match=r"A_0\*C_1 "):
            seq.b(16383)
        with pytest.raises(NonPositiveDefiniteError, match=r"A_0\*C_1 "):
            seq.b_values(16384)


def test_lowest_failing_index_wins_across_a_value_and_a_pair_error():
    # A_0*C_1 < 0 makes b_0 fail on its value; a*b*q^5 = 1 makes the pair
    # (A_2, C_2) degenerate, so a_2 and b_1 fail on the pair
    from defosc.coherent import make_state

    params = {"a": 4.0, "b": 8.0, "q": 0.5}
    seq = make_sequence("little-q-jacobi", params)
    with pytest.raises(NonPositiveDefiniteError, match=r"A_0\*C_1 "):
        seq.b_values(12)
    with pytest.raises(DegenerateParameterError, match=r"q\^\(2n\+1\) vanishes at n=2"):
        seq.a_values(12)
    assert seq.a(1) == make_sequence("little-q-jacobi", params).a(1)
    with pytest.raises(NonPositiveDefiniteError, match=r"A_0\*C_1 "):
        make_state(seq, 0.5, 12)


# -- polynomial evaluation --

def test_psi_zero_is_one():
    for name in ("harmonic", "chebyshev-t", "laguerre", "fibonacci-golden"):
        assert evaluate_polynomial(make_sequence(name), 0, 0.37) == 1.0


@pytest.mark.parametrize("t", [0.3, 1.1, 2.5])
def test_chebyshev_u_trigonometric_identity(t):
    seq = make_sequence("chebyshev-u")
    for n in range(21):
        got = evaluate_polynomial(seq, n, math.cos(t))
        want = math.sin((n + 1) * t) / math.sin(t)
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("t", [0.3, 1.1, 2.5])
def test_chebyshev_t_trigonometric_identity(t):
    seq = make_sequence("chebyshev-t")
    for n in range(1, 21):
        got = evaluate_polynomial(seq, n, math.cos(t))
        want = math.sqrt(2.0) * math.cos(n * t)
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize(
    "a,b,q",
    [(GOLDEN_Q, 1.0, GOLDEN_Q), (0.5, 0.5, 0.5)],
)
def test_orthonormal_matches_monic_up_to_gauge(a, b, q):
    # |p_n(x)| from the monic recurrence equals gamma_n |psi_n(x)|
    params = QParams(a, b, q)
    seq = make_sequence("little-q-jacobi", {"a": a, "b": b, "q": q})
    for x in np.linspace(-0.8, 0.9, 20):
        p_prev, p_cur = 0.0, 1.0
        for n in range(12):
            psi = evaluate_polynomial(seq, n, x)
            scale = max(1.0, abs(p_cur))
            assert abs(abs(p_cur) - _gamma(params, n) * abs(psi)) / scale < 1e-10
            a_n, c_n = little_q_jacobi_monic_coeffs(params, n)
            p_prev, p_cur = p_cur, ((a_n + c_n - x) * p_cur - c_n * p_prev) / a_n


def test_evaluate_rejects_zero_off_diagonal():
    seq = custom_sequence(lambda n: 0.0 if n == 2 else 1.0)
    with pytest.raises(ZeroCoefficientError):
        evaluate_polynomial(seq, 5, 0.3)


# -- validation --

def test_qparams_domain():
    with pytest.raises(ParameterDomainError):
        QParams(0.5, 0.5, 0.0)
    with pytest.raises(ParameterDomainError):
        QParams(0.5, 0.5, 1.5)
    with pytest.raises(ParameterDomainError):
        QParams(math.inf, 0.5, 0.5)


def test_unknown_family():
    with pytest.raises(UnknownFamilyError):
        make_sequence("nope")
    with pytest.raises(UnknownFamilyError):
        get_family("nope")


def test_missing_and_unknown_parameters():
    with pytest.raises(ParameterDomainError):
        make_sequence("little-q-jacobi", {"a": 0.5, "b": 0.5})
    with pytest.raises(ParameterDomainError):
        make_sequence("harmonic", {"bogus": 1.0})


def test_ismail_theta_parameter_domain():
    with pytest.raises(ParameterDomainError):
        make_sequence("ismail-theta", {"theta": -1.0})
    # q < 0 requires an integer exponent offset
    with pytest.raises(ParameterDomainError):
        make_sequence("ismail-theta", {"theta": 0.6, "alpha": 1.5})
    seq = make_sequence("ismail-theta", {"theta": 0.6})
    assert seq.b(0) > 0.0


def test_family_metadata():
    fam = get_family("harmonic")
    assert fam.symmetric
    lag = get_family("laguerre")
    assert not lag.symmetric
    spec = {p.name: p for p in lag.params}
    assert not spec["alpha"].required


@given(st.integers(min_value=0, max_value=40))
def test_harmonic_b_squared_property(n):
    seq = make_sequence("harmonic")
    assert seq.b_squared(n) == pytest.approx((n + 1) / 2.0, rel=1e-15)


@given(
    st.floats(min_value=-0.9, max_value=0.9),
    st.integers(min_value=0, max_value=12),
)
def test_custom_sequence_matches_manual_recurrence(x, n):
    seq = custom_sequence(lambda k: 1.0 + 0.25 * k, a_fn=lambda k: 0.125 * k)
    psi_prev, psi_cur = 0.0, 1.0
    for k in range(n):
        b_k = seq.b(k)
        b_prev = seq.b(k - 1)
        nxt = ((x - seq.a(k)) * psi_cur - b_prev * psi_prev) / b_k
        psi_prev, psi_cur = psi_cur, nxt
    assert evaluate_polynomial(seq, n, x) == pytest.approx(psi_cur, rel=1e-12, abs=1e-12)
