"""Tests for q-Pochhammer products, basic hypergeometric sums and q-Jacobi values."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from defosc import (
    GOLDEN_Q,
    DegenerateParameterError,
    DivergenceError,
    NonPositiveDefiniteError,
    ParameterDomainError,
    QParams,
    ZeroCoefficientError,
    little_q_jacobi_monic_coeffs,
    make_sequence,
)
from defosc.coherent import make_state
from defosc.fibonacci import GOLDEN_Q_EXACT
from defosc.qseries import (
    HyperSeriesSpec,
    basic_hypergeometric,
    generalized_factorial_closed,
    little_q_jacobi,
    little_q_jacobi_coeffs,
    normalization_series_closed,
    q_pochhammer,
)


# -- q-Pochhammer --

def test_pochhammer_small_cases():
    assert q_pochhammer(0.3, 0.5, 0) == 1.0
    assert q_pochhammer(0.3, 0.5, 1) == pytest.approx(0.7, rel=1e-15)
    want = (1 - 0.5) * (1 - 0.25) * (1 - 0.125)
    assert q_pochhammer(0.5, 0.5, 3) == pytest.approx(want, rel=1e-15)
    assert want == 0.328125


def test_pochhammer_infinite_product():
    # Euler product (q;q)_inf at q = 1/2, 50-digit reference
    want = 0.28878809508660242128
    assert q_pochhammer(0.5, 0.5, None) == pytest.approx(want, rel=1e-13)
    assert q_pochhammer(0.5, 0.5, math.inf) == pytest.approx(want, rel=1e-13)


def test_pochhammer_infinite_requires_contracting_q():
    with pytest.raises(ParameterDomainError):
        q_pochhammer(0.5, 1.0, None)
    with pytest.raises(ParameterDomainError):
        q_pochhammer(0.5, -1.2, math.inf)


def test_pochhammer_rejects_bad_n():
    with pytest.raises(ParameterDomainError):
        q_pochhammer(0.5, 0.5, -1)
    with pytest.raises(ParameterDomainError):
        q_pochhammer(0.5, 0.5, 2.5)


@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.05, max_value=0.9),
    st.booleans(),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
)
def test_pochhammer_splitting_identity(a, q, flip, m, n):
    # (a; q)_{m+n} = (a; q)_m (a q^m; q)_n
    if flip:
        q = -q
    whole = q_pochhammer(a, q, m + n)
    split = q_pochhammer(a, q, m) * q_pochhammer(a * q**m, q, n)
    assert whole == pytest.approx(split, rel=1e-12, abs=1e-12)


# -- little q-Jacobi explicit sum --

def test_q_jacobi_degree_zero_and_value_at_origin():
    assert little_q_jacobi(0, 0.37, 0.5, 0.5, 0.5) == 1.0
    # normalization fixes p_n(0) = 1
    for n in range(6):
        assert little_q_jacobi(n, 0.0, 0.5, 0.5, 0.5) == pytest.approx(1.0, rel=1e-13)


def test_q_jacobi_coefficients_exact_in_fractions():
    # the same code runs in an exact carrier: the monic-form recurrence
    # -x p_n = A_n p_{n+1} - (A_n + C_n) p_n + C_n p_{n-1} holds coefficientwise
    a, b, q = Fraction(1, 2), Fraction(1, 3), Fraction(-2, 5)
    assert q_pochhammer(a, q, 3) == (1 - a) * (1 - a * q) * (1 - a * q * q)
    ab = a * b
    polys = [little_q_jacobi_coeffs(n, a, b, q) for n in range(7)]
    assert polys[0] == [1]
    assert all(isinstance(c, Fraction) for p in polys for c in p)
    assert all(p[0] == 1 for p in polys)
    padded = [p + [0] * (8 - len(p)) for p in polys]
    for n in range(2, 6):
        A = q**n * (1 - a * q ** (n + 1)) * (1 - ab * q ** (n + 1)) / (
            (1 - ab * q ** (2 * n + 1)) * (1 - ab * q ** (2 * n + 2))
        )
        C = a * q**n * (1 - q**n) * (1 - b * q**n) / (
            (1 - ab * q ** (2 * n)) * (1 - ab * q ** (2 * n + 1))
        )
        lhs = [0] + [-c for c in padded[n][:-1]]
        rhs = [
            A * u - (A + C) * v + C * w
            for u, v, w in zip(padded[n + 1], padded[n], padded[n - 1])
        ]
        assert lhs == rhs
        x = Fraction(3, 7)
        assert little_q_jacobi(n, float(x), float(a), float(b), float(q)) == pytest.approx(
            float(sum(c * x**j for j, c in enumerate(polys[n]))), rel=1e-13
        )


def test_q_jacobi_frozen_golden_value():
    # p_2(0.3) at a=q, b=1, q=(1-sqrt 5)/(1+sqrt 5), 50-digit reference
    got = little_q_jacobi(2, 0.3, GOLDEN_Q, 1.0, GOLDEN_Q)
    assert got == pytest.approx(1.2984035322810843859, rel=1e-13)


def _product_form_coeff(n, j, a, b, q):
    # coeff_j of p_n from its q-Pochhammer products, without the term ratio
    qbin = q_pochhammer(q, q, n) / (q_pochhammer(q, q, j) * q_pochhammer(q, q, n - j))
    return (
        qbin
        * q_pochhammer(a * b * q ** (n + 1), q, j)
        / q_pochhammer(a * q, q, j)
        * q ** (j * (j + 1) // 2 - n * j)
        * (-1) ** j
    )


def _largest_summand(n, x, a, b, q):
    # magnitude of the biggest term in the explicit sum; the computed value
    # carries roughly eps times this, which dominates near sign changes
    return max(abs(_product_form_coeff(n, j, a, b, q) * x**j) for j in range(n + 1))


def test_q_jacobi_term_ratio_matches_product_form_in_golden_field():
    # exact in Q(sqrt 5) at the golden base a = q, b = 1 of the Berg table
    q = GOLDEN_Q_EXACT
    for n in range(17):
        want = [_product_form_coeff(n, j, q, 1, q) for j in range(n + 1)]
        assert little_q_jacobi_coeffs(n, q, 1, q) == want


@pytest.mark.parametrize(
    "a,b,q",
    [(0.5, 0.5, 0.5), (GOLDEN_Q, 1.0, GOLDEN_Q), (0.2, 0.8, -0.6), (1.0, 1.0, 0.5)],
)
def test_q_jacobi_satisfies_monic_recurrence(a, b, q):
    # -x p_n = A_n p_{n+1} - (A_n + C_n) p_n + C_n p_{n-1}, with p_{-1} = 0;
    # a = b = 1 is little q-Legendre, whose C_0 was 0/0
    params = QParams(a, b, q)
    for x in np.linspace(-0.9, 0.9, 7):
        values = [little_q_jacobi(n, x, a, b, q) for n in range(11)]
        for n in range(10):
            a_n, c_n = little_q_jacobi_monic_coeffs(params, n)
            lhs = -x * values[n]
            rhs = a_n * values[n + 1] - (a_n + c_n) * values[n] + c_n * (values[n - 1] if n else 0.0)
            budget = max(
                1.0, *(_largest_summand(max(k, 0), x, a, b, q) for k in (n - 1, n, n + 1))
            )
            assert abs(lhs - rhs) < 1e-13 * budget


def test_q_jacobi_rejects_degenerate_parameters():
    with pytest.raises(DegenerateParameterError):
        little_q_jacobi(2, 0.3, 2.0, 0.5, 0.5)
    with pytest.raises(ParameterDomainError):
        little_q_jacobi(2, 0.3, 0.5, 0.5, 1.5)
    with pytest.raises(ParameterDomainError):
        little_q_jacobi(-1, 0.3, 0.5, 0.5, 0.5)


# -- basic hypergeometric series --

def test_q_binomial_theorem():
    # 1phi0(a; -; q, z) = (az; q)_inf / (z; q)_inf
    a, q, z = 0.3, 0.5, 0.6
    spec = HyperSeriesSpec(numerator=(a,), denominator=(), q=q, z=z)
    result = basic_hypergeometric(spec)
    want = q_pochhammer(a * z, q, None) / q_pochhammer(z, q, None)
    assert result.value == pytest.approx(want, rel=1e-12)
    assert result.tail_estimate < 1e-12


def test_q_gauss_summation():
    # 2phi1(a, b; c; q, c/(ab)) = (c/a; q)_inf (c/b; q)_inf / ((c; q)_inf (c/(ab); q)_inf)
    a, b, c, q = 0.8, 0.9, 0.5, 0.5
    z = c / (a * b)
    spec = HyperSeriesSpec(numerator=(a, b), denominator=(c,), q=q, z=z)
    result = basic_hypergeometric(spec)
    want = (
        q_pochhammer(c / a, q, None)
        * q_pochhammer(c / b, q, None)
        / (q_pochhammer(c, q, None) * q_pochhammer(z, q, None))
    )
    assert result.value == pytest.approx(want, rel=1e-12)
    assert result.value == pytest.approx(1.11598643420177184, rel=1e-12)


def test_terminating_series_reports_zero_tail():
    # numerator parameter q^(-2) kills every term past k = 2
    q = 0.5
    spec = HyperSeriesSpec(numerator=(q**-2, 0.3), denominator=(0.4,), q=q, z=0.7)
    result = basic_hypergeometric(spec)
    assert result.tail_estimate == 0.0
    assert result.terms_used == 3
    direct = 0.0
    for k in range(3):
        direct += (
            q_pochhammer(q**-2, q, k)
            * q_pochhammer(0.3, q, k)
            / (q_pochhammer(q, q, k) * q_pochhammer(0.4, q, k))
            * 0.7**k
        )
    assert result.value == pytest.approx(direct, rel=1e-14)


def test_series_divergence_detected():
    spec = HyperSeriesSpec(numerator=(3.0,), denominator=(), q=0.5, z=1.5)
    with pytest.raises(DivergenceError):
        basic_hypergeometric(spec)


def test_series_does_not_stop_on_a_growing_term():
    # near q = -1 every second term ratio is > 1; terms 5 and 6 are both
    # below tol, but term 6 grew, so stopping there (value 1.0158876943...,
    # 2e-9 off) would rest on a tail estimate that is not a bound
    spec = HyperSeriesSpec((1.9,), (-1.7, -0.2, -1.6), q=-0.95, z=0.05, tol=1e-6)
    result = basic_hypergeometric(spec)
    assert result.value == pytest.approx(1.015887696536414200998873, rel=1e-14)  # mpmath, 40 digits
    assert result.tail_estimate < 1e-15
    # a 2phi0 diverges for every z != 0 (|t_k| grows like |q|^(-k^2/2)),
    # however small its first terms are
    with pytest.raises(DivergenceError):
        basic_hypergeometric(HyperSeriesSpec((1.8, 1.5), (), q=-0.86, z=-0.125, tol=1e-6))


def test_series_exhaustion_detected():
    # the terms decrease, but only like 0.9999^k: 10,000 of them never reach tol
    spec = HyperSeriesSpec(numerator=(0.3,), denominator=(), q=0.5, z=0.9999)
    with pytest.raises(DivergenceError, match="within 10000 terms"):
        basic_hypergeometric(spec)


def test_series_value_stable_under_tighter_tol():
    loose = HyperSeriesSpec(numerator=(0.3,), denominator=(), q=0.5, z=0.6, tol=1e-8)
    tight = HyperSeriesSpec(numerator=(0.3,), denominator=(), q=0.5, z=0.6, tol=1e-15)
    v_loose = basic_hypergeometric(loose)
    v_tight = basic_hypergeometric(tight)
    assert abs(v_loose.value - v_tight.value) <= 2.0 * v_loose.tail_estimate + 1e-15
    assert v_tight.terms_used >= v_loose.terms_used


def test_spec_validation():
    with pytest.raises(ParameterDomainError):
        HyperSeriesSpec(numerator=(), denominator=(), q=0.0, z=0.5)
    with pytest.raises(ParameterDomainError):
        HyperSeriesSpec(numerator=(), denominator=(), q=0.5, z=0.5, tol=0.0)
    # tol = nan ran on to a DivergenceError, tol = inf stopped with tail 1.78
    for tol in (math.nan, math.inf):
        with pytest.raises(ParameterDomainError, match="tol"):
            HyperSeriesSpec(numerator=(0.3,), denominator=(), q=0.5, z=0.6, tol=tol)


# -- closed-form factorials and normalization partial sums --

@pytest.mark.parametrize(
    "a,b,q",
    [(0.5, 0.5, 0.5), (GOLDEN_Q, 1.0, GOLDEN_Q)],
)
def test_generalized_factorial_closed_matches_direct_product(a, b, q):
    seq = make_sequence("little-q-jacobi", {"a": a, "b": b, "q": q})
    direct = 1.0
    for n in range(13):
        assert generalized_factorial_closed(a, b, q, n) == pytest.approx(
            direct, rel=1e-12
        )
        direct *= 2.0 * seq.b_squared(n)


def test_generalized_factorial_closed_rejects_negative_n():
    with pytest.raises(ParameterDomainError):
        generalized_factorial_closed(0.5, 0.5, 0.5, -1)


@pytest.mark.parametrize(
    "a,b,q,r2",
    [(0.5, 0.5, 0.5, 0.25), (GOLDEN_Q, 1.0, GOLDEN_Q, 0.09)],
)
def test_normalization_partial_sums_agree_across_modules(a, b, q, r2):
    seq = make_sequence("little-q-jacobi", {"a": a, "b": b, "q": q})
    closed = normalization_series_closed(a, b, q, r2, n_terms=24)
    direct = make_state(seq, math.sqrt(r2), 24, strict=False).norm_constant
    assert closed == pytest.approx(direct, rel=1e-9)


@pytest.mark.parametrize("q, m", [(0.1, 18), (0.25, 23)])
def test_normalization_series_closed_rejects_underflowing_product(q, m):
    # q = 0.1 divided by a product that underflowed to 0.0; at q = 0.25 the
    # product was subnormal and the sum lost about 1e-5 of relative accuracy
    with pytest.raises(ParameterDomainError, match=f"m={m},"):
        normalization_series_closed(0.5, 0.5, q, 0.25, 24)
    assert math.isfinite(normalization_series_closed(0.5, 0.5, q, 0.25, m))


@pytest.mark.parametrize("a, b", [(-0.5, 0.5), (-0.5, -0.5)])
def test_closed_forms_reject_parameters_without_real_oscillator(a, b):
    # 2 b_0^2 < 0 here, as make_sequence finds; the partial sum was -3.9e19
    with pytest.raises(NonPositiveDefiniteError):
        make_sequence("little-q-jacobi", {"a": a, "b": b, "q": 0.5}).b(0)
    with pytest.raises(NonPositiveDefiniteError, match="m=1:"):
        normalization_series_closed(a, b, 0.5, 0.5, 10)
    # n = 2 as well: at (-0.5, 0.5) two negative factors cancel, which
    # returned a positive 0.0184
    for n in (1, 2):
        with pytest.raises(NonPositiveDefiniteError, match="m=1:"):
            generalized_factorial_closed(a, b, 0.5, n)


def test_normalization_series_closed_names_zero_coefficient():
    # a = 0 makes b_0 = 0; the error blamed underflow of the product
    assert make_sequence("little-q-jacobi", {"a": 0.0, "b": 0.5, "q": 0.5}).b(0) == 0.0
    with pytest.raises(ZeroCoefficientError, match="b_0 = 0"):
        normalization_series_closed(0.0, 0.5, 0.5, 0.25, 5)
    with pytest.raises(ZeroCoefficientError, match="b_0 = 0"):
        generalized_factorial_closed(0.0, 0.5, 0.5, 1)
