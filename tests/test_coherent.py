"""Tests for annihilation-operator eigenstates and their normalization."""

import math

import numpy as np
import pytest

from defosc import (
    DimensionError,
    DivergenceError,
    ParameterDomainError,
    TruncationError,
    ZeroCoefficientError,
    custom_sequence,
    make_sequence,
)
from defosc.coherent import (
    eigen_residual,
    make_state,
    normalization,
    state_to_dict,
    uncertainty,
)


# -- deformed factorial --

def test_factorial_base_cases():
    # make_state accumulates prod_{k<n} sqrt(2) b_k in log space; at |z| = 1
    # |c_0 / c_n|^2 is that product squared, which telescopes to n! here
    seq = make_sequence("harmonic")
    st = make_state(seq, 1.0, 10, strict=False)
    for n in range(10):
        assert abs(st.coeffs[0] / st.coeffs[n]) ** 2 == pytest.approx(
            math.factorial(n), rel=1e-13
        )


def test_factorial_rejects_zero_coefficient():
    # b_3 = 0: level 4 is unreachable, so the product up to level 4 is undefined;
    # at dim 3 and 4 the zero lies among the edge ratios past the kept levels,
    # where it was a bare ZeroDivisionError
    seq = custom_sequence(lambda n: 0.0 if n == 3 else 1.0)
    for dim in (3, 4, 5):
        with pytest.raises(ZeroCoefficientError, match="b_3 = 0"):
            make_state(seq, 0.5, dim, strict=False)


# -- normalization series --

def test_harmonic_normalization_is_exponential():
    seq = make_sequence("harmonic")
    for r2 in (0.0, 0.25, 1.0, 2.5):
        assert normalization(seq, r2) == pytest.approx(math.exp(r2), rel=1e-10)


def test_normalization_partial_sum_matches_explicit_route():
    seq = make_sequence("harmonic")
    r2 = 0.49
    explicit = sum(r2**n / math.factorial(n) for n in range(30))
    partial = make_state(seq, math.sqrt(r2), 30, strict=False).norm_constant
    assert partial == pytest.approx(explicit, rel=1e-11)
    # 30 terms of the exponential series carry a tail below 1e-12 here
    assert normalization(seq, r2) == pytest.approx(explicit, rel=1e-11)


def test_normalization_divergence_detected():
    golden = make_sequence("fibonacci-golden")
    with pytest.raises(DivergenceError):
        normalization(golden, 0.09)
    # a partial sum at fixed depth has no convergence requirement
    assert math.isfinite(make_state(golden, 0.3, 24).norm_constant)


def test_normalization_validation():
    seq = make_sequence("harmonic")
    with pytest.raises(Exception):
        normalization(seq, -1.0)
    bad = custom_sequence(lambda n: 0.0 if n == 2 else 1.0)
    with pytest.raises(ZeroCoefficientError):
        normalization(bad, 0.5)
    for r2 in (math.nan, math.inf):
        with pytest.raises(ParameterDomainError, match="r2"):
            normalization(seq, r2)


# -- state construction --

def test_vacuum_state():
    for name in ("harmonic", "fibonacci-golden", "chebyshev-u"):
        seq = make_sequence(name)
        st = make_state(seq, 0.0, 8)
        assert st.coeffs[0] == 1.0
        assert np.all(st.coeffs[1:] == 0.0)
        assert st.norm_constant == 1.0
        assert st.log_norm_constant == 0.0
        assert st.tail_bound == 0.0
        assert st.convergent
        assert eigen_residual(st, seq) == 0.0


def test_glauber_coefficients():
    # c_n = e^{-r^2/2} z^n / sqrt(n!) for the undeformed oscillator
    seq = make_sequence("harmonic")
    z = 0.6 + 0.35j
    st = make_state(seq, z, 64)
    r2 = abs(z) ** 2
    assert st.norm_constant == pytest.approx(math.exp(r2), rel=1e-10)
    for n in range(20):
        want = math.exp(-r2 / 2.0) * z**n / math.sqrt(math.factorial(n))
        assert st.coeffs[n] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_states_are_normalized():
    cases = [
        (make_sequence("harmonic"), 0.6 + 0.35j, 64),
        (make_sequence("fibonacci-golden"), 0.3, 48),
        (make_sequence("chebyshev-t"), 0.5, 64),
    ]
    for seq, z, dim in cases:
        st = make_state(seq, z, dim)
        assert np.sum(np.abs(st.coeffs) ** 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("z", [0.3, 1.0, -0.7 + 0.5j, 1j])
def test_harmonic_eigen_residual_small(z):
    seq = make_sequence("harmonic")
    st = make_state(seq, z, 64)
    assert eigen_residual(st, seq) < 1e-10


def test_golden_state_flags_divergence_without_raising():
    seq = make_sequence("fibonacci-golden")
    st = make_state(seq, 0.3, 48)  # strict default: no TruncationError
    assert not st.convergent
    assert st.tail_bound == math.inf
    assert math.isinf(st.norm_constant)
    assert math.isfinite(st.log_norm_constant)
    assert eigen_residual(st, seq) < 1e-8


def test_truncation_error_carries_usable_suggestion():
    seq = make_sequence("harmonic")
    with pytest.raises(TruncationError) as exc:
        make_state(seq, 2.0, 8)
    suggested = exc.value.suggested_dim
    assert suggested > 8
    st = make_state(seq, 2.0, suggested)
    assert st.tail_bound <= 1e-12


def test_strict_flag_disables_truncation_error():
    seq = make_sequence("harmonic")
    st = make_state(seq, 2.0, 12, strict=False)
    assert st.convergent
    assert st.tail_bound > 1e-12
    # interior coordinates still solve the eigenvector recurrence exactly
    assert eigen_residual(st, seq) < 1e-10


def test_make_state_validation():
    seq = make_sequence("harmonic")
    with pytest.raises(DimensionError):
        make_state(seq, 0.5, 1)
    bad = custom_sequence(lambda n: 0.0 if n == 3 else 1.0)
    with pytest.raises(ZeroCoefficientError):
        make_state(bad, 0.5, 8)
    # z = nan was called convergent with NaN coefficients, z = inf gave a NaN row
    for z in (math.nan, math.inf, complex(0.5, math.nan)):
        with pytest.raises(ParameterDomainError, match="z"):
            make_state(seq, z, 8)
    for tol in (math.nan, math.inf, -1.0):
        with pytest.raises(ParameterDomainError, match="tol"):
            make_state(seq, 0.5, 8, tol)
    # |z|^2 past the double range was a bare OverflowError
    for z in (1e200, 1e200j, -1.4e154):
        with pytest.raises(ParameterDomainError, match="z"):
            make_state(seq, z, 8)
    assert make_state(seq, 1e150, 8).dim == 8


def test_truncation_error_without_finite_suggestion():
    # no finite dim meets tol = 0; the strict default was a bare math domain error
    seq = make_sequence("harmonic")
    with pytest.raises(TruncationError) as exc:
        make_state(seq, 3.0, 16, tol=0.0)
    assert exc.value.suggested_dim is None
    assert make_state(seq, 3.0, 16, tol=0.0, strict=False).tail_bound > 0.0


# -- observables --

def test_vacuum_saturates_uncertainty_bound():
    seq = make_sequence("harmonic")
    dx, dp, bound = uncertainty(make_state(seq, 0.0, 16), seq)
    assert dx == dp
    assert dx * dp == pytest.approx(0.5, rel=1e-14)
    assert dx * dp == pytest.approx(bound, rel=1e-14)


def test_glauber_states_saturate_uncertainty_bound():
    seq = make_sequence("harmonic")
    for z in (0.4, 0.6 + 0.35j, -0.9j):
        st = make_state(seq, z, 64)
        dx, dp, bound = uncertainty(st, seq)
        assert abs(dx * dp - bound) < 1e-9


def test_uncertainty_principle_holds_for_deformed_states():
    for name, z, dim in (
        ("fibonacci-golden", 0.3, 48),
        ("chebyshev-t", 0.5, 64),
        ("laguerre", 0.4, 64),
    ):
        seq = make_sequence(name)
        st = make_state(seq, z, dim, strict=False)
        dx, dp, bound = uncertainty(st, seq)
        assert dx * dp >= bound - 1e-12


def test_uncertainty_keeps_robertson_bound_when_a_n_dominates_b_n():
    # <X^2> - <X>^2 cancelled catastrophically: dx dp fell below the bound
    # from alpha 1e12 and was 0.0 from 1e20
    for alpha in (1e6, 1e12, 1e20, 1e150):
        seq = make_sequence("laguerre", {"alpha": alpha})
        dx, dp, bound = uncertainty(make_state(seq, 0.5, 8, strict=False), seq)
        assert dx * dp >= bound * (1 - 1e-12), alpha


# -- serialization --

def test_state_dict_masks_non_finite_values():
    seq = make_sequence("fibonacci-golden")
    st = make_state(seq, 0.3, 48)
    d = state_to_dict(st, residual=eigen_residual(st, seq))
    assert d["norm_constant"] is None
    assert d["tail_bound"] is None
    assert d["convergent"] is False
    assert math.isfinite(d["log_norm_constant"])
    assert isinstance(d["residual"], float)
    assert len(d["coeffs"]) == 48


def test_state_dict_round_trips_finite_values():
    seq = make_sequence("harmonic")
    st = make_state(seq, 0.5, 32)
    d = state_to_dict(st)
    assert d["norm_constant"] == pytest.approx(math.exp(0.25), rel=1e-10)
    assert d["residual"] is None
    assert d["z"] == [0.5, 0.0]
