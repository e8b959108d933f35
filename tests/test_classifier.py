"""Tests for the algebra-dimension classifier and its difference table."""

import math

import numpy as np
import pytest

from defosc import (
    FINITE,
    INCONCLUSIVE,
    INFINITE,
    ParameterDomainError,
    ZeroCoefficientError,
    classify,
    custom_sequence,
    difference_table,
    family_names,
    fit_beta,
    make_sequence,
)

_PARAMS = {
    "laguerre": {"alpha": 0.5},
    "little-q-jacobi": {"a": 0.5, "b": 0.5, "q": 0.5},
    "ismail-theta": {"theta": 0.7},
}


def _quadratic_seq(beta0, beta2):
    return custom_sequence(lambda n: math.sqrt((beta0 + beta2 * n) * (1.0 + n)))


# -- verdicts on the model families --

def test_laguerre_is_finite_with_recovered_parameters():
    res = classify(make_sequence("laguerre", {"alpha": 0.5}), n_max=64, tol=1e-9)
    assert res.verdict == FINITE
    assert res.dim == 4
    assert res.beta0 == pytest.approx(1.5, rel=1e-13)
    assert res.beta2 == pytest.approx(1.0, rel=1e-13)
    assert res.witness_j is None


def test_harmonic_is_finite_with_zero_slope():
    res = classify(make_sequence("harmonic"))
    assert res.verdict == FINITE
    assert res.beta0 == pytest.approx(0.5, rel=1e-14)
    assert res.beta2 == pytest.approx(0.0, abs=1e-14)


def test_chebyshev_t_is_infinite():
    res = classify(make_sequence("chebyshev-t"), n_max=64, tol=1e-9)
    assert res.verdict == INFINITE
    assert res.witness_j == 1
    assert res.dim is None


def test_golden_family_is_infinite():
    res = classify(make_sequence("fibonacci-golden"), n_max=64, tol=1e-9)
    assert res.verdict == INFINITE


def test_quadratic_shifted_by_one_is_infinite():
    # b_n^2 = n^2 + 1 misses the factored form even though it is quadratic
    seq = custom_sequence(lambda n: math.sqrt(n * n + 1.0))
    res = classify(seq)
    assert res.verdict == INFINITE
    assert res.witness_j == 1


def test_chebyshev_t_fit_departs_at_n_2():
    # the n = 0, 1 fit gives (1/2, -3/8); the sequence leaves it at n = 2
    seq = make_sequence("chebyshev-t")
    beta0, beta2 = fit_beta(seq)
    assert beta0 == pytest.approx(0.5, rel=1e-15)
    assert beta2 == pytest.approx(-0.375, rel=1e-15)
    for n in (0, 1):
        assert seq.b_squared(n) == pytest.approx(
            (beta0 + beta2 * n) * (1 + n), rel=1e-15
        )
    n = 2
    assert abs(seq.b_squared(n) - (beta0 + beta2 * n) * (1 + n)) > 0.1


def test_random_quadratics_are_recovered():
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        beta0 = float(rng.uniform(0.1, 5.0))
        beta2 = float(rng.uniform(0.05, 3.0))
        res = classify(_quadratic_seq(beta0, beta2), n_max=64, tol=1e-9)
        assert res.verdict == FINITE
        assert abs(res.beta0 - beta0) <= 1e-12 * max(1.0, beta0)
        assert abs(res.beta2 - beta2) <= 1e-12 * max(1.0, beta2)


def test_inconclusive_when_noise_straddles_tolerance():
    # a bump at n = 0 contaminates the fitted slope while every
    # difference-table row stays flat to within tol
    seq = custom_sequence(
        lambda n: math.sqrt(0.01 * (1 + n) + (1e-10 if n == 0 else 0.0))
    )
    res = classify(seq, n_max=64, tol=1e-9)
    assert res.verdict == INCONCLUSIVE
    assert res.fit_residual > 1e-9
    assert res.row_spreads is not None
    assert all(s <= 1e-9 for s in res.row_spreads)


def test_nan_coefficient_is_never_finite():
    # max(0.0, nan) is 0.0, so a NaN b_5 used to classify as Finite
    seq = custom_sequence(lambda n: math.nan if n == 5 else math.sqrt((n + 1) / 2))
    res = classify(seq)
    assert res.verdict == INCONCLUSIVE
    assert math.isnan(res.fit_residual)
    assert res.beta0 is None and res.dim is None
    # b_n^2 overflowed to inf past n = 0 and fed NaN to the fit; now it is
    # rejected where it is formed
    with pytest.raises(ParameterDomainError, match=r"alpha=1e\+308, n=1"):
        classify(make_sequence("laguerre", {"alpha": 1e308}))


def test_verdicts_stable_across_n_max():
    lag = make_sequence("laguerre")
    gold = make_sequence("fibonacci-golden")
    for n_max in (8, 16, 32, 64):
        assert classify(lag, n_max=n_max).verdict == FINITE
        assert classify(gold, n_max=n_max).verdict == INFINITE


@pytest.mark.parametrize("family", family_names())
def test_verdicts_do_not_depend_on_the_scale_of_b(family):
    # the factored form is unchanged by b_n^2 -> c b_n^2, so every verdict is;
    # with max(1, .) as the scale, 2^-50 b_n made every family Finite
    seq = make_sequence(family, _PARAMS.get(family))
    base = classify(seq)
    for m in (-200, -50, 50, 200):
        res = classify(custom_sequence(lambda n: 2**m * seq.b(n)))
        assert res.verdict == base.verdict, m
        assert res.witness_j == base.witness_j, m
        assert res.fit_residual == base.fit_residual, m
        assert res.row_spreads == base.row_spreads, m
        if base.verdict == FINITE:
            assert (res.beta0, res.beta2) == (4.0**m * base.beta0, 4.0**m * base.beta2), m


@pytest.mark.parametrize(
    "family, params",
    [
        ("ismail-theta", {"theta": 5.0}),
        ("ismail-theta", {"theta": 20.0}),
        ("little-q-jacobi", {"a": 1e-5, "b": 1.0, "q": 1e-5}),
    ],
)
def test_small_b_is_not_called_finite(family, params):
    # b_n^2 < 1 made both tolerances absolute: Finite, Finite and Inconclusive
    res = classify(make_sequence(family, params))
    assert res.verdict == INFINITE
    assert res.witness_j == 1


def test_all_zero_b_has_no_verdict():
    # every b_n^2 underflows at theta = 300; it was Finite with beta = 0
    with pytest.raises(ZeroCoefficientError, match="underflow"):
        classify(make_sequence("ismail-theta", {"theta": 300.0}))
    zero = custom_sequence(lambda n: 0.0)
    with pytest.raises(ZeroCoefficientError, match=r"every b_n\^2 with n <= 64 is 0"):
        classify(zero)
    # the CSV table used to print zeros for the same window
    with pytest.raises(ZeroCoefficientError, match=r"every b_n\^2 with n <= 8 is 0"):
        difference_table(zero, 8, 2)


@pytest.mark.parametrize(
    "family, params",
    [
        ("ismail-theta", {"theta": 300.0}),
        ("little-q-jacobi", {"a": 0.0, "b": 0.5, "q": 0.5}),
        ("ismail-theta", {"theta": 0.7, "alpha": 1100.0, "q": 0.5}),
    ],
)
def test_all_zero_window_has_no_table(family, params):
    seq = make_sequence(family, params)
    for n_max, j_max in ((8, 2), (64, 2), (64, 5)):
        with pytest.raises(ZeroCoefficientError, match=rf"every b_n\^2 with n <= {n_max} is 0"):
            difference_table(seq, n_max, j_max)


def test_non_integer_counts_are_rejected_where_they_enter():
    # each was a bare TypeError from range
    seq = make_sequence("harmonic")
    with pytest.raises(ParameterDomainError, match=r"^n_max must be an integer >= 8, got 64\.5$"):
        classify(seq, n_max=64.5)
    with pytest.raises(ParameterDomainError, match=r"^n_max must be an integer >= 4, got 10\.0$"):
        difference_table(seq, 10.0, 2)
    with pytest.raises(ParameterDomainError, match=r"^j_max must be an integer >= 0, got 2\.0$"):
        difference_table(seq, 10, 2.0)
    # out-of-range integers keep their messages, and numpy integers pass
    with pytest.raises(ParameterDomainError, match=r"^n_max must be >= 8, got 7$"):
        classify(seq, n_max=7)
    with pytest.raises(ParameterDomainError, match=r"^n_max must be >= j_max \+ 2, got n_max=3, j_max=2$"):
        difference_table(seq, 3, 2)
    assert classify(seq, n_max=np.int64(16)).n_max == 16
    assert len(difference_table(seq, np.int64(10), np.int32(2)).rows) == 3


def test_classify_reads_the_window_once():
    # the witness rows were rebuilt by difference_table, a second read and square
    seq = make_sequence("chebyshev-t")
    calls = []
    read = seq.b_values
    seq.b_values = lambda count: calls.append(count) or read(count)
    assert classify(seq, n_max=64).verdict == INFINITE
    assert calls == [65]


_NOISE_TOLS = (0.0, 1e-16, 1e-15)
_LAGUERRE_ALPHAS = (-0.5, 0.0, 0.5, 1.0, 2.5, 10.0, 1e3, 1e6, 1e9, 1e15, 1e100, 1e300)


@pytest.mark.parametrize("n_max", (8, 64, 1024, 16384))
def test_rounding_noise_is_no_witness(n_max):
    # harmonic --tol 0 was Infinite on row spreads of 7.7e-16 and 1.5e-15
    seqs = [make_sequence("harmonic")]
    seqs += [make_sequence("laguerre", {"alpha": a}) for a in _LAGUERRE_ALPHAS]
    for seq in seqs:
        for tol in _NOISE_TOLS:
            res = classify(seq, n_max=n_max, tol=tol)
            assert res.verdict != INFINITE, (seq, tol, res.row_spreads)


@pytest.mark.parametrize(
    "family, params",
    [
        ("chebyshev-t", None),
        ("chebyshev-u", None),
        ("fibonacci-golden", None),
        ("little-q-jacobi", {"a": 0.5, "b": 0.5, "q": 0.5}),
        ("little-q-jacobi", {"a": 1e-5, "b": 1.0, "q": 1e-5}),
        ("ismail-theta", {"theta": 0.7}),
        ("ismail-theta", {"theta": 5.0}),
        ("ismail-theta", {"theta": 20.0}),
    ],
)
def test_non_quadratic_is_infinite_at_zero_tolerance(family, params):
    res = classify(make_sequence(family, params), tol=0.0)
    assert res.verdict == INFINITE
    assert res.witness_j == 1


# -- difference table --

def test_difference_table_hand_example():
    # b_n^2 = (n+1)^2: rows (1,3,5,...), (2,2,...), (0,...)
    seq = custom_sequence(lambda n: float(n + 1))
    table = difference_table(seq, 5, 2)
    assert table.rows == ((1.0, 3.0, 5.0, 7.0, 9.0, 11.0), (2.0,) * 5, (0.0,) * 4)
    assert table.scale == 36.0
    assert table.spread(1) == 0.0
    assert table.spread(2) == 0.0
    assert table.spread(0) > 0.0


def test_harmonic_row_zero_is_constant_half():
    table = difference_table(make_sequence("harmonic"), 10, 2)
    assert table.rows[0] == pytest.approx([0.5] * 11, rel=1e-14)


def test_laguerre_row_one_is_constant_two():
    table = difference_table(make_sequence("laguerre", {"alpha": 0.5}), 10, 2)
    assert table.rows[1] == pytest.approx([2.0] * 10, rel=1e-13)


def test_rows_iterate_forward_differences():
    table = difference_table(make_sequence("chebyshev-t"), 8, 2)
    for j in (1, 2):
        upper = table.rows[j - 1]
        assert table.rows[j] == pytest.approx(np.diff(upper), rel=1e-14, abs=1e-14)


def test_table_lengths_and_csv():
    table = difference_table(make_sequence("harmonic"), 6, 2)
    assert [len(row) for row in table.rows] == [7, 6, 5]
    rows = list(table.csv_rows())
    assert len(rows) == 7 + 6 + 5
    assert rows[0][:2] == (0, 0)
    assert rows[0][2] == pytest.approx(0.5, rel=1e-14)


# -- validation and reporting --

def test_parameter_validation():
    seq = make_sequence("harmonic")
    with pytest.raises(ParameterDomainError):
        classify(seq, n_max=7)
    # tol = nan made every sequence Infinite, tol = inf every one Finite
    for tol in (math.nan, math.inf, -1e-9):
        with pytest.raises(ParameterDomainError, match="tol"):
            classify(seq, tol=tol)
    with pytest.raises(ParameterDomainError):
        difference_table(seq, 3, 2)
    with pytest.raises(ParameterDomainError):
        difference_table(seq, 5, -1)


def test_result_dict_round_trip():
    res = classify(make_sequence("laguerre"))
    d = res.to_dict()
    assert d["verdict"] == FINITE
    assert d["dim"] == 4
    assert d["witness_j"] is None
    inf = classify(make_sequence("chebyshev-t")).to_dict()
    assert inf["verdict"] == INFINITE
    assert inf["witness_j"] == 1
    assert len(inf["row_spreads"]) == 2
