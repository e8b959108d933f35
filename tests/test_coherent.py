"""Tests for annihilation-operator eigenstates and their normalization."""

import math
from itertools import accumulate

import numpy as np
import pytest

from defosc import (
    DimensionError,
    DivergenceError,
    NonPositiveDefiniteError,
    ParameterDomainError,
    TruncationError,
    ZeroCoefficientError,
    custom_sequence,
    family_names,
    make_sequence,
)
from defosc.coherent import (
    eigen_residual,
    make_state,
    normalization,
    state_to_dict,
    uncertainty,
)
from defosc.oscillator import build_operators


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
    # at dim 3 and 4 no kept level uses b_3, and nothing past them is read
    seq = custom_sequence(lambda n: 0.0 if n == 3 else 1.0)
    for dim in (3, 4):
        assert not make_state(seq, 0.5, dim, strict=False).convergent
    with pytest.raises(ZeroCoefficientError, match="b_3 = 0"):
        make_state(seq, 0.5, 5, strict=False)


def test_zero_coefficient_message_names_underflow():
    # b_386 = 2.2e-162 and b_387 underflows to 0.0; the message called the
    # level unreachable as if b_387 were a true zero
    with pytest.raises(ZeroCoefficientError, match="b_387 = 0 in double precision") as exc:
        make_state(make_sequence("fibonacci-golden"), 0.3, 400)
    assert "underflow" in str(exc.value)


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
    # |z|^2 = 1e300 < R^2 = inf: convergent, and dim 8 holds none of it
    with pytest.raises(TruncationError) as exc:
        make_state(seq, 1e150, 8)
    assert exc.value.suggested_dim is None
    assert make_state(seq, 1e150, 8, strict=False).dim == 8


def test_truncation_error_without_finite_suggestion():
    # no finite dim meets tol = 0; the strict default was a bare math domain error
    seq = make_sequence("harmonic")
    with pytest.raises(TruncationError) as exc:
        make_state(seq, 3.0, 16, tol=0.0)
    assert exc.value.suggested_dim is None
    assert make_state(seq, 3.0, 16, tol=0.0, strict=False).tail_bound > 0.0


# -- convergence from the radius R^2 = lim 2 b_n^2 --

RADIUS_SQ = {
    "harmonic": math.inf,
    "chebyshev-t": 0.5,
    "chebyshev-u": 0.5,
    "laguerre": math.inf,
    "little-q-jacobi": 0.0,
    "fibonacci-golden": 0.0,
    "ismail-theta": 0.0,
}

FAMILY_INSTANCES = [
    ("harmonic", {}),
    ("chebyshev-t", {}),
    ("chebyshev-u", {}),
    ("laguerre", {}),
    ("laguerre", {"alpha": -0.5}),
    ("little-q-jacobi", {"a": 0.3, "b": 0.6, "q": 0.99}),
    ("little-q-jacobi", {"a": 0.5, "b": 0.5, "q": 0.5}),
    ("fibonacci-golden", {}),
    ("ismail-theta", {"theta": 0.05}),
    ("ismail-theta", {"theta": 0.7}),
]


def test_radius_matches_far_coefficients():
    assert {name for name, _ in FAMILY_INSTANCES} == set(RADIUS_SQ) == set(family_names())
    for name, params in FAMILY_INSTANCES:
        seq = make_sequence(name, params)
        assert seq.radius_sq == RADIUS_SQ[name]
        far = 2.0 * seq.b_squared(4095)
        if seq.radius_sq == math.inf:
            assert far >= 4096.0
        elif seq.radius_sq == 0.5:
            assert far == 0.5
        elif params.get("q") != 0.99:  # there 2 b_4095^2 is still near 1e-36
            assert far < 1e-300, (name, params)


@pytest.mark.parametrize("name, params", FAMILY_INSTANCES)
def test_convergent_iff_inside_radius(name, params):
    # the verdict came from 32 edge ratios: harmonic and Laguerre were divergent
    # once |z|^2 >= 2 b_{dim-1}^2, slowly decaying q-families convergent at small |z|
    seq = make_sequence(name, params)
    r2_limit = RADIUS_SQ[name]
    for dim in (2, 3, 8, 64, 256):
        edge = 2.0 * seq.b_squared(dim - 1)
        radii = [1e-6, 0.3, 1.0, 30.0, math.sqrt(edge) * 0.999, math.sqrt(edge) * 1.001]
        if r2_limit == 0.5:
            radii += [math.sqrt(0.5) * 0.999, math.sqrt(0.5) * 1.001]
        for r in radii:
            z = r * complex(0.6, 0.8)
            st = make_state(seq, z, dim, strict=False)
            assert st.convergent == (abs(z) ** 2 < r2_limit), (dim, r)
            if not st.convergent:
                assert st.tail_bound == math.inf
            elif abs(z) ** 2 >= edge:
                assert st.tail_bound == 1.0
            else:
                assert 0.0 <= st.tail_bound < 1.0


def test_convergent_state_past_the_edge_ratio():
    # |z|^2 = 900 >= 2 b_63^2 = 64: the series converges, but no geometric
    # bound starts at the edge, so the tail bound is the trivial 1.0
    seq = make_sequence("harmonic")
    st = make_state(seq, 30.0, 64, strict=False)
    assert st.convergent
    assert st.tail_bound == 1.0
    with pytest.raises(TruncationError) as exc:
        make_state(seq, 30.0, 64)
    assert exc.value.suggested_dim is None


def test_slowly_decaying_q_family_diverges_at_small_z():
    seq = make_sequence("little-q-jacobi", {"a": 0.3, "b": 0.6, "q": 0.99})
    st = make_state(seq, 1e-6, 8)
    assert not st.convergent
    assert st.tail_bound == math.inf


def test_custom_sequence_is_divergent_and_read_only_to_the_last_kept_level():
    calls = []

    def b_fn(n):
        calls.append(n)
        return 1.0

    st = make_state(custom_sequence(b_fn), 0.5, 8)
    assert not st.convergent
    assert st.tail_bound == math.inf
    assert sorted(calls) == list(range(7))  # b_0 .. b_{dim-2}


def test_underflowing_q_family_is_read_only_to_its_first_zero_coefficient(monkeypatch):
    seq = make_sequence("fibonacci-golden")
    evaluated = []
    b_fn = seq._b_fn

    def counted(ns):
        for n, value in zip(ns, b_fn(ns)):
            evaluated.append(n)
            yield value

    monkeypatch.setattr(seq, "_b_fn", counted)
    with pytest.raises(ZeroCoefficientError, match="b_387 = 0"):
        make_state(seq, 0.5, 16384)
    # b_0 .. b_387 and at most one window past it, not the 16383 of the section
    assert evaluated == list(range(len(evaluated)))
    assert 388 <= len(evaluated) < 1024


_RAISE = object()


def _b_with(levels, calls=None):
    """b_n = 1 except where `levels` says; _RAISE fails the read of that index."""

    def b_fn(n):
        if calls is not None:
            calls.append(n)
        value = levels.get(n, 1.0)
        if value is _RAISE:
            raise NonPositiveDefiniteError(f"b_{n} undefined")
        return value

    return b_fn


def test_true_zero_ends_the_state_before_a_later_failing_index():
    # b = q^-6 makes C_6 = 0, so b_5 = 0 exactly, and A_6 C_7 < 0 above it:
    # the window that reads both must still report the zero
    seq = make_sequence("little-q-jacobi", {"a": -0.5, "b": 64.0, "q": 0.5})
    with pytest.raises(ZeroCoefficientError, match="b_5 = 0"):
        make_state(seq, 0.5, 64)
    with pytest.raises(NonPositiveDefiniteError, match=r"A_6\*C_7"):
        seq.b(6)
    # the same inside a later window (levels 64 .. 191), and a bad b_k first
    for bad, error, match in (
        (0.0, ZeroCoefficientError, "b_100 = 0"),
        (-1.0, ParameterDomainError, "b_100 = -1.0"),
    ):
        seq = custom_sequence(_b_with({100: bad, 150: _RAISE}))
        with pytest.raises(error, match=match):
            make_state(seq, 0.5, 1024)
        with pytest.raises(NonPositiveDefiniteError, match="b_150"):
            seq.b(150)
    # of two zeros in one window the first is named
    with pytest.raises(ZeroCoefficientError, match="b_70 = 0"):
        make_state(custom_sequence(_b_with({70: 0.0, 100: 0.0})), 0.5, 1024)
    # a failing index with no bad level below it raises its own error
    with pytest.raises(NonPositiveDefiniteError, match="b_150"):
        make_state(custom_sequence(_b_with({150: _RAISE})), 0.5, 1024)


@pytest.mark.parametrize("k, read", [(63, 64), (64, 192), (191, 192), (192, 448), (447, 448)])
def test_zero_at_a_window_edge_ends_the_state_with_its_window(k, read):
    # windows read levels [0, 64), [64, 192), [192, 448), ...; each is scanned
    # on its new levels only, so a zero on either side of an edge must be seen
    # in its own window and no later one may be read
    calls = []
    with pytest.raises(ZeroCoefficientError, match=f"b_{k} = 0"):
        make_state(custom_sequence(_b_with({k: 0.0}, calls)), 0.5, 4096)
    assert calls == list(range(read))


@pytest.mark.parametrize("bad", [-0.5, -math.inf, math.nan, math.inf, 1.7e308])
def test_make_state_rejects_a_coefficient_outside_the_canonical_gauge(bad):
    # a negative b_k was a bare "math domain error", a NaN one an all-NaN state,
    # an infinite one zeroed every level above k, and a b_k whose sqrt(2) b_k
    # overflows did the same; a later zero does not hide the earlier bad level
    seq = custom_sequence(_b_with({5: bad, 300: 0.0}))
    for dim in (7, 1024):
        with pytest.raises(ParameterDomainError, match=r"b_5 = .*canonical gauge b_n >= 0"):
            make_state(seq, 0.5, dim)
    # below the bad level the state is built
    assert make_state(seq, 0.5, 6).dim == 6


# -- bit pins against the per-index formulas --

PIN_FAMILIES = {
    "harmonic": {},
    "chebyshev-t": {},
    "chebyshev-u": {},
    "laguerre": {"alpha": 0.5},
    "little-q-jacobi": {"a": 0.3, "b": 0.6, "q": 0.99},
    "fibonacci-golden": {},
    "ismail-theta": {"theta": 0.7},
}
# the phase powers of 1j and -1 have a part at or near 0, whose sign the product
# with an underflowing amplitude shows; |z| = 0.7 and 0.71 lie on either side of
# the Chebyshev radius sqrt(1/2), and every |z| > 0 lies past the q-family radius 0
PIN_ZS = (0.3, 1j, -1.0, -0.7 + 0.5j, 0.7, 0.71j, 2.5, 30.0, 1e-6)


def _reference_state(seq, z, dim):
    """The fields of make_state(seq, z, dim, strict=False) by per-index formulas.

    Logs are taken one b_k at a time and summed by itertools.accumulate, and
    the phase is raised over every level.  Returns (coeffs, norm_constant,
    log_norm_constant, tail_bound, convergent, amplitudes |c_n|), or None where
    a b_k is 0.0.
    """
    b_vals = seq.b_values(dim - 1)
    if 0.0 in b_vals:
        return None
    z = complex(z)
    args = [math.sqrt(2.0) * b for b in b_vals]
    terms = [math.log(v) for v in args]
    vector_terms = np.log(np.array(args)).tolist()
    if vector_terms != terms:
        # numpy's vector log may round a few inputs differently from libm's:
        # bound it, and pin the rest of the pipeline on numpy's terms
        assert np.allclose(vector_terms, terms, rtol=4 * np.finfo(float).eps, atol=0.0)
        terms = vector_terms
    logs = np.empty(dim)
    logs[0] = 0.0
    logs[1:] = np.arange(1, dim) * math.log(abs(z)) - np.fromiter(accumulate(terms), float, dim - 1)
    shift = float(logs.max())
    scaled = np.exp(logs - shift)
    sum_sq = float(np.dot(scaled, scaled))
    # a named operand: numpy would reuse a temporary of 16384 or more complex
    # entries in place, whose loop signs underflowed imaginary parts differently
    amps = scaled / math.sqrt(sum_sq)
    phases = (z / abs(z)) ** np.arange(dim)
    coeffs = amps * phases
    log_norm = 2.0 * shift + math.log(sum_sq)
    try:
        norm = math.exp(log_norm)
    except OverflowError:
        norm = math.inf
    r2 = abs(z) ** 2
    convergent = r2 < seq.radius_sq
    tail = math.inf
    if convergent:
        rho = r2 / (2.0 * seq.b_squared(dim - 1))
        tail = 1.0
        if rho < 1.0:
            tail_scaled = float(scaled[dim - 1] ** 2) * rho / (1.0 - rho)
            tail = tail_scaled / (sum_sq + tail_scaled)
    return coeffs, norm, log_norm, tail, convergent, amps


@pytest.mark.parametrize("name", sorted(PIN_FAMILIES))
def test_state_matches_the_per_index_formulas_bit_for_bit(name):
    seq = make_sequence(name, PIN_FAMILIES[name])
    for dim in (2, 64, 101, 1024, 16384):
        for z in PIN_ZS:
            ref = _reference_state(seq, z, dim)
            if ref is None:
                with pytest.raises(ZeroCoefficientError):
                    make_state(seq, z, dim, strict=False)
                continue
            want, norm, log_norm, tail, convergent, amps = ref
            st = make_state(seq, z, dim, strict=False)
            fields = (st.norm_constant, st.log_norm_constant, st.tail_bound, st.convergent)
            assert fields == (norm, log_norm, tail, convergent), (dim, z)
            nonzero = want != 0.0
            assert np.array_equal(st.coeffs != 0.0, nonzero), (dim, z)
            assert st.coeffs[nonzero].tobytes() == want[nonzero].tobytes(), (dim, z)
            # outside the window of nonzero amplitudes every byte is 0: +0.0+0.0j
            kept = np.flatnonzero(amps)
            outside = np.concatenate((st.coeffs[: kept[0]], st.coeffs[kept[-1] + 1 :]))
            assert not any(outside.tobytes()), (dim, z)


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



def _uncertainty_by_band_matrices(state, seq):
    """uncertainty's formulas on the X and P of build_operators, applied by matvec."""
    with np.errstate(over="ignore"):  # H's 2 b_n^2 may overflow; it is not used
        ops = build_operators(seq, state.dim)
    v = state.coeffs
    xv, pv = ops.x.matvec(v), ops.p.matvec(v)
    mean_x, mean_p = float(np.vdot(v, xv).real), float(np.vdot(v, pv).real)
    cx, cp = xv - mean_x * v, pv - mean_p * v
    comm = np.vdot(v, ops.x.matvec(pv)) - np.vdot(v, ops.p.matvec(xv))
    return (
        math.sqrt(np.vdot(cx, cx).real),
        math.sqrt(np.vdot(cp, cp).real),
        float(0.5 * abs(comm)),
    )


def _bits(floats):
    """Bit patterns: == on every float, and NaN matches NaN."""
    return np.array(floats, dtype=float).tobytes()


# |z| log-spaced from 0.01 to 30 with seeded phases, plus points on both axes
_RNG = np.random.default_rng(27)
UNCERTAINTY_ZS = tuple(
    complex(r * np.exp(1j * t))
    for r, t in zip(np.geomspace(0.01, 30.0, 10), _RNG.uniform(-math.pi, math.pi, 10))
) + (0.05, 0.8j, -3.0, 0.7 - 0.2j)


def _assert_uncertainty_matches_band_matrices(seq, dims):
    compared = 0
    for dim in dims:
        for z in UNCERTAINTY_ZS:
            try:
                st = make_state(seq, z, dim, strict=False)
            except ZeroCoefficientError:
                continue  # a q-family b_k underflows below dim
            want = _uncertainty_by_band_matrices(st, seq)
            assert _bits(uncertainty(st, seq)) == _bits(want), (seq.family_id, dim, z)
            compared += 1
    return compared


@pytest.mark.parametrize("name", sorted(PIN_FAMILIES))
def test_uncertainty_matches_the_band_matrix_route_bit_for_bit(name):
    seq = make_sequence(name, PIN_FAMILIES[name])
    assert _assert_uncertainty_matches_band_matrices(seq, (2, 3, 64, 257, 4096)) > 0


def test_uncertainty_matches_the_band_matrix_route_on_custom_sequences():
    dims = (2, 3, 64, 257)
    # all-zero a_n store no diagonal, so 0 * inf never enters a product
    huge = custom_sequence(lambda n: 5e153 * (1.0 + 0.5 / (n + 1)))
    assert _assert_uncertainty_matches_band_matrices(huge, dims)
    # a_n of both signs and exact zeros
    signed = custom_sequence(
        lambda n: math.sqrt(n + 1.0), a_fn=lambda n: 0.5 * (n % 3 - 1)
    )
    assert _assert_uncertainty_matches_band_matrices(signed, dims)
    # past sqrt(max float) the products overflow to inf and the bound is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        overflowing = custom_sequence(lambda n: 1.3e154 * (1.0 + 0.5 / (n + 1)))
        assert _assert_uncertainty_matches_band_matrices(overflowing, dims)


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
