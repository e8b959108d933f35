"""Acceptance gate: one test per end-to-end criterion, at its stated tolerance.

Each test carries an `acceptance` marker; the conftest hook prints a one-line
PASS/FAIL summary per criterion after the run.
"""

import json
import math
import time

import numpy as np
import pytest

from defosc import (
    FINITE,
    GOLDEN_Q,
    INFINITE,
    classify,
    custom_sequence,
    make_sequence,
    verify_algebra,
)
from defosc.cli import main as cli_main
from defosc.coherent import eigen_residual, make_state, uncertainty
from defosc.fibonacci import (
    THETA0,
    berg_orthogonality,
    exact_inverse,
    exact_matmul,
    fib,
    fib_via_chebyshev,
    filbert_matrix,
    is_integer_matrix,
    ismail_fib,
    nu_moments,
)
from defosc.qseries import normalization_series_closed

ALGEBRA_FAMILIES = (
    ("harmonic", None),
    ("chebyshev-t", None),
    ("chebyshev-u", None),
    ("laguerre", {"alpha": 0.5}),
    ("little-q-jacobi", {"a": GOLDEN_Q, "b": 1.0, "q": GOLDEN_Q}),
)


@pytest.mark.acceptance("1 algebra relations, five families, dim 64, residuals < 1e-10")
def test_algebra_relations():
    start = time.perf_counter()
    for name, params in ALGEBRA_FAMILIES:
        report = verify_algebra(make_sequence(name, params), 64, tol=1e-10)
        for relation in report.relations:
            assert relation.interior_residual < 1e-10, (name, relation.name)
        assert report.passed, name
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"algebra verification took {elapsed:.2f}s"


@pytest.mark.acceptance("2 dimension theorem: named families + 100 random quadratics")
def test_dimension_classifier():
    lag = classify(make_sequence("laguerre", {"alpha": 0.5}), n_max=64, tol=1e-9)
    assert lag.verdict == FINITE
    assert lag.dim == 4
    assert lag.beta0 == pytest.approx(1.5, abs=1e-12)
    assert lag.beta2 == pytest.approx(1.0, abs=1e-12)

    assert classify(make_sequence("chebyshev-t"), n_max=64, tol=1e-9).verdict == INFINITE
    assert (
        classify(make_sequence("fibonacci-golden"), n_max=64, tol=1e-9).verdict
        == INFINITE
    )

    rng = np.random.default_rng(918273645)
    for _ in range(100):
        beta0 = float(rng.uniform(0.05, 6.0))
        beta2 = float(rng.uniform(0.02, 4.0))
        seq = custom_sequence(lambda n: math.sqrt((beta0 + beta2 * n) * (1.0 + n)))
        res = classify(seq, n_max=64, tol=1e-9)
        assert res.verdict == FINITE
        assert abs(res.beta0 - beta0) <= 1e-12 * max(1.0, abs(beta0))
        assert abs(res.beta2 - beta2) <= 1e-12 * max(1.0, abs(beta2))

    shifted = custom_sequence(lambda n: math.sqrt(n * n + 1.0))
    assert classify(shifted, n_max=64, tol=1e-9).verdict == INFINITE


@pytest.mark.acceptance("3 coherent states: Glauber limit and golden family")
def test_coherent_states():
    harmonic = make_sequence("harmonic")
    for z in (0.25, 0.5 + 0.5j, 1j, -1.0, 0.8 - 0.6j):
        state = make_state(harmonic, z, 64)
        r2 = abs(z) ** 2
        assert state.norm_constant == pytest.approx(math.exp(r2), rel=1e-10)
        assert eigen_residual(state, harmonic) < 1e-10
        d_x, d_p, bound = uncertainty(state, harmonic)
        assert abs(d_x * d_p - bound) < 1e-9

    golden = make_sequence("fibonacci-golden")
    for z in (0.1, 0.25j, -0.5, 0.3 + 0.4j):
        state = make_state(golden, z, 64)
        assert eigen_residual(state, golden) < 1e-8

    # the state's partial normalization sum vs the q-Pochhammer closed form
    for a, b, q, r2 in (
        (GOLDEN_Q, 1.0, GOLDEN_Q, 0.25),
        (0.5, 0.5, 0.5, 0.25),
    ):
        seq = make_sequence("little-q-jacobi", {"a": a, "b": b, "q": q})
        direct = make_state(seq, math.sqrt(r2), 24, strict=False).norm_constant
        closed = normalization_series_closed(a, b, q, r2, n_terms=24)
        assert closed == pytest.approx(direct, rel=1e-9)


@pytest.mark.acceptance("4 Fibonacci identities: integers, theta0 limit, Chebyshev route")
def test_fibonacci_identities():
    assert [fib(n) for n in range(11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    for n in range(1, 31):
        assert ismail_fib(THETA0, n) == pytest.approx(float(fib(n - 1)), rel=1e-12)
    for n in range(21):
        assert fib_via_chebyshev(n) == fib(n)


@pytest.mark.acceptance("5 Filbert matrices: integer inverses for n <= 8")
def test_filbert_integrality():
    start = time.perf_counter()
    for n in range(1, 9):
        matrix = filbert_matrix(n)
        inverse = exact_inverse(matrix)
        assert is_integer_matrix(inverse)
        product = exact_matmul(matrix, inverse)
        assert all(
            product[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n)
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"Filbert inversion took {elapsed:.2f}s"


@pytest.mark.acceptance("6 Berg orthogonality: off-diagonal Gram < 1e-8, diagonal > 0")
def test_berg_orthogonality():
    report = berg_orthogonality(6)
    assert report.diagonal_positive
    assert all(d > 0.0 for d in report.diagonal)
    for row in report.normalized_off_diagonal:
        for value in row:
            assert value < 1e-8
    assert report.max_off_diagonal < 1e-8
    # decided in exact Q(sqrt 5) arithmetic, so orthogonality holds exactly
    assert report.max_off_diagonal == 0.0


@pytest.mark.acceptance("7 nu-measure moments: truncation within the analytic tail bound")
def test_nu_moment_bounds():
    for theta in (0.5, THETA0):
        for alpha in (1, 2):
            for n in range(7):
                res = nu_moments(n, alpha, theta, K=200)
                assert res.within_bound, (n, alpha, theta)


@pytest.mark.acceptance("8 CLI determinism: byte-identical payloads across reruns")
def test_cli_determinism(tmp_path, capsys):
    commands = {
        "families": ["families"],
        "verify": ["verify", "--family", "harmonic", "--dim", "64"],
        "classify": ["classify", "--family", "fibonacci-golden"],
        "coherent": ["coherent", "--family", "harmonic", "--z", "0,0.5,0.3+0.1j", "--dim", "64"],
        "fib-numbers": ["fib", "numbers"],
        "fib-ismail": ["fib", "ismail"],
        "fib-filbert": ["fib", "filbert", "--n", "8"],
        "fib-berg": ["fib", "berg"],
    }
    for label, argv in commands.items():
        outputs = []
        for attempt in ("first", "second"):
            target = tmp_path / f"{label}.{attempt}"
            code = cli_main([*argv, "--output", str(target)])
            capsys.readouterr()
            assert code == 0, label
            outputs.append(target.read_bytes())
            # metadata (with its timestamp) must stay out of the payload
            meta = json.loads((tmp_path / f"{label}.{attempt}.meta.json").read_text())
            assert "generated_at" in meta
        assert outputs[0] == outputs[1], f"{label} payload not reproducible"
