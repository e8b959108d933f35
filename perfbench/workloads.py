"""The four workloads: inputs drawn from the seed, ops, and the oracle for each op.

A workload builds its inputs once (`setup`): the list of ops that makes one
cycle.  The benchmark only ever runs whole cycles, so every
run of a workload measures the same mix of op kinds and sizes; the seed moves
parameter values, z points and the op order, not the cost structure.

An op's `run` is the timed call into the library.  Its `check` runs after the
clock stops and compares the result with a reference from `oracle`.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import oracle

DIMS = (1024, 4096, 16384)
SCAN_DIMS = (64, 128, 256)


@dataclass
class Op:
    run: Callable[[], Any]
    check: Callable[[Any, BaseException | None], "str | None"]


def family_instances(rng: random.Random, q_lo: float, q_hi: float, theta_lo: float, theta_hi: float):
    """All 7 registered families: a reference point and a seeded in-domain point
    for each parametric family, one instance for each fixed family."""
    return [
        ("harmonic", {}),
        ("chebyshev-t", {}),
        ("chebyshev-u", {}),
        ("fibonacci-golden", {}),
        ("laguerre", {"alpha": 0.5}),
        ("laguerre", {"alpha": rng.uniform(0.1, 3.0)}),
        ("little-q-jacobi", {"a": 0.5, "b": 0.5, "q": 0.5}),
        ("little-q-jacobi", {"a": rng.uniform(0.1, 0.9), "b": rng.uniform(0.1, 0.9), "q": rng.uniform(q_lo, q_hi)}),
        ("ismail-theta", {"theta": oracle.THETA0, "alpha": 2}),
        ("ismail-theta", {"theta": rng.uniform(theta_lo, theta_hi), "alpha": rng.choice((2, 4))}),
    ]


def _seeded_z(rng: random.Random, modulus: float) -> complex:
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return complex(modulus * math.cos(phase), modulus * math.sin(phase))


def _state_op(lib, seq_of: Callable, family: str, params: dict, z: complex, dim: int) -> Op:
    coherent = lib.coherent

    def run():
        seq = seq_of()
        state = coherent.make_state(seq, z, dim, strict=False)
        return state, coherent.eigen_residual(state, seq), coherent.uncertainty(state, seq)

    return Op(run, lambda out, exc: oracle.check_state(family, params, z, dim, out, exc))


# -- large_dim -------------------------------------------------------------------


class LargeDim:
    """Cold coefficient generation and band arithmetic at dim 1024 to 16384."""

    name = "large_dim"
    in_process = True

    def setup(self, lib, seed: int, out_dir: Path):
        rng = random.Random(seed)
        instances = family_instances(rng, 0.3, 0.6, 0.3, 0.6)
        ops = []
        for family, params in instances:
            for dim in DIMS:
                ops.extend(self._ops(lib, rng, family, params, dim))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _ops(lib, rng, family, params, dim):
        rec, osc, cls = lib.recurrence, lib.oscillator, lib.classifier

        def fresh():
            return rec.make_sequence(family, params)

        z = _seeded_z(rng, rng.uniform(0.1, 3.0))
        return [
            Op(lambda: osc.verify_algebra(fresh(), dim),
               lambda out, exc: oracle.check_verify(family, dim, out, exc)),
            Op(lambda: cls.classify(fresh(), n_max=dim),
               lambda out, exc: oracle.check_classify(family, params, out, exc)),
            _state_op(lib, fresh, family, params, z, dim),
        ]


# -- small_scan --------------------------------------------------------------------


class SmallScan:
    """Coherent z-grid scans on sequences built once, a dim-64 parameter sweep
    and q-series evaluations: coefficients come from the memo cache."""

    name = "small_scan"
    in_process = True

    def setup(self, lib, seed: int, out_dir: Path):
        rng = random.Random(seed)
        rec = lib.recurrence
        ops = []
        for family, params in family_instances(rng, 0.35, 0.6, 0.3, 0.5):
            seq = rec.make_sequence(family, params)
            for dim in SCAN_DIMS:
                for k in range(8):
                    modulus = 0.01 * 3000.0 ** (k / 7) * math.exp(rng.uniform(-0.1, 0.1))
                    z = _seeded_z(rng, modulus)
                    ops.append(_state_op(lib, lambda seq=seq: seq, family, params, z, dim))
        ops.extend(self._sweep(lib, rng))
        ops.extend(self._series(lib, rng))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _sweep(lib, rng):
        rec, osc, cls = lib.recurrence, lib.oscillator, lib.classifier
        points = []
        for _ in range(4):
            points.append(("laguerre", {"alpha": rng.uniform(-0.5, 5.0)}))
            points.append(("little-q-jacobi", {"a": rng.uniform(0.05, 0.95), "b": rng.uniform(0.05, 0.95),
                                               "q": rng.uniform(0.1, 0.9)}))
            points.append(("ismail-theta", {"theta": rng.uniform(0.1, 1.5), "alpha": rng.choice((2, 4))}))
        ops = []
        for family, params in points:
            def run(family=family, params=params):
                seq = rec.make_sequence(family, params)
                return osc.verify_algebra(seq, 64), cls.classify(seq, n_max=64)

            def check(out, exc, family=family, params=params):
                if exc is not None:
                    return oracle.check_verify(family, 64, None, exc)
                return oracle.check_verify(family, 64, out[0], None) or oracle.check_classify(
                    family, params, out[1], None)

            ops.append(Op(run, check))
        return ops

    @staticmethod
    def _series(lib, rng):
        qs = lib.qseries
        ops = []
        for _ in range(6):
            params = {"a": rng.uniform(0.2, 0.9), "b": rng.uniform(0.2, 0.9), "q": rng.uniform(0.4, 0.9)}
            r2, n_terms = rng.uniform(0.01, 0.5), rng.choice((12, 16, 20, 24))
            ops.append(Op(
                lambda p=params, r2=r2, n=n_terms: qs.normalization_series_closed(p["a"], p["b"], p["q"], r2, n),
                lambda out, exc, p=params, r2=r2, n=n_terms: oracle.check_normalization_series(p, r2, n, out, exc),
            ))
            a = rng.uniform(-1.5, 1.5)
            q = rng.choice((-1, 1)) * rng.uniform(0.2, 0.7)
            z = rng.choice((-1, 1)) * rng.uniform(0.05, 0.6)
            spec = qs.HyperSeriesSpec((a,), (), q, z)
            ops.append(Op(
                lambda spec=spec: qs.basic_hypergeometric(spec),
                lambda out, exc, a=a, q=q, z=z: oracle.check_phi_10(a, q, z, out, exc),
            ))
            a, b, c = rng.uniform(1.5, 3.0), rng.uniform(1.5, 3.0), rng.uniform(0.1, 0.9)
            q = rng.uniform(0.2, 0.7)
            spec = qs.HyperSeriesSpec((a, b), (c,), q, c / (a * b))
            ops.append(Op(
                lambda spec=spec: qs.basic_hypergeometric(spec),
                lambda out, exc, a=a, b=b, c=c, q=q: oracle.check_phi_21(a, b, c, q, out, exc),
            ))
        return ops


# -- exact_fib ---------------------------------------------------------------------


class ExactFib:
    """Exact Fraction / big-integer / mpmath work of the Fibonacci suite."""

    name = "exact_fib"
    in_process = True

    # (n, alpha) points of the nu-moment grid that also run at the larger K;
    # fixed so that every seed has the same precision (and cost) profile
    NU_K1000 = tuple((n, 1 + n % 2) for n in range(7))
    NU_K2000 = ((0, 1), (6, 2))

    def setup(self, lib, seed: int, out_dir: Path):
        rng = random.Random(seed)
        fibm = lib.fibonacci
        ops = []
        for exp10 in (3, 4, 5, 6):
            n = 10**exp10 - rng.randrange(1000)
            ops.append(Op(lambda n=n: fibm.fib(n), lambda out, exc, n=n: oracle.check_fib(n, out, exc)))
        for i in range(8):
            theta = oracle.THETA0 if i == 0 else rng.uniform(0.2, 1.5)
            n = rng.randint(1, 60)
            ops.append(Op(lambda t=theta, n=n: fibm.ismail_fib(t, n),
                          lambda out, exc, t=theta, n=n: oracle.check_ismail(t, n, out, exc)))
        for n in (8, 16, 24, 32):
            row = rng.randint(1, n)

            def filbert(n=n):
                matrix = fibm.filbert_matrix(n)
                inverse = fibm.exact_inverse(matrix)
                return inverse, fibm.exact_matmul(matrix, inverse)

            ops.append(Op(filbert, lambda out, exc, n=n, row=row: oracle.check_filbert(n, row, out, exc)))
        for n_max in (6, 8, 10, 12, 14, 16):
            ops.append(Op(lambda m=n_max: fibm.berg_orthogonality(m),
                          lambda out, exc, m=n_max: oracle.check_berg(m, out, exc)))
        grid = [(n, alpha, theta, K) for K in (200, 500) for theta in (0.5, oracle.THETA0)
                for alpha in (1, 2) for n in range(7)]
        grid += [(n, alpha, rng.choice((0.5, oracle.THETA0)), 1000) for n, alpha in self.NU_K1000]
        grid += [(n, alpha, rng.choice((0.5, oracle.THETA0)), 2000) for n, alpha in self.NU_K2000]
        for n, alpha, theta, K in grid:
            ops.append(Op(lambda n=n, a=alpha, t=theta, K=K: fibm.nu_moments(n, a, t, K=K),
                          lambda out, exc, n=n, a=alpha, t=theta, K=K: oracle.check_nu(n, a, t, K, out, exc)))
        rng.shuffle(ops)
        return ops


# -- cli -----------------------------------------------------------------------------

CSV_HEADERS = {
    "families": "family,symmetric,param,default,minimum,maximum,required,description",
    "verify": "relation,interior_residual,boundary_residual,passed",
    "classify": "j,n,value",
    "coherent": "z,norm_constant,log_norm_constant,residual,dx_dp,bound,convergent,truncation_ok",
    "fib-numbers": "n,value",
    "fib-ismail": "n,closed_form,recurrence,rel_diff",
    "fib-filbert": "n,integer_inverse,product_is_identity",
    "fib-berg": "m,n,normalized_gram",
}


def cli_commands(rng: random.Random, out_dir: Path) -> list[tuple[str, list[str]]]:
    """Every subcommand and fib subaction at README sizes, seeded where a value is free.

    Family parameters of the verify and coherent commands go through --config
    files, so config merging runs too.
    """
    laguerre_cfg = out_dir / "laguerre.config.json"
    laguerre_cfg.write_text(json.dumps({"family": "laguerre", "alpha": round(rng.uniform(0.25, 2.0), 6), "dim": 64}))
    zs = ",".join(f"{z.real:.6f}{z.imag:+.6f}j" for z in (_seeded_z(rng, rng.uniform(0.1, 1.5)) for _ in range(3)))
    coherent_cfg = out_dir / "coherent.config.json"
    coherent_cfg.write_text(json.dumps({"family": "harmonic", "z": zs, "dim": 64}))
    commands = [
        ("families", ["families"]),
        ("verify", ["verify", "--config", str(laguerre_cfg)]),
        ("verify", ["verify", "--family", "little-q-jacobi", "--a", "q", "--b", "1", "--q", "golden",
                    "--tol", "1e-10"]),
        ("classify", ["classify", "--family", "fibonacci-golden", "--nmax", "64"]),
        ("coherent", ["coherent", "--config", str(coherent_cfg)]),
        ("fib-numbers", ["fib", "numbers", "--n", str(rng.randint(10, 40))]),
        ("fib-ismail", ["fib", "ismail", "--theta", repr(round(rng.uniform(0.3, 1.2), 6)), "--n", "20"]),
        ("fib-filbert", ["fib", "filbert", "--n", "8"]),
        ("fib-berg", ["fib", "berg", "--nmax", "6"]),
    ]
    return [(schema, [*argv, "--format", fmt]) for schema, argv in commands for fmt in ("json", "csv")]


def check_cli_output(schema: str, argv: list[str], path: Path, code: int, reference: dict) -> str | None:
    """Exit 0, payload parses to its schema, sidecar present, bytes equal to the first run."""
    if code != 0:
        return f"cli_exit_{code}:{schema}"
    payload = path.read_bytes()
    key = " ".join(argv)
    if reference.setdefault(key, payload) != payload:
        return f"cli_payload_not_reproducible:{schema}"
    meta = json.loads(Path(str(path) + ".meta.json").read_text())
    if "generated_at" not in meta or meta.get("argv", [None])[0] != "defosc":
        return f"cli_bad_sidecar:{schema}"
    if argv[-1] == "json":
        doc = json.loads(payload)
        if doc.get("schema") != f"defosc.{schema}.v1" or doc.get("passed", True) is not True:
            return f"cli_bad_payload:{schema}"
    elif payload.decode().splitlines()[0] != CSV_HEADERS[schema]:
        return f"cli_bad_csv_header:{schema}"
    return None


class Cli:
    """One fresh interpreter per command: start-up, imports, argparse, config, output."""

    name = "cli"
    in_process = False

    def setup(self, lib, seed: int, out_dir: Path):
        rng = random.Random(seed)
        cmd_dir = out_dir / "cli"
        cmd_dir.mkdir(parents=True, exist_ok=True)
        commands = cli_commands(rng, cmd_dir)
        rng.shuffle(commands)
        reference: dict = {}
        ops = []
        for i, (schema, argv) in enumerate(commands):
            path = cmd_dir / f"payload{i}.{argv[-1]}"
            full = [*argv, "--output", str(path)]

            def run(full=full):
                # no timeout: a wait with one polls, rounding each exit up to 50 ms
                proc = subprocess.run([sys.executable, "-m", "defosc.cli", *full], env=child_env(),
                                      stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                return proc.returncode

            ops.append(Op(run, lambda code, exc, s=schema, a=argv, p=path:
                          f"cli_raised:{type(exc).__name__}" if exc else check_cli_output(s, a, p, code, reference)))
        self.commands = [(schema, [*argv, "--output", str(cmd_dir / f"inproc{i}.{argv[-1]}")])
                         for i, (schema, argv) in enumerate(commands)]
        return ops


def child_env() -> dict:
    """Environment of child interpreters: the checkout's sources first on the path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {w.name: w for w in (LargeDim, SmallScan, ExactFib, Cli)}
