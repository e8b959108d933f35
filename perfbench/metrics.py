"""End-to-end and per-layer metric definitions and their computation.

Each per-layer metric names the end-to-end metric and workload it should
move.  Layer times are self times summed over the one traced cycle of the
workload, so they compare across runs of one workload; `cli.import_s` and
`cli.process_overhead_s` are medians per child process.
"""

from __future__ import annotations

import statistics

import numpy as np

import spans as tr

END_TO_END = {
    "setup_s": ("s", "median of 7 fresh processes: start, imports, input generation, up to the first op (raw)"),
    "ops_per_s": ("1/s", "completed ops per second of timed wall time, at reference speed"),
    "latency_p50_ms": ("ms", "median op latency, at reference speed"),
    "latency_tail_ms": ("ms", "highest percentile with 10 samples beyond it, at reference speed"),
    "cpu_ms_per_op": ("ms", "process CPU (user+sys) per op, at reference speed; RUSAGE_CHILDREN for cli"),
    "peak_rss_mb": ("MB", "peak resident set of the process doing the work"),
    "pass_ratio": ("1", "ops the oracle accepts / ops attempted (1 - fail_ratio)"),
}

# name: (unit, should move: end-to-end metric on workload, definition)
PER_LAYER = {
    "recurrence.coeffs_s": ("s", "ops_per_s on large_dim", "self time of seq.a/seq.b calls that materialized a coefficient"),
    "recurrence.monic_calls_per_coeff": ("count", "ops_per_s on large_dim", "little_q_jacobi_monic_coeffs calls per distinct materialized q-family index"),
    "recurrence.cache_hit_ratio": ("1", "latency_p50_ms on small_scan", "seq.a/seq.b calls served without materializing / all calls"),
    "oscillator.build_s": ("s", "latency_p50_ms on small_scan; ops_per_s on large_dim", "self time of build_operators"),
    "oscillator.builds_per_state": ("count", "latency_p50_ms on small_scan", "build_operators calls under coherent calls per make_state"),
    "oscillator.verify_s": ("s", "ops_per_s on large_dim", "self time of verify_algebra, band products included, builds excluded"),
    "oscillator.band_products": ("count", "ops_per_s on large_dim", "BandMatrix @ calls per verify_algebra"),
    "oscillator.band_madds": ("madd_computed", "ops_per_s on large_dim", "multiply-adds per verify_algebra, computed from band offsets and lengths"),
    "classifier.classify_s": ("s", "ops_per_s on large_dim", "self time of classify and difference_table"),
    "coherent.make_state_s": ("s", "latency_p50_ms on small_scan", "self time of make_state"),
    "coherent.eigen_residual_s": ("s", "latency_p50_ms on small_scan", "self time of eigen_residual"),
    "coherent.uncertainty_s": ("s", "latency_p50_ms on small_scan", "self time of uncertainty, build_operators excluded"),
    "qseries.series_s": ("s", "latency_p50_ms on small_scan", "self time of basic_hypergeometric and normalization_series_closed"),
    "fibonacci.filbert_inverse_s": ("s", "latency_tail_ms on exact_fib", "self time of exact_inverse"),
    "fibonacci.exact_matmul_s": ("s", "latency_tail_ms on exact_fib", "self time of exact_matmul"),
    "fibonacci.berg_s": ("s", "latency_tail_ms on exact_fib", "self time of berg_orthogonality"),
    "fibonacci.nu_moments_s": ("s", "latency_tail_ms on exact_fib", "self time of nu_moments"),
    "fibonacci.nu_dps": ("digits", "latency_tail_ms on exact_fib", "mean dps field of nu_moments results"),
    "fibonacci.fib_s": ("s", "ops_per_s on exact_fib", "self time of fib"),
    "cli.import_s": ("s", "setup_s and latency_p50_ms on cli", "median in-process time of import defosc.cli in a fresh child"),
    "cli.main_self_s": ("s", "latency_p50_ms on cli", "in-process cli.main time minus the compute-layer spans under it"),
    "cli.payload_bytes": ("bytes", "latency_p50_ms on cli", "bytes of all payloads written in one cycle"),
    "cli.process_overhead_s": ("s", "latency_p50_ms and cpu_ms_per_op on cli", "median child wall time minus its in-process cli.main time"),
    "trace.overhead_pct": ("%", "none: tracing cost", "traced cycle op time over the median untraced cycle, minus 1, at reference speed"),
}

TAIL_BEYOND = 10


def _timing(times: np.ndarray, cpu: np.ndarray, beyond: int) -> dict:
    times = np.sort(times)
    return {
        "ops_per_s": len(times) / float(times.sum()),
        "latency_p50_ms": float(np.median(times)) * 1e3,
        "latency_tail_ms": float(times[-1 - beyond]) * 1e3,
        "cpu_ms_per_op": float(cpu.mean()) * 1e3,
    }


def end_to_end(rows, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """The seven end-to-end values and the sample details printed next to them.

    Op times are reported at the reference speed (each row carries its
    speed factor); the raw values go into the details.
    """
    wall, cpu, factor = (np.array([r[i] for r in rows]) for i in (0, 1, 3))
    failed = sum(1 for r in rows if r[2] is not None)
    # the tail is the highest percentile with TAIL_BEYOND samples beyond it:
    # the largest sample that has that many above it, taken exactly rather
    # than from a fixed ladder, so it does not jump when the count crosses a rung
    beyond = min(TAIL_BEYOND, len(rows) - 1)
    values = {
        "setup_s": setup_s,
        **_timing(wall * factor, cpu * factor, beyond),
        "peak_rss_mb": peak_rss_mb,
        "pass_ratio": (len(rows) - failed) / len(rows),
    }
    details = {
        "samples": len(rows),
        "tail_percentile": 100.0 * (len(rows) - beyond) / len(rows),
        "samples_beyond_tail": beyond,
        "fail_ratio": f"{failed}/{len(rows)}",
        "timed_s": float(wall.sum()),
        "speed_factor_median": float(np.median(factor)),
        "raw": _timing(wall, cpu, beyond),
    }
    return values, details


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: tr.Tracer, overhead_pct: float, cli_numbers: dict | None = None) -> dict:
    a = tr.analyse(tracer)
    self_s, count, count_under = a["self_s"], a["count"], a["count_under"]
    miss = a["miss"]
    calls = count(tr.COEFF_A) + count(tr.COEFF_B)
    misses = int(miss[a["spans_of"](tr.COEFF_A) | a["spans_of"](tr.COEFF_B)].sum())
    verifies = count("oscillator.verify_algebra")
    coherent = ["coherent.make_state", "coherent.eigen_residual", "coherent.uncertainty"]
    values = {
        "recurrence.coeffs_s": self_s(tr.COEFF_A, miss) + self_s(tr.COEFF_B, miss),
        "recurrence.monic_calls_per_coeff": _ratio(tracer.monic_calls, tracer.q_index_total),
        "recurrence.cache_hit_ratio": _ratio(calls - misses, calls),
        "oscillator.build_s": self_s("oscillator.build_operators"),
        "oscillator.builds_per_state": _ratio(count_under("oscillator.build_operators", coherent),
                                              count("coherent.make_state")),
        "oscillator.verify_s": self_s("oscillator.verify_algebra"),
        "oscillator.band_products": _ratio(count_under(tr.MATMUL, ["oscillator.verify_algebra"]), verifies),
        "oscillator.band_madds": _ratio(a["madds_under_verify"], verifies),
        "classifier.classify_s": self_s("classifier.classify") + self_s("classifier.difference_table"),
        "coherent.make_state_s": self_s("coherent.make_state"),
        "coherent.eigen_residual_s": self_s("coherent.eigen_residual"),
        "coherent.uncertainty_s": self_s("coherent.uncertainty"),
        "qseries.series_s": self_s("qseries.basic_hypergeometric") + self_s("qseries.normalization_series_closed"),
        "fibonacci.filbert_inverse_s": self_s("fibonacci.exact_inverse"),
        "fibonacci.exact_matmul_s": self_s("fibonacci.exact_matmul"),
        "fibonacci.berg_s": self_s("fibonacci.berg_orthogonality"),
        "fibonacci.nu_moments_s": self_s("fibonacci.nu_moments"),
        "fibonacci.nu_dps": statistics.fmean(tracer.dps) if tracer.dps else 0.0,
        "fibonacci.fib_s": self_s("fibonacci.fib"),
        "cli.import_s": 0.0,
        "cli.main_self_s": self_s("cli.main"),
        "cli.payload_bytes": 0,
        "cli.process_overhead_s": 0.0,
        "trace.overhead_pct": overhead_pct,
    }
    values.update(cli_numbers or {})
    return values
