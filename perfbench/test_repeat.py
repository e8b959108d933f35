"""Checks of the benchmark itself (not part of the library's test suite).

    python3 -m pytest perfbench/test_repeat.py

The traced-run counts must repeat bit for bit for one seed, and
BENCHMARK.json must list exactly the metrics the benchmark prints.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

COUNTS = (
    "recurrence.monic_calls_per_coeff",
    "recurrence.cache_hit_ratio",
    "oscillator.band_products",
    "oscillator.builds_per_state",
    "fibonacci.nu_dps",
)


def _traced(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=HERE.parent, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


@pytest.mark.parametrize("workload", ["large_dim", "small_scan", "exact_fib", "cli"])
def test_traced_counts_repeat_for_a_seed(workload):
    first, second = _traced(workload, 7), _traced(workload, 7)
    for name in COUNTS:
        assert repr(first[name]["value"]) == repr(second[name]["value"]), name


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v[0] for k, v in metrics.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v[0] for k, v in metrics.PER_LAYER.items()}
