"""defosc benchmark: one workload per run, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload large_dim --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout; the library is imported from ./src.  Load
is a closed loop with one caller: each op starts when the previous one has
finished, and the `cli` workload runs one child interpreter at a time.  The
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1).  Lines before it print every metric with its unit,
the sample details, the failures by label and the environment record.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# DEFOSC_PRECISION changes the working precision of nu_moments and
# berg_orthogonality; runs pin it so that they compare.  BLAS pools are
# pinned to one thread: the load is one caller on a 2-core box, and idle
# pool threads spinning beside it made CPU time exceed wall time.
PINNED_ENV = {"DEFOSC_PRECISION": "extended", **{v: "1" for v in BLAS_VARS}}
CLI_PROBE = (
    "import json, sys, time\n"
    "t0 = time.perf_counter()\n"
    "import defosc.cli as cli\n"
    "t1 = time.perf_counter()\n"
    "code = cli.main(json.loads(sys.argv[1]))\n"
    "t2 = time.perf_counter()\n"
    "print(json.dumps([t1 - t0, t2 - t1, code]))\n"
)


def load_library():
    """Import defosc from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"defosc.{name}") for name in
            ("recurrence", "oscillator", "classifier", "coherent", "qseries", "fibonacci", "cli")}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: defosc imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods), mods


def environment(lib, inherited: dict) -> dict:
    import mpmath
    import numpy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "inherited_env": inherited,
        "blas_threads_seen_by_children": {v: os.environ.get(v) for v in BLAS_VARS},
        "DEFOSC_PRECISION_resolved": lib.fibonacci.nu_moments(0, 1, 0.5, K=1).precision,
    }


# -- timing ------------------------------------------------------------------------

# On a shared 2-core VM the same fixed work ran 10-25 % slower for stretches
# of tens of seconds to minutes, in wall and CPU time alike, which put the
# spread of raw op times between runs at 0.1-0.4 (0.04-0.08 scaled).  A
# fixed reference kernel, independent of defosc, is timed between ops; each
# op's times are scaled by REFERENCE_KERNEL_S / (kernel time at that moment),
# i.e. reported at the speed at which the kernel takes REFERENCE_KERNEL_S.
# Raw values are printed and recorded next to the reported ones.
REFERENCE_KERNEL_S = 2.0e-3
CALIBRATE_EVERY_S = 0.25


def reference_kernel() -> float:
    """Fixed mix of interpreter, small-array and big-integer work (about 2 ms)."""
    import numpy

    acc, table = 0.0, {}
    for i in range(2500):
        acc += (i * 1.0001) ** 0.5
        table[i & 63] = acc
    vec = numpy.arange(256, dtype=float)
    for _ in range(60):
        acc += float(numpy.sqrt(vec * 1.5 + 1.0).sum())
    big = 3**4000
    for _ in range(20):
        acc += (big * (big + 1)) % 1009
    return acc


class Speedometer:
    """Times the reference kernel at most every CALIBRATE_EVERY_S seconds."""

    def __init__(self):
        self.at = -math.inf
        self.factor = 1.0

    def current(self) -> float:
        now = time.perf_counter()
        if now - self.at >= CALIBRATE_EVERY_S:
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                reference_kernel()
                best = min(best, time.perf_counter() - t0)
            self.factor = REFERENCE_KERNEL_S / best
            self.at = time.perf_counter()
        return self.factor



def _children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def run_pass(ops, cpu_clock, tracer=None, speed=None) -> list:
    """Run each op once: (wall s, cpu s, failure label or None, speed factor) per op.

    Each op is checked right after its clock stops, so no result outlives
    its op and the peak resident set does not depend on the op order.
    """
    rows = []
    for i, op in enumerate(ops):
        factor = speed.current() if speed is not None else 1.0
        if tracer is not None:
            tracer.begin_op(i)
        result = exc = None
        c0 = cpu_clock()
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as err:  # the op failed; the oracle decides what that means
            exc = err
        t1 = time.perf_counter()
        c1 = cpu_clock()
        if tracer is not None:
            tracer.end_op()
        rows.append((t1 - t0, c1 - c0, op.check(result, exc), factor))
    return rows


def run_cycles(ops, cpu_clock, seconds: float, speed=None) -> list[list]:
    """Whole cycles until `seconds` of loop wall time have passed (at least one)."""
    cycles = []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        cycles.append(run_pass(ops, cpu_clock, speed=speed))
    return cycles


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time from spawning a fresh interpreter to its first op being ready.

    Reported raw: start-up and imports did not follow the reference kernel's
    speed (scaling them widened their spread between runs from 0.2 to 0.5).
    """
    import workloads

    if workload == "cli":
        cmd = [sys.executable, "-c", "import defosc.cli; print('ready', flush=True)"]
    else:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=workloads.child_env(), text=True) as proc:
            line = proc.stdout.readline().strip()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait()
        if line != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up probe failed (exit {code}, output {line!r})")
    return statistics.median(samples)


# -- traced runs -------------------------------------------------------------------


def cli_trace_numbers(workload, seconds: float) -> tuple[dict, list]:
    """Child probes (import and process overhead) and in-process cli.main passes."""
    import workloads

    probes, rows, reference = [], [], {}
    start = time.perf_counter()
    while not probes or time.perf_counter() - start < seconds:
        for schema, argv in workload.commands:
            path = Path(argv[-1])
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", CLI_PROBE, json.dumps(argv)], env=workloads.child_env(),
                                  capture_output=True, text=True)
            wall = time.perf_counter() - t0
            import_s, main_s, code = json.loads(proc.stdout.strip().splitlines()[-1])
            probes.append((import_s, wall - main_s, path.stat().st_size))
            rows.append((wall, 0.0, workloads.check_cli_output(schema, argv[:-2], path, code, reference), 1.0))
    numbers = {
        "cli.import_s": statistics.median(p[0] for p in probes),
        "cli.process_overhead_s": statistics.median(p[1] for p in probes),
        "cli.payload_bytes": sum(p[2] for p in probes[: len(workload.commands)]),
    }
    return numbers, rows


def in_process_cli_pass(lib, workload, tracer=None) -> float:
    total = 0.0
    for i, (_, argv) in enumerate(workload.commands):
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        code = lib.cli.main(argv)
        total += time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        if code != 0:
            raise SystemExit(f"perfbench: in-process cli.main {argv} exited {code}")
    return total


def traced_run(lib, tracer, workload, ops, seconds: float):
    """Per-layer metrics from one traced cycle; the overhead compares its op
    time with the median untraced cycle, both at reference speed."""
    import metrics

    speed = Speedometer()
    if workload.in_process:
        run_pass(ops, time.process_time)  # warm-up
        cycles = run_cycles(ops, time.process_time, seconds, speed)
        untraced = statistics.median(sum(r[0] * r[3] for r in c) for c in cycles)
        tracer.install()
        try:
            traced_rows = run_pass(ops, time.process_time, tracer, speed)
        finally:
            tracer.uninstall()
        traced = sum(r[0] * r[3] for r in traced_rows)
        rows = [r for c in cycles for r in c] + traced_rows
        cli_numbers = None
    else:
        cli_numbers, rows = cli_trace_numbers(workload, seconds)
        in_process_cli_pass(lib, workload)  # warm-up
        untraced = statistics.median(speed.current() * in_process_cli_pass(lib, workload) for _ in range(3))
        tracer.install()
        try:
            traced = speed.current() * in_process_cli_pass(lib, workload, tracer)
        finally:
            tracer.uninstall()
    overhead = 100.0 * (traced / untraced - 1.0)
    values = metrics.per_layer(tracer, overhead, cli_numbers)
    tracer.write(OUT / f"trace-{workload.name}.npz")
    return values, rows, {"spans": len(tracer.start), "traced_s": traced, "untraced_median_s": untraced}


# -- reporting -----------------------------------------------------------------------


def report(workload: str, seed: int, trace: int, values: dict, units: dict, notes: dict,
           details: dict, rows: list, env: dict, warm_labels=()) -> int:
    """Print every metric, the failures and the record; the result JSON goes last.

    `correct` is false when any failure, warm-up included, is not a known seed defect.
    """
    import oracle

    failures: dict[str, int] = {}
    for row in rows:
        if row[2] is not None:
            failures[row[2]] = failures.get(row[2], 0) + 1
    unexpected = sorted(label for label in {*failures, *warm_labels} if label not in oracle.KNOWN_SEED_DEFECTS)
    attempted, failed = len(rows), sum(failures.values())
    print(f"perfbench {workload}  seed={seed}  trace={trace}")
    for name, value in values.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]:14s} {notes[name]}")
    print(f"  attempted={attempted} failed={failed} fail_ratio={failed}/{attempted}")
    for label, n in sorted(failures.items()):
        known = oracle.KNOWN_SEED_DEFECTS.get(label)
        print(f"  failure {n:6d} x {label}  ({'seed defect: ' + known if known else 'NEW: not a known seed defect'})")
    record = {"workload": workload, "seed": seed, "trace": trace, "details": details,
              "failures": failures, "unexpected_failures": unexpected, "environment": env}
    print("record " + json.dumps(record, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-trace{trace}.json").write_text(json.dumps({**record, "metrics": values}, indent=1))
    metrics_out = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics_out}))
    return 0


def run_workload(args, inherited: dict) -> int:
    lib, mods = load_library()
    import metrics
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    if args.trace:
        import spans

        tracer = spans.Tracer(mods)
        tracer.hook_sequences()
    ops = workload.setup(lib, args.seed, OUT)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    env = environment(lib, inherited)

    if args.trace:
        values, rows, details = traced_run(lib, tracer, workload, ops, args.seconds)
        units = {k: v[0] for k, v in metrics.PER_LAYER.items()}
        notes = {k: f"[{v[2]}; moves {v[1]}]" for k, v in metrics.PER_LAYER.items()}
        return report(args.workload, args.seed, 1, values, units, notes, details, rows, env)

    setup_s = measure_setup(args.workload, args.seed)
    cpu_clock = time.process_time if workload.in_process else _children_cpu
    speed = Speedometer()
    warm = run_pass(ops, cpu_clock, speed=speed)  # warm-up: caches, lazy imports, reference payloads
    cycles = run_cycles(ops, cpu_clock, args.seconds, speed)
    rows = [r for c in cycles for r in c]
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    values, details = metrics.end_to_end(rows, setup_s, peak_rss_mb)
    details["cycles"] = len(cycles)
    warm_labels = sorted({r[2] for r in warm if r[2] is not None})
    details["warm_up_failures"] = warm_labels
    units = {k: v[0] for k, v in metrics.END_TO_END.items()}
    notes = {k: v[1] for k, v in metrics.END_TO_END.items()}
    notes["latency_p50_ms"] += f" (n={details['samples']})"
    notes["latency_tail_ms"] += f": p{details['tail_percentile']:.2f} (n={details['samples']}, {details['samples_beyond_tail']} beyond)"
    notes["pass_ratio"] += f"; fail_ratio={details['fail_ratio']}"
    for name, raw in details["raw"].items():
        notes[name] += f" [raw {raw:.6g}]"
    return report(args.workload, args.seed, 0, values, units, notes, details, rows, env, warm_labels)


def run_all(args) -> int:
    """Every workload, untraced then traced, one child at a time."""
    import workloads

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("record ")))
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("large_dim", "small_scan", "exact_fib", "cli", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "defosc" / "__init__.py").is_file():
        print(f"perfbench: no defosc sources under {SRC}; run from the root of a defosc checkout",
              file=sys.stderr)
        return 2
    inherited = {name: os.environ.get(name) for name in PINNED_ENV}
    os.environ.update(PINNED_ENV)  # before numpy is first imported, here and in children
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, inherited)


if __name__ == "__main__":
    sys.exit(main())
