"""Command-line frontend with machine-readable, byte-reproducible output.

Exit codes: 0 all checks passed, 2 invalid input, 3 checks ran but failed
(or a grid row was flagged).  Payload files never contain timestamps; when
--output is used, run metadata goes to a `<output>.meta.json` sidecar so the
payload is byte-identical across reruns of the same configuration.

Every command is one entry of COMMANDS: its options, each declared once with
name, type, default, choices and help; its CSV header; and a handler that only
computes.  The parser, the --config merge and the JSON/CSV rendering are all
driven by that table.

A JSON config file (--config) supplies defaults for any long option of the
invoked command; explicit flags win.  A config value is read as the text that
would follow its flag (a number or true/false as its JSON text, and for `z` a
list as its items joined by commas), so it passes the same type and choice
checks as the flag; a value that fails them exits 2 with an error naming the
key.  Family parameter values accept the keywords `golden` (the distinguished
negative base (1-sqrt5)/(1+sqrt5)), `q` (the value given via --q) and
`theta0` (asinh(1/2)).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

# oscillator, classifier and coherent (numpy) are imported by the handlers that
# use them, so `families` and the exact `fib` commands start without numpy
from . import __version__, fibonacci, recurrence
from .errors import DefoscError

__all__ = ["main"]

_FAMILY_PARAM_FLAGS = ("a", "b", "q", "alpha", "theta")


# -- output plumbing -----------------------------------------------------------


def _clean(obj):
    """Recursively replace non-finite floats by None for strict JSON."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    return obj


def _json_text(payload: dict) -> str:
    return json.dumps(_clean(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return repr(z.real)
    text = repr(z)
    return text[1:-1] if text.startswith("(") else text


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, complex):
        return _fmt_complex(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _csv_text(header, rows: list[dict]) -> str:
    """CSV of dict rows; header columns the rows do not carry are left out."""
    columns = [h for h in header if not rows or h in rows[0]]
    sio = io.StringIO()
    writer = csv.writer(sio, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row[h]) for h in columns])
    return sio.getvalue()


def _emit(text: str, output: str | None, argv: list[str]) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    with open(output, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    meta = {
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
        "argv": argv,
    }
    with open(output + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def _fail(message: str) -> int:
    print(f"defosc: error: {message}", file=sys.stderr)
    return 2


# -- options and config merging --------------------------------------------------


def _switch(text: str) -> bool:
    """Type of an on/off flag; a config file gives it as true or false."""
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


@dataclass(frozen=True)
class Option:
    """One long option: flag `--name` (underscores as dashes) and config key `name`."""

    name: str
    type: Callable[[str], object] = str
    default: object = None
    help: str | None = None
    choices: tuple[str, ...] | None = None
    check: Callable[[object], None] | None = None  # range check of the merged value
    many: bool = False  # comma-separated list; a config file may give a JSON list


def _flag_text(value, many: bool) -> str:
    """The command-line text a JSON config value stands for."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, int, float)):
        return json.dumps(value)
    if many and isinstance(value, list):
        return ",".join(_flag_text(v, False) for v in value)
    raise TypeError(value)


def _from_config(opt: Option, value):
    """Check a config value with the type and choices of its flag."""
    try:
        parsed = opt.type(_flag_text(value, opt.many))
    except (TypeError, ValueError):
        raise DefoscError(f"config key {opt.name!r}: invalid value: {json.dumps(value)}") from None
    if opt.choices and parsed not in opt.choices:
        raise DefoscError(
            f"config key {opt.name!r}: invalid choice: {json.dumps(value)} "
            f"(choose from {', '.join(opt.choices)})"
        )
    return parsed


def _effective(ns: argparse.Namespace, options: tuple[Option, ...]) -> dict:
    """Merge CLI flags over config-file values over built-in defaults."""
    config = {}
    if ns.config:
        with open(ns.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise DefoscError("config file must hold a JSON object")
        unknown = set(config) - {opt.name for opt in options}
        if unknown:
            raise DefoscError(
                f"config keys {sorted(unknown)} are not options of this command"
            )
    eff = {}
    for opt in options:
        value = getattr(ns, opt.name)
        if value is None and opt.name in config:
            value = _from_config(opt, config[opt.name])
        eff[opt.name] = opt.default if value is None else value
        if opt.check is not None:
            opt.check(eff[opt.name])
    return eff


_EXACT_LIMIT = 64  # largest n accepted for exact big-integer work in the CLI


def _exact_n(low: int) -> Callable[[int], None]:
    def check(n: int) -> None:
        if n < low:
            raise DefoscError(f"n must be >= {low}, got {n}")
        if n > _EXACT_LIMIT:
            raise DefoscError(f"n must be <= {_EXACT_LIMIT} for exact mode, got {n}")

    return check


def _ismail_n(n: int) -> None:
    if not (1 <= n <= 200):
        raise DefoscError(f"n must be in 1..200, got {n}")


def _tolerance(tol: float) -> None:
    if not 0.0 <= tol < math.inf:
        raise DefoscError(f"tol must be finite and >= 0, got {tol}")


def _param_value(raw: str, q_value: float | None, flag: str) -> float:
    if raw == "golden":
        return recurrence.GOLDEN_Q
    if raw == "theta0":
        return fibonacci.THETA0
    if raw == "q":
        if q_value is None:
            raise DefoscError(f"--{flag} q needs an explicit --q value")
        return q_value
    return float(raw)


def _resolve_sequence(eff: dict) -> recurrence.CoefficientSequence:
    name = eff["family"]
    if not name:
        raise DefoscError("--family is required")
    params: dict[str, float] = {}
    if eff["q"] is not None:
        params["q"] = _param_value(eff["q"], None, "q")
    for flag in _FAMILY_PARAM_FLAGS:
        if flag != "q" and eff[flag] is not None:
            params[flag] = _param_value(eff[flag], params.get("q"), flag)
    return recurrence.make_sequence(name, params)


def _z_grid(raw: str | None) -> list[complex]:
    if raw is None:
        raise DefoscError("--z is required (comma-separated list, e.g. 0,0.5,1)")
    z_list = [complex(part.strip()) for part in raw.split(",") if part.strip()]
    if not z_list:
        raise DefoscError("z grid is empty")
    return z_list


# -- handlers: each returns (exit code, JSON payload, CSV rows) ----------------------


def _families(eff):
    entries = []
    rows = []
    for name in recurrence.family_names():
        spec = recurrence.get_family(name)
        params = [
            {
                "name": p.name,
                "default": p.default,
                "minimum": p.minimum,
                "maximum": p.maximum,
                "required": p.required,
                "description": p.description,
            }
            for p in spec.params
        ]
        entries.append(
            {
                "name": spec.name,
                "symmetric": spec.symmetric,
                "description": spec.description,
                "params": params,
            }
        )
        blank = dict.fromkeys(("name", "default", "minimum", "maximum", "required"), "")
        for p in params or [{**blank, "description": spec.description}]:
            rows.append({"family": spec.name, "symmetric": spec.symmetric, "param": p["name"], **p})
    return 0, {"families": entries}, rows


def _verify(eff):
    from . import oscillator

    seq = _resolve_sequence(eff)
    report = oscillator.verify_algebra(seq, eff["dim"], eff["tol"])
    payload = {"params": seq.params, **report.to_dict()}
    if eff["dump_operators"] and eff["format"] == "json":
        ops = oscillator.build_operators(seq, eff["dim"])
        payload["operators"] = {
            key: oscillator.matrix_to_json(m, kind)
            for key, kind, m in (
                ("x", "X", ops.x),
                ("p", "P", ops.p),
                ("a_plus", "a+", ops.a_plus),
                ("a_minus", "a-", ops.a_minus),
                ("n", "N", ops.n_op),
                ("b", "B", ops.b_op),
                ("h", "H", ops.hamiltonian),
            )
        }
    rows = [{"relation": r["name"], **r} for r in payload["relations"]]
    return (0 if report.passed else 3), payload, rows


def _classify(eff):
    from . import classifier

    # the two formats are two computations: the verdict, or the difference table
    seq = _resolve_sequence(eff)
    if eff["format"] == "csv":
        table = classifier.difference_table(seq, eff["nmax"], eff["jmax"])
        return 0, None, [{"j": j, "n": n, "value": v} for j, n, v in table.csv_rows()]
    result = classifier.classify(seq, eff["nmax"], eff["tol"])
    return 0, {"family": seq.family_id, "params": seq.params, "result": result.to_dict()}, None


def _coherent(eff):
    from . import coherent

    seq = _resolve_sequence(eff)
    z_list = _z_grid(eff["z"])
    dim, tol = eff["dim"], eff["tol"]
    rows = []
    states = []
    for z in z_list:
        state = coherent.make_state(seq, z, dim, tol, strict=False)
        residual = coherent.eigen_residual(state, seq)
        d_x, d_p, bound = coherent.uncertainty(state, seq)
        flagged = state.convergent and state.tail_bound > tol
        checks = {"dx_dp": d_x * d_p, "bound": bound, "truncation_ok": not flagged}
        rows.append(
            {
                "z": z,
                "norm_constant": state.norm_constant,
                "log_norm_constant": state.log_norm_constant,
                "residual": residual,
                "convergent": state.convergent,
                **checks,
            }
        )
        states.append({**coherent.state_to_dict(state, residual), **checks})
    payload = {
        "family": seq.family_id,
        "params": seq.params,
        "dim": dim,
        "tolerance": tol,
        "states": states,
    }
    return (0 if all(r["truncation_ok"] for r in rows) else 3), payload, rows


def _fib_numbers(eff):
    n = eff["n"]
    sequence = [fibonacci.fib(k) for k in range(n + 1)]
    iterative_match = all(fibonacci.fib_iterative(k) == sequence[k] for k in range(n + 1))
    chebyshev_match = all(
        fibonacci.fib_via_chebyshev(k) == sequence[k] for k in range(min(n, 20) + 1)
    )
    passed = iterative_match and chebyshev_match
    payload = {
        "n": n,
        "value": sequence[-1],
        "sequence": sequence,
        "iterative_match": iterative_match,
        "chebyshev_match": chebyshev_match,
        "passed": passed,
    }
    return (0 if passed else 3), payload, [{"n": k, "value": v} for k, v in enumerate(sequence)]


def _fib_ismail(eff):
    theta = _param_value(eff["theta"], None, "theta")
    n, tol = eff["n"], eff["tol"]
    at_theta0 = theta == fibonacci.THETA0
    rows = []
    max_rel = 0.0
    integer_ok = True
    for k in range(1, n + 1):
        closed, rec = fibonacci.ismail_fib_values(theta, k)
        rel = abs(closed - rec) / max(1.0, abs(closed))
        max_rel = max(max_rel, rel)
        entry = {"n": k, "closed_form": closed, "recurrence": rec, "rel_diff": rel}
        if at_theta0:
            target = fibonacci.fib(k - 1)
            fib_rel = abs(closed - float(target)) / float(target)
            integer_ok = integer_ok and fib_rel <= tol
            entry["fib_value"] = target
            entry["fib_rel_diff"] = fib_rel
        rows.append(entry)
    passed = max_rel <= tol and integer_ok
    payload = {
        "theta": theta,
        "n": n,
        "tolerance": tol,
        "at_theta0": at_theta0,
        "rows": rows,
        "max_rel_diff": max_rel,
        "passed": passed,
    }
    return (0 if passed else 3), payload, rows


def _fib_filbert(eff):
    rows = []
    for k in range(1, eff["n"] + 1):
        matrix = fibonacci.filbert_matrix(k)
        inverse = fibonacci.exact_inverse(matrix)
        product = fibonacci.exact_matmul(matrix, inverse)
        identity = all(
            product[i][j] == (1 if i == j else 0) for i in range(k) for j in range(k)
        )
        rows.append(
            {
                "n": k,
                "integer_inverse": fibonacci.is_integer_matrix(inverse),
                "product_is_identity": identity,
            }
        )
    all_ok = all(r["integer_inverse"] and r["product_is_identity"] for r in rows)
    payload = {"n": eff["n"], "rows": rows, "integer_inverse": all_ok, "passed": all_ok}
    return (0 if all_ok else 3), payload, rows


def _fib_berg(eff):
    report = fibonacci.berg_orthogonality(eff["nmax"])
    passed = report.passes(eff["tol"])
    rows = [
        {"m": m, "n": m + 1 + offset, "normalized_gram": value}
        for m, row in enumerate(report.normalized_off_diagonal)
        for offset, value in enumerate(row)
    ]
    payload = {"tolerance": eff["tol"], "passed": passed, **report.to_dict()}
    return (0 if passed else 3), payload, rows


# -- command table -------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One subcommand; its key in COMMANDS is the schema name `defosc.<key>.v1`."""

    help: str
    options: tuple[Option, ...]
    header: tuple[str, ...]  # CSV columns
    handler: Callable[[dict], tuple[int, dict | None, list[dict] | None]]


_FAMILY_OPTIONS = (
    Option("family", help="registered family name (see `defosc families`)"),
    *(
        Option(flag, help=f"family parameter {flag} (number or keyword golden/q/theta0)")
        for flag in _FAMILY_PARAM_FLAGS
    ),
)


def _output_options(fmt: str = "json") -> tuple[Option, ...]:
    return (
        Option("format", default=fmt, choices=("json", "csv"), help=f"payload format (default {fmt})"),
        Option("output", help="payload file; metadata goes to <output>.meta.json"),
    )


COMMANDS: dict[str, Command] = {
    "families": Command(
        "list registered families and their parameters",
        _output_options(),
        ("family", "symmetric", "param", "default", "minimum", "maximum", "required", "description"),
        _families,
    ),
    "verify": Command(
        "check the oscillator algebra relations",
        (
            *_FAMILY_OPTIONS,
            Option("dim", int, 64, "truncation dimension"),
            Option("tol", float, 1e-10, "interior residual tolerance"),
            Option("dump_operators", _switch, False, "add the dense operators to the JSON payload"),
            *_output_options(),
        ),
        ("relation", "interior_residual", "boundary_residual", "passed"),
        _verify,
    ),
    "classify": Command(
        "finite (dim 4) vs infinite algebra dimension",
        (
            *_FAMILY_OPTIONS,
            Option("nmax", int, 64, "number of coefficients examined"),
            Option("tol", float, 1e-9, "fit tolerance"),
            Option("jmax", int, 2, "difference-table depth for CSV output"),
            *_output_options(),
        ),
        ("j", "n", "value"),
        _classify,
    ),
    "coherent": Command(
        "annihilation-eigenstate scan over a z grid",
        (
            *_FAMILY_OPTIONS,
            Option("z", help="comma-separated complex grid, e.g. 0,0.5,0.3+0.1j", many=True),
            Option("dim", int, 64, "truncation dimension"),
            Option("tol", float, 1e-8, "truncation tail tolerance"),
            *_output_options("csv"),
        ),
        ("z", "norm_constant", "log_norm_constant", "residual", "dx_dp", "bound", "convergent",
         "truncation_ok"),
        _coherent,
    ),
    "fib-numbers": Command(
        "integer sequence and identity checks",
        (Option("n", int, 10, "largest index", check=_exact_n(0)), *_output_options()),
        ("n", "value"),
        _fib_numbers,
    ),
    "fib-ismail": Command(
        "theta-deformed numbers: closed form vs recurrence",
        (
            Option("theta", default="theta0", help="deformation parameter (number or theta0)"),
            Option("n", int, 30, "largest index", check=_ismail_n),
            Option("tol", float, 1e-12, "relative tolerance", check=_tolerance),
            *_output_options(),
        ),
        ("n", "closed_form", "recurrence", "rel_diff", "fib_value", "fib_rel_diff"),
        _fib_ismail,
    ),
    "fib-filbert": Command(
        "exact reciprocal-Fibonacci matrix inversion",
        (Option("n", int, 8, "largest matrix size", check=_exact_n(1)), *_output_options()),
        ("n", "integer_inverse", "product_is_identity"),
        _fib_filbert,
    ),
    "fib-berg": Command(
        "moment-functional orthogonality table",
        (
            Option("nmax", int, 6, "largest polynomial degree"),
            Option("tol", float, 1e-8, "off-diagonal tolerance", check=_tolerance),
            *_output_options(),
        ),
        ("m", "n", "normalized_gram"),
        _fib_berg,
    ),
}


# -- parser and entry point ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defosc",
        description="Deformed-oscillator toolkit: build, verify, classify, scan.",
    )
    parser.add_argument("--version", action="version", version=f"defosc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    fib = None
    for name, command in COMMANDS.items():
        if name.startswith("fib-"):
            if fib is None:
                fib = sub.add_parser("fib", help="Fibonacci suites: numbers, ismail, filbert, berg")
                fib = fib.add_subparsers(dest="subaction", required=True)
            p = fib.add_parser(name.removeprefix("fib-"), help=command.help)
        else:
            p = sub.add_parser(name, help=command.help)
        p.set_defaults(schema=name)
        for opt in command.options:
            flag = "--" + opt.name.replace("_", "-")
            if opt.type is _switch:
                p.add_argument(flag, dest=opt.name, action="store_true", default=None, help=opt.help)
            else:
                p.add_argument(flag, dest=opt.name, type=opt.type, choices=opt.choices, help=opt.help)
        p.add_argument("--config", help="JSON file with defaults for this command")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    ns = build_parser().parse_args(args)
    command = COMMANDS[ns.schema]
    try:
        eff = _effective(ns, command.options)
        code, payload, rows = command.handler(eff)
        if eff["format"] == "csv":
            text = _csv_text(command.header, rows)
        else:
            text = _json_text({"schema": f"defosc.{ns.schema}.v1", **payload})
        _emit(text, eff["output"], ["defosc", *args])
    except (DefoscError, ValueError, OSError) as exc:
        return _fail(str(exc))
    return code


if __name__ == "__main__":
    sys.exit(main())
