"""End-to-end tests of the command-line interface and its payload contracts."""

import importlib.resources
import json
import math
import subprocess
import sys

import jsonschema
import pytest

from defosc import cli, custom_sequence
from defosc.cli import main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _validate(payload):
    name = payload["schema"].removeprefix("defosc.") + ".json"
    schema_file = importlib.resources.files("defosc").joinpath("schemas", name)
    schema = json.loads(schema_file.read_text(encoding="utf-8"))
    jsonschema.validate(payload, schema)


def _run_json(capsys, argv, expect_code=0):
    code, out, err = _run(capsys, argv)
    assert code == expect_code, err or out
    payload = json.loads(out)
    _validate(payload)
    return payload


# -- families --

def test_families_json(capsys):
    payload = _run_json(capsys, ["families"])
    names = [e["name"] for e in payload["families"]]
    assert "harmonic" in names and "little-q-jacobi" in names
    lqj = next(e for e in payload["families"] if e["name"] == "little-q-jacobi")
    assert {p["name"] for p in lqj["params"]} == {"a", "b", "q"}
    assert all(p["required"] for p in lqj["params"])


def test_families_csv(capsys):
    code, out, _ = _run(capsys, ["families", "--format", "csv"])
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("family,symmetric,param")


# -- verify --

def test_verify_harmonic(capsys):
    payload = _run_json(capsys, ["verify", "--family", "harmonic"])
    assert payload["passed"] is True
    assert payload["dim"] == 64
    assert len(payload["relations"]) == 6


def test_verify_golden_point_with_keyword_parameters(capsys):
    payload = _run_json(
        capsys,
        ["verify", "--family", "little-q-jacobi", "--a", "q", "--b", "1", "--q", "golden", "--dim", "64"],
    )
    assert payload["passed"] is True
    assert payload["params"]["q"] == pytest.approx(payload["params"]["a"], rel=1e-15)


def test_verify_csv_format(capsys):
    code, out, _ = _run(capsys, ["verify", "--family", "harmonic", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "relation,interior_residual,boundary_residual,passed"
    assert len(lines) == 7


def test_verify_dump_operators(capsys):
    payload = _run_json(
        capsys,
        ["verify", "--family", "harmonic", "--dim", "8", "--dump-operators"],
    )
    ops = payload["operators"]
    assert set(ops) == {"x", "p", "a_plus", "a_minus", "n", "b", "h"}
    assert ops["x"]["dim"] == 8
    assert len(ops["x"]["dense"]) == 8
    kinds = {"x": "X", "p": "P", "a_plus": "a+", "a_minus": "a-", "n": "N", "b": "B", "h": "H"}
    assert {key: op["kind"] for key, op in ops.items()} == kinds
    assert [key for key, op in ops.items() if op["imaginary"]] == ["p"]


def test_verify_failure_exit_code(capsys, monkeypatch):
    # the relations are identities of the construction, so only an arithmetic
    # defect such as a NaN coefficient can fail them
    nan_seq = custom_sequence(lambda n: math.nan if n == 3 else 1.0)
    monkeypatch.setattr(cli, "_resolve_sequence", lambda eff: nan_seq)
    code, out, _ = _run(capsys, ["verify", "--family", "harmonic"])
    assert code == 3
    assert json.loads(out)["passed"] is False


def test_verify_invalid_inputs(capsys):
    code, _, err = _run(capsys, ["verify", "--family", "harmonic", "--dim", "2"])
    assert code == 2 and "error" in err
    # the message was wrapped in quotes as the repr of a KeyError argument
    code, _, err = _run(capsys, ["verify", "--family", "nope"])
    assert code == 2
    assert err == (
        "defosc: error: unknown family 'nope'; known: harmonic, chebyshev-t, chebyshev-u,"
        " laguerre, little-q-jacobi, fibonacci-golden, ismail-theta\n"
    )
    code, _, err = _run(capsys, ["verify"])
    assert code == 2 and "--family" in err
    # --a q without an explicit --q cannot be resolved
    code, _, err = _run(capsys, ["verify", "--family", "little-q-jacobi", "--a", "q", "--b", "1"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, named",
    [
        # were passed: true / Finite with every residual 0.0
        (["verify", "--family", "laguerre", "--alpha", "inf"], "alpha"),
        (["classify", "--family", "laguerre", "--alpha", "inf"], "alpha"),
        # were an OverflowError traceback, and an error about int() for nan
        (["verify", "--family", "ismail-theta", "--theta", "0.5", "--alpha", "inf"], "alpha"),
        (["verify", "--family", "ismail-theta", "--theta", "0.5", "--alpha", "nan"], "alpha"),
        # were exit 0 with convergent: true and NaN coefficients or rows
        (["coherent", "--family", "harmonic", "--z", "nan"], "z"),
        (["coherent", "--family", "harmonic", "--z", "0.5,inf"], "z"),
        # were exit 3 (verify) and exit 0 (classify, coherent)
        (["verify", "--family", "harmonic", "--tol", "nan"], "tol"),
        (["classify", "--family", "harmonic", "--tol", "nan"], "tol"),
        (["coherent", "--family", "harmonic", "--z", "0.5", "--tol", "-1"], "tol"),
        # were exit 3, and exit 0 with passed: true for fib berg --tol inf
        (["fib", "ismail", "--tol", "nan"], "tol"),
        (["fib", "ismail", "--tol", "-1"], "tol"),
        (["fib", "berg", "--tol", "nan"], "tol"),
        (["fib", "berg", "--tol", "inf"], "tol"),
    ],
)
def test_non_finite_input_exits_2(capsys, argv, named):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert named in err and "finite" in err


# -- classify --

def test_classify_verdicts(capsys):
    payload = _run_json(capsys, ["classify", "--family", "harmonic"])
    assert payload["result"]["verdict"] == "Finite"
    assert payload["result"]["dim"] == 4
    payload = _run_json(capsys, ["classify", "--family", "chebyshev-t"])
    assert payload["result"]["verdict"] == "Infinite"
    assert payload["result"]["witness_j"] == 1


def test_laguerre_overflowing_b_exits_2(capsys):
    # were exit 3 with numpy overflow warnings (verify), a NaN fit (classify)
    # and exit 0 with NaN rows (coherent)
    for command in (["verify"], ["classify"], ["coherent", "--z", "0.5"]):
        argv = [*command, "--family", "laguerre", "--alpha", "1e308"]
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert "alpha=1e+308, n=1" in err and "overflows" in err


def test_laguerre_overflowing_a_exits_2(capsys):
    # X @ X overflowed: verify exited 0 with a numpy overflow warning and a
    # null xp_identity_gap at alpha 1e300, coherent raised an OverflowError
    for command in (["verify"], ["coherent", "--z", "0.5"]):
        argv = [*command, "--family", "laguerre", "--dim", "8", "--alpha"]
        for alpha in ("1e200", "1e300"):
            code, out, err = _run(capsys, [*argv, alpha])
            assert code == 2 and out == ""
            assert "a_0^2" in err and f"alpha={float(alpha)}, n=0" in err
        # a_n^2 is finite here, and any RuntimeWarning fails the suite
        assert _run(capsys, [*argv, "1e150"])[0] == 0


def test_q_family_overflowing_parameters_exit_2(capsys):
    # (1 - a*q)(1 - a*b*q) overflows and A_0 was inf/inf: coherent exited 0
    # with NaN fields, verify 3 with null residuals, classify 0 Inconclusive
    for a, b in (("1e160", "1"), ("1e300", "1e10")):
        family = ["--family", "little-q-jacobi", "--a", a, "--b", b, "--q", "0.5"]
        for command in (["verify"], ["classify"], ["coherent", "--z", "0.5", "--dim", "8"]):
            code, out, err = _run(capsys, [*command, *family])
            assert code == 2 and out == ""
            assert f"A_0, C_0 overflow a float at a={float(a)}, b={float(b)}, q=0.5" in err


def test_q_family_overflowing_denominators_exit_2(capsys):
    # (1 - a*b*q)(1 - a*b*q^2) overflowed to inf over a finite numerator, so
    # every A_n and b_n came out 0: verify exited 0 with every relation passed
    family = ["--family", "little-q-jacobi", "--a", "1", "--b", "1e200", "--q", "0.5"]
    for command in (["verify"], ["classify"], ["coherent", "--z", "0.5", "--dim", "8"]):
        code, out, err = _run(capsys, [*command, *family])
        assert code == 2 and out == ""
        assert err == (
            "defosc: error: little q-Jacobi denominators (1 - a*b*q^k) overflow a float "
            "at n=0, a=1.0, b=1e+200, q=0.5\n"
        )
    # a non-finite A_0 is still reported as such, although its denominator overflows too
    family = ["--family", "little-q-jacobi", "--a", "1e160", "--b", "1", "--q", "0.5"]
    code, out, err = _run(capsys, ["coherent", "--z", "0.5", "--dim", "8", *family])
    assert code == 2 and out == ""
    assert err == (
        "defosc: error: little q-Jacobi A_0, C_0 overflow a float at a=1e+160, b=1.0, q=0.5\n"
    )


def test_verify_all_zero_window_exits_2(capsys):
    # a = q^(alpha-1) underflows (alpha = 1100) or is subnormal (alpha = 1074), so
    # every b_n is 0.0; a = 0 makes every C_n, and so every b_n, exactly 0
    for family in (
        ["--family", "ismail-theta", "--theta", "0.7", "--alpha", "1100", "--q", "0.5"],
        ["--family", "ismail-theta", "--theta", "0.7", "--alpha", "1074", "--q", "0.5"],
        ["--family", "little-q-jacobi", "--a", "0", "--b", "0.5", "--q", "0.5"],
    ):
        code, out, err = _run(capsys, ["verify", *family])
        assert code == 2 and out == ""
        assert "every b_n with n < 63 is 0 in double precision" in err
        assert "no oscillator to verify" in err
    payload = _run_json(capsys, ["verify", "--family", "fibonacci-golden", "--dim", "4096"])
    assert payload["passed"] is True


def test_degenerate_parameters_name_the_index(capsys):
    argv = ["verify", "--family", "little-q-jacobi", "--a", "64", "--b", "1", "--q", "0.5"]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert "1 - a*b*q^(2n+2) vanishes at n=2" in err


def test_classify_csv_is_difference_table(capsys):
    code, out, _ = _run(
        capsys, ["classify", "--family", "harmonic", "--nmax", "10", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "j,n,value"
    assert len(lines) == 1 + 11 + 10 + 9


def test_classify_underflowed_b_exits_2(capsys):
    # every b_n^2 is 0.0 at theta = 300; it printed Finite with beta = 0
    code, out, err = _run(capsys, ["classify", "--family", "ismail-theta", "--theta", "300"])
    assert code == 2 and out == ""
    assert "0 in double precision (a true zero or an underflow)" in err


@pytest.mark.parametrize(
    "family",
    [
        ["--family", "ismail-theta", "--theta", "300"],
        ["--family", "little-q-jacobi", "--a", "0", "--b", "0.5", "--q", "0.5"],
        ["--family", "ismail-theta", "--theta", "0.7", "--alpha", "1100", "--q", "0.5"],
    ],
)
def test_classify_all_zero_window_exits_2_in_both_formats(capsys, family):
    # the CSV table exited 0 printing zeros where JSON exited 2
    errors = []
    for fmt in ("json", "csv"):
        code, out, err = _run(capsys, ["classify", *family, "--format", fmt])
        assert code == 2 and out == "", fmt
        errors.append(err)
    assert errors[0] == errors[1]
    assert "every b_n^2 with n <= 64 is 0 in double precision" in errors[0]


def test_little_q_legendre_is_accepted(capsys):
    # C_0 was 0/0 at ab = 1: each exited 2 with "1 - a*b*q^(2n) vanishes"
    for argv in (
        ["--family", "little-q-jacobi", "--a", "1", "--b", "1", "--q", "0.5"],
        ["--family", "ismail-theta", "--theta", "0.7", "--alpha", "1", "--q", "0.5"],
    ):
        assert _run_json(capsys, ["verify", *argv])["passed"] is True
    # with the default q < 0 the measure at alpha = 1 is signed
    code, out, err = _run(capsys, ["verify", "--family", "ismail-theta", "--theta", "0.7", "--alpha", "1"])
    assert code == 2 and out == ""
    assert "A_0*C_1 = " in err and "< 0" in err


def test_classify_keyword_parameters(capsys):
    payload = _run_json(
        capsys,
        ["classify", "--family", "little-q-jacobi", "--a", "golden", "--b", "1", "--q", "golden"],
    )
    assert payload["result"]["verdict"] == "Infinite"


# -- coherent --

def test_coherent_csv_default_format(capsys):
    code, out, _ = _run(
        capsys, ["coherent", "--family", "harmonic", "--z", "0,0.5,0.3+0.1j", "--dim", "32"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "z,norm_constant,log_norm_constant,residual,dx_dp,bound,convergent,truncation_ok"
    assert len(lines) == 4


def test_coherent_at_dim_2(capsys):
    # make_state takes dim 2, but uncertainty's build_operators exited 2 with
    # "dim must be >= 3"
    code, out, err = _run(
        capsys, ["coherent", "--family", "harmonic", "--z", "0.5", "--dim", "2", "--tol", "0.1"]
    )
    assert code == 0, err
    assert len(out.splitlines()) == 2


def test_coherent_json_format(capsys):
    payload = _run_json(
        capsys,
        ["coherent", "--family", "harmonic", "--z", "0.5", "--dim", "32", "--format", "json"],
    )
    assert payload["dim"] == 32
    assert len(payload["states"]) == 1
    state = payload["states"][0]
    assert state["truncation_ok"] is True
    assert state["z"] == [0.5, 0.0]


def test_coherent_flags_truncated_grid_rows(capsys):
    code, out, _ = _run(
        capsys, ["coherent", "--family", "harmonic", "--z", "2.5", "--dim", "12"]
    )
    assert code == 3
    assert out.splitlines()[1].endswith("true,false")


def test_coherent_divergent_family_not_flagged(capsys):
    # the golden family never converges, so truncation flags do not apply
    code, out, _ = _run(
        capsys, ["coherent", "--family", "fibonacci-golden", "--z", "0.3", "--dim", "48"]
    )
    assert code == 0
    assert out.splitlines()[1].endswith("false,true")


def test_coherent_requires_z(capsys):
    code, _, err = _run(capsys, ["coherent", "--family", "harmonic"])
    assert code == 2 and "--z" in err


def test_coherent_huge_z_exits_2(capsys):
    # was exit 1 with an OverflowError traceback from |z|^2
    code, out, err = _run(capsys, ["coherent", "--family", "harmonic", "--z", "1e200", "--dim", "8"])
    assert code == 2 and out == "" and "z" in err
    # valid input: the harmonic series converges, but dim 8 cannot hold it
    code, out, _ = _run(
        capsys, ["coherent", "--family", "harmonic", "--z", "1e150", "--dim", "8", "--format", "json"]
    )
    assert code == 3 and json.loads(out)["states"][0]["truncation_ok"] is False


def test_coherent_convergent_state_past_the_edge_exits_3(capsys):
    # |z|^2 = 900 >= 2 b_63^2 = 64 was called divergent, with truncation_ok true
    argv = ["coherent", "--family", "harmonic", "--z", "30", "--dim", "64", "--format", "json"]
    payload = _run_json(capsys, argv, expect_code=3)
    state = payload["states"][0]
    assert state["convergent"] is True
    assert state["truncation_ok"] is False
    assert state["tail_bound"] == 1.0


# -- fib subcommands --

def test_fib_numbers(capsys):
    payload = _run_json(capsys, ["fib", "numbers"])
    assert payload["n"] == 10
    assert payload["value"] == 89
    assert payload["sequence"][:5] == [1, 1, 2, 3, 5]
    assert payload["passed"] is True


def test_fib_numbers_exact_limit(capsys):
    code, _, err = _run(capsys, ["fib", "numbers", "--n", "65"])
    assert code == 2 and "exact mode" in err
    payload = _run_json(capsys, ["fib", "numbers", "--n", "64"])
    assert payload["value"] == 17167680177565


def test_fib_numbers_csv(capsys):
    code, out, _ = _run(capsys, ["fib", "numbers", "--n", "3", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["n,value", "0,1", "1,1", "2,2", "3,3"]


def test_fib_ismail_default_theta0(capsys):
    payload = _run_json(capsys, ["fib", "ismail"])
    assert payload["at_theta0"] is True
    assert payload["passed"] is True
    assert payload["max_rel_diff"] <= 1e-12
    assert payload["rows"][0]["fib_value"] == 1
    assert payload["theta"] == pytest.approx(0.48121182505960347, rel=1e-15)


def test_fib_ismail_generic_theta(capsys):
    payload = _run_json(capsys, ["fib", "ismail", "--theta", "0.7", "--n", "20"])
    assert payload["at_theta0"] is False
    assert payload["passed"] is True
    assert "fib_value" not in payload["rows"][0]


def test_fib_filbert(capsys):
    payload = _run_json(capsys, ["fib", "filbert", "--n", "4"])
    assert payload["passed"] is True
    assert all(r["integer_inverse"] and r["product_is_identity"] for r in payload["rows"])
    code, _, err = _run(capsys, ["fib", "filbert", "--n", "0"])
    assert code == 2
    code, _, err = _run(capsys, ["fib", "filbert", "--n", "65"])
    assert code == 2


def test_fib_berg(capsys):
    payload = _run_json(capsys, ["fib", "berg"])
    assert payload["passed"] is True
    assert payload["alpha"] == pytest.approx(1.618033988749895, rel=1e-12)
    assert payload["max_off_diagonal"] < 1e-8


def test_fib_berg_smallest_table(capsys):
    payload = _run_json(capsys, ["fib", "berg", "--nmax", "1"])
    assert payload["n_max"] == 1
    assert payload["passed"] is True
    assert payload["normalized_off_diagonal"] == [[0.0], []]


def test_fib_ismail_overflow_exits_2(capsys):
    code, out, err = _run(capsys, ["fib", "ismail", "--theta", "800", "--n", "5"])
    assert code == 2 and out == "" and "overflows" in err
    code, out, err = _run(capsys, ["fib", "ismail", "--theta", "inf", "--n", "5"])
    assert code == 2 and out == "" and "finite" in err


def test_fib_berg_csv(capsys):
    code, out, _ = _run(capsys, ["fib", "berg", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "m,n,normalized_gram"


# -- every command in both formats --

_CSV_CASES = [
    (["families"], "families", "family,symmetric,param,default,minimum,maximum,required,description"),
    (["verify", "--family", "harmonic", "--dim", "16"], "verify",
     "relation,interior_residual,boundary_residual,passed"),
    (["classify", "--family", "fibonacci-golden", "--nmax", "16"], "classify", "j,n,value"),
    (["coherent", "--family", "harmonic", "--z", "0.3,1j", "--dim", "32"], "coherent",
     "z,norm_constant,log_norm_constant,residual,dx_dp,bound,convergent,truncation_ok"),
    (["fib", "numbers", "--n", "20"], "fib-numbers", "n,value"),
    (["fib", "ismail"], "fib-ismail", "n,closed_form,recurrence,rel_diff,fib_value,fib_rel_diff"),
    (["fib", "ismail", "--theta", "0.7", "--n", "20"], "fib-ismail", "n,closed_form,recurrence,rel_diff"),
    (["fib", "filbert", "--n", "4"], "fib-filbert", "n,integer_inverse,product_is_identity"),
    (["fib", "berg"], "fib-berg", "m,n,normalized_gram"),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "argv, schema, header", _CSV_CASES, ids=[" ".join(c[0][:3]) for c in _CSV_CASES]
)
def test_every_command_in_both_formats(capsys, argv, schema, header, fmt):
    code, out, err = _run(capsys, [*argv, "--format", fmt])
    assert code == 0, err
    if fmt == "json":
        payload = json.loads(out)
        assert payload["schema"] == f"defosc.{schema}.v1"
        _validate(payload)
    else:
        assert out.splitlines()[0] == header


# -- config files --

def test_config_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"dim": 16, "family": "harmonic"}))
    payload = _run_json(capsys, ["verify", "--config", str(cfg)])
    assert payload["dim"] == 16


def test_cli_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"dim": 16, "family": "harmonic"}))
    payload = _run_json(capsys, ["verify", "--config", str(cfg), "--dim", "8"])
    assert payload["dim"] == 8


def test_config_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = _run(capsys, ["verify", "--family", "harmonic", "--config", str(cfg)])
    assert code == 2 and "bogus" in err
    cfg.write_text(json.dumps([1, 2]))
    code, _, err = _run(capsys, ["verify", "--family", "harmonic", "--config", str(cfg)])
    assert code == 2
    code, _, err = _run(capsys, ["verify", "--family", "harmonic", "--config", str(tmp_path / "missing.json")])
    assert code == 2
    # values go through the flag's type and choices and are named when they fail
    for command, key, value in (
        ("verify", "format", "xml"),
        ("coherent", "format", "xml"),
        ("verify", "dim", None),
        ("verify", "dim", [1]),
        ("coherent", "z", [[0.1, 0.2]]),
    ):
        cfg.write_text(json.dumps({key: value}))
        code, out, err = _run(capsys, [command, "--family", "harmonic", "--config", str(cfg)])
        assert code == 2 and out == "" and f"'{key}'" in err


def test_config_values_read_like_flags(capsys, tmp_path):
    cfg = tmp_path / "coherent.json"
    cfg.write_text(json.dumps({"family": "harmonic", "z": [0.5, "0.3+0.1j"], "dim": 16, "tol": 1e-8}))
    by_config = _run(capsys, ["coherent", "--config", str(cfg)])
    by_flags = _run(capsys, ["coherent", "--family", "harmonic", "--z", "0.5,0.3+0.1j", "--dim", "16", "--tol", "1e-8"])
    assert by_config == by_flags and by_config[0] == 0
    cfg.write_text(json.dumps({"family": "harmonic", "dim": 8, "dump_operators": True}))
    by_config = _run(capsys, ["verify", "--config", str(cfg)])
    assert by_config == _run(capsys, ["verify", "--family", "harmonic", "--dim", "8", "--dump-operators"])
    assert "operators" in json.loads(by_config[1])


# -- output files and reproducibility --

def test_output_writes_payload_and_metadata_sidecar(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, ["verify", "--family", "harmonic", "--dim", "16", "--output", str(target)]
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    _validate(payload)
    meta = json.loads((target.parent / "report.json.meta.json").read_text())
    assert meta["argv"][0] == "defosc"
    assert "generated_at" in meta and "version" in meta
    # an unwritable target is invalid input, not a traceback
    code, _, err = _run(
        capsys, ["verify", "--family", "harmonic", "--output", str(tmp_path / "missing" / "r.json")]
    )
    assert code == 2 and "missing" in err


def test_payloads_are_byte_identical_across_reruns(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for target in (first, second):
        code, _, _ = _run(
            capsys,
            ["classify", "--family", "fibonacci-golden", "--output", str(target)],
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


# -- process-level behavior --

def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "defosc.cli", "families"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["schema"] == "defosc.families.v1"


_RUN_COMMAND = (
    "import contextlib, io\n"
    "from defosc.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main({argv!r})\n"
    "if code:\n"
    "    raise SystemExit(code)\n"
)


def _command(argv: str, loaded: set):
    return pytest.param(_RUN_COMMAND.format(argv=argv.split()), loaded, id=argv)


@pytest.mark.parametrize(
    "code, loaded",
    [
        pytest.param("import defosc", set(), id="import defosc"),
        pytest.param("import defosc.cli", set(), id="import defosc.cli"),
        _command("families", set()),
        _command("fib numbers --n 20", set()),
        _command("fib ismail --theta 0.7 --n 20", set()),
        _command("fib filbert --n 8", set()),
        _command("fib berg --nmax 6", set()),
        _command("classify --family fibonacci-golden --nmax 64", set()),
        _command("classify --family little-q-jacobi --a 0.5 --b 0.5 --q 0.5 --nmax 4096", set()),
        _command("verify --family harmonic --dim 8", {"numpy"}),
    ],
)
def test_import_footprint(code, loaded):
    # a fresh interpreter per case: numpy and mpmath load only where used
    probe = code + "\nimport sys\nprint(*sorted({'numpy', 'mpmath'} & sys.modules.keys()))\n"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == loaded
