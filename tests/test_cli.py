import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import finitehilbert
from finitehilbert.cli import (
    EXIT_DESCRIPTOR,
    EXIT_NOT_SOLVABLE,
    EXIT_PARSE,
    EXIT_QUADRATURE,
    FunctionSpec,
    load_run_config,
    main,
    parse_function_spec,
)
from finitehilbert.engine import DEFAULT_CONFIG
from finitehilbert.errors import FunctionSpecError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# FunctionSpec parsing

def test_spec_round_trips():
    for text in ("poly:[0.0,1.0]", "chebT:[1.0,-0.5]", "chebU:[2.0]",
                 "weighted:{-0.5,-0.5,chebT:[1.0]}", "csv:/tmp/data.csv"):
        spec = parse_function_spec(text)
        assert spec.to_string() == text
        assert parse_function_spec(spec.to_string()).to_string() == text


def test_spec_poly_evaluates_as_monomials():
    f = parse_function_spec("poly:[1,0,2]").to_function()
    assert complex(f(0.5)) == pytest.approx(1.0 + 2.0 * 0.25)


def test_spec_parse_errors():
    for bad in ("nope:[1]", "poly:[]", "poly:[abc]", "weighted:{1,chebT:[1]}"):
        with pytest.raises(FunctionSpecError):
            parse_function_spec(bad)


def test_config_precedence(tmp_path, monkeypatch):
    env_file = tmp_path / "env.conf"
    env_file.write_text("eps_edge = 1e-4\nmax_panels = 64\n# comment\n")
    monkeypatch.setenv("FHT_CONFIG", str(env_file))
    cfg = load_run_config(None)
    assert cfg.eps_edge == 1e-4  # from the FHT_CONFIG file
    assert cfg.max_panels == 64
    assert cfg.abs_tol == DEFAULT_CONFIG.abs_tol  # default
    flag_file = tmp_path / "flag.conf"
    flag_file.write_text("abs_tol = 1e-9\n")
    cfg = load_run_config(str(flag_file))  # --config wins over FHT_CONFIG
    assert cfg == replace(DEFAULT_CONFIG, abs_tol=1e-9)


def test_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "bad.conf"
    cfg_file.write_text("panels = 3\n")
    with pytest.raises(FunctionSpecError):
        load_run_config(str(cfg_file))


@pytest.mark.parametrize("text", ["fmt = csv\n", "convention = widom\n", "seed = 5\n"])
@pytest.mark.parametrize("argv", [
    ["transform", "--f", "poly:[0,1]", "--points", "0"],
    ["classify", "--space", "lebesgue:1.5"],
    ["identities", "--suite", "kernel"],
], ids=["transform", "classify", "identities"])
def test_config_rejects_flag_settings(tmp_path, capsys, argv, text):
    # format, convention and seed are flags only, on every subcommand
    cfg_file = tmp_path / "fht.conf"
    cfg_file.write_text(text)
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg_file))
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("parse error: unknown config key")


# ---------------------------------------------------------------------------
# Subcommands

def test_transform_kernel_grid(capsys):
    code, out, _ = run_cli(capsys, "transform",
                           "--f", "weighted:{-0.5,-0.5,chebT:[1]}",
                           "--grid", "9", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert all(abs(row["re"]) < 1e-9 and abs(row["im"]) < 1e-9
               for row in payload["table"])


def test_transform_weight_point(capsys):
    code, out, _ = run_cli(capsys, "transform",
                           "--f", "weighted:{0.5,0.5,chebU:[1]}",
                           "--points", "0.25", "--no-timestamp")
    payload = json.loads(out)
    assert code == 0
    assert payload["table"][0]["re"] == pytest.approx(-0.25, abs=1e-9)


def test_transform_csv_format(capsys):
    code, out, _ = run_cli(capsys, "transform", "--f", "poly:[0,1]",
                           "--points", "0", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,re,im"
    assert float(lines[1].split(",")[1]) == pytest.approx(2.0 / math.pi, abs=1e-9)


def test_transform_non_interior_point(capsys):
    code, _, _ = run_cli(capsys, "transform", "--f", "poly:[0,1]",
                         "--points", "1.0")
    assert code == EXIT_PARSE


def test_invert_high(capsys):
    code, out, _ = run_cli(capsys, "invert", "--g", "chebT:[0,1]",
                           "--regime", "high", "--no-timestamp")
    payload = json.loads(out)
    assert code == 0
    assert payload["solution"] == "weighted:{0.5,0.5,chebU:[-1.0]}"
    assert payload["roundtrip_residual"] < 1e-6


def test_invert_low(capsys):
    code, out, _ = run_cli(capsys, "invert", "--g", "chebT:[1]",
                           "--regime", "low", "--constant", "0",
                           "--no-timestamp")
    payload = json.loads(out)
    assert code == 0
    assert payload["solution"] == "weighted:{-0.5,-0.5,chebT:[0.0,1.0]}"


def test_classify_point_and_alias(capsys):
    for cmd in ("classify-spectrum", "classify"):
        code, out, _ = run_cli(capsys, cmd, "--space", "lebesgue:1.5",
                               "--lambda", "0,0", "--no-timestamp")
        payload = json.loads(out)
        assert code == 0
        assert payload["classification"] == "point"
        assert payload["convention"] == "widom"


def test_classify_lorentz_row(capsys):
    code, out, _ = run_cli(capsys, "classify", "--space", "lorentz:2,1",
                           "--no-timestamp")
    payload = json.loads(out)
    assert code == 0
    assert payload["residual"] == "open_unit_interval"


def test_classify_resolvent(capsys):
    code, out, _ = run_cli(capsys, "classify", "--space", "lebesgue:2",
                           "--lambda", "3,0", "--no-timestamp")
    assert json.loads(out)["classification"] == "resolvent"


def test_classify_boundary_csv(tmp_path, capsys):
    target = tmp_path / "boundary.csv"
    code, _, _ = run_cli(capsys, "classify", "--space", "lebesgue:1.5",
                         "--boundary-csv", str(target), "--no-timestamp")
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) >= 400


def test_eigencheck_real_lambda(capsys):
    code, out, _ = run_cli(capsys, "eigencheck", "--lambda", "0,0",
                           "--no-timestamp")
    payload = json.loads(out)
    assert code == 0
    assert payload["max_residual"] < 1e-8
    assert payload["convention"] == "widom"


def test_identities_kernel_suite(capsys):
    code, out, _ = run_cli(capsys, "identities", "--suite", "kernel",
                           "--no-timestamp")
    payload = json.loads(out)
    assert code == 0
    assert payload["pass"]


def test_identities_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for target in (out1, out2):
        code = main(["identities", "--suite", "laeng", "--seed", "1",
                     "--no-timestamp", "--output", str(target)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_atomic_output_write(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _, _ = run_cli(capsys, "transform", "--f", "poly:[0,1]",
                         "--points", "0", "--no-timestamp",
                         "--output", str(target))
    assert code == 0
    assert json.loads(target.read_text())["command"] == "transform"
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".fht-")]
    assert not leftovers


def test_norms_subcommand(capsys):
    code, out, _ = run_cli(capsys, "norms", "--p", "1.5",
                           "--family-size", "5", "--no-timestamp")
    payload = json.loads(out)
    assert code == 0
    assert payload["reports"][0]["analytic_bound"] == pytest.approx(math.sqrt(3))


def test_csv_spec_input(tmp_path, capsys):
    from finitehilbert.functions import sample, sampled_to_csv

    grid = sample(lambda x: x, 120, spacing="cos")
    path = tmp_path / "f.csv"
    path.write_text(sampled_to_csv(grid))
    code, out, _ = run_cli(capsys, "transform", "--f", f"csv:{path}",
                           "--points", "0", "--no-timestamp")
    payload = json.loads(out)
    assert code == 0
    assert payload["table"][0]["re"] == pytest.approx(2.0 / math.pi, abs=1e-5)


_CSV_ARGV = ["transform", "--f", "csv:{file}", "--points", "0"]
_CONFIG_ARGV = ["transform", "--f", "poly:[0,1]", "--points", "0", "--config", "{file}"]


@pytest.mark.parametrize("argv, file_text", [
    pytest.param(["transform", "--f", "poly:[0,1]", "--grid", "0"], None,
                 id="transform-grid-0"),
    pytest.param(["transform", "--f", "poly:[0,1]", "--grid", "-2"], None,
                 id="transform-grid-negative"),
    pytest.param(["eigencheck", "--lambda", "0,0", "--grid", "0"], None,
                 id="eigencheck-grid-0"),
    pytest.param(["norms", "--p", "1.5", "--family-size", "0"], None,
                 id="norms-family-size-0"),
    pytest.param(["eigencheck", "--lambda", "0,100"], None,
                 id="eigencheck-gamma-near-1"),
    pytest.param(_CSV_ARGV, "a,b,c\n0.1,1,0\n", id="csv-wrong-header"),
    pytest.param(_CSV_ARGV, "", id="csv-empty"),
    pytest.param(_CSV_ARGV, "x,re,im\n0.1,abc,0\n", id="csv-non-numeric"),
    pytest.param(_CSV_ARGV, "x,re,im\n0.1,1\n", id="csv-short-row"),
    pytest.param(_CSV_ARGV, "x,re,im\n0.1,1,0\n", id="csv-one-sample"),
    pytest.param(_CONFIG_ARGV, "abs_tol = 0\n", id="config-zero-tolerance"),
    pytest.param(_CONFIG_ARGV, "max_panels = abc\n", id="config-bad-int"),
    pytest.param(_CONFIG_ARGV, "rel_tol = nan\n", id="config-nan-tolerance"),
    pytest.param(["transform", "--f", "poly:[0,1]", "--points", "1.5",
                  "--config", "{file}"], "eps_edge = -1\n", id="config-negative-edge"),
    pytest.param(["norms", "--p", "abc"], None, id="norms-p-not-float"),
    pytest.param(["norms", "--weighted", "1,2"], None, id="norms-weighted-two-values"),
    pytest.param(["norms", "--weighted", "a,b,c"], None, id="norms-weighted-not-float"),
    pytest.param(["norms", "--p", "1.5", "--family-size", "2", "--weighted", "0.1,0.1,1"],
                 None, id="norms-weighted-p-1"),
    pytest.param(["classify", "--space", "lebesgue:1.5", "--boundary-points", "0"],
                 None, id="classify-boundary-points-0"),
    pytest.param(["classify", "--space", "lebesgue:1.5", "--boundary-points", "-5"],
                 None, id="classify-boundary-points-negative"),
    # flags a subcommand does not read are rejected, not silently ignored
    pytest.param(["invert", "--g", "chebT:[0,1]", "--regime", "high",
                  "--convention", "widom"], None, id="invert-convention"),
    pytest.param(["classify", "--space", "lebesgue:1.5", "--format", "csv"], None,
                 id="classify-format"),
    pytest.param(["transform", "--f", "poly:[0,1]", "--points", "0", "--seed", "1"],
                 None, id="transform-seed"),
    # non-finite numbers and negative seeds are rejected at parse time
    pytest.param(["identities", "--suite", "kernel", "--seed", "-2"], None,
                 id="identities-seed-negative"),
    pytest.param(["norms", "--seed", "-3"], None, id="norms-seed-negative"),
    pytest.param(["classify", "--space", "lebesgue:1.5", "--lambda=nan,0"], None,
                 id="classify-lambda-nan"),
    pytest.param(["eigencheck", "--lambda=nan,0"], None, id="eigencheck-lambda-nan"),
    pytest.param(["eigencheck", "--lambda=0.2,inf"], None, id="eigencheck-lambda-inf"),
    pytest.param(["norms", "--p", "nan"], None, id="norms-p-nan"),
    pytest.param(["norms", "--weighted", "0,0,inf"], None, id="norms-weighted-inf"),
    # non-finite weight exponents
    pytest.param(["transform", "--f", "weighted:{nan,0,chebT:[1]}", "--points=0.1"], None,
                 id="weighted-exponent-nan"),
    pytest.param(["transform", "--f", "weighted:{0.3+nanj,0,chebT:[1]}", "--points=0.1"],
                 None, id="weighted-exponent-imag-nan"),
    pytest.param(["transform", "--f", "weighted:{0.3,inf,chebT:[1]}", "--points=0.1"], None,
                 id="weighted-exponent-inf"),
    pytest.param(["transform", "--f", "weighted:{0.3,infj,chebT:[1]}", "--points=0.1"], None,
                 id="weighted-exponent-imag-inf"),
    pytest.param(["invert", "--g", "weighted:{nan,0,chebT:[1]}", "--regime", "high"], None,
                 id="invert-weighted-exponent-nan"),
])
def test_invalid_input_exits_2(tmp_path, capsys, argv, file_text):
    if file_text is not None:
        path = tmp_path / "input"
        path.write_text(file_text)
        argv = [tok.replace("{file}", str(path)) for tok in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the argument at parse time
        code = exc.code
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert "Traceback" not in err
    assert "Warning" not in err


@pytest.mark.parametrize("argv, file_text, code, stderr_start", [
    pytest.param(["transform", "--f", "junk:[1]", "--points", "0"], None,
                 EXIT_PARSE, "parse error: ", id="parse-error"),
    pytest.param(["transform", "--f", "poly:[0,1]", "--points", "0",
                  "--output", "{tmp}/missing/out.json"], None,
                 EXIT_PARSE, "parse error: ", id="os-error"),
    pytest.param(["eigencheck", "--lambda", "2,0"], None,
                 EXIT_PARSE, "error: ", id="other-error"),
    pytest.param(["transform", "--f", "weighted:{0.3,-0.4,chebT:[1,2,3]}",
                  "--points", "0.5", "--config", "{file}"],
                 "max_panels = 4\nabs_tol = 1e-14\nrel_tol = 1e-14\n",
                 EXIT_QUADRATURE, "quadrature failure: ", id="quadrature-failure"),
    pytest.param(["invert", "--g", "chebT:[1]", "--regime", "high"], None,
                 EXIT_NOT_SOLVABLE, "not solvable: residual 1.000000e+00\n",
                 id="not-solvable"),
    pytest.param(["classify", "--space", "lorentz:2,inf"], None,
                 EXIT_DESCRIPTOR, "unsupported descriptor: ", id="unsupported-descriptor"),
])
def test_exit_code_table(tmp_path, capsys, argv, file_text, code, stderr_start):
    path = tmp_path / "input"
    if file_text is not None:
        path.write_text(file_text)
    argv = [tok.replace("{file}", str(path)).replace("{tmp}", str(tmp_path))
            for tok in argv]
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.startswith(stderr_start)
    assert err.count("\n") == 1


_NON_FINITE_QUADRATURE = "quadrature failure: quadrature returned a non-finite value\n"


@pytest.mark.parametrize("argv, stderr", [
    pytest.param(["transform", "--f", "chebT:[1e308,1e308]", "--grid", "3"],
                 "non-finite result: T(f) is not finite at x=-0.9\n", id="closed-form"),
    pytest.param(["transform", "--f", "poly:[1e308,1e308]", "--grid", "3", "--format", "csv"],
                 "non-finite result: T(f) is not finite at x=-0.9\n", id="closed-form-csv"),
    pytest.param(["transform", "--f", "poly:[1e308,1e308,1e308,1e308,1e308,1e308]", "--grid", "3"],
                 "non-finite result: the Chebyshev form of the polynomial overflowed\n",
                 id="closed-form-conversion"),
    pytest.param(["transform", "--f", "weighted:{0.5,0.5,chebU:[1e308,1e308]}", "--grid", "3"],
                 "non-finite result: T(f) is not finite at x=-0.9\n", id="spectral"),
    pytest.param(["transform", "--f", "weighted:{-0.5,-0.5,chebU:[1e308,1e308,1e308]}",
                  "--grid", "3"],
                 "non-finite result: T(f) overflowed: non-finite series coefficient\n",
                 id="spectral-conversion"),
    pytest.param(["transform", "--f", "weighted:{0.3,-0.4,chebT:[1e308,1e308]}", "--grid", "3"],
                 _NON_FINITE_QUADRATURE, id="quadrature"),
    pytest.param(["transform", "--f", "weighted:{2000,0,chebT:[1]}", "--points=0.1"],
                 _NON_FINITE_QUADRATURE, id="quadrature-weight-overflow"),
    pytest.param(["invert", "--g", "chebT:[1e308,1e308,1e308]", "--regime", "low"],
                 _NON_FINITE_QUADRATURE, id="invert"),
    pytest.param(["invert", "--g", "chebT:[1e308,-1e308]", "--regime", "low"],
                 "quadrature failure: f is not finite at t=-0.95\n", id="invert-rhs-overflow"),
    pytest.param(["invert", "--g", "chebT:[-1.5e308,0,1e308]", "--regime", "low"],
                 "non-finite result: the inversion overflowed: non-finite series coefficient\n",
                 id="invert-conversion"),
])
def test_overflow_exits_3_with_a_named_error(capsys, argv, stderr):
    code, out, err = run_cli(capsys, *argv, "--no-timestamp")
    assert code == EXIT_QUADRATURE
    assert out == ""
    assert err == stderr
    assert "Warning" not in err


def test_repeated_main_calls_match_fresh_processes(capsys):
    """The parser is built once per process; no default or value leaks between calls."""
    argvs = [
        ["transform", "--f", "poly:[0,1]", "--grid", "0"],  # argparse error, exit 2
        ["transform", "--f", "chebT:[1,2,3]", "--points", "0.1,-0.5", "--format", "csv"],
        ["transform", "--f", "chebT:[1,2,3]", "--points", "0.1,-0.5", "--no-timestamp"],
        ["classify", "--space", "lebesgue:1.5", "--lambda", "0.2,0.3", "--no-timestamp"],
        ["identities", "--suite", "kernel", "--no-timestamp"],
    ]
    in_process = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    src = os.path.dirname(os.path.dirname(finitehilbert.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    procs = [subprocess.Popen([sys.executable, "-m", "finitehilbert.cli", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for argv in argvs]
    fresh = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        fresh.append((proc.returncode, out, err))
    assert in_process[0][0] == EXIT_PARSE
    assert in_process == fresh
