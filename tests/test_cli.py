import argparse
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import finitehilbert
from finitehilbert.cli import (
    EXIT_DESCRIPTOR,
    EXIT_NOT_SOLVABLE,
    EXIT_PARSE,
    EXIT_QUADRATURE,
    FunctionSpec,
    _complex_pair,
    build_parser,
    main,
    parse_function_spec,
)
from finitehilbert.errors import FunctionSpecError, NonFiniteSample


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


_CLASSIFY_ARGV = ["classify", "--space", "lebesgue:1.5", "--lambda", "0.2,0.3"]
_IDENTITIES_ARGV = ["identities", "--suite", "kernel"]
_NORMS_ARGV = ["norms", "--p", "1.5", "--family-size", "2", "--weighted", "0.2,-0.3,1.5"]


@pytest.mark.parametrize("text", ["fmt = csv\n", "convention = widom\n", "seed = 5\n"])
@pytest.mark.parametrize("argv", [
    ["transform", "--f", "poly:[0,1]", "--points", "0"],
    ["invert", "--g", "chebT:[0,1]", "--regime", "high"],
    ["eigencheck", "--lambda", "0.2,0.3"],
    _CLASSIFY_ARGV,
    _IDENTITIES_ARGV,
    _NORMS_ARGV,
], ids=["transform", "invert", "eigencheck", "classify", "identities", "norms"])
def test_config_rejects_flag_settings(tmp_path, capsys, argv, text):
    # format, convention and seed are flags only: no subcommand takes a config
    # file, so one naming them is refused with the --config flag itself
    cfg_file = tmp_path / "fht.conf"
    cfg_file.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(cfg_file)])
    assert exc.value.code == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --config" in err


@pytest.mark.parametrize("argv", [
    ["transform", "--f", "weighted:{0.3,-0.4,chebT:[1,2]}", "--points", "0.1"],
    ["invert", "--g", "chebT:[0,1]", "--regime", "high"],
    ["eigencheck", "--lambda", "0.2,0.3", "--grid", "3"],
    _CLASSIFY_ARGV,
    _IDENTITIES_ARGV,
    _NORMS_ARGV,
], ids=["transform", "invert", "eigencheck", "classify", "identities", "norms"])
def test_fht_config_read_only_where_used(tmp_path, capsys, monkeypatch, argv):
    """No subcommand reads a config file, so FHT_CONFIG naming a missing file
    changes nothing."""
    plain = run_cli(capsys, *argv, "--no-timestamp")
    assert plain[0] == 0
    monkeypatch.setenv("FHT_CONFIG", str(tmp_path / "missing.conf"))
    assert run_cli(capsys, *argv, "--no-timestamp") == plain


def test_readme_flag_table_matches_the_parser():
    """Each row of README's flag table lists exactly the flags of its subparser,
    apart from -h and the two that every subcommand takes."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    table = text.split("| Subcommand | Flags |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines():
        _, command, flags, _ = row.split("|")
        documented[re.search(r"`([a-z-]+)`", command)[1]] = set(re.findall(r"--[a-z-]+", flags))
    subs = next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    parsers = {}
    for name, sub in subs.choices.items():  # a name comes before its aliases
        parsers.setdefault(id(sub), (name, sub))
    common = {"-h", "--help", "--output", "--no-timestamp"}
    assert documented == {name: set(sub._option_string_actions) - common
                          for name, sub in parsers.values()}


def _readme_cli_examples():
    """The `fht ...` lines of the first sh block under README's CLI heading."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        section = fh.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("\n```sh\n", 1)[1].split("\n```\n", 1)[0]
    return [line for line in block.splitlines() if line.startswith("fht ")]


def test_readme_cli_examples_exit_with_their_documented_codes(capsys):
    """Each README CLI example, run through main in-process, exits 0, except the
    unsolvable high-regime inversion, whose comment there documents exit 4."""
    examples = _readme_cli_examples()
    assert examples
    for line in examples:
        expected = EXIT_NOT_SOLVABLE if line == 'fht invert --g "chebT:[1]" --regime high' else 0
        code, _, err = run_cli(capsys, *shlex.split(line)[1:])
        assert code == expected, f"{line}: {err}"


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


@pytest.mark.parametrize("g", [
    "weighted:{0.3,-0.4,chebT:[1,2]}",
    "weighted:{0.5,0.5,chebU:[1,2]}",
    "weighted:{-0.5,-0.5,chebT:[1,2]}",
])
def test_invert_exits_1_when_the_round_trip_fails(capsys, g):
    # T(g w) of a weighted g is re-interpolated at degree 64, and its endpoint
    # terms make that series converge slowly: the printed solution is wrong
    code, out, err = run_cli(capsys, "invert", "--g", g, "--regime", "low",
                             "--no-timestamp")
    payload = json.loads(out)
    assert (code, err) == (1, "")
    # the payload is printed as on success
    assert payload["command"] == "invert" and payload["solution"].startswith("weighted:")
    assert payload["roundtrip_residual"] > finitehilbert.harness.TOLERANCES["roundtrip"]


@pytest.mark.parametrize("g, code", [
    ("weighted:{1,1,chebT:[0,1]}", 0),  # the solution is w T_2 / 2, a w U-series
    ("weighted:{4.5,4.5,chebT:[0,1]}", 0),  # g/w has integer exponents: quadrature
    ("weighted:{0.3,0.3,chebT:[0,1]}", 1),  # T(g/w) re-interpolated at degree 64
])
def test_invert_high_takes_a_weighted_rhs(capsys, g, code):
    # the high regime runs the low regime's pseudo-inverse rule with the weight's
    # exponent flipped, so it takes every g the low regime takes, under the same gate
    got, out, err = run_cli(capsys, "invert", "--g", g, "--regime", "high", "--no-timestamp")
    payload = json.loads(out)
    assert (got, err) == (code, "")
    assert payload["solution"].startswith("weighted:{0.5,0.5,")
    gate = finitehilbert.harness.TOLERANCES["roundtrip"]
    assert (payload["roundtrip_residual"] > gate) == (code == 1)


@pytest.mark.parametrize("g", ["chebT:[1e5,3e5,-2e5]", "chebT:[1e8,3e8,-2e8]"])
def test_invert_low_recovers_the_constant_of_a_large_rhs(capsys, g):
    # the recovered C is read from the weight's moments: quadrature's absolute
    # error floor of 1e-9 once made both exit 3
    code, out, err = run_cli(capsys, "invert", "--g", g, "--regime", "low", "--no-timestamp")
    assert (code, err) == (0, "")
    assert json.loads(out)["constant_recovered"] == [0.0, 0.0]


@pytest.mark.parametrize("text, solution", [
    ("0.25", "weighted:{-0.5,-0.5,chebT:[0.25,-0.25,0.5,0.25]}"),
    ("-0", "weighted:{-0.5,-0.5,chebT:[0.0,-0.25,0.5,0.25]}"),
    ("(1.5-0.25j)", "weighted:{-0.5,-0.5,chebT:[(1.5-0.25j),-0.25,0.5,0.25]}"),
])
def test_invert_constant_forms(capsys, text, solution):
    # --constant was once read by complex(text); the parsed value is that number,
    # signed zeros included, and the output is that of the equivalent re,im form
    value = _complex_pair(text)
    assert (math.copysign(1.0, value.real), value) == (
        math.copysign(1.0, complex(text).real), complex(text))
    argv = ["invert", "--g", "chebT:[0,1,0.5]", "--regime", "low", "--no-timestamp"]
    code, out, err = run_cli(capsys, *argv, f"--constant={text}")
    assert (code, err) == (0, "")
    assert json.loads(out)["solution"] == solution
    pair = f"{value.real!r},{value.imag!r}"
    assert run_cli(capsys, *argv, f"--constant={pair}") == (code, out, err)
    if not value:  # a zero constant is no constant
        assert run_cli(capsys, *argv) == (code, out, err)


def test_invert_high_regime_rejects_constant(capsys):
    code, out, err = run_cli(capsys, "invert", "--g", "chebT:[0,1]", "--regime", "high",
                             "--constant", "1")
    assert (code, out) == (EXIT_PARSE, "")
    assert err == "parse error: --constant applies to the low regime only\n"


@pytest.mark.parametrize("argv, flag, value", [
    (["eigencheck"], "--lambda", "-0.3,0.2"),
    (["classify", "--space", "lebesgue:1.5"], "--lambda", "-0.2,0.3"),
    (["transform", "--f", "chebT:[0,1]"], "--points", "-0.5,0.5"),
    (["norms", "--p", "1.5", "--family-size", "1"], "--weighted", "-0.2,0.1,1.5"),
    (["invert", "--g", "chebT:[0,1,0.5]", "--regime", "low"], "--constant", "-1,0.5"),
])
def test_negative_list_value_after_a_space(capsys, argv, flag, value):
    # argparse reads a token such as -0.3,0.2 as an unknown option; after a
    # list flag it is the flag's value, as in the flag=value form
    argv = [*argv, "--no-timestamp"]
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert (code, err) == (0, "")
    assert run_cli(capsys, *argv, f"{flag}={value}") == (code, out, err)


def test_list_flag_does_not_take_the_next_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--f", "chebT:[0,1]", "--points", "--grid", "3"])
    assert exc.value.code == EXIT_PARSE
    assert "argument --points: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # every spelling of a p <= 1, with or without '=', is a usage error
    (["norms", "--p", "-1.2,1.5"], "argument --p: every p must exceed 1, got '-1.2,1.5'"),
    (["norms", "--p=-1.2,1.5"], "argument --p: every p must exceed 1, got '-1.2,1.5'"),
    (["norms", "--p", "-1.2"], "argument --p: every p must exceed 1, got '-1.2'"),
    (["norms", "--p", "0.5"], "argument --p: every p must exceed 1, got '0.5'"),
    (["norms", "--p", "1"], "argument --p: every p must exceed 1, got '1'"),
    # malformed and non-finite points are rejected at parse time
    (["transform", "--f", "chebT:[0,1]", "--points", "0.1,x"],
     "argument --points: invalid comma-separated floats: '0.1,x'"),
    (["transform", "--f", "chebT:[0,1]", "--points", "nan"],
     "argument --points: not a finite number: 'nan'"),
])
def test_number_list_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("usage: fht ")
    assert err.endswith(f"error: {message}\n")


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


@pytest.mark.parametrize("n", [8, 9, 400, 403])
def test_classify_boundary_csv_has_exactly_n_rows(tmp_path, capsys, n):
    target = tmp_path / "boundary.csv"
    code, _, err = run_cli(capsys, "classify", "--space", "lebesgue:1.5",
                           "--boundary-csv", str(target), "--boundary-points", str(n))
    assert (code, err) == (0, "")
    header, *rows = target.read_text().splitlines()
    assert header == "x,re,im"
    assert [float(row.split(",")[0]) for row in rows] == list(range(n))


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

    grid = sample(lambda x: x, 120)
    path = tmp_path / "f.csv"
    path.write_text(sampled_to_csv(grid))
    code, out, _ = run_cli(capsys, "transform", "--f", f"csv:{path}",
                           "--points", "0", "--no-timestamp")
    payload = json.loads(out)
    assert code == 0
    assert payload["table"][0]["re"] == pytest.approx(2.0 / math.pi, abs=1e-5)


@pytest.mark.parametrize("regime", ["high", "low"])
def test_invert_of_a_cubic_csv_prints_a_short_solution(tmp_path, capsys, regime):
    from finitehilbert.functions import sample, sampled_to_csv

    # g = T_1 + 0.25 T_2 - 0.5 T_3 has int g/w = 0, so both regimes solve it
    path = tmp_path / "g.csv"
    path.write_text(sampled_to_csv(sample(
        lambda x: np.polynomial.chebyshev.chebval(x, [0.0, 1.0, 0.25, -0.5]), 200)))
    code, out, err = run_cli(capsys, "invert", "--g", f"csv:{path}", "--regime", regime,
                             "--no-timestamp")
    assert (code, err) == (0, "")
    solution = parse_function_spec(json.loads(out)["solution"]).to_function()
    assert len(solution.smooth.coeffs) <= 6


_CSV_ARGV = ["transform", "--f", "csv:{file}", "--points", "0"]


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
    pytest.param(_CSV_ARGV, "x,re,im\nnan,1,0\n0.2,1,0\n0.3,2,0\n", id="csv-nan-point"),
    # the quadrature settings are fixed: no subcommand takes a config file
    pytest.param(["transform", "--f", "poly:[0,1]", "--points", "0", "--config", "x"], None,
                 id="transform-config"),
    pytest.param(["invert", "--g", "chebT:[0,1]", "--regime", "low", "--config", "x"], None,
                 id="invert-config"),
    pytest.param(["eigencheck", "--lambda", "0.2,0.3", "--config", "x"], None,
                 id="eigencheck-config"),
    pytest.param(["norms", "--p", "abc"], None, id="norms-p-not-float"),
    pytest.param(["norms", "--weighted", "1,2"], None, id="norms-weighted-two-values"),
    pytest.param(["norms", "--weighted", "a,b,c"], None, id="norms-weighted-not-float"),
    pytest.param(["norms", "--p", "1.5", "--family-size", "2", "--weighted", "0.1,0.1,1"],
                 None, id="norms-weighted-p-1"),
    pytest.param(["classify", "--space", "lebesgue:1.5", "--boundary-points", "0"],
                 None, id="classify-boundary-points-0"),
    pytest.param(["classify", "--space", "lebesgue:1.5", "--boundary-points", "-5"],
                 None, id="classify-boundary-points-negative"),
    pytest.param(["classify", "--space", "lebesgue:1.5", "--boundary-points", "7"],
                 None, id="classify-boundary-points-7"),
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
    # --constant is a finite complex number, and only the low regime has one
    *(pytest.param(["invert", "--g", "chebT:[0,1]", "--regime", "low", f"--constant={c}"],
                   None, id=f"invert-constant-{c}") for c in ("abc", "nan", "inf", "1+nanj")),
    pytest.param(["invert", "--g", "chebT:[0,1]", "--regime", "high", "--constant", "1"], None,
                 id="invert-high-constant"),
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
    pytest.param(["transform", "--f", "weighted:{-0.5,1,chebT:[1e308]}", "--points=0"],
                 None, EXIT_QUADRATURE, "quadrature failure: ", id="quadrature-failure"),
    pytest.param(["invert", "--g", "chebT:[1]", "--regime", "high"], None,
                 EXIT_NOT_SOLVABLE, "not solvable: residual 1.000000e+00\n",
                 id="not-solvable"),
    # (1/pi) int (1-x^2)^99.5, from the log-Gamma M_0: the Gamma product overflows
    pytest.param(["invert", "--g", "weighted:{100,100,chebT:[1]}", "--regime", "high"], None,
                 EXIT_NOT_SOLVABLE, "not solvable: residual 5.634848e-02\n",
                 id="not-solvable-large-exponents"),
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


# quadrature stops at a node value beyond 1e300, where QUADPACK's sums overflow
_TOO_LARGE_FOR_QUAD = re.compile(
    r"quadrature failure: integrand value -?\d\.\d+e\+30\d is too large for quadrature\n")


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
                 "non-finite result: T(f) overflowed: non-finite series coefficient\n",
                 id="jacobi-moments"),
    pytest.param(["transform", "--f", "weighted:{-0.4,0.3,chebT:[1e308]}", "--points=0,0.999"],
                 "non-finite result: T(f) is not finite at x=0.999\n", id="jacobi"),
    # exponents on an integer keep the Jacobi weights on quadrature
    pytest.param(["transform", "--f", "weighted:{0.3,0,chebT:[1e308,1e308]}", "--grid", "3"],
                 _TOO_LARGE_FOR_QUAD, id="quadrature"),
    pytest.param(["transform", "--f", "weighted:{2000,0,chebT:[1]}", "--points=0.1"],
                 "quadrature failure: the quadrature weight exp(1026.33) is not finite\n",
                 id="quadrature-weight-overflow"),
    pytest.param(["invert", "--g", "chebT:[1e308,1e308,1e308]", "--regime", "low"],
                 _TOO_LARGE_FOR_QUAD, id="invert"),
    pytest.param(["invert", "--g", "weighted:{2000,0,chebT:[1]}", "--regime", "high"],
                 "quadrature failure: the moment sum of the integral is not finite\n",
                 id="invert-moment-overflow"),
    # a node value of about 1.2e308 once crashed scipy's quad with a bus error
    pytest.param(["transform", "--f", "weighted:{-0.5,1,chebT:[1e308]}", "--points=0"],
                 _TOO_LARGE_FOR_QUAD, id="quadrature-bus-error"),
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
    assert stderr.fullmatch(err) if isinstance(stderr, re.Pattern) else err == stderr
    assert "Warning" not in err


# finite samples whose interpolant overflows: in the slopes of the data, in the
# spline's knot slopes alone, in the spline's coefficients, and in the DCT
@pytest.mark.parametrize("text", [
    pytest.param("x,re,im\n0.1,1e308,0\n0.2,-1e308,0\n0.3,1e308,0\n", id="data-slopes"),
    pytest.param("x,re,im\n0.1,0,0\n0.2,1.5e307,0\n0.3,0,0\n", id="knot-slopes"),
    pytest.param("x,re,im\n0.1,1e306,0\n0.2,-1e306,0\n0.3,1e306,0\n", id="spline"),
    pytest.param("x,re,im\n0.1,1e300,0\n0.1000001,-1e300,0\n0.3,1e300,0\n", id="dct"),
])
@pytest.mark.parametrize("argv", [
    ["transform", "--f", "csv:{file}", "--points", "0"],
    ["invert", "--g", "csv:{file}", "--regime", "low"],
], ids=["transform", "invert"])
def test_overflowing_sampled_input_exits_2(tmp_path, capsys, argv, text):
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(NonFiniteSample):
        parse_function_spec(f"csv:{path}").to_function()
    code, out, err = run_cli(capsys, *(tok.replace("{file}", str(path)) for tok in argv))
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


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


# Runs in a fresh interpreter: pytest itself imports scipy.integrate for its
# warning filter.  Prints, as JSON, the scipy modules loaded after each import
# and, for each argv, (exit code, stdout, stderr, scipy modules loaded).
_COLD_START_SCRIPT = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

import finitehilbert
after_package = scipy_modules()
from finitehilbert.cli import main
after_cli = scipy_modules()
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    runs.append([code, out.getvalue(), err.getvalue(), scipy_modules()])
print(json.dumps([after_package, after_cli, runs]))
"""


def test_cold_start_loads_scipy_only_on_first_use(tmp_path, capsys):
    """Imports and the polynomial and spectral commands run on numpy alone.

    A Jacobi weight loads scipy.special and no quadrature, and so do an
    unsolvable high-regime invert (Qg from the moments, exit 4, no round trip)
    and a cubic CSV (chopped to its 4 coefficients, then the closed form);
    scipy.integrate loads only once an exponent on an integer sends a
    transform to quadrature.
    """
    numpy_only = [
        ["classify", "--space", "lebesgue:1.5", "--lambda", "0,0", "--no-timestamp"],
        ["transform", "--f", "chebT:[1,2,3]", "--points", "0.1,-0.5", "--no-timestamp"],
        ["transform", "--f", "weighted:{0.5,0.5,chebU:[1]}", "--points", "0.1",
         "--no-timestamp"],
        ["transform", "--f", "poly:[0,1]", "--grid", "0"],  # usage error, exit 2
    ]
    cubic = tmp_path / "cubic.csv"
    xs = [k / 50 - 0.99 for k in range(100)]
    cubic.write_text("x,re,im\n" + "".join(f"{x!r},{x**3 - 0.5 * x!r},0.0\n" for x in xs))
    no_quadrature = [
        ["transform", "--f", "weighted:{0.3,-0.4,chebT:[1,2]}", "--points", "0.1",
         "--no-timestamp"],
        ["invert", "--g", "chebT:[1]", "--regime", "high"],
        ["transform", "--f", f"csv:{cubic}", "--points", "0.5", "--no-timestamp"],
    ]
    quadrature = ["transform", "--f", "weighted:{0,-0.4,chebT:[1,2]}", "--points", "0.1",
                  "--no-timestamp"]
    argvs = [*numpy_only, *no_quadrature, quadrature]
    src = os.path.dirname(os.path.dirname(finitehilbert.__file__))
    proc = subprocess.run([sys.executable, "-c", _COLD_START_SCRIPT, json.dumps(argvs)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120, check=True)
    after_package, after_cli, runs = json.loads(proc.stdout)
    assert after_package == []
    assert after_cli == []
    assert [loaded for *_, loaded in runs[:len(numpy_only)]] == [[]] * len(numpy_only)
    assert runs[len(numpy_only) - 1][0] == EXIT_PARSE
    assert [code for code, *_ in runs[len(numpy_only):-1]] == [0, EXIT_NOT_SOLVABLE, 0]
    assert "scipy.special" in runs[len(numpy_only)][3]
    assert "scipy.integrate" not in runs[-2][3]
    assert "scipy.integrate" in runs[-1][3]
    in_process = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append([code, captured.out, captured.err])
    assert [run[:3] for run in runs] == in_process


# ---------------------------------------------------------------------------
# argv fuzzing: whatever the arguments, fht ends in a documented exit code and
# prints neither a traceback nor a warning.  Each flag draws from well-formed
# values or from malformed ones; sizes, families and suites are the cheap ones.

_NOISE = st.one_of(
    st.sampled_from(["", "abc", "nan", "inf", "-inf", "1e400", "-0", "1,2,3", "(1+2j)",
                     "1+nanj", "0x10", "[", "{}", ",", "1,", "-1"]),
    st.text(alphabet="0123456789.,-+ejnaifx()[]:{}", max_size=10),
)


def _joined(elements, min_size=1, max_size=3):
    return st.lists(elements, min_size=min_size, max_size=max_size).map(",".join)


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, **kw).map(repr)


def _p_at_most_one(token):
    """True for a --p=... token that lists a finite p <= 1."""
    if not token.startswith("--p="):
        return False
    try:
        return any(float(tok) <= 1.0 for tok in token[4:].split(","))
    except ValueError:
        return False


def _not_finite_floats(text):
    try:
        return not all(math.isfinite(float(tok)) for tok in text.split(","))
    except ValueError:
        return True


_COEFF = st.one_of(_floats(-10.0, 10.0), st.sampled_from(["1e308", "-1e308", "1j", "0.5-2j"]))
_SERIES = st.builds("{}:[{}]".format, st.sampled_from(["poly", "chebT", "chebU"]),
                    _joined(_COEFF))
_EXPONENT = st.sampled_from(["0", "0.5", "-0.5", "0.3", "-0.4", "0.2+0.1j", "2000"])
_SPEC = st.one_of(
    _SERIES,
    st.builds("weighted:{{{},{},{}:[{}]}}".format, _EXPONENT, _EXPONENT,
              st.sampled_from(["chebT", "chebU"]), _joined(_COEFF)),
)
_BAD_SPEC = st.one_of(
    _NOISE, st.sampled_from(["csv:{tmp}/missing.csv", "junk:[1]", "poly:[]", "chebT:[nan]",
                             "weighted:{nan,0,chebT:[1]}", "weighted:{-1,0,chebT:[1]}"]))
_SPACE = st.one_of(
    st.sampled_from(["lebesgue:1.5", "lebesgue:3", "lebesgue:2", "lorentz:2,1",
                     "lorentz:2,inf", "lorentz:1.5,3", "indexed:3,1.5,0,0",
                     "indexed:1.5,3,0,0", "hardy:2"]),
    st.builds("lebesgue:{}".format, _floats(0.5, 10.0)),
    st.builds("lorentz:{},{}".format, _floats(0.5, 10.0), _floats(0.5, 10.0)),
)
_LAMBDA = st.one_of(st.builds("{},{}".format, _floats(-2.0, 2.0), _floats(-2.0, 2.0)),
                    _floats(-2.0, 2.0), st.complex_numbers(max_magnitude=2.0).map(repr))
_SIZE = st.integers(1, 3).map(str)
_BAD_SIZE = st.one_of(st.integers(-2, 0).map(str), _NOISE)
_SEED = st.integers(0, 2**40).map(str)
_TMP_FILE = st.sampled_from(["{tmp}/out", "{tmp}/missing/out"])

# flag -> (well-formed values, malformed values); None where every value is malformed
_COMMANDS = {
    "transform": {
        "--f": (_SPEC, _BAD_SPEC),
        "--points": (_joined(_floats(-0.95, 0.95)), st.one_of(_NOISE, _joined(_floats(-2, 2)))),
        "--grid": (_SIZE, _BAD_SIZE),
        "--format": (st.sampled_from(["json", "csv"]), _NOISE),
        "--convention": (st.sampled_from(["tricomi", "widom"]), _NOISE),
    },
    "invert": {
        "--g": (_SERIES, _BAD_SPEC),  # a weighted g costs 64 quadratures
        "--regime": (st.sampled_from(["low", "high"]), _NOISE),
        "--constant": (_LAMBDA, _NOISE),
    },
    "classify": {
        "--space": (_SPACE, _NOISE),
        "--lambda": (_LAMBDA, _NOISE),
        "--boundary-points": (st.integers(8, 10).map(str),
                              st.one_of(st.integers(-2, 7).map(str), _NOISE)),
        "--boundary-csv": (_TMP_FILE, None),
    },
    "eigencheck": {"--lambda": (_LAMBDA, _NOISE), "--grid": (_SIZE, _BAD_SIZE)},
    "identities": {"--suite": (st.sampled_from(["kernel", "parseval"]), _NOISE),
                   "--seed": (_SEED, _BAD_SIZE)},
    "norms": {
        # --p is drawn inside (1,2), at or below 1, or malformed: a finite p of
        # 2 or more still raises ValueError from harness.norm_probe, a known
        # defect that bench/test_bench.py pins until the benchmark's next version
        "--p": (_joined(_floats(1.0, 2.0, exclude_min=True, exclude_max=True), max_size=2),
                st.one_of(_NOISE.filter(_not_finite_floats),
                          _joined(_floats(-2.0, 1.0), max_size=2),
                          st.builds("{},{}".format, _floats(1.0, 2.0, exclude_min=True,
                                                            exclude_max=True),
                                    _floats(-2.0, 1.0)))),
        "--family-size": (_SIZE, _BAD_SIZE),
        "--weighted": (st.builds("{},{},{}".format, _floats(-0.6, 0.6), _floats(-0.6, 0.6),
                                 _floats(1.0, 3.0)),
                       st.one_of(_NOISE, _joined(_floats(-2, 2), max_size=4))),
        "--seed": (_SEED, _BAD_SIZE),
    },
}
# --config is a flag no subcommand has
_ALL_FLAGS = {flag for flags in _COMMANDS.values() for flag in flags} | {"--bogus", "--config"}
_REQUIRED = {"transform": {"--f"}, "invert": {"--g", "--regime"}, "classify": {"--space"},
             "eigencheck": {"--lambda"}, "identities": {"--suite"}, "norms": set()}


@st.composite
def _argv(draw):
    """One fht argv; a clean draw (half of them) gives every flag a well-formed value."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    clean = draw(st.booleans())
    flags = dict(_COMMANDS[command])
    required = _REQUIRED[command] if clean else set()
    if clean and command == "transform":  # exactly one of its two grids
        grid, other = draw(st.permutations(["--points", "--grid"]))
        del flags[other]
        required = required | {grid}
    argv = [command]
    for flag, (good, bad) in flags.items():
        # each flag is given three times in four; a clean draw always has the required ones
        if flag in required or draw(st.integers(0, 3)):
            malformed = bad is not None and not clean and draw(st.booleans())
            argv.append(f"{flag}={draw(bad if malformed else good)}")
    if not clean and not draw(st.integers(0, 3)):  # a flag this subcommand lacks
        argv.append(f"{draw(st.sampled_from(sorted(_ALL_FLAGS - set(_COMMANDS[command]))))}=1")
    if not draw(st.integers(0, 3)):
        argv.append(f"--output={draw(_TMP_FILE)}")
    if draw(st.booleans()):
        argv.append("--no-timestamp")
    return argv


# derandomized: the same 150 argv lists on every run keep tier-1 deterministic
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_argv_fuzz_ends_in_a_documented_exit_code(tmp_path, argv):
    argv = [tok.replace("{tmp}", str(tmp_path)) for tok in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert code in range(6), (argv, code, err.getvalue())
    if any(_p_at_most_one(tok) for tok in argv):
        assert code == EXIT_PARSE, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "Warning" not in err.getvalue()
    assert not caught, (argv, [str(w.message) for w in caught])
