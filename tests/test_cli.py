import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import eulersym.identities as identities
from eulersym import cli
from eulersym.identities import IDENTITIES


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- numbers ---------------------------------------------------------------


def test_numbers_bernoulli_text(capsys):
    code, out, _ = run_cli(capsys, "numbers", "bernoulli", "--upto", "4")
    assert code == 0
    values = [line.split("\t")[1] for line in out.strip().splitlines()]
    assert values == ["1", "-1/2", "1/6", "0", "-1/30"]


def test_numbers_euler_csv(capsys):
    code, out, _ = run_cli(capsys, "numbers", "euler", "--upto", "4", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "value"]
    assert [r[1] for r in rows[1:]] == ["1", "0", "-1", "0", "5"]


def test_numbers_btilde(capsys):
    code, out, _ = run_cli(capsys, "numbers", "btilde", "--upto", "2")
    assert code == 0
    assert [line.split("\t")[1] for line in out.strip().splitlines()] == ["-1", "1"]


def test_numbers_btilde_bad_upto(capsys):
    code, _, err = run_cli(capsys, "numbers", "btilde", "--upto", "0")
    assert code == 2
    assert "error" in err


def test_numbers_json_fractions_are_strings(capsys):
    code, out, _ = run_cli(capsys, "numbers", "bernoulli", "--upto", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows == [
        {"k": 0, "value": "1"},
        {"k": 1, "value": "-1/2"},
        {"k": 2, "value": "1/6"},
    ]


def test_numbers_invalid_kind_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["numbers", "fibonacci", "--upto", "3"])
    assert exc.value.code == 2


# -- poly ------------------------------------------------------------------


def test_poly_golden_outputs(capsys):
    assert run_cli(capsys, "poly", "euler", "--n", "2")[1].strip() == "x^2 - x"
    assert run_cli(capsys, "poly", "bernoulli", "--n", "0")[1].strip() == "1"
    assert run_cli(capsys, "poly", "bernoulli", "--n", "2")[1].strip() == "x^2 - x + 1/6"
    assert run_cli(capsys, "poly", "euler", "--n", "2", "--var", "t_1")[1].strip() == "t_1^2 - t_1"


def test_poly_deterministic_across_runs(capsys):
    first = run_cli(capsys, "poly", "bernoulli", "--n", "7")[1]
    second = run_cli(capsys, "poly", "bernoulli", "--n", "7")[1]
    assert first == second


def test_poly_negative_degree(capsys):
    code, _, err = run_cli(capsys, "poly", "euler", "--n", "-1")
    assert code == 2


@pytest.mark.parametrize("name", ["", "2", "x y"])
def test_poly_var_must_be_an_identifier(capsys, name):
    code, out, err = run_cli(capsys, "poly", "bernoulli", "--n", "2", "--var", name)
    assert code == 2
    assert out == ""
    assert "--var" in err


# -- verify ----------------------------------------------------------------


def test_verify_json_report_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "thm12", "--m", "3", "--n", "4",
        "--mode", "symbolic", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["identity"] == "thm12"
    assert payload["m"] == 3
    assert payload["n"] == 4
    assert payload["mode"] == "symbolic"
    assert payload["holds"] is True
    assert payload["residual_terms"] == 0
    assert payload["lhs_terms"] > 0 and payload["rhs_terms"] > 0
    assert payload["elapsed_ms"] >= 0
    assert payload["params"] is None


def test_verify_thm11_part1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "thm11_part1", "--n", "6")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_numeric_seeded(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "cor11", "--m", "2", "--n", "4",
        "--mode", "numeric", "--seed", "7", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_verify_numeric_reports_sampled_params(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "cor11", "--m", "2", "--n", "3",
        "--mode", "numeric", "--seed", "7", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["params"]  # sampled values reported as fraction strings
    for value in payload["params"].values():
        assert isinstance(value, str)


def test_verify_numeric_csv_writes_params_as_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "thm11_part2", "--n", "2", "--mode", "numeric",
        "--param", "x=1/2", "--param", "y=1/3", "--param", "r=2", "--param", "s=-1/5",
        "--format", "csv",
    )
    assert code == 0
    [row] = list(csv.DictReader(io.StringIO(out)))
    assert row["lhs_terms"] == row["rhs_terms"] == "1"
    assert json.loads(row["params"]) == {"x": "1/2", "y": "1/3", "r": "2", "s": "-1/5"}


def test_verify_numeric_lemma21_takes_a_param_for_x(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "lemma21", "--m", "3", "--n", "4", "--seed", "11",
        "--mode", "numeric", "--param", "x=1/2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["params"] == {"x": "1/2"}


def test_verify_usage_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--identity", "thm12", "--m", "2", "--n", "0")
    assert code == 2
    assert "n must be >= 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        # m or i given to an identity that does not take it
        ["--identity", "thm11_part1", "--n", "2", "--m", "3"],
        ["--identity", "chu_vandermonde", "--n", "2", "--i", "2"],
        ["--identity", "thm12", "--m", "2", "--n", "2", "--i", "2"],
        # params outside numeric mode
        ["--identity", "thm12", "--m", "2", "--n", "2", "--param", "x_1=1/2"],
        # a param name that occurs in neither side
        ["--identity", "thm12", "--m", "2", "--n", "2", "--mode", "numeric",
         "--seed", "7", "--param", "z=1"],
        # numeric mode with neither a seed nor values for every variable
        ["--identity", "thm12", "--m", "2", "--n", "2", "--mode", "numeric"],
        # a seed in symbolic mode for an identity that draws no random tuple
        ["--identity", "thm12", "--m", "2", "--n", "2", "--seed", "5"],
        # a param name given twice
        ["--identity", "chu_vandermonde", "--n", "2", "--mode", "numeric",
         "--param", "r=1", "--param", "r=2", "--param", "s=3"],
    ],
)
def test_verify_rejects_ignored_input_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_identity_choices_are_the_registry():
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    verify_parser = subparsers.choices["verify"]
    identity = next(a for a in verify_parser._actions if a.dest == "identity")
    assert identity.choices == list(IDENTITIES)


def test_verify_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--identity", "thm12", "--n", "2", "--m", "2", "--bogus"])
    assert exc.value.code == 2


def test_verify_failure_exits_1(capsys, monkeypatch):
    real = identities.thm12_sides

    def flipped(m, n):
        lhs, rhs = real(m, n)
        return lhs, -rhs

    monkeypatch.setattr(identities, "thm12_sides", flipped)
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "thm12", "--m", "3", "--n", "3",
        "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["holds"] is False
    assert payload["residual_terms"] > 0


# -- verify-all ------------------------------------------------------------


def test_verify_all_minimal(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--max-m", "1", "--max-n", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("total=")


def test_verify_all_json_accounting(capsys):
    code, out, _ = run_cli(
        capsys, "verify-all", "--max-m", "2", "--max-n", "2", "--format", "json"
    )
    assert code == 0
    reports = json.loads(out)
    expected = len(list(identities.enumerate_specs(2, 2)))
    assert len(reports) == expected
    assert all(r["holds"] for r in reports)


def test_verify_all_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify-all", "--max-m", "1", "--max-n", "2", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and all(r["holds"] == "True" for r in rows)


def test_verify_all_survives_a_builder_exception(monkeypatch, capsys):
    def broken(n):
        raise RuntimeError("boom")

    monkeypatch.setattr(identities, "thm11_part1_sides", broken)
    code, out, err = run_cli(
        capsys, "verify-all", "--max-m", "1", "--max-n", "1", "--format", "json"
    )
    assert code == 1
    assert err == "error: thm11_part1 n=1: RuntimeError: boom\n"
    reports = json.loads(out)
    assert len(reports) == len(list(identities.enumerate_specs(1, 1)))
    failed = [r for r in reports if not r["holds"]]
    assert [r["identity"] for r in failed] == ["thm11_part1"]
    assert failed[0]["lhs_terms"] == failed[0]["rhs_terms"] == failed[0]["residual_terms"] == 0
    assert set(failed[0]) == set(reports[0])


def test_verify_all_bad_bounds(capsys):
    code, out, err = run_cli(capsys, "verify-all", "--max-m", "0", "--max-n", "3")
    assert code == 2
    assert out == ""
    assert err == "error: bounds must be >= 1\n"


# -- output file -----------------------------------------------------------


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "chu_vandermonde", "--n", "3",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["holds"] is True


UNWRITABLE_ARGV = [
    ["numbers", "bernoulli", "--upto", "3"],
    ["poly", "euler", "--n", "2"],
    ["verify", "--identity", "chu_vandermonde", "--n", "2"],
    ["verify-all", "--max-m", "1", "--max-n", "1"],
]


@pytest.mark.parametrize("where", ["directory", "missing_parent"])
@pytest.mark.parametrize("argv", UNWRITABLE_ARGV, ids=lambda argv: argv[0])
def test_unwritable_out_exits_2(tmp_path, capsys, argv, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "report.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", UNWRITABLE_ARGV, ids=lambda argv: argv[0])
def test_unwritable_out_never_runs_the_command(tmp_path, monkeypatch, capsys, argv):
    called = []
    for name in ("cmd_numbers", "cmd_poly", "cmd_verify", "cmd_verify_all"):
        monkeypatch.setattr(cli, name, lambda args, name=name: called.append(name) or ({}, "", 0))
    code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert called == []


def test_usage_error_leaves_out_empty(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, err = run_cli(
        capsys, "verify", "--identity", "thm12", "--m", "2", "--n", "0", "--out", str(target)
    )
    assert code == 2
    assert out == "" and err.startswith("error:")
    assert target.read_text() == ""


# -- output bytes ----------------------------------------------------------

PARAMS_COMMAND = (
    "verify --identity thm11_part2 --n 2 --mode numeric"
    " --param x=1/2 --param y=1/3 --param r=-2 --param s=-1/5"
)
GOLDEN = {
    ("numbers bernoulli --upto 3", "text"): "0\t1\n1\t-1/2\n2\t1/6\n3\t0\n",
    ("numbers bernoulli --upto 3", "json"): (
        '[\n  {\n    "k": 0,\n    "value": "1"\n  },\n  {\n    "k": 1,\n    "value": "-1/2"\n'
        '  },\n  {\n    "k": 2,\n    "value": "1/6"\n  },\n  {\n    "k": 3,\n    "value": "0"\n'
        "  }\n]\n"
    ),
    ("numbers bernoulli --upto 3", "csv"): "k,value\r\n0,1\r\n1,-1/2\r\n2,1/6\r\n3,0\r\n",
    ("poly euler --n 2", "text"): "x^2 - x\n",
    ("poly euler --n 2", "json"): '{\n  "family": "euler",\n  "n": 2,\n  "poly": "x^2 - x"\n}\n',
    ("poly euler --n 2", "csv"): "family,n,poly\r\neuler,2,x^2 - x\r\n",
    ("verify --identity chu_vandermonde --n 2", "text"): (
        "PASS chu_vandermonde n=2 mode=symbolic lhs_terms=5 rhs_terms=5 residual_terms=0"
        " elapsed_ms=0.0\n"
    ),
    ("verify --identity chu_vandermonde --n 2", "json"): (
        '{\n  "identity": "chu_vandermonde",\n  "m": null,\n  "n": 2,\n  "mode": "symbolic",\n'
        '  "holds": true,\n  "lhs_terms": 5,\n  "rhs_terms": 5,\n  "residual_terms": 0,\n'
        '  "elapsed_ms": 0.0,\n  "params": null\n}\n'
    ),
    ("verify --identity chu_vandermonde --n 2", "csv"): (
        "identity,m,n,mode,holds,lhs_terms,rhs_terms,residual_terms,elapsed_ms,params\r\n"
        "chu_vandermonde,,2,symbolic,True,5,5,0,0.0,\r\n"
    ),
    (PARAMS_COMMAND, "text"): (
        "PASS thm11_part2 n=2 mode=numeric lhs_terms=1 rhs_terms=1 residual_terms=0"
        " elapsed_ms=0.0\n"
    ),
    (PARAMS_COMMAND, "json"): (
        '{\n  "identity": "thm11_part2",\n  "m": null,\n  "n": 2,\n  "mode": "numeric",\n'
        '  "holds": true,\n  "lhs_terms": 1,\n  "rhs_terms": 1,\n  "residual_terms": 0,\n'
        '  "elapsed_ms": 0.0,\n  "params": {\n    "x": "1/2",\n    "y": "1/3",\n    "r": "-2",\n'
        '    "s": "-1/5"\n  }\n}\n'
    ),
    (PARAMS_COMMAND, "csv"): (
        "identity,m,n,mode,holds,lhs_terms,rhs_terms,residual_terms,elapsed_ms,params\r\n"
        'thm11_part2,,2,numeric,True,1,1,0,0.0,"{""x"": ""1/2"", ""y"": ""1/3"", ""r"": ""-2"",'
        ' ""s"": ""-1/5""}"\r\n'
    ),
}


@pytest.mark.parametrize("command, fmt", list(GOLDEN))
def test_output_bytes(monkeypatch, capsys, command, fmt):
    monkeypatch.setattr(identities, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    code, out, err = run_cli(capsys, *command.split(), "--format", fmt)
    assert (code, out, err) == (0, GOLDEN[command, fmt], "")


# -- entry point -----------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def run_module(*argv):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "eulersym.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point_exit_codes(tmp_path):
    verify = ["verify", "--identity", "thm12", "--m", "2", "--n"]
    passed = run_module(*verify, "2")
    assert passed.returncode == 0 and passed.stdout.startswith("PASS")
    bad_n = run_module(*verify, "0")
    assert bad_n.returncode == 2 and bad_n.stderr.startswith("error:")
    unwritable = run_module(*verify, "2", "--out", str(tmp_path))
    assert unwritable.returncode == 2 and unwritable.stdout == ""
    assert unwritable.stderr.startswith("error:") and "Traceback" not in unwritable.stderr
