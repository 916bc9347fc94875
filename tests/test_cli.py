"""Command-line interface: all subcommands, formats, and exit codes."""

import json
import os
import shlex
import subprocess
import sys

import mpmath
import pytest

from helpers import (
    CURVE_A,
    CURVE_B,
    TWIST_A_D,
    TWISTED_A,
    semiprime_beyond_rho_budget,
)
import twistperiod
from twistperiod import minimality
from twistperiod.cli import main
from twistperiod.periods import real_period
from twistperiod.verification import iter_curve_file

CURVE_A_ARG = json.dumps([int(a) for a in CURVE_A.ainvs])
CURVE_B_ARG = json.dumps([int(a) for a in CURVE_B.ainvs])
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
README = os.path.join(DATA, os.pardir, os.pardir, "README.md")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, "--format", "json", *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def test_invariants_json(capsys):
    data = run_json(capsys, "invariants", "[-1,0]")
    assert data["c4"] == "48"
    assert data["c6"] == "0"
    assert data["delta"] == "64"
    assert data["j"] == "1728"
    assert data["curve"] == ["0", "0", "0", "-1", "0"]


def test_invariants_text_format(capsys):
    code, out, _ = run_cli(capsys, "invariants", "[-1,0]")
    assert code == 0
    assert "c4 = 48" in out
    assert "delta = 64" in out


def test_twist_command(capsys):
    data = run_json(capsys, "twist", CURVE_A_ARG, str(TWIST_A_D))
    assert data["d"] == 5
    assert data["twist"] == [str(int(a)) for a in TWISTED_A.ainvs]


def test_minimal_command(capsys):
    # 11a1 scaled up by u = 1/2 (x -> x/4): minimization recovers it
    blown_up = json.dumps([0, -4, 8, -160, -1280])
    data = run_json(capsys, "minimal", blown_up)
    assert data["minimal"] == ["0", "-1", "1", "-10", "-20"]
    assert data["map"]["u"] == "2"


def test_utilde_command(capsys):
    data = run_json(capsys, "utilde", CURVE_A_ARG, "5")
    assert data["utilde"] == "5"
    labels = {entry["p"]: entry["case"] for entry in data["per_prime"]}
    assert labels == {2: "2a", 5: "1b"}
    # the discriminant ratio is the advertised twelfth power
    assert int(data["delta_twist"]) == int(data["delta_min"]) * 5**12


def test_periods_command(capsys):
    data = run_json(capsys, "periods", CURVE_A_ARG)
    # 33 significant digits of the tanh-sinh quadrature oracle's value
    assert data["omega"].startswith("1.2980553226288990353923394186499")
    # ceil(128*log10(2)) + 1 = 40 significant digits
    assert len(data["omega"]) == len("1.") + 39
    assert data["c_inf"] == 1
    assert (data["k1"], data["k2"]) == (2, -1)
    assert data["precision_bits"] == 128


def test_periods_command_prints_requested_precision(capsys):
    data = run_json(capsys, "--precision-bits", "512", "periods", CURVE_A_ARG)
    with mpmath.workprec(1100):
        reference = real_period(CURVE_A, 1024)
        # error below one unit in the last printed digit: the
        # ceil(512*log10(2)) + 1 = 156 digits printed at 512 bits carry about
        # 515 bits
        assert len(data["omega"]) == len("1.") + 155
        last_place = mpmath.mpf(10) ** -(len(data["omega"]) - 2)
        assert abs(mpmath.mpf(data["omega"]) - reference) < last_place


def test_verify_command(capsys):
    data = run_json(capsys, "verify", CURVE_B_ARG, "-7")
    assert data["passed"] is True
    assert data["utilde"] == "7"
    assert data["d"] == -7


def test_precision_flag(capsys):
    data = run_json(capsys, "--precision-bits", "96", "periods", CURVE_A_ARG)
    assert data["precision_bits"] == 96


def test_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "--format", "json", "--output", str(target), "invariants", "[-1,0]"
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["c4"] == "48"


# ---------------------------------------------------------------------------
# Exit codes and error reporting
# ---------------------------------------------------------------------------


def test_exit_code_parse_error(capsys):
    code, _, err = run_cli(capsys, "invariants", "this is not json")
    assert code == 2
    payload = json.loads(err)
    assert "error" in payload and "message" in payload
    # a JSON string is not a model, here as in a scanned curve file
    code, _, _ = run_cli(capsys, "invariants", '"12345"')
    assert code == 2
    # nor is JSON true the coefficient 1
    code, _, err = run_cli(capsys, "invariants", "[true, 0, 0, 1, 1]")
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"
    # a zero denominator is malformed input, not an unexpected failure
    code, _, err = run_cli(capsys, "invariants", '["1/0", 0, 0, 1, 1]')
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"
    # nor exponent notation, which would be expanded digit by digit
    code, _, err = run_cli(capsys, "invariants", '["1e1000000",0,0,1,0]')
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"


def test_exit_code_singular_curve(capsys):
    code, _, err = run_cli(capsys, "invariants", "[0,0,0,0,0]")
    assert code == 3
    assert json.loads(err)["error"] == "SingularCurveError"


def test_exit_code_domain_error(capsys):
    # non-square-free twist parameter
    code, _, err = run_cli(capsys, "utilde", CURVE_A_ARG, "12")
    assert code == 4
    # bad precision
    code, _, _ = run_cli(capsys, "--precision-bits", "16", "periods", CURVE_A_ARG)
    assert code == 4


def test_exit_code_consistency_error(capsys, monkeypatch):
    # a per-prime table that disagrees with minimization of the twist
    original = minimality.utilde_factor_at

    def doubled(m, d, p):
        u_p, label = original(m, d, p)
        return 2 * u_p, label

    monkeypatch.setattr(minimality, "utilde_factor_at", doubled)
    code, _, err = run_cli(capsys, "verify", CURVE_B_ARG, "-7")
    assert code == 6
    assert json.loads(err)["error"] == "ConsistencyError"


def test_exit_code_factorization_budget(capsys):
    d = str(semiprime_beyond_rho_budget())
    code, _, err = run_cli(capsys, "utilde", CURVE_A_ARG, d)
    assert code == 5
    assert json.loads(err)["error"] == "FactorizationBudgetError"


def test_exit_code_bad_twist_parameter(capsys):
    code, _, _ = run_cli(capsys, "twist", CURVE_A_ARG, "five")
    assert code == 2


# ---------------------------------------------------------------------------
# Scan subcommand
# ---------------------------------------------------------------------------


def test_scan_stdout_stream(capsys, tmp_path):
    source = tmp_path / "curves.jsonl"
    source.write_text(
        json.dumps({"label": "alpha", "curve": [0, -1, 0, -6883, 222137]}) + "\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "scan", str(source), "--twists", "1", "5")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [(r["label"], r["d"]) for r in lines] == [("alpha", 1), ("alpha", 5)]
    verified = [r for r in lines if r["verified"]]
    assert [r["d"] for r in verified] == [5]  # default filter: odd-prime utilde
    assert all(r.get("passed") for r in verified)


def test_scan_with_output_and_resume(capsys, tmp_path):
    source = tmp_path / "curves.jsonl"
    source.write_text(
        "\n".join(
            [
                json.dumps({"label": "alpha", "curve": [0, -1, 0, -6883, 222137]}),
                json.dumps({"label": "beta", "curve": [1, 0, 1, -173, 879]}),
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    results = tmp_path / "results.jsonl"
    argv = (
        "--format", "json", "--output", str(results),
        "scan", str(source), "--twists", "5", "-7", "--filter", "none",
    )
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    summary = json.loads(out)
    assert summary["records"] == 4
    assert summary["checked"] == 4
    assert len(results.read_text(encoding="utf-8").splitlines()) == 4

    # rerunning with resume leaves the file unchanged
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["records"] == 0
    assert len(results.read_text(encoding="utf-8").splitlines()) == 4


def test_scan_summary_counts_errors_and_time(capsys, tmp_path):
    source = tmp_path / "curves.jsonl"
    source.write_text(
        json.dumps([0, -1, 0, -6883, 222137]) + "\nnot json\n", encoding="utf-8"
    )
    results = tmp_path / "results.jsonl"
    code, out, _ = run_cli(
        capsys, "--format", "json", "--output", str(results),
        "scan", str(source), "--twists", "5", "4", "--filter", "none",
    )
    assert code == 0
    summary = json.loads(out)
    # two pairs of the curve (d = 4 is not square-free) and the bad line
    assert (summary["records"], summary["checked"], summary["errors"]) == (3, 1, 2)
    assert summary["seconds"] > 0
    assert summary["pairs_per_s"] == pytest.approx(3 / summary["seconds"], rel=0.01)


# tests/data/golden_scan_none.jsonl is the records file of
#   twistperiod --output F scan tests/data/golden_curves.jsonl --filter none \
#       --twists 1 -1 5 -7 10 0 4 -12 417 2310
# It holds exact arithmetic only, no period digits, so any change to a byte
# of it is a change of behaviour.
GOLDEN_TWISTS = ("1", "-1", "5", "-7", "10", "0", "4", "-12", "417", "2310")


def test_scan_records_match_golden_file(capsys, tmp_path):
    results = tmp_path / "results.jsonl"
    code, out, _ = run_cli(
        capsys, "--output", str(results),
        "scan", os.path.join(DATA, "golden_curves.jsonl"),
        "--filter", "none", "--twists", *GOLDEN_TWISTS,
    )
    assert code == 0
    with open(os.path.join(DATA, "golden_scan_none.jsonl"), "rb") as handle:
        assert results.read_bytes() == handle.read()
    summary = [line.split(" = ") for line in out.splitlines()]
    assert [key for key, _ in summary] == [
        "written", "records", "checked", "verified_failures", "errors",
        "seconds", "pairs_per_s",
    ]
    assert [value for _, value in summary[1:5]] == ["114", "77", "0", "37"]


# tests/data/golden_periods.jsonl holds one line per (curve, precision) for
# every parseable curve of golden_curves.jsonl and the two Delta > 0 curves
# below, at 128 and 512 bits: the `--format json periods` output, and the
# utilde, lhs, rhs and passed fields of `verify` for each d in GOLDEN_PERIOD_TWISTS.
# abs_rel_error is left out: its last digits are rounding noise. Regenerate
# with `golden_period_records(run)` and `run` calling main on --format json.
GOLDEN_PERIOD_CURVES = ([-1, 0], [0, 0, 1, -1, 0])
GOLDEN_PERIOD_TWISTS = ("-1", "-7", "5")
GOLDEN_VERIFY_FIELDS = ("utilde", "lhs", "rhs", "passed")


def golden_period_records(run) -> list[dict]:
    parsed = iter_curve_file(os.path.join(DATA, "golden_curves.jsonl"))
    curves = [[str(a) for a in entry["model"].ainvs] for entry in parsed
              if "model" in entry]
    records = []
    for curve in curves + list(GOLDEN_PERIOD_CURVES):
        model = json.dumps(curve)
        for bits in ("128", "512"):
            verify = {}
            for d in GOLDEN_PERIOD_TWISTS:
                data = run("--precision-bits", bits, "verify", model, d)
                verify[d] = {key: data[key] for key in GOLDEN_VERIFY_FIELDS}
            records.append({
                "periods": run("--precision-bits", bits, "periods", model),
                "verify": verify,
            })
    return records


def test_periods_and_verify_match_golden_file(capsys):
    with open(os.path.join(DATA, "golden_periods.jsonl"), encoding="utf-8") as handle:
        golden = [json.loads(line) for line in handle]
    assert golden_period_records(lambda *argv: run_json(capsys, *argv)) == golden


@pytest.mark.parametrize(
    "option",
    [("--precision-bits", "10"), ("--precision-bits", "63"), ("--precision-bits", "0")],
)
def test_scan_rejects_bad_settings_and_keeps_output(capsys, tmp_path, option):
    source = tmp_path / "curves.jsonl"
    source.write_text(json.dumps([0, -1, 0, -6883, 222137]) + "\n", encoding="utf-8")
    results = tmp_path / "results.jsonl"
    results.write_text('{"label": "partial', encoding="utf-8")
    code, out, err = run_cli(
        capsys, *option, "--output", str(results),
        "scan", str(source), "--twists", "5", "--filter", "all",
    )
    assert code == 4
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"
    assert results.read_text(encoding="utf-8") == '{"label": "partial'


def test_scan_missing_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "scan", str(tmp_path / "absent.jsonl"), "--twists", "5"
    )
    assert code == 1  # unexpected I/O failure
    assert "error" in json.loads(err)


def test_scan_records_an_undecodable_line_and_goes_on(capsys, tmp_path):
    source = tmp_path / "curves.jsonl"
    source.write_bytes(b"[0,0,0,-1,0]\n\xff\xfe[1,2]\n[0,0,0,1,1]\n")
    results = tmp_path / "results.jsonl"
    argv = ("--output", str(results), "scan", str(source),
            "--twists", "5", "--filter", "none")
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    records = [json.loads(line) for line in results.read_text().splitlines()]
    assert [r["label"] for r in records] == ["curve-0", "curve-1", "curve-2"]
    assert records[1]["d"] is None
    assert records[1]["error"].startswith("UnicodeDecodeError: ")
    assert not any("error" in r for r in (records[0], records[2]))
    written = results.read_bytes()
    assert run_cli(capsys, *argv)[0] == 0
    assert results.read_bytes() == written


def test_scan_records_an_exponent_coefficient_and_goes_on(capsys, tmp_path):
    good = ['{"label": "a", "curve": [0,0,0,-1,0]}',
            '{"label": "c", "curve": [0,0,0,1,1]}']
    bad = '{"label": "b", "curve": ["1e1000000",0,0,1,0]}'

    def scan_file(lines):
        source = tmp_path / "curves.jsonl"
        source.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(
            capsys, "scan", str(source), "--twists", "5", "-7", "--filter", "all"
        )
        assert code == 0, err
        return [json.loads(line) for line in out.splitlines()]

    expected = scan_file(good)
    records = scan_file([good[0], bad, good[1]])
    errors = [r for r in records if "error" in r]
    assert [(r["label"], r["d"]) for r in errors] == [("b", None)]
    assert errors[0]["error"].startswith("ValueError: ")
    assert [r for r in records if "error" not in r] == expected


def readme_examples() -> list[tuple[list[str], str]]:
    """(argv, stdout) for each `$ twistperiod ...` line of README's text
    block, stdout being the lines under it up to the next blank line."""
    with open(README, encoding="utf-8") as handle:
        block = handle.read().split("```text\n", 1)[1].split("```", 1)[0]
    examples = []
    for example in block.split("\n\n"):
        command, _, output = example.strip("\n").partition("\n")
        assert command.startswith("$ twistperiod "), command
        examples.append((shlex.split(command)[2:], output + "\n"))
    return examples


def test_readme_examples_print_what_readme_shows(capsys):
    examples = readme_examples()
    assert len(examples) >= 3
    for argv, expected in examples:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out == expected, argv


# ---------------------------------------------------------------------------
# Module execution
# ---------------------------------------------------------------------------


def test_python_dash_m_smoke():
    # The child imports twistperiod from where this process found it.
    package_root = os.path.dirname(os.path.dirname(twistperiod.__file__))
    path = [package_root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "twistperiod",
            "--format",
            "json",
            "verify",
            CURVE_A_ARG,
            "5",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout)["passed"] is True
