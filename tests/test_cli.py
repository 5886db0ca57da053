"""End-to-end tests for the command-line interface.

Each test drives ``padiclab.cli.main`` in-process with a temporary
directory for all artefacts, asserting on exit codes, output files and
the printed summaries.
"""

from __future__ import annotations

import argparse
import ast
import csv
import dataclasses
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import padiclab
import reference
from padiclab import from_rational, load_report, save_digit_file, save_report
from padiclab.cli import SWEEP_FIELDS, build_parser, main
from conftest import NON_STAIRCASES, write_chain_csv


def run_cli(*argv: str) -> int:
    return main(list(argv))


def read_csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


# ---------------------------------------------------------------------------
# option surface
# ---------------------------------------------------------------------------

# Every option of every subcommand, help excluded: 45 in all.  A new or
# removed option shows up as a diff against this table.
CLI_OPTIONS = {
    "construct lacunary": ("--p", "--growth", "--terms", "-o/--out"),
    "construct factorial": ("--p", "--terms", "-o/--out"),
    "construct rule": ("--p", "--rule", "--precision", "--seed", "-o/--out"),
    "construct schneider": ("--p", "--mu", "--steps", "-o/--out", "--ledger"),
    "construct surgery": (
        "--p", "--t", "--mu", "--spikes", "--sigma1", "--gap-multiplier", "-o/--out",
    ),
    "approx": ("--xi", "--norm", "--oracle", "-o/--out"),
    "estimate": ("--chain", "--p", "--norm", "--chain-sup", "-o/--out"),
    "verify": (
        "--report", "--tol", "--lacunary-c", "--lacunary-d", "--chain", "--p",
        "--exact-checks", "-o/--out",
    ),
    "sweep": ("--p", "--grid", "--terms", "-o/--out"),
}


def parser_options(parser: argparse.ArgumentParser, path: str = "") -> dict:
    options: dict[str, tuple[str, ...]] = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                options.update(parser_options(child, f"{path} {name}".strip()))
        elif not isinstance(action, argparse._HelpAction):
            options[path] = options.get(path, ()) + ("/".join(action.option_strings),)
    return options


def test_cli_option_surface_is_pinned():
    assert parser_options(build_parser()) == CLI_OPTIONS


def test_benchmark_flags_are_options_of_their_subcommands():
    """Every literal flag a ``run_cli`` call in the benchmark passes exists."""
    source = Path(__file__).parents[1] / "padicbench" / "workloads.py"
    known = {
        command: {spelling for option in options for spelling in option.split("/")}
        for command, options in parser_options(build_parser()).items()
    }
    calls = [
        node for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "run_cli"
    ]
    assert calls
    for call in calls:
        words = [
            arg.value for arg in call.args
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        ]
        command = " ".join(words[:2]) if words[0] == "construct" else words[0]
        flags = {word for word in words if word.startswith("-")}
        assert flags and not flags - known[command], (command, flags - known[command])


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def test_pipeline_construct_approx_estimate_verify(tmp_path, capsys):
    digit_file = tmp_path / "xi.json"
    sup_csv = tmp_path / "sup.csv"
    mult_csv = tmp_path / "mult.csv"
    report_json = tmp_path / "report.json"
    checks_json = tmp_path / "checks.json"

    assert run_cli(
        "construct", "lacunary", "--p", "2", "--growth", "pow:3",
        "--terms", "9", "-o", str(digit_file),
    ) == 0
    payload = json.loads(digit_file.read_text())
    assert payload["p"] == 2 and payload["precision"] == 6562

    assert run_cli(
        "approx", "--xi", str(digit_file), "--norm", "sup", "-o", str(sup_csv)
    ) == 0
    assert run_cli(
        "approx", "--xi", str(digit_file), "--norm", "mult", "-o", str(mult_csv)
    ) == 0
    assert len(read_csv_rows(sup_csv)) > 100

    assert run_cli(
        "estimate", "--chain", str(mult_csv), "--p", "2", "--norm", "mult",
        "--chain-sup", str(sup_csv), "-o", str(report_json),
    ) == 0
    report = load_report(report_json)
    assert report.mu == pytest.approx(3.0, abs=0.2)
    assert report.mu_times == pytest.approx(6.0, abs=0.4)

    assert run_cli(
        "verify", "--report", str(report_json), "--tol", "0.1",
        "--lacunary-c", "3", "--lacunary-d", "3",
        "--chain", str(sup_csv), "--p", "2", "--exact-checks",
        "-o", str(checks_json),
    ) == 0
    summary = json.loads(checks_json.read_text())
    assert summary["all_passed"] is True
    names = {item["name"] for item in summary["checks"]}
    assert {"height_window", "pair_independence", "lacunary_sandwich"} <= names
    out = capsys.readouterr().out
    assert "height_window: pass" in out
    assert "FAIL" not in out


def test_verify_sup_chain_passes_height_window_and_pair_independence(tmp_path, capsys):
    digit_file = tmp_path / "xi.json"
    sup_csv = tmp_path / "sup.csv"
    report_json = tmp_path / "report.json"
    checks_json = tmp_path / "checks.json"
    run_cli("construct", "factorial", "--p", "2", "--terms", "5", "-o", str(digit_file))
    run_cli("approx", "--xi", str(digit_file), "--norm", "sup", "-o", str(sup_csv))
    run_cli(
        "estimate", "--chain", str(sup_csv), "--p", "2", "--norm", "sup",
        "-o", str(report_json),
    )
    capsys.readouterr()
    assert run_cli(
        "verify", "--report", str(report_json),
        "--chain", str(sup_csv), "--p", "2",
        "-o", str(checks_json),
    ) == 0
    summary = json.loads(checks_json.read_text())
    passed = {item["name"]: item["passed"] for item in summary["checks"]}
    assert passed["height_window"] is True
    assert passed["pair_independence"] is True


def test_approx_oracle_matches_fast_chain_prefix(tmp_path):
    digit_file = tmp_path / "xi.json"
    fast_csv = tmp_path / "fast.csv"
    oracle_csv = tmp_path / "oracle.csv"
    run_cli(
        "construct", "rule", "--p", "2", "--rule", "random", "--seed", "7",
        "--precision", "12", "-o", str(digit_file),
    )
    assert run_cli(
        "approx", "--xi", str(digit_file), "--norm", "sup", "-o", str(fast_csv)
    ) == 0
    assert run_cli(
        "approx", "--xi", str(digit_file), "--norm", "sup",
        "--oracle", "40", "-o", str(oracle_csv),
    ) == 0
    fast = [r for r in read_csv_rows(fast_csv) if int(r["height_sup"]) <= 40]
    oracle = read_csv_rows(oracle_csv)
    assert [(r["x"], r["y"], r["valuation"]) for r in fast] == [
        (r["x"], r["y"], r["valuation"]) for r in oracle
    ]


@pytest.mark.parametrize("norm, bound", [("sup", 3000), ("mult", 200000)])
def test_approx_oracle_csv_matches_reference_oracle(tmp_path, norm, bound):
    digit_file = tmp_path / "xi.json"
    oracle_csv = tmp_path / "oracle.csv"
    reference_csv = tmp_path / "reference.csv"
    run_cli(
        "construct", "rule", "--p", "3", "--rule", "random", "--seed", "11",
        "--precision", "14", "-o", str(digit_file),
    )
    assert run_cli(
        "approx", "--xi", str(digit_file), "--norm", norm,
        "--oracle", str(bound), "-o", str(oracle_csv),
    ) == 0
    xi = padiclab.load_digit_file(digit_file)
    padiclab.save_chain_csv(
        reference.oracle_chain(xi, norm, bound), str(reference_csv)
    )
    assert oracle_csv.read_bytes() == reference_csv.read_bytes()


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_rerun_writes_byte_identical_artifacts(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        base = tmp_path / tag
        base.mkdir()
        digit_file = base / "xi.json"
        chain_csv = base / "chain.csv"
        report_json = base / "report.json"
        run_cli(
            "construct", "rule", "--p", "3", "--rule", "random", "--seed", "11",
            "--precision", "40", "-o", str(digit_file),
        )
        run_cli(
            "approx", "--xi", str(digit_file), "--norm", "mult", "-o", str(chain_csv)
        )
        run_cli(
            "estimate", "--chain", str(chain_csv), "--p", "3", "--norm", "mult",
            "-o", str(report_json),
        )
        outputs.append(
            tuple(path.read_bytes() for path in (digit_file, chain_csv, report_json))
        )
    assert outputs[0] == outputs[1]


# One pass over every subcommand: (argv, files it writes), "{dir}" standing
# for the working directory.
PINNED_RUNS = (
    (("construct", "lacunary", "--p", "2", "--growth", "pow:3", "--terms", "8",
      "-o", "{dir}/lac.json"), ("lac.json",)),
    (("construct", "rule", "--p", "3", "--rule", "random", "--precision", "256",
      "--seed", "7", "-o", "{dir}/rule.json"), ("rule.json",)),
    (("construct", "factorial", "--p", "2", "--terms", "6", "-o", "{dir}/fac.json"),
     ("fac.json",)),
    (("construct", "schneider", "--p", "2", "--mu", "5/2", "--steps", "10",
      "--ledger", "{dir}/ledger.csv", "-o", "{dir}/sch.json"),
     ("sch.json", "ledger.csv")),
    (("construct", "surgery", "--p", "2", "--t", "3/2", "--mu", "6", "--spikes", "1",
      "--sigma1", "5", "--gap-multiplier", "4", "-o", "{dir}/sur.json"),
     ("sur.json",)),
    (("approx", "--xi", "{dir}/lac.json", "--norm", "sup", "-o", "{dir}/sup.csv"),
     ("sup.csv",)),
    (("approx", "--xi", "{dir}/lac.json", "--norm", "mult", "-o", "{dir}/mult.csv"),
     ("mult.csv",)),
    (("approx", "--xi", "{dir}/rule.json", "--norm", "mult",
      "-o", "{dir}/rule_mult.csv"), ("rule_mult.csv",)),
    (("approx", "--xi", "{dir}/rule.json", "--norm", "mult", "--oracle", "200000",
      "-o", "{dir}/oracle.csv"), ("oracle.csv",)),
    (("estimate", "--chain", "{dir}/mult.csv", "--p", "2", "--norm", "mult",
      "--chain-sup", "{dir}/sup.csv", "-o", "{dir}/report.json"), ("report.json",)),
    (("verify", "--report", "{dir}/report.json", "--chain", "{dir}/sup.csv",
      "--p", "2", "--lacunary-c", "3", "--lacunary-d", "3",
      "-o", "{dir}/checks.json"), ("checks.json",)),
    (("sweep", "--p", "2", "--grid", "2.5,3", "--terms", "7",
      "-o", "{dir}/sweep.csv"), ("sweep.csv",)),
)

# Exit code of each run above and SHA-256 of each file it writes.  A change
# that alters an output on purpose updates these pins.
PINNED_OUTPUTS = {
    "exit_codes": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    "lac.json": "8c3cf47a26d2cc81abaa425a8ee8c2bd5d0509dd085aed0c2c0793f5fccb811a",
    "rule.json": "f1a75ce5e4f95be6ad160d6a364fe2d89fef4c4b9e6dcddf60822e6df88d9eac",
    "fac.json": "4b0b14c57c99488ab2b4cbf1c16a830664f4baadea7703586fa3a45170f9211c",
    "sch.json": "0b6557d4858a34b2ed301ca344654573cabb544d1175a548acac99c62a9ddfae",
    "ledger.csv": "992b61ad23e4077a023dd1d47f6aba985af2c4528dddac95b0de92320b9b9bc0",
    "sur.json": "a28bc8036fd2e5b93a236b6e935689b310cf0315b522a23cbdccea446fb5c3f4",
    "sup.csv": "74b8715b5454f558e209f0a099b103db7b6dd6d5664293fb528dc6467c4a1ec9",
    "mult.csv": "60ad8138abaf985c168071207aaf8d1e128e6f2953b032d44714c334093a8678",
    "rule_mult.csv": "cd628900f26d5bac4bc3aa7eba429fb414a178c2be5ebbcbe1ba1d4350aed5dd",
    "oracle.csv": "94fe71044fa06bdf885df16e6cea7293c3768805ad305e44ddcf51d661142f50",
    "report.json": "926e05b0d97f731e85caa2ae414854f3d58c83bce78a841c269f0897a17fc76e",
    "checks.json": "61991390bca0e2a9654eb69152d60f8871629a98216904135cdd9c533bb38cc9",
    "sweep.csv": "7cba2d18239f54c56c34fc25b9462955f9f93a04c0f88e2201627a90a81cc95a",
}


def test_cli_outputs_are_pinned(tmp_path, capsys):
    codes, digests = [], {}
    for argv, written in PINNED_RUNS:
        codes.append(run_cli(*(arg.format(dir=tmp_path) for arg in argv)))
        for name in written:
            digests[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert {"exit_codes": codes, **digests} == PINNED_OUTPUTS


# ---------------------------------------------------------------------------
# failure exit codes
# ---------------------------------------------------------------------------


def test_estimate_rejects_chain_too_short_for_burn_in(tmp_path, capsys):
    digit_file = tmp_path / "xi.json"
    chain_csv = tmp_path / "chain.csv"
    short_csv = tmp_path / "short.csv"
    run_cli(
        "construct", "rule", "--p", "2", "--rule", "random", "--seed", "3",
        "--precision", "30", "-o", str(digit_file),
    )
    run_cli("approx", "--xi", str(digit_file), "--norm", "sup", "-o", str(chain_csv))
    lines = chain_csv.read_text().splitlines(keepends=True)
    short_csv.write_text("".join(lines[:4]))  # header + three entries
    capsys.readouterr()
    assert run_cli(
        "estimate", "--chain", str(short_csv), "--p", "2", "--norm", "sup",
        "-o", str(tmp_path / "report.json"),
    ) == 2
    assert "insufficient data" in capsys.readouterr().err


def test_approx_rejects_malformed_digit_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "something-else"}\n')
    assert run_cli(
        "approx", "--xi", str(bad), "--norm", "sup", "-o", str(tmp_path / "c.csv")
    ) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "p, digits",
    [(2.0, [1, 0, 1]), (2, [1.7, 0, 1])],
)
def test_approx_rejects_non_integer_digit_file_entries(tmp_path, capsys, p, digits):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"format": "padic-digits-v1", "p": p, "precision": 3, "digits": digits}
    ))
    assert run_cli(
        "approx", "--xi", str(bad), "--norm", "sup", "-o", str(tmp_path / "c.csv")
    ) == 2
    assert "integers" in capsys.readouterr().err


def _tiny_report(tmp_path) -> Path:
    digit_file = tmp_path / "xi.json"
    chain_csv = tmp_path / "chain.csv"
    report_json = tmp_path / "report.json"
    run_cli("construct", "factorial", "--p", "2", "--terms", "5", "-o", str(digit_file))
    run_cli("approx", "--xi", str(digit_file), "--norm", "mult", "-o", str(chain_csv))
    run_cli(
        "estimate", "--chain", str(chain_csv), "--p", "2", "--norm", "mult",
        "-o", str(report_json),
    )
    return report_json


@pytest.mark.parametrize(
    "argv_tail, needle",
    [
        (("--lacunary-c", "3"), "--lacunary-d"),
        (("--exact-checks",), "--chain"),
        (("--chain", "chain.csv"), "--chain requires --p"),
    ],
)
def test_verify_flag_validation_exits_2(tmp_path, capsys, argv_tail, needle):
    report_json = _tiny_report(tmp_path)
    capsys.readouterr()
    assert run_cli(
        "verify", "--report", str(report_json), *argv_tail,
        "-o", str(tmp_path / "checks.json"),
    ) == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, needle",
    [
        (("construct", "lacunary", "--p", "2", "--growth", "exp:2"), "unsupported growth"),
        (("construct", "lacunary", "--p", "2", "--growth", "pow:x"), "malformed growth"),
        (("construct", "lacunary", "--p", "2", "--growth", "pow:1"), "must exceed 1"),
        (("construct", "lacunary", "--p", "2", "--growth", "pow:inf", "--terms", "3"),
         "must exceed 1"),
        (("construct", "lacunary", "--p", "2", "--growth", "pow:nan", "--terms", "3"),
         "must exceed 1"),
        (("construct", "lacunary", "--p", "2", "--growth", "pow:1e200", "--terms", "3"),
         "overflows"),
        (("sweep", "--p", "2", "--grid", "1e200"), "overflows"),
        (("construct", "schneider", "--p", "2", "--mu", "5/0", "--steps", "3"),
         "malformed exponent sequence"),
        (("construct", "schneider", "--p", "2", "--mu", "5/2,", "--steps", "3"),
         "malformed exponent sequence"),
        (("construct", "schneider", "--p", "2", "--mu", "1000", "--steps", "3"),
         "exceeds digit cap"),
        (("sweep", "--p", "2", "--grid", "2.5,x"), "malformed grid"),
        (("sweep", "--p", "2", "--grid", ""), "malformed grid"),
        (("estimate", "--chain", "{chain}", "--p", "2", "--norm", "sup",
          "--chain-sup", "{chain}"), "--chain-sup only applies"),
        (("estimate", "--chain", "{chain}", "--p", "0", "--norm", "sup"),
         "p must be prime"),
        (("verify", "--report", "{report}", "--tol", "nan"), "tolerance must be"),
        (("verify", "--report", "{report}", "--tol", "-1"), "tolerance must be"),
        (("verify", "--report", "{report}", "--tol", "inf"), "tolerance must be"),
        (("verify", "--report", "{report}", "--lacunary-c", "inf",
          "--lacunary-d", "3"), "gap ratios must be finite"),
        (("verify", "--report", "{infinite_report}"),
         "'mu' must be a finite number, got inf"),
    ],
)
def test_malformed_options_exit_2(tmp_path, capsys, argv, needle):
    chain_csv = tmp_path / "chain.csv"
    write_chain_csv(chain_csv, ((3, 1, 1), (5, 1, 2), (13, 1, 3)))
    report_json = tmp_path / "report.json"
    save_report(
        padiclab.ExponentReport(3.0, 6.0, 2.0, 3.0, False), report_json
    )
    # json writes the infinities as the non-standard literal Infinity
    # (save_report refuses them, so the file is written by hand).
    infinite_json = tmp_path / "infinite.json"
    infinite = padiclab.ExponentReport(math.inf, math.inf, 2.0, 3.0, False)
    infinite_json.write_text(json.dumps(padiclab.report_to_dict(infinite)))
    out = tmp_path / "out"
    argv = [
        arg.format(chain=chain_csv, report=report_json, infinite_report=infinite_json)
        for arg in argv
    ]
    assert run_cli(*argv, "-o", str(out)) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(NON_STAIRCASES))
def test_estimate_refuses_a_chain_that_is_no_staircase(tmp_path, capsys, name):
    chain_csv = tmp_path / "chain.csv"
    write_chain_csv(chain_csv, NON_STAIRCASES[name])
    assert run_cli(
        "estimate", "--chain", str(chain_csv), "--p", "2", "--norm", "sup",
        "-o", str(tmp_path / "report.json"),
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "staircase" in err
    assert "Traceback" not in err


def test_estimate_and_verify_refuse_a_chain_of_another_prime(tmp_path, capsys):
    digit_file = tmp_path / "xi.json"
    sup_csv = tmp_path / "sup.csv"
    report_json = tmp_path / "report.json"
    run_cli(
        "construct", "lacunary", "--p", "2", "--growth", "pow:3", "--terms", "9",
        "-o", str(digit_file),
    )
    run_cli("approx", "--xi", str(digit_file), "--norm", "sup", "-o", str(sup_csv))
    assert run_cli(
        "estimate", "--chain", str(sup_csv), "--p", "2", "--norm", "sup",
        "-o", str(report_json),
    ) == 0
    capsys.readouterr()
    for argv in (
        ("estimate", "--chain", str(sup_csv), "--p", "3", "--norm", "sup",
         "-o", str(tmp_path / "wrong.json")),
        ("verify", "--report", str(report_json), "--chain", str(sup_csv), "--p", "3"),
    ):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "contradict p = 3" in err
        assert "Traceback" not in err
    assert not (tmp_path / "wrong.json").exists()


def test_estimate_refuses_negative_valuations(tmp_path, capsys):
    chain_csv = tmp_path / "chain.csv"
    write_chain_csv(chain_csv, [(2 * k + 3, 1, k - 7) for k in range(7)])
    assert run_cli(
        "estimate", "--chain", str(chain_csv), "--p", "2", "--norm", "sup",
        "-o", str(tmp_path / "report.json"),
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nonnegative valuations" in err
    assert "Traceback" not in err


def test_verify_output_file_is_optional(tmp_path, capsys):
    report_json = _tiny_report(tmp_path)
    before = set(tmp_path.iterdir())
    capsys.readouterr()
    assert run_cli("verify", "--report", str(report_json)) == 0
    assert "pass" in capsys.readouterr().out
    assert set(tmp_path.iterdir()) == before


def test_verify_exits_2_on_mistyped_report(tmp_path, capsys):
    report_json = _tiny_report(tmp_path)
    data = json.loads(report_json.read_text())
    data["precision_limited"] = "false"
    report_json.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("verify", "--report", str(report_json)) == 2
    assert "'precision_limited' must be bool" in capsys.readouterr().err


def test_verify_exits_2_on_a_report_without_format(tmp_path, capsys):
    """A report written before the format field, with its per-entry rows and
    burn-in index, is refused rather than half-read."""
    report_json = tmp_path / "report.json"
    report_json.write_text(json.dumps({
        "mu": None, "mu_times": 6.0, "hat_mu": None, "hat_mu_times": 3.0,
        "burn_in": 2, "precision_limited": False,
        "pointwise": [
            {"k": 0, "valuation": 3, "log_height": 1.5, "tau": 1.4, "uniform_term": None},
        ],
    }))
    assert run_cli("verify", "--report", str(report_json)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'format'" in err
    assert "Traceback" not in err


def test_verify_exits_1_on_failing_report(tmp_path, capsys):
    report_json = _tiny_report(tmp_path)
    broken = dataclasses.replace(load_report(report_json), hat_mu_times=5.0)
    save_report(broken, report_json)
    capsys.readouterr()
    assert run_cli(
        "verify", "--report", str(report_json), "-o", str(tmp_path / "checks.json")
    ) == 1
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_grid_writes_prediction_columns(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(
        "sweep", "--p", "2", "--grid", "2.5,3",
        "--terms", "7", "-o", str(out),
    ) == 0
    rows = read_csv_rows(out)
    assert [row["d"] for row in rows] == ["2.5", "3.0"]
    assert list(rows[0]) == list(SWEEP_FIELDS)
    assert float(rows[1]["predicted_mu"]) == 3.0
    assert float(rows[1]["predicted_mu_times"]) == 6.0
    assert float(rows[1]["mu_est"]) == pytest.approx(3.0, abs=0.5)


def test_sweep_predicts_mu_at_least_2(tmp_path):
    # Dirichlet gives mu >= 2, so gaps growing like 1.5**k predict mu = 2.
    out = tmp_path / "sweep.csv"
    with pytest.warns(UserWarning, match="gap ratio"):
        assert run_cli(
            "sweep", "--p", "2", "--grid", "1.5", "--terms", "11", "-o", str(out)
        ) == 0
    row = read_csv_rows(out)[0]
    assert float(row["predicted_mu"]) == 2.0
    assert float(row["predicted_mu_times"]) == 3.0


# ---------------------------------------------------------------------------
# remaining constructors
# ---------------------------------------------------------------------------


def test_approx_prints_censoring_notice_for_rational_input(tmp_path, capsys):
    digit_file = tmp_path / "xi.json"
    save_digit_file(from_rational(2, 1, 3, 10), digit_file)
    capsys.readouterr()
    assert run_cli(
        "approx", "--xi", str(digit_file), "--norm", "sup",
        "-o", str(tmp_path / "c.csv"),
    ) == 0
    assert "censoring" in capsys.readouterr().err


def test_construct_schneider_writes_digits_and_ledger(tmp_path):
    digit_file = tmp_path / "xi.json"
    ledger_csv = tmp_path / "ledger.csv"
    assert run_cli(
        "construct", "schneider", "--p", "2", "--mu", "5/2", "--steps", "6",
        "--ledger", str(ledger_csv), "-o", str(digit_file),
    ) == 0
    payload = json.loads(digit_file.read_text())
    assert payload["p"] == 2 and payload["precision"] >= 6
    assert len(read_csv_rows(ledger_csv)) == 6


def test_construct_schneider_ledger_past_the_str_limit(tmp_path):
    # Later convergents have numerators beyond Python's 4300-digit limit on
    # int/str conversion.
    ledger_csv = tmp_path / "ledger.csv"
    assert run_cli(
        "construct", "schneider", "--p", "2", "--mu", "5/2", "--steps", "24",
        "--ledger", str(ledger_csv), "-o", str(tmp_path / "xi.json"),
    ) == 0
    rows = read_csv_rows(ledger_csv)
    assert len(rows) == 24
    assert max(len(row["p_n"]) for row in rows) > 4300


def test_construct_surgery_smoke(tmp_path):
    digit_file = tmp_path / "xi.json"
    assert run_cli(
        "construct", "surgery", "--p", "2", "--t", "3/2", "--mu", "6",
        "--spikes", "1", "--sigma1", "5", "--gap-multiplier", "4",
        "-o", str(digit_file),
    ) == 0
    payload = json.loads(digit_file.read_text())
    assert payload["p"] == 2 and payload["precision"] > 1


def test_construct_starts_schneider_and_surgery_for_p5(tmp_path):
    # At p = 5 the target 5/2 meets no block g >= 1 at pair 2, so both
    # recursions take a bootstrap block there.
    ledger_csv = tmp_path / "ledger.csv"
    assert run_cli(
        "construct", "schneider", "--p", "5", "--mu", "5/2", "--steps", "5",
        "--ledger", str(ledger_csv), "-o", str(tmp_path / "schneider.json"),
    ) == 0
    # Two bootstrap blocks and four applied driven ones give six pairs; the
    # fifth driven block is the trailing one.
    rows = read_csv_rows(ledger_csv)
    assert [row["g_n"] for row in rows] == ["1", "1", "1", "2", "2", "3"]
    assert rows[1]["p_n"] == "5" and rows[1]["q_n"] == "6"
    digit_file = tmp_path / "surgery.json"
    assert run_cli(
        "construct", "surgery", "--p", "5", "--t", "3/2", "--mu", "6",
        "--spikes", "1", "--sigma1", "5", "--gap-multiplier", "4",
        "-o", str(digit_file),
    ) == 0
    payload = json.loads(digit_file.read_text())
    assert payload["p"] == 5 and payload["precision"] == 417


def test_runtime_imports_only_the_standard_library():
    # A fresh interpreter without site (-S), so only what padiclab itself
    # imports is loaded.
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(padiclab.__file__).parents[1])!r})\n"
        "import padiclab, padiclab.cli\n"
        "for name in sorted(sys.modules):\n"
        "    print(name)\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "padiclab.cli" in out
    foreign = [
        name for name in out
        if name != "__main__"
        and name.split(".")[0] not in sys.stdlib_module_names
        and name.split(".")[0] != "padiclab"
    ]
    assert foreign == []
