"""End-to-end tests for the command-line interface.

Each test drives ``padiclab.cli.main`` in-process with a temporary
directory for all artefacts, asserting on exit codes, output files and
the printed summaries.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import padiclab
import reference
from padiclab import from_rational, load_report, save_digit_file, save_report
from padiclab.cli import SWEEP_FIELDS, main


def run_cli(*argv: str) -> int:
    return main(list(argv))


def read_csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


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


def test_verify_checks_filter_keeps_named_checks(tmp_path, capsys):
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
        "--checks", "height_window,pair_independence",
        "-o", str(checks_json),
    ) == 0
    summary = json.loads(checks_json.read_text())
    assert [item["name"] for item in summary["checks"]] == [
        "height_window",
        "pair_independence",
    ]


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
        "--oracle", "--height-bound", "40", "-o", str(oracle_csv),
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
        "--oracle", "--height-bound", str(bound), "-o", str(oracle_csv),
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
    "argv_tail, needle",
    [
        (("--oracle",), "--height-bound"),
        (("--height-bound", "50"), "--oracle"),
    ],
)
def test_approx_oracle_flag_pairing_is_enforced(tmp_path, capsys, argv_tail, needle):
    digit_file = tmp_path / "xi.json"
    run_cli(
        "construct", "rule", "--p", "2", "--rule", "random", "--seed", "1",
        "--precision", "8", "-o", str(digit_file),
    )
    capsys.readouterr()
    assert run_cli(
        "approx", "--xi", str(digit_file), "--norm", "sup",
        *argv_tail, "-o", str(tmp_path / "c.csv"),
    ) == 2
    assert needle in capsys.readouterr().err


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
        (("--checks", "no_such_check"), "unknown checks"),
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


def test_verify_output_file_is_optional(tmp_path, capsys):
    report_json = _tiny_report(tmp_path)
    before = set(tmp_path.iterdir())
    capsys.readouterr()
    assert run_cli("verify", "--report", str(report_json)) == 0
    assert "pass" in capsys.readouterr().out
    assert set(tmp_path.iterdir()) == before


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
        "sweep", "--family", "lacunary", "--p", "2", "--grid", "2.5,3",
        "--terms", "7", "-o", str(out),
    ) == 0
    rows = read_csv_rows(out)
    assert [row["d"] for row in rows] == ["2.5", "3.0"]
    assert list(rows[0]) == list(SWEEP_FIELDS)
    assert float(rows[1]["predicted_mu"]) == 3.0
    assert float(rows[1]["predicted_mu_times"]) == 6.0
    assert float(rows[1]["mu_est"]) == pytest.approx(3.0, abs=0.5)


def test_sweep_range_with_threads_matches_grid(tmp_path):
    grid_csv = tmp_path / "grid.csv"
    range_csv = tmp_path / "range.csv"
    run_cli(
        "sweep", "--p", "2", "--grid", "2.5,3.0", "--terms", "6",
        "-o", str(grid_csv),
    )
    assert run_cli(
        "sweep", "--p", "2", "--d-from", "2.5", "--d-to", "3.0",
        "--d-step", "0.5", "--terms", "6", "-o", str(range_csv),
    ) == 0
    assert grid_csv.read_bytes() == range_csv.read_bytes()


def test_sweep_range_validation(tmp_path, capsys):
    assert run_cli(
        "sweep", "--p", "2", "--d-from", "3.0", "--d-to", "2.0",
        "-o", str(tmp_path / "s.csv"),
    ) == 2
    assert "--d-to" in capsys.readouterr().err


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
