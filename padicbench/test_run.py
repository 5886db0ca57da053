"""The runner: metric names, a traced job, and refusal without sources."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import run
import tracer as tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_the_runner_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def test_traced_job_reports_every_per_layer_metric(tmp_path):
    lib = run.import_padiclab()
    jobs = [workloads._dense_job("thue-morse", 2, n, 0) for n in (96, 192)]
    tr = tracing.Tracer()
    tr.install(sys.modules["padiclab"], tracing.padiclab_targets())
    try:
        results = [run.run_job(job, lib, str(tmp_path), tr) for job in jobs]
    finally:
        tr.uninstall()
    assert all(r.failure is None and r.problem is None for r in results), results
    metrics = run.per_layer(tr, 1, 0.0)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["cli.approx.s"] > 0
    assert metrics["lattice.chain.sup.levels"] >= metrics["lattice.chain.sup.entries"] > 0
    assert metrics["lattice.chain_csv.bytes"] > 0
    assert metrics["lattice.oracle_chain.candidates"] > 0
    assert metrics["lattice.chain.sup.slope"] > 0


def test_failed_program_step_is_a_failed_job(tmp_path):
    lib = run.import_padiclab()

    def broken(lib, workdir):
        lib.run_cli("approx", "--xi", str(tmp_path / "missing.json"), "--norm", "sup",
                    "-o", str(tmp_path / "out.csv"))

    result = run.run_job(workloads.Job("broken", "broken", broken), lib, str(tmp_path), None)
    assert result.failure.startswith("padiclab approx exited 2")
    assert result.problem is None


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, str(Path(run.HERE.name) / "run.py"), "--workload",
         "dense-pipeline", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert child.returncode != 0
    assert child.stdout == ""


def test_oracle_inputs_follow_the_seed_and_include_a_high_valuation_number(tmp_path):
    first, second, other = (tmp_path / name for name in ("a", "b", "c"))
    for directory, seed in ((first, 3), (second, 3), (other, 4)):
        directory.mkdir()
        workloads.oracle_crosscheck(seed, str(directory))
    files = sorted(path.name for path in first.iterdir())
    assert len(files) == len(workloads.ORACLE_PRIMES) * workloads.ORACLE_PER_PRIME \
        + workloads.UNIFORM_NUMBERS
    assert all((first / f).read_bytes() == (second / f).read_bytes() for f in files)
    assert any((first / f).read_bytes() != (other / f).read_bytes() for f in files)
    for p, w in workloads.ORACLE_VALUATION.items():
        digits = checks.read_digits(str(first / f"oracle_p{p}_0.digits.json"))
        assert checks.valuation(checks.value_of_digits(digits.digits, p), p) == w


# The p = 2, v = 12 number first drawn for seed 1650402560: (-4096, 3121) has a
# censored valuation at sup height 4096, beside the record (4096, 975).
CENSORED_AT_4096 = [0] * 12 + [1, 1, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0]


def test_high_valuation_number_is_redrawn_when_censored_at_its_height(tmp_path):
    assert workloads._censored_at_valuation_height(2, CENSORED_AT_4096, 12)
    assert not workloads._censored_at_valuation_height(2, [0] * 12 + [1, 1] + [0] * 16, 12)
    workloads.oracle_crosscheck(1650402560, str(tmp_path))
    digits = checks.read_digits(str(tmp_path / "oracle_p2_0.digits.json")).digits
    assert digits != CENSORED_AT_4096
    assert not workloads._censored_at_valuation_height(2, digits, 12)
