"""padiclab benchmark: run one workload, or all of them, and print its metrics.

    python3 padicbench/run.py --workload dense-pipeline --seed 1 --seconds 10 --trace 0

A run is one process and one thread.  It sets up (imports padiclab from
``src/`` and writes the workload's inputs) several times and keeps the
median, then runs whole passes over the workload's job list, back to back,
until ``--seconds`` have elapsed (at least one pass).  Every job's outputs
are checked independently with the clock stopped.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` an untraced pass, traced passes and another untraced
pass run, and the metrics are the per-layer ones read off the spans.  ``--workload all`` runs
each workload in its own process, one after another.

Run outputs (temporary digit, chain and report files, trace dumps and result
files) go to ``.padicbench/`` at the root of the checkout.
"""

from __future__ import annotations

import sys
import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".padicbench"
SETUPS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "peak_rss_mib": "MiB",
}

# name -> (unit, better); the per-layer metrics of a traced run, per pass.
PER_LAYER = {
    **{f"core.{f}.s": ("s", "lower") for f in (
        "from_rational", "digits_to_int", "int_to_digits", "make_pair", "pval",
        "save_digit_file", "load_digit_file")},
    "core.make_pair.calls": ("count", "lower"),
    "core.pval.calls": ("count", "lower"),
    "core.digit_file.bytes": ("bytes", "lower"),
    **{f"constructors.{f}.s": ("s", "lower") for f in (
        "build_digit_rule", "build_lacunary", "build_factorial",
        "schneider_exponent_driven", "surgery_transform", "build_ratio_witness")},
    **{f"lattice.chain.{norm}.{m}": unit for norm in ("sup", "mult") for m, unit in (
        ("s", ("s", "lower")), ("levels", ("count", "lower")),
        ("entries", ("count", "higher")), ("slope", ("1", "lower")))},
    "lattice.oracle_chain.sup.s": ("s", "lower"),
    "lattice.oracle_chain.mult.s": ("s", "lower"),
    "lattice.oracle_chain.candidates": ("count", "lower"),
    "lattice.oracle_chain.yield": ("1", "higher"),
    "lattice.uniform_minimum.s": ("s", "lower"),
    "lattice.uniform_minimum_enum.s": ("s", "lower"),
    "lattice.save_chain_csv.s": ("s", "lower"),
    "lattice.load_chain_entries.s": ("s", "lower"),
    "lattice.chain_csv.bytes": ("bytes", "lower"),
    **{f"exponents.{f}.s": ("s", "lower") for f in (
        "build_report", "save_report", "load_report", "cross_check_uniform")},
    "verify.check_korollar.s": ("s", "lower"),
    "verify.check_padicle.s": ("s", "lower"),
    "verify.check_padicle.probes": ("count", "lower"),
    **{f"cli.{c}.s": ("s", "lower") for c in (
        "construct", "approx", "estimate", "verify", "sweep")},
    "trace.overhead_s": ("s", "lower"),
}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def import_padiclab() -> workloads.Lib:
    """Import padiclab afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "padiclab" or m.startswith("padiclab.")]:
        del sys.modules[name]
    package = importlib.import_module("padiclab")
    cli = importlib.import_module("padiclab.cli")
    if Path(package.__file__).resolve().parent != SRC / "padiclab":
        raise SystemExit(f"padiclab imported from {package.__file__}, not {SRC}")
    return workloads.Lib(package.core, package.constructors, package.lattice,
                         package.exponents, package.verify, cli)


def set_up(workload: str, seed: int) -> tuple[workloads.Lib, str, list, list[float]]:
    """Import and build inputs SETUPS times; keep the last, time each.

    The first set-up is timed from the start of this process.
    """
    times, workdir = [], None
    for i in range(SETUPS):
        start = _START if i == 0 else time.perf_counter()
        if workdir is not None:
            shutil.rmtree(workdir)
        lib = import_padiclab()
        workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
        jobs = workloads.WORKLOADS[workload](seed, workdir)
        times.append(time.perf_counter() - start)
    return lib, workdir, jobs, times


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobResult:
    label: str
    seconds: float
    failure: str | None
    problem: str | None  # a failed output check
    note: str


def run_job(job: workloads.Job, lib: workloads.Lib, workdir: str,
            trace: tracing.Tracer | None) -> JobResult:
    gc.collect()
    check, failure = None, None
    span = trace.span("job", label=job.label, ladder=job.ladder) if trace else nullcontext()
    start = time.perf_counter()
    with span:
        try:
            check = job.run(lib, workdir)
        except workloads.JobFailed as exc:
            failure = str(exc)
        except Exception:  # a job that raises is a failed operation; keep going
            traceback.print_exc()
            failure = traceback.format_exc().strip().splitlines()[-1]
    seconds = time.perf_counter() - start
    if threading.active_count() != 1:
        raise SystemExit(f"job {job.label} left a thread running")
    problem, note = None, ""
    if check is not None:
        try:
            note = check()
        except Exception as exc:  # any exception here is a wrong output
            problem = f"{type(exc).__name__}: {exc}"
    return JobResult(job.label, seconds, failure, problem, note)


def run_passes(jobs, lib, workdir, seconds: float,
               trace: tracing.Tracer | None = None) -> list[list[JobResult]]:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append([run_job(job, lib, workdir, trace) for job in jobs])
    return passes


def pass_wall(results: list[JobResult]) -> float:
    return sum(r.seconds for r in results)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(passes, setups: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(pass_wall(p) for p in passes),
        "job_p50_s": statistics.median(r.seconds for p in passes for r in p),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def ladder_slope(spans: list[tracing.Span], job_of: list[int], name: str) -> float:
    """Log-log slope of a chain's time against digits, pooled within ladders.

    Each ladder keeps its own intercept; a ladder of one size adds nothing.
    """
    points = defaultdict(list)
    for i, span in enumerate(spans):
        if span.name == name and span.duration > 0 and job_of[i] >= 0:
            ladder = spans[job_of[i]].attrs["ladder"]
            points[ladder].append((math.log(span.attrs["digits"]), math.log(span.duration)))
    num = den = 0.0
    for xy in points.values():
        mx = statistics.fmean(x for x, _ in xy)
        my = statistics.fmean(y for _, y in xy)
        num += sum((x - mx) * (y - my) for x, y in xy)
        den += sum((x - mx) ** 2 for x, _ in xy)
    return num / den if den > 0 else 0.0


def per_layer(tr: tracing.Tracer, traced_passes: int, overhead: float) -> dict[str, float]:
    spans = tr.spans
    job_of = []
    for i, span in enumerate(spans):
        job_of.append(i if span.name == "job" else
                      (job_of[span.parent] if span.parent >= 0 else -1))
    self_s = defaultdict(float)
    attr = defaultdict(float)
    for span in spans:
        self_s[span.name] += span.self_s
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)):
                attr[span.name, key] += value
    calls = defaultdict(int)
    below = defaultdict(int)  # (parent span name, group name) -> calls
    for group in tr.groups.values():
        self_s[group.name] += group.self_s
        calls[group.name] += group.calls
        parent = spans[group.parent].name if group.parent >= 0 else ""
        below[parent, group.name] += group.calls

    candidates = sum(below[f"lattice.oracle_chain.{n}", "core.make_pair"] for n in ("sup", "mult"))
    oracle_entries = sum(attr[f"lattice.oracle_chain.{n}", "entries"] for n in ("sup", "mult"))
    raw = {
        "core.make_pair.calls": calls["core.make_pair"],
        "core.pval.calls": calls["core.pval"],
        "core.digit_file.bytes": attr["core.save_digit_file", "bytes"]
        + attr["core.load_digit_file", "bytes"],
        "lattice.oracle_chain.candidates": candidates,
        "lattice.oracle_chain.yield": oracle_entries / candidates if candidates else 0.0,
        "lattice.chain_csv.bytes": attr["lattice.save_chain_csv", "bytes"]
        + attr["lattice.load_chain_entries", "bytes"],
        "verify.check_padicle.probes": attr["verify.check_padicle", "probes"],
    }
    for norm in ("sup", "mult"):
        name = f"lattice.chain.{norm}"
        raw[f"{name}.levels"] = below[name, "core.residue"]
        raw[f"{name}.entries"] = attr[name, "entries"]
    for metric in PER_LAYER:
        if metric.endswith(".s") and metric not in raw:
            raw[metric] = self_s[metric[: -len(".s")]]
    out = {metric: value / traced_passes for metric, value in raw.items()}
    for norm in ("sup", "mult"):
        out[f"lattice.chain.{norm}.slope"] = ladder_slope(spans, job_of, f"lattice.chain.{norm}")
    out["trace.overhead_s"] = overhead
    return out


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_workload(args: argparse.Namespace) -> dict:
    OUT.mkdir(exist_ok=True)
    lib, workdir, jobs, setups = set_up(args.workload, args.seed)
    try:
        if args.trace:
            # The first pass of a process pays first-touch costs (heap growth),
            # so tracing is compared between two later passes.
            warm_up = run_passes(jobs, lib, workdir, 0)
            tr = tracing.Tracer()
            tr.install(sys.modules["padiclab"], tracing.padiclab_targets())
            try:
                traced = run_passes(jobs, lib, workdir, args.seconds, tr)
            finally:
                tr.uninstall()
            reference = run_passes(jobs, lib, workdir, 0)
            overhead = (statistics.median(pass_wall(p) for p in traced)
                        - pass_wall(reference[0]))
            metrics = per_layer(tr, len(traced), overhead)
            tr.dump(str(OUT / f"trace-{args.workload}-s{args.seed}.jsonl"))
            passes = warm_up + traced + reference
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            passes = run_passes(jobs, lib, workdir, args.seconds)
            metrics = end_to_end(passes, setups)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir)

    results = [r for p in passes for r in p]
    for r in passes[0]:
        status = "FAILED " + r.failure if r.failure else (
            "WRONG " + r.problem if r.problem else "ok " + r.note)
        print(f"{r.label:24s} {r.seconds:9.4f}s  {status}")
    for r in results:
        if r.problem:
            print(f"wrong output in {r.label}: {r.problem}", file=sys.stderr)
    return {
        "correct": not any(r.problem for r in results),
        "attempted": len(results),
        "failed": sum(1 for r in results if r.failure),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, one after another."""
    combined, code = {}, 0
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        if child.returncode != 0 or not lines:
            code = child.returncode or 1
            continue
        combined[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": combined}))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "padiclab" / "__init__.py").is_file():
        print(f"error: no padiclab sources under {SRC}", file=sys.stderr)
        return 2
    # One process, one thread: the sweep's thread pool stays off.
    os.environ.pop("PADIC_LAB_THREADS", None)
    if args.workload == "all":
        return run_all(args)
    sys.dont_write_bytecode = True  # every set-up compiles padiclab from source
    sys.path.insert(0, str(SRC))
    result = run_workload(args)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
