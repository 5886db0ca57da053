"""The three workloads: their jobs, and the checks run on each job's outputs.

A job runs program steps (CLI commands through ``padiclab.cli.main`` and
library calls) while the runner's clock is on, and returns a closure that
checks the outputs with the clock stopped.  Program calls go through the
module objects held by ``Lib``, so a tracer installed on those modules sees
them.  The benchmark seed decides the random digits and nothing else; the
program only ever sees digit files and command-line arguments.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from types import ModuleType
from typing import Callable

import checks
from checks import require

Check = Callable[[], str]


class JobFailed(RuntimeError):
    """A program step failed: a CLI exit code other than 0, or an error."""


@dataclass(frozen=True)
class Lib:
    """The padiclab modules a run calls into (looked up at call time)."""

    core: ModuleType
    constructors: ModuleType
    lattice: ModuleType
    exponents: ModuleType
    verify: ModuleType
    cli: ModuleType

    def run_cli(self, *argv) -> None:
        """``padiclab *argv`` in this process, its output captured."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main([str(a) for a in argv])
        if code != 0:
            message = err.getvalue().strip().splitlines()
            raise JobFailed(f"padiclab {argv[0]} exited {code}: "
                            f"{message[-1] if message else ''}")


@dataclass(frozen=True)
class Job:
    label: str
    ladder: str  # chains of one ladder share a family, for the scaling slope
    run: Callable[[Lib, str], Check]


def _paths(workdir: str, label: str, *names: str) -> list[str]:
    stem = os.path.join(workdir, label.replace("/", "_"))
    return [f"{stem}.{name}" for name in names]


# ---------------------------------------------------------------------------
# dense-pipeline
# ---------------------------------------------------------------------------

DENSE_LADDERS = (
    ("thue-morse", 2, (1024, 2048, 4096)),
    ("random", 2, (512, 1024, 2048)),
    ("random", 3, (512, 1024)),
)
# Height bounds for the oracle cross-check of each dense chain's prefix.
DENSE_SUP_BOUND = 1000
DENSE_MULT_BOUND = 10**5


def _dense_job(rule: str, p: int, n: int, digit_seed: int) -> Job:
    label = f"{rule}/p{p}/n{n}"

    def run(lib: Lib, workdir: str) -> Check:
        xi, sup, mult, rep = _paths(workdir, label, "digits.json", "sup.csv",
                                    "mult.csv", "report.json")
        seed_args = ("--seed", digit_seed) if rule == "random" else ()
        lib.run_cli("construct", "rule", "--p", p, "--rule", rule,
                    "--precision", n, *seed_args, "-o", xi)
        lib.run_cli("approx", "--xi", xi, "--norm", "sup", "-o", sup)
        lib.run_cli("approx", "--xi", xi, "--norm", "mult", "-o", mult)
        lib.run_cli("estimate", "--chain", mult, "--p", p, "--norm", "mult",
                    "--chain-sup", sup, "-o", rep)
        lib.run_cli("verify", "--report", rep, "--chain", sup, "--p", p,
                    "--exact-checks")
        padicle = lib.verify.check_padicle(lib.lattice.load_chain_entries(mult), p)
        number = lib.core.load_digit_file(xi)
        oracle_sup = lib.lattice.oracle_chain(number, "sup", DENSE_SUP_BOUND)
        oracle_mult = lib.lattice.oracle_chain(number, "mult", DENSE_MULT_BOUND)

        def check() -> str:
            digits = checks.read_digits(xi)
            require(digits.p == p and digits.precision == n, "wrong digit file")
            if rule == "thue-morse":
                require(digits.digits == [1 - bin(i).count("1") % 2 for i in range(n)],
                        "Thue-Morse digits differ")
            sup_entries, mult_entries = checks.read_chain(sup), checks.read_chain(mult)
            require(padicle.passed is True, "check_padicle failed on the mult chain")
            return "; ".join((
                checks.check_chain(sup_entries, digits, "sup"),
                checks.check_chain(mult_entries, digits, "mult"),
                checks.check_prefix(sup_entries, [checks.entry_tuple(e) for e in oracle_sup.entries],
                                    "sup", DENSE_SUP_BOUND),
                checks.check_prefix(mult_entries, [checks.entry_tuple(e) for e in oracle_mult.entries],
                                    "mult", DENSE_MULT_BOUND),
                checks.check_report(checks.read_json(rep), classical=True),
            ))

        return check

    return Job(label, f"{rule}/p{p}", run)


def dense_pipeline(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(f"dense-pipeline:{seed}")
    return [
        _dense_job(rule, p, n, rng.randrange(2**31))
        for rule, p, sizes in DENSE_LADDERS
        for n in sizes
    ]


# ---------------------------------------------------------------------------
# sparse-families
# ---------------------------------------------------------------------------


def _lacunary_pow3(lib: Lib, workdir: str) -> Check:
    xi, sup, mult, rep = _paths(workdir, "lacunary-pow3", "digits.json", "sup.csv",
                                "mult.csv", "report.json")
    lib.run_cli("construct", "lacunary", "--p", 2, "--growth", "pow:3",
                "--terms", 9, "-o", xi)
    lib.run_cli("approx", "--xi", xi, "--norm", "sup", "-o", sup)
    lib.run_cli("approx", "--xi", xi, "--norm", "mult", "-o", mult)
    lib.run_cli("estimate", "--chain", mult, "--p", 2, "--norm", "mult",
                "--chain-sup", sup, "-o", rep)
    lib.run_cli("verify", "--report", rep, "--chain", sup, "--p", 2,
                "--exact-checks", "--lacunary-c", 3, "--lacunary-d", 3)

    def check() -> str:
        digits = checks.read_digits(xi)
        report = checks.read_json(rep)
        return "; ".join((
            checks.check_chain(checks.read_chain(sup), digits, "sup"),
            checks.check_chain(checks.read_chain(mult), digits, "mult"),
            checks.check_report(report, classical=True),
            checks.check_lacunary(report, 3.0),
        ))

    return check


def _factorial(lib: Lib, workdir: str) -> Check:
    xi, mult, rep = _paths(workdir, "factorial", "digits.json", "mult.csv", "report.json")
    lib.run_cli("construct", "factorial", "--p", 2, "--terms", 8, "-o", xi)
    lib.run_cli("approx", "--xi", xi, "--norm", "mult", "-o", mult)
    lib.run_cli("estimate", "--chain", mult, "--p", 2, "--norm", "mult", "-o", rep)
    lib.run_cli("verify", "--report", rep)

    def check() -> str:
        # Criterion 3's 2.75 floor on hat_mu_times is a documented miss of
        # the data, not of the code, and is deliberately not asserted.
        digits = checks.read_digits(xi)
        return "; ".join((
            checks.check_chain(checks.read_chain(mult), digits, "mult"),
            checks.check_report(checks.read_json(rep), classical=False),
        ))

    return check


def _lacunary_pow4(lib: Lib, workdir: str) -> Check:
    # Kept failing operation: padiclab computes this chain, then save_chain_csv
    # hits Python's 4300-digit int/str conversion limit and approx exits 2.
    xi, mult, rep = _paths(workdir, "lacunary-pow4", "digits.json", "mult.csv", "report.json")
    lib.run_cli("construct", "lacunary", "--p", 2, "--growth", "pow:4",
                "--terms", 9, "-o", xi)
    lib.run_cli("approx", "--xi", xi, "--norm", "mult", "-o", mult)
    lib.run_cli("estimate", "--chain", mult, "--p", 2, "--norm", "mult", "-o", rep)

    def check() -> str:
        report = checks.read_json(rep)
        mu_x = report["mu_times"]
        require(checks.within(mu_x, 8.0, 0.05), f"pow:4 mu_times {mu_x} not within 5% of 8")
        return f"mu_times={mu_x:.4f}"

    return check


def _schneider(lib: Lib, workdir: str) -> Check:
    (xi,) = _paths(workdir, "schneider", "digits.json")
    state, number = lib.constructors.schneider_exponent_driven(2, Fraction(5, 2), 28)
    rows = lib.constructors.schneider_sandwich_report(state)
    lib.core.save_digit_file(number, xi)

    def check() -> str:
        return checks.check_schneider(state.pairs, state.gs, state.mus, state.trailing_g,
                                      state.trailing_mu, rows, checks.read_digits(xi))

    return check


def _surgery(lib: Lib, workdir: str) -> Check:
    xi, zeta = _paths(workdir, "surgery", "digits.json", "source.json")
    witness = lib.constructors.build_ratio_witness(
        2, Fraction(3, 2), Fraction(6), sigma1_target=4, gap_multiplier=4)
    results = lib.verify.check_surgery_pointwise(witness, tol=0.10)
    lib.core.save_digit_file(witness.xi, xi)
    lib.core.save_digit_file(witness.zeta, zeta)

    def check() -> str:
        require(all(r.passed for r in results), "check_surgery_pointwise failed")
        return checks.check_surgery(
            checks.read_digits(zeta), checks.read_digits(xi),
            witness.spec.intervals(), witness.corrections,
            [(pr.x, pr.y) for pr in witness.truncation_pairs],
            [(pr.x, pr.y) for pr in witness.spike_pairs],
            witness.mu, witness.t,
        )

    return check


def _sweep(lib: Lib, workdir: str) -> Check:
    (out,) = _paths(workdir, "sweep", "csv")
    lib.run_cli("sweep", "--p", 2, "--grid", "2.5,3,3.5", "--terms", 8, "-o", out)
    return lambda: checks.check_sweep(out)


SPARSE_JOBS = (
    Job("lacunary-pow3", "lacunary-pow3", _lacunary_pow3),
    Job("factorial", "factorial", _factorial),
    Job("lacunary-pow4", "lacunary-pow4", _lacunary_pow4),
    Job("schneider", "schneider", _schneider),
    Job("surgery", "surgery", _surgery),
    Job("sweep", "sweep", _sweep),
)


def sparse_families(seed: int, workdir: str) -> list[Job]:
    return list(SPARSE_JOBS)


# ---------------------------------------------------------------------------
# oracle-crosscheck
# ---------------------------------------------------------------------------

ORACLE_PRIMES = (2, 3, 5)
ORACLE_PER_PRIME = 15
# The oracle's candidate count, time and memory grow with v_p(xi): at p = 2
# its memory goes from 22 to 68 MiB as v_2(xi) goes from 0 to 12.  The first
# number of each prime is divisible by p^w, so that this case is measured on
# every seed and peak memory does not hinge on the largest valuation a seed
# happens to draw.
ORACLE_VALUATION = {2: 12, 3: 8, 5: 5}
ORACLE_DIGITS = 30
ORACLE_SUP_BOUND = 10**4
ORACLE_MULT_BOUND = 10**6
UNIFORM_NUMBERS = 10
UNIFORM_DIGITS = {2: 18, 3: 12, 5: 10}


def write_digit_file(path: str, p: int, digits: list[int]) -> None:
    """A padic-digits-v1 file, the format ``padiclab`` reads."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"format": "padic-digits-v1", "p": p, "precision": len(digits),
                   "digits": digits}, handle)
        handle.write("\n")


def _censored_at_valuation_height(p: int, digits: list[int], valuation: int) -> bool:
    """Some (+-p^w, y) with 0 < y <= p^w has y*xi = +-p^w mod p^n.

    With xi = p^w * eta, that is: the centered inverse of eta modulo
    p^(n-w) is at most p^w in absolute value.  Such a pair has a censored
    valuation at sup height p^w, the height of the deepest (p^w, y) record,
    and on exactly these numbers ``lattice.chain`` keeps that record although
    the censored pair beside it is deeper (see the README).
    """
    modulus = p ** (len(digits) - valuation)
    eta = sum(d * p**i for i, d in enumerate(digits[valuation:])) % modulus
    inverse = pow(eta, -1, modulus)
    return min(inverse, modulus - inverse) <= p**valuation


def _seeded_digits(rng: random.Random, p: int, n: int, valuation: int = 0) -> list[int]:
    """Random digits; with ``valuation`` > 0, exactly that many low zeros.

    A number divisible by p^w is drawn again while it meets a censored
    valuation at height p^w, so that the known fault of the walk there does
    not fail the run on some seeds only.
    """
    if valuation:
        while True:
            digits = [0] * valuation + [rng.randrange(1, p)] + [
                rng.randrange(p) for _ in range(n - valuation - 1)]
            if not _censored_at_valuation_height(p, digits, valuation):
                return digits
    digits = [rng.randrange(p) for _ in range(n)]
    if not any(digits):
        digits[0] = 1
    return digits


def _oracle_job(label: str, p: int, path: str) -> Job:
    def run(lib: Lib, workdir: str) -> Check:
        lat, ver = lib.lattice, lib.verify
        xi = lib.core.load_digit_file(path)
        fast_sup, fast_mult = lat.chain(xi, "sup"), lat.chain(xi, "mult")
        oracle_sup = lat.oracle_chain(xi, "sup", ORACLE_SUP_BOUND)
        oracle_mult = lat.oracle_chain(xi, "mult", ORACLE_MULT_BOUND)
        chains = (fast_sup, oracle_sup, fast_mult, oracle_mult)
        exact = [(c, ver.check_korollar(c)) for c in (fast_sup, oracle_sup)]
        exact += [(c, ver.check_padicle(c.entries, p)) for c in chains]

        def check() -> str:
            # Both checks skip (passed None) a chain of fewer than two entries,
            # as an oracle chain below its bound can be.
            failed = [r.name for c, r in exact
                      if r.passed is not (True if len(c.entries) >= 2 else None)]
            require(not failed, f"exact checks failed: {failed}")
            digits = checks.read_digits(path)
            sup = [checks.entry_tuple(e) for e in fast_sup.entries]
            mult = [checks.entry_tuple(e) for e in fast_mult.entries]
            return "; ".join((
                checks.check_chain(sup, digits, "sup"),
                checks.check_chain(mult, digits, "mult"),
                checks.check_prefix(sup, [checks.entry_tuple(e) for e in oracle_sup.entries],
                                    "sup", ORACLE_SUP_BOUND),
                checks.check_prefix(mult, [checks.entry_tuple(e) for e in oracle_mult.entries],
                                    "mult", ORACLE_MULT_BOUND),
            ))

        return check

    return Job(label, f"oracle/p{p}", run)


def _uniform_job(label: str, p: int, path: str) -> Job:
    def run(lib: Lib, workdir: str) -> Check:
        xi = lib.core.load_digit_file(path)
        records = [
            record
            for norm in ("sup", "mult")
            for record in lib.exponents.cross_check_uniform(
                xi, lib.lattice.chain(xi, norm), samples=5)
        ]

        def check() -> str:
            bad = [r["bound"] for r in records if not r["ok"] or r["discrepancy"] > 1e-9]
            require(not bad, f"uniform cross-check failed at bounds {bad}")
            return f"{len(records)} boxes"

        return check

    return Job(label, f"oracle/p{p}", run)


def oracle_crosscheck(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(f"oracle-crosscheck:{seed}")
    jobs = []
    for p in ORACLE_PRIMES:
        for i in range(ORACLE_PER_PRIME):
            label = f"oracle/p{p}/{i}"
            (path,) = _paths(workdir, label, "digits.json")
            valuation = ORACLE_VALUATION[p] if i == 0 else 0
            write_digit_file(path, p, _seeded_digits(rng, p, ORACLE_DIGITS, valuation))
            jobs.append(_oracle_job(label, p, path))
    for i in range(UNIFORM_NUMBERS):
        p = ORACLE_PRIMES[i % len(ORACLE_PRIMES)]
        label = f"uniform/p{p}/{i}"
        (path,) = _paths(workdir, label, "digits.json")
        write_digit_file(path, p, _seeded_digits(rng, p, UNIFORM_DIGITS[p]))
        jobs.append(_uniform_job(label, p, path))
    return jobs


WORKLOADS = {
    "dense-pipeline": dense_pipeline,
    "sparse-families": sparse_families,
    "oracle-crosscheck": oracle_crosscheck,
}
