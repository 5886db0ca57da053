"""Command-line interface for constructing, approximating and verifying.

Subcommands
-----------
construct   build a truncated p-adic integer and write its digit file
approx      compute a best-approximation chain and write it as CSV
estimate    turn chain CSVs into an exponent report (JSON)
verify      run checks on a report (and optionally a chain); exit 1 on failure
sweep       estimate exponents across a grid of power-law gap growths

Exit codes: 0 success, 1 failed verification, 2 malformed input.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .constructors import (
    LacunarySpec,
    build_digit_rule,
    build_factorial,
    build_lacunary,
    build_ratio_witness,
    lacunary_pow_exponents,
    schneider_exponent_driven,
    schneider_ledger_csv,
)
from .core import load_digit_file, save_digit_file
from .exponents import build_report, load_report, save_report
from .lattice import (
    NORMS,
    NORM_SUP,
    chain,
    chain_from_entries,
    load_chain_entries,
    oracle_chain,
    save_chain_csv,
)
from .verify import (
    check_chain_bounds,
    check_endlich,
    check_korollar,
    check_lacunary_sandwich,
    check_padicle,
    checks_to_dict,
)

SWEEP_FIELDS = (
    "d",
    "mu_est",
    "mu_times_est",
    "hat_mu_times_est",
    "predicted_mu",
    "predicted_mu_times",
)


def _parse_growth(text: str) -> float:
    if not text.startswith("pow:"):
        raise ValueError(f"unsupported growth spec {text!r}; expected pow:<d>")
    try:
        d = float(text[len("pow:"):])
    except ValueError as exc:
        raise ValueError(f"malformed growth spec {text!r}") from exc
    return d


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed fraction {text!r}") from exc


def _parse_mu_seq(text: str) -> list[Fraction]:
    try:
        return [_parse_fraction(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"malformed exponent sequence {text!r}") from exc


def _parse_grid(text: str) -> list[float]:
    try:
        grid = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"malformed grid {text!r}") from exc
    return grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padiclab",
        description="exact p-adic approximation chains and exponent estimates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build a digit file")
    kinds = construct.add_subparsers(dest="kind", required=True)

    lac = kinds.add_parser("lacunary", help="sparse 0/1 digits with power-law gaps")
    lac.add_argument("--p", type=int, required=True)
    lac.add_argument("--growth", type=str, required=True, help="pow:<d> power-law gaps")
    lac.add_argument("--terms", type=int, default=9)
    lac.add_argument("-o", "--out", type=str, required=True)

    fac = kinds.add_parser("factorial", help="ones at factorial positions")
    fac.add_argument("--p", type=int, required=True)
    fac.add_argument("--terms", type=int, required=True)
    fac.add_argument("-o", "--out", type=str, required=True)

    rule = kinds.add_parser("rule", help="digits from a named rule")
    rule.add_argument("--p", type=int, required=True)
    rule.add_argument("--rule", choices=("thue-morse", "random"), required=True)
    rule.add_argument("--precision", type=int, required=True)
    rule.add_argument("--seed", type=int, default=0)
    rule.add_argument("-o", "--out", type=str, required=True)

    sch = kinds.add_parser("schneider", help="continued-fraction style series")
    sch.add_argument("--p", type=int, required=True)
    sch.add_argument(
        "--mu", type=str, required=True,
        help="comma-separated target exponents (fractions); last one repeats",
    )
    sch.add_argument("--steps", type=int, required=True)
    sch.add_argument("-o", "--out", type=str, required=True)
    sch.add_argument("--ledger", type=str, help="optional convergent ledger CSV")

    sur = kinds.add_parser("surgery", help="digit surgery ratio witness")
    sur.add_argument("--p", type=int, required=True)
    sur.add_argument("--t", type=str, required=True, help="ratio parameter (fraction)")
    sur.add_argument("--mu", type=str, required=True, help="classical target (fraction)")
    sur.add_argument("--spikes", type=int, default=2)
    sur.add_argument("--sigma1", type=int, default=9)
    sur.add_argument("--gap-multiplier", type=int, default=10)
    sur.add_argument("-o", "--out", type=str, required=True)

    approx = sub.add_parser("approx", help="compute a best-approximation chain")
    approx.add_argument("--xi", type=str, required=True)
    approx.add_argument("--norm", choices=NORMS, required=True)
    approx.add_argument(
        "--oracle", type=int, default=None, metavar="BOUND",
        help="rebuild the chain by exhaustive enumeration up to this"
        " sup height (or product)",
    )
    approx.add_argument("-o", "--out", type=str, required=True)

    est = sub.add_parser("estimate", help="estimate exponents from chain CSVs")
    est.add_argument("--chain", type=str, required=True)
    est.add_argument("--p", type=int, required=True)
    est.add_argument("--norm", choices=NORMS, required=True)
    est.add_argument(
        "--chain-sup", type=str, default=None,
        help="optional classical chain CSV to fill mu and hat_mu",
    )
    est.add_argument("-o", "--out", type=str, required=True)

    ver = sub.add_parser("verify", help="run checks on a report")
    ver.add_argument("--report", type=str, required=True)
    ver.add_argument("--tol", type=float, default=0.05)
    ver.add_argument("--lacunary-c", type=float, default=None)
    ver.add_argument("--lacunary-d", type=float, default=None)
    ver.add_argument(
        "--chain", type=str, default=None,
        help="classical chain CSV for the exact height-window and"
        " pair-independence checks",
    )
    ver.add_argument("--p", type=int, default=None)
    ver.add_argument(
        "--exact-checks", action="store_true",
        help="insist on the exact integer chain checks (requires --chain)",
    )
    ver.add_argument(
        "-o", "--out", type=str, default=None,
        help="optional JSON summary of the check results",
    )

    sweep = sub.add_parser("sweep", help="exponent estimates across gap growths")
    sweep.add_argument("--p", type=int, required=True)
    sweep.add_argument("--grid", type=str, required=True, help="comma-separated d values")
    sweep.add_argument("--terms", type=int, default=8)
    sweep.add_argument("-o", "--out", type=str, required=True)

    return parser


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.kind == "lacunary":
        exponents = lacunary_pow_exponents(_parse_growth(args.growth), args.terms)
        xi = build_lacunary(LacunarySpec(p=args.p, exponents=exponents))
    elif args.kind == "factorial":
        xi = build_factorial(args.p, args.terms)
    elif args.kind == "rule":
        xi = build_digit_rule(args.p, args.rule, args.precision, seed=args.seed)
    elif args.kind == "schneider":
        state, xi = schneider_exponent_driven(
            args.p, _parse_mu_seq(args.mu), args.steps
        )
        if args.ledger:
            schneider_ledger_csv(state, args.ledger)
    else:  # surgery
        xi = build_ratio_witness(
            args.p,
            _parse_fraction(args.t),
            _parse_fraction(args.mu),
            sigma1_target=args.sigma1,
            gap_multiplier=args.gap_multiplier,
            num_spikes=args.spikes,
        ).xi
    save_digit_file(xi, args.out)
    print(f"wrote {xi.precision} base-{xi.p} digits to {args.out}")
    return 0


def _cmd_approx(args: argparse.Namespace) -> int:
    xi = load_digit_file(args.xi)
    if args.oracle is None:
        result = chain(xi, args.norm)
    else:
        result = oracle_chain(xi, args.norm, args.oracle)
    save_chain_csv(result, args.out)
    print(f"wrote {len(result.entries)} chain entries to {args.out}")
    if result.censored is not None:
        print(
            f"censoring: a pair with valuation >= {result.censored.val.value} "
            "hit the precision ceiling; the chain stops before it",
            file=sys.stderr,
        )
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    primary = chain_from_entries(args.p, args.norm, load_chain_entries(args.chain))
    chain_sup = primary if args.norm == NORM_SUP else None
    chain_mult = primary if args.norm != NORM_SUP else None
    if args.chain_sup is not None:
        if args.norm == NORM_SUP:
            raise ValueError("--chain-sup only applies when --norm mult")
        chain_sup = chain_from_entries(
            args.p, NORM_SUP, load_chain_entries(args.chain_sup)
        )
    report = build_report(chain_sup, chain_mult)
    save_report(report, args.out)
    print(f"wrote exponent report to {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = load_report(args.report)
    results = check_chain_bounds(report, args.tol)
    results.extend(check_endlich(report, args.tol))
    if (args.lacunary_c is None) != (args.lacunary_d is None):
        raise ValueError("--lacunary-c and --lacunary-d must be given together")
    if args.lacunary_c is not None:
        results.append(
            check_lacunary_sandwich(report, args.lacunary_c, args.lacunary_d, args.tol)
        )
    if args.exact_checks and args.chain is None:
        raise ValueError("--exact-checks requires --chain")
    if args.chain is not None:
        if args.p is None:
            raise ValueError("--chain requires --p")
        entries = load_chain_entries(args.chain)
        sup_chain = chain_from_entries(args.p, NORM_SUP, entries)
        results.append(check_korollar(sup_chain))
        results.append(check_padicle(entries, args.p))
    summary = checks_to_dict(results)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    for item in summary["checks"]:
        state = {True: "pass", False: "FAIL", None: "skip"}[item["passed"]]
        print(f"{item['name']}: {state}")
    return 0 if summary["all_passed"] else 1


def _sweep_row(p: int, d: float, terms: int) -> dict:
    xi = build_lacunary(LacunarySpec(p=p, exponents=lacunary_pow_exponents(d, terms)))
    report = build_report(chain(xi, "sup"), chain(xi, "mult"))
    return {
        "d": d,
        "mu_est": report.mu,
        "mu_times_est": report.mu_times,
        "hat_mu_times_est": report.hat_mu_times,
        "predicted_mu": max(2.0, d),
        "predicted_mu_times": 2 * d,
    }


def _cmd_sweep(args: argparse.Namespace) -> int:
    rows = [_sweep_row(args.p, d, args.terms) for d in _parse_grid(args.grid)]
    with open(args.out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=SWEEP_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "construct": _cmd_construct,
        "approx": _cmd_approx,
        "estimate": _cmd_estimate,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
