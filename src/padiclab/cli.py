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


def _parse_exponents(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed exponent list {text!r}") from exc


def _parse_growth(text: str) -> float:
    if not text.startswith("pow:"):
        raise ValueError(f"unsupported growth spec {text!r}; expected pow:<d>")
    try:
        d = float(text[len("pow:"):])
    except ValueError as exc:
        raise ValueError(f"malformed growth spec {text!r}") from exc
    if d <= 1.0:
        raise ValueError(f"growth base must exceed 1, got {d}")
    return d


def _parse_mu_seq(text: str) -> list[Fraction]:
    try:
        values = [Fraction(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed exponent sequence {text!r}") from exc
    if not values:
        raise ValueError("empty exponent sequence")
    return values


def _parse_grid(text: str) -> list[float]:
    try:
        grid = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"malformed grid {text!r}") from exc
    if not grid:
        raise ValueError("empty grid")
    return grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padiclab",
        description="exact p-adic approximation chains and exponent estimates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build a digit file")
    kinds = construct.add_subparsers(dest="kind", required=True)

    lac = kinds.add_parser("lacunary", help="sparse 0/1 digits at given exponents")
    lac.add_argument("--p", type=int, required=True)
    group = lac.add_mutually_exclusive_group(required=True)
    group.add_argument("--exponents", type=str)
    group.add_argument("--growth", type=str, help="pow:<d> power-law gaps")
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
    approx.add_argument("--xi", "--input", dest="xi", type=str, required=True)
    approx.add_argument("--norm", choices=NORMS, required=True)
    approx.add_argument("--max-level", type=int, default=None)
    approx.add_argument(
        "--oracle", action="store_true",
        help="rebuild the chain by exhaustive enumeration (needs --height-bound)",
    )
    approx.add_argument(
        "--height-bound", type=int, default=None,
        help="sup-height (or product) cap for --oracle",
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
    est.add_argument("--burn-in", type=float, default=0.2)
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
        "--checks", type=str, default="all",
        help="comma-separated check names to keep (default: all)",
    )
    ver.add_argument(
        "--exact-checks", action="store_true",
        help="insist on the exact integer chain checks (requires --chain)",
    )
    ver.add_argument(
        "-o", "--out", type=str, default=None,
        help="optional JSON summary of the check results",
    )

    sweep = sub.add_parser("sweep", help="exponent estimates across gap growths")
    sweep.add_argument("--family", choices=("lacunary",), default="lacunary")
    sweep.add_argument("--p", type=int, required=True)
    grid = sweep.add_mutually_exclusive_group(required=True)
    grid.add_argument("--grid", type=str, help="comma-separated d values")
    grid.add_argument("--d-from", type=float, default=None)
    sweep.add_argument("--d-to", type=float, default=None)
    sweep.add_argument("--d-step", type=float, default=0.5)
    sweep.add_argument("--terms", type=int, default=8)
    sweep.add_argument("--burn-in", type=float, default=0.2)
    sweep.add_argument("-o", "--out", type=str, required=True)

    return parser


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.kind == "lacunary":
        if args.exponents is not None:
            exponents = _parse_exponents(args.exponents)
        else:
            d = _parse_growth(args.growth)
            exponents = lacunary_pow_exponents(d, args.terms)
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
    elif args.kind == "surgery":
        witness = build_ratio_witness(
            args.p,
            Fraction(args.t),
            Fraction(args.mu),
            sigma1_target=args.sigma1,
            gap_multiplier=args.gap_multiplier,
            num_spikes=args.spikes,
        )
        xi = witness.xi
    else:  # pragma: no cover - argparse enforces choices
        raise ValueError(f"unknown construct kind {args.kind!r}")
    save_digit_file(xi, args.out)
    print(f"wrote {xi.precision} base-{xi.p} digits to {args.out}")
    return 0


def _cmd_approx(args: argparse.Namespace) -> int:
    xi = load_digit_file(args.xi)
    if args.oracle:
        if args.height_bound is None:
            raise ValueError("--oracle requires --height-bound")
        if args.max_level is not None:
            raise ValueError("--max-level does not apply to --oracle")
        result = oracle_chain(xi, args.norm, args.height_bound)
    else:
        if args.height_bound is not None:
            raise ValueError("--height-bound requires --oracle")
        result = chain(xi, args.norm, args.max_level)
    save_chain_csv(result, args.out)
    print(f"wrote {len(result.entries)} chain entries to {args.out}")
    if result.precision_limited:
        print(
            f"censoring: a pair with valuation >= {result.precision_ceiling} "
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
    report = build_report(chain_sup, chain_mult, burn_in=args.burn_in)
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
    if args.checks != "all":
        wanted = {name.strip() for name in args.checks.split(",") if name.strip()}
        known = {r.name for r in results}
        unknown = wanted - known
        if unknown:
            raise ValueError(f"unknown checks requested: {sorted(unknown)}")
        results = [r for r in results if r.name in wanted]
    summary = checks_to_dict(results)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    for item in summary["checks"]:
        state = {True: "pass", False: "FAIL", None: "skip"}[item["passed"]]
        print(f"{item['name']}: {state}")
    return 0 if summary["all_passed"] else 1


def _sweep_row(p: int, d: float, terms: int, burn_in: float) -> dict:
    xi = build_lacunary(LacunarySpec(p=p, exponents=lacunary_pow_exponents(d, terms)))
    report = build_report(
        chain(xi, "sup"), chain(xi, "mult"), burn_in=burn_in
    )
    return {
        "d": d,
        "mu_est": report.mu,
        "mu_times_est": report.mu_times,
        "hat_mu_times_est": report.hat_mu_times,
        "predicted_mu": d,
        "predicted_mu_times": 2 * d,
    }


def _sweep_grid(args: argparse.Namespace) -> list[float]:
    if args.grid is not None:
        return _parse_grid(args.grid)
    if args.d_to is None:
        raise ValueError("--d-from requires --d-to")
    if args.d_step <= 0:
        raise ValueError(f"--d-step must be positive, got {args.d_step}")
    if args.d_to < args.d_from:
        raise ValueError("--d-to must be at least --d-from")
    grid = []
    k = 0
    while (d := args.d_from + k * args.d_step) <= args.d_to + 1e-9:
        grid.append(round(d, 12))
        k += 1
    return grid


def _cmd_sweep(args: argparse.Namespace) -> int:
    grid = _sweep_grid(args)
    rows = [_sweep_row(args.p, d, args.terms, args.burn_in) for d in grid]
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
