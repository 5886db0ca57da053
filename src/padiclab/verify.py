"""Numerical and exact checks on chains, reports and surgery witnesses.

Every check returns :class:`CheckResult` records.  ``passed`` is ``None``
when a check is skipped (missing estimate, undefined bound), ``margin`` is
the untoleranced slack of the tightest instance (positive means satisfied
with room), and ``inputs`` records small scalars that identify the
tightest instance.  Inequality checks on exponent estimates use a float
tolerance; the two finite structural checks (pair independence and the
successive-height window) compare exact integers.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

from .core import ApproxPair, ilog, pval
from .exponents import ExponentReport
from .lattice import NORM_SUP, BestApproxChain

GOLDEN_UNIFORM_BOUND = (5.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool | None
    margin: float | None
    inputs: dict
    note: str = ""


def _skip(name: str, note: str) -> CheckResult:
    return CheckResult(name=name, passed=None, margin=None, inputs={}, note=note)


def check_chain_bounds(report: ExponentReport, tol: float = 0.05) -> list[CheckResult]:
    """Universal exponent inequalities every report must satisfy.

    mu >= 2, mu <= mu_times <= 2 mu, hat_mu = 2 (within tol) and
    hat_mu_times <= 4.  Checks whose inputs are missing are skipped.
    """
    results: list[CheckResult] = []
    mu, mu_x = report.mu, report.mu_times
    hat, hat_x = report.hat_mu, report.hat_mu_times

    if mu is None:
        results.append(_skip("mu_lower", "no classical estimate"))
    else:
        results.append(
            CheckResult("mu_lower", mu >= 2 - tol, mu - 2.0, {"mu": mu})
        )
    if mu is None or mu_x is None:
        results.append(_skip("chain_order", "needs both norms"))
        results.append(_skip("chain_upper", "needs both norms"))
    else:
        results.append(
            CheckResult(
                "chain_order",
                mu_x >= mu - tol,
                mu_x - mu,
                {"mu": mu, "mu_times": mu_x},
            )
        )
        results.append(
            CheckResult(
                "chain_upper",
                mu_x <= 2 * mu + tol,
                2 * mu - mu_x,
                {"mu": mu, "mu_times": mu_x},
            )
        )
    if hat is None:
        results.append(_skip("hat_mu_value", "no classical estimate"))
    else:
        results.append(
            CheckResult(
                "hat_mu_value",
                abs(hat - 2.0) <= tol,
                -abs(hat - 2.0),
                {"hat_mu": hat},
            )
        )
    if hat_x is None:
        results.append(_skip("hat_mu_times_upper", "no multiplicative estimate"))
    else:
        results.append(
            CheckResult(
                "hat_mu_times_upper",
                hat_x <= 4.0 + tol,
                4.0 - hat_x,
                {"hat_mu_times": hat_x},
            )
        )
    return results


def check_endlich(report: ExponentReport, tol: float = 0.05) -> list[CheckResult]:
    """Relations between the multiplicative exponents.

    hat_mu_times <= 3 + 2/(mu_times - 2)  (skipped when mu_times <= 2),
    mu_times >= hat_mu_times^2 - 3 hat_mu_times + 3, and
    hat_mu_times <= (5 + sqrt 5)/2.
    """
    mu_x, hat_x = report.mu_times, report.hat_mu_times
    if mu_x is None or hat_x is None:
        return [_skip("uniform_from_pointwise", "needs multiplicative estimates"),
                _skip("pointwise_from_uniform", "needs multiplicative estimates"),
                _skip("uniform_golden_bound", "needs multiplicative estimates")]
    results = []
    if mu_x <= 2.0:
        results.append(
            _skip("uniform_from_pointwise", "bound undefined for mu_times <= 2")
        )
    else:
        bound = 3.0 + 2.0 / (mu_x - 2.0)
        results.append(
            CheckResult(
                "uniform_from_pointwise",
                hat_x <= bound + tol,
                bound - hat_x,
                {"mu_times": mu_x, "hat_mu_times": hat_x, "bound": bound},
            )
        )
    floor = hat_x * hat_x - 3.0 * hat_x + 3.0
    results.append(
        CheckResult(
            "pointwise_from_uniform",
            mu_x >= floor - tol,
            mu_x - floor,
            {"mu_times": mu_x, "hat_mu_times": hat_x, "bound": floor},
        )
    )
    results.append(
        CheckResult(
            "uniform_golden_bound",
            hat_x <= GOLDEN_UNIFORM_BOUND + tol,
            GOLDEN_UNIFORM_BOUND - hat_x,
            {"hat_mu_times": hat_x, "bound": GOLDEN_UNIFORM_BOUND},
        )
    )
    return results


def check_lacunary_sandwich(
    report: ExponentReport, c: float, d: float, tol: float = 0.05
) -> CheckResult:
    """Window for hat_mu_times of a lacunary number with gap ratios in [c, d].

    Expected: 3 - 1/c <= hat_mu_times <= 3 + 1/(d - 1), requiring d > 1.
    """
    if not c > 0 or not d > 1:
        raise ValueError(f"gap ratios must satisfy c > 0 and d > 1, got {c}, {d}")
    hat_x = report.hat_mu_times
    if hat_x is None:
        return _skip("lacunary_sandwich", "no multiplicative estimate")
    lower = 3.0 - 1.0 / c
    upper = 3.0 + 1.0 / (d - 1.0)
    margin = min(hat_x - lower, upper - hat_x)
    return CheckResult(
        "lacunary_sandwich",
        lower - tol <= hat_x <= upper + tol,
        margin,
        {
            "c": c,
            "d": d,
            "lower": lower,
            "upper": upper,
            "hat_mu_times": hat_x,
            "gap_above_lower": hat_x - lower,
        },
    )


def _independent(a: ApproxPair, b: ApproxPair) -> bool:
    return a.x * b.y != b.x * a.y


def check_padicle(pairs: Sequence[ApproxPair], p: int) -> CheckResult:
    """No two independent pairs may both sit below the half-box threshold.

    For linearly independent pairs with sup heights X_1, X_2 and valuations
    v_1, v_2 it is impossible that p^{-v_i} < 1/(2 X_1 X_2) for both, i.e.
    exact integers must satisfy 2 X_1 X_2 >= p^{min(v_1, v_2)}.  A pair is
    judged through its lower-valuation member, whose slack only grows with
    the partner's height.  So each pair's lightest independent partner among
    those of at least its valuation stands for all the others: it fails
    whenever one of them does, its slack is no larger, and on ties it comes
    first in the all-pairs scan order (lighter partners sort first).  One
    scan by decreasing valuation finds every such partner; probing them in
    all-pairs order gives the verdict, margin and tightest pair of comparing
    every pair, in at most n - 1 probes for n pairs.
    """
    if len(pairs) < 2:
        return _skip("pair_independence", "fewer than two pairs")
    ordered = sorted(pairs, key=lambda pr: (pr.height_sup, pr.val.value))
    # Visit pairs by decreasing valuation, keeping those seen in height
    # order; the first independent one seen is the lightest partner.
    seen: list[int] = []
    candidates: set[tuple[int, int]] = set()
    for i in sorted(range(len(ordered)), key=lambda k: -ordered[k].val.value):
        for j in seen:
            if _independent(ordered[i], ordered[j]):
                candidates.add((min(i, j), max(i, j)))
                break
        bisect.insort(seen, i)
    log_p = math.log(p)
    worst: float | None = None
    worst_at: tuple[int, int] | None = None
    passed = True
    for i, j in sorted(candidates):
        a, b = ordered[i], ordered[j]
        min_val = min(a.val.value, b.val.value)
        boxed = 2 * a.height_sup * b.height_sup
        if boxed < p**min_val:
            passed = False
        slack = math.log(boxed) / log_p - min_val
        if worst is None or slack < worst:
            worst = slack
            worst_at = (i, j)
    inputs: dict = {"pairs": len(ordered)}
    if worst_at is not None:
        inputs["tightest"] = worst_at
    return CheckResult("pair_independence", passed, worst, inputs)


def check_korollar(chain: BestApproxChain) -> CheckResult:
    """Successive classical heights obey the exact two-sided window.

    Lower side: successive records are independent coprime pairs whose
    determinant is a nonzero multiple of p^{v_k}, so p^{v_k} <= 2 H_k
    H_{k+1} with the record's own valuation.  Upper side: the box of entry
    k already certifies the valuation V_k reachable by p-power scalings of
    earlier entries and by the axis pairs (0, p^m) (whose valuation floor,
    the p-part of the number itself, is read off the entries as max_j
    min(v_p(x_j), v_j)); a box pigeonhole then forces H_k H_{k+1} <= (p+1)
    p^{V_k}.  Coprime records can sit far above the raw-valuation floor
    when every short lattice vector is a scaling of an earlier record, so
    the upper side genuinely needs V_k.  Both sides are compared as exact
    integers.
    """
    if chain.norm != NORM_SUP:
        raise ValueError("the height window applies to classical chains")
    if len(chain.entries) < 2:
        return _skip("height_window", "fewer than two entries")
    p = chain.p
    log_p = math.log(p)
    passed = True
    worst: float | None = None
    worst_k: int | None = None
    for e in chain.entries:
        if not e.val.is_exact:
            raise ValueError("censored valuation inside a chain")
    # Axis certificate: (0, p^m) has height p^m and valuation v_p(xi) + m;
    # entries bound v_p(xi) from below by min(v_p(x), v), exactly once the
    # chain valuations outgrow it.
    xi_val = max(min(pval(e.x, p), e.val.value) for e in chain.entries)
    # Best certificate seen so far (virtual height-1 axis entry included):
    # the candidate minimising H / p^v.  Multiplying a pair by p^m adds m
    # to the valuation and multiplies the height by p^m, so inside the box
    # H_k the best candidate reaches v + ilog(H_k // H, p).
    cert_h, cert_v = 1, xi_val
    for k in range(len(chain.entries) - 1):
        a, b = chain.entries[k], chain.entries[k + 1]
        if a.height_sup * p**cert_v < cert_h * p ** a.val.value:
            cert_h, cert_v = a.height_sup, a.val.value
        certified = cert_v + ilog(a.height_sup // cert_h, p)
        power = p**certified
        boxed = a.height_sup * b.height_sup
        if not (p ** a.val.value <= 2 * boxed and boxed <= (p + 1) * power):
            passed = False
        slack = min(
            math.log(2 * boxed) / log_p - a.val.value,
            certified + math.log(p + 1) / log_p - math.log(boxed) / log_p,
        )
        if worst is None or slack < worst:
            worst = slack
            worst_k = k
    return CheckResult(
        "height_window",
        passed,
        worst,
        {"pairs": len(chain.entries) - 1, "tightest_k": worst_k},
    )


def check_surgery_pointwise(witness, tol: float = 0.1) -> list[CheckResult]:
    """Measured exponents of a ratio witness against its design targets.

    Truncation pairs must approximate with classical exponent close to the
    design ``mu``; transplanted pairs must reach multiplicative exponent
    close to ``t * mu`` (both within relative tolerance ``tol``).
    """
    log_p = math.log(witness.p)
    mu_target = float(witness.mu)
    mult_target = float(witness.t * witness.mu)
    results = []
    for j, pair in enumerate(witness.truncation_pairs):
        if not pair.val.is_exact:
            raise ValueError("censored valuation in a truncation witness")
        exponent = pair.val.value * log_p / math.log(pair.height_sup)
        rel = abs(exponent - mu_target) / mu_target
        results.append(
            CheckResult(
                f"surgery_classical_{j}",
                rel <= tol,
                tol - rel,
                {"exponent": exponent, "target": mu_target},
            )
        )
    for j, pair in enumerate(witness.spike_pairs):
        if not pair.val.is_exact:
            raise ValueError("censored valuation in a transplanted witness")
        exponent = 2 * pair.val.value * log_p / math.log(pair.height_mult_sq)
        rel = abs(exponent - mult_target) / mult_target
        results.append(
            CheckResult(
                f"surgery_mult_{j}",
                rel <= tol,
                tol - rel,
                {"exponent": exponent, "target": mult_target},
            )
        )
    return results


def checks_to_dict(results: Sequence[CheckResult]) -> dict:
    """JSON-ready summary; ``all_passed`` ignores skipped checks."""
    return {
        "all_passed": all(r.passed is not False for r in results),
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "margin": r.margin,
                "inputs": r.inputs,
                "note": r.note,
            }
            for r in results
        ],
    }
