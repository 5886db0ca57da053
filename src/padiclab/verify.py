"""Numerical and exact checks on chains, reports and surgery witnesses.

Every check returns :class:`CheckResult` records.  ``passed`` is ``None``
when a check is skipped (missing estimate, undefined bound), ``margin`` is
the untoleranced slack of the tightest instance (positive means satisfied
with room), and ``inputs`` records small scalars that identify the
tightest instance.  Inequality checks on exponent estimates use a float
tolerance, which must be finite and nonnegative; the two finite structural
checks (pair independence and the successive-height window) compare exact
integers.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

from .core import ApproxPair, pval
from .exponents import ExponentReport
from .lattice import NORM_SUP, BestApproxChain, Scalings

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


def _require_tol(tol: float) -> None:
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")


def _at_most(
    name: str, value: float, bound: float, tol: float, inputs: dict
) -> CheckResult:
    """value <= bound within tol; the margin is the untoleranced slack."""
    return CheckResult(name, value <= bound + tol, bound - value, inputs)


def _at_least(
    name: str, value: float, bound: float, tol: float, inputs: dict
) -> CheckResult:
    """value >= bound within tol; the margin is the untoleranced slack."""
    return CheckResult(name, value >= bound - tol, value - bound, inputs)


def check_chain_bounds(report: ExponentReport, tol: float = 0.05) -> list[CheckResult]:
    """Universal exponent inequalities every report must satisfy.

    mu >= 2, mu <= mu_times <= 2 mu, hat_mu = 2 (within tol) and
    hat_mu_times <= 4.  Checks whose inputs are missing are skipped.
    """
    _require_tol(tol)
    results: list[CheckResult] = []
    mu, mu_x = report.mu, report.mu_times
    hat, hat_x = report.hat_mu, report.hat_mu_times

    if mu is None:
        results.append(_skip("mu_lower", "no classical estimate"))
    else:
        results.append(_at_least("mu_lower", mu, 2.0, tol, {"mu": mu}))
    if mu is None or mu_x is None:
        results.append(_skip("chain_order", "needs both norms"))
        results.append(_skip("chain_upper", "needs both norms"))
    else:
        both = {"mu": mu, "mu_times": mu_x}
        results.append(_at_least("chain_order", mu_x, mu, tol, both))
        results.append(_at_most("chain_upper", mu_x, 2 * mu, tol, dict(both)))
    if hat is None:
        results.append(_skip("hat_mu_value", "no classical estimate"))
    else:
        off = abs(hat - 2.0)
        results.append(CheckResult("hat_mu_value", off <= tol, -off, {"hat_mu": hat}))
    if hat_x is None:
        results.append(_skip("hat_mu_times_upper", "no multiplicative estimate"))
    else:
        results.append(
            _at_most("hat_mu_times_upper", hat_x, 4.0, tol, {"hat_mu_times": hat_x})
        )
    return results


def check_endlich(report: ExponentReport, tol: float = 0.05) -> list[CheckResult]:
    """Relations between the multiplicative exponents.

    hat_mu_times <= 3 + 2/(mu_times - 2)  (skipped when mu_times <= 2),
    mu_times >= hat_mu_times^2 - 3 hat_mu_times + 3, and
    hat_mu_times <= (5 + sqrt 5)/2.
    """
    _require_tol(tol)
    names = ("uniform_from_pointwise", "pointwise_from_uniform", "uniform_golden_bound")
    mu_x, hat_x = report.mu_times, report.hat_mu_times
    if mu_x is None or hat_x is None:
        return [_skip(name, "needs multiplicative estimates") for name in names]
    both = {"mu_times": mu_x, "hat_mu_times": hat_x}
    if mu_x <= 2.0:
        results = [_skip(names[0], "bound undefined for mu_times <= 2")]
    else:
        bound = 3.0 + 2.0 / (mu_x - 2.0)
        results = [_at_most(names[0], hat_x, bound, tol, {**both, "bound": bound})]
    floor = hat_x * hat_x - 3.0 * hat_x + 3.0
    results.append(_at_least(names[1], mu_x, floor, tol, {**both, "bound": floor}))
    golden = {"hat_mu_times": hat_x, "bound": GOLDEN_UNIFORM_BOUND}
    results.append(_at_most(names[2], hat_x, GOLDEN_UNIFORM_BOUND, tol, golden))
    return results


def check_lacunary_sandwich(
    report: ExponentReport, c: float, d: float, tol: float = 0.05
) -> CheckResult:
    """Window for hat_mu_times of a lacunary number with gap ratios in [c, d].

    Expected: 3 - 1/c <= hat_mu_times <= 3 + 1/(d - 1), requiring d > 1.
    """
    _require_tol(tol)
    if not 0 < c < math.inf or not 1 < d < math.inf:
        raise ValueError(
            f"gap ratios must be finite with c > 0 and d > 1, got {c}, {d}"
        )
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

    Exact integers must satisfy 2 X_1 X_2 >= p^{min(v_1, v_2)} for linearly
    independent pairs with sup heights X_i and valuations v_i: their
    determinant is a nonzero multiple of p^{min(v_1, v_2)} and at most
    2 X_1 X_2.  So any pairs whose valuations match their coordinates
    pass, and the check catches only a wrong p or corrupted valuations.

    A pair is judged through its lower-valuation member, whose slack only
    grows with the partner's height, so each pair's lightest independent
    partner among those of at least its valuation stands for all the
    others.  One scan by decreasing valuation finds and scores every such
    partner.  The least (slack, (i, j)) gives the verdict, margin and
    tightest pair of comparing every pair (lighter partners sort first on
    ties), in at most n - 1 probes for n pairs.  The indices i < j of
    ``inputs["tightest"]`` count the pairs sorted by (sup height,
    valuation), not in their input order.
    """
    if len(pairs) < 2:
        return _skip("pair_independence", "fewer than two pairs")
    ordered = sorted(pairs, key=lambda pr: (pr.height_sup, pr.val.value))
    log_p = math.log(p)
    passed = True
    worst: tuple[float, tuple[int, int]] | None = None
    # Visit pairs by decreasing valuation, keeping those seen in height
    # order; the first independent one seen is the lightest partner, and it
    # is at least as deep.
    seen: list[int] = []
    for i in sorted(range(len(ordered)), key=lambda k: -ordered[k].val.value):
        a = ordered[i]
        for j in seen:
            if _independent(a, ordered[j]):
                boxed = 2 * a.height_sup * ordered[j].height_sup
                if boxed < p**a.val.value:
                    passed = False
                slack = math.log(boxed) / log_p - a.val.value
                probe = (slack, (min(i, j), max(i, j)))
                worst = probe if worst is None else min(worst, probe)
                break
        bisect.insort(seen, i)
    inputs: dict = {"pairs": len(ordered)}
    margin = None
    if worst is not None:
        margin, inputs["tightest"] = worst
    return CheckResult("pair_independence", passed, margin, inputs)


def check_korollar(chain: BestApproxChain) -> CheckResult:
    """Successive classical heights obey the exact two-sided window.

    Lower side: successive records are independent coprime pairs whose
    determinant is a nonzero multiple of p^{v_k}, so p^{v_k} <= 2 H_k
    H_{k+1}.  As for pair independence, any pairs whose valuations match
    their coordinates pass, so this side catches only a wrong p or
    corrupted valuations.  Upper side: the box of entry k already
    certifies the valuation V_k that :class:`Scalings` reads off p-power
    scalings of earlier entries and of the axis pairs (0, p^m) (whose
    valuation floor, the p-part of the number itself, is read off the
    entries as max_j min(v_p(x_j), v_j)); a box pigeonhole then forces
    H_k H_{k+1} <= (p+1) p^{V_k}.  Coprime records can sit far above the
    raw-valuation floor when every short lattice vector is a scaling of an
    earlier record, so the upper side genuinely needs V_k.  Both sides are
    compared as exact integers.
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
    # chain valuations outgrow it.  Scalings start from that height-1 pair.
    xi_val = max(min(pval(e.x, p), e.val.value) for e in chain.entries)
    scalings = Scalings(p, xi_val)
    for k in range(len(chain.entries) - 1):
        a, b = chain.entries[k], chain.entries[k + 1]
        scalings.admit(a.height_sup, a.val.value)
        certified = scalings.reach(a.height_sup)
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
    _require_tol(tol)
    log_p = math.log(witness.p)
    # (name prefix, pairs, target, exponent scale, height, censoring message)
    families = (
        ("surgery_classical", witness.truncation_pairs, float(witness.mu), 1,
         "height_sup", "censored valuation in a truncation witness"),
        ("surgery_mult", witness.spike_pairs, float(witness.t * witness.mu), 2,
         "height_mult_sq", "censored valuation in a transplanted witness"),
    )
    results = []
    for prefix, pairs, target, scale, height, censored in families:
        for j, pair in enumerate(pairs):
            if not pair.val.is_exact:
                raise ValueError(censored)
            exponent = scale * pair.val.value * log_p / math.log(getattr(pair, height))
            rel = abs(exponent - target) / target
            inputs = {"exponent": exponent, "target": target}
            results.append(CheckResult(f"{prefix}_{j}", rel <= tol, tol - rel, inputs))
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
