"""Acceptance suite: nine end-to-end criteria at stated tolerances.

Each criterion prints exactly one summary line (PASS/FAIL with the
measured quantities and elapsed time) and then asserts.  Expensive
artifacts are built once in module-scoped fixtures and shared between the
criteria that reuse them (the exact property suites run on every chain the
earlier criteria produced).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import pytest

from conftest import seeded_xi
from padiclab import (
    ApproxPair,
    BestApproxChain,
    NORM_MULT,
    NORM_SUP,
    Valuation,
    build_digit_rule,
    build_factorial,
    build_lacunary,
    build_report,
    build_ratio_witness,
    chain,
    check_chain_bounds,
    check_endlich,
    check_korollar,
    check_padicle,
    check_surgery_pointwise,
    cross_check_uniform,
    estimate,
    lacunary_pow_exponents,
    LacunarySpec,
    oracle_chain,
    schneider_exponent_driven,
    schneider_sandwich_report,
)

PRIMES = (2, 3, 5)
SUP_BOUND = 10**4
MULT_BOUND = 10**6
SEEDS_PER_PRIME = 50


_REPORTER = None


@pytest.fixture(autouse=True)
def _live_reporting(request):
    # Route the one-line criterion summaries past output capture so they
    # appear in the terminal / piped log next to each test, not only on
    # failures.
    global _REPORTER
    _REPORTER = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def detail(num: int, ok: bool, text: str) -> str:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {text}"
    print(line)
    if _REPORTER is not None:
        _REPORTER.ensure_newline()
        _REPORTER.write_line(line)
    return line


def entry_key(entry: ApproxPair) -> tuple[int, int, int, bool]:
    return (entry.x, entry.y, entry.val.value, entry.val.is_exact)


def synthetic_pair(x: int, y: int, val: int) -> ApproxPair:
    return ApproxPair(x=x, y=y, val=Valuation.exact(val))


def synthetic_sup_chain(rows: list[tuple[int, int, int]]) -> BestApproxChain:
    return BestApproxChain(2, NORM_SUP, tuple(synthetic_pair(*row) for row in rows))


# ---------------------------------------------------------------------------
# shared artifacts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleRecord:
    p: int
    fast_sup: BestApproxChain
    fast_mult: BestApproxChain
    oracle_sup: BestApproxChain
    oracle_mult: BestApproxChain


@pytest.fixture(scope="module")
def criterion1_bundle() -> tuple[list[OracleRecord], float]:
    start = perf_counter()
    records = []
    for p in PRIMES:
        for seed in range(SEEDS_PER_PRIME):
            xi = seeded_xi(p, 30, 1000 * p + seed)
            records.append(
                OracleRecord(
                    p=p,
                    fast_sup=chain(xi, NORM_SUP),
                    fast_mult=chain(xi, NORM_MULT),
                    oracle_sup=oracle_chain(xi, NORM_SUP, SUP_BOUND),
                    oracle_mult=oracle_chain(xi, NORM_MULT, MULT_BOUND),
                )
            )
    return records, perf_counter() - start


@pytest.fixture(scope="module")
def criterion2_bundle():
    start = perf_counter()
    xi = build_lacunary(LacunarySpec(p=2, exponents=lacunary_pow_exponents(3, 9)))
    chain_sup = chain(xi, NORM_SUP)
    chain_mult = chain(xi, NORM_MULT)
    mu, _ = estimate(chain_sup)
    mu_times, hat_times = estimate(chain_mult)
    report = build_report(chain_sup=chain_sup, chain_mult=chain_mult)
    elapsed = perf_counter() - start
    return chain_sup, chain_mult, report, (mu, mu_times, hat_times), elapsed


@pytest.fixture(scope="module")
def criterion3_bundle():
    start = perf_counter()
    xi = build_factorial(2, 8)
    chain_mult = chain(xi, NORM_MULT)
    _, hat_times = estimate(chain_mult)
    report = build_report(chain_mult=chain_mult)
    elapsed = perf_counter() - start
    return chain_mult, report, hat_times, elapsed


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence(criterion1_bundle):
    records, elapsed = criterion1_bundle
    mismatches = 0
    for rec in records:
        fast_sup = [
            entry_key(e) for e in rec.fast_sup.entries if e.height_sup <= SUP_BOUND
        ]
        fast_mult = [
            entry_key(e)
            for e in rec.fast_mult.entries
            if e.height_mult_sq <= MULT_BOUND
        ]
        if fast_sup != [entry_key(e) for e in rec.oracle_sup.entries]:
            mismatches += 1
        if fast_mult != [entry_key(e) for e in rec.oracle_mult.entries]:
            mismatches += 1
    ok = mismatches == 0 and elapsed < 60.0
    line = detail(
        1,
        ok,
        f"{len(records)} seeded numbers x {{sup,mult}} match the enumeration "
        f"oracle entry-for-entry; mismatches={mismatches}; {elapsed:.1f}s (< 60s)",
    )
    assert ok, line


def test_criterion_2_lacunary_exponents(criterion2_bundle):
    _, _, _, (mu, mu_times, hat_times), elapsed = criterion2_bundle
    ok = (
        2.85 <= mu <= 3.15
        and 5.7 <= mu_times <= 6.3
        and 8 / 3 - 0.1 <= hat_times <= 3.5 + 0.1
        and elapsed < 120.0
    )
    line = detail(
        2,
        ok,
        f"lacunary 3^k: mu={mu:.4f} in [2.85,3.15], mu_times={mu_times:.4f} in "
        f"[5.7,6.3], hat_mu_times={hat_times:.4f} in [{8/3-0.1:.4f},3.6]; "
        f"{elapsed:.1f}s (< 120s)",
    )
    assert ok, line


def test_criterion_3_factorial_uniform_mult(criterion3_bundle):
    _, _, hat_times, elapsed = criterion3_bundle
    ok = 2.75 <= hat_times <= 3.10 and elapsed < 300.0
    line = detail(
        3,
        ok,
        f"factorial terms=8: hat_mu_times={hat_times:.4f} vs window [2.75,3.10]; "
        f"{elapsed:.1f}s (< 300s)",
    )
    assert ok, line


def test_criterion_4_schneider_exact_sandwich():
    start = perf_counter()
    bad = 0
    rows_seen = 0
    for p in (2, 3):
        state, _ = schneider_exponent_driven(p, Fraction(5, 2), 30)
        rows = schneider_sandwich_report(state)
        rows_seen += len(rows)
        bad += sum(1 for row in rows if not (row["lower_ok"] and row["upper_ok"]))
        bad += sum(
            1
            for n in range(1, state.n_last + 1)
            if math.gcd(*state.pair(n)) != 1
        )
    elapsed = perf_counter() - start
    ok = bad == 0 and rows_seen == 60
    line = detail(
        4,
        ok,
        f"Schneider mu=5/2, p in {{2,3}}, 30 steps: {rows_seen} exact sandwich "
        f"rows, violations={bad}, all convergents coprime; {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_5_exact_property_suites(
    criterion1_bundle, criterion2_bundle, criterion3_bundle
):
    records, _ = criterion1_bundle
    chain_sup2, chain_mult2, _, _, _ = criterion2_bundle
    chain_mult3, _, _, _ = criterion3_bundle

    sup_chains = [rec.fast_sup for rec in records]
    sup_chains += [rec.oracle_sup for rec in records]
    sup_chains.append(chain_sup2)
    all_chains = sup_chains + [rec.fast_mult for rec in records]
    all_chains += [rec.oracle_mult for rec in records]
    all_chains += [chain_mult2, chain_mult3]

    window_failures = sum(
        1
        for c in sup_chains
        if len(c.entries) >= 2 and check_korollar(c).passed is not True
    )
    independence_failures = sum(
        1
        for c in all_chains
        if len(c.entries) >= 2 and check_padicle(c.entries, c.p).passed is not True
    )

    # Hand-built violating inputs: the checkers must reject them.
    negatives_ok = (
        check_korollar(synthetic_sup_chain([(1, 1, 4), (3, 1, 5)])).passed is False
        and check_korollar(synthetic_sup_chain([(7, 1, 4), (9, 1, 5)])).passed is False
        and check_padicle([synthetic_pair(3, 1, 7), synthetic_pair(4, 1, 8)], 2).passed
        is False
    )
    ok = window_failures == 0 and independence_failures == 0 and negatives_ok
    line = detail(
        5,
        ok,
        f"exact suites on {len(all_chains)} chains from criteria 1-3: "
        f"height-window failures={window_failures}, pair-independence "
        f"failures={independence_failures}, negative fixtures rejected={negatives_ok}",
    )
    assert ok, line


def test_criterion_6_report_inequalities(criterion2_bundle, criterion3_bundle):
    _, _, report2, _, _ = criterion2_bundle
    _, report3, _, _ = criterion3_bundle
    failures = []
    for label, report in (("lacunary", report2), ("factorial", report3)):
        for result in check_chain_bounds(report, 0.05) + check_endlich(report, 0.05):
            if result.passed is False:
                failures.append(f"{label}:{result.name}")
    ok = not failures
    line = detail(
        6,
        ok,
        "chain-bound and finiteness checks at tol 0.05 on both reports: "
        + ("all pass" if ok else f"failures={failures}"),
    )
    assert ok, line


def test_criterion_7_digit_surgery_pointwise():
    start = perf_counter()
    witness = build_ratio_witness(2, Fraction(3, 2), Fraction(6))
    results = check_surgery_pointwise(witness, tol=0.10)
    elapsed = perf_counter() - start
    exponents = [round(r.inputs["exponent"], 4) for r in results]
    ok = (
        witness.zeta.precision >= 10**5
        and all(r.passed for r in results)
        and elapsed < 600.0
    )
    line = detail(
        7,
        ok,
        f"surgery t=3/2 mu=6 on source precision {witness.zeta.precision}: "
        f"pointwise exponents {exponents} within 10% of (6, 9); "
        "the designed pairs imply (mu, mu_times) = (t*mu, 2*mu) = (9, 12), "
        f"ratio 2/t = 4/3; {elapsed:.1f}s (< 600s)",
    )
    assert ok, line


def test_criterion_8_thue_morse():
    start = perf_counter()
    xi = build_digit_rule(2, "thue-morse", 4096)
    mu, _ = estimate(chain(xi, NORM_SUP))
    mu_times, _ = estimate(chain(xi, NORM_MULT))
    elapsed = perf_counter() - start
    ok = 1.9 <= mu <= 2.2 and mu_times >= 2.8 and elapsed < 120.0
    line = detail(
        8,
        ok,
        f"Thue-Morse 4096 digits: mu={mu:.4f} in [1.9,2.2], "
        f"mu_times={mu_times:.4f} >= 2.8; {elapsed:.1f}s (< 120s)",
    )
    assert ok, line


def test_criterion_9_uniform_cross_check():
    start = perf_counter()
    precisions = {2: 18, 3: 12, 5: 10}
    checked = 0
    bad = 0
    worst = 0.0
    for seed in range(10):
        p = PRIMES[seed % len(PRIMES)]
        xi = seeded_xi(p, precisions[p], 500 + seed)
        for norm in (NORM_SUP, NORM_MULT):
            for record in cross_check_uniform(xi, chain(xi, norm), samples=5):
                checked += 1
                worst = max(worst, record["discrepancy"])
                if not record["ok"] or record["discrepancy"] > 1e-9:
                    bad += 1
    elapsed = perf_counter() - start
    ok = checked > 0 and bad == 0 and elapsed < 60.0
    line = detail(
        9,
        ok,
        f"formula vs enumeration uniform minima: {checked} sampled boxes on 10 "
        f"random numbers, disagreements={bad}, worst discrepancy={worst:.2e}; "
        f"{elapsed:.1f}s (< 60s)",
    )
    assert ok, line
