"""Checks on reports, chains, pair families, and surgery witnesses."""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from padiclab import (
    GOLDEN_UNIFORM_BOUND,
    NORM_MULT,
    NORM_SUP,
    ApproxPair,
    BestApproxChain,
    ExponentReport,
    Valuation,
    build_report,
    chain,
    check_chain_bounds,
    check_endlich,
    check_korollar,
    check_lacunary_sandwich,
    check_padicle,
    check_surgery_pointwise,
    checks_to_dict,
)
from conftest import seeded_xi


def fake_report(**kwargs):
    fields = dict(
        mu=None,
        mu_times=None,
        hat_mu=None,
        hat_mu_times=None,
        precision_limited=False,
    )
    fields.update(kwargs)
    return ExponentReport(**fields)


def pair(x, y, val, exact=True):
    return ApproxPair(
        x=x,
        y=y,
        val=Valuation.exact(val) if exact else Valuation.at_least(val),
    )


def synthetic_chain(norm, pairs, p=2):
    return BestApproxChain(p, norm, tuple(pairs))


def by_name(results):
    return {r.name: r for r in results}


# ---------------------------------------------------------------------------
# universal chain bounds
# ---------------------------------------------------------------------------


def test_chain_bounds_all_pass():
    report = fake_report(mu=2.1, mu_times=3.0, hat_mu=2.01, hat_mu_times=2.3)
    results = by_name(check_chain_bounds(report))
    assert all(r.passed for r in results.values())
    assert results["mu_lower"].margin == pytest.approx(0.1)
    assert results["chain_upper"].margin == pytest.approx(1.2)


def test_chain_bounds_violations():
    report = fake_report(mu=1.5, mu_times=5.0, hat_mu=2.2, hat_mu_times=4.2)
    results = by_name(check_chain_bounds(report))
    assert results["mu_lower"].passed is False
    assert results["chain_order"].passed is True
    assert results["chain_upper"].passed is False  # 5.0 > 2 * 1.5
    assert results["hat_mu_value"].passed is False
    assert results["hat_mu_times_upper"].passed is False
    assert not checks_to_dict(list(results.values()))["all_passed"]


def test_chain_bounds_skips_missing_estimates():
    results = by_name(check_chain_bounds(fake_report(hat_mu_times=2.5)))
    assert results["mu_lower"].passed is None
    assert results["chain_order"].passed is None
    assert results["chain_upper"].passed is None
    assert results["hat_mu_value"].passed is None
    assert results["hat_mu_times_upper"].passed is True
    # Skipped checks do not break the aggregate verdict.
    assert checks_to_dict(list(results.values()))["all_passed"]


def test_chain_bounds_on_real_chains(lacunary_chain_sup, lacunary_chain_mult):
    report = build_report(lacunary_chain_sup, lacunary_chain_mult)
    results = check_chain_bounds(report)
    assert checks_to_dict(results)["all_passed"]


# ---------------------------------------------------------------------------
# multiplicative exponent relations
# ---------------------------------------------------------------------------


def test_endlich_passes_on_wide_gap():
    report = fake_report(mu_times=6.0, hat_mu_times=2.57)
    results = by_name(check_endlich(report))
    assert results["uniform_from_pointwise"].passed is True
    assert results["pointwise_from_uniform"].passed is True
    assert results["uniform_golden_bound"].passed is True
    assert results["uniform_from_pointwise"].inputs["bound"] == pytest.approx(3.5)


def test_endlich_detects_impossible_combination():
    # A uniform estimate of 3 forces a pointwise estimate of at least 3.
    report = fake_report(mu_times=2.5, hat_mu_times=3.0)
    results = by_name(check_endlich(report))
    assert results["pointwise_from_uniform"].passed is False
    assert results["uniform_golden_bound"].passed is True


def test_endlich_golden_bound_violation():
    report = fake_report(mu_times=30.0, hat_mu_times=3.7)
    results = by_name(check_endlich(report))
    assert results["uniform_golden_bound"].passed is False


def test_endlich_skips_when_bound_undefined():
    results = by_name(check_endlich(fake_report(mu_times=2.0, hat_mu_times=2.9)))
    assert results["uniform_from_pointwise"].passed is None
    assert results["pointwise_from_uniform"].passed is not None


def test_endlich_skips_without_estimates():
    results = check_endlich(fake_report())
    assert len(results) == 3
    assert all(r.passed is None for r in results)


def test_endlich_on_factorial_chain(factorial_chain_mult):
    report = build_report(chain_mult=factorial_chain_mult)
    assert checks_to_dict(check_endlich(report))["all_passed"]


def test_golden_bound_value():
    assert GOLDEN_UNIFORM_BOUND == pytest.approx((5 + math.sqrt(5)) / 2)


# ---------------------------------------------------------------------------
# every check at its boundary
# ---------------------------------------------------------------------------

# One-sided check: (report fields around the checked value, its bound, +1
# for an upper bound and -1 for a lower one).  Each bound is exact in floats:
# 2 mu = 6, 3 + 2/(4 - 2) = 4 and 2.5^2 - 3 * 2.5 + 3 = 1.75.
ONE_SIDED = {
    "mu_lower": (lambda v: {"mu": v}, 2.0, -1),
    "chain_order": (lambda v: {"mu": 3.0, "mu_times": v}, 3.0, -1),
    "chain_upper": (lambda v: {"mu": 3.0, "mu_times": v}, 6.0, 1),
    "hat_mu_times_upper": (lambda v: {"hat_mu_times": v}, 4.0, 1),
    "uniform_from_pointwise": (lambda v: {"mu_times": 4.0, "hat_mu_times": v}, 4.0, 1),
    "pointwise_from_uniform": (lambda v: {"mu_times": v, "hat_mu_times": 2.5}, 1.75, -1),
    "uniform_golden_bound": (
        lambda v: {"mu_times": 1.0, "hat_mu_times": v}, GOLDEN_UNIFORM_BOUND, 1,
    ),
}


def report_check(name, tol, **fields):
    report = fake_report(**fields)
    return by_name(check_chain_bounds(report, tol) + check_endlich(report, tol))[name]


@pytest.mark.parametrize("tol", (0.0, 0.05, 0.25))
@pytest.mark.parametrize("name", sorted(ONE_SIDED))
def test_one_sided_checks_hold_exactly_to_the_tolerance(name, tol):
    fields, bound, side = ONE_SIDED[name]
    edge = bound + side * tol
    at_edge = report_check(name, tol, **fields(edge))
    assert at_edge.passed is True
    assert at_edge.margin == side * (bound - edge)  # the untoleranced slack
    beyond = math.nextafter(edge, side * math.inf)
    assert report_check(name, tol, **fields(beyond)).passed is False


@pytest.mark.parametrize("tol", (0.0, 0.25))
def test_two_sided_checks_hold_exactly_to_the_tolerance(tol):
    # Dyadic values keep |hat - 2| and the window 2.5 .. 3.5 (c = 2, d = 3)
    # exact in floats.
    for hat, side in ((2.0 - tol, -1), (2.0 + tol, 1)):
        at_edge = report_check("hat_mu_value", tol, hat_mu=hat)
        assert at_edge.passed is True and at_edge.margin == -tol
        beyond = math.nextafter(hat, side * math.inf)
        assert report_check("hat_mu_value", tol, hat_mu=beyond).passed is False
    for hat, side in ((2.5 - tol, -1), (3.5 + tol, 1)):
        at_edge = check_lacunary_sandwich(fake_report(hat_mu_times=hat), 2.0, 3.0, tol)
        assert at_edge.passed is True and at_edge.margin == -tol
        beyond = fake_report(hat_mu_times=math.nextafter(hat, side * math.inf))
        assert check_lacunary_sandwich(beyond, 2.0, 3.0, tol).passed is False


# ---------------------------------------------------------------------------
# lacunary window
# ---------------------------------------------------------------------------


def test_lacunary_sandwich_window(lacunary_chain_sup, lacunary_chain_mult):
    report = build_report(lacunary_chain_sup, lacunary_chain_mult)
    # Gap ratios of the exponent sequence are essentially constant at 3.
    wide = check_lacunary_sandwich(report, 3, 3, tol=0.1)
    assert wide.passed is True
    assert wide.inputs["lower"] == pytest.approx(8 / 3)
    assert wide.inputs["upper"] == pytest.approx(3.5)
    # A short prefix keeps the estimate slightly below the asymptotic window.
    tight = check_lacunary_sandwich(report, 3, 3, tol=0.01)
    assert tight.passed is False


def test_lacunary_sandwich_validation():
    report = fake_report(hat_mu_times=3.0)
    with pytest.raises(ValueError):
        check_lacunary_sandwich(report, 0, 3)
    with pytest.raises(ValueError):
        check_lacunary_sandwich(report, 3, 1)
    skipped = check_lacunary_sandwich(fake_report(), 3, 3)
    assert skipped.passed is None
    for c, d in ((math.inf, 3), (3, math.inf), (math.nan, 3), (3, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            check_lacunary_sandwich(report, c, d)


def test_tolerances_must_be_finite_and_nonnegative():
    report = fake_report(mu=3.0, mu_times=6.0, hat_mu=2.0, hat_mu_times=3.0)
    checks = (
        lambda tol: check_chain_bounds(report, tol),
        lambda tol: check_endlich(report, tol),
        lambda tol: check_lacunary_sandwich(report, 3, 3, tol),
        lambda tol: check_surgery_pointwise(surgery_witness(), tol),
    )
    for check in checks:
        for tol in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="tolerance must be finite"):
                check(tol)
        check(0.0)


# ---------------------------------------------------------------------------
# pair independence (exact)
# ---------------------------------------------------------------------------


def test_padicle_passes_on_real_chain(lacunary_chain_sup):
    result = check_padicle(lacunary_chain_sup.entries, 2)
    assert result.passed is True
    # The exact comparison passes; the float margin may sit at rounding
    # noise below zero when a pair meets the bound with equality.
    assert result.margin is not None and result.margin >= -1e-9


def test_padicle_flags_violating_pair():
    # Independent pairs both too deep for their boxes: 2 * 3 * 4 < 2^7.
    pairs = [pair(3, 1, 7), pair(4, 1, 8)]
    result = check_padicle(pairs, 2)
    assert result.passed is False
    assert result.margin < 0


def test_padicle_ignores_dependent_pairs():
    pairs = [pair(1, 1, 5), pair(2, 2, 9)]
    result = check_padicle(pairs, 2)
    assert result.passed is True
    assert result.margin is None
    assert "tightest" not in result.inputs


def test_padicle_full_mode_catches_distant_violation():
    # Heights sorted but valuations not: probing neighbours alone would
    # miss the (first, third) conflict.
    pairs = [pair(4, 1, 50), pair(5, 1, 3), pair(6, 1, 50)]
    result = check_padicle(pairs, 2)
    assert result.passed is False


def test_padicle_looks_past_a_dependent_neighbour():
    # Heights and valuations both sorted, but the middle pair is a multiple
    # of the first: (1, 1) and (8, 1) still violate 2 * 1 * 8 < 2^5.
    pairs = [pair(1, 1, 5), pair(2, 2, 5), pair(8, 1, 5)]
    result = check_padicle(pairs, 2)
    assert result.passed is False
    assert result.inputs["tightest"] == (0, 2)
    assert result.margin == pytest.approx(-1.0)


@given(
    p=st.sampled_from((2, 3, 5)),
    raw=st.lists(
        st.tuples(
            st.integers(min_value=-40, max_value=40).filter(bool),
            st.integers(min_value=1, max_value=40),
            st.integers(min_value=0, max_value=12),
        ),
        min_size=2,
        max_size=30,
    ),
)
@settings(max_examples=400)
def test_padicle_matches_all_pairs_reference(p, raw):
    """Small coordinates give height ties, equal valuations, duplicates and
    dependent pairs; the check must agree with the all-pairs scan."""
    pairs = [pair(x, y, val) for x, y, val in raw]
    fast = check_padicle(pairs, p)
    slow = reference.check_padicle(pairs, p)
    assert (fast.passed, fast.margin, fast.inputs) == (
        slow.passed,
        slow.margin,
        slow.inputs,
    )


def test_padicle_matches_all_pairs_reference_on_mult_chain():
    entries = chain(seeded_xi(3, 300, 7), NORM_MULT).entries
    fast = check_padicle(entries, 3)
    slow = reference.check_padicle(entries, 3)
    assert (fast.passed, fast.margin, fast.inputs) == (
        slow.passed,
        slow.margin,
        slow.inputs,
    )


def test_padicle_needs_two_pairs():
    assert check_padicle([pair(1, 1, 1)], 2).passed is None


# ---------------------------------------------------------------------------
# consecutive-height window (exact)
# ---------------------------------------------------------------------------


def test_korollar_passes_on_real_chain(lacunary_chain_sup):
    result = check_korollar(lacunary_chain_sup)
    assert result.passed is True
    # The exact comparisons pass; the float margin may sit at rounding
    # noise below zero when a pair meets the window with equality.
    assert result.margin is not None and result.margin >= -1e-9


def test_korollar_lower_violation():
    chain_ = synthetic_chain(NORM_SUP, [pair(1, 1, 4), pair(3, 1, 5)])
    result = check_korollar(chain_)
    assert result.passed is False  # 2 * 1 * 3 < 2^4


def test_korollar_upper_violation():
    chain_ = synthetic_chain(NORM_SUP, [pair(7, 1, 4), pair(9, 1, 5)])
    result = check_korollar(chain_)
    assert result.passed is False  # 7 * 9 > 3 * 2^4


def test_korollar_rejects_wrong_inputs():
    mult = synthetic_chain(NORM_MULT, [pair(1, 1, 1), pair(3, 1, 2)])
    with pytest.raises(ValueError):
        check_korollar(mult)
    censored = synthetic_chain(
        NORM_SUP, [pair(1, 1, 2, exact=False), pair(3, 1, 4)]
    )
    with pytest.raises(ValueError):
        check_korollar(censored)
    # A first entry above the second would leave no scaling in the box.
    unordered = synthetic_chain(
        NORM_SUP, [pair(100, 1, 20), pair(5, 1, 1), pair(7, 3, 2)]
    )
    with pytest.raises(ValueError, match="entries 0 and 1: heights must increase"):
        check_korollar(unordered)
    short = synthetic_chain(NORM_SUP, [pair(1, 1, 2)])
    assert check_korollar(short).passed is None


# ---------------------------------------------------------------------------
# surgery witnesses
# ---------------------------------------------------------------------------


def surgery_witness(**overrides):
    fields = dict(
        p=2,
        t=1.5,
        mu=6.0,
        truncation_pairs=[pair(1024, 1, 60)],
        spike_pairs=[pair(1024, 1024, 90)],
    )
    fields.update(overrides)
    return SimpleNamespace(**fields)


def test_surgery_pointwise_exact_targets():
    results = by_name(check_surgery_pointwise(surgery_witness()))
    classical = results["surgery_classical_0"]
    assert classical.passed is True
    assert classical.inputs["exponent"] == pytest.approx(6.0)
    mult = results["surgery_mult_0"]
    assert mult.passed is True
    assert mult.inputs["exponent"] == pytest.approx(9.0)
    assert mult.inputs["target"] == pytest.approx(9.0)


def test_surgery_pointwise_detects_miss():
    witness = surgery_witness(truncation_pairs=[pair(1024, 1, 40)])
    results = by_name(check_surgery_pointwise(witness))
    assert results["surgery_classical_0"].passed is False


def test_surgery_pointwise_rejects_censored():
    witness = surgery_witness(spike_pairs=[pair(1024, 1024, 90, exact=False)])
    with pytest.raises(ValueError):
        check_surgery_pointwise(witness)


def test_checks_to_dict_shape():
    report = fake_report(mu=2.1, mu_times=3.0, hat_mu=2.0, hat_mu_times=2.3)
    data = checks_to_dict(check_chain_bounds(report))
    assert data["all_passed"] is True
    assert {c["name"] for c in data["checks"]} == {
        "mu_lower",
        "chain_order",
        "chain_upper",
        "hat_mu_value",
        "hat_mu_times_upper",
    }
    assert all(set(c) == {"name", "passed", "margin", "inputs", "note"}
               for c in data["checks"])
