"""Exponent estimators, reports, and the uniform cross-check."""

from __future__ import annotations

import math

import pytest

from padiclab import (
    NORM_MULT,
    NORM_SUP,
    ApproxPair,
    BestApproxChain,
    Valuation,
    build_report,
    burn_in_index,
    chain,
    cross_check_uniform,
    estimate_classical,
    estimate_multiplicative,
    load_report,
    pointwise,
    report_to_dict,
    save_report,
)
from padiclab.exponents import _sample_indices
from conftest import seeded_xi


def synthetic_chain(norm, rows, p=2):
    """Build a chain object from (x, y, valuation) rows without arithmetic."""
    entries = tuple(
        ApproxPair(x=x, y=y, val=Valuation.exact(v)) for x, y, v in rows
    )
    return BestApproxChain(
        p=p,
        norm=norm,
        max_level=entries[-1].val.value,
        entries=entries,
        precision_ceiling=None,
    )


# ---------------------------------------------------------------------------
# pointwise rows
# ---------------------------------------------------------------------------


def test_pointwise_tau_and_uniform_term():
    chain_ = synthetic_chain(NORM_SUP, [(1, 3, 4), (5, 1, 6)])
    rows = pointwise(chain_)
    assert rows[0].tau == pytest.approx(4 * math.log(2) / math.log(3))
    expected_term = (4 * math.log(2) - math.log(3)) / math.log(5)
    assert rows[0].uniform_term == pytest.approx(expected_term)
    assert rows[1].uniform_term is None


def test_pointwise_height_one_entry_has_no_tau():
    chain_ = synthetic_chain(NORM_SUP, [(1, 1, 2), (3, 1, 4), (9, 1, 6)])
    rows = pointwise(chain_)
    assert rows[0].tau is None
    assert rows[1].tau is not None


def test_pointwise_multiplicative_uses_half_log_product():
    chain_ = synthetic_chain(NORM_MULT, [(4, 1, 3), (16, 1, 6), (64, 1, 9)])
    rows = pointwise(chain_)
    # log height of (16, 1) is log(sqrt(16)) = 2 log 2; valuation 6 gives tau 3.
    assert rows[1].log_height == pytest.approx(2 * math.log(2))
    assert rows[1].tau == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def geometric_rows(count):
    return [(2**k, 1, 3 * k) for k in range(1, count + 1)]


def test_estimate_classical_geometric_chain():
    chain_ = synthetic_chain(NORM_SUP, geometric_rows(10))
    mu, hat_mu = estimate_classical(chain_)
    assert mu == pytest.approx(3.0, abs=1e-12)
    # Uniform dip terms are 2(k+1)/(k+2); the burn-in tail starts at row 2.
    assert hat_mu == pytest.approx(2.5, abs=1e-12)


def test_estimate_multiplicative_geometric_chain():
    rows = [(4**k, 1, 3 * k) for k in range(1, 11)]
    chain_ = synthetic_chain(NORM_MULT, rows)
    mu_times, hat_mu_times = estimate_multiplicative(chain_)
    assert mu_times == pytest.approx(3.0, abs=1e-12)
    assert hat_mu_times == pytest.approx(2.5, abs=1e-12)


def test_estimators_reject_wrong_norm():
    sup = synthetic_chain(NORM_SUP, geometric_rows(5))
    mult = synthetic_chain(NORM_MULT, geometric_rows(5))
    with pytest.raises(ValueError):
        estimate_classical(mult)
    with pytest.raises(ValueError):
        estimate_multiplicative(sup)


def test_estimate_requires_enough_entries():
    chain_ = synthetic_chain(NORM_SUP, geometric_rows(3))
    with pytest.raises(ValueError, match="insufficient data"):
        estimate_classical(chain_)


def test_burn_in_index():
    assert burn_in_index(10, 0.2) == 2
    assert burn_in_index(20, 0.2) == 4
    assert burn_in_index(21, 0.2) == 5
    assert burn_in_index(100, 0.0) == 2
    with pytest.raises(ValueError):
        burn_in_index(10, 1.0)
    with pytest.raises(ValueError):
        burn_in_index(10, -0.1)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_build_report_combines_chains(lacunary_chain_sup, lacunary_chain_mult):
    report = build_report(lacunary_chain_sup, lacunary_chain_mult)
    mu, hat_mu = estimate_classical(lacunary_chain_sup)
    mu_times, hat_mu_times = estimate_multiplicative(lacunary_chain_mult)
    assert report.mu == mu
    assert report.hat_mu == hat_mu
    assert report.mu_times == mu_times
    assert report.hat_mu_times == hat_mu_times
    assert report.precision_limited
    # The multiplicative chain is the primary source for pointwise rows.
    assert report.pointwise == pointwise(lacunary_chain_mult)
    assert report.burn_in == burn_in_index(len(lacunary_chain_mult.entries))


def test_build_report_single_chain(lacunary_chain_mult):
    report = build_report(chain_mult=lacunary_chain_mult)
    assert report.mu is None and report.hat_mu is None
    assert report.mu_times is not None
    with pytest.raises(ValueError):
        build_report()


def test_report_round_trip(tmp_path, lacunary_chain_sup, lacunary_chain_mult):
    report = build_report(lacunary_chain_sup, lacunary_chain_mult)
    path = tmp_path / "report.json"
    save_report(report, path.as_posix())
    loaded = load_report(path.as_posix())
    assert loaded.mu == report.mu
    assert loaded.mu_times == report.mu_times
    assert loaded.hat_mu == report.hat_mu
    assert loaded.hat_mu_times == report.hat_mu_times
    assert loaded.burn_in == report.burn_in
    assert loaded.precision_limited == report.precision_limited
    assert [row.k for row in loaded.pointwise] == [
        row.k for row in report.pointwise
    ]
    assert [row.tau for row in loaded.pointwise] == [
        row.tau for row in report.pointwise
    ]
    assert [row.uniform_term for row in loaded.pointwise] == [
        row.uniform_term for row in report.pointwise
    ]


def test_report_dict_shape(lacunary_chain_mult):
    report = build_report(chain_mult=lacunary_chain_mult)
    data = report_to_dict(report)
    assert data["mu"] is None
    assert set(data["pointwise"][0]) == {"k", "tau", "uniform_term"}


@pytest.mark.parametrize(
    "content",
    [
        "not json",
        "[1, 2, 3]",
        '{"mu": 2.0}',
        '{"mu": null, "mu_times": null, "hat_mu": null, "hat_mu_times": null,'
        ' "burn_in": 2, "precision_limited": false, "pointwise": [{"tau": 1}]}',
    ],
)
def test_load_report_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    with pytest.raises(ValueError):
        load_report(path.as_posix())


# ---------------------------------------------------------------------------
# uniform cross-check
# ---------------------------------------------------------------------------


def test_sample_indices():
    assert _sample_indices(0, 5) == []
    assert _sample_indices(3, 5) == [1, 2, 3]
    assert _sample_indices(10, 5) == [2, 4, 6, 8, 10]
    assert _sample_indices(1, 1) == [1]


def test_cross_check_uniform_agrees():
    for p, precision, seed in ((2, 18, 61), (5, 10, 62)):
        xi = seeded_xi(p, precision, seed)
        for norm in (NORM_SUP, NORM_MULT):
            chain_ = chain(xi, norm)
            records = cross_check_uniform(xi, chain_, samples=4)
            assert records, "expected at least one sampled bound"
            assert all(record["ok"] for record in records)
            assert all(record["discrepancy"] <= 1e-9 for record in records)
            bounds = [record["bound"] for record in records]
            assert bounds == sorted(bounds)
