"""Exponent estimators, reports, and the uniform cross-check."""

from __future__ import annotations

import json
import math

import pytest

from padiclab import (
    NORM_MULT,
    NORM_SUP,
    ApproxPair,
    BestApproxChain,
    ExponentReport,
    Valuation,
    build_report,
    chain,
    cross_check_uniform,
    estimate,
    load_report,
    report_to_dict,
    save_report,
)
from padiclab.exponents import REPORT_FORMAT, _sample_indices, burn_in_index, pointwise
from conftest import seeded_xi


def synthetic_chain(norm, rows, p=2):
    """Build a chain object from (x, y, valuation) rows without arithmetic."""
    entries = tuple(
        ApproxPair(x=x, y=y, val=Valuation.exact(v)) for x, y, v in rows
    )
    return BestApproxChain(p, norm, entries)


# ---------------------------------------------------------------------------
# pointwise rows
# ---------------------------------------------------------------------------


def test_pointwise_tau_and_uniform_term():
    chain_ = synthetic_chain(NORM_SUP, [(1, 3, 4), (5, 1, 6)])
    (tau, uniform_term), (_, last_term) = pointwise(chain_)
    assert tau == pytest.approx(4 * math.log(2) / math.log(3))
    expected_term = (4 * math.log(2) - math.log(3)) / math.log(5)
    assert uniform_term == pytest.approx(expected_term)
    assert last_term is None


def test_pointwise_height_one_entry_has_no_tau():
    chain_ = synthetic_chain(NORM_SUP, [(1, 1, 2), (3, 1, 4), (9, 1, 6)])
    taus = [tau for tau, _ in pointwise(chain_)]
    assert taus[0] is None
    assert taus[1] is not None


def test_pointwise_multiplicative_uses_half_log_product():
    chain_ = synthetic_chain(NORM_MULT, [(4, 1, 3), (16, 1, 6), (64, 1, 9)])
    rows = pointwise(chain_)
    # Log heights are log(sqrt(4**k)) = k log 2, so valuation 3k gives tau 3.
    assert [tau for tau, _ in rows] == pytest.approx([3.0, 3.0, 3.0])
    # The best gap after entry 1 is 6 log 2 - 2 log 2, over the next log
    # height 3 log 2.
    assert rows[1][1] == pytest.approx(4 / 3)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def geometric_rows(count):
    return [(2**k, 1, 3 * k) for k in range(1, count + 1)]


def test_estimate_classical_geometric_chain():
    chain_ = synthetic_chain(NORM_SUP, geometric_rows(10))
    mu, hat_mu = estimate(chain_)
    assert mu == pytest.approx(3.0, abs=1e-12)
    # Uniform dip terms are 2(k+1)/(k+2); the burn-in tail starts at row 2.
    assert hat_mu == pytest.approx(2.5, abs=1e-12)


def test_estimate_multiplicative_geometric_chain():
    rows = [(4**k, 1, 3 * k) for k in range(1, 11)]
    chain_ = synthetic_chain(NORM_MULT, rows)
    mu_times, hat_mu_times = estimate(chain_)
    assert mu_times == pytest.approx(3.0, abs=1e-12)
    assert hat_mu_times == pytest.approx(2.5, abs=1e-12)


def test_build_report_rejects_wrong_norm():
    sup = synthetic_chain(NORM_SUP, geometric_rows(5))
    mult = synthetic_chain(NORM_MULT, geometric_rows(5))
    with pytest.raises(ValueError, match="chain_sup must be a sup-norm chain"):
        build_report(chain_sup=mult)
    with pytest.raises(ValueError, match="chain_mult must be a product-norm chain"):
        build_report(chain_mult=sup)


def test_estimate_requires_enough_entries():
    chain_ = synthetic_chain(NORM_SUP, geometric_rows(3))
    with pytest.raises(ValueError, match="insufficient data"):
        estimate(chain_)


def test_burn_in_index():
    assert burn_in_index(3) == 2
    assert burn_in_index(10) == 2
    assert burn_in_index(20) == 4
    assert burn_in_index(21) == 5


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_build_report_combines_chains(lacunary_chain_sup, lacunary_chain_mult):
    report = build_report(lacunary_chain_sup, lacunary_chain_mult)
    mu, hat_mu = estimate(lacunary_chain_sup)
    mu_times, hat_mu_times = estimate(lacunary_chain_mult)
    assert report.mu == mu
    assert report.hat_mu == hat_mu
    assert report.mu_times == mu_times
    assert report.hat_mu_times == hat_mu_times
    assert report.precision_limited


def test_build_report_single_chain(lacunary_chain_mult):
    report = build_report(chain_mult=lacunary_chain_mult)
    assert report.mu is None and report.hat_mu is None
    assert report.mu_times is not None
    with pytest.raises(ValueError):
        build_report()


@pytest.mark.parametrize(
    "chains", [("lacunary_chain_sup", "lacunary_chain_mult"), (None, "factorial_chain_mult")]
)
def test_report_round_trip(tmp_path, request, chains):
    sup, mult = (None if name is None else request.getfixturevalue(name) for name in chains)
    report = build_report(sup, mult)
    path = tmp_path / "report.json"
    save_report(report, path.as_posix())
    assert load_report(path.as_posix()) == report


def test_report_dict_shape(lacunary_chain_mult):
    report = build_report(chain_mult=lacunary_chain_mult)
    data = report_to_dict(report)
    assert data["mu"] is None
    assert set(data) == {
        "format", "mu", "mu_times", "hat_mu", "hat_mu_times", "precision_limited"
    }
    assert data["format"] == REPORT_FORMAT == "padic-report-v1"


def report_text(drop: str | None = None, **changes) -> str:
    """A well-formed report, with fields changed (``changes``) or one dropped."""
    data = {
        "format": "padic-report-v1", "mu": None, "mu_times": 6.0, "hat_mu": None,
        "hat_mu_times": 3, "precision_limited": False,
    }
    data.update(changes)
    if drop is not None:
        del data[drop]
    return json.dumps(data)


# A report as written before the format field: one float row per chain entry
# and the burn-in index of the primary chain.
PRE_FORMAT_REPORT = json.dumps({
    "mu": None, "mu_times": 6.0, "hat_mu": None, "hat_mu_times": 3.0,
    "burn_in": 2, "precision_limited": False,
    "pointwise": [
        {"k": 0, "valuation": 3, "log_height": 1.5, "tau": 1.4, "uniform_term": None},
    ],
})


def test_load_report_accepts_the_well_formed_template(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(report_text())
    report = load_report(path.as_posix())
    assert report.hat_mu_times == 3.0 and isinstance(report.hat_mu_times, float)
    assert report.mu is None and report.mu_times == 6.0
    assert report.precision_limited is False


@pytest.mark.parametrize(
    "content",
    [
        "not json",
        "[1, 2, 3]",
        '{"mu": 2.0}',
        '{"mu": null, "mu_times": null, "hat_mu": null, "hat_mu_times": null,'
        ' "burn_in": 2, "precision_limited": false, "pointwise": [{"tau": 1}]}',
        pytest.param(report_text(drop="format"), id="format-absent"),
        pytest.param(report_text(format="padic-report-v0"), id="format-v0"),
        pytest.param(report_text(format=1), id="format-int"),
        pytest.param(PRE_FORMAT_REPORT, id="pre-format-rows"),
        pytest.param(report_text(drop="hat_mu"), id="no-hat_mu"),
        pytest.param(report_text(drop="precision_limited"), id="no-precision_limited"),
        pytest.param(report_text(precision_limited="false"), id="limited-string"),
        pytest.param(report_text(precision_limited=0), id="limited-int"),
        pytest.param(report_text(mu=True), id="mu-bool"),
        pytest.param(report_text(mu="3.0"), id="mu-string"),
        # The fields a report carried before its format was versioned.
        pytest.param(report_text(burn_in=2.9), id="burn_in-float"),
        pytest.param(report_text(burn_in=True), id="burn_in-bool"),
        pytest.param(report_text(pointwise={"k": 0}), id="pointwise-dict"),
        pytest.param(report_text(mu=math.inf, mu_times=math.inf), id="mu-infinity"),
        pytest.param(report_text(hat_mu_times=-math.inf), id="hat_mu_times-minus-infinity"),
        pytest.param(report_text(mu=math.nan), id="mu-nan"),
        pytest.param(report_text(mu=10**400), id="mu-beyond-float-range"),
    ],
)
def test_load_report_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    with pytest.raises(ValueError):
        load_report(path.as_posix())


@pytest.mark.parametrize(
    "content, needle",
    [
        ('{"mu": 2.0}', "missing key(s) 'format', 'mu_times', 'hat_mu', 'hat_mu_times', "
         "'precision_limited'"),
        (report_text(drop="hat_mu"), "missing key(s) 'hat_mu'"),
        (PRE_FORMAT_REPORT, "missing key(s) 'format'"),
        (report_text(format="padic-report-v0"),
         "'format' must be 'padic-report-v1', got 'padic-report-v0'"),
        (report_text(format=1), "'format' must be 'padic-report-v1', got 1"),
        (report_text(burn_in=2, pointwise=[]), "unknown key(s) 'burn_in', 'pointwise'"),
    ],
)
def test_load_report_names_the_missing_or_foreign_field(tmp_path, content, needle):
    path = tmp_path / "bad.json"
    path.write_text(content)
    with pytest.raises(ValueError) as info:
        load_report(path.as_posix())
    assert needle in str(info.value)


@pytest.mark.parametrize(
    "field, report",
    [
        ("mu", ExponentReport(math.inf, math.inf, 2.0, 3.0, False)),
        ("hat_mu_times", ExponentReport(None, 6.0, None, -math.inf, False)),
        ("hat_mu", ExponentReport(None, 6.0, math.nan, 3.0, True)),
    ],
)
def test_save_report_refuses_a_non_finite_field(tmp_path, field, report):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match=f"'{field}' must be a finite number"):
        save_report(report, path.as_posix())
    assert not path.exists()


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


@pytest.mark.parametrize("samples", [0, -3])
def test_cross_check_uniform_refuses_fewer_than_one_sample(samples):
    xi = seeded_xi(2, 18, 61)
    with pytest.raises(ValueError, match="samples must be at least 1"):
        cross_check_uniform(xi, chain(xi, NORM_SUP), samples=samples)
