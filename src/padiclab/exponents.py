"""Approximation-exponent estimates from best-approximation chains.

For a chain entry with valuation ``v`` and norm height ``Q`` (the sup height
for classical chains, the square root of the product for multiplicative
chains) the pointwise exponent is ``tau = v * ln p / ln Q``.  The uniform
exponent is read off the dips between successive entries: p-power scalings
of earlier entries keep the box occupied until entry ``k+1`` appears, and a
scaling of entry ``j`` contributes ``v_j * ln p - ln Q_j`` regardless of the
scale, so the local uniform exponent just below the height of entry ``k+1``
is ``1 + max_{j<=k}(v_j * ln p - ln Q_j) / ln Q_{k+1}`` up to a vanishing
rounding term.  The running max matters: chains can pick up entries whose
own valuation is poorer than what a scaled earlier entry already certifies
at the same height.  Estimators take the max (pointwise) or min (uniform)
over the chain tail past a burn-in index.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields

from .lattice import (
    NORM_MULT,
    NORM_SUP,
    BestApproxChain,
    oracle_chain,
    uniform_minimum,
)
from .core import PAdicNumber

def pointwise(chain: BestApproxChain) -> list[tuple[float | None, float | None]]:
    """``(tau, uniform_term)`` for every chain entry.

    ``tau`` is None on a height-one entry, ``uniform_term`` on the last one.
    """
    log_p = math.log(chain.p)
    scale = 2.0 if chain.norm == NORM_MULT else 1.0
    logs = [math.log(metric) / scale for metric in chain.metrics()]
    rows = []
    # Best certified gap over all p-power scalings of entries 0..k: a scaling
    # of entry j reaches valuation v_j + m at log-height ln Q_j + m ln p, so
    # its contribution v_j ln p - ln Q_j is scale free.
    best_gap = -math.inf
    for k, pair in enumerate(chain.entries):
        log_height = logs[k]
        # A height-one pair (x = y = 1) carries no growth information.
        tau = pair.val.value * log_p / log_height if log_height > 0 else None
        best_gap = max(best_gap, pair.val.value * log_p - log_height)
        uniform_term = best_gap / logs[k + 1] if k + 1 < len(logs) else None
        rows.append((tau, uniform_term))
    return rows


_BURN_IN = 0.2


def burn_in_index(length: int) -> int:
    """First chain index used by the estimators (min 2, ceil of the fraction)."""
    return max(2, math.ceil(_BURN_IN * length))


def estimate(chain: BestApproxChain) -> tuple[float, float]:
    """(pointwise, uniform) exponent estimates in the chain's own norm.

    A sup chain gives (mu, hat_mu), a product chain (mu_times, hat_mu_times).
    """
    rows = pointwise(chain)
    start = burn_in_index(len(rows))
    if start > len(rows) - 2:
        raise ValueError(
            f"insufficient data: chain with {len(rows)} entries is too short "
            f"for burn-in {_BURN_IN}"
        )
    taus = [tau for tau, _ in rows[start:] if tau is not None]
    terms = [term for _, term in rows[start:-1] if term is not None]
    if not taus or not terms:
        raise ValueError("chain tail has no usable exponent data")
    return max(taus), 1.0 + min(terms)


@dataclass(frozen=True)
class ExponentReport:
    """The four exponent estimates of one number.

    A norm whose chain was not supplied leaves its two estimates None;
    ``precision_limited`` is set when either chain met the precision
    ceiling.  On disk the report also carries ``format``
    (:data:`REPORT_FORMAT`).
    """

    mu: float | None
    mu_times: float | None
    hat_mu: float | None
    hat_mu_times: float | None
    precision_limited: bool


REPORT_FIELDS = tuple(f.name for f in fields(ExponentReport))

REPORT_FORMAT = "padic-report-v1"


def build_report(
    chain_sup: BestApproxChain | None = None,
    chain_mult: BestApproxChain | None = None,
) -> ExponentReport:
    """Combine chain estimates into a report; at least one chain required."""
    if chain_sup is None and chain_mult is None:
        raise ValueError("build_report needs at least one chain")
    if chain_sup is not None and chain_sup.norm != NORM_SUP:
        raise ValueError("chain_sup must be a sup-norm chain")
    if chain_mult is not None and chain_mult.norm != NORM_MULT:
        raise ValueError("chain_mult must be a product-norm chain")
    mu = hat_mu = mu_times = hat_mu_times = None
    if chain_sup is not None:
        mu, hat_mu = estimate(chain_sup)
    if chain_mult is not None:
        mu_times, hat_mu_times = estimate(chain_mult)
    limited = any(
        c.precision_limited for c in (chain_sup, chain_mult) if c is not None
    )
    return ExponentReport(
        mu=mu,
        mu_times=mu_times,
        hat_mu=hat_mu,
        hat_mu_times=hat_mu_times,
        precision_limited=limited,
    )


def report_to_dict(report: ExponentReport) -> dict:
    """The JSON object :func:`save_report` writes: the fields and ``format``."""
    return {"format": REPORT_FORMAT, **vars(report)}


def save_report(report: ExponentReport, path: str) -> None:
    """Write a report that :func:`load_report` reads back unchanged.

    A field that load refuses (a non-finite exponent, say) raises
    ValueError before the file is opened.
    """
    data = report_to_dict(report)
    _report_from_dict(data)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _float_field(data: dict, name: str) -> float | None:
    value = data[name]
    if value is None:
        return None
    # The range test also refuses NaN, the infinities and oversized integers.
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"report field {name!r} must be a finite number, got {value!r}")
    return float(value)


def load_report(path: str) -> ExponentReport:
    """Read a report back; raises ValueError on malformed content.

    The keys must be exactly ``format`` and the report's fields: ``format``
    must be :data:`REPORT_FORMAT`, ``precision_limited`` a boolean and each
    exponent a finite number or null.  So a saved report loads back
    unchanged, and a file of another format is refused rather than half-read.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed report JSON in {path!r}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"report JSON in {path!r} is not an object")
    keys = ("format", *REPORT_FIELDS)
    missing = [key for key in keys if key not in data]
    if missing:
        raise ValueError(
            f"report JSON in {path!r} missing key(s) {', '.join(map(repr, missing))}"
        )
    if data["format"] != REPORT_FORMAT:
        raise ValueError(
            f"report field 'format' must be {REPORT_FORMAT!r}, got {data['format']!r}"
        )
    unknown = sorted(data.keys() - keys)
    if unknown:
        raise ValueError(
            f"report JSON in {path!r} has unknown key(s) {', '.join(map(repr, unknown))}"
        )
    return _report_from_dict(data)


def _report_from_dict(data: dict) -> ExponentReport:
    """The report of a dict with every field; raises ValueError on a bad one."""
    limited = data["precision_limited"]
    if type(limited) is not bool:  # exact, so 0 and 1 are refused
        raise ValueError(f"report field 'precision_limited' must be bool, got {limited!r}")
    return ExponentReport(
        mu=_float_field(data, "mu"),
        mu_times=_float_field(data, "mu_times"),
        hat_mu=_float_field(data, "hat_mu"),
        hat_mu_times=_float_field(data, "hat_mu_times"),
        precision_limited=limited,
    )


def _sample_indices(usable: int, samples: int) -> list[int]:
    """Evenly spread indices in [1, usable] (1-based chain positions)."""
    if usable < 1:
        return []
    if samples >= usable:
        return list(range(1, usable + 1))
    step = usable / samples
    picked = sorted({max(1, round((i + 1) * step)) for i in range(samples)})
    return picked


def cross_check_uniform(
    xi: PAdicNumber,
    chain_: BestApproxChain,
    samples: int = 5,
) -> list[dict]:
    """Compare the box minima read off ``chain_`` and off the oracle chain.

    Both are read by :func:`uniform_minimum`, which the tests check against
    a scan of every ladder candidate that shares no code with it or
    ``_records``, so this compares the walk's records below each box with
    the oracle's.  Bounds sit just below chain heights (where the uniform
    exponent dips), one per sampled entry.  One oracle chain, searched in
    the largest box, answers them all: a smaller box's level search stops at
    the first level whose minimum exceeds it, so its chain is a prefix.  A
    record holds both witnesses, their discrepancy and ``ok``: identical
    valuations and pairs, exponents within 1e-9.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    metrics = chain_.metrics()
    sampled = _sample_indices(len(metrics) - 2, samples)
    bounds = [metrics[k + 1] - 1 for k in sampled if metrics[k + 1] > 2]
    if not bounds:
        return []
    fasts = [uniform_minimum(xi, chain_, bound) for bound in bounds]
    oracle = oracle_chain(xi, chain_.norm, max(bounds))
    records: list[dict] = []
    for bound, fast in zip(bounds, fasts):
        slow = uniform_minimum(xi, oracle, bound)
        pair, pair_enum = (fast.pair.x, fast.pair.y), (slow.pair.x, slow.pair.y)
        same = (fast.valuation, pair) == (slow.valuation, pair_enum)
        discrepancy = abs(fast.exponent - slow.exponent)
        records.append(
            {
                "bound": bound,
                "valuation": fast.valuation,
                "valuation_enum": slow.valuation,
                "pair": pair,
                "pair_enum": pair_enum,
                "exponent": fast.exponent,
                "exponent_enum": slow.exponent,
                "discrepancy": discrepancy,
                "ok": same and discrepancy <= 1e-9,
            }
        )
    return records
