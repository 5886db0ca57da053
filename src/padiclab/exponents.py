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
from dataclasses import dataclass

from .lattice import (
    NORM_MULT,
    NORM_SUP,
    BestApproxChain,
    uniform_minimum,
    uniform_minimum_enum,
    _pair_metric,
)
from .core import PAdicNumber

REPORT_FIELDS = (
    "mu",
    "mu_times",
    "hat_mu",
    "hat_mu_times",
    "burn_in",
    "precision_limited",
    "pointwise",
)


@dataclass(frozen=True)
class PointwiseExponent:
    """Per-entry exponent data; ``uniform_term`` is None on the last entry."""

    k: int
    valuation: int
    log_height: float
    tau: float | None
    uniform_term: float | None


def pointwise(chain: BestApproxChain) -> tuple[PointwiseExponent, ...]:
    """Pointwise exponents and uniform terms for every chain entry."""
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
        if k + 1 < len(logs):
            uniform_term = best_gap / logs[k + 1]
        else:
            uniform_term = None
        rows.append(
            PointwiseExponent(
                k=k,
                valuation=pair.val.value,
                log_height=log_height,
                tau=tau,
                uniform_term=uniform_term,
            )
        )
    return tuple(rows)


def burn_in_index(length: int, burn_in: float = 0.2) -> int:
    """First chain index used by the estimators (min 2, ceil of the fraction)."""
    if not 0.0 <= burn_in < 1.0:
        raise ValueError(f"burn_in fraction must be in [0, 1), got {burn_in}")
    return max(2, math.ceil(burn_in * length))


def _estimate(chain: BestApproxChain, burn_in: float) -> tuple[float, float]:
    rows = pointwise(chain)
    start = burn_in_index(len(rows), burn_in)
    if start > len(rows) - 2:
        raise ValueError(
            f"insufficient data: chain with {len(rows)} entries is too short "
            f"for burn-in {burn_in}"
        )
    taus = [row.tau for row in rows[start:] if row.tau is not None]
    terms = [
        row.uniform_term for row in rows[start:-1] if row.uniform_term is not None
    ]
    if not taus or not terms:
        raise ValueError("chain tail has no usable exponent data")
    return max(taus), 1.0 + min(terms)


def estimate_classical(
    chain: BestApproxChain, burn_in: float = 0.2
) -> tuple[float, float]:
    """(mu, hat_mu) estimates from a classical chain."""
    if chain.norm != NORM_SUP:
        raise ValueError("estimate_classical needs a sup-norm chain")
    return _estimate(chain, burn_in)


def estimate_multiplicative(
    chain: BestApproxChain, burn_in: float = 0.2
) -> tuple[float, float]:
    """(mu_times, hat_mu_times) estimates from a multiplicative chain."""
    if chain.norm != NORM_MULT:
        raise ValueError("estimate_multiplicative needs a product-norm chain")
    return _estimate(chain, burn_in)


@dataclass(frozen=True)
class ExponentReport:
    """Exponent estimates for one number; absent norms leave None fields.

    ``pointwise`` and ``burn_in`` describe the multiplicative chain when one
    was supplied, otherwise the classical chain.
    """

    mu: float | None
    mu_times: float | None
    hat_mu: float | None
    hat_mu_times: float | None
    burn_in: int
    precision_limited: bool
    pointwise: tuple[PointwiseExponent, ...]


def build_report(
    chain_sup: BestApproxChain | None = None,
    chain_mult: BestApproxChain | None = None,
    burn_in: float = 0.2,
) -> ExponentReport:
    """Combine chain estimates into a report; at least one chain required."""
    if chain_sup is None and chain_mult is None:
        raise ValueError("build_report needs at least one chain")
    mu = hat_mu = mu_times = hat_mu_times = None
    if chain_sup is not None:
        mu, hat_mu = estimate_classical(chain_sup, burn_in)
    if chain_mult is not None:
        mu_times, hat_mu_times = estimate_multiplicative(chain_mult, burn_in)
    primary = chain_mult if chain_mult is not None else chain_sup
    assert primary is not None
    limited = any(
        c.precision_limited for c in (chain_sup, chain_mult) if c is not None
    )
    return ExponentReport(
        mu=mu,
        mu_times=mu_times,
        hat_mu=hat_mu,
        hat_mu_times=hat_mu_times,
        burn_in=burn_in_index(len(primary.entries), burn_in),
        precision_limited=limited,
        pointwise=pointwise(primary),
    )


def report_to_dict(report: ExponentReport) -> dict:
    return {
        "mu": report.mu,
        "mu_times": report.mu_times,
        "hat_mu": report.hat_mu,
        "hat_mu_times": report.hat_mu_times,
        "burn_in": report.burn_in,
        "precision_limited": report.precision_limited,
        "pointwise": [
            {"k": row.k, "tau": row.tau, "uniform_term": row.uniform_term}
            for row in report.pointwise
        ],
    }


def save_report(report: ExponentReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report_to_dict(report), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> ExponentReport:
    """Read a report back; raises ValueError on malformed content."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed report JSON in {path!r}") from exc
    if not isinstance(data, dict) or not set(REPORT_FIELDS) <= set(data):
        raise ValueError(f"report JSON missing required fields in {path!r}")
    rows = []
    for raw in data["pointwise"]:
        if not isinstance(raw, dict) or "k" not in raw:
            raise ValueError(f"malformed pointwise row {raw!r}")
        rows.append(
            PointwiseExponent(
                k=int(raw["k"]),
                valuation=int(raw.get("valuation", 0)),
                log_height=float(raw.get("log_height", 0.0)),
                tau=None if raw.get("tau") is None else float(raw["tau"]),
                uniform_term=(
                    None
                    if raw.get("uniform_term") is None
                    else float(raw["uniform_term"])
                ),
            )
        )
    def opt(name: str) -> float | None:
        return None if data[name] is None else float(data[name])

    return ExponentReport(
        mu=opt("mu"),
        mu_times=opt("mu_times"),
        hat_mu=opt("hat_mu"),
        hat_mu_times=opt("hat_mu_times"),
        burn_in=int(data["burn_in"]),
        precision_limited=bool(data["precision_limited"]),
        pointwise=tuple(rows),
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
    """Compare the chain-based box minimum against direct enumeration.

    Bounds sit just below chain heights (where the uniform exponent dips),
    one per sampled entry.  Each record carries both witnesses and their
    exact-valuation discrepancy; ``ok`` requires identical valuations,
    identical minimising pairs and exponents within 1e-9.
    """
    records: list[dict] = []
    n = len(chain_.entries)
    for k in _sample_indices(n - 2, samples):
        bound = _pair_metric(chain_.entries[k + 1], chain_.norm) - 1
        if bound < 2:
            continue
        fast = uniform_minimum(xi, chain_.norm, bound, chain_)
        slow = uniform_minimum_enum(xi, chain_.norm, bound)
        discrepancy = abs(fast.exponent - slow.exponent)
        records.append(
            {
                "bound": bound,
                "valuation": fast.valuation,
                "valuation_enum": slow.valuation,
                "pair": (fast.pair.x, fast.pair.y),
                "pair_enum": (slow.pair.x, slow.pair.y),
                "exponent": fast.exponent,
                "exponent_enum": slow.exponent,
                "discrepancy": discrepancy,
                "ok": (
                    fast.valuation == slow.valuation
                    and (fast.pair.x, fast.pair.y) == (slow.pair.x, slow.pair.y)
                    and discrepancy <= 1e-9
                ),
            }
        )
    return records
