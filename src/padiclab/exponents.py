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
    uniform_minimum,
    uniform_minimum_enum,
)
from .core import PAdicNumber

@dataclass(frozen=True)
class PointwiseExponent:
    """Per-entry exponent data; ``uniform_term`` is None on the last entry."""

    k: int
    valuation: int
    log_height: float
    tau: float | None
    uniform_term: float | None


_POINTWISE_FIELDS = tuple(f.name for f in fields(PointwiseExponent))


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
    taus = [row.tau for row in rows[start:] if row.tau is not None]
    terms = [
        row.uniform_term for row in rows[start:-1] if row.uniform_term is not None
    ]
    if not taus or not terms:
        raise ValueError("chain tail has no usable exponent data")
    return max(taus), 1.0 + min(terms)


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


REPORT_FIELDS = tuple(f.name for f in fields(ExponentReport))


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
        burn_in=burn_in_index(len(primary.entries)),
        precision_limited=limited,
        pointwise=pointwise(primary),
    )


def report_to_dict(report: ExponentReport) -> dict:
    data = {name: getattr(report, name) for name in REPORT_FIELDS}
    data["pointwise"] = [dict(vars(row)) for row in report.pointwise]
    return data


def save_report(report: ExponentReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report_to_dict(report), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _exact_field(data: dict, name: str, kind: type) -> int | bool:
    value = data[name]
    if type(value) is not kind:  # exact, because bool is a subclass of int
        raise ValueError(f"report field {name!r} must be {kind.__name__}, got {value!r}")
    return value


def _float_field(data: dict, name: str, nullable: bool = True) -> float | None:
    value = data[name]
    if value is None and nullable:
        return None
    # The range test also refuses NaN, the infinities and oversized integers.
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"report field {name!r} must be a finite number, got {value!r}")
    return float(value)


def load_report(path: str) -> ExponentReport:
    """Read a report back; raises ValueError on malformed content.

    Every field must be present with its JSON type: integers (not booleans)
    for ``k``, ``valuation`` and ``burn_in``, a boolean for
    ``precision_limited`` and finite numbers (or null where the field is
    optional) for the exponents, so a saved report loads back unchanged.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed report JSON in {path!r}") from exc
    if not isinstance(data, dict) or not set(REPORT_FIELDS) <= set(data):
        raise ValueError(f"report JSON missing required fields in {path!r}")
    if not isinstance(data["pointwise"], list):
        raise ValueError("report field 'pointwise' must be a list")
    rows = []
    for raw in data["pointwise"]:
        if not isinstance(raw, dict) or not set(_POINTWISE_FIELDS) <= set(raw):
            raise ValueError(f"malformed pointwise row {raw!r}")
        rows.append(
            PointwiseExponent(
                k=_exact_field(raw, "k", int),
                valuation=_exact_field(raw, "valuation", int),
                log_height=_float_field(raw, "log_height", nullable=False),
                tau=_float_field(raw, "tau"),
                uniform_term=_float_field(raw, "uniform_term"),
            )
        )
    return ExponentReport(
        mu=_float_field(data, "mu"),
        mu_times=_float_field(data, "mu_times"),
        hat_mu=_float_field(data, "hat_mu"),
        hat_mu_times=_float_field(data, "hat_mu_times"),
        burn_in=_exact_field(data, "burn_in", int),
        precision_limited=_exact_field(data, "precision_limited", bool),
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
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    records: list[dict] = []
    metrics = chain_.metrics()
    for k in _sample_indices(len(metrics) - 2, samples):
        bound = metrics[k + 1] - 1
        if bound < 2:
            continue
        fast = uniform_minimum(xi, chain_, bound)
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
