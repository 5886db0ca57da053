"""Best-approximation chains for truncated p-adic integers.

Two chain flavours are supported:

* classical chains minimise the sup height ``max(|x|, |y|)``;
* multiplicative chains minimise the product ``|x * y|``.

Per-level minimisers on the congruence lattices ``{(x, y) : x = y * xi
(mod p^v)}`` come from :mod:`padiclab.walk`: a reduced basis carried from
level to level for the sup norm (de Weger 1986; Kaib & Schnorr 1996), a
continued-fraction walk per visited level for the product norm.  Chains
assemble the minimisers into the staircase of record pairs
(strictly increasing heights and valuations).  Exhaustive enumeration
oracles rebuild the same chains from scratch so the fast path can be
cross-validated, and ``uniform_minimum`` evaluates the uniform
(min-over-a-box) side of the problem.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .core import (
    ApproxPair,
    PAdicNumber,
    Valuation,
    decimal_to_int,
    ilog,
    int_to_decimal,
    linear_form_valuation,
    make_pair,
    pval,
    residue,
)
from .walk import SupWalk, best_mult_pair, reduce_basis, sup_search, vector_pair

NORM_SUP = "sup"
NORM_MULT = "mult"
NORMS = (NORM_SUP, NORM_MULT)

CHAIN_CSV_FIELDS = (
    "k",
    "x",
    "y",
    "valuation",
    "valuation_exact",
    "height_sup",
    "height_mult_sq",
)


def _require_norm(norm: str) -> None:
    if norm not in NORMS:
        raise ValueError(f"unknown norm {norm!r}; expected one of {NORMS}")


def _pair_metric(pair: ApproxPair, norm: str) -> int:
    return pair.height_mult_sq if norm == NORM_MULT else pair.height_sup


@dataclass(frozen=True)
class BestApproxChain:
    """A finite chain of best-approximation pairs for one norm.

    ``precision_ceiling`` is set when the search ran into a pair whose
    valuation is censored by the truncation (only a lower bound is known);
    the chain stops just before that pair.
    """

    p: int
    norm: str
    max_level: int
    entries: tuple[ApproxPair, ...]
    precision_ceiling: int | None = None

    @property
    def precision_limited(self) -> bool:
        return self.precision_ceiling is not None

    def metrics(self) -> tuple[int, ...]:
        return tuple(_pair_metric(pair, self.norm) for pair in self.entries)


def _check_level(xi: PAdicNumber, level: int) -> None:
    if not 1 <= level <= xi.precision:
        raise ValueError(
            f"level must be in [1, {xi.precision}] for this truncation, got {level}"
        )


def best_sup_at_level(xi: PAdicNumber, level: int) -> ApproxPair:
    """Smallest sup-height coprime pair with valuation at least ``level``.

    Reduces the basis (p^level, 0), (r, 1) once and searches it like the
    chain walk does.
    """
    _check_level(xi, level)
    r = residue(xi, level)
    if r == 0:
        return make_pair(xi, xi.p**level, 1)
    modulus = xi.p**level
    b1, b2 = reduce_basis((modulus, 0, -1), (r, 1, (xi.value - r) // modulus))
    return vector_pair(xi.p, xi.precision, level, sup_search(xi.p, b1, b2))


def best_mult_at_level(xi: PAdicNumber, level: int) -> ApproxPair:
    """Smallest product coprime pair with valuation at least ``level``."""
    _check_level(xi, level)
    x, y = best_mult_pair(xi.p, xi.p**level, residue(xi, level))
    return make_pair(xi, x, y)


def _mult_required_valuation(p: int, anchor: tuple[int, int], product: int) -> int:
    """Minimal valuation a new product-``product`` pair must reach.

    A candidate competes against p-power scalings of every accepted pair
    (P_i, v_i) and of the trivial height-one pair (1, 0): scaling by p^m
    multiplies the product by p^(2m) and deepens the valuation by m.
    Equality is enough to enter the chain, so the candidate needs valuation
    at least max_i v_i + floor(log_{p^2}(product / P_i)), which equals
    floor(log_{p^2}(product * p^(2 v_i) / P_i)).  Products only grow along
    a chain, so every P_i <= product and the maximum is reached at the
    ``anchor``: the entry minimising P_i / p^(2 v_i) (see
    :func:`_next_anchor`).
    """
    anchor_product, anchor_val = anchor
    return anchor_val + ilog(product // anchor_product, p * p)


def _next_anchor(
    p: int, anchor: tuple[int, int], product: int, val: int
) -> tuple[int, int]:
    """Anchor after accepting ``(product, val)``, a deeper valuation.

    A replaced last entry needs no removal: its replacement has the same
    product and a deeper valuation, so it beats it as an anchor.
    """
    anchor_product, anchor_val = anchor
    if product < anchor_product * p ** (2 * (val - anchor_val)):
        return product, val
    return anchor


def chain(
    xi: PAdicNumber,
    norm: str,
    max_level: int | None = None,
    *,
    jump: bool = True,
) -> BestApproxChain:
    """Best-approximation chain of ``xi`` up to congruence level ``max_level``.

    The sup norm carries a reduced basis from level to level
    (:class:`SupWalk`); the product norm runs the continued-fraction walk
    of :func:`best_mult_pair` at each visited level.  With ``jump=True``
    the level counter advances past each certified valuation (and past
    provably rejected stretches in the multiplicative case, never beyond
    ``max_level``); ``jump=False`` visits every level and must produce the
    same chain, which the tests exploit.  The chain stops at the first
    censored pair; a record of the same height as that pair is dropped,
    since the censored pair reaches at least as deep.
    """
    _require_norm(norm)
    if max_level is None:
        max_level = xi.precision
    if not 1 <= max_level <= xi.precision:
        raise ValueError(
            f"max_level must be in [1, {xi.precision}], got {max_level}"
        )
    p = xi.p
    mult = norm == NORM_MULT
    walk = None if mult else SupWalk(xi)
    entries: list[ApproxPair] = []
    anchor = (1, 0)
    ceiling: int | None = None
    level = 1
    while level <= max_level:
        if walk is None:
            pair = best_mult_at_level(xi, level)
        else:
            walk.advance(level)
            pair = walk.best_pair()
        metric = _pair_metric(pair, norm)
        if not pair.val.is_exact:
            ceiling = pair.val.value
            if entries and _pair_metric(entries[-1], norm) == metric:
                entries.pop()
            break
        val = pair.val.value
        if val < level:
            raise AssertionError("level minimizer certifies less than its level")

        if mult and entries:
            required = _mult_required_valuation(p, anchor, metric)
            if val < required:
                # Levels up to ``val`` keep returning this pair and any pair
                # with a larger product needs at least ``required``; skip the
                # whole stretch, but visit ``max_level`` itself (or crawl when
                # jump is disabled).
                if not jump:
                    level += 1
                elif level < max_level:
                    level = min(required, max_level)
                else:
                    break
                continue

        if entries and metric < _pair_metric(entries[-1], norm):
            raise AssertionError("per-level minimum decreased")
        if not entries or val > entries[-1].val.value:
            if entries and _pair_metric(entries[-1], norm) == metric:
                # Same height but deeper valuation: the previous pair was
                # not a record after all.
                entries[-1] = pair
            else:
                entries.append(pair)
            if mult:
                anchor = _next_anchor(p, anchor, metric, val)
        level = val + 1 if jump else level + 1

    return BestApproxChain(
        p=p,
        norm=norm,
        max_level=max_level,
        entries=tuple(entries),
        precision_ceiling=ceiling,
    )


# ---------------------------------------------------------------------------
# Exhaustive oracles
# ---------------------------------------------------------------------------


def _centered_residues(t: int, p: int, levels: int, x_bound: int):
    """Yield (level, x) with x the centered residue of t mod p^level.

    When t vanishes mod p^level the minimal nonzero representatives are
    +-p^level, which are yielded instead.  The minimal nonzero magnitude is
    non-decreasing in the level, so the scan stops once it exceeds
    ``x_bound``.  On ties (residue exactly half the modulus, or zero) both
    signed representatives are yielded.
    """
    modulus = 1
    for level in range(1, levels + 1):
        modulus *= p
        rem = t % modulus
        if rem == 0:
            if modulus > x_bound:
                return
            yield level, modulus
            yield level, -modulus
            continue
        twice = 2 * rem
        if twice > modulus:
            rem -= modulus
        if abs(rem) > x_bound:
            return
        yield level, rem
        if twice == modulus:
            yield level, rem - modulus


def _ladder_pairs(
    xi: PAdicNumber, y: int, x_bound: int
) -> list[tuple[int, int]]:
    """Minimal-|x| representatives (x, y) of every valuation level."""
    if x_bound < 1:
        return []
    t = (y * xi.value) % xi.modulus
    return [
        (x, y)
        for _level, x in _centered_residues(t, xi.p, xi.precision, x_bound)
    ]


def _inverse_ladder_pairs(
    xi: PAdicNumber, product_bound: int, x_abs_bound: int
) -> list[tuple[int, int]]:
    """Pairs with small |x| found by inverting the congruence.

    Writing ``xi = p^w * eta`` with ``eta`` a unit, the pairs of valuation
    above ``w`` have ``x = p^w * u`` and ``y`` congruent to ``u / eta``; a
    centered-residue ladder on the inverse of ``eta`` lists the minimal-|y|
    representative of every level.  Pairs of valuation at most ``w`` have
    ``p^v | x`` and are already covered by ``y = 1``.
    """
    if xi.value == 0:
        return []
    p = xi.p
    w = pval(xi.value, p)
    unit_levels = xi.precision - w
    unit_modulus = p**unit_levels
    inverse = pow(xi.value // p**w, -1, unit_modulus)
    scale = p**w
    out = []
    for u in range(1, x_abs_bound // scale + 1):
        x = scale * u
        y_bound = product_bound // x
        if y_bound < 1:
            break
        t = (u * inverse) % unit_modulus
        for _level, y in _centered_residues(t, p, unit_levels, y_bound):
            if y > 0:
                out.append((x, y))
            elif y < 0:
                out.append((-x, -y))
    return out


def _extract_staircase(
    p: int, norm: str, raw_pairs: list[ApproxPair]
) -> tuple[tuple[ApproxPair, ...], int | None]:
    """Assemble chain entries from an exhaustive candidate list.

    Sorting by (metric, -valuation, tie key) makes a single sweep pick, for
    every metric value, the deepest pair first; a pair enters the chain when
    its valuation strictly exceeds everything accepted so far (and, for the
    multiplicative norm, survives the scaled-copy competition).
    """
    mult = norm == NORM_MULT

    def sort_key(pair: ApproxPair):
        return (
            _pair_metric(pair, norm),
            -pair.val.value,
            abs(pair.x),
            0 if pair.x > 0 else 1,
            pair.y,
        )

    entries: list[ApproxPair] = []
    anchor = (1, 0)
    ceiling: int | None = None
    max_val = 0
    for pair in sorted(raw_pairs, key=sort_key):
        if not pair.val.is_exact:
            # A censored valuation could hide a deeper record; stop here,
            # mirroring what the level walk does at its first censored pair.
            ceiling = pair.val.value
            break
        val = pair.val.value
        if val <= max_val:
            continue
        if mult:
            product = pair.height_mult_sq
            if entries and val < _mult_required_valuation(p, anchor, product):
                continue
            anchor = _next_anchor(p, anchor, product, val)
        entries.append(pair)
        max_val = val
    return tuple(entries), ceiling


def oracle_chain(xi: PAdicNumber, norm: str, bound: int) -> BestApproxChain:
    """Chain rebuilt by exhaustive enumeration, for cross-validation.

    ``bound`` limits the sup height (classical norm) or the product |x*y|
    (multiplicative norm).  Candidate pairs come from centered-residue
    ladders over every ``y`` (and, for the multiplicative norm, over every
    small ``|x|`` through the inverted congruence), so no walk machinery is
    shared with :func:`chain`.
    """
    _require_norm(norm)
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    seen: set[tuple[int, int]] = set()
    if norm == NORM_SUP:
        for y in range(1, bound + 1):
            seen.update(_ladder_pairs(xi, y, bound))
    else:
        for y in range(1, math.isqrt(bound) + 1):
            seen.update(_ladder_pairs(xi, y, bound // y))
        seen.update(_inverse_ladder_pairs(xi, bound, math.isqrt(bound)))
    raw = [
        make_pair(xi, x, y)
        for x, y in seen
        if math.gcd(x, y) == 1
    ]
    entries, ceiling = _extract_staircase(xi.p, norm, raw)
    return BestApproxChain(
        p=xi.p,
        norm=norm,
        max_level=xi.precision,
        entries=entries,
        precision_ceiling=ceiling,
    )


# ---------------------------------------------------------------------------
# Uniform minima
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformWitness:
    """Minimiser of |y*xi - x|_p over a height (or product) box."""

    norm: str
    bound: int
    valuation: int
    pair: ApproxPair
    exponent: float


def _witness_exponent(p: int, norm: str, valuation: int, bound: int) -> float:
    log_height = math.log(bound) / (2.0 if norm == NORM_MULT else 1.0)
    return valuation * math.log(p) / log_height


def uniform_minimum(
    xi: PAdicNumber,
    norm: str,
    bound: int,
    chain_: BestApproxChain | None = None,
) -> UniformWitness:
    """Exact minimum of |y*xi - x|_p over the box of size ``bound``.

    ``bound`` caps ``max(|x|, |y|)`` for the classical norm and the product
    ``|x * y|`` for the multiplicative norm.  The minimiser is either a
    chain entry or a p-power scaling of one, so the chain (computed on
    demand) answers the query without enumeration.
    """
    _require_norm(norm)
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    if chain_ is None:
        chain_ = chain(xi, norm)
    if chain_.norm != norm or chain_.p != xi.p:
        raise ValueError("chain does not match the requested norm and prime")
    p = xi.p
    mult = norm == NORM_MULT
    base = p * p if mult else p
    best_key = None
    best: tuple[ApproxPair, int, int] | None = None
    for pair in chain_.entries:
        metric = _pair_metric(pair, norm)
        if metric > bound:
            break
        m = ilog(bound // metric, base)
        val = pair.val.value + m
        scale = p**m
        scaled_metric = metric * (scale * scale if mult else scale)
        key = (
            -val,
            scaled_metric,
            abs(pair.x) * scale,
            0 if pair.x > 0 else 1,
            pair.y * scale,
        )
        if best_key is None or key < best_key:
            best_key = key
            best = (pair, m, val)
    if best is None:
        raise ValueError("bound lies below the first chain height")
    pair, m, val = best
    scale = p**m
    witness_pair = make_pair(xi, pair.x * scale, pair.y * scale)
    return UniformWitness(
        norm=norm,
        bound=bound,
        valuation=val,
        pair=witness_pair,
        exponent=_witness_exponent(p, norm, val, bound),
    )


def uniform_minimum_enum(
    xi: PAdicNumber, norm: str, bound: int
) -> UniformWitness:
    """Independent enumeration of the same box minimum (no chain involved).

    All integer pairs are admitted (coprimality plays no role in the box
    minimum), via centered-residue ladders; exact valuations come from the
    p-adic value of ``t - x`` where ``t`` is the reduced ``y * xi``.
    """
    _require_norm(norm)
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    p = xi.p
    mult = norm == NORM_MULT
    best_key = None
    best_xy: tuple[int, int] | None = None
    best_val: int | None = None

    def scan(x: int, y: int) -> None:
        nonlocal best_key, best_xy, best_val
        if y < 0:
            x, y = -x, -y
        val = linear_form_valuation(xi, x, y)
        if not val.is_exact:
            raise ValueError(
                "bound too large for this precision: censored valuation met"
            )
        metric = abs(x) * y if mult else max(abs(x), y)
        key = (-val.value, metric, abs(x), 0 if x > 0 else 1, y)
        if best_key is None or key < best_key:
            best_key = key
            best_xy = (x, y)
            best_val = val.value

    if mult:
        for y in range(1, math.isqrt(bound) + 1):
            for x, _ in _ladder_pairs(xi, y, bound // y):
                scan(x, y)
        for x, y in _inverse_ladder_pairs(xi, bound, math.isqrt(bound)):
            scan(x, y)
    else:
        for y in range(1, bound + 1):
            for x, _ in _ladder_pairs(xi, y, bound):
                scan(x, y)
    if best_xy is None or best_val is None:
        raise ValueError("no nonzero pair found inside the box")
    witness_pair = make_pair(xi, *best_xy)
    return UniformWitness(
        norm=norm,
        bound=bound,
        valuation=best_val,
        pair=witness_pair,
        exponent=_witness_exponent(p, norm, best_val, bound),
    )


# ---------------------------------------------------------------------------
# Chain CSV serialisation
# ---------------------------------------------------------------------------


def save_chain_csv(chain_: BestApproxChain, path: str) -> None:
    """Write chain entries as CSV (one row per pair, stable column order)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CHAIN_CSV_FIELDS)
        for k, pair in enumerate(chain_.entries):
            writer.writerow(
                [
                    k,
                    int_to_decimal(pair.x),
                    int_to_decimal(pair.y),
                    pair.val.value,
                    "true" if pair.val.is_exact else "false",
                    int_to_decimal(pair.height_sup),
                    int_to_decimal(pair.height_mult_sq),
                ]
            )


def load_chain_entries(path: str) -> tuple[ApproxPair, ...]:
    """Read chain entries back from CSV, validating every row.

    The file stores neither the prime nor the norm; callers supply those
    when they rebuild a :class:`BestApproxChain` around the entries.
    """
    entries: list[ApproxPair] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != CHAIN_CSV_FIELDS:
            raise ValueError(f"malformed chain CSV header in {path!r}")
        for row in reader:
            if len(row) != len(CHAIN_CSV_FIELDS):
                raise ValueError(f"malformed chain CSV row {row!r}")
            try:
                k = int(row[0])
                x = decimal_to_int(row[1])
                y = decimal_to_int(row[2])
                value = int(row[3])
                height_sup = decimal_to_int(row[5])
                height_mult_sq = decimal_to_int(row[6])
            except ValueError as exc:
                raise ValueError(f"malformed chain CSV row {row!r}") from exc
            if row[4] not in ("true", "false"):
                raise ValueError(f"malformed valuation_exact flag in {row!r}")
            if k != len(entries):
                raise ValueError(f"chain CSV rows out of order at {row!r}")
            if x == 0 or y <= 0:
                raise ValueError(f"invalid pair in chain CSV row {row!r}")
            if height_sup != max(abs(x), y) or height_mult_sq != abs(x) * y:
                raise ValueError(f"inconsistent heights in chain CSV row {row!r}")
            val = (
                Valuation.exact(value)
                if row[4] == "true"
                else Valuation.at_least(value)
            )
            entries.append(ApproxPair(x=x, y=y, val=val))
    return tuple(entries)


def chain_from_entries(
    p: int, norm: str, entries: tuple[ApproxPair, ...]
) -> BestApproxChain:
    """Wrap loaded entries in a chain object (for estimation from CSV)."""
    _require_norm(norm)
    max_level = entries[-1].val.value if entries else 1
    ceiling = None
    exact = entries
    if entries and not entries[-1].val.is_exact:
        ceiling = entries[-1].val.value
        exact = entries[:-1]
    return BestApproxChain(
        p=p,
        norm=norm,
        max_level=max_level,
        entries=exact,
        precision_ceiling=ceiling,
    )
