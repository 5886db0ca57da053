"""Best-approximation chains for truncated p-adic integers.

Two chain flavours are supported:

* classical chains minimise the sup height ``max(|x|, |y|)``;
* multiplicative chains minimise the product ``|x * y|``.

Per-level minimisers on the congruence lattices ``{(x, y) : x = y * xi
(mod p^v)}`` come from :mod:`padiclab.walk`: a reduced basis carried from
level to level for the sup norm (de Weger 1986; Kaib & Schnorr 1996), a
continued-fraction walk per visited level for the product norm.  Chains
assemble the minimisers into the staircase of record pairs
(strictly increasing heights and valuations).

The enumeration oracle rebuilds the same chains from scratch so the fast
path can be cross-validated: level by level it scans the box for the
smallest metric of a pair with at least that valuation (only up to the
smallest metric found so far), keeps the best pair of that metric, and
resumes at the next level the staircase allows.  ``uniform_minimum``
evaluates the uniform (min-over-a-box) side of the problem from a chain,
``uniform_minimum_enum`` by the same level search: run to the deepest
level on the box and on each box shrunk by a power of p, whose pairs it
scales back.
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
    int_repr,
    int_to_decimal,
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


# A chain's repr lists this many entries, then how many it leaves out.
_REPR_ENTRIES = 8


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
    the chain stops just before that pair, and ``ceiling_metric`` keeps the
    pair's height (or product), from which on box minima are unknown.
    """

    p: int
    norm: str
    max_level: int
    entries: tuple[ApproxPair, ...]
    precision_ceiling: int | None = None
    ceiling_metric: int | None = None

    @property
    def precision_limited(self) -> bool:
        return self.precision_ceiling is not None

    def metrics(self) -> tuple[int, ...]:
        return tuple(_pair_metric(pair, self.norm) for pair in self.entries)

    def __repr__(self) -> str:  # keep long chains and huge metrics out of tracebacks
        shown = ", ".join(repr(pair) for pair in self.entries[:_REPR_ENTRIES])
        if len(self.entries) > _REPR_ENTRIES:
            shown += f", ... {len(self.entries) - _REPR_ENTRIES} more"
        elif len(self.entries) == 1:
            shown += ","
        metric = None if self.ceiling_metric is None else int_repr(self.ceiling_metric)
        return (
            f"BestApproxChain(p={self.p}, norm={self.norm!r}, max_level={self.max_level}, "
            f"entries=({shown}), precision_ceiling={self.precision_ceiling}, "
            f"ceiling_metric={metric})"
        )


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
    (:class:`SupWalk`); the product norm runs the continued-fraction walk of
    :func:`best_mult_pair` at each visited level, scoring only large-quotient
    front pairs.  With ``jump=True`` the level counter advances past each
    certified valuation (and past provably rejected stretches in the
    multiplicative case, never beyond ``max_level``); ``jump=False`` visits
    every level and must produce the same chain, which the tests exploit.  The
    chain stops at the first censored pair; a record of the same height as that
    pair is dropped, since the censored pair reaches at least as deep.
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
    ceiling_metric: int | None = None
    level = 1
    while level <= max_level:
        if walk is None:
            pair = best_mult_at_level(xi, level)
        else:
            walk.advance(level)
            pair = walk.best_pair()
        metric = _pair_metric(pair, norm)
        if not pair.val.is_exact:
            ceiling, ceiling_metric = pair.val.value, metric
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
        ceiling_metric=ceiling_metric,
    )


# ---------------------------------------------------------------------------
# Exhaustive oracles
# ---------------------------------------------------------------------------


def _signed_residues(t: int, modulus: int) -> tuple[int, ...]:
    """Minimal-magnitude nonzero representatives of ``t`` in [0, modulus).

    +-modulus when t is 0, and both signs on the half-modulus tie.
    """
    if t == 0:
        return modulus, -modulus
    twice = 2 * t
    if twice < modulus:
        return (t,)
    if twice > modulus:
        return (t - modulus,)
    return t, t - modulus


def _unit_part(xi: PAdicNumber) -> tuple[int, int]:
    """(w, 1/eta mod p^(precision - w)) for xi = p^w * eta, eta a unit.

    (precision, 0) when xi vanishes to the precision.
    """
    p, n, value = xi.p, xi.precision, xi.value
    if value == 0:
        return n, 0
    w = pval(value, p)
    return w, pow(value // p**w, -1, p ** (n - w))


def _oracle_level(
    xi: PAdicNumber, mult: bool, level: int, bound: int, unit: tuple[int, int]
) -> tuple[int, tuple[int, int, bool, int]] | None:
    """Smallest metric M <= ``bound`` of the level-``level`` lattice, and its best key.

    The lattice is {x = y*xi (mod p^level), p not dividing y, x != 0}.  Per
    y only the centered residue can minimise the metric, so the scan keeps
    that one (both signs at +-p^level and on the half-modulus tie) and runs
    while y <= M (sup) or y^2 <= M (product) for the best M so far.  Above
    the zero levels, xi = p^w * eta with w = ``unit[0]``, every lattice x is
    p^w * u with y = u / eta (mod p^(level - w)); the product norm scans
    those x while x^2 <= M as well.  The key is (-val, |x|, x < 0, y), val
    read from (y*xi - x) mod p^precision; None when M exceeds ``bound``.

    Every pair of metric M is coprime (dividing out a common factor would
    lower the metric), and the scan offers it: a member of its residue
    class of smaller magnitude than x (or than y, for the product pairs
    that the x side of the scan finds) would lower the metric too.  The one
    gap would be a sup pair (x, M) with x off the centered residue, so
    |x| >= p^level / 2.  Then the residue r of y = 1 < M has
    |r| >= M >= p^level / 2, so xi vanishes mod p^level or p = 2 and
    v(xi) = level - 1.  Every |x| is then at least p^level or p^(level - 1),
    M is that power of p, and y = M is a multiple of p unless M = 1, where
    +-1 are the two tie members.  So the key picks the same pair as an
    enumeration over residue ladders.
    """
    p, n, value, full = xi.p, xi.precision, xi.value, xi.modulus
    modulus = p**level
    low = value % modulus
    best, top, key = bound + 1, bound, None

    def offer(metric: int, pairs) -> None:
        nonlocal best, top, key
        if metric < best:
            best = top = metric
            key = None
        for x, y in pairs:
            form = (y * value - x) % full
            k = (-(pval(form, p) if form else n), abs(x), x < 0, y)
            if key is None or k < key:
                key = k

    y = 1
    if not mult:
        while y <= top:
            if y % p:
                t = y * low % modulus
                size = modulus - t if 2 * t > modulus else t or modulus
                metric = size if size > y else y
                if metric <= top:
                    offer(metric, [(x, y) for x in _signed_residues(t, modulus)])
            y += 1
    else:
        while y * y <= top:
            if y % p:
                t = y * low % modulus
                size = modulus - t if 2 * t > modulus else t or modulus
                if size * y <= top:
                    offer(size * y, [(x, y) for x in _signed_residues(t, modulus)])
            y += 1
        w, inverse = unit
        if level > w:
            scale = p**w
            unit_modulus = modulus // scale
            inverse %= unit_modulus
            u = 1
            while (scale * u) ** 2 <= top:
                if u % p:
                    t = u * inverse % unit_modulus
                    size = unit_modulus - t if 2 * t > unit_modulus else t or unit_modulus
                    x = scale * u
                    if x * size <= top:
                        signed = _signed_residues(t, unit_modulus)
                        offer(x * size, [(x if s > 0 else -x, abs(s)) for s in signed])
                u += 1
    if best > bound:
        return None
    return best, key


def oracle_chain(xi: PAdicNumber, norm: str, bound: int) -> BestApproxChain:
    """Chain rebuilt by exhaustive search, for cross-validation.

    ``bound`` limits the sup height (classical norm) or the product |x*y|
    (multiplicative norm).  The search runs over levels: at level l,
    :func:`_oracle_level` scans the box for the smallest metric M_l of a
    pair with valuation at least l and, among the pairs of metric M_l, the
    best under the key (deeper valuation, smaller |x|, positive x, smaller
    y).  No walk machinery is shared with :func:`chain`.

    Entries follow the staircase rules of a sweep over the sorted metrics:
    a pair of valuation ``val`` is a record and the search resumes at level
    val + 1; a product pair that misses the required valuation against the
    anchor (:func:`_mult_required_valuation`) sends the search to that
    valuation, capped at the precision, since no pair of lower valuation can
    enter the chain any more.  The search stops when M_l exceeds ``bound``
    or at the first censored pair, whose level and metric set
    ``precision_ceiling`` and ``ceiling_metric``.  Only the entries and that
    censored pair are built with :func:`make_pair`, and their exact
    valuations must agree with the scan.  Memory stays constant in the box.
    """
    _require_norm(norm)
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    p, n = xi.p, xi.precision
    mult = norm == NORM_MULT
    unit = _unit_part(xi)
    entries: list[ApproxPair] = []
    anchor = (1, 0)
    ceiling: int | None = None
    ceiling_metric: int | None = None
    level = 1
    while level <= n:
        found = _oracle_level(xi, mult, level, bound, unit)
        if found is None:
            break
        metric, (neg_val, size, negative, y) = found
        val = -neg_val
        # p does not divide y, so a form vanishing to the precision is censored.
        censored = val == n
        if mult and entries and not censored:
            required = _mult_required_valuation(p, anchor, metric)
            if val < required:
                level = min(required, n)
                continue
        pair = make_pair(xi, -size if negative else size, y)
        if pair.val != Valuation(val, not censored):
            raise AssertionError("level search disagrees with the exact valuation")
        if censored:
            ceiling, ceiling_metric = val, metric
            break
        if mult:
            anchor = _next_anchor(p, anchor, metric, val)
        entries.append(pair)
        level = val + 1
    return BestApproxChain(
        p=p,
        norm=norm,
        max_level=n,
        entries=tuple(entries),
        precision_ceiling=ceiling,
        ceiling_metric=ceiling_metric,
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
    demand) answers the query without enumeration.  That needs the chain
    to run to the full precision, and the box to stay below the censored
    pair's metric: from there on the minimum is unknown.
    """
    _require_norm(norm)
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    if chain_ is None:
        chain_ = chain(xi, norm)
    if chain_.norm != norm or chain_.p != xi.p:
        raise ValueError("chain does not match the requested norm and prime")
    if chain_.max_level < xi.precision:
        raise ValueError(
            f"chain stops at level {chain_.max_level} below the precision "
            f"{xi.precision}; deeper pairs of the box are unknown"
        )
    if chain_.precision_ceiling is not None and (
        chain_.ceiling_metric is None or bound >= chain_.ceiling_metric
    ):
        raise ValueError(
            "bound too large for this precision: the box holds a censored pair"
        )
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
    """Independent search for the same box minimum (no chain involved).

    :func:`_oracle_level` scans only pairs with p not dividing y; three
    facts reduce the whole box to those.

    1. Censored boxes.  The box holds a censored pair exactly when
       :func:`_oracle_level` at level ``precision`` finds a pair in it, so
       exactly when the level search below ends on a hit of valuation
       ``precision``: a censored pair with p^e | y is p^e times a censored
       pair with p not dividing y, which sits in the same box.  Such a box
       raises, since its minimum is unknown.
    2. Every winner is a p-power scaling.  A box pair of valuation at
       least 1 with p | y also has p | x, so it is p times a pair of
       valuation one less; common factors prime to p only raise the metric.
       So for each m >= 0 with p^m <= bound (sup) or p^(2m) <= bound
       (product) the search runs over the box bound // p^m (or
       bound // p^(2m)), starting at level 1 and stepping to val + 1 until
       the level comes back empty.  The last hit, scaled by p^m, competes
       under the key (deeper valuation, smaller metric, smaller |x|,
       positive x, smaller y).
    3. A scaled valuation-0 base never wins.  Its metric is at least p^m
       (or p^(2m)), so at m - 1 the box bound // p^(m - 1) >= p (or p^2)
       holds a level-1 pair of metric at most p, through y = 1.  Scaled by
       p^(m - 1), that pair reaches at least as deep with a smaller or
       equal metric, and a smaller y on a tie.

    Only the winner is built with :func:`make_pair`, and its exact
    valuation must agree with the search.
    """
    _require_norm(norm)
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    p, n = xi.p, xi.precision
    mult = norm == NORM_MULT
    unit = _unit_part(xi)
    step = p * p if mult else p
    keys = []
    m, box = 0, bound
    while box:
        level, hit = 1, None
        while level <= n:
            found = _oracle_level(xi, mult, level, box, unit)
            if found is None:
                break
            hit = found
            level = 1 - found[1][0]
        if hit is None:  # nor does any smaller box hold a level-1 pair
            break
        metric, (neg_val, size, negative, y) = hit
        if neg_val == -n:
            raise ValueError(
                "bound too large for this precision: censored valuation met"
            )
        scale = p**m
        keys.append((neg_val - m, metric * step**m, size * scale, negative, y * scale))
        m += 1
        box //= step
    if not keys:
        raise ValueError("no nonzero pair found inside the box")
    neg_val, _, size, negative, y = min(keys)
    val = -neg_val
    witness_pair = make_pair(xi, -size if negative else size, y)
    if witness_pair.val != Valuation.exact(val):
        raise AssertionError("level search disagrees with the exact valuation")
    return UniformWitness(
        norm=norm,
        bound=bound,
        valuation=val,
        pair=witness_pair,
        exponent=_witness_exponent(p, norm, val, bound),
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
    ceiling = ceiling_metric = None
    exact = entries
    if entries and not entries[-1].val.is_exact:
        ceiling = entries[-1].val.value
        ceiling_metric = _pair_metric(entries[-1], norm)
        exact = entries[:-1]
    return BestApproxChain(
        p=p,
        norm=norm,
        max_level=max_level,
        entries=exact,
        precision_ceiling=ceiling,
        ceiling_metric=ceiling_metric,
    )
