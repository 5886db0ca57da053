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
path can be cross-validated: it streams centered-residue ladders, reads
each candidate's valuation off the length of its run (a residue that holds
through level L and changes at L + 1 has valuation L), keeps the best
candidate per metric and builds pairs only for the staircase.
``uniform_minimum`` evaluates the uniform (min-over-a-box) side of the
problem from a chain, ``uniform_minimum_enum`` from the same ladders.
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


def _ladder_runs(t: int, p: int, levels: int, bound: int):
    """Yield (x, last) for every centered residue x of t mod p^level.

    Levels run from 1 to ``levels``.  When t vanishes mod p^level the
    minimal nonzero representatives +-p^level stand in, and on a tie
    (residue exactly half the modulus) both signed representatives appear.
    The minimal nonzero magnitude never decreases with the level, so the
    scan stops once it exceeds ``bound``.

    A value x stays on the ladder from its first level through ``last``:
    at every later level l it is a residue exactly when t = x (mod p^l),
    because |x| <= p^l / 2 there.  So ``last`` is v_p(t - x) when that is
    below ``levels``, and ``levels`` when t = x (mod p^levels).
    """
    run: tuple[int, ...] = ()
    modulus = 1
    for level in range(1, levels + 1):
        modulus *= p
        rem = t % modulus
        if rem == 0:
            if modulus > bound:
                break
            now = (modulus, -modulus)
        else:
            twice = 2 * rem
            if twice > modulus:
                rem -= modulus
            if abs(rem) > bound:
                break
            now = (rem, rem - modulus) if twice == modulus else (rem,)
        if now != run:
            for x in run:
                if x not in now:
                    yield x, level - 1
            run = now
    else:
        level = levels + 1
    for x in run:
        yield x, level - 1


def _ladder_candidates(xi: PAdicNumber, norm: str, bound: int):
    """Yield (x, y, val), y > 0, for every ladder pair of the box ``bound``.

    The sup box scans every y up to ``bound``.  The product box scans
    y <= sqrt(bound), and every small |x| through the inverted congruence:
    writing xi = p^w * eta with eta a unit, pairs of valuation above w have
    x = p^w * u and y = u / eta (mod p^(precision - w)), whose ladder lists
    the minimal-|y| representative of every level; pairs of valuation at
    most w have p^v | x and are already covered by y = 1.

    ``val`` is v_p(y*xi - x) read off the run: the run's last level on the
    ladder of y*xi, or w plus it on the inverted ladder.  ``val`` equals
    the precision when the form vanishes to full precision, which censors
    it unless p divides y.
    """
    p, n, value, modulus = xi.p, xi.precision, xi.value, xi.modulus
    if norm == NORM_SUP:
        for y in range(1, bound + 1):
            for x, last in _ladder_runs(y * value % modulus, p, n, bound):
                yield x, y, last
        return
    root = math.isqrt(bound)
    for y in range(1, root + 1):
        for x, last in _ladder_runs(y * value % modulus, p, n, bound // y):
            yield x, y, last
    if value == 0:
        return
    w = pval(value, p)
    scale = p**w
    unit_modulus = modulus // scale
    inverse = pow(value // scale, -1, unit_modulus)
    for u in range(1, root // scale + 1):
        x = scale * u
        t = u * inverse % unit_modulus
        for y, last in _ladder_runs(t, p, n - w, bound // x):
            if y > 0:
                yield x, y, w + last
            else:
                yield -x, -y, w + last


def oracle_chain(xi: PAdicNumber, norm: str, bound: int) -> BestApproxChain:
    """Chain rebuilt by exhaustive enumeration, for cross-validation.

    ``bound`` limits the sup height (classical norm) or the product |x*y|
    (multiplicative norm).  Candidates stream from the ladders of
    :func:`_ladder_candidates`, each with the valuation of its run, so no
    walk machinery is shared with :func:`chain`.

    Only the best coprime candidate of each metric is kept, under the key
    (deeper valuation, smaller |x|, positive x, smaller y).  That suffices:
    any other pair of the same metric reaches no deeper, so the sweep's
    valuation test (or the product norm's required-valuation test against
    the same anchor) rejects it as well.  The sweep over the sorted metrics
    stops at the first censored one.  Only the survivors and that censored
    pair are built with :func:`make_pair`, and their exact valuations must
    agree with the runs.
    """
    _require_norm(norm)
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    p, n = xi.p, xi.precision
    mult = norm == NORM_MULT
    best: dict[int, tuple[int, int, bool, int]] = {}
    for x, y, val in _ladder_candidates(xi, norm, bound):
        size = abs(x)
        metric = size * y if mult else max(size, y)
        key = (-val, size, x < 0, y)
        held = best.get(metric)
        if (held is None or key < held) and math.gcd(x, y) == 1:
            best[metric] = key

    entries: list[ApproxPair] = []
    anchor = (1, 0)
    ceiling: int | None = None
    ceiling_metric: int | None = None
    max_val = 0
    for metric in sorted(best):
        neg_val, size, negative, y = best[metric]
        val = -neg_val
        # A coprime ladder pair has p not dividing y, so a run that reaches
        # the precision is censored.
        censored = val == n
        if not censored:
            if val <= max_val:
                continue
            if mult and entries and val < _mult_required_valuation(p, anchor, metric):
                continue
        pair = make_pair(xi, -size if negative else size, y)
        if pair.val != Valuation(val, not censored):
            raise AssertionError("ladder run disagrees with the exact valuation")
        if censored:
            ceiling, ceiling_metric = val, metric
            break
        if mult:
            anchor = _next_anchor(p, anchor, metric, val)
        entries.append(pair)
        max_val = val
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
    """Independent enumeration of the same box minimum (no chain involved).

    All ladder pairs are admitted (coprimality plays no role in the box
    minimum), and each valuation is read off its run.  When p^e divides y
    the form is known modulo p^(precision + e), so a run reaching the
    precision may still carry an exact valuation: only those pairs pay for
    :func:`linear_form_valuation`.  A censored valuation inside the box
    raises, since the minimum is then unknown.
    """
    _require_norm(norm)
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    p, n = xi.p, xi.precision
    mult = norm == NORM_MULT
    best_key = None
    for x, y, val in _ladder_candidates(xi, norm, bound):
        if val == n:
            exact = linear_form_valuation(xi, x, y)
            if not exact.is_exact:
                raise ValueError(
                    "bound too large for this precision: censored valuation met"
                )
            val = exact.value
        size = abs(x)
        key = (-val, size * y if mult else max(size, y), size, x < 0, y)
        if best_key is None or key < best_key:
            best_key = key
            best_xy = (x, y)
    if best_key is None:
        raise ValueError("no nonzero pair found inside the box")
    val = -best_key[0]
    witness_pair = make_pair(xi, *best_xy)
    if witness_pair.val != Valuation.exact(val):
        raise AssertionError("ladder run disagrees with the exact valuation")
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
