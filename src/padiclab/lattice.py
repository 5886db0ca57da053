"""Best-approximation chains for truncated p-adic integers.

Two chain flavours are supported:

* classical chains minimise the sup height ``max(|x|, |y|)``;
* multiplicative chains minimise the product ``|x * y|``.

Per-level minimisers on the congruence lattices ``{(x, y) : x = y * xi
(mod p^v)}`` come from :mod:`padiclab.walk`: a reduced basis carried from
level to level for the sup norm (de Weger 1986; Kaib & Schnorr 1996), a
continued-fraction walk per visited level for the product norm.

The enumeration oracle cross-validates those minimisers with a search of
its own: level by level it scans the box for the smallest metric of a pair
with at least that valuation (only up to the smallest metric found so far)
and keeps the best pair of that metric.  Both chains assemble their
minimisers through one routine, ``_records``, into the staircase of record
pairs (strictly increasing heights and valuations).  ``uniform_minimum``
evaluates the uniform (min-over-a-box) side of the problem from a chain,
``uniform_minimum_enum`` by the same level search: run to the deepest
level on the box and on each box shrunk by a power of p, whose pairs it
scales back.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable
from dataclasses import dataclass

from .core import (
    ApproxPair,
    PAdicNumber,
    Valuation,
    decimal_to_int,
    ilog,
    int_to_decimal,
    is_prime,
    make_pair,
    pval,
    residue,
)
from .walk import SupWalk, best_mult_pair

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

    ``censored`` is the pair the search stopped at: the minimiser of some
    level whose valuation the truncation censors (only a lower bound is
    known).  Every pair of valuation at least that level has at least its
    metric, so box minima are known below that metric and unknown from it
    on.  A chain that met no censored pair knows nothing past its last entry.
    """

    p: int
    norm: str
    entries: tuple[ApproxPair, ...]
    censored: ApproxPair | None = None

    @property
    def precision_limited(self) -> bool:
        return self.censored is not None

    def metrics(self) -> tuple[int, ...]:
        return tuple(_pair_metric(pair, self.norm) for pair in self.entries)

    def __repr__(self) -> str:  # keep long chains and huge metrics out of tracebacks
        shown = ", ".join(repr(pair) for pair in self.entries[:_REPR_ENTRIES])
        if len(self.entries) > _REPR_ENTRIES:
            shown += f", ... {len(self.entries) - _REPR_ENTRIES} more"
        elif len(self.entries) == 1:
            shown += ","
        return (
            f"BestApproxChain(p={self.p}, norm={self.norm!r}, entries=({shown}), "
            f"censored={self.censored!r})"
        )


class Scalings:
    """The deepest valuation that p-power scalings of admitted pairs reach.

    Scaling a pair (metric M, valuation v) by p^m multiplies M by base^m
    (base p for the sup height, p^2 for the product) and deepens v by m, so
    inside a box B >= M it reaches v + floor(log_base(B / M)), which is
    floor(log_base(B * base^v / M)).  Over the start pair (1, ``val``) and
    every admitted pair, all of metric at most B, the maximum is reached at
    the anchor: the pair minimising M / base^v.  Metrics only grow along a
    chain, so :meth:`reach` reads one anchor.
    """

    def __init__(self, base: int, val: int = 0) -> None:
        self.base = base
        self.metric, self.val = 1, val

    def admit(self, metric: int, val: int) -> None:
        """Make ``(metric, val)`` the anchor if it beats the current one."""
        if val >= self.val:
            better = metric < self.metric * self.base ** (val - self.val)
        else:
            better = metric * self.base ** (self.val - val) < self.metric
        if better:
            self.metric, self.val = metric, val

    def reach(self, metric: int) -> int:
        """Deepest valuation a scaling reaches in the box ``metric``."""
        return self.val + ilog(metric // self.metric, self.base)


def _records(
    p: int, norm: str, max_level: int, minimiser: Callable[[int], ApproxPair | None]
) -> BestApproxChain:
    """The staircase of record pairs read off per-level minimisers.

    ``minimiser(level)`` returns the key-minimal pair of valuation at least
    ``level``, or None when the box holds none (which ends the chain).  A
    pair of valuation ``val`` is a record, replacing its predecessor when
    it has the same metric, and the search resumes at level val + 1.  A
    product pair must reach the valuation that p^2-power scalings of the
    records already reach in its box (:class:`Scalings`, equality is enough
    to enter the chain).  One that misses it sends the search to that
    valuation, capped at ``max_level``, since no pair of lower valuation
    can enter the chain any more; ``max_level`` itself is still visited.
    The chain stops at the first censored pair, which it keeps; a record of
    the same metric is dropped, since the censored pair reaches at least as
    deep.
    """
    mult = norm == NORM_MULT
    entries: list[ApproxPair] = []
    last = 0  # metric of entries[-1]
    scalings = Scalings(p * p)
    level = 1
    while level <= max_level:
        pair = minimiser(level)
        if pair is None:
            break
        metric = pair.height_mult_sq if mult else pair.height_sup
        val = pair.val.value
        if not pair.val.is_exact:
            if last == metric:
                entries.pop()
            return BestApproxChain(p, norm, tuple(entries), pair)
        if val < level:
            raise AssertionError("level minimizer certifies less than its level")
        if mult and entries:
            required = scalings.reach(metric)
            if val < required:
                # Levels up to ``val`` keep returning this pair and any pair
                # with a larger product needs at least ``required``.
                if level == max_level:
                    break
                level = min(required, max_level)
                continue
        if metric < last:
            raise AssertionError("per-level minimum decreased")
        if metric == last:
            # Same metric but deeper valuation: the previous pair was not a
            # record after all.  It stays admitted to ``scalings``, where
            # its replacement beats it.
            entries[-1] = pair
        else:
            entries.append(pair)
            last = metric
        if mult:
            scalings.admit(metric, val)
        level = val + 1
    return BestApproxChain(p, norm, tuple(entries))


def chain(xi: PAdicNumber, norm: str, max_level: int | None = None) -> BestApproxChain:
    """Best-approximation chain of ``xi`` up to congruence level ``max_level``.

    The sup norm carries a reduced basis from level to level
    (:class:`SupWalk`); the product norm runs the continued-fraction walk of
    :func:`best_mult_pair` at each visited level, scoring only large-quotient
    front pairs.  :func:`_records` assembles the staircase.
    """
    _require_norm(norm)
    if max_level is None:
        max_level = xi.precision
    if not 1 <= max_level <= xi.precision:
        raise ValueError(
            f"level must be in [1, {xi.precision}] for this truncation, got {max_level}"
        )
    if norm == NORM_MULT:

        def minimiser(level: int) -> ApproxPair:
            x, y = best_mult_pair(xi.p, xi.p**level, residue(xi, level))
            return make_pair(xi, x, y)

    else:
        walk = SupWalk(xi)

        def minimiser(level: int) -> ApproxPair:
            walk.advance(level)
            return walk.best_pair()

    return _records(xi.p, norm, max_level, minimiser)


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
    y); the level comes back empty when M_l exceeds ``bound``.  Each found
    pair is built with :func:`make_pair`, and its exact valuation must agree
    with the scan.  Memory stays constant in the box.

    :func:`_records` assembles the staircase, as for :func:`chain`, so the
    two agree unless the per-level searches differ.  The staircase rules are
    checked against two that share no code with the package: the tests'
    sweep over the sorted metrics of every ladder candidate, and their crawl
    over every level.
    """
    _require_norm(norm)
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    n = xi.precision
    mult = norm == NORM_MULT
    unit = _unit_part(xi)

    def minimiser(level: int) -> ApproxPair | None:
        found = _oracle_level(xi, mult, level, bound, unit)
        if found is None:
            return None
        neg_val, size, negative, y = found[1]
        pair = make_pair(xi, -size if negative else size, y)
        # p does not divide y, so a form vanishing to the precision is censored.
        if pair.val != Valuation(-neg_val, neg_val != -n):
            raise AssertionError("level search disagrees with the exact valuation")
        return pair

    return _records(xi.p, norm, n, minimiser)


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


def _box_witness(
    xi: PAdicNumber, norm: str, bound: int, key: tuple[int, int, int, bool, int]
) -> UniformWitness:
    """The witness of the box minimum keyed (-val, metric, |x|, x < 0, y)."""
    neg_val, _, size, negative, y = key
    val = -neg_val
    pair = make_pair(xi, -size if negative else size, y)
    if pair.val != Valuation.exact(val):
        raise AssertionError("box minimum disagrees with the exact valuation")
    log_height = math.log(bound) / (2.0 if norm == NORM_MULT else 1.0)
    return UniformWitness(norm, bound, val, pair, val * math.log(xi.p) / log_height)


def uniform_minimum(
    xi: PAdicNumber, chain_: BestApproxChain, bound: int
) -> UniformWitness:
    """Exact minimum of |y*xi - x|_p over the box of size ``bound``.

    ``bound`` caps ``max(|x|, |y|)`` for the chain's classical norm and the
    product ``|x * y|`` for its multiplicative norm.  The minimiser is
    either a chain entry or a p-power scaling of one, so the chain answers
    the query without enumeration.  That needs the chain to have met its
    censored pair, and the box to stay below that pair's metric: from there
    on the minimum is unknown.
    """
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    if chain_.p != xi.p:
        raise ValueError("chain does not match the prime of the number")
    norm = chain_.norm
    if chain_.censored is None:
        raise ValueError(
            "chain met no censored pair: boxes past its last entry are unknown"
        )
    if bound >= _pair_metric(chain_.censored, norm):
        raise ValueError(
            "bound too large for this precision: the box holds a censored pair"
        )
    p = xi.p
    base = p * p if norm == NORM_MULT else p
    keys = []
    for pair in chain_.entries:
        metric = _pair_metric(pair, norm)
        if metric > bound:
            break
        m = ilog(bound // metric, base)
        scale = p**m
        size, y = abs(pair.x) * scale, pair.y * scale
        keys.append((-pair.val.value - m, metric * base**m, size, pair.x < 0, y))
    if not keys:
        raise ValueError("bound lies below the first chain height")
    return _box_witness(xi, norm, bound, min(keys))


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
    return _box_witness(xi, norm, bound, min(keys))


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
    """Wrap loaded entries in a chain object (for estimation from CSV).

    Valuations must be nonnegative, and the exact entries must form a
    staircase in ``norm``: strictly increasing metrics and valuations, as
    every chain has.  A censored last entry becomes the chain's ``censored``
    pair; no other entry may be censored.  Consecutive exact entries must
    also agree with ``p``: their determinant x_k y_(k+1) - x_(k+1) y_k
    equals y_k(y_(k+1) xi - x_(k+1)) - y_(k+1)(y_k xi - x_k), so true
    valuations make it a multiple of p^(v_k).  It is nonzero, because
    proportional pairs with p not dividing y have the same valuation.
    """
    _require_norm(norm)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if any(e.val.value < 0 for e in entries):
        raise ValueError("chain entries must have nonnegative valuations")
    exact, censored = entries, None
    if entries and not entries[-1].val.is_exact:
        exact, censored = entries[:-1], entries[-1]
    if not all(e.val.is_exact for e in exact):
        raise ValueError("only the last chain entry may have a censored valuation")
    result = BestApproxChain(p, norm, exact, censored)
    metrics = result.metrics()
    for k in range(1, len(exact)):
        if metrics[k] <= metrics[k - 1] or exact[k].val.value <= exact[k - 1].val.value:
            raise ValueError(
                f"chain entries {k - 1} and {k} are not a {norm} staircase: "
                "metrics and valuations must strictly increase"
            )
    power, level = 1, 0  # power = p**level, raised as the valuations grow
    for k in range(1, len(exact)):
        a, b = exact[k - 1], exact[k]
        power *= p ** (a.val.value - level)
        level = a.val.value
        det = a.x * b.y - b.x * a.y
        if det == 0 or det % power:
            raise ValueError(
                f"chain entries {k - 1} and {k} contradict p = {p}: their "
                f"determinant is not a nonzero multiple of p^{level}"
            )
    return result
