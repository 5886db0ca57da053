"""Best-approximation chains for truncated p-adic integers.

Two chain flavours are supported:

* classical chains minimise the sup height ``max(|x|, |y|)``;
* multiplicative chains minimise the product ``|x * y|``.

Per-level minimisers on the congruence lattices ``{(x, y) : x = y * xi
(mod p^v)}`` come from :mod:`padiclab.walk`: a reduced basis carried from
level to level for the sup norm (de Weger 1986; Kaib & Schnorr 1996), a
continued-fraction walk per visited level for the product norm.

The enumeration oracle, ``oracle_chain``, cross-validates those minimisers
with a level search of its own.  Both chains assemble their minimisers
through one routine, ``_records``, into the staircase of record pairs
(strictly increasing heights and valuations).  The uniform (min-over-a-box)
side of the problem is ``uniform_minimum``, which reads a box off any chain
that knows it: the walk's chain below its censored pair, or an oracle chain
up to the box it searched, as ``uniform_minimum_enum`` does.
"""

from __future__ import annotations

import csv
import decimal
import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace

from .core import (
    ApproxPair,
    PAdicNumber,
    Valuation,
    decimal_to_int,
    exact_decimal_context,
    from_rational,
    ilog,
    int_to_decimal,
    is_prime,
    make_pair,
    mod_power,
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


def _require_int_bound(bound: int) -> None:
    # bool is an int subclass, but True is no box.
    if isinstance(bound, bool) or not isinstance(bound, int):
        raise ValueError(f"bound must be an int, got {bound!r}")


def _pair_metric(pair: ApproxPair, norm: str) -> int:
    return pair.height_mult_sq if norm == NORM_MULT else pair.height_sup


@dataclass(frozen=True)
class BestApproxChain:
    """A finite chain of best-approximation pairs for one norm.

    ``censored`` is the pair the search stopped at: the minimiser of some
    level whose valuation the truncation censors (only a lower bound is
    known).  Every pair of valuation at least that level has at least its
    metric, so box minima are known below that metric and unknown from it
    on.

    ``box`` is the bound an oracle search ran in (None on other chains).  A
    level search comes back empty only past it, so an oracle chain holds
    every record of metric <= ``box``, and it meets a censored pair exactly
    when the box holds one (p^e times a censored pair with p not dividing y,
    which lies in the box and on every level): it knows every box up to
    ``box``.  A chain with neither knows nothing past its last entry.
    Equality and repr ignore ``box``, which records how a chain was found.
    """

    p: int
    norm: str
    entries: tuple[ApproxPair, ...]
    censored: ApproxPair | None = None
    box: int | None = field(default=None, compare=False, repr=False)

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
    (:class:`SupWalk`); the product norm runs :func:`best_mult_pair` at each
    visited level, with the unit part of xi (:func:`_unit_part`, one inverse
    per chain) from which it recovers y.  :func:`_records` assembles the
    staircase.
    """
    _require_norm(norm)
    if max_level is None:
        max_level = xi.precision
    if not 1 <= max_level <= xi.precision:
        raise ValueError(
            f"level must be in [1, {xi.precision}] for this truncation, got {max_level}"
        )
    if norm == NORM_MULT:
        unit = _unit_part(xi)

        def minimiser(level: int) -> ApproxPair:
            x, y = best_mult_pair(xi.p, xi.p**level, residue(xi, level), unit)
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
    """(w, 1/eta mod p^(n - w)) for xi = p^w * eta, eta a unit; (n, 0) for xi = 0."""
    p, n, value = xi.p, xi.precision, xi.value
    if value == 0:
        return n, 0
    w = pval(value, p)
    return w, from_rational(p, 1, value // p**w, n - w).value


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

    The three scans share one generator, ``scan(c, m, scale)``, which yields
    (z, t(z)) with t(z) = z*c mod m in increasing z up to the scan limit L:
    M for the sup norm, the largest z with (scale*z)^2 <= M for the product
    (scale p^w on the x side, 1 otherwise).  A scan keeps z only when the
    centered residue of t(z) has magnitude at most the window W: M (sup) or
    M // (scale*z) (product); magnitude m when t(z) is 0.  Baby steps
    (Shanks 1971) yield every z while z^2 <= L and record t(z).  K, the
    first z past them, cuts the rest into blocks [jK, (j + 1)K), searched
    with the identity t(jK + a) = t(jK) + t(a) (mod m): a residue within W
    of 0 on the circle mod m needs t(a) within W of -t(jK), and two
    bisections of the baby residues, sorted once, find every such a (every
    a when 2W + 1 >= m).  W is read at the block's first z, where it is
    largest, and M only shrinks, so each block yields a superset of the z
    that pass; each is tested exactly as in a scan of every z, so M and the
    key are the same.  A scan costs O(sqrt(L) log L) steps and O(sqrt(L))
    memory, plus one step per yielded z.

    The zero levels, level <= w, need no scan.  There every residue is 0,
    so every lattice x is a nonzero multiple of p^level and M = p^level in
    both norms (None when that exceeds ``bound``).  The pairs of that
    metric are (+-p^level, y) with y <= p^level for the sup norm and
    (+-p^level, 1) for the product, so |x| = p^level in every key.
    Write x = s*p^level with s = +-1.

    * Below w, y*xi vanishes mod p^(level + 1), so the form y*xi - x has
      valuation exactly level.  When xi vanishes to the precision
      (w = n), the form is -x mod p^n: valuation level below n, censored
      at n on level n.  Either way all pairs tie on the valuation, and
      (p^level, 1) wins with the key (-level, p^level, False, 1).
    * At level w < n, y*xi - s*p^w = p^w (y*eta - s), so the valuation
      is w + k with k = v(y - T) capped at n - w (censored at the cap),
      where T = s/eta mod p^(n - w), read from ``unit[1]``.  The product
      pair has y = 1.  A sup y <= p^w reaches k exactly when
      y = T (mod p^k), and the least positive such y is T mod p^k, a unit
      because T is.  For k <= w it lies below p^w.  For k > w it is
      (T mod p^w) + p^w * (the digits w .. k - 1 of T), at most p^w only
      when those digits vanish.  So the deepest k is n - w when T < p^w,
      as it is whenever n - w <= w, and then y = T.  Otherwise it is
      w + v(floor(T / p^w)), below n - w since T < p^(n - w).  Of the two
      signs the deeper key wins, and x > 0 on a tie.  A level costs O(1)
      big-integer operations.

    Every pair of metric M is coprime (dividing out a common factor would
    lower the metric), and the scan offers it: a member of its residue
    class of smaller magnitude than x (or than y, for the product pairs
    that the x side of the scan finds) would lower the metric too.  The one
    gap would be a sup pair (x, M) with x off the centered residue, so
    |x| >= p^level / 2.  Then the residue r of y = 1 < M has
    |r| >= M >= p^level / 2.  Above the zero levels r is not 0, so p = 2
    and v(xi) = level - 1.  Every |x| is then at least p^(level - 1) and
    M <= |r| = p^(level - 1), so M is that power of p, and y = M is a
    multiple of p unless M = 1, where +-1 are the two tie members.  So the
    key picks the same pair as an enumeration over residue ladders.
    """
    p, n, value, full = xi.p, xi.precision, xi.value, xi.modulus
    modulus = p**level
    w, inverse = unit
    if level <= w:
        if modulus > bound:
            return None
        if level < w or w == n:
            return modulus, (-level, modulus, False, 1)
        unit_modulus = p ** (n - w)
        keys = []
        for t, negative in ((inverse, False), (unit_modulus - inverse, True)):
            if mult:
                k, y = (n - w if t == 1 else pval(t - 1, p)), 1
            elif t < modulus:
                k, y = n - w, t
            else:
                k = w + pval(t // modulus, p)
                y = mod_power(t, p, k)
            keys.append((-(w + k), modulus, negative, y))
        return modulus, min(keys)
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

    def scan(c: int, m: int, scale: int = 1) -> Iterator[tuple[int, int]]:
        # Baby steps, then giant blocks of length K = z, as described above.
        residues = [0]  # t(a) for 0 <= a < K
        z, t = 1, c % m
        stop = math.isqrt(top) // scale if mult else top
        while z * z <= stop:
            yield z, t
            residues.append(t)
            z += 1
            t = (t + c) % m
            stop = math.isqrt(top) // scale if mult else top
        order = sorted(range(z), key=residues.__getitem__)
        keys = [residues[a] for a in order]
        base, shift, step = z, t, t
        while base <= stop:
            width = top // (scale * base) if mult else top
            if 2 * width + 1 >= m:
                hits: list[int] | range = range(z)
            else:
                first = (-shift - width) % m
                last = first + 2 * width
                hits = order[bisect_left(keys, first) : bisect_right(keys, last)]
                if last >= m:
                    hits += order[: bisect_right(keys, last - m)]
                hits.sort()
            for a in hits:
                if base + a > stop:
                    return
                yield base + a, (shift + residues[a]) % m
                stop = math.isqrt(top) // scale if mult else top
            base += z
            shift = (shift + step) % m

    if not mult:
        for y, t in scan(low, modulus):
            if y % p:
                size = modulus - t if 2 * t > modulus else t or modulus
                metric = size if size > y else y
                if metric <= top:
                    offer(metric, [(x, y) for x in _signed_residues(t, modulus)])
    else:
        for y, t in scan(low, modulus):
            if y % p:
                size = modulus - t if 2 * t > modulus else t or modulus
                if size * y <= top:
                    offer(size * y, [(x, y) for x in _signed_residues(t, modulus)])
        scale = p**w
        unit_modulus = modulus // scale
        for u, t in scan(inverse, unit_modulus, scale):
            if u % p:
                size = unit_modulus - t if 2 * t > unit_modulus else t or unit_modulus
                x = scale * u
                if x * size <= top:
                    signed = _signed_residues(t, unit_modulus)
                    offer(x * size, [(x if s > 0 else -x, abs(s)) for s in signed])
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
    with the scan.  A level up to v_p(xi) costs O(1) big-integer operations;
    one above, whose scans run up to L <= ``bound``, O(sqrt(L) log L) steps
    and O(sqrt(L)) memory, plus one per candidate.  ``bound`` must be an int.

    :func:`_records` assembles the staircase, as for :func:`chain`, so the
    two agree unless the per-level searches differ; the chain records
    ``bound`` as its ``box``.  The staircase rules are checked against two
    that share no code with the package: the tests' sweep over the sorted
    metrics of every ladder candidate, and their crawl over every level.
    """
    _require_norm(norm)
    _require_int_bound(bound)
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

    return replace(_records(xi.p, norm, n, minimiser), box=bound)


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


def uniform_minimum(
    xi: PAdicNumber, chain_: BestApproxChain, bound: int
) -> UniformWitness:
    """Exact minimum of |y*xi - x|_p over the box of size ``bound``.

    ``bound`` caps ``max(|x|, |y|)`` for the chain's classical norm and the
    product ``|x * y|`` for its multiplicative norm; it must be an int.  The
    chain must know the box: below its censored pair's metric, or else up to
    its ``box`` (:class:`BestApproxChain`).  The minimiser is the deepest
    p-power scaling of an entry of metric <= ``bound``; scalings compete
    under the key (deeper valuation, smaller metric, smaller |x|, positive
    x, smaller y).  Given every record of metric <= ``bound``, this is the
    box minimum: records beat all other pairs with p not dividing y and
    valuation >= 1, and no other pair wins.

    * A box pair of valuation >= 1 with p | y also has p | x: it is p times
      a pair of valuation one less, and common factors prime to p only
      raise the metric.  So every winner scales a pair with p not dividing y.
    * A valuation-0 base scaled by p^m never wins: its metric is at least
      p^m (or p^(2m)), so the box holds p^(m - 1) times the level-1 pair
      (y = 1, metric <= p), as deep or deeper, no larger and of smaller y.
    """
    _require_int_bound(bound)
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    if chain_.p != xi.p:
        raise ValueError("chain does not match the prime of the number")
    p, norm = xi.p, chain_.norm
    if chain_.censored is not None:
        if bound >= _pair_metric(chain_.censored, norm):
            raise ValueError(
                "bound too large for this precision: the box holds a censored pair"
            )
    elif chain_.box is None or bound > chain_.box:
        past = "its last entry" if chain_.box is None else f"its box {chain_.box}"
        raise ValueError(f"chain met no censored pair: boxes past {past} are unknown")
    base = p * p if norm == NORM_MULT else p
    keys = []
    for pair in chain_.entries:
        metric = _pair_metric(pair, norm)
        if metric > bound:
            break
        m = ilog(bound // metric, base)
        size, y = abs(pair.x) * p**m, pair.y * p**m
        keys.append((-pair.val.value - m, metric * base**m, size, pair.x < 0, y))
    if not keys:
        raise ValueError("no nonzero pair: bound lies below the first chain height")
    neg_val, _, size, negative, y = min(keys)
    val = -neg_val
    pair = make_pair(xi, -size if negative else size, y)
    if pair.val != Valuation.exact(val):
        raise AssertionError("box minimum disagrees with the exact valuation")
    log_height = math.log(bound) / (2.0 if norm == NORM_MULT else 1.0)
    return UniformWitness(norm, bound, val, pair, val * math.log(p) / log_height)


def uniform_minimum_enum(xi: PAdicNumber, norm: str, bound: int) -> UniformWitness:
    """The same box minimum read off the oracle chain (no walk involved).

    :func:`oracle_chain` searches the box once and records it, so
    :func:`uniform_minimum` reads it exactly.  ``bound`` must be an int.
    """
    _require_norm(norm)
    _require_int_bound(bound)
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    return uniform_minimum(xi, oracle_chain(xi, norm, bound), bound)


# ---------------------------------------------------------------------------
# Chain CSV serialisation
# ---------------------------------------------------------------------------


def save_chain_csv(chain_: BestApproxChain, path: str) -> None:
    """Write chain entries as CSV (one row per pair, stable column order).

    The bytes are those of ``csv.writer``'s default dialect: fields joined
    by commas and rows ended by CRLF.  No field needs quoting, since every
    field is an integer or ``true``/``false``, so no row is scanned for it.
    The sup height is the text of |x| or y.  The product height is
    ``decimal``'s exact product of the two texts, so no product is formed
    as an integer and converted to text.
    """
    context = exact_decimal_context()
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(CHAIN_CSV_FIELDS) + "\r\n")
        for k, pair in enumerate(chain_.entries):
            x = int_to_decimal(pair.x)
            y = int_to_decimal(pair.y)
            size = x.lstrip("-")
            sup = size if abs(pair.x) >= pair.y else y
            mult = str(context.multiply(decimal.Decimal(size), decimal.Decimal(y)))
            flag = "true" if pair.val.is_exact else "false"
            handle.write(f"{k},{x},{y},{pair.val.value},{flag},{sup},{mult}\r\n")


def _csv_rows(handle) -> Iterator[list[str]]:
    """The rows ``csv.reader(handle)`` gives, for a file opened with newline="".

    In the default dialect a line without a quote is its cells split on
    commas, so only a line with one goes to ``csv.reader``, which reads on
    from the handle while a quoted cell holds a line break.  Lines are read
    one at a time, never the whole file.  ``csv.reader``'s own refusals (a
    cell past its field size limit, say) become ValueError naming the row.
    """
    for k, line in enumerate(handle, -1):  # the header is k = -1
        if '"' in line:

            def rest() -> Iterator[str]:
                yield line
                yield from handle

            try:
                row = next(csv.reader(rest()))
            except csv.Error as error:
                where = "header" if k < 0 else f"row at k = {k}"
                raise ValueError(f"malformed chain CSV {where}: {error}") from None
            yield row
        else:
            text = line.rstrip("\r\n")
            yield text.split(",") if text else []


def _parses(cell: str) -> bool:
    try:
        decimal_to_int(cell)
    except ValueError:
        return False
    return True


def _row_error(message: str, k: int, row: list[str], column: int) -> ValueError:
    """A refusal naming the row's k and the cell, cut to 32 characters."""
    name, cell = CHAIN_CSV_FIELDS[column], row[column][:32]
    return ValueError(f"{message} at k = {k}, column {name!r}: {cell!r}")


def load_chain_entries(path: str) -> tuple[ApproxPair, ...]:
    """Read chain entries back from CSV, validating every row.

    Rows are read as ``csv.reader`` reads them.  Row k must have seven
    cells, k in its ``k`` cell and ``true`` or ``false`` as its flag.  The
    integer cells (k, x, y, valuation and the product height) follow
    :func:`padiclab.core.decimal_to_int`'s one grammar; x must be nonzero,
    y positive and the valuation nonnegative.  The sup height is accepted as
    text when it equals the text of |x| or of y, whichever is larger;
    otherwise it is parsed and compared with max(|x|, y) as an integer.
    The product height is parsed and compared with |x|*y.  A refusal names
    the row's k and the column, with its cell cut to 32 characters.

    The file stores neither the prime nor the norm; callers supply those
    when they rebuild a :class:`BestApproxChain` around the entries.
    """
    entries: list[ApproxPair] = []
    with open(path, newline="", encoding="utf-8") as handle:
        rows = _csv_rows(handle)
        header = next(rows, None)
        if header is None or tuple(header) != CHAIN_CSV_FIELDS:
            raise ValueError(f"malformed chain CSV header in {path!r}")
        for row in rows:
            index = len(entries)
            if len(row) != len(CHAIN_CSV_FIELDS):
                raise ValueError(
                    f"malformed chain CSV row at k = {index}: {len(row)} cells, "
                    f"expected {len(CHAIN_CSV_FIELDS)}"
                )
            try:
                k, x, y, value = map(decimal_to_int, row[:4])
                height_mult_sq = decimal_to_int(row[6])
                sup = max(abs(x), y)
                larger = row[1].lstrip("+-") if abs(x) >= y else row[2]
                height_sup = sup if row[5] == larger else decimal_to_int(row[5])
            except ValueError:
                column = next(c for c in (0, 1, 2, 3, 5, 6) if not _parses(row[c]))
                raise _row_error("malformed chain CSV row", index, row, column) from None
            if row[4] not in ("true", "false"):
                message = "malformed valuation_exact flag in chain CSV row"
                raise _row_error(message, index, row, 4)
            if k != index:
                raise _row_error("chain CSV rows out of order", index, row, 0)
            if x == 0 or y <= 0 or value < 0:
                column = 1 if x == 0 else 2 if y <= 0 else 3
                raise _row_error("invalid pair in chain CSV row", index, row, column)
            if height_sup != sup or height_mult_sq != abs(x) * y:
                column = 5 if height_sup != sup else 6
                raise _row_error("inconsistent heights in chain CSV row", index, row, column)
            exact = row[4] == "true"
            entries.append(ApproxPair(x=x, y=y, val=Valuation(value, exact)))
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
    for k in range(1, len(exact)):
        a, b = exact[k - 1], exact[k]
        det = a.x * b.y - b.x * a.y
        if det == 0 or mod_power(det, p, a.val.value):
            raise ValueError(
                f"chain entries {k - 1} and {k} contradict p = {p}: their "
                f"determinant is not a nonzero multiple of p^{a.val.value}"
            )
    return result
