"""Former kernels, kept as independent references for the fast ones.

Each function is the implementation the package used before its current
algorithm: the candidate-set continued-fraction walk for per-level
minimisers, the product walk that scores every admissible front pair
behind a bit-length prefilter, the sup search that scores the floors and
ceilings of the kinks of a reduced basis, digit extraction by one divmod
per digit, the chunked valuation loop and the list scan for the product
chain's required valuation, and the enumeration oracle and box minimum that
build one ``ApproxPair`` per ladder candidate before sorting them.  The
chain crawl visits every level with the candidate-set walk, in both norms,
and shares neither a kernel nor staircase code with the package.  The
independence check is a plain all-pairs scan.  The Schneider
block search is seeded by a float logarithm, the exponent-driven recursion
built on it keeps its own convergent lists, and digit surgery edits the
digit vector.
Tests require the package to agree with them exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from padiclab import (
    ApproxPair,
    BestApproxChain,
    CheckResult,
    PAdicNumber,
    SchneiderState,
    SurgerySpec,
    UniformWitness,
    from_digits,
    ilog,
    linear_form_valuation,
    make_pair,
)
from padiclab.walk import Vector, _height, _sup_key


def best_pair(p: int, modulus: int, r: int, norm: str) -> tuple[int, int]:
    """Metric-minimal pair (x, y), p not dividing y, x = y*r (mod modulus).

    Candidates come from the continued-fraction walk on the basis
    ``(modulus, 0), (r, 1)``: every front pair plus the band indices
    ``{1, 2, q-1, q}`` and, for the sup norm, the crossover index +-3.
    Ties are broken by smaller |x|, then positive x, then smaller |y|; the
    returned pair is normalised to y > 0.
    """
    mult = norm == "mult"
    if r == 0:
        return modulus, 1

    best_key: tuple[int, int, int, int] | None = None
    best_xy: tuple[int, int] | None = None

    def consider(x: int, y: int) -> None:
        nonlocal best_key, best_xy
        if x == 0 or y == 0:
            return
        if y < 0:
            x, y = -x, -y
        if y % p == 0:
            return
        metric = abs(x) * y if mult else max(abs(x), y)
        key = (metric, abs(x), 0 if x > 0 else 1, y)
        if best_key is None or key < best_key:
            best_key = key
            best_xy = (x, y)

    ax, ay = modulus, 0
    bx, by = r, 1
    while bx:
        consider(bx, by)
        if best_key is not None and abs(by) > best_key[0]:
            break
        q = ax // bx
        js = {1, 2, q - 1, q}
        if not mult:
            crossover = (ax - abs(ay)) // (bx + abs(by))
            js.update(range(crossover - 3, crossover + 4))
        for j in js:
            if 1 <= j <= q:
                consider(ax - j * bx, ay - j * by)
        ax, ay, bx, by = bx, by, ax - q * bx, ay - q * by

    if best_xy is None:
        raise AssertionError("front walk produced no candidate")
    return best_xy


def front_walk_mult_pair(p: int, modulus: int, r: int) -> tuple[int, int]:
    """Product-minimal pair (x, y) with p not dividing y and x = y*r (mod modulus).

    Continued-fraction walk on ``(modulus, 0), (r, 1)``.  Every front pair
    has determinant +-modulus, so its gcd is a power of p and p not
    dividing y already forces coprimality.  Only front pairs are scored.
    Between successive front pairs a and c = a - q*b, a pair a - j*b with
    0 < j < q has x >= b_x and |y| >= |b_y|, so it cannot beat b when b
    qualifies (its one tie, (modulus - r, -1) when modulus = 2r, loses on
    the sign).  When p divides b_y, a and c qualify, as successive front
    denominators are coprime and c_y = a_y (mod p), and the product
    |x(j) * y(j)| is strictly concave in j, so it exceeds the smaller of
    their products.  (The last front pair, (b_x, y) with b_x the p-part of
    r, has y*r/b_x = 1 modulo a power of p, so it always qualifies next to
    the closing pair with x = 0.)  A product is only formed when the exact
    bound |x|*|y| >= 2^(bl(x) + bl(y) - 2) does not already exceed the best
    one.  Ties are broken by smaller |x|, then positive x, then smaller
    |y|; the returned pair is normalised to y > 0.
    """
    if r == 0:
        return modulus, 1

    best_key: tuple[int, int, int, int] | None = None
    best_xy = (0, 0)
    best_bits = 0
    ax, ay = modulus, 0
    bx, by = r, 1
    while bx:
        y = abs(by)
        if by % p and (
            best_key is None or bx.bit_length() + y.bit_length() - 2 < best_bits
        ):
            x = bx if by > 0 else -bx
            key = (bx * y, bx, 0 if x > 0 else 1, y)
            if best_key is None or key < best_key:
                best_key, best_xy, best_bits = key, (x, y), key[0].bit_length()
        # Every later front pair has |y| > |by|, hence product > |by|;
        # strict inequality keeps tie candidates alive.
        if best_key is not None and y > best_key[0]:
            break
        q, cx = divmod(ax, bx)
        ax, ay, bx, by = bx, by, cx, ay - q * by

    if best_key is None:  # unreachable: the last front pair qualifies
        raise AssertionError("front walk produced no candidate")
    return best_xy


def kink_sup_search(p: int, b1: Vector, b2: Vector) -> Vector:
    """Key-minimal vector with p not dividing y in the lattice of b1, b2.

    The basis must be reduced (:func:`reduce_basis`) and the lattice must not
    contain (0, 1), so that p not dividing y already forces x != 0.  The
    key is (height, |x|, x > 0 first, y) after normalising to y > 0.

    Write a vector as a*b1 + c*b2 with c >= 0.  Multiples of b1 (c = 0)
    give b1 at best.  Every c != 0 vector is independent of b1, so its
    height is at least |b2|; when b1 qualifies and |b2| > |b1| it wins
    outright, and otherwise the winner's height is exactly |b2|.  For
    c = 1 that height is the minimum over a, reached at a = 0, so when
    b2 +- b1 are both higher, b2 is the only c = 1 candidate.  For c >= 2,
    |det(b1, v)| = c*D <= (|x1| + |y1|)*|v| with D the determinant, and
    reduced bases have |b1|*|b2| <= D (Minkowski), so c = 2 reaches |b2|
    only when |x1| = |y1| and D = |b1|*|b2|, and c >= 3 never does.  In the
    remaining cases, for fixed c the height, |x|, the sign of x*y and |y|
    are linear between the kinks of max(|x(a)|, |y(a)|) (the roots of x(a)
    and y(a) and the two crossings |x(a)| = |y(a)|), so the key is monotone
    there, and the vectors with p | y form at most one residue class of a:
    the best admissible a lies within one step of the floor or ceiling of
    a kink.
    """
    x1, y1, f1 = b1
    x2, y2, f2 = b2
    h1, h2 = _height(b1), _height(b2)
    if y1 % p and h2 > h1:
        return b1
    candidates = [(1, 0)] if y1 % p else []
    multipliers = []
    if max(abs(x2 + x1), abs(y2 + y1)) > h2 < max(abs(x2 - x1), abs(y2 - y1)):
        candidates.append((0, 1))
    else:
        multipliers.append(1)
    if abs(x1) == abs(y1) and abs(x1 * y2 - x2 * y1) == h1 * h2:
        multipliers.append(2)
    for c in multipliers:
        cx, cy = c * x2, c * y2
        kinks = ((-cx, x1), (-cy, y1), (cy - cx, x1 - y1), (-cx - cy, x1 + y1))
        for num, den in kinks:
            if den:
                floor = num // den
                candidates.extend((a, c) for a in range(floor - 1, floor + 3))
    best_key = None
    for a, c in candidates:
        y = a * y1 + c * y2
        if y % p:
            key = _sup_key(a * x1 + c * x2, y)
            if best_key is None or key < best_key:
                best_key, best = key, (a, c)
    if best_key is None:  # unreachable: b2 qualifies whenever b1 does not
        raise AssertionError("reduced basis produced no candidate")
    a, c = best
    return (a * x1 + c * x2, a * y1 + c * y2, a * f1 + c * f2)


def int_to_digits(n: int, p: int, count: int) -> list[int]:
    """Little-endian base-p digits of ``n mod p**count``, one divmod each."""
    n %= p**count
    out = []
    for _ in range(count):
        n, d = divmod(n, p)
        out.append(d)
    return out


def pval(n: int, p: int) -> int:
    """p-adic valuation by stripping p^64 chunks, then single factors."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    n = abs(n)
    v = 0
    chunk = p**64
    while n % chunk == 0:
        n //= chunk
        v += 64
    while n % p == 0:
        n //= p
        v += 1
    return v


def required_valuation(
    base: int, accepted: list[tuple[int, int]], metric: int, start_val: int = 0
) -> int:
    """Maximum of v + floor(log_base(metric / M)) over the start pair
    (1, ``start_val``) and every accepted (M, v) with M <= metric."""
    required = start_val + ilog(metric, base)
    for prev_metric, prev_val in accepted:
        if prev_metric <= metric:
            required = max(required, prev_val + ilog(metric // prev_metric, base))
    return required


def crawl_chain(xi: PAdicNumber, norm: str, max_level: int) -> BestApproxChain:
    """Chain from the :func:`best_pair` minimisers of every level 1..max_level.

    A level whose minimiser is no deeper than the last entry adds nothing; a
    product pair below the :func:`required_valuation` (base p^2) of the
    accepted pairs is skipped; a deeper pair of the last entry's metric
    replaces it.  The first censored pair ends the chain, which keeps it,
    and drops a last entry of its metric.
    """
    mult = norm == "mult"

    def metric(pair: ApproxPair) -> int:
        return pair.height_mult_sq if mult else pair.height_sup

    entries: list[ApproxPair] = []
    accepted: list[tuple[int, int]] = []
    censored = None
    for level in range(1, max_level + 1):
        modulus = xi.p**level
        pair = make_pair(xi, *best_pair(xi.p, modulus, xi.value % modulus, norm))
        val = pair.val.value
        if not pair.val.is_exact:
            censored = pair
            if entries and metric(entries[-1]) == metric(pair):
                entries.pop()
            break
        if entries and val <= entries[-1].val.value:
            continue
        if mult and entries:
            if val < required_valuation(xi.p * xi.p, accepted, metric(pair)):
                continue
        if entries and metric(entries[-1]) == metric(pair):
            entries.pop()
            accepted.pop()
        entries.append(pair)
        accepted.append((metric(pair), val))
    return BestApproxChain(xi.p, norm, tuple(entries), censored)


def check_padicle(pairs: Sequence[ApproxPair], p: int) -> CheckResult:
    """Pair-independence check comparing every pair, in (i, j) order."""
    if len(pairs) < 2:
        return CheckResult(
            "pair_independence", None, None, {}, "fewer than two pairs"
        )
    ordered = sorted(pairs, key=lambda pr: (pr.height_sup, pr.val.value))
    log_p = math.log(p)
    worst: float | None = None
    worst_at: tuple[int, int] | None = None
    passed = True
    for i in range(len(ordered) - 1):
        for j in range(i + 1, len(ordered)):
            a, b = ordered[i], ordered[j]
            if a.x * b.y == b.x * a.y:
                continue
            min_val = min(a.val.value, b.val.value)
            boxed = 2 * a.height_sup * b.height_sup
            if boxed < p**min_val:
                passed = False
            slack = math.log(boxed) / log_p - min_val
            if worst is None or slack < worst:
                worst = slack
                worst_at = (i, j)
    inputs: dict = {"pairs": len(ordered)}
    if worst_at is not None:
        inputs["tightest"] = worst_at
    return CheckResult("pair_independence", passed, worst, inputs)


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


def _ladder_pairs(xi, y: int, x_bound: int) -> list[tuple[int, int]]:
    """Minimal-|x| representatives (x, y) of every valuation level."""
    if x_bound < 1:
        return []
    t = (y * xi.value) % xi.modulus
    return [
        (x, y)
        for _level, x in _centered_residues(t, xi.p, xi.precision, x_bound)
    ]


def _inverse_ladder_pairs(
    xi, product_bound: int, x_abs_bound: int
) -> list[tuple[int, int]]:
    """Pairs with small |x| found by inverting the congruence."""
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


def _extract_staircase(p: int, norm: str, raw_pairs: list[ApproxPair]):
    """Sort every candidate by (metric, -valuation, tie key) and sweep once.

    The product norm's required valuation is the list scan above.  Returns
    the entries and the censored pair (None when the box holds no censored
    pair before the sweep ends).
    """
    mult = norm == "mult"

    def metric(pair: ApproxPair) -> int:
        return pair.height_mult_sq if mult else pair.height_sup

    def sort_key(pair: ApproxPair):
        return (
            metric(pair),
            -pair.val.value,
            abs(pair.x),
            0 if pair.x > 0 else 1,
            pair.y,
        )

    entries: list[ApproxPair] = []
    accepted: list[tuple[int, int]] = []
    censored = None
    max_val = 0
    for pair in sorted(raw_pairs, key=sort_key):
        if not pair.val.is_exact:
            censored = pair
            break
        val = pair.val.value
        if val <= max_val:
            continue
        if mult:
            product = pair.height_mult_sq
            if entries and val < required_valuation(p * p, accepted, product):
                continue
            accepted.append((product, val))
        entries.append(pair)
        max_val = val
    return tuple(entries), censored


def oracle_chain(xi, norm: str, bound: int) -> BestApproxChain:
    """Chain rebuilt from every ladder candidate, one ApproxPair each."""
    seen: set[tuple[int, int]] = set()
    if norm == "sup":
        for y in range(1, bound + 1):
            seen.update(_ladder_pairs(xi, y, bound))
    else:
        for y in range(1, math.isqrt(bound) + 1):
            seen.update(_ladder_pairs(xi, y, bound // y))
        seen.update(_inverse_ladder_pairs(xi, bound, math.isqrt(bound)))
    raw = [make_pair(xi, x, y) for x, y in seen if math.gcd(x, y) == 1]
    return BestApproxChain(xi.p, norm, *_extract_staircase(xi.p, norm, raw))


def uniform_minimum_enum(xi, norm: str, bound: int) -> UniformWitness:
    """Box minimum over every ladder candidate, one valuation call each."""
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    p = xi.p
    mult = norm == "mult"
    best_key = None
    best_xy = None
    best_val = None

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
    log_height = math.log(bound) / (2.0 if mult else 1.0)
    return UniformWitness(
        norm=norm,
        bound=bound,
        valuation=best_val,
        pair=make_pair(xi, *best_xy),
        exponent=best_val * math.log(p) / log_height,
    )


def select_block_exponent(p: int, height: int, ell: int, mu: Fraction) -> int:
    """Largest g with p**(g+ell) <= height**mu, searched from a float log.

    The result is certified by comparing p**((g+ell)*mu.denominator) against
    height**mu.numerator.
    """
    if height < 2:
        raise ValueError("height must be >= 2 to select a block exponent")
    a, b = mu.numerator, mu.denominator
    g = int(float(mu) * math.log(height) / math.log(p)) - ell
    target = height**a
    while p ** ((g + ell) * b) > target:
        g -= 1
    while p ** ((g + 1 + ell) * b) <= target:
        g += 1
    return g


def schneider_driven(
    p: int, targets: Sequence[Fraction], steps: int
) -> SchneiderState:
    """The exponent-driven Schneider recursion on explicit powers.

    Driven block k takes target ``targets[min(k, len(targets) - 1)]`` at the
    last pair, g = ``select_block_exponent`` above.  A pair of height 1, or
    one where that g is below 1, gets the bootstrap block g = 1 (target
    None) and the same target is tried at the next pair.  The ``steps``-th
    driven block is left as the trailing block.
    """
    pairs = [(1, 0), (0, 1)]
    gs: list[int] = []
    mus: list[Fraction | None] = []
    driven = 0
    while True:
        mu = targets[min(driven, len(targets) - 1)]
        height = max(pairs[-1])
        g = select_block_exponent(p, height, sum(gs), mu) if height > 1 else 0
        if g >= 1:
            driven += 1
            if driven == steps:
                return SchneiderState(p, tuple(pairs), tuple(gs), tuple(mus), g, mu)
        else:
            g, mu = 1, None
        (num_m, den_m), (num_n, den_n) = pairs[-2], pairs[-1]
        pairs.append((num_n + p**g * num_m, den_n + p**g * den_m))
        gs.append(g)
        mus.append(mu)


def surgery_transform(
    zeta: PAdicNumber, spec: SurgerySpec
) -> tuple[PAdicNumber, tuple[int, ...]]:
    """Clear each interval of zeta's digit vector, keeping 1 at both ends."""
    if spec.taus[-1] >= zeta.precision:
        raise ValueError(
            f"last interval end {spec.taus[-1]} >= precision {zeta.precision}"
        )
    digits = list(zeta.digits)
    p = zeta.p
    corrections = []
    for nu, tau in spec.intervals():
        block = zeta.value // p**nu % p ** (tau - nu + 1) * p**nu
        corrections.append(block - p**nu - p**tau)
        for i in range(nu + 1, tau):
            digits[i] = 0
        digits[nu] = 1
        digits[tau] = 1
    return from_digits(p, digits), tuple(corrections)
