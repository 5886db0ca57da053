"""Per-level minimisers of the congruence lattices of a p-adic integer.

The lattices are ``Lambda_v = {(x, y) : x = y * xi (mod p^v)}``; the
minimiser of a level is its key-minimal pair with p not dividing y.  Two
exact kernels compute it:

* :class:`SupWalk` carries a Lagrange-Gauss-reduced basis from level to
  level and searches it (sup norm);
* :func:`best_mult_pair` runs a continued-fraction walk on the level's
  residue (product norm): it reads every partial quotient, and scores
  only the front pairs whose quotient is near the largest admissible one.
"""

from __future__ import annotations

from .core import ApproxPair, PAdicNumber, Valuation, make_pair, pval

# A lattice vector (x, y) of Lambda_v = {(x, y) : x = y*xi (mod p^v)} is
# carried as (x, y, f) with its form value f = (y*xi - x) / p^v.
Vector = tuple[int, int, int]


def _height(vec: Vector) -> int:
    return max(abs(vec[0]), abs(vec[1]))


def reduce_basis(b1: Vector, b2: Vector) -> tuple[Vector, Vector]:
    """Generalised Gauss reduction of a two-dimensional basis in the sup norm.

    Kaib & Schnorr, "The generalized Gauss reduction algorithm" (J.
    Algorithms 21, 1996): subtract from the longer vector the multiple of
    the shorter one that minimises its height, swap, and repeat until the
    longer vector stays longer.  The result satisfies |b1| <= |b2| <=
    |b2 + k*b1| for every integer k, so b1 and b2 realise the two successive
    minima.  The real minimiser of |b2 - t*b1| is the crossing point
    (sgn(x1)*x2 + sgn(y1)*y2) / (|x1| + |y1|) of its two V-shaped
    coordinates, and by convexity the best integer is its floor or ceiling.
    Form values follow the same integer combinations.
    """
    h1, h2 = _height(b1), _height(b2)
    if h2 < h1:
        b1, b2, h1 = b2, b1, h2
    while True:
        x1, y1, f1 = b1
        x2, y2, f2 = b2
        num = (x2 if x1 > 0 else -x2 if x1 else 0) + (
            y2 if y1 > 0 else -y2 if y1 else 0
        )
        mu = num // (abs(x1) + abs(y1))
        x, y = x2 - mu * x1, y2 - mu * y1
        h = max(abs(x), abs(y))
        h_next = max(abs(x - x1), abs(y - y1))
        if h_next < h:
            mu, x, y, h = mu + 1, x - x1, y - y1, h_next
        reduced = (x, y, f2 - mu * f1) if mu else b2
        if h >= h1:
            return b1, reduced
        b1, b2, h1 = reduced, b1, h


def _sup_key(x: int, y: int) -> tuple[int, int, int, int]:
    """Tie-broken sup key of the pair +-(x, y), normalised to y > 0."""
    if y < 0:
        x, y = -x, -y
    ax = abs(x)
    return (max(ax, y), ax, 0 if x > 0 else 1, y)


def sup_search(p: int, b1: Vector, b2: Vector) -> Vector:
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


def vector_pair(p: int, precision: int, level: int, vec: Vector) -> ApproxPair:
    """ApproxPair of a vector of Lambda_level, its valuation read off the form.

    p does not divide y, so ``y*xi - x = p^level * f`` is known modulo
    p^precision; a form divisible by p^(precision - level) is censored.
    """
    x, y, f = vec
    if y < 0:
        x, y, f = -x, -y, -f
    depth = pval(f, p) + level if f else precision
    val = (
        Valuation.exact(depth) if depth < precision
        else Valuation.at_least(precision)
    )
    return ApproxPair(x=x, y=y, val=val)


class SupWalk:
    """Reduced basis of Lambda_v carried from level to level (sup norm).

    Following de Weger, "Approximation lattices of p-adic numbers" (J.
    Number Theory 24, 1986), Lambda_(v+1) is the index-p sublattice of
    Lambda_v on which the form vanishes mod p, so p divides at most one of
    the basis forms f1, f2.  When it divides neither, Lambda_(v+1) has
    basis (b1 + k*b2, p*b2) with k = -f1/f2 mod p.  When p^m divides f1,
    b1 stays in the lattice for m levels and Lambda_(v+m) has basis
    (b1, p^m*b2) (likewise with the roles swapped), which lets the walk
    cross the long stretches of sparse numbers in one step.  New forms are
    the old ones divided by the power of p the vector kept.  A step thus
    costs a few integer combinations and divisions by powers of p, never a
    product with xi, followed by a short :func:`reduce_basis`.
    """

    def __init__(self, xi: PAdicNumber) -> None:
        self.xi = xi
        self.p = xi.p
        self.precision = xi.precision
        self.level = 0
        self.b1: Vector = (1, 0, -1)
        self.b2: Vector = (0, 1, xi.value)
        # Levels up to v_p(xi) have residue 0, where (0, 1) is in the lattice.
        self.zero_levels = pval(xi.value, xi.p) if xi.value else xi.precision

    def advance(self, level: int) -> None:
        """Carry the basis forward to ``level`` (never backwards)."""
        p = self.p
        b1, b2 = self.b1, self.b2
        while self.level < level:
            if b1[2] % p and b2[2] % p:
                x1, y1, f1 = b1
                x2, y2, f2 = b2
                k = -f1 * pow(f2, -1, p) % p
                b1 = (x1 + k * x2, y1 + k * y2, (f1 + k * f2) // p)
                b2 = (p * x2, p * y2, f2)
                steps = 1
            else:
                if b1[2] % p:
                    b1, b2 = b2, b1
                x1, y1, f1 = b1
                x2, y2, f2 = b2
                steps = level - self.level
                if f1:
                    steps = min(steps, pval(f1, p))
                scale = p**steps
                b1 = (x1, y1, f1 // scale)
                b2 = (scale * x2, scale * y2, f2)
            b1, b2 = reduce_basis(b1, b2)
            self.level += steps
        self.b1, self.b2 = b1, b2

    def best_pair(self) -> ApproxPair:
        """Minimiser at the current level."""
        if self.level <= self.zero_levels:
            return make_pair(self.xi, self.p**self.level, 1)
        vec = sup_search(self.p, self.b1, self.b2)
        return vector_pair(self.p, self.precision, self.level, vec)


def best_mult_pair(p: int, modulus: int, r: int) -> tuple[int, int]:
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
    the closing pair with x = 0.)

    Lemma: a front pair b with predecessor a, next quotient
    q = floor(a_x / b_x) and P = b_x * |b_y| has q*P <= D < (q + 2)*P for
    D = modulus.  Proof: front denominators alternate in sign, so
    D = a_x * |b_y| + b_x * |a_y|; a_x = q*b_x + c_x with 0 <= c_x < b_x and
    |a_y| <= |b_y| put D - q*P = c_x * |b_y| + b_x * |a_y| in [0, 2P).  So
    the admissible pair (p not dividing b_y) of largest quotient Q has
    P <= D/Q, and one with q <= Q - 2 has P > D/(q + 2) >= D/Q: it cannot
    even tie.  Only pairs whose quotient is at least the largest admissible
    one so far minus 1 are scored.  Ties are broken by smaller |x|, then
    positive x, then smaller |y|; the returned pair is normalised to y > 0.
    """
    if r == 0:
        return modulus, 1

    best_key: tuple[int, int, int, int] | None = None
    q_floor = -1  # largest admissible quotient so far, minus 1
    ax, ay, bx, by = modulus, 0, r, 1
    while bx:
        q, cx = divmod(ax, bx)
        if q >= q_floor and by % p:
            q_floor = max(q_floor, q - 1)
            key = (bx * abs(by), bx, 0 if by > 0 else 1, abs(by))
            best_key = key if best_key is None else min(best_key, key)
        ax, ay, bx, by = bx, by, cx, ay - q * by

    if best_key is None:  # unreachable: the last front pair qualifies
        raise AssertionError("front walk produced no candidate")
    _, x, negative, y = best_key
    return -x if negative else x, y
