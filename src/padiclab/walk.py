"""Per-level minimisers of the congruence lattices of a p-adic integer.

The lattices are ``Lambda_v = {(x, y) : x = y * xi (mod p^v)}``; the
minimiser of a level is its key-minimal pair with p not dividing y.  Two
exact kernels compute it:

* :class:`SupWalk` carries a Gauss-reduced basis b1, b2 from level to
  level, and :func:`sup_search` picks the minimiser among b1, b2 and
  b2 - b1 (sup norm);
* :func:`best_mult_pair` runs a continued-fraction walk on the level's
  residue (product norm): one ``divmod`` per Euclid step, on x alone, and
  |y| recovered from the inverse of xi's unit part only for the front
  pairs whose quotient is within 1 of the largest admissible one.
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

    The basis must come from :func:`reduce_basis` on Lambda_v above the zero
    levels, so (0, 1) is not in it and p not dividing y forces x != 0.  The
    key is (height, |x|, x > 0 first, y) after normalising to y > 0, and the
    minimiser is b1, b2 or b2 - b1.  Write h_i = |b_i|, a vector as
    a*b1 + c*b2 with c >= 0, and recall h1*h2 <= p^v (Minkowski).

    1. c = 0: b1 is the best multiple of b1; c != 0 gives height >= h2.
    2. c >= 2 never reaches h2: c*p^v <= (|x1| + |y1|)*h2 <= 2*h1*h2 <= 2*p^v,
       so c = 2 needs |x1| = |y1| and h1*h2 = p^v.  Then b2 lies on an axis,
       reducedness forces h2 = h1, and (h1, 0) in Lambda_v makes p^v divide
       h1, against h1^2 <= p^v.
    3. c = 1: the last step of :func:`reduce_basis` set b2 = b2' - mu*b1, mu
       the floor of the crossing point of |b2' - t*b1| (or mu + 1 when that
       is strictly shorter).  Off the axes |b2 + a*b1| is strictly monotone
       on each side of its real minimum, so b2 + b1 is longer than b2 and
       b2 - k*b1 (k >= 2) longer than b2 - b1.
    4. b1 on an axis: y1 = 0 would need p^v | x1, against h1*h2 <= p^v.
       x1 = 0 gives p | y1, so every b2 + a*b1 of height h2 has |x| = |x2|
       and the same admissibility; mu = floor(y2'/y1) left y2 between 0 and
       y1, so for each sign of y the smallest |y| is at b2 or b2 - b1.
    """
    x1, y1, f1 = b1
    x2, y2, f2 = b2
    if y1 % p and _height(b2) > _height(b1):
        return b1
    # Lambda_v holds a pair with y = 1, so p divides at most one of y1, y2.
    best = min((v for v in (b1, b2) if v[1] % p), key=lambda v: _sup_key(v[0], v[1]))
    x, y = x2 - x1, y2 - y1
    if y % p and _sup_key(x, y) < _sup_key(best[0], best[1]):
        return (x, y, f2 - f1)
    return best


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


def best_mult_pair(
    p: int, modulus: int, r: int, unit: tuple[int, int]
) -> tuple[int, int]:
    """Product-minimal pair (x, y) with p not dividing y and x = y*r (mod modulus).

    Here modulus = p^v, r = xi mod p^v for some xi = p^w * eta, eta a unit,
    and ``unit`` is (w, eta^(-1) mod p^k) with k >= v - w, as
    ``lattice._unit_part(xi)`` gives it; it is read only when r != 0.

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
    even tie.  Ties are broken by smaller |x|, then positive x, then smaller
    |y|; the returned pair is normalised to y > 0.

    The Euclid steps run on x alone, one ``divmod`` each, on modulus/p^w and
    r/p^w (every x is a multiple of p^w; the quotients do not change), and
    y is read off x.  Its sign alternates with the step parity from +1 at
    (r, 1), as c_y = a_y - q*b_y with q >= 1.  As x = y*r (mod p^v) with
    v > w, x has valuation w when p does not divide y and more otherwise,
    so p does not divide y exactly when p does not divide x/p^w.  As
    D >= a_x * |b_y| and a_x > b_x are multiples of p^w, |y| <= p^(v - w)/2,
    so |y| is +-(x/p^w) * eta^(-1) reduced mod p^(v - w), signed as y.  By
    the lemma the minimiser has q >= Q - 1: the admissible pairs with
    q >= (largest admissible quotient so far) - 1 are kept as (q, x, sign),
    and |y| is recovered only for those with q >= Q - 1.
    """
    if r == 0:
        return modulus, 1

    scale = p ** unit[0]
    m = modulus // scale
    a, b = m, r // scale
    kept: list[tuple[int, int, int]] = []  # (q, x / p^w, sign of y)
    q_floor = -1  # largest admissible quotient so far, minus 1
    while True:
        q, a = divmod(a, b)  # b's quotient; y > 0 at b
        if q >= q_floor and b % p:
            q_floor = max(q_floor, q - 1)
            kept.append((q, b, 1))
        if not a:
            break
        q, b = divmod(b, a)  # a's quotient; y < 0 at a
        if q >= q_floor and a % p:
            q_floor = max(q_floor, q - 1)
            kept.append((q, a, -1))
        if not b:
            break

    def mod_m(t: int) -> int:  # a bit mask at p = 2, as in core.mod_power
        return t & (m - 1) if p == 2 else t % m

    inverse = mod_m(unit[1])
    finalists = [
        (x, mod_m(sign * x * inverse), sign) for q, x, sign in kept if q >= q_floor
    ]
    _, x, negative, y = min((x * y, x, sign < 0, y) for x, y, sign in finalists)
    return (-x if negative else x) * scale, y
