"""Exact truncated p-adic integers and valuations of linear forms.

A :class:`PAdicNumber` is a prime ``p`` together with a finite little-endian
Hensel digit vector; index ``i`` holds the coefficient of ``p**i``.  All
arithmetic is exact integer arithmetic on residues modulo ``p**precision``.

Because the digit vector is finite, a valuation computed from it may be
censored: when the linear form ``y*xi - x`` vanishes to full usable precision
we only know a lower bound.  :class:`Valuation` keeps that distinction
explicit so downstream estimators never mistake censored data for measured
data.
"""

from __future__ import annotations

import decimal
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

DIGIT_FILE_FORMAT = "padic-digits-v1"

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Below this many digits the quadratic schoolbook conversion wins.
_NAIVE_DIGIT_THRESHOLD = 128

# Chunk sizes for decimal text, well inside CPython's 4300-digit limit on
# int <-> str conversion (3000 digits; 9000 bits is about 2710 digits).
_DECIMAL_CHUNK_DIGITS = 3000
_DECIMAL_CHUNK_BITS = 9000


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def pval(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer.

    For p = 2 the lowest set bit gives it directly.  Otherwise n is divided
    by p, p^2, p^4, ... while they divide it, then by the same powers in
    reverse order (a binary search on the exponent), so a valuation v costs
    O(log v) divisions instead of v.
    """
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    if p == 2:
        return (n & -n).bit_length() - 1
    if n % p:
        return 0
    n //= p
    v = 1
    ladder = [(p, 1)]
    power, e = p * p, 2
    while n % power == 0:
        n //= power
        v += e
        ladder.append((power, e))
        power, e = power * power, 2 * e
    for power, e in reversed(ladder):
        if n % power == 0:
            n //= power
            v += e
    return v


def ilog(n: int, base: int) -> int:
    """Largest e >= 0 with base**e <= n, computed exactly (n >= 1)."""
    if n < 1:
        raise ValueError("ilog requires n >= 1")
    if base < 2:
        raise ValueError("ilog requires base >= 2")
    e = max(0, int(math.log(n) / math.log(base)))
    while base**e > n:
        e -= 1
    while base ** (e + 1) <= n:
        e += 1
    return e


def digits_to_int(digits: Sequence[int], p: int) -> int:
    """Evaluate a little-endian base-p digit vector as an integer."""
    n = len(digits)
    if n <= _NAIVE_DIGIT_THRESHOLD:
        acc = 0
        for d in reversed(digits):
            acc = acc * p + d
        return acc
    half = n // 2
    return digits_to_int(digits[:half], p) + digits_to_int(digits[half:], p) * p**half


def int_to_digits(n: int, p: int, count: int) -> list[int]:
    """Little-endian base-p digits of ``n mod p**count`` (length ``count``)."""
    if count < 0:
        raise ValueError("digit count must be nonnegative")
    n %= p**count
    return _int_to_digits(n, p, count)


def _int_to_digits(n: int, p: int, count: int) -> list[int]:
    if count <= _NAIVE_DIGIT_THRESHOLD:
        out = []
        for _ in range(count):
            n, d = divmod(n, p)
            out.append(d)
        return out
    half = count // 2
    q, r = divmod(n, p**half)
    return _int_to_digits(r, p, half) + _int_to_digits(q, p, count - half)


def int_to_decimal(n: int) -> str:
    """Decimal text of ``n``, identical to ``str(n)`` at any length.

    CPython refuses ``str`` on integers past 4300 digits (a process-wide
    setting that this module leaves alone).  Longer integers are split into
    binary halves that are recombined in ``decimal`` arithmetic, whose
    multiplication is sub-quadratic, and printed once.
    """
    if n < 0:
        return "-" + int_to_decimal(-n)
    if n.bit_length() <= _DECIMAL_CHUNK_BITS:
        return str(n)
    powers: dict[int, decimal.Decimal] = {}

    def convert(m: int, bits: int) -> decimal.Decimal:
        if bits <= _DECIMAL_CHUNK_BITS:
            return decimal.Decimal(m)
        half = bits >> 1
        high = m >> half
        low = m - (high << half)
        if half not in powers:
            powers[half] = decimal.Decimal(2) ** half
        return convert(high, bits - half) * powers[half] + convert(low, half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(convert(n, n.bit_length()))


def decimal_to_int(text: str) -> int:
    """Parse decimal text written by :func:`int_to_decimal` (any length).

    Text up to the chunk size goes straight to ``int``; longer text must be
    an optional sign and ASCII digits, and is parsed in halves joined by
    one (Karatsuba) multiplication per split.
    """
    if len(text) <= _DECIMAL_CHUNK_DIGITS:
        return int(text)
    sign = -1 if text[0] == "-" else 1
    body = text[1:] if text[0] in "+-" else text
    if not (body.isascii() and body.isdigit()):
        raise ValueError(f"invalid decimal integer {text[:32]!r}...")
    powers: dict[int, int] = {}

    def parse(start: int, stop: int) -> int:
        if stop - start <= _DECIMAL_CHUNK_DIGITS:
            return int(body[start:stop])
        low_len = (stop - start) >> 1
        mid = stop - low_len
        if low_len not in powers:
            powers[low_len] = 10**low_len
        return parse(start, mid) * powers[low_len] + parse(mid, stop)

    return sign * parse(0, len(body))


@dataclass(frozen=True)
class Valuation:
    """An exact valuation or a censored lower bound.

    ``Valuation.exact(v)`` means the valuation is exactly ``v``;
    ``Valuation.at_least(n)`` means only ``>= n`` is certified because the
    residue vanished to full usable precision.
    """

    value: int
    is_exact: bool

    @classmethod
    def exact(cls, value: int) -> "Valuation":
        return cls(value, True)

    @classmethod
    def at_least(cls, value: int) -> "Valuation":
        return cls(value, False)

    def __str__(self) -> str:
        return str(self.value) if self.is_exact else f">={self.value}"


@dataclass(frozen=True)
class PAdicNumber:
    """A p-adic integer known modulo ``p**precision``, as Hensel digits."""

    p: int
    digits: tuple[int, ...]

    @property
    def precision(self) -> int:
        return len(self.digits)

    @cached_property
    def value(self) -> int:
        """The residue of the number modulo ``p**precision``."""
        return digits_to_int(self.digits, self.p)

    @cached_property
    def modulus(self) -> int:
        return self.p**self.precision

    def __repr__(self) -> str:  # keep huge digit vectors out of tracebacks
        head = ",".join(str(d) for d in self.digits[:8])
        tail = ",..." if self.precision > 8 else ""
        return f"PAdicNumber(p={self.p}, precision={self.precision}, digits=[{head}{tail}])"


def from_digits(p: int, digits: Iterable[int]) -> PAdicNumber:
    """Build a p-adic integer from explicit little-endian digits."""
    digs = tuple(int(d) for d in digits)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not digs:
        raise ValueError("digit vector must be nonempty")
    for i, d in enumerate(digs):
        if not 0 <= d < p:
            raise ValueError(f"digit {d} at index {i} out of range [0, {p})")
    return PAdicNumber(p, digs)


def from_rational(p: int, num: int, den: int, precision: int) -> PAdicNumber:
    """Embed num/den into Z_p at the given precision (den must be a p-unit)."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if den == 0:
        raise ValueError("denominator must be nonzero")
    if den % p == 0:
        raise ValueError(f"denominator {den} is divisible by p={p}")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    mod = p**precision
    value = num * pow(den, -1, mod) % mod
    return PAdicNumber(p, tuple(int_to_digits(value, p, precision)))


def residue(xi: PAdicNumber, v: int) -> int:
    """The residue of xi modulo ``p**v`` for v <= precision."""
    if v < 0 or v > xi.precision:
        raise ValueError(f"residue level {v} outside [0, {xi.precision}]")
    if v == xi.precision:
        return xi.value
    if xi.p == 2:
        return xi.value & ((1 << v) - 1)
    return xi.value % xi.p**v


def truncation_integer(xi: PAdicNumber, cutoff: int) -> int:
    """The integer sum of digit terms up to and including index ``cutoff``.

    The result T satisfies v_p(xi - T) >= cutoff + 1.
    """
    if cutoff >= xi.precision:
        raise ValueError(f"cutoff {cutoff} must be < precision {xi.precision}")
    return residue(xi, cutoff + 1)


def linear_form_valuation(xi: PAdicNumber, x: int, y: int) -> Valuation:
    """Valuation of the linear form ``y*xi - x``.

    With e = v_p(y), the form is known modulo ``p**(precision+e)``:
    an Exact value below that ceiling is independent of any precision
    increase, while a vanishing residue yields only AtLeast(precision+e).
    A zero y reduces the form to -x, whose valuation is always exact.
    """
    if x == 0 and y == 0:
        raise ValueError("linear form requires (x, y) != (0, 0)")
    if y == 0:
        return Valuation.exact(pval(x, xi.p))
    e = pval(y, xi.p)
    ceiling = xi.precision + e
    r = (y * xi.value - x) % xi.p**ceiling
    if r == 0:
        return Valuation.at_least(ceiling)
    return Valuation.exact(pval(r, xi.p))


@dataclass(frozen=True)
class ApproxPair:
    """An integer pair (x, y), x != 0 < y, with the valuation of ``y*xi - x``.

    The heights are derived on each access: ``height_sup = max(|x|, y)``
    and ``height_mult_sq = |x|*y`` (the square of the geometric-mean
    height, kept squared to stay integral).
    """

    x: int
    y: int
    val: Valuation

    @property
    def height_sup(self) -> int:
        return max(abs(self.x), self.y)

    @property
    def height_mult_sq(self) -> int:
        return abs(self.x) * self.y


def make_pair(xi: PAdicNumber, x: int, y: int) -> ApproxPair:
    """Build an ApproxPair against xi, normalizing the sign so y > 0."""
    if x == 0 or y == 0:
        raise ValueError("approximation pairs require nonzero x and y")
    if y < 0:
        x, y = -x, -y
    return ApproxPair(x=x, y=y, val=linear_form_valuation(xi, x, y))


def save_digit_file(xi: PAdicNumber, path: str | Path) -> None:
    """Write the digit-vector JSON file for a p-adic number."""
    payload = {
        "format": DIGIT_FILE_FORMAT,
        "p": xi.p,
        "precision": xi.precision,
        "digits": list(xi.digits),
    }
    Path(path).write_text(json.dumps(payload) + "\n")


def load_digit_file(path: str | Path) -> PAdicNumber:
    """Read a digit-vector JSON file back into a PAdicNumber."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed digit file {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != DIGIT_FILE_FORMAT:
        raise ValueError(f"{path} is not a {DIGIT_FILE_FORMAT} file")
    for key in ("p", "precision", "digits"):
        if key not in payload:
            raise ValueError(f"digit file {path} missing key {key!r}")
    xi = from_digits(payload["p"], payload["digits"])
    if xi.precision != payload["precision"]:
        raise ValueError(
            f"digit file {path} declares precision {payload['precision']} "
            f"but carries {xi.precision} digits"
        )
    return xi
