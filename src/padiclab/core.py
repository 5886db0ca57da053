"""Exact truncated p-adic integers and valuations of linear forms.

A :class:`PAdicNumber` is a prime ``p`` together with its residue modulo
``p**precision``; its little-endian Hensel digits (index ``i`` holds the
coefficient of ``p**i``) are derived on demand.  All arithmetic is exact
integer arithmetic on residues.

Because the precision is finite, a valuation computed from it may be
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

# Maps the ASCII bits "0"/"1" to the digit values 0/1, and back.
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
_BIT_TEXT = bytes.maketrans(b"\x00\x01", b"01")

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


def ilog(n: int, base: int, power: int = 1) -> int:
    """Largest e >= 0 with base**e <= n**power, computed exactly (n >= 1).

    With power 1 a float log is corrected by explicit powers of base.  A
    power above 1 needs a prime base and never forms n**power: see
    :func:`_ilog_power`.
    """
    if n < 1:
        raise ValueError("ilog requires n >= 1")
    if base < 2:
        raise ValueError("ilog requires base >= 2")
    if power != 1:
        return _ilog_power(n, base, power)
    e = max(0, int(math.log(n) / math.log(base)))
    while base**e > n:
        e -= 1
    while base ** (e + 1) <= n:
        e += 1
    return e


def _ilog_power(n: int, p: int, power: int) -> int:
    """floor(power * log_p n) for a prime p, without forming n**power.

    With k = ilog(n, p), n = p**k gives power*k.  Otherwise n**power is no
    power of the prime p, so f = power*log_p(num/den) is irrational for the
    nearer power of p: num/den = n/p**k gives power*k + floor(f), and
    num/den = p**(k+1)/n gives power*(k+1) - 1 - floor(f).  As f lies in
    (0, power), decimal bounds on it decide its floor: num/den lies between
    ratios of their top bits, each rounded logarithm is widened by one unit
    in the last place, and products and quotients round outward.  The
    precision doubles until no integer lies between the bounds, so the cost
    grows with how close f comes to an integer; the nearer power keeps
    n = p**k +- 1 (Schneider heights are p**k plus a small term) at the
    first precision.  A composite base is refused: 8**2 = 4**3 is a tie
    that no bound excludes.
    """
    if power < 1:
        raise ValueError("ilog requires power >= 1")
    if not is_prime(p):
        raise ValueError(f"ilog with power {power} requires a prime base, got {p}")
    k = ilog(n, p)
    below = p**k
    if below == n:
        return power * k
    if 2 * n <= below * (p + 1):
        num, den, offset, sign = n, below, power * k, 1
    else:
        num, den, offset, sign = below * p, n, power * (k + 1) - 1, -1
    digits = len(str(power)) + 20
    while True:
        # The top bits stay below 2**(3*digits) < 10**digits, so they convert exactly.
        shift = max(0, den.bit_length() - 3 * digits)
        num_top, den_top = num >> shift, den >> shift
        cut = shift > 0  # then num/den lies in [num_top/(den_top+1), (num_top+1)/den_top]
        down = decimal.Context(prec=digits, rounding=decimal.ROUND_FLOOR)
        up = decimal.Context(prec=digits, rounding=decimal.ROUND_CEILING)
        ln_low = down.next_minus(down.ln(down.divide(num_top, den_top + cut)))
        ln_high = up.next_plus(up.ln(up.divide(num_top + cut, den_top)))
        low = down.divide(down.multiply(power, ln_low), up.next_plus(up.ln(p)))
        high = up.divide(up.multiply(power, ln_high), down.next_minus(down.ln(p)))
        # A negative low bounds nothing useful: f > 0 is known.
        if max(0, int(low)) == int(high):
            return offset + sign * int(high)
        digits *= 2


def mod_power(n: int, p: int, k: int) -> int:
    """``n mod p**k``, in [0, p**k), for any integer n and k >= 0.

    For p = 2 it is a bit mask.  CPython computes ``%`` by 2**k as
    schoolbook long division, quadratic in the bits: a 600k-bit n modulo
    2**300707 takes 0.20 s, the mask 40 us.
    """
    if p == 2:
        return n & ((1 << k) - 1)
    return n % p**k


def digits_to_int(digits: Sequence[int], p: int) -> int:
    """Evaluate a little-endian base-p digit vector as an integer.

    For p = 2 a list or tuple of 0/1 digits is read as one binary string.
    Any other vector, one with a digit of 2 or more say, is evaluated digit
    by digit, split in halves past 128 digits.
    """
    if p == 2 and isinstance(digits, (list, tuple)):
        try:
            bits = bytes(digits)
        except (TypeError, ValueError):  # a digit that is no int in [0, 256)
            bits = b""
        if bits and not bits.translate(None, b"\x00\x01"):
            return int(bits[::-1].translate(_BIT_TEXT), 2)
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
    return _int_to_digits(mod_power(n, p, count), p, count)


def _int_to_digits(n: int, p: int, count: int) -> list[int]:
    if p == 2:
        # Read the bits off one binary string (bytes 0/1 after translate)
        # instead of one divmod per digit.
        if count == 0:
            return []
        return list(format(n, f"0{count}b")[::-1].encode().translate(_BIT_VALUES))
    if count <= _NAIVE_DIGIT_THRESHOLD:
        out = []
        for _ in range(count):
            n, d = divmod(n, p)
            out.append(d)
        return out
    half = count // 2
    q, r = divmod(n, p**half)
    return _int_to_digits(r, p, half) + _int_to_digits(q, p, count - half)


def int_repr(n: int) -> str:
    """``repr(n)``, or ``<int of N bits>`` past CPython's str-conversion limit.

    Keeps tracebacks and failure reports printable when a coordinate runs
    to tens of thousands of digits.
    """
    try:
        return repr(n)
    except ValueError:
        sign = "-" if n < 0 else ""
        return f"{sign}<int of {n.bit_length()} bits>"


def exact_decimal_context() -> decimal.Context:
    """A ``decimal`` context in which integer arithmetic is exact at any size.

    Its precision and exponent range are the largest ``decimal`` allows,
    and a result that would round raises ``decimal.Inexact`` instead.
    """
    context = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    context.traps[decimal.Inexact] = True
    return context


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
    context = exact_decimal_context()
    powers: dict[int, decimal.Decimal] = {}

    def convert(m: int, bits: int) -> decimal.Decimal:
        if bits <= _DECIMAL_CHUNK_BITS:
            return decimal.Decimal(m)
        half = bits >> 1
        high = m >> half
        low = m - (high << half)
        if half not in powers:
            powers[half] = context.power(2, half)
        return context.fma(convert(high, bits - half), powers[half], convert(low, half))

    return str(convert(n, n.bit_length()))


def decimal_to_int(text: str) -> int:
    """Parse decimal text written by :func:`int_to_decimal` (any length).

    The text must be an optional sign and ASCII digits at every length, so
    whether it parses never depends on how long it is (``int`` alone would
    also take surrounding spaces, underscores and non-ASCII digits).  Text
    up to the chunk size goes straight to ``int``; longer text is parsed in
    halves joined by one (Karatsuba) multiplication per split.
    """
    body = text[1:] if text[:1] in ("+", "-") else text
    # On ASCII text bytes.isdigit is several times faster than str.isdigit.
    if not (body.isascii() and body.encode().isdigit()):
        raise ValueError(f"invalid decimal integer {text[:32]!r}")
    if len(text) <= _DECIMAL_CHUNK_DIGITS:
        return int(text)
    sign = -1 if text[0] == "-" else 1
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


@dataclass(frozen=True)
class PAdicNumber:
    """A p-adic integer known modulo ``p**precision``, held as its residue.

    Two numbers are equal when they have the same prime and the same digits,
    i.e. the same precision and residue.
    """

    p: int
    precision: int
    value: int

    @cached_property
    def digits(self) -> tuple[int, ...]:
        """Little-endian Hensel digits, ``precision`` of them."""
        return tuple(int_to_digits(self.value, self.p, self.precision))

    @cached_property
    def modulus(self) -> int:
        return self.p**self.precision

    def __repr__(self) -> str:  # keep huge digit vectors out of tracebacks
        head = ",".join(map(str, int_to_digits(self.value, self.p, min(self.precision, 8))))
        tail = ",..." if self.precision > 8 else ""
        return f"PAdicNumber(p={self.p}, precision={self.precision}, digits=[{head}{tail}])"


def from_value(p: int, value: int, precision: int) -> PAdicNumber:
    """The p-adic integer ``value mod p**precision``."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    return PAdicNumber(p, precision, mod_power(value, p, precision))


def from_digits(p: int, digits: Iterable[int]) -> PAdicNumber:
    """Build a p-adic integer from explicit little-endian digits."""
    digs = tuple(map(int, digits))
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not digs:
        raise ValueError("digit vector must be nonempty")
    if min(digs) < 0 or max(digs) >= p:
        i, d = next((i, d) for i, d in enumerate(digs) if not 0 <= d < p)
        raise ValueError(f"digit {d} at index {i} out of range [0, {p})")
    return PAdicNumber(p, len(digs), digits_to_int(digs, p))


def from_rational(p: int, num: int, den: int, precision: int) -> PAdicNumber:
    """Embed num/den into Z_p at the given precision (den must be a p-unit).

    The inverse of den modulo ``p**precision`` is Hensel-lifted by Newton's
    iteration ``x <- x*(2 - den*x) mod p**k`` from its residue mod p.  An
    inverse mod p**k is correct mod p**(2k), so the steps walk the ladder
    n, ceil(n/2), ceil(n/4), ..., 1 upward and the last one lands on
    p**precision exactly; the cost is a few multiplications at full size,
    plus one reduction per rung (:func:`mod_power`).  CPython's
    ``pow(den, -1, m)`` runs a quadratic extended Euclid instead.  On the
    Schneider denominators (CPython 3.11.7, one core of a 2-vCPU machine)
    the lift takes 1.1 s against 8.1 s at p = 3 and 399,293 digits, and
    0.04 s against 2.1 s at p = 2 and 300,707 digits.  At p = 2 the
    reductions are bit masks; with ``%`` there the lift took 0.26 s.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if den == 0:
        raise ValueError("denominator must be nonzero")
    if den % p == 0:
        raise ValueError(f"denominator {den} is divisible by p={p}")
    ladder = [precision]
    while ladder[-1] > 1:
        ladder.append((ladder[-1] + 1) // 2)
    inverse = pow(den, -1, p)
    for k in reversed(ladder[:-1]):
        inverse = mod_power(inverse * (2 - den * inverse), p, k)
    return from_value(p, num * inverse, precision)


def residue(xi: PAdicNumber, v: int) -> int:
    """The residue of xi modulo ``p**v`` for v <= precision."""
    if v < 0 or v > xi.precision:
        raise ValueError(f"residue level {v} outside [0, {xi.precision}]")
    if v == xi.precision:
        return xi.value
    return mod_power(xi.value, xi.p, v)


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
    r = mod_power(y * xi.value - x, xi.p, ceiling)
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

    def __repr__(self) -> str:  # the dataclass repr fails past 4300 digits
        return f"ApproxPair(x={int_repr(self.x)}, y={int_repr(self.y)}, val={self.val!r})"


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
    # JSON floats, strings and booleans are not digits, even where int() takes them.
    digits = payload["digits"]
    if type(payload["p"]) is not int or type(payload["precision"]) is not int:
        raise ValueError(f"digit file {path}: p and precision must be integers")
    if not isinstance(digits, list) or not set(map(type, digits)) <= {int}:
        raise ValueError(f"digit file {path}: digits must be a list of integers")
    xi = from_digits(payload["p"], digits)
    if xi.precision != payload["precision"]:
        raise ValueError(
            f"digit file {path} declares precision {payload['precision']} "
            f"but carries {xi.precision} digits"
        )
    return xi
