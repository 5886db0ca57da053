"""Digit arithmetic, valuations of linear forms, and digit-file round trips."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from padiclab import (
    ApproxPair,
    Valuation,
    digits_to_int,
    from_digits,
    from_rational,
    from_value,
    ilog,
    int_to_digits,
    is_prime,
    linear_form_valuation,
    load_digit_file,
    make_pair,
    pval,
    residue,
    save_digit_file,
)
from padiclab.core import decimal_to_int, int_to_decimal, mod_power

PRIMES = (2, 3, 5, 7)


# ---------------------------------------------------------------------------
# integer helpers
# ---------------------------------------------------------------------------


def test_is_prime_small_values():
    primes_below_50 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-2, 50):
        assert is_prime(n) == (n in primes_below_50)


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)
    assert not is_prime(3**100)


def test_pval_examples():
    assert pval(12, 2) == 2
    assert pval(12, 3) == 1
    assert pval(-8, 2) == 3
    assert pval(1, 5) == 0
    assert pval(3**200, 3) == 200
    assert pval(3**200 + 1, 3) == 0


def test_pval_of_zero_rejected():
    with pytest.raises(ValueError):
        pval(0, 2)


@given(
    p=st.sampled_from(PRIMES + (11, 101)),
    unit=st.integers(min_value=1, max_value=10**40),
    v=st.integers(min_value=0, max_value=600),
    negative=st.booleans(),
)
@settings(max_examples=300)
def test_pval_matches_chunked_reference(p, unit, v, negative):
    n = unit * p**v * (-1 if negative else 1)
    assert pval(n, p) == reference.pval(n, p)


@given(
    digits=st.integers(min_value=1, max_value=12_000),
    seed=st.integers(min_value=0, max_value=10**6),
    negative=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_decimal_text_round_trip_past_the_str_limit(digits, seed, negative):
    n = random.Random(seed).randrange(10 ** (digits - 1), 10**digits)
    n = -n if negative else n
    text = int_to_decimal(n)
    assert len(text.lstrip("-")) == digits
    assert decimal_to_int(text) == n
    if digits <= 4000:
        assert text == str(n)
    else:
        # Spot-check the text against exact arithmetic on its ends.
        assert int(text[-50:]) == abs(n) % 10**50
        assert text[0] == "-" if negative else text[0] != "-"


def test_decimal_to_int_rejects_malformed_long_text():
    with pytest.raises(ValueError):
        decimal_to_int("1" * 5000 + "x")
    with pytest.raises(ValueError):
        decimal_to_int("1_" * 3000)


# Text that int() takes but the chain CSV grammar (an optional sign, then
# ASCII digits) does not: surrounding whitespace, underscores, non-ASCII
# digits.  "{d}" stands for a run of ASCII digits, short or past the chunk.
_OFF_GRAMMAR = (
    " {d}", "{d} ", " -{d}", "\t{d}\n", "1_{d}", "{d}\u0665", "\uff15{d}", "\u0665",
    "+-{d}", "{d}-", "", "+", "-",
)
_ON_GRAMMAR = ("{d}", "+{d}", "-{d}", "0{d}", "-0{d}")


@pytest.mark.parametrize("digits", ["5", "5" * 5000], ids=["short", "long"])
@pytest.mark.parametrize("template", _OFF_GRAMMAR)
def test_decimal_to_int_applies_one_grammar_at_every_length(template, digits):
    with pytest.raises(ValueError, match="invalid decimal integer"):
        decimal_to_int(template.format(d=digits))


@pytest.mark.parametrize("digits", ["5", "5" * 5000], ids=["short", "long"])
@pytest.mark.parametrize("template", _ON_GRAMMAR)
def test_decimal_to_int_reads_signed_ascii_digits_at_every_length(template, digits):
    text = template.format(d=digits)
    sign = -1 if text.startswith("-") else 1
    assert decimal_to_int(text) == sign * 5 * (10 ** len(digits) - 1) // 9


@given(
    p=st.sampled_from(PRIMES),
    n=st.one_of(
        st.integers(min_value=-(10**80), max_value=10**80),
        st.integers(min_value=1, max_value=3000).map(lambda bits: -(1 << bits) + 12345),
    ),
    k=st.integers(min_value=0, max_value=400),
)
@example(p=2, n=-1, k=0)
@example(p=3, n=-5, k=0)
@example(p=2, n=-(2**80), k=300)  # k past the bit length of n
@example(p=7, n=7**50 - 1, k=60)
@settings(max_examples=400)
def test_mod_power_matches_remainder(p, n, k):
    assert mod_power(n, p, k) == n % p**k


def test_ilog_examples():
    assert ilog(1, 2) == 0
    assert ilog(7, 2) == 2
    assert ilog(8, 2) == 3
    assert ilog(9, 3) == 2
    assert ilog(10**18, 10) == 18


def test_ilog_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ilog(0, 2)
    with pytest.raises(ValueError):
        ilog(5, 1)
    with pytest.raises(ValueError, match="power"):
        ilog(5, 2, 0)
    with pytest.raises(ValueError, match="power"):
        ilog(5, 2, -3)
    # 8**2 = 4**3: a tie between powers that no bound on logarithms excludes.
    assert ilog(8, 4) == 1
    with pytest.raises(ValueError, match="prime base"):
        ilog(8, 4, 2)


@st.composite
def near_prime_powers(draw):
    """(p, n) with n = p**k + delta, delta in {-1, 0, 1} or up to p**k in size."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    k = draw(st.integers(min_value=0, max_value=40))
    delta = draw(st.sampled_from((-1, 0, 1)) | st.integers(-(p**k), p**k))
    return p, max(1, p**k + delta)


@given(pn=near_prime_powers(), power=st.integers(min_value=1, max_value=3000))
@example(pn=(2, 2**10), power=3000)
@example(pn=(13, 13**40), power=2999)
@example(pn=(3, 3), power=2)
@example(pn=(7, 1), power=5)
@example(pn=(2, 2**60_000 - 1), power=5)
@example(pn=(3, 3**5_000 + 1), power=7)
@settings(max_examples=300, deadline=None)
def test_ilog_power_matches_explicit_powers(pn, power):
    p, n = pn
    expected = 0 if n == 1 else reference.select_block_exponent(p, n, 0, Fraction(power))
    assert ilog(n, p, power) == expected


@pytest.mark.parametrize("p, b", [(2, 401), (3, 301), (5, 501)])
def test_ilog_power_doubles_its_precision(p, b):
    # isqrt(p**b)**2 lies just below p**b for odd b, so 2*log_p of it comes
    # within about p**(-b/2) of the integer b and the first bounds fail.
    n = math.isqrt(p**b)
    assert p ** (b - 1) <= n**2 < p**b
    assert ilog(n, p, 2) == b - 1


@given(
    n=st.integers(min_value=0, max_value=10**120),
    p=st.sampled_from(PRIMES),
    count=st.integers(min_value=0, max_value=400),
)
@example(n=10**120, p=2, count=129)
@example(n=10**120 - 1, p=2, count=400)
def test_digit_conversion_round_trip(n, p, count):
    digits = int_to_digits(n, p, count)
    assert len(digits) == count
    assert all(0 <= d < p for d in digits)
    assert digits_to_int(digits, p) == n % p**count


@given(
    count=st.integers(min_value=0, max_value=700),
    lead=st.integers(min_value=0, max_value=700),
    seed=st.integers(min_value=0, max_value=10**6),
)
@example(count=0, lead=0, seed=5)
@example(count=1, lead=1, seed=0)
@example(count=129, lead=0, seed=1)
@example(count=257, lead=100, seed=2)
def test_binary_digits_match_divmod_digits(count, lead, seed):
    """The p = 2 path reads a binary string; it must give the divmod digits,
    with leading zeros (values far below 2^count), count 0 and odd counts."""
    n = random.Random(seed).getrandbits(max(0, count - lead))
    assert int_to_digits(n, 2, count) == reference.int_to_digits(n, 2, count)
    # Bits at and above 2^count are reduced away first.
    assert int_to_digits(n + (3 << count), 2, count) == reference.int_to_digits(n, 2, count)


@given(
    digits=st.lists(st.integers(min_value=0, max_value=1), max_size=1000)
    | st.lists(st.integers(min_value=0, max_value=300), max_size=400),
    container=st.sampled_from((list, tuple)),
)
@example(digits=[1] * 129, container=tuple)
@example(digits=[0] * 200 + [1], container=list)
@example(digits=[1] * 200 + [2] + [1] * 50, container=tuple)
# Digits whose bytes read as binary text: "0", "1", "_" and a space.
@example(digits=[1, 48, 0, 49], container=list)
@example(digits=[1, 95, 0, 32], container=list)
def test_binary_digits_to_int_matches_the_digit_sum(digits, container):
    """At p = 2, 0/1 vectors of any length and vectors with digits of 2 or
    more (even past a byte) evaluate to sum(d * 2**i)."""
    expected = sum(d << i for i, d in enumerate(digits))
    assert digits_to_int(container(digits), 2) == expected


def test_digits_to_int_long_vector():
    digits = [1] * 300
    assert digits_to_int(digits, 2) == 2**300 - 1
    # A digit of 2 or more is no binary digit, but still counts at its place.
    assert digits_to_int(digits + [3], 2) == 2**300 - 1 + 3 * 2**300
    assert digits_to_int([1, 2, 0, 3], 2) == 29


# ---------------------------------------------------------------------------
# number construction
# ---------------------------------------------------------------------------


def test_from_digits_basic():
    xi = from_digits(2, [1, 1, 0, 1])
    assert xi.p == 2
    assert xi.precision == 4
    assert xi.value == 11
    assert xi.modulus == 16


def test_from_digits_validation():
    with pytest.raises(ValueError):
        from_digits(4, [1])
    with pytest.raises(ValueError):
        from_digits(2, [])
    with pytest.raises(ValueError):
        from_digits(2, [0, 2])


@pytest.mark.parametrize(
    "digits, message",
    [
        ([0, 1, 5, -1], "digit 5 at index 2 out of range [0, 3)"),
        ([0, -1, 7], "digit -1 at index 1 out of range [0, 3)"),
        ([2] * 70_000 + [3], "digit 3 at index 70000 out of range [0, 3)"),
    ],
)
def test_from_digits_names_the_first_digit_out_of_range(digits, message):
    with pytest.raises(ValueError) as info:
        from_digits(3, digits)
    assert str(info.value) == message


@given(
    p=st.sampled_from(PRIMES),
    n=st.integers(min_value=1, max_value=300),
    v=st.integers(min_value=-(10**150), max_value=10**150),
)
def test_from_value_matches_from_digits(p, n, v):
    xi = from_value(p, v, n)
    twin = from_digits(p, int_to_digits(v, p, n))
    assert xi == twin
    assert hash(xi) == hash(twin)
    assert xi.value == v % p**n
    assert xi.digits == twin.digits


def test_from_value_validation():
    with pytest.raises(ValueError):
        from_value(4, 1, 3)
    with pytest.raises(ValueError):
        from_value(2, 1, 0)
    with pytest.raises(ValueError):
        from_value(2, 1, -1)


def test_repr_shows_leading_digits_only():
    xi = from_value(3, 2 + 3 * 1 + 9 * 2, 1000)
    assert repr(xi) == "PAdicNumber(p=3, precision=1000, digits=[2,1,2,0,0,0,0,0,...])"
    assert repr(from_digits(2, [1, 1])) == "PAdicNumber(p=2, precision=2, digits=[1,1])"


def test_from_rational_third_in_base_two():
    xi = from_rational(2, 1, 3, 6)
    # 3 * 43 = 129 = 1 (mod 64)
    assert xi.value == 43
    assert xi.digits == (1, 1, 0, 1, 0, 1)


def test_from_rational_negative_numerator():
    xi = from_rational(5, -1, 2, 3)
    assert (2 * xi.value) % 125 == 125 - 1
    assert xi.digits == (2, 2, 2)


def test_from_rational_validation():
    with pytest.raises(ValueError):
        from_rational(2, 1, 6, 4)  # denominator divisible by p
    with pytest.raises(ValueError):
        from_rational(2, 1, 0, 4)
    with pytest.raises(ValueError):
        from_rational(2, 1, 3, 0)


# Newton steps land on every precision of the ladder n, ceil(n/2), ..., 1,
# so powers of two and their neighbours exercise both parities of each step.
_LIFT_PRECISIONS = st.one_of(
    st.integers(min_value=1, max_value=40),
    st.sampled_from([2**k + d for k in range(1, 11) for d in (-1, 0, 1)]),
)


@given(
    p=st.sampled_from(PRIMES),
    n=_LIFT_PRECISIONS,
    k=st.integers(min_value=-(10**60), max_value=10**60),
    unit=st.integers(min_value=1, max_value=6),
    kind=st.sampled_from(("unit", "plus_one", "minus_one")),
    beyond=st.booleans(),
    num=st.integers(min_value=-(10**30), max_value=10**30),
)
@settings(max_examples=300, deadline=None)
def test_from_rational_lift_matches_modular_inverse(p, n, k, unit, kind, beyond, num):
    r = {"unit": 1 + unit % (p - 1), "plus_one": 1, "minus_one": -1}[kind]
    den = p * k + r
    if beyond:  # |den| > p**n, same residue mod p
        den += p ** (n + 3) * (1 if k >= 0 else -1)
    mod = p**n
    assert from_rational(p, 1, den, n).value == pow(den, -1, mod)
    assert from_rational(p, num, den, n).value == num * pow(den, -1, mod) % mod


@pytest.mark.parametrize("p", PRIMES)
def test_from_rational_lift_at_ten_thousand_digits(p):
    rng = random.Random(f"lift:{p}")
    n = 10_000 + rng.randrange(100)
    mod = p**n
    num = rng.randrange(-mod, mod)
    den = rng.randrange(1, mod) * p + rng.randrange(1, p)
    expected = int_to_digits(num * pow(den, -1, mod) % mod, p, n)
    assert from_rational(p, num, den, n).digits == tuple(expected)


def test_residue_and_truncation():
    xi = from_digits(2, [1, 1, 0, 1])
    assert residue(xi, 0) == 0
    assert residue(xi, 2) == 3
    assert residue(xi, 3) == 3
    assert residue(xi, 4) == 11
    with pytest.raises(ValueError):
        residue(xi, 5)


@given(
    p=st.sampled_from(PRIMES),
    seed=st.integers(min_value=0, max_value=10**6),
    cutoff=st.integers(min_value=0, max_value=19),
)
def test_truncation_valuation_invariant(p, seed, cutoff):
    import random

    rng = random.Random(seed)
    digits = [rng.randrange(p) for _ in range(20)]
    digits[0] = max(digits[0], 1)
    xi = from_digits(p, digits)
    t = residue(xi, cutoff + 1)
    assert (xi.value - t) % p ** (cutoff + 1) == 0


# ---------------------------------------------------------------------------
# linear form valuations
# ---------------------------------------------------------------------------


def test_linear_form_exact_value():
    xi = from_rational(2, 1, 3, 10)
    val = linear_form_valuation(xi, 1, 1)
    # 683 - 1 = 682 = 2 * 341
    assert val.is_exact and val.value == 1
    val = linear_form_valuation(xi, -1, 1)
    assert val.is_exact and val.value == 2


def test_linear_form_censoring():
    xi = from_rational(2, 1, 3, 10)
    val = linear_form_valuation(xi, 1, 3)
    assert not val.is_exact
    assert val.value == 10
    # A p-divisible y raises the usable ceiling by its valuation.
    val = linear_form_valuation(xi, 2, 6)
    assert not val.is_exact
    assert val.value == 11


def test_linear_form_with_zero_y():
    xi = from_digits(3, [1, 2, 0, 1])
    val = linear_form_valuation(xi, 9, 0)
    assert val.is_exact and val.value == 2
    with pytest.raises(ValueError):
        linear_form_valuation(xi, 0, 0)


@given(
    p=st.sampled_from((2, 3, 5)),
    seed=st.integers(min_value=0, max_value=10**6),
    x=st.integers(min_value=-50, max_value=50),
    y=st.integers(min_value=-50, max_value=50).filter(lambda v: v != 0),
    m=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=150)
def test_linear_form_scaling_law(p, seed, x, y, m):
    """Scaling (x, y) by p**m deepens the valuation by exactly m."""
    import random

    rng = random.Random(seed)
    digits = [rng.randrange(p) for _ in range(24)]
    digits[0] = max(digits[0], 1)
    xi = from_digits(p, digits)
    if x == 0:
        x = 1
    base = linear_form_valuation(xi, x, y)
    scaled = linear_form_valuation(xi, x * p**m, y * p**m)
    assert scaled.is_exact == base.is_exact
    assert scaled.value == base.value + m


@given(
    p=st.sampled_from((2, 3, 5)),
    seed=st.integers(min_value=0, max_value=10**6),
    x=st.integers(min_value=-80, max_value=80).filter(lambda v: v != 0),
    y=st.integers(min_value=1, max_value=80),
    extra=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=150)
def test_exact_valuations_survive_precision_growth(p, seed, x, y, extra):
    """An Exact valuation never changes when more digits become known."""
    import random

    rng = random.Random(seed)
    digits = [rng.randrange(p) for _ in range(20 + extra)]
    digits[0] = max(digits[0], 1)
    wide = from_digits(p, digits)
    narrow = from_digits(p, digits[:20])
    val = linear_form_valuation(narrow, x, y)
    if val.is_exact:
        wide_val = linear_form_valuation(wide, x, y)
        assert wide_val.is_exact and wide_val.value == val.value


@given(
    p=st.sampled_from(PRIMES),
    n=st.integers(min_value=1, max_value=400),
    seed=st.integers(min_value=0, max_value=10**6),
    x=st.integers(min_value=-(10**40), max_value=10**40),
    y=st.integers(min_value=-(10**40), max_value=10**40),
    e=st.integers(min_value=0, max_value=5),
    censored=st.booleans(),
)
@settings(max_examples=300)
def test_linear_form_valuation_matches_division(p, n, seed, x, y, e, censored):
    """Negative coordinates, y divisible by p**e, and forms that vanish."""
    xi = from_value(p, random.Random(seed).randrange(p**n), n)
    y *= p**e
    if censored:
        x = y * xi.value
    if x == 0 and y == 0:
        return
    expected = reference.form_valuation_by_division(xi, x, y)
    assert linear_form_valuation(xi, x, y) == expected


# ---------------------------------------------------------------------------
# pairs and digit files
# ---------------------------------------------------------------------------


def test_make_pair_normalizes_sign():
    xi = from_digits(2, [1, 0, 1, 1])
    pair = make_pair(xi, 3, -2)
    assert (pair.x, pair.y) == (-3, 2)
    assert pair.height_sup == 3
    assert pair.height_mult_sq == 6


def test_approx_pair_repr_past_the_str_limit():
    pair = ApproxPair(x=10**5000, y=1, val=Valuation.exact(3))
    assert repr(pair) == (
        "ApproxPair(x=<int of 16610 bits>, y=1, "
        "val=Valuation(value=3, is_exact=True))"
    )
    assert repr(ApproxPair(x=-(10**5000), y=7, val=Valuation.at_least(2))).startswith(
        "ApproxPair(x=-<int of 16610 bits>, y=7,"
    )
    small = ApproxPair(x=-3, y=5, val=Valuation.at_least(4))
    assert repr(small) == "ApproxPair(x=-3, y=5, val=Valuation(value=4, is_exact=False))"


def test_make_pair_rejects_zero_coordinates():
    xi = from_digits(2, [1])
    with pytest.raises(ValueError):
        make_pair(xi, 0, 1)
    with pytest.raises(ValueError):
        make_pair(xi, 1, 0)


def test_digit_file_round_trip(tmp_path):
    xi = from_rational(3, 7, 5, 40)
    path = tmp_path / "xi.json"
    save_digit_file(xi, path)
    back = load_digit_file(path)
    assert back == xi


def test_digit_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_digit_file(path)
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError):
        load_digit_file(path)
    path.write_text(json.dumps({"format": "padic-digits-v1", "p": 2}))
    with pytest.raises(ValueError):
        load_digit_file(path)
    path.write_text(
        json.dumps(
            {"format": "padic-digits-v1", "p": 2, "precision": 5, "digits": [1, 0]}
        )
    )
    with pytest.raises(ValueError):
        load_digit_file(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("p", 2.0),
        ("p", True),
        ("p", "2"),
        ("precision", 3.0),
        ("digits", [1.7, 0, 1]),
        ("digits", [1.0, 0, 1]),
        ("digits", ["1", 0, 1]),
        ("digits", [True, 0, 1]),
        ("digits", [1, None, 1]),
        ("digits", "101"),
    ],
)
def test_digit_file_rejects_non_integer_entries(tmp_path, field, value):
    payload = {"format": "padic-digits-v1", "p": 2, "precision": 3, "digits": [1, 0, 1]}
    payload[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="integers"):
        load_digit_file(path)
