"""Chains, per-level minimisers, oracles, box minima, CSV round trips."""

from __future__ import annotations

import math
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from padiclab import (
    NORMS,
    NORM_MULT,
    NORM_SUP,
    ApproxPair,
    BestApproxChain,
    LacunarySpec,
    build_digit_rule,
    build_lacunary,
    lacunary_pow_exponents,
    chain,
    chain_from_entries,
    from_digits,
    from_rational,
    from_value,
    ilog,
    load_chain_entries,
    make_pair,
    oracle_chain,
    pval,
    residue,
    save_chain_csv,
    uniform_minimum,
    uniform_minimum_enum,
    Valuation,
)
from padiclab import lattice
from padiclab.lattice import CHAIN_CSV_FIELDS, Scalings
from padiclab.walk import SupWalk, best_mult_pair, reduce_basis, sup_search
from conftest import NON_STAIRCASES, seeded_xi, write_chain_csv

PRIMES = (2, 3, 5, 7)


def padic_numbers(max_digits: int):
    """Random numbers, often divisible by a power of p (leading zeros)."""
    return st.builds(
        lambda p, head, tail, seed: from_digits(
            p, [0] * head + _random_digits(p, tail, seed)
        ),
        p=st.sampled_from(PRIMES),
        head=st.integers(min_value=0, max_value=max_digits // 2),
        tail=st.integers(min_value=1, max_value=max_digits // 2),
        seed=st.integers(min_value=0, max_value=10**6),
    )


def _random_digits(p, count, seed):
    rng = random.Random(seed)
    return [rng.randrange(p) for _ in range(count)]


def entry_triples(chain_):
    return [(e.x, e.y, e.val.value) for e in chain_.entries]


# ---------------------------------------------------------------------------
# per-level minimisers
# ---------------------------------------------------------------------------


def sup_at_level(xi, level):
    walk = SupWalk(xi)
    walk.advance(level)
    return walk.best_pair()


def mult_at_level(xi, level):
    unit = lattice._unit_part(xi)
    x, y = best_mult_pair(xi.p, xi.p**level, residue(xi, level), unit)
    return make_pair(xi, x, y)


def test_best_pair_small_example():
    xi = from_digits(2, [1, 1, 0, 1, 0, 0])  # residue 11 mod 64
    pair = sup_at_level(xi, 4)
    # 3 * 11 - 1 = 32, so (1, 3) certifies level 4 with sup height 3.
    assert (pair.x, pair.y) == (1, 3)
    assert pair.val.is_exact and pair.val.value == 5


def test_best_pair_zero_residue():
    xi = from_digits(5, [0, 0, 1, 3])
    pair = sup_at_level(xi, 2)
    assert (pair.x, pair.y) == (25, 1)
    pair = mult_at_level(xi, 1)
    assert (pair.x, pair.y) == (5, 1)


def test_best_pair_level_validation():
    xi = from_digits(2, [1, 1])
    with pytest.raises(ValueError):
        chain(xi, NORM_MULT, 0)
    with pytest.raises(ValueError):
        chain(xi, NORM_MULT, 3)


def test_best_pair_beats_exhaustive_scan():
    """The walk minimiser matches a brute-force scan over a small box."""
    for p, seed in ((2, 11), (3, 12), (5, 13)):
        xi = seeded_xi(p, 12, seed)
        for level in (3, 5, 7):
            modulus = p**level
            r = xi.value % modulus
            best = {NORM_SUP: None, NORM_MULT: None}
            for y in range(1, modulus + 1):
                if y % p == 0:
                    continue
                rem = (y * r) % modulus
                for x in (rem, rem - modulus):
                    if x == 0 or math.gcd(x, y) != 1:
                        continue
                    for norm, metric in (
                        (NORM_SUP, max(abs(x), y)),
                        (NORM_MULT, abs(x) * y),
                    ):
                        if best[norm] is None or metric < best[norm]:
                            best[norm] = metric
            sup = sup_at_level(xi, level)
            mult = mult_at_level(xi, level)
            assert sup.height_sup == best[NORM_SUP]
            assert mult.height_mult_sq == best[NORM_MULT]


@given(xi=padic_numbers(48))
@settings(max_examples=120, deadline=None)
def test_level_minimisers_match_reference_walk(xi):
    """The reduced-basis walk and the front-pair product walk agree with the
    candidate-set walk at every level, including levels with residue 0."""
    p = xi.p
    walk = SupWalk(xi)
    for level in range(1, xi.precision + 1):
        modulus, r = p**level, xi.value % p**level
        walk.advance(level)
        sup = make_pair(xi, *reference.best_pair(p, modulus, r, NORM_SUP))
        mult = make_pair(xi, *reference.best_pair(p, modulus, r, NORM_MULT))
        assert walk.best_pair() == sup
        assert mult_at_level(xi, level) == mult


# Form value of (r, 1): any integer is the form of some xi = r (mod p^v), and
# a large one tells apart every combination a*b1 + c*b2 of a small basis.
_FORM = 10**9 + 7


def test_sup_search_matches_kink_reference_on_every_residue():
    """The three-vector search returns the kink search's vector and form on
    every basis reduced from (p^v, 0), (r, 1), r != 0, for p^v <= 2^11,
    3^7, 5^5 and 7^4."""
    bases = 0
    for p, top in ((2, 11), (3, 7), (5, 5), (7, 4)):
        for v in range(1, top + 1):
            modulus = p**v
            for r in range(1, modulus):
                b1, b2 = reduce_basis((modulus, 0, -1), (r, 1, _FORM))
                assert sup_search(p, b1, b2) == reference.kink_sup_search(p, b1, b2)
                bases += 1
    assert bases == 14051


@given(xi=padic_numbers(120))
@settings(max_examples=100, deadline=None)
def test_sup_search_matches_kink_reference_along_the_walk(xi):
    """The same on every basis SupWalk carries above the zero levels."""
    p = xi.p
    walk = SupWalk(xi)
    for level in range(walk.zero_levels + 1, xi.precision + 1):
        walk.advance(level)
        b1, b2 = walk.b1, walk.b2
        assert sup_search(p, b1, b2) == reference.kink_sup_search(p, b1, b2)


@st.composite
def mult_kernel_inputs(draw):
    """(p, p^v, r) with r = p^w * u mod p^v and p not dividing u: often a
    unit (w = 0), zero (w = v) or, for p = 2 and w = v - 1, the tie
    modulus = 2r."""
    p = draw(st.sampled_from(PRIMES))
    v = draw(st.integers(min_value=1, max_value=700))
    w = draw(
        st.sampled_from((0, v - 1, v)) | st.integers(min_value=0, max_value=v - 1)
    )
    u = draw(st.integers(min_value=1, max_value=p**v - 1))
    u += u % p == 0
    modulus = p**v
    return p, modulus, p**w * u % modulus


@given(triple=mult_kernel_inputs())
@example(triple=(2, 2**10, 2**9))
@example(triple=(2, 2**700, 2**699))
@example(triple=(3, 3**700, 0))
# Minimisers whose quotient is one below that of an earlier admissible pair
# (rare in random draws).
@example(triple=(2, 2**9, 231))
@example(triple=(3, 3**6, 140))
@example(triple=(5, 5**5, 989))
@example(triple=(7, 7**4, 198))
@settings(max_examples=300, deadline=None)
def test_mult_kernel_matches_front_walk_reference(triple):
    """Running the Euclid steps on x alone and scoring only the
    large-quotient front pairs changes no minimiser: the kernel agrees with
    the y-cofactor walk and with the walk that scores every front pair.
    The unit part comes from a number of twice the level's precision, as a
    chain's does."""
    p, modulus, r = triple
    unit = lattice._unit_part(from_value(p, r * (1 + modulus), 2 * ilog(modulus, p)))
    expected = reference.front_walk_mult_pair(*triple)
    assert reference.cofactor_walk_mult_pair(*triple) == expected
    assert best_mult_pair(*triple, unit) == expected


def front_pairs(modulus, r):
    """(b_x, b_y, q, a_x) for each front pair of the walk on (modulus, 0),
    (r, 1) with b_x != 0, q being its next partial quotient and a_x the x
    of its predecessor."""
    ax, ay, bx, by = modulus, 0, r, 1
    while bx:
        q = ax // bx
        yield bx, by, q, ax
        ax, ay, bx, by = bx, by, ax - q * bx, ay - q * by


@given(triple=mult_kernel_inputs())
@example(triple=(2, 2**10, 2**9))
@settings(max_examples=200, deadline=None)
def test_front_pair_quotient_bound(triple):
    """q*P <= D < (q + 2)*P for every front pair, and the reference's
    minimiser has a quotient within 1 of the largest admissible one.

    The facts the x-only kernel reads y from, for r = p^w * eta, eta a
    unit: y is +1 at (r, 1) and alternates in sign; |y| < p^(v - w), as
    D >= a_x * |y| and a_x >= 2p^w; p does not divide y exactly when
    v_p(x) = w; and |y| = +-(x/p^w) * eta^(-1) mod p^(v - w), signed as y."""
    p, modulus, r = triple
    quotients = {}
    if r:  # r = 0 has no front pair
        w = pval(r, p)
        unit_modulus = modulus // p**w
        inverse = pow(r // p**w, -1, unit_modulus)
    for index, (bx, by, q, ax) in enumerate(front_pairs(modulus, r)):
        product = bx * abs(by)
        assert q * product <= modulus < (q + 2) * product
        sign = -1 if index % 2 else 1
        assert by == 1 if index == 0 else by * sign > 0
        assert modulus >= ax * abs(by) and ax >= 2 * p**w
        assert abs(by) < unit_modulus
        assert (by % p != 0) == (pval(bx, p) == w)
        assert abs(by) == sign * (bx // p**w) * inverse % unit_modulus
        if by % p:
            quotients[bx] = q
    x, _ = reference.front_walk_mult_pair(p, modulus, r)
    if quotients:
        assert quotients[abs(x)] >= max(quotients.values()) - 1


def test_dense_mult_chains_match_front_walk_reference(monkeypatch):
    """Whole product chains at benchmark sizes, against the same chains
    computed with the reference kernel."""
    numbers = (
        build_digit_rule(2, "random", 1024, seed=1),
        build_digit_rule(3, "random", 512, seed=1),
        build_digit_rule(2, "thue-morse", 2048),
        build_digit_rule(5, "random", 256, seed=1),
        # Divisible by p^(n/4): the walk runs on the residues over p^w.
        from_digits(3, [0] * 128 + [1] + _random_digits(3, 383, 2)),
    )
    fast = [chain(xi, NORM_MULT) for xi in numbers]

    def front_walk(p, modulus, r, unit):
        return reference.front_walk_mult_pair(p, modulus, r)

    monkeypatch.setattr(lattice, "best_mult_pair", front_walk)
    for xi, result in zip(numbers, fast):
        slow = chain(xi, NORM_MULT)
        assert result == slow


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def test_chain_censors_rational_input():
    xi = from_rational(2, 1, 3, 10)
    for norm in NORMS:
        result = chain(xi, norm)
        assert entry_triples(result) == [(-1, 1, 2)]
        assert result.censored == make_pair(xi, 1, 3)


def test_chain_max_level_validation():
    xi = from_digits(2, [1, 1, 0, 1])
    with pytest.raises(ValueError):
        chain(xi, NORM_SUP, 0)
    with pytest.raises(ValueError):
        chain(xi, NORM_SUP, 5)
    with pytest.raises(ValueError):
        chain(xi, "euclidean")


def test_chain_matches_oracle_on_random_numbers():
    bounds = {NORM_SUP: 200, NORM_MULT: 1500}
    for p in (2, 3, 5):
        for seed in range(6):
            xi = seeded_xi(p, 18, 100 * p + seed)
            for norm in NORMS:
                fast = chain(xi, norm)
                slow = oracle_chain(xi, norm, bounds[norm])
                metric = (
                    (lambda e: e.height_sup)
                    if norm == NORM_SUP
                    else (lambda e: e.height_mult_sq)
                )
                fast_entries = [
                    (e.x, e.y, e.val.value)
                    for e in fast.entries
                    if metric(e) <= bounds[norm]
                ]
                assert fast_entries == entry_triples(slow)


@given(
    xi=padic_numbers(60),
    norm=st.sampled_from(NORMS),
    cut=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=150, deadline=None)
def test_chain_jump_invariance(xi, norm, cut):
    """Jumping past certified levels gives the chain of a crawl over every
    level."""
    max_level = max(1, round(cut * xi.precision))
    assert chain(xi, norm, max_level) == reference.crawl_chain(xi, norm, max_level)


def test_mult_skip_still_visits_max_level():
    # The skip after the last record would jump past level 9; the censored
    # pair there must still be found.
    xi = from_digits(2, [1, 1, 1, 1, 1, 1, 1, 0, 0])
    fast = chain(xi, NORM_MULT)
    assert fast.censored.val.value == 9
    assert fast == reference.crawl_chain(xi, NORM_MULT, 9)


@pytest.mark.parametrize(
    "p, digits, max_level",
    [
        (2, [0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0], 12),
        (3, [2, 1, 2, 1, 0, 2, 2, 2, 1, 2, 0, 0, 2], 9),
    ],
)
def test_mult_skip_stops_at_max_level(p, digits, max_level):
    # A product pair below its required valuation at level max_level itself
    # ends the walk there: no later level is left to send it to.
    xi = from_digits(p, digits)
    assert chain(xi, NORM_MULT, max_level) == reference.crawl_chain(xi, NORM_MULT, max_level)


def test_censored_pair_displaces_same_height_record():
    # (1, 1) has valuation 1, but the censored (-1, 1) of the same height
    # reaches at least 2, so (1, 1) is no record.
    xi = from_digits(2, [1, 1])
    result = chain(xi, NORM_SUP)
    assert entry_triples(result) == []
    assert result.censored == make_pair(xi, -1, 1)
    assert entry_triples(oracle_chain(xi, NORM_SUP, 4)) == []
    # xi = 2^12 * eta: the record (4096, 975) of valuation 24 meets the
    # censored (-4096, 3121) of the same sup height, so (2048, 1) ends it.
    xi = from_digits(2, [0] * 12 + [1, 1, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0])
    result = chain(xi, NORM_SUP)
    assert result == oracle_chain(xi, NORM_SUP, 10**4)
    assert result == reference.crawl_chain(xi, NORM_SUP, 30)
    assert entry_triples(result)[-1][:2] == (2048, 1)
    assert result.censored == make_pair(xi, -4096, 3121)


@given(
    p=st.sampled_from(PRIMES),
    seed=st.integers(min_value=0, max_value=10**6),
    norm=st.sampled_from(NORMS),
)
@settings(max_examples=150, deadline=None)
def test_chain_matches_oracle_up_to_the_censored_pair(p, seed, norm):
    """On numbers short enough for the oracle to see the whole chain.

    The level-``precision`` minimiser, which is censored, has metric at
    most p^precision, so that bound covers every entry and the censored
    pair itself.
    """
    rng = random.Random(seed)
    precision = rng.randint(1, ilog(2048, p))
    head = rng.randint(0, precision - 1)
    xi = from_digits(p, [0] * head + _random_digits(p, precision - head, seed))
    fast = chain(xi, norm)
    slow = oracle_chain(xi, norm, p**precision)
    assert fast == slow


def short_number(p, seed, max_modulus, min_digits=1):
    """A number with p^precision <= max_modulus and at least ``min_digits``
    digits, often divisible by p^w."""
    rng = random.Random(seed)
    precision = rng.randint(min_digits, ilog(max_modulus, p))
    head = rng.randint(0, precision - 1) if rng.random() < 0.5 else 0
    return from_digits(p, [0] * head + _random_digits(p, precision - head, seed))


def box_bound(xi, fraction):
    """A box from 1 up to twice p^precision, past the censored pair's metric."""
    return max(1, round(fraction * 2 * xi.p**xi.precision))


@given(
    p=st.sampled_from(PRIMES),
    seed=st.integers(min_value=0, max_value=10**6),
    norm=st.sampled_from(NORMS),
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_oracle_matches_reference_enumeration(p, seed, norm, fraction):
    xi = short_number(p, seed, 1024)
    bound = box_bound(xi, fraction)
    assert oracle_chain(xi, norm, bound) == reference.oracle_chain(xi, norm, bound)


# Box caps that keep the reference enumeration cheap on 30-digit numbers:
# the slowest case, a sup box of 1000 with v_2(xi) = 12, takes about 0.1 s.
REFERENCE_BOX_CAPS = {NORM_SUP: 1000, NORM_MULT: 10**5}


def thirty_digit_number(p, seed):
    """30 random digits; half of the numbers are divisible by p^w with
    p^w <= 4096 (w up to 12 at p = 2)."""
    rng = random.Random(seed)
    w = rng.randint(1, ilog(4096, p)) if rng.random() < 0.5 else 0
    digits = [0] * w + [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(29 - w)]
    return from_digits(p, digits)


@given(
    p=st.sampled_from(PRIMES),
    seed=st.integers(min_value=0, max_value=10**6),
    norm=st.sampled_from(NORMS),
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_oracle_matches_reference_on_thirty_digit_numbers(p, seed, norm, fraction):
    """Boxes far below p^precision, where the level search stops at the bound."""
    xi = thirty_digit_number(p, seed)
    bound = max(1, round(REFERENCE_BOX_CAPS[norm] ** fraction))
    assert oracle_chain(xi, norm, bound) == reference.oracle_chain(xi, norm, bound)


@pytest.mark.parametrize(
    "p, digits, norm, bound",
    [
        # xi = 0: every level is a zero level, down to the censored (p^n, 1).
        (2, [0] * 10, NORM_SUP, 1100),
        (2, [0] * 10, NORM_MULT, 5000),
        (3, [0] * 6, NORM_MULT, 2000),
        # v_2(xi) = 5: at level 6 every residue sits on the half-modulus tie,
        # and the negative sign (-32, 1) reaches valuation 8.
        (2, [0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0], NORM_MULT, 3000),
        (2, [0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0], NORM_SUP, 200),
        # The product pair after (1, 3) misses its required valuation, which
        # lies past the precision; the search must still visit level 12 and
        # find the censored pair of product 1027.
        (2, [1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0], NORM_MULT, 3000),
    ],
)
def test_oracle_edge_cases_match_reference(p, digits, norm, bound):
    xi = from_digits(p, digits)
    fast = oracle_chain(xi, norm, bound)
    assert fast == reference.oracle_chain(xi, norm, bound)
    assert fast.censored.val.value == xi.precision


def high_valuation_number():
    """A 30-digit 2-adic number with v_2(xi) = 12."""
    rng = random.Random(12)
    return from_digits(2, [0] * 12 + [1] + [rng.randrange(2) for _ in range(17)])


def test_oracle_memory_stays_flat_at_high_valuation():
    # v_2(xi) = 12: the former oracle built one pair per ladder candidate
    # and peaked at about 63 MiB here.
    xi = high_valuation_number()
    tracemalloc.start()
    try:
        result = oracle_chain(xi, NORM_SUP, 10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.entries
    assert peak < 8 * 2**20


# Steps the linear reference may spend per example on its sup scans, which
# visit up to min(bound, p^level) values of y at each level.
LINEAR_SCAN_BUDGET = 3 * 10**5


@st.composite
def oracle_level_cases(draw):
    """(xi, mult, bound): a box log-uniform in 1..10^6, often a square or a
    square +-1, and a number divisible by p^w (xi = 0 included) with at most
    30 digits, fewer where the linear sup scans would exceed the budget."""
    p = draw(st.sampled_from(PRIMES))
    mult = draw(st.booleans())
    bound = max(1, round(10 ** draw(st.floats(min_value=0.0, max_value=6.0))))
    if draw(st.booleans()):
        root = math.isqrt(bound)
        bound = max(1, root * root + draw(st.sampled_from((-1, 0, 1))))
    most, cost = 1, min(bound, p)
    while most < 30:
        cost += min(bound, p ** (most + 1))
        if not mult and cost > LINEAR_SCAN_BUDGET:
            break
        most += 1
    precision = draw(st.integers(min_value=1, max_value=most))
    head = draw(st.integers(min_value=0, max_value=precision))
    tail = draw(
        st.lists(
            st.integers(min_value=0, max_value=p - 1),
            min_size=precision - head,
            max_size=precision - head,
        )
    )
    return from_digits(p, [0] * head + tail), mult, bound


@pytest.mark.parametrize("p", PRIMES)
def test_unit_part_inverts_the_unit(p):
    n = 24
    for w in (0, 1, n - 1):
        xi = from_value(p, p**w * (p - 1 + p * 12345 * (w + 1)), n)
        valuation, inverse = lattice._unit_part(xi)
        assert valuation == w
        assert inverse * (xi.value // p**w) % p ** (n - w) == 1
    assert lattice._unit_part(from_value(p, 0, n)) == (n, 0)


@given(case=oracle_level_cases())
# The p = 2 half-modulus tie: at level 6 every residue sits on it.
@example(case=(from_digits(2, [0] * 5 + [1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0]), False, 200))
@example(case=(from_digits(2, [0] * 5 + [1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0]), True, 3000))
# xi = 0: at level 10 the sup window top = 1024 = p^level covers the whole
# circle in every giant block.
@example(case=(from_digits(2, [0] * 10), False, 1100))
# Boxes past p^precision: the level-precision minimiser is censored.
@example(case=(from_digits(5, [3, 1, 4, 1]), True, 625))
@example(case=(from_digits(3, [2, 1, 0, 2, 2]), False, 243))
@example(case=(high_valuation_number(), False, 10**4))
@example(case=(high_valuation_number(), True, 10**6))
# Boxes below p^w = 4096: even the zero levels near w come back empty.
@example(case=(high_valuation_number(), False, 1000))
@example(case=(high_valuation_number(), True, 1000))
# w = 1 and w = precision - 1.
@example(case=(from_digits(3, [0, 2, 1, 0, 2, 1, 1, 2]), False, 10**4))
@example(case=(from_digits(3, [0, 2, 1, 0, 2, 1, 1, 2]), True, 10**5))
@example(case=(from_digits(2, [0] * 11 + [1]), False, 10**4))
@example(case=(from_digits(2, [0] * 11 + [1]), True, 10**6))
# xi = 0 in the product norm: every level is a zero level, the last censored.
@example(case=(from_digits(2, [0] * 10), True, 5000))
@example(case=(from_digits(3, [0] * 6), True, 2000))
# Censored at level w: 1/eta is 2 (x > 0) and -3 (x < 0) modulo p^(n - w),
# below p^w.
@example(case=(from_rational(3, 3**4, 2, 12), False, 10**4))
@example(case=(from_rational(3, 3**4, 2, 12), True, 10**6))
@example(case=(from_rational(2, -(2**5), 3, 16), False, 10**4))
@example(case=(from_rational(2, -(2**5), 3, 16), True, 10**6))
@settings(max_examples=150, deadline=None)
def test_oracle_level_matches_linear_scan(case):
    """Baby and giant steps, and the closed form of the zero levels, find
    the same (metric, key), or None, as the scan of every y (and u) at
    every level."""
    xi, mult, bound = case
    unit = lattice._unit_part(xi)
    for level in range(1, xi.precision + 1):
        assert lattice._oracle_level(xi, mult, level, bound, unit) == (
            reference.linear_oracle_level(xi, mult, level, bound, unit)
        )


@pytest.mark.parametrize("mult", [False, True])
def test_zero_levels_value_a_constant_number_of_forms(monkeypatch, mult):
    """Levels 1..w of a number with v_2(xi) = w = 12 are read in closed form;
    a scan valued every y <= 2^12 at level w, about 4,000 pval calls."""
    xi = high_valuation_number()
    unit = lattice._unit_part(xi)
    assert unit[0] == 12
    calls = []

    def counting_pval(n, p):
        calls.append(n)
        return pval(n, p)

    monkeypatch.setattr(lattice, "pval", counting_pval)
    found = [
        lattice._oracle_level(xi, mult, level, 10**6, unit) for level in range(1, 13)
    ]
    assert len(calls) <= 2
    assert found == [
        reference.linear_oracle_level(xi, mult, level, 10**6, unit)
        for level in range(1, 13)
    ]


def test_oracle_bound_scales_as_a_square_root():
    """Boxes of 10^7 (sup) and 10^10 (product) on a 96-digit number: the
    oracle agrees with the walk's chains up to the box, in well under the
    time a scan of every y would take (about 6 s)."""
    xi = seeded_xi(2, 96, 96)
    start = time.perf_counter()
    oracles = {
        NORM_SUP: oracle_chain(xi, NORM_SUP, 10**7),
        NORM_MULT: oracle_chain(xi, NORM_MULT, 10**10),
    }
    elapsed = time.perf_counter() - start
    for norm, oracle in oracles.items():
        bound = 10**7 if norm == NORM_SUP else 10**10
        walk = chain(xi, norm)
        expected = [
            triple
            for triple, metric in zip(entry_triples(walk), walk.metrics())
            if metric <= bound
        ]
        assert len(expected) > 10
        assert entry_triples(oracle) == expected
    assert elapsed < 2.0


def test_oracle_matches_the_walk_in_deep_boxes():
    """Sup boxes of 10^10 and product boxes of 10^18 on a 160-digit number:
    the oracle chains are the prefixes of the walk's chains below them.  No
    time is asserted; the pair takes about 2 s."""
    xi = seeded_xi(2, 160, 160)
    for norm, bound in ((NORM_SUP, 10**10), (NORM_MULT, 10**18)):
        walk = chain(xi, norm)
        expected = [
            triple
            for triple, metric in zip(entry_triples(walk), walk.metrics())
            if metric <= bound
        ]
        assert len(expected) > 30
        assert entry_triples(oracle_chain(xi, norm, bound)) == expected


@given(
    p=st.sampled_from(PRIMES),
    squared=st.booleans(),
    start_val=st.integers(min_value=0, max_value=12),
    steps=st.lists(
        st.tuples(
            st.booleans(),
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=1, max_value=6),
        ),
        min_size=1,
        max_size=25,
    ),
)
@example(
    p=2, squared=False, start_val=9, steps=[(False, 3, 1), (False, 2, 4), (True, 0, 6)]
)
@settings(max_examples=200)
def test_required_valuation_anchor_matches_list_scan(p, squared, start_val, steps):
    """:class:`Scalings` in base p^2 (product records) and base p (the sup
    window, whose start valuation can lie above the first admitted ones).
    Admitted (metric, valuation) pairs grow as in a chain; a step either
    appends a pair or deepens the last one at the same metric."""
    base = p * p if squared else p
    scalings = Scalings(base, start_val)
    accepted: list[tuple[int, int]] = []
    metric, val = 1, 0
    for replace, growth, depth in steps:
        if not (replace and accepted):
            metric = metric * p**growth + growth
        val += depth
        if replace and accepted:
            accepted[-1] = (metric, val)
        else:
            accepted.append((metric, val))
        scalings.admit(metric, val)
        for probe in (metric, metric + 1, metric * p**3 + 5):
            assert scalings.reach(probe) == (
                reference.required_valuation(base, accepted, probe, start_val)
            )


@given(
    p=st.sampled_from((2, 3, 5)),
    seed=st.integers(min_value=0, max_value=10**6),
    norm=st.sampled_from(NORMS),
)
@settings(max_examples=60, deadline=None)
def test_chain_structural_invariants(p, seed, norm):
    xi = seeded_xi(p, 20, seed)
    result = chain(xi, norm)
    metrics = result.metrics()
    vals = [e.val.value for e in result.entries]
    assert all(a < b for a, b in zip(metrics, metrics[1:]))
    assert all(a < b for a, b in zip(vals, vals[1:]))
    for entry in result.entries:
        assert entry.val.is_exact
        assert entry.y % p != 0
        assert math.gcd(entry.x, entry.y) == 1
    if result.precision_limited:
        assert result.censored.val.value >= xi.precision


@given(xi=padic_numbers(24), norm=st.sampled_from(NORMS))
@settings(max_examples=60, deadline=None)
def test_chains_keep_exact_entries_and_an_inexact_censored_pair(xi, norm):
    full = chain(xi, norm)
    tail = () if full.censored is None else (full.censored,)
    loaded = chain_from_entries(xi.p, norm, full.entries + tail)
    assert loaded == full
    cut = chain(xi, norm, max(1, xi.precision // 2))
    for result in (full, cut, oracle_chain(xi, norm, 300), loaded):
        assert all(e.val.is_exact for e in result.entries)
        assert result.censored is None or not result.censored.val.is_exact
    if tail and full.entries:
        with pytest.raises(ValueError, match="only the last"):
            chain_from_entries(xi.p, norm, tail + full.entries)


def test_lacunary_chain_entries(lacunary_xi, lacunary_chain_mult):
    triples = entry_triples(lacunary_chain_mult)
    assert triples[:5] == [
        (1, 1, 3),
        (-1, 7, 6),
        (9, 1, 9),
        (1, 57, 10),
        (521, 1, 27),
    ]
    # Past the mixed head the chain follows the truncation integers.
    tail = lacunary_chain_mult.entries[4:]
    assert [e.val.value for e in tail] == [27, 81, 243, 729, 2187, 6561]
    for entry in tail:
        assert entry.y == 1
        assert entry.x == residue(lacunary_xi, entry.val.value)
    assert lacunary_chain_mult.censored.val.value == 6562


def test_factorial_chain_entries(factorial_xi, factorial_chain_mult):
    triples = entry_triples(factorial_chain_mult)
    assert triples[:4] == [(-2, 1, 3), (6, 1, 6), (2, 11, 8), (70, 1, 24)]
    tail = factorial_chain_mult.entries[3:]
    assert [e.val.value for e in tail] == [24, 120, 720, 5040]
    for entry in tail:
        assert entry.y == 1
        assert entry.x == residue(factorial_xi, entry.val.value)


# ---------------------------------------------------------------------------
# box minima
# ---------------------------------------------------------------------------


def test_uniform_minimum_agrees_with_enumeration():
    for p, seed in ((2, 31), (3, 32)):
        xi = seeded_xi(p, 16, seed)
        for norm in NORMS:
            chain_ = chain(xi, norm)
            first = chain_.metrics()[0]
            for bound in (max(2, first), max(2, first) + 5, 60, 500):
                if bound < first:
                    continue
                fast = uniform_minimum(xi, chain_, bound)
                slow = uniform_minimum_enum(xi, norm, bound)
                assert fast.valuation == slow.valuation
                assert (fast.pair.x, fast.pair.y) == (slow.pair.x, slow.pair.y)
                assert abs(fast.exponent - slow.exponent) <= 1e-9


def witness_or_error(function, *args):
    try:
        witness = function(*args)
    except ValueError:
        return "ValueError"
    return witness.valuation, witness.pair, witness.exponent


def short_box(p, seed, norm, fraction):
    """A box log-uniform up to twice p^precision: unlike a linear draw, it
    often lies below the censored pair's metric and has a witness.  Numbers
    of one or two digits, whose boxes mostly refuse, are left to the oracle
    test and the edge cases."""
    xi = short_number(p, seed, 1024, min_digits=3)
    return xi, norm, max(2, round((2 * xi.p**xi.precision) ** fraction))


# Box caps for 30-digit numbers, log-uniform below them: most of these boxes
# have a witness, and about one witness in seven is a scaled pair (p | y).
UNIFORM_BOX_CAPS = {NORM_SUP: 2000, NORM_MULT: 10**5}


def thirty_digit_box(p, seed, norm, fraction):
    bound = max(2, round(UNIFORM_BOX_CAPS[norm] ** fraction))
    return thirty_digit_number(p, seed), norm, bound


def high_valuation_box(p, seed, norm, fraction):
    """30 digits divisible by p^w with p^w <= 4096 (w up to 12 at p = 2), and
    a box log-uniform up to 2 p^w (sup) or 10^5 (product), so on either side
    of p^w: the oracle chain of the box starts on the zero levels."""
    rng = random.Random(seed)
    w = rng.randint(1, ilog(4096, p))
    digits = [0] * w + [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(29 - w)]
    cap = 2 * p**w if norm == NORM_SUP else UNIFORM_BOX_CAPS[NORM_MULT]
    return from_digits(p, digits), norm, max(2, round(cap**fraction))


@given(
    box=st.one_of(
        *(
            st.builds(
                make_box,
                p=st.sampled_from(PRIMES),
                seed=st.integers(min_value=0, max_value=10**6),
                norm=st.sampled_from(NORMS),
                fraction=st.floats(min_value=0.0, max_value=1.0),
            )
            for make_box in (short_box, thirty_digit_box, high_valuation_box)
        )
    )
)
# v_2(xi) = 12: boxes below and above 2^12, in both norms.
@example(box=(high_valuation_number(), NORM_SUP, 3000))
@example(box=(high_valuation_number(), NORM_SUP, 8000))
@example(box=(high_valuation_number(), NORM_MULT, 3000))
@example(box=(high_valuation_number(), NORM_MULT, 10**5))
# The boxes of the benchmark's oracle jobs: sup 10^4 and product 10^6.
@example(box=(thirty_digit_number(2, 0), NORM_SUP, 10**4))
@example(box=(thirty_digit_number(2, 0), NORM_MULT, 10**6))
@example(box=(thirty_digit_number(3, 0), NORM_SUP, 10**4))
@example(box=(thirty_digit_number(3, 0), NORM_MULT, 10**6))
@example(box=(thirty_digit_number(5, 0), NORM_SUP, 10**4))
@example(box=(thirty_digit_number(5, 0), NORM_MULT, 10**6))
@example(box=(high_valuation_number(), NORM_MULT, 10**6))
@settings(max_examples=400, deadline=None)
def test_uniform_minimum_enum_matches_reference(box):
    assert witness_or_error(uniform_minimum_enum, *box) == (
        witness_or_error(reference.uniform_minimum_enum, *box)
    )


@pytest.mark.parametrize(
    "p, digits, norm, bound, expected",
    [
        # xi = 0: the last box below the censored (p^n, 1), then the box
        # that holds it.
        (2, [0] * 10, NORM_SUP, 1000, (512, 1, 9)),
        (2, [0] * 10, NORM_SUP, 1100, "censored"),
        (3, [0] * 6, NORM_MULT, 700, (243, 1, 5)),
        (3, [0] * 6, NORM_MULT, 2000, "censored"),
        # v_5(xi) = 1 and the box lies below p: no pair reaches valuation 1.
        (5, [0, 1, 2, 3], NORM_SUP, 4, "no nonzero pair"),
        (5, [0, 1, 2, 3], NORM_SUP, 5, (5, 1, 2)),
        # Twice the base (4, 1) of the box 4, with the exact valuation 6
        # equal to the precision.
        (2, [0, 0, 1, 0, 0, 1], NORM_MULT, 16, (8, 2, 6)),
    ],
)
def test_uniform_minimum_enum_edge_cases_match_reference(
    p, digits, norm, bound, expected
):
    xi = from_digits(p, digits)
    result = witness_or_error(uniform_minimum_enum, xi, norm, bound)
    assert result == witness_or_error(reference.uniform_minimum_enum, xi, norm, bound)
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            uniform_minimum_enum(xi, norm, bound)
    else:
        valuation, pair, _ = result
        assert (pair.x, pair.y, valuation) == expected
        assert pair.val.is_exact


@given(
    p=st.sampled_from(PRIMES),
    seed=st.integers(min_value=0, max_value=10**6),
    norm=st.sampled_from(NORMS),
)
@settings(max_examples=40, deadline=None)
def test_uniform_minimum_matches_enumeration_at_every_bound(p, seed, norm):
    """Up to p^precision, which is past the censored pair's metric.  Both
    library sides read the box through one rule, so the reference, which
    scans every ladder candidate, checks that rule."""
    xi = short_number(p, seed, 128)
    chain_ = chain(xi, norm)
    oracle = oracle_chain(xi, norm, xi.p**xi.precision)
    for bound in range(2, xi.p**xi.precision + 1):
        expected = witness_or_error(reference.uniform_minimum_enum, xi, norm, bound)
        assert witness_or_error(uniform_minimum, xi, chain_, bound) == expected
        assert witness_or_error(uniform_minimum, xi, oracle, bound) == expected
        assert witness_or_error(uniform_minimum_enum, xi, norm, bound) == expected


def test_uniform_minimum_refuses_cut_chains_and_censored_boxes():
    xi = from_digits(2, [1, 0, 1, 1, 0, 1, 0, 0, 1, 1])
    # Cut at level 4, the chain misses (1, 5) of valuation 5.
    assert uniform_minimum_enum(xi, NORM_SUP, 5).pair == make_pair(xi, 1, 5)
    with pytest.raises(ValueError, match="no censored pair"):
        uniform_minimum(xi, chain(xi, NORM_SUP, 4), 5)
    # Both boxes hold the censored pair at which the full chain stops.
    for norm, bound in ((NORM_SUP, 40), (NORM_MULT, 2000)):
        full = chain(xi, norm)
        assert censored_metric(full) <= bound
        with pytest.raises(ValueError, match="censored"):
            uniform_minimum(xi, full, bound)
        with pytest.raises(ValueError, match="censored"):
            uniform_minimum_enum(xi, norm, bound)


def censored_metric(chain_):
    pair = chain_.censored
    return pair.height_sup if chain_.norm == NORM_SUP else pair.height_mult_sq


@pytest.mark.parametrize("norm, box", [(NORM_SUP, 40), (NORM_MULT, 400)])
def test_uniform_minimum_refuses_an_oracle_chain_cut_at_its_box(norm, box):
    """An oracle chain that stopped at its box knows nothing past it: the
    scalings of its entries reach less deep than the box minimum."""
    digits = [0, 0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 0, 0]
    xi = from_digits(2, digits)
    cut = oracle_chain(xi, norm, box)
    assert cut.censored is None
    base = 4 if norm == NORM_MULT else 2
    deepest = max(
        e.val.value + ilog(5 * box // m, base) for e, m in zip(cut.entries, cut.metrics())
    )
    assert uniform_minimum_enum(xi, norm, 5 * box).valuation > deepest
    with pytest.raises(ValueError, match="no censored pair"):
        uniform_minimum(xi, cut, 5 * box)
    with pytest.raises(ValueError, match="no censored pair"):
        uniform_minimum(xi, cut, box + 1)
    # Up to its box the chain knows every box minimum.
    for bound in range(2, box + 1):
        assert witness_or_error(uniform_minimum, xi, cut, bound) == (
            witness_or_error(uniform_minimum_enum, xi, norm, bound)
        )
    assert cut.box == box


@pytest.mark.parametrize("p, num, den", [(2, -5, 11), (3, 22, 7), (5, 13, 17)])
@pytest.mark.parametrize("norm", NORMS)
def test_cut_chain_that_met_its_censored_pair_answers_the_boxes_below(p, num, den, norm):
    xi = from_rational(p, num, den, 30)
    level = next(n for n in range(1, 31) if chain(xi, norm, n).censored is not None)
    assert level < xi.precision
    cut = chain(xi, norm, level)
    for bound in range(2, censored_metric(cut)):
        assert witness_or_error(uniform_minimum, xi, cut, bound) == (
            witness_or_error(uniform_minimum_enum, xi, norm, bound)
        )


def test_uniform_minimum_scaled_witness():
    """Between chain heights the minimiser is a p-power scaling of an entry."""
    xi = seeded_xi(2, 20, 41)
    chain_ = chain(xi, NORM_SUP)
    k = 2
    bound = chain_.metrics()[k + 1] - 1
    witness = uniform_minimum(xi, chain_, bound)
    # A box just below the next height still admits entry k itself...
    assert witness.valuation >= chain_.entries[k].val.value
    assert max(abs(witness.pair.x), witness.pair.y) <= bound
    # ...and the reported minimiser reduces to some chain entry.
    m = pval(witness.pair.y, 2)
    base = (witness.pair.x >> m, witness.pair.y >> m, witness.valuation - m)
    assert base in entry_triples(chain_)


def test_uniform_minimum_bound_below_first_height():
    xi = from_digits(5, [0, 1, 2, 3])
    with pytest.raises(ValueError, match="below the first chain height"):
        uniform_minimum(xi, chain(xi, NORM_SUP), 4)
    with pytest.raises(ValueError):
        uniform_minimum_enum(xi, NORM_SUP, 4)


def test_uniform_minimum_enum_rejects_censored_region():
    xi = from_rational(2, 1, 3, 8)
    with pytest.raises(ValueError):
        uniform_minimum_enum(xi, NORM_SUP, 200)


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------


def test_chain_csv_round_trip(tmp_path):
    xi = seeded_xi(3, 18, 51)
    original = chain(xi, NORM_SUP)
    path = tmp_path / "chain.csv"
    save_chain_csv(original, path.as_posix())
    entries = load_chain_entries(path.as_posix())
    assert entries == original.entries
    rebuilt = chain_from_entries(3, NORM_SUP, entries)
    assert rebuilt.entries == original.entries
    assert rebuilt.norm == NORM_SUP


def test_chain_csv_round_trip_past_the_str_limit(tmp_path):
    # Python's int/str conversion stops at 4300 digits by default, and
    # csv.reader at cells of 131,072 characters, which the second pair's
    # product height passes.
    path = tmp_path / "chain.csv"
    for x, y in ((7 * 10**9999 + 12345, 3), (7 * 10**65599 + 12345, 3 * 10**65599 + 1)):
        pair = make_pair(from_digits(2, [1, 0, 1]), x, y)
        save_chain_csv(chain_from_entries(2, NORM_SUP, (pair,)), path.as_posix())
        assert load_chain_entries(path.as_posix()) == (pair,)


def test_chain_from_entries_splits_censored_tail(tmp_path):
    xi = from_rational(2, 1, 3, 10)
    result = chain(xi, NORM_SUP)
    path = tmp_path / "chain.csv"
    save_chain_csv(result, path.as_posix())
    # Append a censored row by hand, as an external producer might.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("1,3,1,10,false,3,3\n")
    entries = load_chain_entries(path.as_posix())
    rebuilt = chain_from_entries(2, NORM_SUP, entries)
    assert rebuilt.entries == result.entries
    assert rebuilt.censored == entries[-1]
    assert not rebuilt.censored.val.is_exact


@st.composite
def csv_chains(draw):
    """A chain to save: the chain of a seeded number in either norm, then
    pairs of 1 to 9000 digits with either sign of x (one with |x| = y), and
    possibly a censored last row."""
    p = draw(st.sampled_from(PRIMES))
    norm = draw(st.sampled_from(NORMS))
    xi = seeded_xi(p, draw(st.integers(4, 60)), draw(st.integers(0, 10**6)))
    entries = list(chain(xi, norm).entries)
    rng = random.Random(draw(st.integers(0, 10**6)))
    sizes = st.sampled_from((1, 2, 40, 3000, 4299, 4301, 9000))

    def number() -> int:
        digits = draw(sizes)
        return rng.randrange(10 ** (digits - 1), 10**digits)

    for _ in range(draw(st.integers(0, 3))):
        x = number()
        y = x if draw(st.booleans()) else number()
        val = Valuation.exact(rng.randrange(10**6))
        entries.append(ApproxPair(rng.choice((x, -x)), y, val))
    if entries and draw(st.booleans()):
        last = entries[-1]
        entries.append(ApproxPair(-last.x, last.y + 1, Valuation.at_least(10**6)))
    return BestApproxChain(p, norm, tuple(entries))


# Cell edits, given the cell and its row: non-canonical heights that keep
# the value, and cells whose value or grammar changes ("other" puts the
# text of |x| where y's was, or y's where it was not).
_CELL_EDITS = {
    "plus": lambda t, row: "+" + t,
    "zero": lambda t, row: "0" + t if t[0] != "-" else "-0" + t[1:],
    "negate": lambda t, row: t[1:] if t[0] == "-" else "-" + t,
    "bump": lambda t, row: t[:-1] + str((int(t[-1]) + 1) % 10),
    "space": lambda t, row: " " + t,
    "underscore": lambda t, row: t + "_0",
    "arabic": lambda t, row: t[:-1] + chr(0x660 + int(t[-1])),
    "quoted": lambda t, row: f'"{t}"',
    "other": lambda t, row: row[1].lstrip("-") if t == row[2] else row[2],
}


def _load_outcome(load, path):
    try:
        return load(path)
    except ValueError:
        return "refused"


@given(
    chain_=csv_chains(),
    edits=st.lists(
        st.tuples(
            # Half the edits land on the last rows, where the long pairs are.
            st.one_of(st.integers(0, 10**6), st.integers(-4, -1)),
            st.sampled_from((0, 1, 2, 3, 5, 6)),
            st.sampled_from(sorted(_CELL_EDITS)),
        ),
        max_size=2,
    ),
    lf_rows=st.booleans(),
    appended=st.sampled_from((None, "canonical", "plus", "zero", "bump")),
)
@settings(max_examples=120, deadline=None)
def test_chain_csv_matches_the_csv_module_reference(
    tmp_path_factory, chain_, edits, lf_rows, appended
):
    """Same bytes as ``csv.writer``; the loader accepts and refuses exactly
    the files the integer-comparing reference loader does."""
    directory = tmp_path_factory.getbasetemp() / "csv-parity"
    directory.mkdir(exist_ok=True)
    path, reference_path = directory / "chain.csv", directory / "reference.csv"
    save_chain_csv(chain_, path.as_posix())
    reference.save_chain_csv(chain_, reference_path.as_posix())
    text = path.read_bytes().decode()
    assert text.encode() == reference_path.read_bytes()
    assert load_chain_entries(path.as_posix()) == chain_.entries

    lines = text.split("\r\n")[:-1]
    rows = [line.split(",") for line in lines[1:]]
    edited = set()
    for row_index, column, edit in edits:
        cell = (row_index % len(rows), column) if rows else None
        if cell is not None and cell not in edited:
            edited.add(cell)
            row = rows[cell[0]]
            row[column] = _CELL_EDITS[edit](row[column], row)
    if appended is not None:
        x, y = -7, 3  # heights 7 and 21
        sup, mult = str(abs(x)), str(abs(x) * y)
        if appended != "canonical":
            edit = _CELL_EDITS[appended]
            sup, mult = edit(sup, None), edit(mult, None)
        rows.append([str(len(rows)), str(x), str(y), "5", "false", sup, mult])
    end = "\n" if lf_rows else "\r\n"
    path.write_text(
        "".join(line + end for line in lines[:1] + [",".join(r) for r in rows]),
        newline="",
    )
    outcome = _load_outcome(load_chain_entries, path.as_posix())
    assert outcome == _load_outcome(reference.load_chain_entries, path.as_posix())


@pytest.mark.parametrize("digits", [3, 3500], ids=["short", "long"])
def test_chain_csv_checks_each_height_cell(tmp_path, digits):
    """Short and long height cells, canonical or not, are compared with
    max(|x|, y) and |x|*y as integers."""
    xi = from_digits(2, [1, 0, 1])
    x, y = -(10**digits + 7), 3 * 10 ** (digits - 1) + 1
    original = BestApproxChain(2, NORM_SUP, (make_pair(xi, x, y),))
    path = tmp_path / "chain.csv"
    save_chain_csv(original, path.as_posix())
    header, row = path.read_text().splitlines()
    cells = row.split(",")
    assert cells[5] == cells[1][1:] and len(cells[6]) == 2 * digits
    bumped = cells[6][:-1] + str((int(cells[6][-1]) + 1) % 10)
    for column, text, accepted in (
        (5, "+" + cells[5], True),
        (6, "0" + cells[6], True),
        (5, cells[2], False),  # the smaller coordinate
        (6, bumped, False),
        (6, cells[6] + "0", False),
    ):
        edited = list(cells)
        edited[column] = text
        path.write_text(f"{header}\n{','.join(edited)}\n")
        if accepted:
            assert load_chain_entries(path.as_posix()) == original.entries
        else:
            with pytest.raises(ValueError, match="inconsistent heights"):
                load_chain_entries(path.as_posix())


@pytest.mark.parametrize(
    "content",
    [
        "x,y\n",  # wrong header
        "k,x,y,valuation,valuation_exact,height_sup,height_mult_sq\n1,1,1,2,true,1,1\n",
        "k,x,y,valuation,valuation_exact,height_sup,height_mult_sq\n0,0,1,2,true,0,0\n",
        "k,x,y,valuation,valuation_exact,height_sup,height_mult_sq\n0,1,-1,2,true,1,1\n",
        "k,x,y,valuation,valuation_exact,height_sup,height_mult_sq\n0,1,1,2,true,7,1\n",
        "k,x,y,valuation,valuation_exact,height_sup,height_mult_sq\n0,-3,2,1,true,3,5\n",
        "k,x,y,valuation,valuation_exact,height_sup,height_mult_sq\n0,1,1,2,maybe,1,1\n",
        "k,x,y,valuation,valuation_exact,height_sup,height_mult_sq\n0,1,1,2,true\n",
        "k,x,y,valuation,valuation_exact,height_sup,height_mult_sq\n0,one,1,2,true,1,1\n",
    ],
)
def test_chain_csv_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(ValueError):
        load_chain_entries(path.as_posix())


def _long_pair_chain(rows: int, digits: int) -> BestApproxChain:
    rng = random.Random(digits)
    entries = [
        ApproxPair(
            -rng.randrange(10 ** (digits - 1), 10**digits),
            rng.randrange(10 ** (digits - 1), 10**digits),
            Valuation.exact(k),
        )
        for k in range(rows)
    ]
    return BestApproxChain(2, NORM_SUP, tuple(entries))


@pytest.mark.parametrize(
    "column, edit, phrase",
    [
        (1, lambda t: t + "a", "malformed chain CSV row"),
        (4, lambda t: "maybe" * 600, "valuation_exact flag"),
        (0, lambda t: "9" * 3000, "out of order"),
        (2, lambda t: "-" + t, "invalid pair"),
        (5, lambda t: t[:-1] + str((int(t[-1]) + 1) % 10), "inconsistent heights"),
        (6, lambda t: t[:-1] + str((int(t[-1]) + 1) % 10), "inconsistent heights"),
    ],
    ids=["x", "flag", "k", "y", "height_sup", "height_mult_sq"],
)
def test_chain_csv_refusals_stay_short(tmp_path, column, edit, phrase):
    """A corrupted 3,000-digit cell is named by the row's k and its column,
    cut to 32 characters, not printed with its whole row."""
    original = _long_pair_chain(3, 3000)
    path = tmp_path / "chain.csv"
    save_chain_csv(original, path.as_posix())
    header, *lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[column] = edit(cells[column])
    assert len(cells[column]) >= 3000
    lines[1] = ",".join(cells)
    path.write_text("\n".join([header, *lines]) + "\n")
    with pytest.raises(ValueError, match=phrase) as info:
        load_chain_entries(path.as_posix())
    message = str(info.value)
    assert f"k = 1, column {CHAIN_CSV_FIELDS[column]!r}" in message
    assert len(message) < 200


def test_chain_csv_load_streams_its_rows(tmp_path):
    """The loader reads line by line: its peak memory on a chain CSV of
    more than 1 MB stays within 10 % of ``csv.reader``'s."""
    path = tmp_path / "chain.csv"
    save_chain_csv(_long_pair_chain(120, 2000), path.as_posix())
    assert path.stat().st_size > 2**20
    peaks = []
    for load in (reference.load_chain_entries, load_chain_entries):
        tracemalloc.start()
        try:
            entries = load(path.as_posix())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(entries) == 120
        del entries
    reference_peak, peak = peaks
    assert peak <= 1.1 * reference_peak


@pytest.mark.parametrize("name", sorted(NON_STAIRCASES))
def test_chain_from_entries_refuses_non_staircases(tmp_path, name):
    path = tmp_path / "bad.csv"
    write_chain_csv(path, NON_STAIRCASES[name])
    entries = load_chain_entries(path.as_posix())
    for norm in NORMS:
        with pytest.raises(ValueError, match="staircase"):
            chain_from_entries(2, norm, entries)


def test_chain_from_entries_reads_the_staircase_in_its_norm(tmp_path):
    """Products 8, 12 rise while sup heights 8, 4 drop: a product chain only."""
    path = tmp_path / "mult.csv"
    write_chain_csv(path, ((8, 1, 1), (4, 3, 2)))
    entries = load_chain_entries(path.as_posix())
    assert chain_from_entries(2, NORM_MULT, entries).metrics() == (8, 12)
    with pytest.raises(ValueError, match="sup staircase"):
        chain_from_entries(2, NORM_SUP, entries)


def test_chain_from_entries_refuses_a_contradicted_prime():
    entries = chain(seeded_xi(2, 64, 5), NORM_SUP).entries
    assert chain_from_entries(2, NORM_SUP, entries).entries == entries
    with pytest.raises(ValueError, match="contradict p = 3"):
        chain_from_entries(3, NORM_SUP, entries)


def test_chain_from_entries_refuses_negative_valuations():
    # Heights 3, 5, ..., 15 with valuations -7, ..., -1: a staircase otherwise.
    entries = tuple(
        ApproxPair(2 * k + 3, 1, Valuation.exact(k - 7)) for k in range(7)
    )
    for norm in NORMS:
        with pytest.raises(ValueError, match="nonnegative valuations"):
            chain_from_entries(2, norm, entries)


def test_chain_csv_refuses_negative_valuations(tmp_path):
    """A negative valuation is an invalid pair, so ``check_padicle`` never
    sees one through the loader."""
    path = tmp_path / "negative.csv"
    write_chain_csv(path, [(3, 1, 1), (5, 1, -9)])
    with pytest.raises(ValueError, match="invalid pair.* k = 1, column 'valuation': '-9'"):
        load_chain_entries(path.as_posix())
    with pytest.raises(ValueError, match="invalid pair"):
        reference.load_chain_entries(path.as_posix())


def test_library_rejects_out_of_range_bounds_and_foreign_chains():
    xi = from_digits(2, [1, 0, 1, 1, 0, 1, 0, 0, 1, 1])
    with pytest.raises(ValueError, match="bound must be positive"):
        oracle_chain(xi, NORM_SUP, 0)
    with pytest.raises(ValueError, match="at least 2"):
        uniform_minimum(xi, chain(xi, NORM_SUP), 1)
    with pytest.raises(ValueError, match="at least 2"):
        uniform_minimum_enum(xi, NORM_SUP, 1)
    other_prime = chain(from_digits(3, [1, 2, 0, 1, 1, 2, 0, 1, 2, 2]), NORM_SUP)
    with pytest.raises(ValueError, match="does not match"):
        uniform_minimum(xi, other_prime, 4)


@pytest.mark.parametrize("bound", [10.5, True, "100", Fraction(7)])
def test_library_refuses_bounds_that_are_not_ints(bound):
    xi = from_digits(2, [1, 0, 1, 1, 0, 1, 0, 0, 1, 1])
    sup_chain = chain(xi, NORM_SUP)
    for call in (
        lambda: oracle_chain(xi, NORM_SUP, bound),
        lambda: uniform_minimum(xi, sup_chain, bound),
        lambda: uniform_minimum_enum(xi, NORM_SUP, bound),
    ):
        message = re.escape(f"bound must be an int, got {bound!r}")
        with pytest.raises(ValueError, match=message):
            call()


def test_chain_repr_past_the_str_limit():
    long_chain = chain(build_lacunary(LacunarySpec(2, lacunary_pow_exponents(4, 9))), NORM_SUP)
    text = repr(long_chain)
    assert text.startswith("BestApproxChain(p=2, norm='sup', entries=(")
    assert f", ... {len(long_chain.entries) - 8} more), censored=ApproxPair(" in text
    assert text.endswith(
        "y=<int of 49152 bits>, val=Valuation(value=65537, is_exact=False)))"
    )
    xi = from_digits(2, [1, 0, 1, 1])
    pairs = (make_pair(xi, 1, 1), make_pair(xi, 3, 5))
    censored = make_pair(xi, -3, 1)
    short_chain = BestApproxChain(2, NORM_SUP, pairs, censored)
    assert repr(short_chain) == (
        f"BestApproxChain(p=2, norm='sup', entries=({pairs[0]!r}, {pairs[1]!r}), "
        f"censored={censored!r})"
    )
    # The box an oracle chain was searched in shows neither in its repr nor
    # in equality.
    oracle = oracle_chain(xi, NORM_SUP, 40)
    plain = BestApproxChain(2, NORM_SUP, oracle.entries, oracle.censored)
    assert (oracle.box, plain.box) == (40, None)
    assert oracle == plain
    assert repr(oracle) == repr(plain)
    assert "box" not in repr(oracle)
