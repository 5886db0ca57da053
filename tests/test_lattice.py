"""Chains, per-level minimisers, oracles, box minima, CSV round trips."""

from __future__ import annotations

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from padiclab import (
    NORMS,
    NORM_MULT,
    NORM_SUP,
    BestApproxChain,
    LacunarySpec,
    build_lacunary,
    lacunary_pow_exponents,
    best_mult_at_level,
    best_sup_at_level,
    chain,
    chain_from_entries,
    from_digits,
    from_rational,
    ilog,
    load_chain_entries,
    make_pair,
    oracle_chain,
    pval,
    residue,
    save_chain_csv,
    uniform_minimum,
    uniform_minimum_enum,
)
from padiclab.lattice import _mult_required_valuation, _next_anchor
from padiclab.walk import SupWalk
from conftest import seeded_xi

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


def test_best_pair_small_example():
    xi = from_digits(2, [1, 1, 0, 1, 0, 0])  # residue 11 mod 64
    pair = best_sup_at_level(xi, 4)
    # 3 * 11 - 1 = 32, so (1, 3) certifies level 4 with sup height 3.
    assert (pair.x, pair.y) == (1, 3)
    assert pair.val.is_exact and pair.val.value == 5


def test_best_pair_zero_residue():
    xi = from_digits(5, [0, 0, 1, 3])
    pair = best_sup_at_level(xi, 2)
    assert (pair.x, pair.y) == (25, 1)
    pair = best_mult_at_level(xi, 1)
    assert (pair.x, pair.y) == (5, 1)


def test_best_pair_level_validation():
    xi = from_digits(2, [1, 1])
    with pytest.raises(ValueError):
        best_sup_at_level(xi, 0)
    with pytest.raises(ValueError):
        best_sup_at_level(xi, 3)


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
            sup = best_sup_at_level(xi, level)
            mult = best_mult_at_level(xi, level)
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
        assert best_sup_at_level(xi, level) == sup
        assert best_mult_at_level(xi, level) == mult


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def test_chain_censors_rational_input():
    xi = from_rational(2, 1, 3, 10)
    for norm in NORMS:
        result = chain(xi, norm)
        assert entry_triples(result) == [(-1, 1, 2)]
        assert result.precision_limited
        assert result.precision_ceiling == 10


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
    max_level = max(1, round(cut * xi.precision))
    fast = chain(xi, norm, max_level)
    slow = chain(xi, norm, max_level, jump=False)
    assert entry_triples(fast) == entry_triples(slow)
    assert fast.precision_ceiling == slow.precision_ceiling


def test_mult_skip_still_visits_max_level():
    # The skip after the last record would jump past level 9; the censored
    # pair there must still be found.
    xi = from_digits(2, [1, 1, 1, 1, 1, 1, 1, 0, 0])
    fast = chain(xi, NORM_MULT)
    assert fast.precision_ceiling == 9
    assert fast.precision_ceiling == chain(xi, NORM_MULT, jump=False).precision_ceiling


def test_censored_pair_displaces_same_height_record():
    # (1, 1) has valuation 1, but the censored (-1, 1) of the same height
    # reaches at least 2, so (1, 1) is no record.
    xi = from_digits(2, [1, 1])
    result = chain(xi, NORM_SUP)
    assert entry_triples(result) == []
    assert result.precision_ceiling == 2
    assert entry_triples(oracle_chain(xi, NORM_SUP, 4)) == []


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
    assert entry_triples(fast) == entry_triples(slow)
    assert fast.precision_ceiling == slow.precision_ceiling


def short_number(p, seed, max_modulus):
    """A number with p^precision <= max_modulus, often divisible by p^w."""
    rng = random.Random(seed)
    precision = rng.randint(1, ilog(max_modulus, p))
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
    fast = oracle_chain(xi, norm, bound)
    slow = reference.oracle_chain(xi, norm, bound)
    assert fast.entries == slow.entries
    assert fast.precision_ceiling == slow.precision_ceiling


def test_oracle_memory_stays_flat_at_high_valuation():
    # v_2(xi) = 12: the former oracle built one pair per ladder candidate
    # and peaked at about 63 MiB here.
    rng = random.Random(12)
    xi = from_digits(2, [0] * 12 + [1] + [rng.randrange(2) for _ in range(17)])
    tracemalloc.start()
    try:
        result = oracle_chain(xi, NORM_SUP, 10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.entries
    assert peak < 8 * 2**20


@given(
    p=st.sampled_from(PRIMES),
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
@settings(max_examples=200)
def test_required_valuation_anchor_matches_list_scan(p, steps):
    """Accepted (product, valuation) pairs grow as in a chain; a step either
    appends a pair or deepens the last one at the same product."""
    accepted: list[tuple[int, int]] = []
    anchor = (1, 0)
    product, val = 1, 0
    for replace, growth, depth in steps:
        if not (replace and accepted):
            product = product * p**growth + growth
        val += depth
        if replace and accepted:
            accepted[-1] = (product, val)
        else:
            accepted.append((product, val))
        anchor = _next_anchor(p, anchor, product, val)
        for probe in (product, product + 1, product * p**3 + 5):
            assert _mult_required_valuation(p, anchor, probe) == (
                reference.mult_required_valuation(p, accepted, probe)
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
        assert result.precision_ceiling >= xi.precision


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
    assert lacunary_chain_mult.precision_ceiling == 6562


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
                fast = uniform_minimum(xi, norm, bound, chain_)
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


@given(
    p=st.sampled_from(PRIMES),
    seed=st.integers(min_value=0, max_value=10**6),
    norm=st.sampled_from(NORMS),
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_uniform_minimum_enum_matches_reference(p, seed, norm, fraction):
    xi = short_number(p, seed, 1024)
    bound = max(2, box_bound(xi, fraction))
    assert witness_or_error(uniform_minimum_enum, xi, norm, bound) == (
        witness_or_error(reference.uniform_minimum_enum, xi, norm, bound)
    )


@given(
    p=st.sampled_from(PRIMES),
    seed=st.integers(min_value=0, max_value=10**6),
    norm=st.sampled_from(NORMS),
)
@settings(max_examples=40, deadline=None)
def test_uniform_minimum_matches_enumeration_at_every_bound(p, seed, norm):
    """Up to p^precision, which is past the censored pair's metric."""
    xi = short_number(p, seed, 128)
    chain_ = chain(xi, norm)
    for bound in range(2, xi.p**xi.precision + 1):
        assert witness_or_error(uniform_minimum, xi, norm, bound, chain_) == (
            witness_or_error(uniform_minimum_enum, xi, norm, bound)
        )


def test_uniform_minimum_refuses_cut_chains_and_censored_boxes():
    xi = from_digits(2, [1, 0, 1, 1, 0, 1, 0, 0, 1, 1])
    # Cut at level 4, the chain misses (1, 5) of valuation 5.
    assert uniform_minimum_enum(xi, NORM_SUP, 5).pair == make_pair(xi, 1, 5)
    with pytest.raises(ValueError, match="below the precision"):
        uniform_minimum(xi, NORM_SUP, 5, chain(xi, NORM_SUP, 4))
    # Both boxes hold the censored pair at which the full chain stops.
    for norm, bound in ((NORM_SUP, 40), (NORM_MULT, 2000)):
        full = chain(xi, norm)
        assert full.ceiling_metric <= bound
        with pytest.raises(ValueError, match="censored"):
            uniform_minimum(xi, norm, bound, full)
        with pytest.raises(ValueError, match="censored"):
            uniform_minimum_enum(xi, norm, bound)


def test_uniform_minimum_scaled_witness():
    """Between chain heights the minimiser is a p-power scaling of an entry."""
    xi = seeded_xi(2, 20, 41)
    chain_ = chain(xi, NORM_SUP)
    k = 2
    bound = chain_.metrics()[k + 1] - 1
    witness = uniform_minimum(xi, NORM_SUP, bound, chain_)
    # A box just below the next height still admits entry k itself...
    assert witness.valuation >= chain_.entries[k].val.value
    assert max(abs(witness.pair.x), witness.pair.y) <= bound
    # ...and the reported minimiser reduces to some chain entry.
    m = pval(witness.pair.y, 2)
    base = (witness.pair.x >> m, witness.pair.y >> m, witness.valuation - m)
    assert base in entry_triples(chain_)


def test_uniform_minimum_bound_below_first_height():
    xi = from_digits(5, [0, 1, 2, 3])
    with pytest.raises(ValueError):
        uniform_minimum(xi, NORM_SUP, 4)
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
    # Python's int/str conversion stops at 4300 digits by default.
    x = 7 * 10**9999 + 12345
    pair = make_pair(from_digits(2, [1, 0, 1]), x, 3)
    original = chain_from_entries(2, NORM_SUP, (pair,))
    path = tmp_path / "chain.csv"
    save_chain_csv(original, path.as_posix())
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
    assert len(rebuilt.entries) == 1
    assert rebuilt.precision_ceiling == 10
    assert rebuilt.ceiling_metric == 3


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


def test_chain_repr_past_the_str_limit():
    long_chain = chain(build_lacunary(LacunarySpec(2, lacunary_pow_exponents(4, 9))), NORM_SUP)
    text = repr(long_chain)
    assert text.startswith("BestApproxChain(p=2, norm='sup', max_level=65537, entries=(")
    assert f", ... {len(long_chain.entries) - 8} more), precision_ceiling=65537, " in text
    assert text.endswith("ceiling_metric=<int of 49152 bits>)")
    xi = from_digits(2, [1, 0, 1, 1])
    pairs = (make_pair(xi, 1, 1), make_pair(xi, 3, 5))
    short_chain = BestApproxChain(2, NORM_SUP, 4, pairs, 4, 21)
    assert repr(short_chain) == (
        f"BestApproxChain(p=2, norm='sup', max_level=4, entries=({pairs[0]!r}, {pairs[1]!r}), "
        "precision_ceiling=4, ceiling_metric=21)"
    )
