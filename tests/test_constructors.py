"""Number families: lacunary, factorial, digit rules, recursions, surgery."""

from __future__ import annotations

import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from padiclab import (
    LacunarySpec,
    SurgerySpec,
    build_digit_rule,
    build_factorial,
    build_lacunary,
    build_ratio_witness,
    check_surgery_pointwise,
    lacunary_pow_exponents,
    linear_form_valuation,
    make_pair,
    pval,
    schneider_exponent_driven,
    schneider_initial,
    schneider_ledger_csv,
    schneider_sandwich_report,
    schneider_step,
    select_block_exponent,
    surgery_transform,
    thue_morse_bit,
    from_digits,
    from_value,
)


# ---------------------------------------------------------------------------
# lacunary and digit-rule numbers
# ---------------------------------------------------------------------------


def test_lacunary_spec_validation():
    with pytest.raises(ValueError):
        LacunarySpec(4, (0, 1))
    with pytest.raises(ValueError):
        LacunarySpec(2, (0,))
    with pytest.raises(ValueError):
        LacunarySpec(2, (1, 2))
    with pytest.raises(ValueError):
        LacunarySpec(2, (0, 3, 3))


def test_lacunary_spec_warns_on_slow_gaps():
    with pytest.warns(UserWarning):
        LacunarySpec(2, (0, 2, 3, 10))


def test_build_lacunary_value():
    xi = build_lacunary(LacunarySpec(2, (0, 1, 2, 4, 8)))
    assert xi.precision == 9
    assert xi.value == 1 + 2 + 4 + 16 + 256  # 279


def test_build_lacunary_respects_digit_cap():
    # Past the one-million-digit cap: refused before any digit is built.
    with pytest.raises(ValueError, match="digit cap"):
        build_lacunary(LacunarySpec(2, (0, 1, 2_000_000)))


def test_lacunary_pow_exponents():
    assert lacunary_pow_exponents(3, 5) == (0, 3, 9, 27, 81)
    assert lacunary_pow_exponents(1.5, 6) == (0, 2, 3, 4, 5, 8)
    with pytest.raises(ValueError):
        lacunary_pow_exponents(1.0, 5)
    with pytest.raises(ValueError):
        lacunary_pow_exponents(3, 1)


def test_build_factorial_value():
    xi = build_factorial(2, 3)
    assert xi.precision == 7
    assert xi.value == 2 + 4 + 64  # ones at 1!, 2!, 3!


def test_thue_morse_bits():
    ones = [i for i in range(12) if thue_morse_bit(i)]
    assert ones == [0, 3, 5, 6, 9, 10]


def test_build_digit_rule_thue_morse():
    xi = build_digit_rule(2, "thue-morse", 11)
    assert xi.digits == (1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1)


def test_build_digit_rule_random_determinism():
    a = build_digit_rule(3, "random", 50, seed=7)
    b = build_digit_rule(3, "random", 50, seed=7)
    c = build_digit_rule(3, "random", 50, seed=8)
    assert a == b
    assert a != c


def test_build_digit_rule_validation():
    with pytest.raises(ValueError):
        build_digit_rule(2, "no-such-rule", 10)
    with pytest.raises(ValueError):
        build_digit_rule(2, "random", 0)


@pytest.mark.parametrize("rule", ["thue-morse", "random"])
def test_build_digit_rule_respects_digit_cap(rule):
    # One digit past the cap is refused before the digit list is built.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="digit cap"):
            build_digit_rule(2, rule, 1_000_001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


# ---------------------------------------------------------------------------
# convergent recursion with p-power blocks
# ---------------------------------------------------------------------------


def test_schneider_seed_pairs():
    state = schneider_initial(2)
    assert state.pair(-1) == (1, 0)
    assert state.pair(0) == (0, 1)
    assert state.n_last == 0


def test_schneider_step_recursion():
    state = schneider_step(schneider_initial(2), 1)
    assert state.pair(1) == (2, 1)
    state = schneider_step(state, 2)  # b = 4
    assert state.pair(2) == (2 + 4 * 0, 1 + 4 * 1)  # (2, 5)
    with pytest.raises(ValueError):
        schneider_step(state, 0)


def test_select_block_exponent_boundary():
    # 2**g <= 4**(3/2) = 8 exactly at g = 3.
    assert select_block_exponent(2, 4, 0, Fraction(3, 2)) == 3
    assert select_block_exponent(2, 5, 0, Fraction(3, 2)) == 3
    assert select_block_exponent(2, 4, 1, Fraction(3, 2)) == 2
    with pytest.raises(ValueError):
        select_block_exponent(2, 1, 0, Fraction(3, 2))


@given(
    p=st.sampled_from((2, 3, 5, 7)),
    k=st.integers(min_value=0, max_value=60),
    offset=st.sampled_from((-1, 0, 1)),
    ell=st.integers(min_value=0, max_value=200),
    a=st.integers(min_value=1, max_value=40),
    b=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=400, deadline=None)
def test_select_block_exponent_matches_float_seeded_search(p, k, offset, ell, a, b):
    height = max(2, p**k + offset)
    mu = Fraction(a, b)
    assert select_block_exponent(p, height, ell, mu) == reference.select_block_exponent(
        p, height, ell, mu
    )


def test_exponent_driven_trace():
    state, xi = schneider_exponent_driven(2, Fraction(5, 2), 6)
    assert state.pairs[2:] == (
        (2, 1),
        (2, 3),
        (6, 5),
        (22, 29),
        (406, 349),
        (11670, 15197),
    )
    assert state.gs == (1, 1, 1, 3, 6, 9)
    assert state.trailing_g == 13
    assert [state.block_sum(k) for k in range(1, 7)] == [1, 2, 3, 6, 12, 21]
    assert xi.precision == state.ledger_valuation(state.n_last) == 34


def test_exponent_driven_ledger_matches_linear_forms():
    state, xi = schneider_exponent_driven(2, Fraction(5, 2), 6)
    for n in range(1, state.n_last):
        num, den = state.pair(n)
        val = linear_form_valuation(xi, num, den)
        assert val.is_exact
        assert val.value == state.ledger_valuation(n)
    num, den = state.pair(state.n_last)
    val = linear_form_valuation(xi, num, den)
    assert not val.is_exact
    assert val.value == state.ledger_valuation(state.n_last)


def test_exponent_driven_coprimality_and_divisibility():
    for p in (2, 3, 5, 7):
        state, _ = schneider_exponent_driven(p, Fraction(5, 2), 10)
        for n in range(1, state.n_last + 1):
            num, den = state.pair(n)
            assert math.gcd(num, den) == 1
            assert num % p == 0 != den % p
            assert pval(num, p) == state.gs[0]


def test_exponent_driven_sandwich_exact():
    state, _ = schneider_exponent_driven(3, Fraction(5, 2), 8)
    rows = schneider_sandwich_report(state)
    assert len(rows) == 8
    assert all(row["lower_ok"] and row["upper_ok"] for row in rows)


def test_sandwich_rows_report_a_ledger_off_by_one_block_digit():
    # At an integer target the integer log j equals the ledger valuation, so
    # each side is tested at its boundary.
    state, _ = schneider_exponent_driven(2, Fraction(3), 6)
    # A ledger one digit too deep breaks the lower side, one too shallow the upper.
    deeper = schneider_sandwich_report(replace(state, trailing_g=state.trailing_g + 1))
    shallower = schneider_sandwich_report(replace(state, trailing_g=state.trailing_g - 1))
    assert (deeper[-1]["lower_ok"], deeper[-1]["upper_ok"]) == (False, True)
    assert (shallower[-1]["lower_ok"], shallower[-1]["upper_ok"]) == (True, False)
    assert all(row["lower_ok"] and row["upper_ok"] for row in deeper[:-1] + shallower[:-1])


def test_exponent_driven_refuses_a_huge_target_at_the_digit_cap():
    # The third block would raise a 10**6-bit height to the 1000th power;
    # the cap refuses it from one integer log, without forming that power.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds digit cap"):
            schneider_exponent_driven(2, Fraction(1000), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_exponent_driven_target_with_a_large_denominator():
    state, xi = schneider_exponent_driven(2, Fraction(2_500_001, 1_000_000), 12)
    assert state.gs == (1, 1, 1, 3, 6, 9, 13, 20, 30, 45, 68, 102)
    assert state.trailing_g == 153
    assert xi.precision == 452
    rows = schneider_sandwich_report(state)
    assert len(rows) == 12
    assert all(row["lower_ok"] and row["upper_ok"] for row in rows)


def test_exponent_driven_varying_targets():
    state, _ = schneider_exponent_driven(2, [Fraction(3), Fraction(7, 2)], 5)
    rows = schneider_sandwich_report(state)
    assert all(row["lower_ok"] and row["upper_ok"] for row in rows)
    # The first driven step uses the first target, later steps the last one.
    assert state.mus[1] == Fraction(3)
    assert state.mus[2] == Fraction(7, 2)


def test_exponent_driven_validation():
    with pytest.raises(ValueError):
        schneider_exponent_driven(2, Fraction(5, 2), 0)
    with pytest.raises(ValueError):
        schneider_exponent_driven(2, Fraction(2), 5)  # below 5/2


def test_exponent_driven_respects_digit_cap():
    # At target 1100 the first driven block gives 1,100 digits and the
    # second would give 1,208,900: refused before the limit is built, both
    # as the trailing selection (2 steps) and as a driven one (40 steps).
    _, xi = schneider_exponent_driven(2, Fraction(1100), 1)
    assert xi.precision == 1100
    for steps in (2, 40):
        with pytest.raises(ValueError, match="precision 1208900 exceeds digit cap"):
            schneider_exponent_driven(2, Fraction(1100), steps)


def test_exponent_driven_refuses_float_targets():
    # 2.7 would drive the recursion at 3039929748475085/1125899906842624.
    for mu_seq in (2.7, [Fraction(3), 2.7], (3, 3.5)):
        with pytest.raises(ValueError, match="is not a Fraction or an int"):
            schneider_exponent_driven(2, mu_seq, 3)


@pytest.mark.parametrize(
    "p, mu",
    [(5, Fraction(5, 2)), (7, Fraction(5, 2)), (7, Fraction(11, 4)), (11, Fraction(5, 2))],
    ids=("p5-mu5_2", "p7-mu5_2", "p7-mu11_4", "p11-mu5_2"),
)
def test_exponent_driven_starts_with_bootstrap_blocks(p, mu):
    # The pair (p, p + 1) at index 2 has no block g >= 1 for mu = a/b, as
    # (p + 1)**a < p**(3*b); it gets the bootstrap block and mu is retried.
    assert (p + 1) ** mu.numerator < p ** (3 * mu.denominator)
    state, xi = schneider_exponent_driven(p, mu, 12)
    assert state == reference.schneider_driven(p, [mu], 12)
    assert state.pair(2) == (p, p + 1)
    assert [i for i, target in enumerate(state.mus) if target is None] == [0, 2]
    rows = schneider_sandwich_report(state)
    assert [row["n"] for row in rows] == [1, *range(3, state.n_last + 1)]
    assert len(rows) == 12
    assert all(row["lower_ok"] and row["upper_ok"] for row in rows)
    for n in range(1, state.n_last + 1):
        num, den = state.pair(n)
        assert math.gcd(num, den) == 1
        val = linear_form_valuation(xi, num, den)
        assert val.is_exact == (n < state.n_last)
        assert val.value == state.ledger_valuation(n)


def test_exponent_driven_bootstraps_consume_no_target():
    # Target 1 meets the bootstrap at pair 2 and is retried at pair 3, so
    # target 2 first drives the block at pair 4.
    targets = [Fraction(5, 2), Fraction(5, 2), Fraction(3)]
    state, _ = schneider_exponent_driven(5, targets, 4)
    assert state.mus == (None, Fraction(5, 2), None, Fraction(5, 2), Fraction(3))
    assert state.trailing_mu == Fraction(3)
    assert state == reference.schneider_driven(5, targets, 4)


def _targets(b: int):
    """Fractions a/b in [5/2, 4]."""
    return st.integers(-(-5 * b // 2), 4 * b).map(lambda a: Fraction(a, b))


@given(
    p=st.sampled_from((2, 3, 5, 7, 11, 13)),
    targets=st.lists(st.integers(1, 8).flatmap(_targets), min_size=1, max_size=3),
    steps=st.integers(1, 8),
)
@settings(max_examples=150, deadline=None)
def test_exponent_driven_matches_explicit_power_recursion(p, targets, steps):
    state, xi = schneider_exponent_driven(p, targets, steps)
    assert state == reference.schneider_driven(p, targets, steps)
    assert len(schneider_sandwich_report(state)) == steps
    assert xi.precision == state.ledger_valuation(state.n_last)


def test_schneider_ledger_csv(tmp_path):
    state, _ = schneider_exponent_driven(2, Fraction(5, 2), 6)
    path = tmp_path / "ledger.csv"
    schneider_ledger_csv(state, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,p_n,q_n,g_n,H_n,vL_n"
    assert lines[1] == "1,2,1,1,2,2"
    assert len(lines) == 1 + state.n_last


def test_schneider_ledger_without_a_trailing_block(tmp_path):
    # Applied blocks fix the ledger of every pair but the last one.
    state = schneider_initial(3)
    for g in (1, 2):
        state = schneider_step(state, g, Fraction(5, 2))
    assert state.trailing_g is None
    path = tmp_path / "ledger.csv"
    schneider_ledger_csv(state, path)
    assert path.read_text().splitlines()[1:] == ["1,3,1,1,3,3", "2,3,10,2,10,"]
    assert [row["n"] for row in schneider_sandwich_report(state)] == [1]
    assert state.block_sum(2) == 3
    with pytest.raises(IndexError):
        state.ledger_valuation(2)


# ---------------------------------------------------------------------------
# digit surgery
# ---------------------------------------------------------------------------


def test_surgery_spec_intervals():
    spec = SurgerySpec(t=Fraction(3, 2), mu=Fraction(3), c_offset=7, sigmas=(4,))
    assert spec.nus == (25,)  # floor(4.5 * 4) + 7
    assert spec.taus == (75,)  # floor(3 * 25)
    assert spec.intervals() == ((25, 75),)


def test_surgery_spec_validation():
    with pytest.raises(ValueError):
        SurgerySpec(t=Fraction(5, 2), mu=Fraction(3), c_offset=7, sigmas=(4,))
    with pytest.raises(ValueError):
        SurgerySpec(t=Fraction(3, 2), mu=Fraction(2), c_offset=7, sigmas=(4,))
    with pytest.raises(ValueError):
        # second source position falls inside the first cleared interval
        SurgerySpec(t=Fraction(3, 2), mu=Fraction(3), c_offset=7, sigmas=(4, 26))


def test_surgery_transform_hand_example():
    zeta = from_digits(2, [1] * 12)
    spec = SurgerySpec(t=Fraction(1), mu=Fraction(5, 2), c_offset=2, sigmas=(1,))
    assert spec.nus == (4,) and spec.taus == (10,)
    xi, corrections = surgery_transform(zeta, spec)
    # The all-ones block on [4, 10] is 2**11 - 2**4; endpoints keep single 1s.
    assert corrections == (2**11 - 2**4 - 2**4 - 2**10,)
    assert xi.digits == (1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1)
    assert (zeta.value - xi.value) % 2**12 == corrections[0] % 2**12


@given(
    p=st.sampled_from((2, 3, 5)),
    seed=st.integers(min_value=0, max_value=10**6),
    second=st.integers(min_value=16, max_value=30),
)
@settings(max_examples=30, deadline=None)
def test_surgery_corrections_match_digit_blocks(p, seed, second):
    spec = SurgerySpec(
        t=Fraction(3, 2), mu=Fraction(3), c_offset=1, sigmas=(1, second)
    )
    rng = random.Random(seed)
    digits = [rng.randrange(p) for _ in range(spec.taus[-1] + 5)]
    _, corrections = surgery_transform(from_digits(p, digits), spec)
    assert corrections == tuple(
        sum(digits[i] * p**i for i in range(nu, tau + 1)) - p**nu - p**tau
        for nu, tau in spec.intervals()
    )


@st.composite
def surgery_cases(draw):
    """A prime, a valid SurgerySpec with 1-3 intervals and a random zeta."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    t = Fraction(draw(st.integers(4, 8)), 4)
    mu = Fraction(draw(st.integers(9, 13)), 4)
    c_offset = draw(st.integers(1, 4))
    sigmas = [draw(st.integers(1, 4))]
    for _ in range(draw(st.integers(0, 2))):
        spec = SurgerySpec(t=t, mu=mu, c_offset=c_offset, sigmas=tuple(sigmas))
        sigmas.append(spec.taus[-1] + draw(st.integers(1, 20)))
    spec = SurgerySpec(t=t, mu=mu, c_offset=c_offset, sigmas=tuple(sigmas))
    precision = spec.taus[-1] + draw(st.integers(1, 10))
    seed = draw(st.integers(0, 10**6))
    zeta = from_value(p, random.Random(seed).randrange(p**precision), precision)
    return zeta, spec


@given(case=surgery_cases())
@settings(max_examples=60, deadline=None)
def test_surgery_transform_matches_digit_editing(case):
    zeta, spec = case
    xi, corrections = surgery_transform(zeta, spec)
    expected_xi, expected_corrections = reference.surgery_transform(zeta, spec)
    assert xi == expected_xi
    assert xi.digits == expected_xi.digits
    assert corrections == expected_corrections


def test_long_reductions_match_division_on_the_schneider_number():
    """The 300,707-digit p = 2 limit, where every reduction is a bit mask."""
    state, number = schneider_exponent_driven(2, Fraction(5, 2), 28)
    assert number.precision == 300_707
    num, den = state.pair(state.n_last)
    assert number.value == reference.lift_by_division(2, num, den, 300_707)
    for n in (1, state.n_last // 2, state.n_last - 1, state.n_last):
        x, y = state.pair(n)
        for sign in (1, -1):
            assert linear_form_valuation(number, sign * x, y) == (
                reference.form_valuation_by_division(number, sign * x, y)
            )
    spec = SurgerySpec(
        t=Fraction(3, 2), mu=Fraction(3), c_offset=1, sigmas=(1000, 20_000)
    )
    assert spec.taus[-1] < number.precision
    assert surgery_transform(number, spec) == reference.surgery_transform(number, spec)


def test_surgery_transform_validates_precision():
    zeta = from_digits(2, [1] * 10)
    spec = SurgerySpec(t=Fraction(1), mu=Fraction(5, 2), c_offset=2, sigmas=(1,))
    with pytest.raises(ValueError):
        surgery_transform(zeta, spec)  # interval end 10 >= precision 10


def test_ratio_witness_small():
    witness = build_ratio_witness(
        2,
        Fraction(3, 2),
        Fraction(3),
        sigma1_target=5,
        gap_multiplier=2,
        num_spikes=1,
    )
    spec = witness.spec
    assert len(spec.sigmas) == 1
    assert witness.zeta.precision > spec.taus[-1]
    # Transplantation preserves the spike valuations exactly.
    for src, moved in zip(witness.source_pairs, witness.spike_pairs):
        assert src.val.is_exact and moved.val.is_exact
        assert src.val.value == moved.val.value
        assert src.y == moved.y
    # Truncation approximants cut right at the interval starts.
    for nu, pair in zip(spec.nus, witness.truncation_pairs):
        assert pair.y == 1
        assert pair.val.is_exact and pair.val.value >= nu
    # The edit only clears digits inside the declared intervals.
    changed = [
        i
        for i, (a, b) in enumerate(zip(witness.zeta.digits, witness.xi.digits))
        if a != b
    ]
    intervals = spec.intervals()
    assert all(any(lo <= i <= hi for lo, hi in intervals) for i in changed)


def test_ratio_witness_transplants_by_running_corrections():
    # Source pair j moves to x - (c_0 + ... + c_(j-1)) * y, valued against xi.
    witness = build_ratio_witness(
        2, Fraction(3, 2), Fraction(3), sigma1_target=5, gap_multiplier=2, num_spikes=3
    )
    assert len(witness.spike_pairs) == len(witness.corrections) == 3
    for j, (src, moved) in enumerate(zip(witness.source_pairs, witness.spike_pairs)):
        shift = sum(witness.corrections[:j])
        assert moved == make_pair(witness.xi, src.x - shift * src.y, src.y)
        assert (j == 0) == (moved == make_pair(witness.xi, src.x, src.y))


def test_ratio_witness_two_spikes_p5():
    # The shift of the second spike by c_0 ~ p**tau_0 lowers its product
    # exponent by the factor 2*sigma_1 / (2*sigma_1 + tau_0) >= 2g / (2g + 1):
    # 10/11 at g = 5 stays inside the 10% window (8/9 at g = 4 does not).
    witness = build_ratio_witness(
        5, Fraction(3, 2), Fraction(6), sigma1_target=4, gap_multiplier=5
    )
    results = check_surgery_pointwise(witness, tol=0.10)
    assert all(r.passed for r in results)
    mult = [r.inputs["exponent"] for r in results if r.name.startswith("surgery_mult")]
    assert [round(e, 3) for e in mult] == [9.493, 8.374]
    sigma, tau = witness.spec.sigmas[1], witness.spec.taus[0]
    src = witness.source_pairs[1]
    source_exponent = 2 * src.val.value * math.log(5) / math.log(src.height_mult_sq)
    assert mult[1] / source_exponent == pytest.approx(2 * sigma / (2 * sigma + tau), abs=1e-3)
    assert 2 * sigma / (2 * sigma + tau) >= Fraction(10, 11)


def test_ratio_witness_starts_for_p5():
    # The filler target 5/2 meets no block g >= 1 at pair 2 for p = 5.
    witness = build_ratio_witness(
        5, Fraction(3, 2), Fraction(6), sigma1_target=5, gap_multiplier=4, num_spikes=1
    )
    assert witness.xi.precision == 417
    assert [i for i, mu in enumerate(witness.state.mus) if mu is None] == [0, 2]
    for src, moved in zip(witness.source_pairs, witness.spike_pairs):
        assert src.val.is_exact and moved.val == src.val
    assert all(r.passed for r in check_surgery_pointwise(witness, tol=0.10))


def test_ratio_witness_retries_a_spike_due_at_the_seed_pair():
    # At sigma1_target 0 the first spike is due at the seed pair of height 1,
    # which takes the bootstrap block; the spike is recorded at pair 1.
    witness = build_ratio_witness(
        3, Fraction(5, 4), Fraction(4), sigma1_target=0, gap_multiplier=3
    )
    assert witness.spec.sigmas[0] == 1
    source = witness.source_pairs[0]
    assert (source.x, source.y) == witness.state.pair(1) == (3, 1)
    assert witness.state.mus[:2] == (None, Fraction(5))


def test_ratio_witness_validation():
    with pytest.raises(ValueError):
        build_ratio_witness(2, Fraction(3, 2), Fraction(3), num_spikes=0)
    with pytest.raises(ValueError):
        build_ratio_witness(2, Fraction(1), Fraction(2))  # spike target too low
