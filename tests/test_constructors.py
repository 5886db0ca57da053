"""Number families: lacunary, factorial, digit rules, recursions, surgery."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclab import (
    LacunarySpec,
    SurgerySpec,
    build_digit_rule,
    build_factorial,
    build_lacunary,
    build_ratio_witness,
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
    surgery_pairs,
    surgery_transform,
    thue_morse_bit,
    from_digits,
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


def test_lacunary_gap_ratios():
    spec = LacunarySpec(2, (0, 1, 3, 9))
    assert spec.gap_ratios() == (3.0, 3.0)
    with pytest.raises(ValueError):
        LacunarySpec(2, (0, 5)).gap_ratios()


def test_build_lacunary_value():
    xi = build_lacunary(LacunarySpec(2, (0, 1, 2, 4, 8)))
    assert xi.precision == 9
    assert xi.value == 1 + 2 + 4 + 16 + 256  # 279


def test_build_lacunary_respects_digit_cap():
    with pytest.raises(ValueError):
        build_lacunary(LacunarySpec(2, (0, 10, 100)), max_digits=50)


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
    for p in (2, 3):
        state, _ = schneider_exponent_driven(p, Fraction(5, 2), 10)
        for n in range(1, state.n_last + 1):
            num, den = state.pair(n)
            assert math.gcd(num, den) == 1
            num_div, den_div = state.p_divisibility(n)
            assert num_div and not den_div
            assert pval(num, p) == state.gs[0]


def test_exponent_driven_sandwich_exact():
    state, _ = schneider_exponent_driven(3, Fraction(5, 2), 8)
    rows = schneider_sandwich_report(state)
    assert len(rows) == 8
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
        schneider_exponent_driven(2, Fraction(2), 5)  # below 2 + epsilon


def test_schneider_ledger_csv(tmp_path):
    state, _ = schneider_exponent_driven(2, Fraction(5, 2), 6)
    path = tmp_path / "ledger.csv"
    schneider_ledger_csv(state, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,p_n,q_n,g_n,H_n,vL_n"
    assert lines[1] == "1,2,1,1,2,2"
    assert len(lines) == 1 + state.n_last


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
    result = surgery_transform(zeta, spec)
    # The all-ones block on [4, 10] is 2**11 - 2**4; endpoints keep single 1s.
    assert result.corrections == (2**11 - 2**4 - 2**4 - 2**10,)
    assert result.partials == (0, result.corrections[0])
    assert result.xi.digits == (1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1)
    assert (zeta.value - result.xi.value) % 2**12 == result.partials[-1] % 2**12


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
    result = surgery_transform(from_digits(p, digits), spec)
    assert result.corrections == tuple(
        sum(digits[i] * p**i for i in range(nu, tau + 1)) - p**nu - p**tau
        for nu, tau in spec.intervals()
    )


def test_surgery_transform_validates_precision():
    zeta = from_digits(2, [1] * 10)
    spec = SurgerySpec(t=Fraction(1), mu=Fraction(5, 2), c_offset=2, sigmas=(1,))
    with pytest.raises(ValueError):
        surgery_transform(zeta, spec)  # interval end 10 >= precision 10


def test_surgery_pairs_translation():
    xi = from_digits(2, [1, 0, 1, 1, 0, 1])
    pairs = surgery_pairs(xi, [(5, 2), (7, 3)], [0, 8])
    assert (pairs[0].x, pairs[0].y) == (5, 2)
    assert (pairs[1].x, pairs[1].y) == (7 - 8 * 3, 3)
    with pytest.raises(ValueError):
        surgery_pairs(xi, [(5, 2), (7, 3)], [0])


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


def test_ratio_witness_validation():
    with pytest.raises(ValueError):
        build_ratio_witness(2, Fraction(3, 2), Fraction(3), num_spikes=0)
    with pytest.raises(ValueError):
        build_ratio_witness(2, Fraction(1), Fraction(2))  # spike target too low
