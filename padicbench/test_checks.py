"""Every output check accepts padiclab's real outputs and rejects corruptions."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

import checks
from checks import CheckFailed, Digits, Entry
from padiclab import (
    build_ratio_witness,
    chain,
    from_digits,
    from_rational,
    oracle_chain,
    save_chain_csv,
    save_digit_file,
    schneider_initial,
    schneider_sandwich_report,
    schneider_step,
    select_block_exponent,
)
from padiclab.constructors import SchneiderState


def test_value_of_digits_and_valuation_match_naive_arithmetic():
    rng = random.Random(7)
    for p in (2, 3, 5, 7):
        for n in (1, 2, 3, 17, 130, 257):
            digits = [rng.randrange(p) for _ in range(n)]
            assert checks.value_of_digits(digits, p) == sum(d * p**i for i, d in enumerate(digits))
        for v in (0, 1, 5, 64, 200):
            unit = rng.randrange(1, 10**6) * p + 1
            assert checks.valuation(-unit * p**v, p) == v


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    rng = random.Random(11)
    p = 3
    xi = from_digits(p, [rng.randrange(p) for _ in range(60)])
    tmp = tmp_path_factory.mktemp("chains")
    save_digit_file(xi, tmp / "xi.json")
    out = {}
    for norm in ("sup", "mult"):
        save_chain_csv(chain(xi, norm), str(tmp / f"{norm}.csv"))
        out[norm] = checks.read_chain(str(tmp / f"{norm}.csv"))
    return xi, checks.read_digits(str(tmp / "xi.json")), out


@pytest.mark.parametrize("norm", ["sup", "mult"])
def test_chain_check_accepts_real_chain(chains, norm):
    _, digits, entries = chains
    assert checks.check_chain(entries[norm], digits, norm) == f"{norm}:{len(entries[norm])}"


@pytest.mark.parametrize("norm", ["sup", "mult"])
@pytest.mark.parametrize("delta", [1, -1])
def test_chain_check_rejects_valuation_off_by_one(chains, norm, delta):
    _, digits, entries = chains
    bad = list(entries[norm])
    bad[3] = dataclasses.replace(bad[3], val=bad[3].val + delta)
    with pytest.raises(CheckFailed, match="entry 3: valuation"):
        checks.check_chain(bad, digits, norm)


def test_chain_check_rejects_common_factor(chains):
    _, digits, entries = chains
    bad = list(entries["sup"])
    bad[2] = dataclasses.replace(bad[2], x=2 * bad[2].x, y=2 * bad[2].y)
    with pytest.raises(CheckFailed, match=r"entry 2: gcd\(x, y\) != 1"):
        checks.check_chain(bad, digits, "sup")


def test_chain_check_rejects_y_divisible_by_p(chains):
    _, digits, entries = chains
    bad = list(entries["mult"])
    k = next(k for k, e in enumerate(bad) if e.x % 3)
    bad[k] = dataclasses.replace(bad[k], y=3 * bad[k].y)
    with pytest.raises(CheckFailed, match=f"entry {k}: p divides y"):
        checks.check_chain(bad, digits, "mult")


def test_chain_check_rejects_non_increasing_staircase(chains):
    _, digits, entries = chains
    bad = list(entries["sup"])
    bad[4], bad[5] = bad[5], bad[4]
    with pytest.raises(CheckFailed, match="does not increase"):
        checks.check_chain(bad, digits, "sup")


def test_read_chain_rejects_inconsistent_heights(tmp_path, chains):
    xi, _, _ = chains
    path = tmp_path / "sup.csv"
    save_chain_csv(chain(xi, "sup"), str(path))
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[5] = str(int(cells[5]) + 1)
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed, match="sup height"):
        checks.read_chain(str(path))


def test_prefix_check_compares_with_the_oracle(chains):
    xi, _, entries = chains
    oracle = [checks.entry_tuple(e) for e in oracle_chain(xi, "sup", 500).entries]
    assert checks.check_prefix(entries["sup"], oracle, "sup", 500)
    with pytest.raises(CheckFailed, match="differs from the oracle"):
        checks.check_prefix(entries["sup"], oracle[:-1], "sup", 500)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

REPORT = {"mu": 2.05, "mu_times": 2.9, "hat_mu": 2.0, "hat_mu_times": 2.3}


def test_report_check_accepts_and_rejects():
    assert checks.check_report(REPORT, classical=True)
    for key, value, message in (
        ("hat_mu_times", 3.7, "above"),
        ("mu", 1.9, "mu 1.9 below 2"),
        ("mu_times", 1.8, "outside"),
        ("mu_times", 4.5, "outside"),
    ):
        with pytest.raises(CheckFailed, match=message):
            checks.check_report({**REPORT, key: value}, classical=True)


def test_lacunary_check_windows():
    good = {"mu": 3.0, "mu_times": 6.0, "hat_mu_times": 2.64}
    assert checks.check_lacunary(good, 3.0)
    for key, value in (("mu", 3.2), ("mu_times", 5.6), ("hat_mu_times", 2.5)):
        with pytest.raises(CheckFailed):
            checks.check_lacunary({**good, key: value}, 3.0)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def _schneider(p: int, mu: Fraction, steps: int, bump_at: int | None = None):
    """The exponent-driven recursion, optionally one block too long at a step."""
    state = schneider_step(schneider_initial(p), 1, None)
    for n in range(1, steps):
        g = select_block_exponent(p, state.height(n), state.block_sum(n), mu)
        state = schneider_step(state, g + (n == bump_at), mu)
    trailing = select_block_exponent(p, state.height(steps), state.block_sum(steps), mu)
    state = dataclasses.replace(state, trailing_g=trailing, trailing_mu=mu)
    num, den = state.pair(state.n_last)
    xi = from_rational(p, num, den, state.ledger_valuation(state.n_last))
    return state, Digits(p, list(xi.digits))


def _check_schneider(state: SchneiderState, rows, digits: Digits) -> str:
    return checks.check_schneider(state.pairs, state.gs, state.mus, state.trailing_g,
                                  state.trailing_mu, rows, digits)


def test_schneider_check_accepts_the_recursion():
    state, digits = _schneider(2, Fraction(5, 2), 10)
    assert _check_schneider(state, schneider_sandwich_report(state), digits)


def test_schneider_check_rejects_row_outside_its_sandwich():
    state, digits = _schneider(2, Fraction(5, 2), 10, bump_at=4)
    rows = [dict(row, lower_ok=True, upper_ok=True) for row in schneider_sandwich_report(state)]
    with pytest.raises(CheckFailed, match="row 4 outside its sandwich"):
        _check_schneider(state, rows, digits)


def test_schneider_check_rejects_a_row_it_disagrees_with():
    state, digits = _schneider(3, Fraction(5, 2), 8)
    rows = schneider_sandwich_report(state)
    rows[2] = dict(rows[2], ledger_valuation=rows[2]["ledger_valuation"] + 1)
    with pytest.raises(CheckFailed, match="disagrees"):
        _check_schneider(state, rows, digits)


def test_schneider_check_rejects_wrong_limit_digits():
    state, digits = _schneider(2, Fraction(5, 2), 8)
    flipped = list(digits.digits)
    flipped[-1] ^= 1
    with pytest.raises(CheckFailed, match="den \\* xi != num"):
        _check_schneider(state, schneider_sandwich_report(state), Digits(2, flipped))


@pytest.fixture(scope="module")
def witness():
    return build_ratio_witness(2, Fraction(3, 2), Fraction(6), sigma1_target=2,
                               gap_multiplier=2, num_spikes=1)


def _check_surgery(w, xi_digits, corrections) -> str:
    return checks.check_surgery(
        Digits(2, list(w.zeta.digits)), Digits(2, xi_digits), w.spec.intervals(),
        corrections, [(pr.x, pr.y) for pr in w.truncation_pairs],
        [(pr.x, pr.y) for pr in w.spike_pairs], w.mu, w.t)


def test_surgery_check_accepts_the_witness(witness):
    assert _check_surgery(witness, list(witness.xi.digits), witness.corrections)


def test_surgery_check_rejects_uncleared_digit(witness):
    start, end = witness.spec.intervals()[0]
    i = (start + end) // 2
    digits = list(witness.xi.digits)
    digits[i] = 1
    # Keep the congruence intact so that only the cleared-interval test can see it.
    corrections = (witness.corrections[0] - 2**i,) + witness.corrections[1:]
    with pytest.raises(CheckFailed, match="uncleared digit"):
        _check_surgery(witness, digits, corrections)


def test_surgery_check_rejects_broken_congruence(witness):
    corrections = (witness.corrections[0] + 1,) + witness.corrections[1:]
    with pytest.raises(CheckFailed, match="zeta - sum"):
        _check_surgery(witness, list(witness.xi.digits), corrections)


def test_sweep_check_rejects_a_drifting_row(tmp_path):
    path = tmp_path / "sweep.csv"
    header = "d,mu_est,mu_times_est,hat_mu_times_est,predicted_mu,predicted_mu_times\n"
    path.write_text(header + "3.0,3.0,6.0,2.64,3.0,6.0\n")
    assert checks.check_sweep(str(path)) == "1 rows"
    path.write_text(header + "3.0,3.0,6.5,2.64,3.0,6.0\n")
    with pytest.raises(CheckFailed, match="mu_times_est"):
        checks.check_sweep(str(path))


def test_entry_tuple_reads_padiclab_pairs(chains):
    xi, _, entries = chains
    assert [checks.entry_tuple(e) for e in chain(xi, "sup").entries] == entries["sup"]
    assert isinstance(entries["sup"][0], Entry)
