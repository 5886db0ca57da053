"""Constructors for the p-adic numbers studied by the toolkit.

Families covered:

* lacunary power series ``sum_k p**a_k`` with prescribed gap exponents,
* the factorial series with ones exactly at positions ``1!, 2!, ..., n!``,
* named digit rules (Thue-Morse parity digits, seeded random digits),
* Schneider continued fractions, including the exponent-driven variant that
  picks each block size by exact integer comparison,
* digit surgery: zeroing prescribed digit intervals of a source number (with
  ones kept at the interval endpoints) and transplanting its good integer
  approximations onto the edited number.
"""

from __future__ import annotations

import csv
import random
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .core import (
    ApproxPair,
    PAdicNumber,
    from_digits,
    from_rational,
    from_value,
    ilog,
    int_to_decimal,
    is_prime,
    make_pair,
    residue,
)

_MAX_DIGITS = 1_000_000
# The surgery source is a Schneider limit and may run to twice that.
_WITNESS_MAX_DIGITS = 2 * _MAX_DIGITS

# Extra offset of each surgery interval start above ceil(t*mu) + 1.
_C_MARGIN = 3

# Every exponent-driven Schneider target is at least 2 + _EPSILON, and the
# surgery source fills the gaps between its spikes at exactly that target.
_EPSILON = Fraction(1, 2)


# ---------------------------------------------------------------------------
# lacunary and digit-rule numbers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LacunarySpec:
    """Prescribes ones at strictly increasing digit positions a_0 < a_1 < ...

    The first exponent must be 0.  Gap ratios below 2 are tolerated (with a
    warning) as long as they occur before the final index, since only the
    tail behaviour matters for exponent estimates.
    """

    p: int
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        a = self.exponents
        if len(a) < 2:
            raise ValueError("need at least 2 exponents")
        if a[0] != 0:
            raise ValueError("first exponent must be 0")
        for k in range(len(a) - 1):
            if a[k + 1] <= a[k]:
                raise ValueError("exponents must be strictly increasing")
        slow = [k for k in range(1, len(a) - 1) if a[k + 1] < 2 * a[k]]
        if slow:
            warnings.warn(
                f"gap ratio a_(k+1)/a_k below 2 at indices {slow}; "
                "exponent estimates may be unreliable",
                stacklevel=2,
            )

    def gap_ratios(self) -> tuple[float, float]:
        """Finite-data (liminf, limsup) of a_(k+1)/a_k, skipping a_0 = 0."""
        a = self.exponents
        ratios = [a[k + 1] / a[k] for k in range(1, len(a) - 1)]
        if not ratios:
            raise ValueError("need at least 3 exponents for gap ratios")
        return min(ratios), max(ratios)


def build_lacunary(spec: LacunarySpec) -> PAdicNumber:
    """The number with digit 1 exactly at the requested exponent positions."""
    precision = spec.exponents[-1] + 1
    if precision > _MAX_DIGITS:
        raise ValueError(f"precision {precision} exceeds digit cap {_MAX_DIGITS}")
    return from_value(spec.p, sum(spec.p**a for a in spec.exponents), precision)


def lacunary_pow_exponents(d: float, terms: int) -> tuple[int, ...]:
    """Exponents a_k ~ round(d**k) with a_0 = 0, forced strictly increasing."""
    if terms < 2:
        raise ValueError("need at least 2 terms")
    if d <= 1:
        raise ValueError("growth factor must exceed 1")
    out = [0, max(1, round(d))]
    for k in range(2, terms):
        out.append(max(out[-1] + 1, round(d**k)))
    return tuple(out[:terms])


def build_factorial(p: int, terms: int) -> PAdicNumber:
    """The number with digit 1 exactly at positions 1!, 2!, ..., terms!."""
    if terms < 2:
        raise ValueError("need at least 2 terms")
    positions = []
    f = 1
    for j in range(1, terms + 1):
        f *= j
        positions.append(f)
    precision = positions[-1] + 1
    if precision > _MAX_DIGITS:
        raise ValueError(f"precision {precision} exceeds digit cap {_MAX_DIGITS}")
    return from_value(p, sum(p**pos for pos in positions), precision)


def thue_morse_bit(i: int) -> int:
    """1 when the binary weight of i is even, else 0 (digit at position i)."""
    return 1 - bin(i).count("1") % 2


def build_digit_rule(p: int, rule: str, precision: int, seed: int = 0) -> PAdicNumber:
    """Deterministic digit vectors for named rules.

    ``thue-morse``: digit i is 1 exactly when i has even binary weight
    (ones at 0, 3, 5, 6, 9, 10, ...).  ``random``: uniform digits from a
    seeded generator, identical on every run with the same seed.
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    if rule == "thue-morse":
        digits = [thue_morse_bit(i) for i in range(precision)]
    elif rule == "random":
        rng = random.Random(seed)
        digits = [rng.randrange(p) for _ in range(precision)]
    else:
        raise ValueError(f"unknown digit rule {rule!r}")
    return from_digits(p, digits)


# ---------------------------------------------------------------------------
# Schneider continued fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchneiderState:
    """Convergents of a Schneider continued fraction with p-power partial
    denominators b_n = p**g_n.

    ``pairs[i]`` holds (numerator, denominator) for index n = i - 1, so the
    seed pairs (1, 0) and (0, 1) sit at n = -1 and n = 0.  ``gs[i]`` is the
    block exponent g_(i+1) that produced pair n = i + 1, and ``mus[i]`` is
    the target exponent that drove its selection (None for the fixed
    bootstrap block).  ``trailing_g`` is the next block exponent, selected
    but not yet applied; it pins down the ledger valuation of the last pair.
    """

    p: int
    pairs: tuple[tuple[int, int], ...]
    gs: tuple[int, ...] = ()
    mus: tuple[Fraction | None, ...] = ()
    trailing_g: int | None = None
    trailing_mu: Fraction | None = None

    @property
    def n_last(self) -> int:
        return len(self.pairs) - 2

    def pair(self, n: int) -> tuple[int, int]:
        """(numerator, denominator) at index n >= -1."""
        if n < -1 or n > self.n_last:
            raise IndexError(f"index {n} outside [-1, {self.n_last}]")
        return self.pairs[n + 1]

    def height(self, n: int) -> int:
        num, den = self.pair(n)
        return max(abs(num), abs(den))

    def block_sum(self, k: int) -> int:
        """g_1 + ... + g_k (the valuation gained by the first k blocks)."""
        if k <= len(self.gs):
            return sum(self.gs[:k])
        if k == len(self.gs) + 1 and self.trailing_g is not None:
            return sum(self.gs) + self.trailing_g
        raise IndexError(f"block sum {k} not available")

    def ledger_valuation(self, n: int) -> int:
        """Valuation of den_n * xi - num_n against the limit number."""
        return self.block_sum(n + 1)


def schneider_initial(p: int) -> SchneiderState:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return SchneiderState(p=p, pairs=(((1, 0), (0, 1))))


def schneider_step(
    state: SchneiderState, g_next: int, mu: Fraction | None = None
) -> SchneiderState:
    """Append the convergent for one more block b = p**g_next.

    Recursion: num_(n+1) = num_n + b * num_(n-1), same for denominators.
    Any previously selected trailing block is discarded (the caller chose a
    possibly different g).
    """
    if g_next < 1:
        raise ValueError("block exponent must be >= 1")
    b = state.p**g_next
    (pm1, qm1), (pn, qn) = state.pairs[-2], state.pairs[-1]
    new_pair = (pn + b * pm1, qn + b * qm1)
    return SchneiderState(
        p=state.p,
        pairs=state.pairs + (new_pair,),
        gs=state.gs + (g_next,),
        mus=state.mus + (mu,),
        trailing_g=None,
        trailing_mu=None,
    )


def select_block_exponent(p: int, height: int, ell: int, mu: Fraction) -> int:
    """Largest g with p**(g+ell) <= height**mu, by exact integer comparison.

    With mu = a/b the condition reads (p**b)**(g+ell) <= height**a, so
    g + ell is the integer log of height**a to the base p**b.
    """
    if height < 2:
        raise ValueError("height must be >= 2 to select a block exponent")
    return ilog(height**mu.numerator, p**mu.denominator) - ell


def _next_block(state: SchneiderState, mu: Fraction) -> int:
    """The block exponent that realizes target mu at the last pair (>= 1)."""
    n = state.n_last
    height, ell = state.height(n), state.block_sum(n)
    g = select_block_exponent(state.p, height, ell, mu)
    if g < 1:
        a, b = mu.numerator, mu.denominator
        raise ValueError(
            f"selected block exponent {g} < 1 at index {n}: target {mu} = a/b "
            "needs H**a >= p**(b*(ell + 1)), but height H = "
            f"{int_to_decimal(height)} and ledger valuation ell = {ell} give "
            f"H**{a} < {state.p}**{b * (ell + 1)}"
        )
    return g


def _mu_at(mu_seq: Sequence[Fraction] | Fraction | int | float, n: int) -> Fraction:
    if isinstance(mu_seq, (Fraction, int, float)):
        return Fraction(mu_seq)
    if not mu_seq:
        raise ValueError("empty exponent sequence")
    return Fraction(mu_seq[min(n, len(mu_seq) - 1)])


def schneider_exponent_driven(
    p: int,
    mu_seq: Sequence[Fraction] | Fraction | int | float,
    steps: int,
) -> tuple[SchneiderState, PAdicNumber]:
    """Drive the Schneider recursion so each step realizes a target exponent.

    For n >= 1 the block g_(n+1) is the largest with
    ``p**(g + block_sum(n)) <= H_n**mu_n``, which sandwiches the ledger as
    ``H_n**(-mu_n) <= p**(-ledger_valuation(n)) <= p * H_n**(-mu_n)``
    (exact integer inequalities).  The very first block is fixed at g = 1
    because the seed pair has height 1 and admits no positive selection.

    A trailing block is selected for the last pair (so its ledger valuation
    is known), then the limit is materialized at exactly that precision.
    The sequence may be a scalar (constant target) or a list whose last
    entry repeats; every used entry must be >= 2 + _EPSILON = 5/2.

    Small targets can fail to start.  For 5/2 <= mu < 3 the first driven
    block is g = 1, so the first driven pair is (p, p + 1) at index 2 with
    ledger valuation 2, and its block needs (p + 1)**a >= p**(3*b) for
    mu = a/b.  That fails for p >= 5 at mu = 5/2 and for p = 7 at
    mu = 11/4, and the constructor raises ValueError.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    state = schneider_step(schneider_initial(p), 1, None)  # bootstrap block
    for n in range(1, steps + 1):
        mu_n = _mu_at(mu_seq, n - 1)
        if mu_n < 2 + _EPSILON:
            raise ValueError(f"target exponent {mu_n} below 2 + {_EPSILON}")
        g = _next_block(state, mu_n)
        if n < steps:
            state = schneider_step(state, g, mu_n)
    state = replace(state, trailing_g=g, trailing_mu=mu_n)
    num, den = state.pair(state.n_last)
    xi = from_rational(p, num, den, state.ledger_valuation(state.n_last))
    return state, xi


def schneider_sandwich_report(state: SchneiderState) -> list[dict]:
    """Exact sandwich check ``H_n**(-mu_n) <= L_n <= p * H_n**(-mu_n)``.

    L_n = p**(-ledger_valuation(n)).  Covers every index n >= 1 whose
    driving exponent and ledger valuation are both on record.  Each row
    reports the two exact boolean comparisons.
    """
    rows = []
    mus = list(state.mus) + ([state.trailing_mu] if state.trailing_g is not None else [])
    for n in range(1, state.n_last + 1):
        if n >= len(mus) or mus[n] is None:
            continue
        mu_n = mus[n]
        a, b = mu_n.numerator, mu_n.denominator
        ell = state.ledger_valuation(n)
        h_pow = state.height(n) ** a
        lower_ok = state.p ** (ell * b) <= h_pow
        upper_ok = h_pow < state.p ** ((ell + 1) * b)
        rows.append(
            {
                "n": n,
                "mu": mu_n,
                "ledger_valuation": ell,
                "lower_ok": lower_ok,
                "upper_ok": upper_ok,
            }
        )
    return rows


def schneider_ledger_csv(state: SchneiderState, path: str | Path) -> None:
    """Write rows n, num_n, den_n, g_n, H_n, ledger valuation (if known)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "p_n", "q_n", "g_n", "H_n", "vL_n"])
        for n in range(1, state.n_last + 1):
            num, den = state.pair(n)
            try:
                ledger = str(state.ledger_valuation(n))
            except IndexError:
                ledger = ""
            writer.writerow(
                [
                    n,
                    int_to_decimal(num),
                    int_to_decimal(den),
                    state.gs[n - 1],
                    int_to_decimal(state.height(n)),
                    ledger,
                ]
            )


# ---------------------------------------------------------------------------
# digit surgery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurgerySpec:
    """Digit intervals to clear, derived from source positions.

    From each source position s the interval start is nu = floor(t*mu*s) +
    c_offset and the end is tau = floor(mu*nu).  The full ordering
    s_1 < nu_1 < tau_1 < s_2 < ... must hold so intervals are disjoint and
    interleave with the source positions.
    """

    t: Fraction
    mu: Fraction
    c_offset: int
    sigmas: tuple[int, ...]

    def __post_init__(self) -> None:
        if not Fraction(1) <= self.t <= Fraction(2):
            raise ValueError(f"t must lie in [1, 2], got {self.t}")
        if self.mu <= 2:
            raise ValueError(f"mu must exceed 2, got {self.mu}")
        if self.c_offset < 1:
            raise ValueError("offset must be >= 1")
        if not self.sigmas:
            raise ValueError("need at least one source position")
        chain = []
        for s, nu, tau in zip(self.sigmas, self.nus, self.taus):
            chain.extend((s, nu, tau))
        for i in range(len(chain) - 1):
            if chain[i] >= chain[i + 1]:
                raise ValueError(
                    f"interval ordering violated: {chain[i]} !< {chain[i + 1]}"
                )

    @property
    def nus(self) -> tuple[int, ...]:
        tm = self.t * self.mu
        return tuple(int(tm * s) + self.c_offset for s in self.sigmas)

    @property
    def taus(self) -> tuple[int, ...]:
        return tuple(int(self.mu * nu) for nu in self.nus)

    def intervals(self) -> tuple[tuple[int, int], ...]:
        """Inclusive (start, end) digit ranges that get cleared."""
        return tuple(zip(self.nus, self.taus))


@dataclass(frozen=True)
class SurgeryResult:
    xi: PAdicNumber
    corrections: tuple[int, ...]
    partials: tuple[int, ...]  # partials[j] = corrections[0] + ... + corrections[j-1]


def surgery_transform(zeta: PAdicNumber, spec: SurgerySpec) -> SurgeryResult:
    """Clear the requested digit intervals of zeta, keeping 1 at both endpoints.

    Also returns, per interval, the correction integer (the value of zeta's
    digit block on the interval minus the two endpoint ones that replace it)
    and the running partial sums of corrections, so that
    ``xi = zeta - partials[-1]`` as residues.
    """
    if spec.taus[-1] >= zeta.precision:
        raise ValueError(
            f"last interval end {spec.taus[-1]} >= precision {zeta.precision}"
        )
    p = zeta.p
    corrections = []
    for nu, tau in spec.intervals():
        block = zeta.value // p**nu % p ** (tau - nu + 1) * p**nu
        corrections.append(block - p**nu - p**tau)
    partials = [0]
    for u in corrections:
        partials.append(partials[-1] + u)
    return SurgeryResult(
        xi=from_value(p, zeta.value - partials[-1], zeta.precision),
        corrections=tuple(corrections),
        partials=tuple(partials),
    )


def surgery_pairs(
    xi: PAdicNumber,
    source_pairs: Sequence[ApproxPair | tuple[int, int]],
    partials: Sequence[int],
) -> list[ApproxPair]:
    """Transplant approximations of the source number onto the edited one.

    Pair j (1-based) maps (x0, x1) to (x0 - partials[j-1] * x1, x1); its
    valuation against xi is recomputed from scratch.  Requires one partial
    sum per source pair (partials[0] = 0 for the first).
    """
    if len(source_pairs) > len(partials):
        raise ValueError(
            f"{len(source_pairs)} pairs need {len(source_pairs)} partial sums, "
            f"got {len(partials)}"
        )
    out = []
    for j, pair in enumerate(source_pairs):
        x0, x1 = (pair.x, pair.y) if isinstance(pair, ApproxPair) else pair
        out.append(make_pair(xi, x0 - partials[j] * x1, x1))
    return out


# ---------------------------------------------------------------------------
# end-to-end surgery witness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioWitness:
    """A surgery-built number with its measured approximants.

    ``truncation_pairs[j]`` is the integer approximant that keeps digits up
    to the j-th interval start (paired with denominator 1); ``spike_pairs``
    are the transplanted source approximations.  Target pointwise exponents
    are mu for the former and t*mu for the latter.
    """

    p: int
    t: Fraction
    mu: Fraction
    spec: SurgerySpec
    state: SchneiderState
    zeta: PAdicNumber
    xi: PAdicNumber
    source_pairs: tuple[ApproxPair, ...]
    spike_pairs: tuple[ApproxPair, ...]
    truncation_pairs: tuple[ApproxPair, ...]
    corrections: tuple[int, ...]


def build_ratio_witness(
    p: int,
    t: Fraction,
    mu: Fraction,
    *,
    sigma1_target: int = 9,
    gap_multiplier: int = 10,
    num_spikes: int = 2,
) -> RatioWitness:
    """Build the digit-surgery witness for the exponent pair (t*mu, 2*mu).

    The source number comes from the exponent-driven Schneider recursion
    with filler target 2 + _EPSILON and isolated spikes at target t*mu; the
    spike convergents are the source approximations.  Each source position
    is the floor base-p log of the spike convergent's height, spikes are
    spaced so each interval ends well before the next source position, and
    the offset constant is fixed large enough that every interval starts
    strictly above the valuation of its source approximation (which keeps
    the transplanted valuations equal to the source ones).
    """
    t = Fraction(t)
    mu = Fraction(mu)
    if num_spikes < 1:
        raise ValueError("need at least one spike")
    tilde = t * mu
    filler = 2 + _EPSILON
    if tilde < filler:
        raise ValueError(f"spike target {tilde} below 2 + {_EPSILON}")
    c_offset = -(-tilde.numerator // tilde.denominator) + 1 + _C_MARGIN  # ceil(t*mu)+1+3

    state = schneider_step(schneider_initial(p), 1, None)
    spike_indices: list[int] = []
    sigmas: list[int] = []
    target = sigma1_target
    while len(spike_indices) < num_spikes:
        n = state.n_last
        log_h = ilog(state.height(n), p)
        if log_h >= target:
            state = schneider_step(state, _next_block(state, tilde), tilde)
            spike_indices.append(n)
            sigmas.append(log_h)
            nu = int(tilde * log_h) + c_offset
            tau = int(mu * nu)
            target = gap_multiplier * tau + 20
        else:
            state = schneider_step(state, _next_block(state, filler), filler)
        if state.block_sum(state.n_last) > _WITNESS_MAX_DIGITS:
            raise ValueError("digit cap exceeded while placing spikes")

    spec = SurgerySpec(t=t, mu=mu, c_offset=c_offset, sigmas=tuple(sigmas))
    needed = spec.taus[-1] + 2
    while state.block_sum(state.n_last) < needed:
        state = schneider_step(state, _next_block(state, filler), filler)
        if state.block_sum(state.n_last) > _WITNESS_MAX_DIGITS:
            raise ValueError("digit cap exceeded while extending the source")

    num, den = state.pair(state.n_last)
    precision = state.block_sum(state.n_last)
    zeta = from_rational(p, num, den, precision)

    result = surgery_transform(zeta, spec)
    xi = result.xi
    source_pairs = tuple(make_pair(zeta, *state.pair(n)) for n in spike_indices)
    spike_pairs = tuple(surgery_pairs(xi, source_pairs, result.partials))
    truncation_pairs = tuple(
        make_pair(xi, residue(xi, nu + 1), 1) for nu in spec.nus
    )
    return RatioWitness(
        p=p,
        t=t,
        mu=mu,
        spec=spec,
        state=state,
        zeta=zeta,
        xi=xi,
        source_pairs=source_pairs,
        spike_pairs=spike_pairs,
        truncation_pairs=truncation_pairs,
        corrections=result.corrections,
    )
