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
import math
import random
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
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
    mod_power,
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


def _ones_at(p: int, positions: Sequence[int]) -> PAdicNumber:
    """The number with digit 1 exactly at the increasing positions."""
    precision = positions[-1] + 1
    if precision > _MAX_DIGITS:
        raise ValueError(f"precision {precision} exceeds digit cap {_MAX_DIGITS}")
    return from_value(p, sum(p**pos for pos in positions), precision)


def build_lacunary(spec: LacunarySpec) -> PAdicNumber:
    """The number with digit 1 exactly at the requested exponent positions."""
    return _ones_at(spec.p, spec.exponents)


def lacunary_pow_exponents(d: float, terms: int) -> tuple[int, ...]:
    """Exponents a_k ~ round(d**k) with a_0 = 0, forced strictly increasing."""
    if terms < 2:
        raise ValueError("need at least 2 terms")
    if not 1 < d < float("inf"):
        raise ValueError(f"growth factor must exceed 1 and be finite, got {d}")
    out = [0, max(1, round(d))]
    try:
        for k in range(2, terms):
            out.append(max(out[-1] + 1, round(d**k)))
    except OverflowError as exc:
        raise ValueError(f"growth factor {d} overflows at {terms} terms") from exc
    return tuple(out[:terms])


def build_factorial(p: int, terms: int) -> PAdicNumber:
    """The number with digit 1 exactly at positions 1!, 2!, ..., terms!."""
    if terms < 2:
        raise ValueError("need at least 2 terms")
    return _ones_at(p, [math.factorial(j) for j in range(1, terms + 1)])


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
    if precision > _MAX_DIGITS:
        raise ValueError(f"precision {precision} exceeds digit cap {_MAX_DIGITS}")
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
    the target exponent that drove its selection (None for a bootstrap
    block).  ``trailing_g`` is the next block exponent, selected but not
    yet applied; it pins down the ledger valuation of the last pair.
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

    @property
    def _blocks(self) -> tuple[tuple[int, Fraction | None], ...]:
        """(g, mu) of every block, the selected trailing block last."""
        blocks = tuple(zip(self.gs, self.mus))
        if self.trailing_g is None:
            return blocks
        return blocks + ((self.trailing_g, self.trailing_mu),)

    def block_sum(self, k: int) -> int:
        """g_1 + ... + g_k (the valuation gained by the first k blocks)."""
        blocks = self._blocks
        if not 0 <= k <= len(blocks):
            raise IndexError(f"block sum {k} not available")
        return sum(g for g, _ in blocks[:k])

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
    )


def select_block_exponent(p: int, height: int, ell: int, mu: Fraction) -> int:
    """Largest g with p**(g+ell) <= height**mu, decided exactly.

    With mu = a/b the condition reads p**((g+ell)*b) <= height**a, so
    g + ell = floor(j/b) for the one integer log j = ilog(height, p, a);
    neither height**a nor a power of p**b is formed.  ``tests/reference.py``
    keeps the search over explicit powers as the independent check.
    """
    if height < 2:
        raise ValueError("height must be >= 2 to select a block exponent")
    return ilog(height, p, mu.numerator) // mu.denominator - ell


def _next_block(state: SchneiderState, mu: Fraction) -> tuple[int, Fraction | None]:
    """The block (g, mu) that realizes target mu at the last pair, or the
    bootstrap block (1, None) where no g >= 1 does (a pair too small for mu).
    """
    n = state.n_last
    if state.height(n) >= 2:
        g = select_block_exponent(state.p, state.height(n), state.block_sum(n), mu)
        if g >= 1:
            return g, mu
    return 1, None


def _mu_at(mu_seq: Sequence[Fraction] | Fraction | int, n: int) -> Fraction:
    """Target n (the last entry repeats); floats are refused as inexact."""
    if isinstance(mu_seq, Sequence):
        if not mu_seq:
            raise ValueError("empty exponent sequence")
        mu_seq = mu_seq[min(n, len(mu_seq) - 1)]
    if not isinstance(mu_seq, (Fraction, int)):
        raise ValueError(f"target exponent {mu_seq!r} is not a Fraction or an int")
    return Fraction(mu_seq)


def schneider_exponent_driven(
    p: int,
    mu_seq: Sequence[Fraction] | Fraction | int,
    steps: int,
) -> tuple[SchneiderState, PAdicNumber]:
    """Drive the Schneider recursion so each driven block realizes a target.

    Driven block k takes target mu_k at the last pair n: g_(n+1) is the
    largest g with ``p**(g + block_sum(n)) <= H_n**mu_k``, which sandwiches
    the ledger as ``H_n**(-mu_k) <= p**(-ledger_valuation(n)) <=
    p * H_n**(-mu_k)`` (exact integer inequalities).  Where g < 1 (at the
    seed pair, and at pair 2 for p >= 5 at mu = 5/2) the pair gets the
    bootstrap block g = 1 with target None, and mu_k is retried at the next
    pair; a limsup exponent ignores finitely many blocks.  Bootstraps
    consume no target, so the sandwich report has ``steps`` rows.

    The retry ends: with D_n = mu*log_p H_n - block_sum(n), pair n gets the
    bootstrap iff D_n < 1.  As H_(n+2) >= p*H_n, bootstraps at n and n + 1
    give D_(n+2) >= D_n + mu - 2 >= D_n + 1/2, so a run from pair n lasts at
    most 2*ceil(2*(1 - D_n)) pairs (4 from the seed, where D_0 = 0).

    Each selection reads one integer log, ``ilog(H_n, p, a)`` for
    mu_k = a/b, so no power of a height is formed.  The last driven block
    stays the trailing block of the last pair (fixing its ledger
    valuation), and the limit is materialized at exactly that precision; a
    selection past the digit cap raises at once.  ``mu_seq`` is one target
    or a list whose last entry repeats; each target used is a Fraction or
    an int (floats are refused) of at least 2 + _EPSILON = 5/2.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    state, driven = schneider_initial(p), 0
    while True:
        mu_k = _mu_at(mu_seq, driven)
        if mu_k < 2 + _EPSILON:
            raise ValueError(f"target exponent {mu_k} below 2 + {_EPSILON}")
        g, mu = _next_block(state, mu_k)
        precision = sum(state.gs) + g
        if precision > _MAX_DIGITS:
            raise ValueError(f"precision {precision} exceeds digit cap {_MAX_DIGITS}")
        driven += mu is not None
        if driven == steps:
            break
        state = schneider_step(state, g, mu)
    state = replace(state, trailing_g=g, trailing_mu=mu)
    return state, from_rational(p, *state.pair(state.n_last), precision)


def schneider_sandwich_report(state: SchneiderState) -> list[dict]:
    """Exact sandwich check ``H_n**(-mu_n) <= L_n <= p * H_n**(-mu_n)``.

    L_n = p**(-ledger_valuation(n)).  Covers every index n >= 1 whose
    driving exponent and ledger valuation are both on record.  With
    mu_n = a/b the sandwich reads p**(b*ell) <= H_n**a < p**(b*(ell+1)),
    so each row reads the one integer log j = ilog(H_n, p, a) and reports
    the two exact comparisons b*ell <= j and j < b*(ell+1).  The benchmark's
    ``padicbench/checks.py`` recomputes the rows with explicit powers.
    """
    rows = []
    for n, (_, mu_n) in enumerate(state._blocks[1:], start=1):
        if mu_n is None:
            continue
        b = mu_n.denominator
        ell = state.ledger_valuation(n)
        j = ilog(state.height(n), state.p, mu_n.numerator)
        rows.append(
            {
                "n": n,
                "mu": mu_n,
                "ledger_valuation": ell,
                "lower_ok": b * ell <= j,
                "upper_ok": j < b * (ell + 1),
            }
        )
    return rows


def schneider_ledger_csv(state: SchneiderState, path: str | Path) -> None:
    """Write rows n, num_n, den_n, g_n, H_n, ledger valuation (if known)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "p_n", "q_n", "g_n", "H_n", "vL_n"])
        known = len(state._blocks)  # ledger valuations of pairs n < known
        for n in range(1, state.n_last + 1):
            num, den = state.pair(n)
            ledger = str(state.ledger_valuation(n)) if n < known else ""
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


def surgery_transform(
    zeta: PAdicNumber, spec: SurgerySpec
) -> tuple[PAdicNumber, tuple[int, ...]]:
    """Clear the requested digit intervals of zeta, keeping 1 at both endpoints.

    Returns the edited number xi and, per interval, the correction integer
    (the value of zeta's digit block on the interval minus the two endpoint
    ones that replace it), so that ``xi = zeta - sum(corrections)`` as
    residues.
    """
    if spec.taus[-1] >= zeta.precision:
        raise ValueError(
            f"last interval end {spec.taus[-1]} >= precision {zeta.precision}"
        )
    p = zeta.p
    corrections = []
    for nu, tau in spec.intervals():
        block = mod_power(zeta.value, p, tau + 1) - mod_power(zeta.value, p, nu)
        corrections.append(block - p**nu - p**tau)
    xi = from_value(p, zeta.value - sum(corrections), zeta.precision)
    return xi, tuple(corrections)


# ---------------------------------------------------------------------------
# end-to-end surgery witness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioWitness:
    """A surgery-built number with its measured approximants.

    ``truncation_pairs[j]`` is the integer approximant that keeps digits up
    to the j-th interval start (paired with denominator 1); ``spike_pairs``
    are the transplanted source approximations.  Target pointwise exponents
    are mu for the former and t*mu for the latter.  Truncation pairs have
    y = 1, so their product exponent is twice their classical one (about
    2*mu); spike pairs are balanced, about t*mu in both norms.  So the
    designed pairs imply (mu, mu^x) = (t*mu, 2*mu), a ratio of 2/t that
    covers the paper's [1, 2] as t does.  ``estimate`` reads 2.00 at every t.
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
    spike convergents (a spike meeting a bootstrap block is retried at the
    next pair) are the source approximations.  Each source position is the
    floor base-p log of the spike convergent's height, spikes are spaced so
    each interval ends well before the next source position, and the offset
    constant is fixed large enough that every interval starts strictly
    above the valuation of its source approximation (which keeps the
    transplanted valuations equal to the source ones).

    Source pair j (0-based) moves to x - (c_0 + ... + c_(j-1))*y.  For
    j >= 1 that shift, about p**tau_(j-1), multiplies the product height of
    a pair of height about p**sigma_j by about p**tau_(j-1), so its product
    exponent falls from about t*mu by the factor 2*sigma_j / (2*sigma_j +
    tau_(j-1)) >= 2g / (2g + 1), as sigma_j >= g*tau_(j-1) for g =
    ``gap_multiplier``: 10/11 at g = 5, but 8/9 at g = 4, outside a 10% window.
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

    # Filler blocks until each spike's height is reached, then until the
    # source covers two digits past the last interval end.
    state = schneider_initial(p)
    spike_indices: list[int] = []
    sigmas: list[int] = []
    target, needed, precision = sigma1_target, 0, 0
    while len(sigmas) < num_spikes or precision < needed:
        n = state.n_last
        spike = len(sigmas) < num_spikes and (log_h := ilog(state.height(n), p)) >= target
        g, block_mu = _next_block(state, tilde if spike else filler)
        state = schneider_step(state, g, block_mu)
        if spike and block_mu is not None:
            spike_indices.append(n)
            sigmas.append(log_h)
            spec = SurgerySpec(t=t, mu=mu, c_offset=c_offset, sigmas=tuple(sigmas))
            tau = spec.taus[-1]
            target, needed = gap_multiplier * tau + 20, tau + 2
        precision = state.block_sum(state.n_last)
        if precision > _WITNESS_MAX_DIGITS:
            raise ValueError(
                f"precision {precision} exceeds digit cap {_WITNESS_MAX_DIGITS}"
            )

    zeta = from_rational(p, *state.pair(state.n_last), precision)
    xi, corrections = surgery_transform(zeta, spec)
    source_pairs = tuple(make_pair(zeta, *state.pair(n)) for n in spike_indices)
    spike_pairs = tuple(
        make_pair(xi, pair.x - shift * pair.y, pair.y)
        for pair, shift in zip(source_pairs, accumulate(corrections, initial=0))
    )
    truncation_pairs = tuple(make_pair(xi, residue(xi, nu + 1), 1) for nu in spec.nus)
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
        corrections=corrections,
    )
