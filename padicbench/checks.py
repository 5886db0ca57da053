"""Independent checks of padiclab's outputs.

Nothing here imports padiclab.  Digit files, chain CSVs, report JSON and
sweep CSVs are parsed directly, and every number is recomputed with this
module's own base-p arithmetic: a bottom-up pairwise digit conversion and a
squaring-ladder valuation, where padiclab uses top-down recursion and chunk
stripping.  Each check raises ``CheckFailed`` with the first violation it
finds and returns a short summary otherwise.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction

GOLDEN = (5 + math.sqrt(5)) / 2
TOL = 0.05  # the CLI's default verify tolerance


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# base-p arithmetic
# ---------------------------------------------------------------------------


def value_of_digits(digits: list[int], p: int) -> int:
    """Integer with little-endian base-p digits, by pairwise combination."""
    if not digits:
        return 0
    values = list(digits)
    scale = p
    while len(values) > 1:
        if len(values) % 2:
            values.append(0)
        values = [lo + hi * scale for lo, hi in zip(values[::2], values[1::2])]
        scale *= scale
    return values[0]


def valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer, by a squaring ladder."""
    require(n != 0, "valuation of zero")
    n = abs(n)
    if p == 2:
        return (n & -n).bit_length() - 1
    ladder = [p]
    while n % ladder[-1] == 0:
        ladder.append(ladder[-1] * ladder[-1])
    v = 0
    for j in range(len(ladder) - 2, -1, -1):
        if n % ladder[j] == 0:
            n //= ladder[j]
            v += 1 << j
    return v


# ---------------------------------------------------------------------------
# artifact readers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Digits:
    p: int
    digits: list[int]

    @property
    def precision(self) -> int:
        return len(self.digits)


def read_digits(path: str) -> Digits:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    p, digits = payload["p"], payload["digits"]
    require(payload["precision"] == len(digits), f"{path}: precision mismatch")
    require(all(0 <= d < p for d in digits), f"{path}: digit out of range")
    return Digits(p, digits)


@dataclass(frozen=True)
class Entry:
    x: int
    y: int
    val: int
    exact: bool


def read_chain(path: str) -> list[Entry]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    require(rows[0][:5] == ["k", "x", "y", "valuation", "valuation_exact"],
            f"{path}: unexpected header {rows[0]}")
    entries = []
    for k, row in enumerate(rows[1:]):
        require(int(row[0]) == k, f"{path}: row {k} out of order")
        x, y, val = int(row[1]), int(row[2]), int(row[3])
        require(int(row[5]) == max(abs(x), y), f"{path}: row {k} sup height")
        require(int(row[6]) == abs(x) * y, f"{path}: row {k} product height")
        entries.append(Entry(x, y, val, row[4] == "true"))
    return entries


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def entry_tuple(pair) -> Entry:
    """The same record from an in-memory padiclab pair (duck-typed)."""
    return Entry(pair.x, pair.y, pair.val.value, pair.val.is_exact)


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def metric(entry: Entry, norm: str) -> int:
    return abs(entry.x) * entry.y if norm == "mult" else max(abs(entry.x), entry.y)


def check_chain(entries: list[Entry], xi: Digits, norm: str) -> str:
    """Every entry's valuation recomputed from the digits, plus the staircase.

    Entries are coprime with y > 0 and p not dividing y, so y*xi - x is
    known modulo p^N and an exact valuation is the p-adic order of that
    residue.  Heights (in the chain's norm) and valuations strictly increase.
    """
    p, n = xi.p, xi.precision
    value = value_of_digits(xi.digits, p)
    modulus = p**n
    require(bool(entries), f"{norm} chain is empty")
    for k, e in enumerate(entries):
        require(e.x != 0 and e.y > 0, f"entry {k}: degenerate pair")
        require(math.gcd(e.x, e.y) == 1, f"entry {k}: gcd(x, y) != 1")
        require(e.y % p != 0, f"entry {k}: p divides y")
        require(e.exact, f"entry {k}: censored valuation inside the chain")
        residue = (e.y * value - e.x) % modulus
        require(residue != 0, f"entry {k}: residue vanishes to precision {n}")
        require(valuation(residue, p) == e.val,
                f"entry {k}: valuation {e.val} != {valuation(residue, p)}")
        if k:
            prev = entries[k - 1]
            require(metric(e, norm) > metric(prev, norm),
                    f"entry {k}: height does not increase")
            require(e.val > prev.val, f"entry {k}: valuation does not increase")
    return f"{norm}:{len(entries)}"


def check_prefix(fast: list[Entry], oracle: list[Entry], norm: str, bound: int) -> str:
    """The fast chain below ``bound`` equals the oracle chain entry for entry."""
    below = [e for e in fast if metric(e, norm) <= bound]
    require(below == oracle,
            f"{norm} chain below {bound} differs from the oracle "
            f"({len(below)} vs {len(oracle)} entries)")
    require(bool(oracle), f"{norm} oracle below {bound} is empty")
    return f"{norm}<= {bound}:{len(oracle)}"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def check_report(report: dict, *, classical: bool) -> str:
    """The paper's inequalities on a report, within the CLI's tolerance.

    Always: hat_mu_times <= (5+sqrt 5)/2, hat_mu_times <= 4 and
    mu_times >= hat_mu_times^2 - 3 hat_mu_times + 3.  With a classical
    chain as well: mu >= 2 and mu <= mu_times <= 2 mu.
    """
    mu_x, hat_x = report["mu_times"], report["hat_mu_times"]
    require(mu_x is not None and hat_x is not None, "report lacks mult estimates")
    require(hat_x <= GOLDEN + TOL, f"hat_mu_times {hat_x} above (5+sqrt5)/2")
    require(hat_x <= 4 + TOL, f"hat_mu_times {hat_x} above 4")
    require(mu_x >= hat_x * hat_x - 3 * hat_x + 3 - TOL,
            f"mu_times {mu_x} below hat^2 - 3 hat + 3")
    if mu_x > 2:
        require(hat_x <= 3 + 2 / (mu_x - 2) + TOL,
                f"hat_mu_times {hat_x} above 3 + 2/(mu_times - 2)")
    if classical:
        mu = report["mu"]
        require(mu is not None, "report lacks mu")
        require(mu >= 2 - TOL, f"mu {mu} below 2")
        require(mu - TOL <= mu_x <= 2 * mu + TOL,
                f"mu_times {mu_x} outside [mu, 2 mu] for mu {mu}")
    return f"mu={report['mu']} mu_times={mu_x:.4f} hat_mu_times={hat_x:.4f}"


def within(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * target


def check_lacunary(report: dict, d: float) -> str:
    """mu and mu_times within 5% of d and 2d; the sandwich for c = d."""
    mu, mu_x, hat_x = report["mu"], report["mu_times"], report["hat_mu_times"]
    require(within(mu, d, 0.05), f"lacunary mu {mu} not within 5% of {d}")
    require(within(mu_x, 2 * d, 0.05), f"lacunary mu_times {mu_x} not within 5% of {2 * d}")
    lower, upper = 3 - 1 / d, 3 + 1 / (d - 1)
    require(lower - TOL <= hat_x <= upper + TOL,
            f"hat_mu_times {hat_x} outside the sandwich [{lower}, {upper}]")
    return f"d={d} mu={mu:.4f} mu_times={mu_x:.4f}"


def check_sweep(path: str) -> str:
    """Each row's predicted columns are (d, 2d) and the estimates match them."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    require(bool(rows), "sweep wrote no rows")
    for row in rows:
        d = float(row["d"])
        require(float(row["predicted_mu"]) == d, f"row d={d}: predicted_mu")
        require(float(row["predicted_mu_times"]) == 2 * d, f"row d={d}: predicted_mu_times")
        require(within(float(row["mu_est"]), d, 0.05), f"row d={d}: mu_est")
        require(within(float(row["mu_times_est"]), 2 * d, 0.05), f"row d={d}: mu_times_est")
    return f"{len(rows)} rows"


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def check_schneider(pairs, gs, mus, trailing_g, trailing_mu, rows, xi: Digits) -> str:
    """Recompute the Schneider recursion and every sandwich row in integers.

    ``pairs`` holds (num, den) from n = -1; block g_(n+1) produced pair n+1.
    Row n states H_n^(-mu_n) <= p^(-L_n) <= p * H_n^(-mu_n) with L_n the sum
    of the first n+1 blocks, i.e. p^(L_n b) <= H_n^a < p^((L_n + 1) b) for
    mu_n = a/b.  The limit digits satisfy den * xi = num (mod p^N) for the
    last pair, N = its ledger valuation.
    """
    p = xi.p
    blocks = list(gs) + [trailing_g]
    targets = list(mus) + [trailing_mu]
    require(tuple(pairs[:2]) == ((1, 0), (0, 1)), "Schneider seed pairs")
    for i, g in enumerate(gs):
        (pm1, qm1), (pn, qn) = pairs[i], pairs[i + 1]
        require(pairs[i + 2] == (pn + p**g * pm1, qn + p**g * qm1),
                f"Schneider pair {i + 1} breaks the recursion")
    n_last = len(pairs) - 2
    by_n = {row["n"]: row for row in rows}
    for n in range(1, n_last + 1):
        mu = Fraction(targets[n])
        num, den = pairs[n + 1]
        require(math.gcd(num, den) == 1, f"Schneider pair {n} not coprime")
        ledger = sum(blocks[: n + 1])
        h_pow = max(abs(num), abs(den)) ** mu.numerator
        inside = p ** (ledger * mu.denominator) <= h_pow < p ** ((ledger + 1) * mu.denominator)
        require(inside, f"Schneider row {n} outside its sandwich")
        row = by_n.get(n)
        require(row is not None and row["ledger_valuation"] == ledger
                and row["lower_ok"] and row["upper_ok"],
                f"Schneider row {n} disagrees with the recomputation")
    num, den = pairs[-1]
    precision = sum(blocks)
    require(xi.precision == precision, "Schneider precision != last ledger valuation")
    value = value_of_digits(xi.digits, p)
    require((den * value - num) % p**precision == 0, "den * xi != num mod p^N")
    return f"{len(rows)} rows, {precision} digits"


def check_surgery(zeta: Digits, xi: Digits, intervals, corrections,
                  truncation_pairs, spike_pairs, mu: Fraction, t: Fraction) -> str:
    """Digit surgery: congruence, cleared intervals and pointwise exponents.

    xi = zeta - sum(corrections) (mod p^N); inside every interval the digits
    are zero with ones at both ends, and outside them xi keeps zeta's
    digits; truncation pairs reach classical exponent within 10% of mu and
    transplanted pairs reach multiplicative exponent within 10% of t*mu,
    with valuations recomputed here.
    """
    p, n = xi.p, xi.precision
    require(zeta.precision == n and zeta.p == p, "surgery changed p or precision")
    modulus = p**n
    xi_value = value_of_digits(xi.digits, p)
    zeta_value = value_of_digits(zeta.digits, p)
    require((zeta_value - sum(corrections) - xi_value) % modulus == 0,
            "xi != zeta - sum(corrections) mod p^N")
    cleared = set()
    for start, end in intervals:
        require(xi.digits[start] == 1 and xi.digits[end] == 1,
                f"interval [{start}, {end}] lacks its end ones")
        require(not any(xi.digits[start + 1:end]),
                f"interval [{start}, {end}] has an uncleared digit")
        cleared.update(range(start, end + 1))
    require(all(xi.digits[i] == zeta.digits[i] for i in range(n) if i not in cleared),
            "surgery changed a digit outside its intervals")
    log_p = math.log(p)
    exponents = []
    for pair, target, mult in (
        [(pr, float(mu), False) for pr in truncation_pairs]
        + [(pr, float(t * mu), True) for pr in spike_pairs]
    ):
        x, y = pair
        v = valuation((y * xi_value - x) % modulus, p)
        size = math.log(abs(x) * y) / 2 if mult else math.log(max(abs(x), y))
        exponent = v * log_p / size
        require(within(exponent, target, 0.10),
                f"surgery exponent {exponent:.4f} not within 10% of {target}")
        exponents.append(round(exponent, 4))
    return f"exponents {exponents}"
