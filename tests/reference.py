"""Former kernels, kept as independent references for the fast ones.

Each function is the implementation the package used before its current
algorithm: the candidate-set continued-fraction walk for per-level
minimisers, the chunked valuation loop and the list scan for the product
chain's required valuation.  The independence check is a plain all-pairs
scan.  Tests require the package to agree with them exactly.
"""

from __future__ import annotations

import math
from typing import Sequence

from padiclab import ApproxPair, CheckResult, ilog


def best_pair(p: int, modulus: int, r: int, norm: str) -> tuple[int, int]:
    """Metric-minimal pair (x, y), p not dividing y, x = y*r (mod modulus).

    Candidates come from the continued-fraction walk on the basis
    ``(modulus, 0), (r, 1)``: every front pair plus the band indices
    ``{1, 2, q-1, q}`` and, for the sup norm, the crossover index +-3.
    Ties are broken by smaller |x|, then positive x, then smaller |y|; the
    returned pair is normalised to y > 0.
    """
    mult = norm == "mult"
    if r == 0:
        return modulus, 1

    best_key: tuple[int, int, int, int] | None = None
    best_xy: tuple[int, int] | None = None

    def consider(x: int, y: int) -> None:
        nonlocal best_key, best_xy
        if x == 0 or y == 0:
            return
        if y < 0:
            x, y = -x, -y
        if y % p == 0:
            return
        metric = abs(x) * y if mult else max(abs(x), y)
        key = (metric, abs(x), 0 if x > 0 else 1, y)
        if best_key is None or key < best_key:
            best_key = key
            best_xy = (x, y)

    ax, ay = modulus, 0
    bx, by = r, 1
    while bx:
        consider(bx, by)
        if best_key is not None and abs(by) > best_key[0]:
            break
        q = ax // bx
        js = {1, 2, q - 1, q}
        if not mult:
            crossover = (ax - abs(ay)) // (bx + abs(by))
            js.update(range(crossover - 3, crossover + 4))
        for j in js:
            if 1 <= j <= q:
                consider(ax - j * bx, ay - j * by)
        ax, ay, bx, by = bx, by, ax - q * bx, ay - q * by

    if best_xy is None:
        raise AssertionError("front walk produced no candidate")
    return best_xy


def pval(n: int, p: int) -> int:
    """p-adic valuation by stripping p^64 chunks, then single factors."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    n = abs(n)
    v = 0
    chunk = p**64
    while n % chunk == 0:
        n //= chunk
        v += 64
    while n % p == 0:
        n //= p
        v += 1
    return v


def mult_required_valuation(
    p: int, accepted: list[tuple[int, int]], product: int
) -> int:
    """Maximum of v_i + floor(log_{p^2}(product / P_i)) over every entry."""
    required = ilog(product, p * p)
    for prev_product, prev_val in accepted:
        if prev_product <= product:
            required = max(
                required, prev_val + ilog(product // prev_product, p * p)
            )
    return required


def check_padicle(pairs: Sequence[ApproxPair], p: int) -> CheckResult:
    """Pair-independence check comparing every pair, in (i, j) order."""
    if len(pairs) < 2:
        return CheckResult(
            "pair_independence", None, None, {}, "fewer than two pairs"
        )
    ordered = sorted(pairs, key=lambda pr: (pr.height_sup, pr.val.value))
    log_p = math.log(p)
    worst: float | None = None
    worst_at: tuple[int, int] | None = None
    passed = True
    for i in range(len(ordered) - 1):
        for j in range(i + 1, len(ordered)):
            a, b = ordered[i], ordered[j]
            if a.x * b.y == b.x * a.y:
                continue
            min_val = min(a.val.value, b.val.value)
            boxed = 2 * a.height_sup * b.height_sup
            if boxed < p**min_val:
                passed = False
            slack = math.log(boxed) / log_p - min_val
            if worst is None or slack < worst:
                worst = slack
                worst_at = (i, j)
    inputs: dict = {"pairs": len(ordered)}
    if worst_at is not None:
        inputs["tightest"] = worst_at
    return CheckResult("pair_independence", passed, worst, inputs)
