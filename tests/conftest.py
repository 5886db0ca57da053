"""Shared fixtures: deterministic numbers and precomputed chains."""

from __future__ import annotations

import random

import pytest

from padiclab import (
    LacunarySpec,
    NORM_MULT,
    NORM_SUP,
    build_factorial,
    build_lacunary,
    chain,
    from_digits,
    lacunary_pow_exponents,
)


def seeded_xi(p: int, precision: int, seed: int):
    """A reproducible pseudo-random p-adic integer with a nonzero digit."""
    rng = random.Random(seed)
    digits = [rng.randrange(p) for _ in range(precision)]
    if all(d == 0 for d in digits):
        digits[0] = 1
    return from_digits(p, digits)


# Exact (x, y, valuation) rows that are no sup staircase: sup heights
# 1, 1, 1, 3, 5 (a zero log height), and heights 3, 5, 4, 7, 9, 11 with
# valuations 1, 2, 2, 4, 3, 6.
NON_STAIRCASES = {
    "flat": ((1, 1, 1), (1, 1, 2), (1, 1, 3), (3, 1, 4), (5, 1, 5)),
    "zigzag": ((3, 1, 1), (5, 1, 2), (4, 1, 2), (7, 1, 4), (9, 1, 3), (11, 1, 6)),
}


def write_chain_csv(path, rows) -> None:
    """Write exact (x, y, valuation) rows in the chain CSV layout."""
    lines = ["k,x,y,valuation,valuation_exact,height_sup,height_mult_sq"]
    lines += [
        f"{k},{x},{y},{v},true,{max(abs(x), y)},{abs(x) * y}"
        for k, (x, y, v) in enumerate(rows)
    ]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="session")
def lacunary_xi():
    return build_lacunary(LacunarySpec(2, lacunary_pow_exponents(3, 9)))


@pytest.fixture(scope="session")
def lacunary_chain_sup(lacunary_xi):
    return chain(lacunary_xi, NORM_SUP)


@pytest.fixture(scope="session")
def lacunary_chain_mult(lacunary_xi):
    return chain(lacunary_xi, NORM_MULT)


@pytest.fixture(scope="session")
def factorial_xi():
    return build_factorial(2, 7)


@pytest.fixture(scope="session")
def factorial_chain_mult(factorial_xi):
    return chain(factorial_xi, NORM_MULT)
