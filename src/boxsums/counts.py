"""Exact counting of product-congruence solution pairs over shifted intervals.

Counts pairs of tuples (x, y) with equal, nonzero shifted products
(or shifted-power monomials) mod p, via a single-pass frequency table
and sum of squares, plus a character-average identity cross-check.
Every count takes its powers from one call of `modular.box_powers` per box,
the kernel the sums read too, which reduces k mod p and reads x^e from the
context's index and power tables; a `modular.Box` owns the box's shape checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bounds
from .errors import RoundingUnstableError, TooLargeError
from .modular import (
    Box,
    ExponentVector,
    PrimeContext,
    box_powers,
    build_context,
    is_prime,
    monomial_values,
)


@dataclass
class CountResult:
    """Exact nonnegative solution count with its method tag."""

    value: int
    method: str


def _pair_count(powers: Sequence[np.ndarray], p: int) -> CountResult:
    """Tuple pairs with equal power products: the exact sum of squared frequencies."""
    # Sum c^2 <= (sum c)^2 = tuples^2 < 2^63 keeps the int64 sum of squares exact.
    if (tuples := math.prod(len(pv) for pv in powers)) > math.isqrt(2**63 - 1):
        raise TooLargeError(f"{tuples} tuples overflow the int64 pair count")
    m = np.bincount(monomial_values(powers, p), minlength=p)
    return CountResult(value=int(m @ m), method="brute")


def count_product_pairs_brute(ctx: PrimeContext, nu: int, h: int, k: int) -> CountResult:
    """Pairs of nu-tuples from [1,h] with equal nonzero shifted products:
    prod (x_j+k) = prod (y_j+k) != 0 mod p. Exact, O(nu * h^nu)."""
    if nu < 1:
        raise ValueError(f"tuple length nu must be >= 1, got {nu}")
    return _pair_count([box_powers(ctx, Box((k,), h), (1,))[0][0]] * nu, ctx.p)


def count_product_pairs_spectral(ctx: PrimeContext, nu: int, h: int, k: int) -> CountResult:
    """Same count via the character average
    (1/(p-1)) * sum_chi |sum_{x=1}^{h} chi(x+k)|^{2 nu}, rounded."""
    if nu < 1:
        raise ValueError(f"tuple length nu must be >= 1, got {nu}")
    p = ctx.p
    # Interval indicator in the index (discrete-log) domain; the per-character
    # sums are then one inverse DFT of length p-1.
    cnt = np.bincount(ctx.index[box_powers(ctx, Box((k,), h), (1,))[0][0]], minlength=p - 1)
    per_char = (p - 1) * np.fft.ifft(cnt)
    raw = float((np.abs(per_char) ** (2 * nu)).sum() / (p - 1))
    rounded = round(raw)
    if abs(raw - rounded) >= 0.4:
        raise RoundingUnstableError(f"residual {abs(raw - rounded):.3f} for p={p}, nu={nu}, h={h}, k={k}")
    return CountResult(value=int(rounded), method="spectral")


def count_monomial_pairs_brute(ctx: PrimeContext, e: ExponentVector, box: Box) -> CountResult:
    """Pairs of tuples over the box with equal nonzero values of
    prod (x_j+k_j)^{e_j} mod p. Exact, via frequency table."""
    return _pair_count(box_powers(ctx, box, e.e)[0], ctx.p)


@dataclass
class PrimeSweepRow:
    p: int
    count: int
    majorant: float
    ratio: float


def almost_all_rows(nu: int, h: int, k: int, lo: int, hi: int) -> list[PrimeSweepRow]:
    """Counts against bounds.count_almost_all_majorant, one row per prime
    p in [max(lo, 3), hi] with p > h; the prime sweep and its probe share it."""
    rows = []
    for p in range(max(lo, 3), hi + 1):
        if not is_prime(p) or p <= h:
            continue
        v = count_product_pairs_brute(build_context(p), nu, h, k).value
        majorant = bounds.count_almost_all_majorant(nu, h, p)
        rows.append(PrimeSweepRow(p=p, count=v, majorant=majorant, ratio=v / majorant))
    return rows


@dataclass
class ProductInequalityReport:
    """Comparison of the monomial-pair count against the geometric mean of
    plain product-pair counts, with and without per-coordinate gcd factors."""

    lhs: int
    rhs_plain: float
    rhs_gcd: float
    holds_plain: bool
    holds_gcd: bool
    i_counts: tuple[int, ...]
    gcds: tuple[int, ...]


def product_inequality_report(
    ctx: PrimeContext,
    e: ExponentVector,
    box: Box,
    i_counts: Sequence[int] | None = None,
) -> ProductInequalityReport:
    """Check lhs <= prod_j I_j^{1/nu} (plain) and
    lhs <= prod_j (gcd(|e_j|, p-1) * I_j)^{1/nu} (gcd form), where
    I_j = count_product_pairs_brute(nu, h_j, k_j) over side j of the box, counted
    here unless given."""
    nu = len(e)
    lhs = count_monomial_pairs_brute(ctx, e, box).value
    if i_counts is None:
        i_counts = [count_product_pairs_brute(ctx, nu, h_j, k_j).value for h_j, k_j in zip(box.sides, box.k)]
    gcds = tuple(math.gcd(abs(e_j), ctx.p - 1) for e_j in e.e)
    rhs_plain = math.prod(i_counts) ** (1.0 / nu)
    rhs_gcd = math.prod(g * c for g, c in zip(gcds, i_counts)) ** (1.0 / nu)
    slack = 1e-9
    return ProductInequalityReport(
        lhs=lhs,
        rhs_plain=rhs_plain,
        rhs_gcd=rhs_gcd,
        holds_plain=lhs <= rhs_plain + slack,
        holds_gcd=lhs <= rhs_gcd + slack,
        i_counts=tuple(i_counts),
        gcds=gcds,
    )
