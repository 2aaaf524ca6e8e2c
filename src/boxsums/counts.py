"""Exact counting of product-congruence solution pairs over shifted intervals.

Counts pairs of tuples (x, y) with equal, nonzero shifted products
(or shifted-power monomials) mod p, via a single-pass frequency table
and sum of squares, plus a character-average identity cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bounds
from .errors import RoundingUnstableError
from .modular import ExponentVector, PrimeContext, build_context, is_prime, pow_mod


@dataclass
class CountResult:
    """Exact nonnegative solution count with its method tag."""

    value: int
    method: str


def _value_frequencies(
    ctx: PrimeContext,
    h: Sequence[int],
    k: Sequence[int],
    e: Sequence[int],
) -> np.ndarray:
    """Frequency table m(u) = #{x-tuples with prod (x_j+k_j)^{e_j} = u},
    tuples with a zero factor excluded."""
    p = ctx.p
    vals = np.array([1], dtype=np.int64)
    for h_j, k_j, e_j in zip(h, k, e):
        x = np.arange(1, h_j + 1, dtype=np.int64)
        r = (x + k_j) % p
        r = r[r != 0]
        pv = np.array([pow_mod(int(v), e_j, p) for v in r], dtype=np.int64)
        vals = (vals[:, None] * pv[None, :] % p).ravel()
    return np.bincount(vals, minlength=p)


def count_product_pairs_brute(ctx: PrimeContext, nu: int, h: int, k: int) -> CountResult:
    """Pairs of nu-tuples from [1,h] with equal nonzero shifted products:
    prod (x_j+k) = prod (y_j+k) != 0 mod p. Exact, O(nu * h^nu)."""
    if not 1 <= h < ctx.p:
        raise ValueError(f"need 1 <= h < p, got h={h}, p={ctx.p}")
    m = _value_frequencies(ctx, (h,) * nu, (k,) * nu, (1,) * nu)
    return CountResult(value=int(sum(int(c) ** 2 for c in m)), method="brute")


def count_product_pairs_spectral(ctx: PrimeContext, nu: int, h: int, k: int) -> CountResult:
    """Same count via the character average
    (1/(p-1)) * sum_chi |sum_{x=1}^{h} chi(x+k)|^{2 nu}, rounded."""
    p = ctx.p
    if not 1 <= h < p:
        raise ValueError(f"need 1 <= h < p, got h={h}, p={p}")
    # Interval indicator in the index (discrete-log) domain; the per-character
    # sums are then one inverse DFT of length p-1.
    cnt = np.zeros(p - 1, dtype=np.float64)
    for x in range(1, h + 1):
        r = (x + k) % p
        if r != 0:
            cnt[ctx.index[r]] += 1.0
    per_char = (p - 1) * np.fft.ifft(cnt)
    raw = float((np.abs(per_char) ** (2 * nu)).sum() / (p - 1))
    rounded = round(raw)
    if abs(raw - rounded) >= 0.4:
        raise RoundingUnstableError(f"residual {abs(raw - rounded):.3f} for p={p}, nu={nu}, h={h}, k={k}")
    return CountResult(value=int(rounded), method="spectral")


def count_monomial_pairs_brute(
    ctx: PrimeContext,
    e: ExponentVector,
    h: Sequence[int],
    k: Sequence[int],
) -> CountResult:
    """Pairs of tuples over the rectangular box with equal nonzero values of
    prod (x_j+k_j)^{e_j} mod p. Exact, via frequency table."""
    nu = len(e)
    if len(h) != nu or len(k) != nu:
        raise ValueError("h, k, e dimensions disagree")
    for h_j in h:
        if not 1 <= h_j < ctx.p:
            raise ValueError("each side length must satisfy 1 <= h_j < p")
    m = _value_frequencies(ctx, h, k, e.e)
    return CountResult(value=int(sum(int(c) ** 2 for c in m)), method="brute")


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
    h: Sequence[int],
    k: Sequence[int],
) -> ProductInequalityReport:
    """Check lhs <= prod_j I_j^{1/nu} (plain) and
    lhs <= prod_j (gcd(|e_j|, p-1) * I_j)^{1/nu} (gcd form), where
    I_j = count_product_pairs_brute(nu, h_j, k_j)."""
    nu = len(e)
    lhs = count_monomial_pairs_brute(ctx, e, h, k).value
    i_counts = tuple(
        count_product_pairs_brute(ctx, nu, h_j, k_j).value for h_j, k_j in zip(h, k)
    )
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
        i_counts=i_counts,
        gcds=gcds,
    )
