"""Weighted monomial, Kloosterman, and multiplicative-character sums over boxes.

Every sum excludes tuples with a coordinate congruent to 0 mod p.
Each evaluator has a naive enumeration path plus a split path that
factors the sum through a residue distribution; the split paths are
cross-checked against the naive ones to within tau = 1e-9*(1+terms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .characters import (
    MultChar,
    ResidueDistribution,
    _root_table,
    additive_spectrum,
)
from .errors import DimensionTooSmallError, LambdaDivisibleError, PrincipalCharacterError
from .modular import ExponentVector, PrimeContext, pow_mod


def agreement_tolerance(terms: int) -> float:
    """Absolute tolerance for cross-method comparisons: 1e-9*(1+terms)."""
    return 1e-9 * (1 + terms)


@dataclass(frozen=True)
class Box:
    """Cube [k_1+1, k_1+h] x ... x [k_n+1, k_n+h] of common side h."""

    k: tuple[int, ...]
    h: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", tuple(int(v) for v in self.k))
        if self.h < 1:
            raise ValueError("side length h must be >= 1")
        if len(self.k) < 1:
            raise ValueError("box must have at least one coordinate")

    @property
    def n(self) -> int:
        return len(self.k)


class UnitWeights:
    """rho_j(x) = 1 for every coordinate and point."""

    def coordinate_values(self, p: int, j: int, k_j: int, h: int) -> np.ndarray:
        return np.ones(h, dtype=np.complex128)

    def dimension(self) -> int | None:
        return None


class PhaseWeights:
    """rho_j(x) = exp(2*pi*i*lambda_j*x/p) (additive phases)."""

    def __init__(self, lambdas: Sequence[int]):
        self.lambdas = tuple(int(v) for v in lambdas)

    def coordinate_values(self, p: int, j: int, k_j: int, h: int) -> np.ndarray:
        # Both factors reduced first, so lambda_j * x stays below p^2 < 2^62.
        x = np.arange(k_j + 1, k_j + h + 1, dtype=np.int64) % p
        return _root_table(p)[(self.lambdas[j] % p * x) % p].copy()

    def dimension(self) -> int | None:
        return len(self.lambdas)


class TableWeights:
    """Explicit per-coordinate weight tables over each interval."""

    def __init__(self, tables: Sequence[Sequence[complex]]):
        self.tables = tuple(np.asarray(t, dtype=np.complex128) for t in tables)
        for t in self.tables:
            if t.ndim != 1:
                raise ValueError("each weight table must be one-dimensional")
            if np.abs(t).max(initial=0.0) > 1 + 1e-12:
                raise ValueError("weights must satisfy |rho(x)| <= 1")

    def coordinate_values(self, p: int, j: int, k_j: int, h: int) -> np.ndarray:
        t = self.tables[j]
        if t.shape != (h,):
            raise ValueError(f"weight table {j} must have length {h}")
        return t

    def dimension(self) -> int | None:
        return len(self.tables)


WeightSystem = UnitWeights | PhaseWeights | TableWeights


@dataclass
class SumSpec:
    """One sum instance: context, box, exponents, weights, and shift lam."""

    ctx: PrimeContext
    box: Box
    e: ExponentVector
    weights: WeightSystem = field(default_factory=UnitWeights)
    lam: int = 1

    def __post_init__(self) -> None:
        # Reduced once here, so lam * residue stays below p^2 < 2^62 in int64.
        self.lam = int(self.lam) % self.ctx.p
        if self.box.n != len(self.e):
            raise ValueError("box and exponent dimensions disagree")
        wdim = self.weights.dimension()
        if wdim is not None and wdim != self.box.n:
            raise ValueError("weight system dimension disagrees with box")
        if self.box.h >= self.ctx.p:
            raise ValueError("side length must satisfy h < p")

    @property
    def n(self) -> int:
        return self.box.n


@dataclass
class SumResult:
    """Evaluated sum with the number of included tuples and the method tag."""

    value: complex
    terms: int
    method: str


def _coordinate_data(spec: SumSpec, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Powered residues and weights over coordinate j, zeros mod p dropped."""
    p = spec.ctx.p
    k_j, h = spec.box.k[j], spec.box.h
    x = np.arange(k_j + 1, k_j + h + 1, dtype=np.int64)
    w = np.asarray(spec.weights.coordinate_values(p, j, k_j, h), dtype=np.complex128)
    keep = (x % p) != 0
    x, w = x[keep], w[keep]
    e_j = spec.e.e[j]
    pv = np.array([pow_mod(int(v), e_j, p) for v in x], dtype=np.int64)
    return pv, w


def _flatten_slice(spec: SumSpec, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Monomial values and weight products over coordinates lo..hi-1."""
    p = spec.ctx.p
    vals = np.array([1], dtype=np.int64)
    wts = np.array([1.0 + 0j], dtype=np.complex128)
    for j in range(lo, hi):
        pv, w = _coordinate_data(spec, j)
        vals = (vals[:, None] * pv[None, :] % p).ravel()
        wts = (wts[:, None] * w[None, :]).ravel()
    return vals, wts


def monomial_value_distribution(spec: SumSpec, lo: int = 0, hi: int | None = None) -> ResidueDistribution:
    """Distribution over u of the weight mass of tuples whose partial
    monomial over coordinates lo..hi-1 equals u; mass at 0 is empty."""
    if hi is None:
        hi = spec.n
    vals, wts = _flatten_slice(spec, lo, hi)
    dist = np.zeros(spec.ctx.p, dtype=np.complex128)
    np.add.at(dist, vals, wts)
    return ResidueDistribution(ctx=spec.ctx, values=dist)


def monomial_sum_naive(spec: SumSpec) -> SumResult:
    """Direct O(h^n) enumeration of sum rho-product * e_p(lam * monomial)."""
    p = spec.ctx.p
    vals, wts = _flatten_slice(spec, 0, spec.n)
    phases = _root_table(p)[(spec.lam * vals) % p]
    return SumResult(value=complex(wts @ phases), terms=len(vals), method="naive")


def monomial_sum_bilinear(spec: SumSpec) -> SumResult:
    """Bilinear evaluation through the two half-box distributions.

    Splits at s = floor(n/2), transforms the second half, and contracts
    over the support of d1: sum_u d1[u] * hat_d2[lam*u mod p].
    """
    if spec.n < 2:
        raise DimensionTooSmallError("bilinear path needs n >= 2")
    p = spec.ctx.p
    s = spec.n // 2
    d1 = monomial_value_distribution(spec, 0, s)
    d2 = monomial_value_distribution(spec, s, spec.n)
    hat = additive_spectrum(d2).values
    u = np.flatnonzero(d1.values)
    value = complex(d1.values[u] @ hat[(spec.lam * u) % p])
    terms = _slice_terms(spec, 0, s) * _slice_terms(spec, s, spec.n)
    return SumResult(value=value, terms=terms, method="bilinear")


def _slice_terms(spec: SumSpec, lo: int, hi: int) -> int:
    p = spec.ctx.p
    count = 1
    for j in range(lo, hi):
        k_j, h = spec.box.k[j], spec.box.h
        x = np.arange(k_j + 1, k_j + h + 1, dtype=np.int64)
        count *= int(((x % p) != 0).sum())
    return count


def kloosterman_sum(
    ctx: PrimeContext, box: Box, lam: int, lam_vec: Sequence[int]
) -> SumResult:
    """Incomplete multivariate Kloosterman sum: all exponents -1 with
    additive phase weights exp(2*pi*i*lambda_j*x/p)."""
    if len(lam_vec) != box.n:
        raise ValueError("phase vector dimension disagrees with box")
    spec = SumSpec(
        ctx=ctx,
        box=box,
        e=ExponentVector((-1,) * box.n),
        weights=PhaseWeights(lam_vec),
        lam=lam,
    )
    return monomial_sum_naive(spec)


def character_sum_naive(spec: SumSpec, chi: MultChar) -> SumResult:
    """Direct enumeration of sum rho-product * chi(monomial + lam)."""
    p = spec.ctx.p
    vals, wts = _flatten_slice(spec, 0, spec.n)
    cvals = chi.table()[(vals + spec.lam) % p]
    return SumResult(value=complex(wts @ cvals), terms=len(vals), method="naive")


def character_sum_split(spec: SumSpec, chi: MultChar) -> SumResult:
    """Evaluation through the leading (n-1)-coordinate distribution d0:
    sum_u d0[u] * sum_x rho_n(x) chi(u * x^{e_n} + lam), with the inner sum
    built only for u in the support of d0."""
    if spec.n < 2:
        raise DimensionTooSmallError("split path needs n >= 2")
    p = spec.ctx.p
    d0 = monomial_value_distribution(spec, 0, spec.n - 1)
    pv, w = _coordinate_data(spec, spec.n - 1)
    u = np.flatnonzero(d0.values)
    inner = chi.table()[(np.outer(u, pv) + spec.lam) % p] @ w
    value = complex(d0.values[u] @ inner)
    terms = _slice_terms(spec, 0, spec.n - 1) * len(pv)
    return SumResult(value=value, terms=terms, method="split")


def cauchy_majorant(spec: SumSpec) -> float:
    """Rigorous Cauchy-step majorant of the monomial sum:
    sqrt(p * sum|d1|^2 * sum|d2|^2) over the two half-box distributions."""
    if spec.n < 2:
        raise DimensionTooSmallError("majorant needs n >= 2")
    if spec.lam == 0:
        raise LambdaDivisibleError("lam must be coprime to p")
    s = spec.n // 2
    d1 = monomial_value_distribution(spec, 0, s)
    d2 = monomial_value_distribution(spec, s, spec.n)
    m1 = float((np.abs(d1.values) ** 2).sum())
    m2 = float((np.abs(d2.values) ** 2).sum())
    return math.sqrt(spec.ctx.p * m1 * m2)


def holder_majorant(spec: SumSpec, chi: MultChar, r: int) -> float:
    """Rigorous Holder-step majorant of the character sum: the 2r-th root of
    (sum|d0|^2) * (sum|d0|)^{2r-2} * sum_u |inner(u)|^{2r}, where inner(u) is
    the last-coordinate sum rho_n(x) chi(u*x^{e_n}+lam) over u = 1..p-1."""
    if spec.n < 2:
        raise DimensionTooSmallError("majorant needs n >= 2")
    if chi.is_principal:
        raise PrincipalCharacterError("majorant needs a nonprincipal character")
    if spec.lam == 0:
        raise LambdaDivisibleError("lam must be coprime to p")
    if r < 1:
        raise ValueError("moment order r must be >= 1")
    p = spec.ctx.p
    d0 = monomial_value_distribution(spec, 0, spec.n - 1)
    absd0 = np.abs(d0.values)
    sq = float((absd0**2).sum())
    l1 = float(absd0.sum())
    pv, w = _coordinate_data(spec, spec.n - 1)
    u = np.arange(1, p, dtype=np.int64)
    inner = chi.table()[(np.outer(u, pv) + spec.lam) % p] @ w
    moment = float((np.abs(inner) ** (2 * r)).sum())
    prod = sq * l1 ** (2 * r - 2) * moment
    if prod == 0.0:
        return 0.0
    return prod ** (1.0 / (2 * r))
