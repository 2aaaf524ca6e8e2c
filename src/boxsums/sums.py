"""Weighted monomial, Kloosterman, and multiplicative-character sums over boxes.

Every sum excludes tuples with a coordinate congruent to 0 mod p.
Each evaluator has a naive enumeration path plus a split path that
factors the sum through partial monomial values; the split paths are
cross-checked against the naive ones to within tau = 1e-9*(1+terms). Partial
monomial values are held as (value, mass) entries, one per tuple. The bilinear
sum contracts the entries of the two half boxes' distributions. The split
character sum folds coordinates 0..n-2 in one at a time: on entries while
they number at most `dense_fold_limit(p)` (half of p-1), then on one dense
array over the index domain, where each fold and the contraction are
rotations, since ind(u*x^e) = ind u + ind x^e.
A frozen `SumSpec` builds its coordinates once, read-only, for every evaluator
and majorant, in one call of the interval kernel `modular.box_powers` on its
`modular.Box` (which the counts share) with one weight table per spec, of n rows
as long as the longest side; every side is below p, and each row is cut to its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Sequence

import numpy as np

from .characters import (
    MultChar,
    ResidueDistribution,
    additive_spectrum,
    check_weight_bound,
    dilated_moments,
    dilated_residue_sums,
)
from .errors import DimensionTooSmallError, LambdaDivisibleError
from .modular import Box, ExponentVector, PrimeContext, box_powers, floor_mod, monomial_values


def agreement_tolerance(terms: int) -> float:
    """Absolute tolerance for cross-method comparisons: 1e-9*(1+terms)."""
    return 1e-9 * (1 + terms)


class UnitWeights:
    """rho_j(x) = 1 for every coordinate and point."""

    def coordinate_table(self, ctx: PrimeContext, residues: np.ndarray) -> np.ndarray:
        return np.ones(residues.shape, dtype=np.complex128)

    def check_box(self, box: Box) -> None:
        """Any box: the weight is 1 at every point."""


class PhaseWeights:
    """rho_j(x) = exp(2*pi*i*lambda_j*x/p) (additive phases)."""

    def __init__(self, lambdas: Sequence[int]):
        self.lambdas = tuple(int(v) for v in lambdas)

    def coordinate_table(self, ctx: PrimeContext, residues: np.ndarray) -> np.ndarray:
        # Both factors reduced first (lambda_j in Python), so lambda_j * x stays below p^2 < 2^62.
        lam = np.array([v % ctx.p for v in self.lambdas], dtype=np.int64)
        return ctx.roots[lam[:, None] * residues % ctx.p]

    def check_box(self, box: Box) -> None:
        if len(self.lambdas) != box.n:
            raise ValueError("weight system dimension disagrees with box")


class TableWeights:
    """Explicit per-coordinate weight tables, one read-only row each, zero-padded to the longest."""

    def __init__(self, tables: Sequence[Sequence[complex]]):
        rows = [np.asarray(t, dtype=np.complex128) for t in tables]
        if any(t.ndim != 1 for t in rows):
            raise ValueError("each weight table must be one-dimensional")
        self.lengths = tuple(map(len, rows))
        self.tables = np.zeros((len(rows), max(self.lengths, default=0)), dtype=np.complex128)
        for row, t in zip(self.tables, rows):
            row[: len(t)] = t
        check_weight_bound(self.tables)
        self.tables.flags.writeable = False

    def coordinate_table(self, ctx: PrimeContext, residues: np.ndarray) -> np.ndarray:
        return self.tables

    def check_box(self, box: Box) -> None:
        if len(self.lengths) != box.n:
            raise ValueError("weight system dimension disagrees with box")
        for j, (length, h_j) in enumerate(zip(self.lengths, box.sides)):
            if length != h_j:
                raise ValueError(f"weight table {j} must have length {h_j}")


# Each kind checks itself against a box once, and gives its weights at the box's residues in one call.
WeightSystem = UnitWeights | PhaseWeights | TableWeights


@dataclass(frozen=True)
class SumSpec:
    """One sum instance: context, box, exponents, weights, and shift lam; checked
    when built (every side below p, the weights against the box) and frozen, so
    `coordinates`, built once per spec, always match the fields."""

    ctx: PrimeContext
    box: Box
    e: ExponentVector
    weights: WeightSystem = field(default_factory=UnitWeights)
    lam: int = 1

    def __post_init__(self) -> None:
        # Reduced once here, so lam * residue stays below p^2 < 2^62 in int64.
        object.__setattr__(self, "lam", int(self.lam) % self.ctx.p)
        if self.box.n != len(self.e):
            raise ValueError("box and exponent dimensions disagree")
        self.weights.check_box(self.box)
        if max(self.box.sides) >= self.ctx.p:
            raise ValueError("side length must satisfy h < p")

    @property
    def n(self) -> int:
        return self.box.n

    @cached_property
    def coordinates(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per coordinate j, x^{e_j} mod p and the weights at the points of
        [k_j+1, k_j+h_j] that are nonzero mod p; both arrays are read-only.
        Both come from one call of the kernel `modular.box_powers`, which takes the
        weights from one n x max(h_j) table of the weight system at its residues."""
        weights = partial(self.weights.coordinate_table, self.ctx)
        return tuple(zip(*box_powers(self.ctx, self.box, self.e.e, weights)))


@dataclass
class SumResult:
    """Evaluated sum with the number of included tuples and the method tag."""

    value: complex
    terms: int
    method: str


def _flatten_slice(spec: SumSpec, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Monomial values and weight products over coordinates lo..hi-1, starting from the first's arrays."""
    data = spec.coordinates[lo:hi]
    wts = data[0][1]
    for _, w in data[1:]:
        wts = (wts[:, None] * w[None, :]).ravel()
    return monomial_values([pv for pv, _ in data], spec.ctx.p), wts


def _terms(spec: SumSpec) -> int:
    """Tuples of the box with no coordinate 0 mod p."""
    return math.prod(len(pv) for pv, _ in spec.coordinates)


def monomial_value_distribution(spec: SumSpec, lo: int = 0, hi: int | None = None) -> ResidueDistribution:
    """Distribution over u of the weight mass of tuples whose partial
    monomial over coordinates lo..hi-1 equals u, as one entry per tuple
    (a consumer that needs one value per residue reads `values`); mass at 0 is empty."""
    if hi is None:
        hi = spec.n
    return ResidueDistribution(spec.ctx, *_flatten_slice(spec, lo, hi))


def monomial_sum_naive(spec: SumSpec) -> SumResult:
    """Direct O(h^n) enumeration of sum rho-product * e_p(lam * monomial)."""
    ctx = spec.ctx
    vals, wts = _flatten_slice(spec, 0, spec.n)
    phases = ctx.roots[(spec.lam * vals) % ctx.p]
    return SumResult(value=complex(wts @ phases), terms=len(vals), method="naive")


def monomial_sum_bilinear(spec: SumSpec) -> SumResult:
    """Bilinear evaluation through the two half-box distributions.

    Splits at s = floor(n/2) and contracts over the entries (u, mass) of d1:
    sum mass * hat_d2[lam*u mod p], where the spectrum of d2 is taken only at
    those frequencies (by FFT or over the entries of d2, whichever costs
    less); no entries in d1 give 0.
    """
    if spec.n < 2:
        raise DimensionTooSmallError("bilinear path needs n >= 2")
    s = spec.n // 2
    d1 = monomial_value_distribution(spec, 0, s)
    d2 = monomial_value_distribution(spec, s, spec.n)
    value = complex(d1.mass @ additive_spectrum(d2, at=spec.lam * d1.points))
    return SumResult(value=value, terms=_terms(spec), method="bilinear")


def kloosterman_sum(
    ctx: PrimeContext, box: Box, lam: int, lam_vec: Sequence[int]
) -> SumResult:
    """Incomplete multivariate Kloosterman sum: all exponents -1 with
    additive phase weights exp(2*pi*i*lambda_j*x/p)."""
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
    vals, wts = _flatten_slice(spec, 0, spec.n)
    # vals in [1, p-1] and lam in [0, p-1]: the index lies in [1-p, p-2], read from the end if negative.
    cvals = chi.table()[vals + (spec.lam - spec.ctx.p)]
    return SumResult(value=complex(wts @ cvals), terms=len(vals), method="naive")


def dense_fold_limit(p: int) -> int:
    """The most (value, mass) entries that character_sum_split folds as entries;
    past it the fold runs on a dense length-(p-1) array over indices. A dense
    step costs one rotation of p-1 values per point, plus a fixed cost per
    rotation, against one gather per (entry, point) pair. Timed crossovers, in
    entries at the contraction over p-1: 0.1-0.3 at p = 10007, about 1/2 at
    p = 1009, above 1 at p <= 101. Half of p-1 sits between them, below which
    entries need no merge. The dense path pays: folding on entries throughout
    took 1.65x the time of the `sweep-t` benchmark (1.39x with a merge by residue)."""
    return (p - 1) // 2


def _rotations(a: np.ndarray, shifts: np.ndarray) -> list[np.ndarray]:
    """a rotated left by each shift s in [0, len(a)], a[(i + s) mod len(a)] over i,
    as slices of a tiled twice."""
    m = len(a)
    twice = np.concatenate((a, a))
    return [twice[s : s + m] for s in shifts]


def character_sum_split(spec: SumSpec, chi: MultChar) -> SumResult:
    """Evaluation through the leading n-1 coordinates:
    sum_u mass(u) * sum_x rho_n(x) chi(u * x^{e_n} + lam), over the entries
    (u, mass) of a fold that multiplies in one coordinate's values and weights
    at a time.

    While the entries number at most dense_fold_limit(p) the fold stays on
    entries, each fold's products reduced by `modular.floor_mod`, and the
    contraction is dilated_residue_sums over them. Past it the entries are summed
    once into a dense D[ind u] of length p-1. Since ind(u * x^e) = ind u + ind x^e,
    folding in a coordinate is D[i] <- sum_x w(x) D[i - ind x^e], and the value is
    sum_x rho_n(x) sum_i D[i] K[i + ind x^{e_n}] with K[i] = chi(g^i + lam),
    indices mod p-1: every step a rotation, with no `% p` and no merge. K is one
    plain gather of the character table at g^i + lam - p in [1-p, p-2], whose
    negative indices read from the end of the table.
    """
    if spec.n < 2:
        raise DimensionTooSmallError("split path needs n >= 2")
    ctx, p = spec.ctx, spec.ctx.p
    limit = dense_fold_limit(p)
    (u, mass), *rest, (pv, w) = spec.coordinates
    while rest and len(u) <= limit:
        (pv_j, w_j), *rest = rest
        # The new coordinate varies slowest: long rows run faster than h-long ones.
        u, mass = floor_mod(np.multiply.outer(pv_j, u).ravel(), p), np.multiply.outer(w_j, mass).ravel()
    if len(u) <= limit:
        value = mass @ dilated_residue_sums(chi, u, pv, spec.lam, w)
    else:
        d = np.zeros(p - 1, dtype=np.complex128)
        np.add.at(d, ctx.index[u], mass)
        for pv_j, w_j in rest:
            # D[i - s] over i is D rotated left by p-1-s.
            rotated = _rotations(d, p - 1 - ctx.index[pv_j])
            d = np.zeros(p - 1, dtype=np.complex128)
            for w_x, d_x in zip(w_j, rotated):
                d += w_x * d_x
        table = chi.table()[ctx.power + (spec.lam - p)]
        value = w @ [t_x @ d for t_x in _rotations(table, ctx.index[pv])]
    return SumResult(value=complex(value), terms=_terms(spec), method="split")


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


def holder_majorant(spec: SumSpec, chi: MultChar, orders: Sequence[int]) -> list[float]:
    """Rigorous Holder-step majorants of the character sum, one per order r: the
    2r-th root of (sum|d0|^2) * (sum|d0|)^{2r-2} * sum_u |inner(u)|^{2r}, where
    inner(u) is the last-coordinate sum rho_n(x) chi(u*x^{e_n}+lam) over
    u = 1..p-1. Every order reads one table of inner sums and one d0."""
    if spec.n < 2:
        raise DimensionTooSmallError("majorant needs n >= 2")
    pv, w = spec.coordinates[-1]
    moments = dilated_moments(chi, pv, spec.lam, w, orders)
    absd0 = np.abs(monomial_value_distribution(spec, 0, spec.n - 1).values)
    sq = float((absd0**2).sum())
    l1 = float(absd0.sum())
    return [(sq * l1 ** (2 * r - 2) * m) ** (1.0 / (2 * r)) for r, m in zip(orders, moments)]
