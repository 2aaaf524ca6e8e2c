"""Additive and multiplicative characters modulo p.

Includes the additive spectrum of a residue distribution held as (point, mass)
entries: by FFT, or at given frequencies summed over the entries in the index
domain, e_p(w*v) = E[ind w + ind v] with E[i] = e_p(g^i), where
`support_sum_limit` says that is cheaper (the O(p^2) `spectrum_direct` is the
reference the tests and the verify suite compare against). Also the one kernel
for dilated character sums sum_x w(x) chi(u*x + lam), `dilated_residue_sums`,
which takes residues: the split sum's fold and `holder_majorant` hold them, and
`char_interval_sum` and `char_moment` reduce their integers at the boundary. No
gather takes numpy's `mode="wrap"`, which cost 31 against 9 us per 10^4 indices
(numpy 2.4.6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import LambdaDivisibleError, PrincipalCharacterError
from .modular import PrimeContext, floor_mod, interval_residues


def additive_char(ctx: PrimeContext, z: int) -> complex:
    """The additive character e_p(z) = exp(2*pi*i*z/p)."""
    return complex(ctx.roots[z % ctx.p])


@dataclass
class MultChar:
    """Multiplicative character mod p with index a in [0, p-2].

    chi_a(x) = exp(2*pi*i * a*ind(x) / (p-1)) for x nonzero, chi_a(0) = 0.
    Index 0 is the principal character.
    """

    ctx: PrimeContext
    a: int
    _table: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.a = int(self.a) % (self.ctx.p - 1)

    @property
    def is_principal(self) -> bool:
        return self.a == 0

    def table(self) -> np.ndarray:
        """Values chi(x) for x = 0..p-1 (chi(0) = 0)."""
        if self._table is None:
            # a*ind reduced mod p-1 indexes the (p-1)-th roots; index[0] = -1
            # lands on a valid root that is then zeroed.
            vals = self.ctx.char_roots[floor_mod(self.a * self.ctx.index, self.ctx.p - 1)]
            vals[0] = 0.0
            vals.setflags(write=False)
            self._table = vals
        return self._table

    def __call__(self, x: int) -> complex:
        return complex(self.table()[x % self.ctx.p])


@dataclass(frozen=True)
class ResidueDistribution:
    """A complex-valued function on residues 0..p-1, held as entries: its value
    at v is the total mass of the entries whose point is v. Points lie in
    [0, p-1] and may repeat."""

    ctx: PrimeContext
    points: np.ndarray
    mass: np.ndarray

    @classmethod
    def from_values(cls, ctx: PrimeContext, values) -> ResidueDistribution:
        """The distribution with the given length-p values, one entry per nonzero residue."""
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != (ctx.p,):
            raise ValueError(f"distribution must have length {ctx.p}")
        points = np.flatnonzero(values)
        return cls(ctx, points, values[points])

    @cached_property
    def values(self) -> np.ndarray:
        """The values at residues 0..p-1, summed from the entries on first use."""
        out = np.zeros(self.ctx.p, dtype=np.complex128)
        np.add.at(out, self.points, self.mass)
        return out


def spectrum_direct(dist: ResidueDistribution) -> np.ndarray:
    """The O(p^2) reference for additive_spectrum: each frequency summed over every residue."""
    p, roots = dist.ctx.p, dist.ctx.roots
    v = np.arange(p, dtype=np.int64)
    out = np.empty(p, dtype=np.complex128)
    for w in range(p):
        out[w] = roots[(w * v) % p] @ dist.values
    return out


def _spectrum_fast(dist: ResidueDistribution) -> np.ndarray:
    # ifft uses the e^{+2*pi*i*kn/N} kernel; rescale by p.
    return dist.ctx.p * np.fft.ifft(dist.values)


def support_sum_limit(p: int, supp: int) -> int:
    """The most frequencies that additive_spectrum sums over `supp` entries:
    |at| * supp pairs cost at most one FFT (with densifying and the gather),
    about 2 * p * ceil(log2 p) pairs. Timed crossovers: 1.6 at p = 100003, 2 at
    p = 10007, 3 at p = 1009, above 4 at p <= 101. Both branches pay: the
    `sweep-s` benchmark took 1.14x the time with no FFT branch, 3.0x with no sum."""
    return 2 * p * (p - 1).bit_length() // max(supp, 1)


def _block_rows(p: int, cols: int) -> int:
    """Rows per block of a pair array with `cols` columns: blocks of <= max(p, 2^16)
    pairs keep memory O(p), like the FFT's, whatever the numbers of rows and columns are."""
    return max(1, max(p, 2**16) // max(1, cols))


def _support_sum(dist: ResidueDistribution, at: np.ndarray) -> np.ndarray:
    """hat[at] for frequencies reduced mod p, summed over the entries: one index
    addition and one gather per (frequency, point) pair, both nonzero."""
    ctx, points, mass = dist.ctx, dist.points, dist.mass
    if not points.all():  # e_p(w*0) = 1: the mass at point 0 adds to every frequency
        zero = points == 0
        return _support_sum(ResidueDistribution(ctx, points[~zero], mass[~zero]), at) + mass[zero].sum()
    if not at.all():  # frequency 0 sums the mass
        out, w = np.full(len(at), mass.sum(), dtype=np.complex128), np.flatnonzero(at)
        out[w] = _support_sum(dist, at[w])
        return out
    table, iw, iv = ctx.index_roots, ctx.index[at], ctx.index[points]
    rows = _block_rows(ctx.p, len(points))
    out = np.empty(len(at), dtype=np.complex128)
    for i in range(0, len(at), rows):
        out[i : i + rows] = table[np.add.outer(iw[i : i + rows], iv)] @ mass
    return out


def additive_spectrum(dist: ResidueDistribution, at=None) -> np.ndarray:
    """Transform a residue distribution by FFT: hat[w] = sum_v dist[v]*e_p(w*v),
    which satisfies Parseval's identity sum_w |hat[w]|^2 = p * sum_v |dist[v]|^2.

    `at` (integer frequencies, reduced mod p) asks for hat[at] alone: summed over
    the entries if |at| <= support_sum_limit(p, entries), else gathered from the FFT.
    """
    if at is None:
        return _spectrum_fast(dist)
    p = dist.ctx.p
    at = np.asarray(at, dtype=np.int64) % p
    if len(at) > support_sum_limit(p, len(dist.points)):
        return _spectrum_fast(dist)[at]
    return _support_sum(dist, at)


def check_weight_bound(w: np.ndarray) -> None:
    if not np.abs(w).max(initial=0.0) <= 1 + 1e-12:  # a NaN max fails the comparison
        raise ValueError("weights must satisfy |rho(x)| <= 1")


def _interval_weights(h: int, rho: Sequence[complex] | None) -> np.ndarray:
    if rho is None:
        return np.ones(h, dtype=np.complex128)
    w = np.asarray(rho, dtype=np.complex128)
    if w.shape != (h,):
        raise ValueError(f"weights must have length {h}")
    check_weight_bound(w)
    return w


def dilated_residue_sums(chi: MultChar, u: np.ndarray, x: np.ndarray, lam: int, w: np.ndarray) -> np.ndarray:
    """sum_x w(x) * chi(u*x + lam) for each u; u (an int64 array, maybe 0-d), x and lam are residues.

    Each point x nonzero mod p contributes w(x) chi(x) * chi(u + c_x) with
    c_x = lam * x^{-1} = g^{ind lam - ind x} mod p (0 if lam = 0), since
    chi(u*x + lam) = chi(x) chi(u + lam * x^{-1}). The index u + (c_x - p) lies in
    [-p, p-2], and a plain gather reads a negative index from the end of the table,
    so each pair is one addition and one bounds-checked read.
    Points x = 0 contribute w(x) chi(lam); in the gather chi(0) = 0 zeroes
    their weight, whatever c the sentinel index[0] = -1 gives them."""
    ctx, table = chi.ctx, chi.table()
    p = ctx.p
    c = ctx.power[(ctx.index[lam] - ctx.index[x]) % (p - 1)] if lam else np.zeros_like(x)
    wx, c = w * table[x], c - p
    rows = _block_rows(p, len(x))
    blocks = [u] if u.size <= rows else [u[i : i + rows] for i in range(0, len(u), rows)]
    out = [table[np.add.outer(b, c)] @ wx for b in blocks]
    out = out[0] if len(out) == 1 else np.concatenate(out)
    return out if x.all() else out + w[x == 0].sum() * table[lam]


def dilated_moments(chi: MultChar, x: np.ndarray, lam: int, w: np.ndarray, orders: Sequence[int]) -> list[float]:
    """sum_{u=1}^{p-1} |dilated_residue_sums(chi, u, x, lam, w)|^{2r} for each r in
    orders, all from one length-(p-1) table of the inner sums; x and lam are
    residues. Requires a nonprincipal chi, gcd(lam, p) = 1 and every r >= 1."""
    p = chi.ctx.p
    if chi.is_principal:
        raise PrincipalCharacterError("moment sum needs a nonprincipal character")
    if lam % p == 0:
        raise LambdaDivisibleError("lam must be coprime to p")
    if any(r < 1 for r in orders):
        raise ValueError("moment order r must be >= 1")
    inner = np.abs(dilated_residue_sums(chi, np.arange(1, p, dtype=np.int64), x, lam, w))
    return [float((inner ** (2 * r)).sum()) for r in orders]


def char_interval_sum(
    chi: MultChar,
    k: int,
    h: int,
    u: int,
    lam: int,
    rho: Sequence[complex] | None = None,
) -> complex:
    """sum_{x=k+1}^{k+h} rho(x) * chi(u*x + lam), any integers k, u, lam; chi(0) terms vanish."""
    p = chi.ctx.p
    x = interval_residues((k,), h, p)[0]
    # A Python int u may exceed int64, so it is reduced before conversion.
    u = np.asarray(u % p, dtype=np.int64)
    return complex(dilated_residue_sums(chi, u, x, lam % p, _interval_weights(h, rho)))


def char_moment(
    chi: MultChar,
    k: int,
    h: int,
    lam: int,
    rho: Sequence[complex] | None = None,
    r: int = 1,
) -> float:
    """sum_{u=1}^{p-1} |sum_{x=k+1}^{k+h} rho(x) chi(u*x+lam)|^{2r}, for a
    nonprincipal chi and gcd(lam, p) = 1, for any integers k and lam."""
    x = interval_residues((k,), h, chi.ctx.p)[0]
    return dilated_moments(chi, x, lam % chi.ctx.p, _interval_weights(h, rho), (r,))[0]
