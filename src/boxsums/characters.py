"""Additive and multiplicative characters modulo p.

Includes the additive spectrum of a residue distribution (by FFT, or at
given frequencies over its support where that is cheaper; the O(p^2)
`spectrum_direct` is the reference the tests and the verify suite compare
against) and the one kernel for dilated character sums sum_x w(x) chi(u*x + lam)
and their moments; the interval and split sums all call it. It splits each term
as chi(u*x + lam) = chi(x) chi(u + lam * x^{-1}) for x nonzero mod p, so with u
and c_x = lam * x^{-1} reduced mod p a term is one addition u + c_x < 2p and one
table lookup whose wrap is a single subtraction of p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import LambdaDivisibleError, PrincipalCharacterError
from .modular import PrimeContext, interval_residues


@lru_cache(maxsize=64)
def _root_table(p: int) -> np.ndarray:
    """Unit roots e_p(z) = exp(2*pi*i*z/p) for z = 0..p-1."""
    z = np.arange(p)
    table = np.exp(2j * np.pi * z / p)
    table.setflags(write=False)
    return table


def additive_char(ctx: PrimeContext, z: int) -> complex:
    """The additive character e_p(z) = exp(2*pi*i*z/p)."""
    return complex(_root_table(ctx.p)[z % ctx.p])


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
            m = self.ctx.p - 1
            # a*ind reduced mod p-1 indexes the (p-1)-th roots; index[0] = -1
            # lands on a valid root that is then zeroed.
            vals = _root_table(m)[(self.a * self.ctx.index) % m]
            vals[0] = 0.0
            vals.setflags(write=False)
            self._table = vals
        return self._table

    def __call__(self, x: int) -> complex:
        return complex(self.table()[x % self.ctx.p])


def char_power(chi: MultChar, e: int) -> MultChar:
    """chi^e; negative e gives the conjugate power."""
    return MultChar(chi.ctx, (chi.a * e) % (chi.ctx.p - 1))


@dataclass
class ResidueDistribution:
    """A complex-valued function on residues 0..p-1."""

    ctx: PrimeContext
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.ctx.p,):
            raise ValueError(f"distribution must have length {self.ctx.p}")


def spectrum_direct(dist: ResidueDistribution) -> np.ndarray:
    """The O(p^2) reference for additive_spectrum: each frequency summed over every residue."""
    p = dist.ctx.p
    roots = _root_table(p)
    v = np.arange(p, dtype=np.int64)
    out = np.empty(p, dtype=np.complex128)
    for w in range(p):
        out[w] = roots[(w * v) % p] @ dist.values
    return out


def _spectrum_fast(dist: ResidueDistribution) -> np.ndarray:
    # ifft uses the e^{+2*pi*i*kn/N} kernel; rescale by p.
    return dist.ctx.p * np.fft.ifft(dist.values)


def additive_spectrum(dist: ResidueDistribution, at=None) -> np.ndarray:
    """Transform a residue distribution by FFT: hat[w] = sum_v dist[v]*e_p(w*v),
    which satisfies Parseval's identity sum_w |hat[w]|^2 = p * sum_v |dist[v]|^2.

    `at` (integer frequencies, reduced mod p) asks for hat[at] alone: summed over
    supp(dist) if |at| * |supp dist| <= p * ceil(log2 p), the FFT's work, else
    gathered from the FFT.
    """
    if at is None:
        return _spectrum_fast(dist)
    p = dist.ctx.p
    at, v = np.asarray(at, dtype=np.int64) % p, np.flatnonzero(dist.values)
    if len(at) * len(v) > p * (p - 1).bit_length():
        return _spectrum_fast(dist)[at]
    # Rows of <= p (frequency, support point) pairs keep memory O(p), like the FFT's.
    roots, mass, rows = _root_table(p), dist.values[v], max(1, p // max(1, len(v)))
    out = np.empty(len(at), dtype=np.complex128)
    for i in range(0, len(at), rows):
        out[i : i + rows] = roots[np.outer(at[i : i + rows], v) % p] @ mass
    return out


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


def dilated_char_sums(chi: MultChar, u, x: np.ndarray, lam: int, w: np.ndarray) -> np.ndarray:
    """sum_x w(x) * chi(u*x + lam) for an integer u, or for each u of an int64 array.

    Each point x nonzero mod p contributes w(x) chi(x) * chi(u + c_x) with
    c_x = lam * x^{-1} mod p, since chi(u*x + lam) = chi(x) chi(u + lam * x^{-1}).
    With u and c_x reduced mod p, u + c_x < 2p, so the wrapped gather reduces
    each index by one subtraction; points x = 0 mod p contribute w(x) chi(lam).
    """
    p, table = chi.ctx.p, chi.table()
    x, lam = np.asarray(x, dtype=np.int64) % p, lam % p
    if not x.all():
        zero = x == 0
        return dilated_char_sums(chi, u, x[~zero], lam, w[~zero]) + w[zero].sum() * table[lam]
    c = np.array([lam * pow(v, -1, p) % p for v in x.tolist()], dtype=np.int64)
    return np.take(table, np.add.outer(np.asarray(u % p, dtype=np.int64), c), mode="wrap") @ (w * table[x])


def dilated_moment(chi: MultChar, x: np.ndarray, lam: int, w: np.ndarray, r: int) -> float:
    """sum_{u=1}^{p-1} |dilated_char_sums(chi, u, x, lam, w)|^{2r}; requires a
    nonprincipal chi, gcd(lam, p) = 1 and r >= 1."""
    p = chi.ctx.p
    if chi.is_principal:
        raise PrincipalCharacterError("moment sum needs a nonprincipal character")
    if lam % p == 0:
        raise LambdaDivisibleError("lam must be coprime to p")
    if r < 1:
        raise ValueError("moment order r must be >= 1")
    inner = dilated_char_sums(chi, np.arange(1, p, dtype=np.int64), x, lam, w)
    return float((np.abs(inner) ** (2 * r)).sum())


def char_interval_sum(
    chi: MultChar,
    k: int,
    h: int,
    u: int,
    lam: int,
    rho: Sequence[complex] | None = None,
) -> complex:
    """sum_{x=k+1}^{k+h} rho(x) * chi(u*x + lam); chi(0) terms vanish."""
    x = interval_residues(k, h, chi.ctx.p)
    return complex(dilated_char_sums(chi, u, x, lam, _interval_weights(h, rho)))


def char_moment(
    chi: MultChar,
    k: int,
    h: int,
    lam: int,
    rho: Sequence[complex] | None = None,
    r: int = 1,
) -> float:
    """sum_{u=1}^{p-1} |sum_{x=k+1}^{k+h} rho(x) chi(u*x+lam)|^{2r}, for a
    nonprincipal chi and gcd(lam, p) = 1."""
    x = interval_residues(k, h, chi.ctx.p)
    return dilated_moment(chi, x, lam, _interval_weights(h, rho), r)
