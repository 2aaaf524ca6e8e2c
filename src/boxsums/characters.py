"""Additive and multiplicative characters modulo p.

Includes the additive spectrum transform of a residue distribution
(always by FFT, O(p log p); the O(p^2) direct sum is kept only as the
reference the tests and the verify suite compare against) and moment sums
of incomplete character sums along dilated intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import LambdaDivisibleError, PrincipalCharacterError
from .modular import PrimeContext


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
    total_mass: float = field(init=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.ctx.p,):
            raise ValueError(f"distribution must have length {self.ctx.p}")
        self.total_mass = float(np.abs(self.values).sum())


@dataclass
class Spectrum:
    """Additive transform of a residue distribution.

    values[w] = sum_v dist[v] * e_p(w*v); satisfies Parseval's identity
    sum_w |values[w]|^2 = p * sum_v |dist[v]|^2.
    """

    ctx: PrimeContext
    values: np.ndarray


def _spectrum_direct(dist: ResidueDistribution) -> np.ndarray:
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


def additive_spectrum(dist: ResidueDistribution, method: str = "fast") -> Spectrum:
    """Transform a residue distribution: values[w] = sum_v dist[v]*e_p(w*v).

    method: "fast" (FFT, O(p log p)) at every p; "direct" is the O(p^2)
    reference that the method-agreement checks call by name.
    """
    if method == "direct":
        values = _spectrum_direct(dist)
    elif method == "fast":
        values = _spectrum_fast(dist)
    else:
        raise ValueError(f"unknown spectrum method {method!r}")
    return Spectrum(ctx=dist.ctx, values=values)


def _interval_weights(h: int, rho: Sequence[complex] | None) -> np.ndarray:
    if rho is None:
        return np.ones(h, dtype=np.complex128)
    w = np.asarray(rho, dtype=np.complex128)
    if w.shape != (h,):
        raise ValueError(f"weights must have length {h}")
    if np.abs(w).max(initial=0.0) > 1 + 1e-12:
        raise ValueError("weights must satisfy |rho(x)| <= 1")
    return w


def char_interval_sum(
    chi: MultChar,
    k: int,
    h: int,
    u: int,
    lam: int,
    rho: Sequence[complex] | None = None,
) -> complex:
    """sum_{x=k+1}^{k+h} rho(x) * chi(u*x + lam); chi(0) terms vanish."""
    p = chi.ctx.p
    if not 1 <= h < p:
        raise ValueError(f"need 1 <= h < p, got h={h}, p={p}")
    x = np.arange(k + 1, k + h + 1, dtype=np.int64)
    w = _interval_weights(h, rho)
    return complex(w @ chi.table()[(u * x + lam) % p])


def char_moment(
    chi: MultChar,
    k: int,
    h: int,
    lam: int,
    rho: Sequence[complex] | None = None,
    r: int = 1,
) -> float:
    """sum_{u=1}^{p-1} |sum_{x=k+1}^{k+h} rho(x) chi(u*x+lam)|^{2r}.

    Requires a nonprincipal chi and gcd(lam, p) = 1.
    """
    p = chi.ctx.p
    if chi.is_principal:
        raise PrincipalCharacterError("moment sum needs a nonprincipal character")
    if lam % p == 0:
        raise LambdaDivisibleError("lam must be coprime to p")
    if not 1 <= h < p:
        raise ValueError(f"need 1 <= h < p, got h={h}, p={p}")
    if r < 1:
        raise ValueError("moment order r must be >= 1")
    x = np.arange(k + 1, k + h + 1, dtype=np.int64)
    w = _interval_weights(h, rho)
    u = np.arange(1, p, dtype=np.int64)
    inner = chi.table()[(np.outer(u, x) + lam) % p] @ w
    return float((np.abs(inner) ** (2 * r)).sum())
