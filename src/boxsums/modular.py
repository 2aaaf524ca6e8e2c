"""Exact residue arithmetic modulo a prime.

Provides deterministic primality testing, smallest primitive roots,
a full discrete-log (index) table per prime with its inverse power table
and the unit-root tables the characters read (all on `PrimeContext`), monomial
evaluation with positive or negative exponents, `floor_mod` (int64 arrays
reduced by floor division), the `Box` of sums and counts,
and the interval kernels, which reduce corners mod p: `interval_residues`
(points), `box_powers` (x^e as g^{e ind x} at a box's nonzero points, one call
per box for the sums' coordinates and the counts) and `monomial_values`
(products over a box).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (
    NotInvertibleError,
    NotPrimeError,
    TooLargeError,
    ZeroCoordinateError,
    ZeroToNegativePowerError,
)

MAX_MODULUS = 2**31  # keeps a*b < 2^62 in 64-bit intermediates

# Deterministic Miller-Rabin witness set for all m < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_LIMIT = 1 << 16


def is_prime(m: int) -> bool:
    """Deterministic primality test for 0 <= m < 2^63."""
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    # Trial division catches everything below 2^32.
    d = 3
    limit = min(math.isqrt(m), _TRIAL_LIMIT)
    while d <= limit:
        if m % d == 0:
            return False
        d += 2
    if math.isqrt(m) <= _TRIAL_LIMIT:
        return True
    # Larger inputs: fixed-witness Miller-Rabin, deterministic in range.
    r, s = m - 1, 0
    while r % 2 == 0:
        r //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, r, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def pow_mod(a: int, e: int, p: int) -> int:
    """a^e mod p; a negative e raises the modular inverse to |e|, by the built-in `pow`."""
    a %= p
    if e < 0 and a == 0:
        raise ZeroToNegativePowerError(f"0^{e} mod {p} is undefined")
    return pow(a, e, p)


def inv_mod(a: int, p: int) -> int:
    """Multiplicative inverse of a mod p."""
    a %= p
    if a == 0:
        raise NotInvertibleError(f"0 has no inverse mod {p}")
    return pow(a, -1, p)


def floor_mod(x: np.ndarray, m: int) -> np.ndarray:
    """x mod m in [0, m) for an int64 array x (left unchanged), negative entries included.

    numpy divides int64 by a scalar with a multiply and shift, but takes `%` by a
    slower path: `x % m` took 34 against 14 us over 10^4 entries (numpy 2.4.6). Below
    about 640 entries one `%` is a little cheaper, but a branch for it did not pay end to end."""
    q = np.floor_divide(x, m, out=np.empty_like(x))
    q *= m
    return np.subtract(x, q, out=q)


def _prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m by trial division."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


def primitive_root(p: int) -> int:
    """Smallest positive primitive root modulo a prime p."""
    if p == 2:
        return 1
    factors = _prime_factors(p - 1)
    exps = [(p - 1) // q for q in factors]
    g = 2
    while True:
        if all(pow(g, e, p) != 1 for e in exps):
            return g
        g += 1


@dataclass(frozen=True)
class ExponentVector:
    """A vector of nonzero integer exponents."""

    e: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "e", tuple(int(v) for v in self.e))
        if len(self.e) < 1:
            raise ValueError("exponent vector must be nonempty")
        for v in self.e:
            if v == 0:
                raise ValueError("exponent components must be nonzero")
            if abs(v) >= MAX_MODULUS:
                raise ValueError(f"exponent {v} out of supported range")

    def __len__(self) -> int:
        return len(self.e)


@dataclass(frozen=True)
class PrimeContext:
    """A prime p with its smallest primitive root, full index and power tables,
    and every other per-prime table, each freed with its context.

    index[x] = k with g^k = x mod p for x in [1, p-1]; index[0] = -1
    (sentinel) so that character tables can map residue 0 branchlessly.
    power[i] = g^i mod p for i in [0, p-2], the inverse of `index`.
    Bytes per residue: `index` 8 and `power` 8, built with the context; on
    first use `roots` 16, `char_roots` 16 and `index_roots` 32. So 16 bytes
    per residue at construction and 80 once all are built, about 172 GB at
    MAX_MODULUS. Immutable after construction (every table is read-only) and
    safe to share across workers.
    """

    p: int
    g: int
    index: np.ndarray
    power: np.ndarray

    def ind(self, x: int) -> int:
        return int(self.index[x % self.p])

    @cached_property
    def roots(self) -> np.ndarray:
        """roots[z] = e_p(z) = exp(2*pi*i*z/p) for z in [0, p-1]; read-only."""
        return _read_only(np.exp(2j * np.pi * np.arange(self.p) / self.p))

    @cached_property
    def char_roots(self) -> np.ndarray:
        """The (p-1)-th roots exp(2*pi*i*j/(p-1)) for j in [0, p-2], the values
        of every multiplicative character; read-only."""
        return _read_only(np.exp(2j * np.pi * np.arange(self.p - 1) / (self.p - 1)))

    @cached_property
    def index_roots(self) -> np.ndarray:
        """E[i] = e_p(g^i) for i in [0, 2p-3] (two periods), so that
        e_p(w*v) = E[ind w + ind v] for w, v nonzero mod p; read-only."""
        return _read_only(np.tile(self.roots[self.power], 2))


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def build_context(p: int) -> PrimeContext:
    """Build the PrimeContext for an odd prime 3 <= p < 2^31."""
    if p >= MAX_MODULUS:
        raise TooLargeError(f"modulus {p} >= 2^31")
    if p < 3 or not is_prime(p):
        raise NotPrimeError(f"{p} is not an odd prime >= 3")
    g = primitive_root(p)
    # g^i collected in Python lists of at most 2^16 and copied in per chunk:
    # faster than one numpy item write per step, and O(2^16) extra memory.
    power = np.empty(p - 1, dtype=np.int64)
    x = 1
    for start in range(0, p - 1, 2**16):
        chunk = []
        for _ in range(min(2**16, p - 1 - start)):
            chunk.append(x)
            x = x * g % p
        power[start : start + len(chunk)] = chunk
    index = np.full(p, -1, dtype=np.int64)
    index[power] = np.arange(p - 1, dtype=np.int64)
    return PrimeContext(p=p, g=g, index=_read_only(index), power=_read_only(power))


@dataclass(frozen=True)
class Box:
    """The box [k_1+1, k_1+h_1] x ... x [k_n+1, k_n+h_n]: `h` is one int, the common
    side of a cube, or one side per coordinate. Checks its own shape: n >= 1, one
    side per corner, every side >= 1."""

    k: tuple[int, ...]
    h: int | tuple[int, ...]
    sides: tuple[int, ...] = field(init=False, repr=False, compare=False)  # h_j for j = 1..n

    def __post_init__(self) -> None:
        k = tuple(map(int, self.k))
        h = int(self.h) if isinstance(self.h, (int, np.integer)) else tuple(map(int, self.h))
        sides = (h,) * len(k) if isinstance(h, int) else h
        if not k:
            raise ValueError("box must have at least one coordinate")
        if len(sides) != len(k):
            raise ValueError(f"box has {len(k)} corners but {len(sides)} sides")
        if min(sides) < 1:
            raise ValueError("side length h must be >= 1")
        for name, value in (("k", k), ("h", h), ("sides", sides)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.k)


def interval_residues(k: Sequence[int], h: int, p: int) -> np.ndarray:
    """The points of [k_j+1, k_j+h] reduced mod p, one row per corner k_j (any
    integers: they are reduced in Python first); 1 <= h < p."""
    if not 1 <= h < p:
        raise ValueError(f"need 1 <= h < p, got h={h}, p={p}")
    return np.add.outer([k_j % p for k_j in k], np.arange(1, h + 1, dtype=np.int64)) % p


def box_powers(
    ctx: PrimeContext,
    box: Box,
    e: Sequence[int],
    weights: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[Sequence[np.ndarray], Sequence[np.ndarray] | None]:
    """Per coordinate j of the box, x^{e_j} mod p at the points of [k_j+1, k_j+h_j] nonzero
    mod p in interval order, read as g^{e_j ind x} from the index and power tables in one
    pass over the n x max(h_j) residues; with `weights` (the residues to a table of their
    shape), also each coordinate's weights at those points, else None. Rows are read-only;
    rows of that table itself where no point is dropped. The kernel of the sums'
    coordinates and of every count; max(h_j) < p."""
    if len(e) != box.n:
        raise ValueError(f"{len(e)} exponents for a box of dimension {box.n}")
    p, sides = ctx.p, box.sides
    k = [k_j % p for k_j in box.k]
    res = interval_residues(k, max(sides), p)
    # |e_j * ind x| < 2^31 * p < 2^62; the sentinel ind 0 = -1 picks a power that is dropped below.
    ind = ctx.index[res]
    ind *= np.array(e, dtype=np.int64)[:, None]
    ind %= p - 1
    tables = [_read_only(ctx.power[ind])] + ([] if weights is None else [_read_only(weights(res))])
    # With k_j reduced the points are k_j+1..k_j+h_j < 2p, so p is the one multiple a row can hold;
    # a row shorter than the longest also drops the columns past its own side.
    h = res.shape[1]
    if cut := [j for j, (k_j, h_j) in enumerate(zip(k, sides)) if k_j + h_j >= p or h_j < h]:
        tables = [list(t) for t in tables]
        for j in cut:
            keep = res[j, : sides[j]] != 0
            for t in tables:
                t[j] = _read_only(t[j][: sides[j]][keep])
    return tables[0], tables[1] if weights else None


def monomial_values(powers: Sequence[np.ndarray], p: int) -> np.ndarray:
    """Products mod p of one entry per array over all tuples, the last array
    fastest; one factor is returned as given, and callers do not mutate it."""
    vals = powers[0]
    for pv in powers[1:]:
        vals = (vals[:, None] * pv[None, :] % p).ravel()
    return vals


def monomial_eval(ctx: PrimeContext, x: Sequence[int], e: ExponentVector) -> int:
    """x_1^{e_1} ... x_n^{e_n} mod p, every coordinate nonzero mod p."""
    if len(x) != len(e.e):
        raise ValueError("coordinate/exponent dimension mismatch")
    p = ctx.p
    acc = 1
    for xj, ej in zip(x, e.e):
        if (r := xj % p) == 0:
            raise ZeroCoordinateError(f"coordinate {xj} is 0 mod {p}")
        acc = acc * pow(r, ej, p) % p
    return acc
