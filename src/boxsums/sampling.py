"""Seeded, splittable random instance generation.

Every trial gets its own substream derived from (seed, cell key, trial
index), so cells are reproducible independently and in any order.
Each draw is one generator call per kind, and a run of scalars with different bounds may be
one call with arrays of bounds: numpy draws a bounded integer below 2^32 from 32-bit words by
Lemire's method, the same words for one value or an array, and doubles alike one at a time or
as an array, so the streams equal per-coordinate draws.
"""

from __future__ import annotations

import numpy as np

from .modular import ExponentVector, PrimeContext
from .sums import Box, PhaseWeights, SumSpec, TableWeights, UnitWeights, WeightSystem

_MASK = (1 << 64) - 1

# The weight kinds draw_weights dispatches on.
WEIGHT_KINDS = ("unit", "phase", "table")


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one trial, derived from seed and cell key. SeedSequence
    pools a list of ints as the little-endian 32-bit words of each (0 gives [0]); these words
    as one uint32 array give the pool, and stream, of `default_rng([seed & _MASK, ...])`."""
    words = []
    for v in (seed, *key):
        v &= _MASK
        words += [v & 0xFFFFFFFF, v >> 32] if v >> 32 else [v]
    return np.random.default_rng(np.array(words, dtype=np.uint32))


def draw_corners(rng: np.random.Generator, p: int, n: int) -> tuple[int, ...]:
    return tuple(rng.integers(0, p, size=n).tolist())


def draw_exponents(rng: np.random.Generator, pool: list[int], n: int) -> ExponentVector:
    return ExponentVector(tuple(pool[i] for i in rng.integers(0, len(pool), size=n).tolist()))


def draw_coprime_lambda(rng: np.random.Generator, p: int) -> int:
    return int(rng.integers(1, p))


def draw_weights(
    rng: np.random.Generator, kind: str, p: int, n: int, h: int
) -> WeightSystem:
    if kind == "unit":
        return UnitWeights()
    if kind == "phase":
        return PhaseWeights(rng.integers(0, p, size=n).tolist())
    if kind == "table":
        # Per coordinate, h uniform(0, 1) magnitudes then h uniform(0, 2*pi) phases.
        u = rng.random((n, 2, h))
        return TableWeights(u[:, 0] * np.exp(1j * (2 * np.pi * u[:, 1])))
    raise ValueError(f"unknown weight kind {kind!r}")


def draw_spec(
    rng: np.random.Generator,
    ctx: PrimeContext,
    n: int,
    h: int,
    pool: list[int],
    weight_kind: str = "unit",
    origin_box: bool = False,
    lam: int | None = None,
) -> SumSpec:
    """One random sum instance; origin_box forces all corners to 0."""
    p = ctx.p
    corners = (0,) * n if origin_box else draw_corners(rng, p, n)
    e = draw_exponents(rng, pool, n)
    weights = draw_weights(rng, weight_kind, p, n, h)
    if lam is None:
        lam = draw_coprime_lambda(rng, p)
    return SumSpec(ctx=ctx, box=Box(corners, h), e=e, weights=weights, lam=lam)
