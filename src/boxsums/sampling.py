"""Seeded, splittable random instance generation.

Every trial gets its own substream derived from (seed, cell key, trial
index), so cells are reproducible independently and in any order.
A run of bounded integers, each with its own bounds, is one generator call with arrays of
bounds (an instance's corners, exponent picks, phases and lam are one): numpy draws a bounded
integer below 2^32 from 32-bit words by Lemire's method, the same words for one value or an
array, and doubles alike one at a time or as an array, so the streams equal per-coordinate
draws.
"""

from __future__ import annotations

import numpy as np

from .modular import ExponentVector, PrimeContext
from .sums import Box, PhaseWeights, SumSpec, TableWeights, UnitWeights

_MASK = (1 << 64) - 1

# The weight kinds draw_spec draws.
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


def draw_coprime_lambda(rng: np.random.Generator, p: int) -> int:
    return int(rng.integers(1, p))


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
    """One random sum instance; origin_box forces all corners to 0. One generator call draws
    the corners, the exponent picks, the phase kind's lambda_j and lam when not given; the
    table kind draws its h uniform(0, 1) magnitudes then h uniform(0, 2*pi) phases per
    coordinate after them, and then lam."""
    if weight_kind not in WEIGHT_KINDS:
        raise ValueError(f"unknown weight kind {weight_kind!r}")
    p = ctx.p
    corners = 0 if origin_box else n
    phases = n if weight_kind == "phase" else 0
    lam_now = lam is None and weight_kind != "table"
    # lam is 1 + a draw below p - 1, the same words as a draw from [1, p) (numpy draws low plus
    # a value below high - low), since a call whose lows are all 0 takes half the time.
    highs = [p] * corners + [len(pool)] * n + [p] * phases + [p - 1] * lam_now
    draws = rng.integers(0, highs).tolist()
    e = ExponentVector(tuple(pool[i] for i in draws[corners : corners + n]))
    weights = UnitWeights()
    if weight_kind == "phase":
        weights = PhaseWeights(draws[corners + n : corners + 2 * n])
    elif weight_kind == "table":
        u = rng.random((n, 2, h))
        weights = TableWeights(u[:, 0] * np.exp(1j * (2 * np.pi * u[:, 1])))
    if lam is None:
        lam = draws[-1] + 1 if lam_now else draw_coprime_lambda(rng, p)
    k = (0,) * n if origin_box else tuple(draws[:n])
    return SumSpec(ctx=ctx, box=Box(k, h), e=e, weights=weights, lam=lam)
