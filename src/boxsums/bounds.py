"""Explicit bound formulas for the box sums, as pure functions of (n, h, p, r).

All values are computed with the implied constant and the h^{o(1)} factor
set to 1; empirical calibration constants live in the harness, never here.
Fractional powers go through float exponentiation (relative error ~1e-12).
``DIMS`` is the one table of supported dimensions per bound family, and the
majorants that the calibrated count and moment ratios divide by live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    MomentOrderTooSmallError,
    OutOfRangeError,
    UnsupportedDimensionError,
)

# Selector names for the six bound families.
S_ALL = "s-all"              # monomial sums, every prime, 4 <= n <= 7
T_ALL = "t-all"              # character sums, every prime, 4 <= n <= 7
T_MOMENT = "t-moment"        # character sums via moment estimates, n in {3,4}
S_ALMOST = "s-almost"        # monomial sums, almost all primes, n >= 2
T_ALMOST = "t-almost"        # character sums, almost all primes, n >= 2
T_MOMENT_ALMOST = "t-moment-almost"  # moment version, almost all primes, r >= 2

SELECTORS = (S_ALL, T_ALL, T_MOMENT, S_ALMOST, T_ALMOST, T_MOMENT_ALMOST)

# Dimensions checked per family; the almost-all bounds accept any n >= 2.
DIMS = {
    S_ALL: (4, 5, 6, 7),
    T_ALL: (4, 5, 6, 7),
    T_MOMENT: (3, 4),
    S_ALMOST: (2, 3, 4, 5, 6),
    T_ALMOST: (2, 3, 4, 5, 6),
    T_MOMENT_ALMOST: (2, 3, 4, 5, 6),
}

# Nontriviality exponents of the families with a finite set of dimensions.
_ALPHA = {
    S_ALL: dict(zip(DIMS[S_ALL], (0.25, 0.2, 1 / 6, 1 / 6), strict=True)),
    T_ALL: dict(zip(DIMS[T_ALL], (0.25, 0.2, 1 / 6, 1 / 6), strict=True)),
    T_MOMENT: dict(zip(DIMS[T_MOMENT], (0.25, 1 / 6), strict=True)),
}


@dataclass
class BoundValue:
    """A bound value together with the piecewise branch that produced it."""

    value: float
    branch: str


def count_saving_exponent(nu: int) -> int:
    """The exponent denominator d controlling the product-count saving:
    d = 2 for nu = 2, else max(nu^2-2nu-2, nu^2-3nu+4)."""
    if nu < 2:
        raise ValueError("need nu >= 2")
    if nu == 2:
        return 2
    return max(nu * nu - 2 * nu - 2, nu * nu - 3 * nu + 4)


def monomial_sum_bound_all_primes(n: int, h: int, p: int) -> BoundValue:
    """Every-prime bound for the monomial sums, dimensions 4..7."""
    if n == 4:
        v = h**2 * p**0.5 + h**4 * p**-0.5
    elif n == 5:
        v = h**2.5 * p**0.5 + h**4 * p**0.125 + h**5 * p**-0.375
    elif n == 6:
        v = h**3 * p**0.5 + h**6 * p**-0.25
    elif n == 7:
        v = h**5.5 * p**0.25 + h**7 * p**-0.125
    else:
        raise UnsupportedDimensionError(f"no every-prime bound for n={n}")
    return BoundValue(value=v, branch=f"n={n}")


def character_sum_bound_moment(n: int, h: int, p: int) -> BoundValue:
    """Moment-method bound for character sums, n in {3, 4}, piecewise in h.

    Range boundaries are half-open: each branch covers lower <= h < upper.
    """
    if n == 3:
        if h >= p**0.5:
            return BoundValue(h**2.5, "h>=p^(1/2)")
        if h >= p**0.375:
            return BoundValue(h**1.5 * p**0.5, "p^(3/8)<=h<p^(1/2)")
        if h >= p**0.25:
            return BoundValue(h**2.5 * p**0.125, "p^(1/4)<=h<p^(3/8)")
        raise OutOfRangeError(f"h={h} below p^(1/4) for p={p}")
    if n == 4:
        if h >= p**0.5:
            return BoundValue(h**4 * p**-0.25, "h>=p^(1/2)")
        if h >= p ** (9 / 32):
            return BoundValue(h**2 * p**0.5, "p^(9/32)<=h<p^(1/2)")
        if h >= p**0.25:
            return BoundValue(h**4 * p ** (-1 / 16), "p^(1/4)<=h<p^(9/32)")
        if h >= p ** (2 / 9):
            return BoundValue(h**2.75 * p**0.25, "p^(2/9)<=h<p^(1/4)")
        if h >= p ** (1 / 6):
            return BoundValue(h**3.5 * p ** (1 / 12), "p^(1/6)<=h<p^(2/9)")
        raise OutOfRangeError(f"h={h} below p^(1/6) for p={p}")
    raise UnsupportedDimensionError(f"no moment bound for n={n}")


def almost_all_terms(n: int, h: int, p: int) -> tuple[float, float, float]:
    """Terms h^{n/2} p^{1/2}, h^{n/2+ceil(n/2)/2-1/4} p^{1/4}, h^{n-1/2} of the almost-all bound."""
    t = (n + 1) // 2
    return h ** (n / 2) * p**0.5, h ** (n / 2 + t / 2 - 0.25) * p**0.25, h ** (n - 0.5)


def monomial_sum_bound_almost_all(n: int, h: int, p: int) -> BoundValue:
    """Almost-all-primes bound: the sum of almost_all_terms, for n >= 2."""
    if n < 2:
        raise UnsupportedDimensionError("need n >= 2")
    first, middle, last = almost_all_terms(n, h, p)
    return BoundValue(value=first + middle + last, branch=f"n={n}")


def character_sum_bound_moment_almost_all(n: int, h: int, p: int, r: int) -> BoundValue:
    """Almost-all-primes moment bound, four terms, valid for r >= 2.

    The r = 1 form is always weaker than the plain almost-all bound and
    is rejected.
    """
    if n < 2:
        raise UnsupportedDimensionError("need n >= 2")
    if r < 2:
        raise MomentOrderTooSmallError("moment order r must be >= 2")
    v = (
        h ** (n - 0.5 - (n - 1) / (2 * r)) * p ** (1 / (2 * r))
        + h ** (n - 0.5 - 1 / (4 * r)) * p ** (1 / (4 * r))
        + h ** (n - (n - 1) / (2 * r)) * p ** (1 / (4 * r))
        + h ** (n - 1 / (4 * r))
    )
    return BoundValue(value=v, branch=f"n={n},r={r}")


def bound_value(selector: str, n: int, h: int, p: int, r: int = 2) -> BoundValue:
    """Dispatch to one of the six bound families by selector name; the character
    sums' t-all and t-almost share the displays of s-all and s-almost."""
    if selector in (S_ALL, T_ALL):
        return monomial_sum_bound_all_primes(n, h, p)
    if selector == T_MOMENT:
        return character_sum_bound_moment(n, h, p)
    if selector in (S_ALMOST, T_ALMOST):
        return monomial_sum_bound_almost_all(n, h, p)
    if selector == T_MOMENT_ALMOST:
        return character_sum_bound_moment_almost_all(n, h, p, r)
    raise ValueError(f"unknown bound selector {selector!r}")


def nontrivial_threshold(selector: str, n: int) -> float:
    """Exponent alpha such that the bound beats the trivial h^n once
    h >= p^{alpha+eps}."""
    if selector in _ALPHA:
        if n not in _ALPHA[selector]:
            raise UnsupportedDimensionError(f"no {selector} bound for n={n}")
        return _ALPHA[selector][n]
    if selector not in SELECTORS:
        raise ValueError(f"unknown bound selector {selector!r}")
    if n < 2:
        raise UnsupportedDimensionError("need n >= 2")
    return 1 / (2 * (n - 1)) if selector == T_MOMENT_ALMOST else 1 / n


def count_growth_majorant(nu: int, h: int, p: int) -> float:
    """Growth shape h^nu + h^{2nu} p^{-nu/d} of the product-pair count."""
    d = count_saving_exponent(nu)
    return h**nu + h ** (2 * nu) * p ** (-nu / d)


def count_almost_all_majorant(nu: int, h: int, p: int) -> float:
    """Almost-all-primes majorant h^nu + h^{2nu-1/2} p^{-1/2} of the pair count."""
    return h**nu + h ** (2 * nu - 0.5) * p**-0.5


def char_moment_shape(r: int, h: int, p: int) -> float:
    """Shape of the r-th character moment, r in {1, 2}: h p or h^2 p + h^4 p^{1/2}."""
    return h * p if r == 1 else h * h * p + h**4 * p**0.5
