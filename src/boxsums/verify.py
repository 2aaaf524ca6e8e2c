"""The verification suite: every module invariant as a named check.

Each check runs over a configurable grid and reports its instance count
and worst residual. The suite carries a fixed inventory of check names
and refuses to run if the registry does not cover it exactly.
`monomial-factor-agreement` checks both the monomial kernels and `monomial_eval`.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from . import bounds, characters, counts, sums
from .characters import MultChar, ResidueDistribution
from .errors import ConfigInvalidError, OutOfRangeError
from .modular import (
    ExponentVector, build_context, interval_powers, inv_mod, monomial_eval, monomial_values, pow_mod
)
from .sampling import WEIGHT_KINDS, draw_coprime_lambda, draw_spec, substream
from .sums import Box, SumSpec, UnitWeights, agreement_tolerance


# Grid primes when a run names none.
DEFAULT_PRIMES = (5, 7, 11, 13, 31, 101)

# Specs per majorant check.
CAUCHY_TRIALS = 1000
HOLDER_TRIALS = 500


@lru_cache(maxsize=None)
def _ctx(p: int):
    return build_context(p)


@dataclass
class VerifyGrid:
    """Grid parameters shared by the checks."""

    primes: tuple[int, ...] = DEFAULT_PRIMES
    ns: tuple[int, ...] = (2, 3, 4)
    hs: tuple[int, ...] = (1, 2, 3, 8)
    trials: int = 20
    seed: int = 0
    exponent_pool: tuple[int, ...] = (-2, -1, 1, 2)

    def hs_for(self, p: int) -> list[int]:
        return sorted({h for h in self.hs if 1 <= h < p})


@dataclass
class CheckResult:
    name: str
    instances: int
    max_residual: float
    failures: list[str] = field(default_factory=list)
    report_only: bool = False
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.report_only or not self.failures


@dataclass
class VerifyReport:
    results: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1


CheckFn = Callable[[VerifyGrid, "object"], CheckResult]
CHECKS: dict[str, CheckFn] = {}

EXPECTED_INVENTORY = (
    # modular-core
    "pow-fermat-inverse",
    "pow-negative-exponent-inverse",
    "index-bijection",
    "monomial-factor-agreement",
    # characters
    "additive-char-homomorphism",
    "mult-char-multiplicative",
    "char-orthogonality",
    "spectrum-parseval",
    "spectrum-method-agreement",
    "char-moment-direct-recount",
    # sums
    "sum-methods-agree-S",
    "sum-methods-agree-T",
    "trivial-bound",
    "conjugation-symmetry",
    "cauchy-majorant",
    "holder-majorant",
    "kloosterman-specialization",
    # counts
    "count-identity",
    "count-monotone-h",
    "count-diagonal-lower",
    "product-inequality-gcd",
    "count-growth-regression",
    "count-almost-all-probe",
    # bounds
    "bound-monotone-h",
    "bound-nontrivial-range",
    "bound-middle-term",
)


def check(name: str) -> Callable[[CheckFn], CheckFn]:
    def deco(fn: CheckFn) -> CheckFn:
        CHECKS[name] = fn
        return fn

    return deco


# ---------------------------------------------------------------- modular-core


@check("pow-fermat-inverse")
def _check_fermat(grid: VerifyGrid, store) -> CheckResult:
    failures, count = [], 0
    for p in grid.primes:
        for a in range(1, p):
            count += 1
            if pow_mod(a, p - 1, p) != 1:
                failures.append(f"a^(p-1) != 1 for a={a}, p={p}")
            if a * inv_mod(a, p) % p != 1:
                failures.append(f"a*inv(a) != 1 for a={a}, p={p}")
    return CheckResult("pow-fermat-inverse", count, 0.0, failures)


@check("pow-negative-exponent-inverse")
def _check_pow_neg(grid: VerifyGrid, store) -> CheckResult:
    failures, count = [], 0
    for p in grid.primes:
        for a in range(1, p):
            for e in range(-5, 6):
                count += 1
                if pow_mod(a, e, p) * pow_mod(a, -e, p) % p != 1:
                    failures.append(f"a={a}, e={e}, p={p}")
    return CheckResult("pow-negative-exponent-inverse", count, 0.0, failures)


@check("index-bijection")
def _check_index(grid: VerifyGrid, store) -> CheckResult:
    failures, count = [], 0
    for p in grid.primes:
        ctx = _ctx(p)
        seen = sorted(int(v) for v in ctx.index[1:])
        if seen != list(range(p - 1)):
            failures.append(f"index not a bijection for p={p}")
        for k in range(p - 1):
            count += 1
            if ctx.index[pow_mod(ctx.g, k, p)] != k:
                failures.append(f"index[g^{k}] != {k} for p={p}")
    return CheckResult("index-bijection", count, 0.0, failures)


def _slow_pow(x: int, e: int, p: int) -> int:
    """Independent oracle: repeated multiplication, inverse by search."""
    base = x % p
    if e < 0:
        base = next(b for b in range(1, p) if base * b % p == 1)
        e = -e
    acc = 1
    for _ in range(e):
        acc = acc * base % p
    return acc


@check("monomial-factor-agreement")
def _check_monomial(grid: VerifyGrid, store) -> CheckResult:
    """Both the kernels every sum and count runs (`interval_powers`, `monomial_values`) and
    `monomial_eval`, at each tuple of [1, p-1]^n, against products of tabulated `_slow_pow`."""
    failures, count = [], 0
    for p in [q for q in grid.primes if q <= 13]:
        ctx = _ctx(p)
        oracle = {ej: [_slow_pow(x, ej, p) for x in range(1, p)] for ej in (-2, -1, 1, 2)}
        for n in (1, 2, 3):
            for e in itertools.product(oracle, repeat=n):
                ev = ExponentVector(e)
                kernel = monomial_values([interval_powers(0, p - 1, ej, p)[1] for ej in e], p).tolist()
                want = [math.prod(f) % p for f in itertools.product(*(oracle[ej] for ej in e))]
                if len(kernel) != len(want):
                    failures.append(f"p={p}, e={e}: {len(kernel)} kernel values, want {len(want)}")
                count += len(want)
                for x, got, w in zip(itertools.product(range(1, p), repeat=n), kernel, want):
                    if got != w or monomial_eval(ctx, x, ev) != w:
                        failures.append(f"p={p}, x={x}, e={e}")
    return CheckResult("monomial-factor-agreement", count, 0.0, failures)


# ------------------------------------------------------------------ characters


@check("additive-char-homomorphism")
def _check_additive_hom(grid: VerifyGrid, store) -> CheckResult:
    failures, count, worst = [], 0, 0.0
    for p in grid.primes:
        ctx = _ctx(p)
        vals = np.array([characters.additive_char(ctx, z) for z in range(p)])
        mod_res = float(np.abs(np.abs(vals) - 1).max())
        worst = max(worst, mod_res)
        if mod_res > 1e-12:
            failures.append(f"|e_p(z)| != 1 at p={p}")
        for z1 in range(p):
            prod = vals[z1] * vals
            both = np.array([vals[(z1 + z2) % p] for z2 in range(p)])
            count += p
            res = float(np.abs(both - prod).max())
            worst = max(worst, res)
            if res > 1e-12:
                failures.append(f"homomorphism residual {res:.2e} at p={p}, z1={z1}")
    return CheckResult("additive-char-homomorphism", count, worst, failures)


@check("mult-char-multiplicative")
def _check_mult_char(grid: VerifyGrid, store) -> CheckResult:
    failures, count, worst = [], 0, 0.0
    for p in [q for q in grid.primes if q <= 31]:
        ctx = _ctx(p)
        for a in {1, 2, (p - 1) // 2, p - 2}:
            chi = MultChar(ctx, a)
            t = chi.table()
            x = np.arange(1, p)
            for xv in range(1, p):
                count += p - 1
                lhs = t[(xv * x) % p]
                rhs = t[xv] * t[x]
                res = float(np.abs(lhs - rhs).max())
                worst = max(worst, res)
                if res > 1e-10:
                    failures.append(f"p={p}, a={a}, x={xv}, residual {res:.2e}")
    return CheckResult("mult-char-multiplicative", count, worst, failures)


@check("char-orthogonality")
def _check_orthogonality(grid: VerifyGrid, store) -> CheckResult:
    failures, count, worst = [], 0, 0.0
    for p in grid.primes:
        ctx = _ctx(p)
        m = p - 1
        a = np.arange(m)
        for x in range(1, p):
            count += 1
            total = np.exp(2j * np.pi * ((a * ctx.ind(x)) % m) / m).sum()
            want = m if x == 1 else 0.0
            res = abs(total - want)
            worst = max(worst, res)
            if res > 1e-8 * p:
                failures.append(f"p={p}, x={x}, residual {res:.2e}")
    return CheckResult("char-orthogonality", count, worst, failures)


@check("spectrum-parseval")
def _check_parseval(grid: VerifyGrid, store) -> CheckResult:
    failures, count, worst = [], 0, 0.0
    for p in grid.primes:
        ctx = _ctx(p)
        for i in range(5):
            rng = substream(grid.seed, p, 9001, i)
            vals = rng.normal(size=p) + 1j * rng.normal(size=p)
            dist = ResidueDistribution(ctx, vals)
            hat = characters.additive_spectrum(dist)
            lhs = float((np.abs(hat) ** 2).sum())
            rhs = p * float((np.abs(vals) ** 2).sum())
            count += 1
            res = abs(lhs - rhs) / rhs
            worst = max(worst, res)
            if res > 1e-9:
                failures.append(f"p={p}, trial={i}, rel residual {res:.2e}")
    return CheckResult("spectrum-parseval", count, worst, failures)


@check("spectrum-method-agreement")
def _check_spectrum_methods(grid: VerifyGrid, store) -> CheckResult:
    failures, count, worst = [], 0, 0.0
    for p in grid.primes:
        ctx = _ctx(p)
        for i in range(5):
            rng = substream(grid.seed, p, 9002, i)
            vals = rng.normal(size=p) + 1j * rng.normal(size=p)
            dist = ResidueDistribution(ctx, vals)
            direct = characters.additive_spectrum(dist, "direct")
            fast = characters.additive_spectrum(dist, "fast")
            count += 1
            scale = 1.0 + float(np.abs(direct).max())
            res = float(np.abs(direct - fast).max()) / scale
            worst = max(worst, res)
            if res > 1e-8:
                failures.append(f"p={p}, trial={i}, rel residual {res:.2e}")
    return CheckResult("spectrum-method-agreement", count, worst, failures)


@check("char-moment-direct-recount")
def _check_char_moment_recount(grid: VerifyGrid, store) -> CheckResult:
    failures, count, worst = [], 0, 0.0
    for p in [q for q in grid.primes if 7 <= q <= 31]:
        ctx = _ctx(p)
        for i in range(5):
            rng = substream(grid.seed, p, 9003, i)
            a = int(rng.integers(1, p - 1))
            h = int(rng.integers(1, min(p, 9)))
            k = int(rng.integers(0, p))
            lam = draw_coprime_lambda(rng, p)
            rho = rng.uniform(0, 1, size=h) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=h))
            chi = MultChar(ctx, a)
            got = characters.char_moment(chi, k, h, lam, rho, r=1)
            # Independent recount: scalar double loop via cmath, no tables.
            m = p - 1
            want = 0.0
            for u in range(1, p):
                inner = 0j
                for idx, x in enumerate(range(k + 1, k + h + 1)):
                    arg = (u * x + lam) % p
                    if arg == 0:
                        continue
                    ind = ctx.ind(arg)
                    inner += complex(rho[idx]) * cmath.exp(2j * cmath.pi * ((a * ind) % m) / m)
                want += abs(inner) ** 2
            count += 1
            res = abs(got - want) / (1.0 + want)
            worst = max(worst, res)
            if res > 1e-10:
                failures.append(f"p={p}, trial={i}, rel residual {res:.2e}")
    return CheckResult("char-moment-direct-recount", count, worst, failures)


# ------------------------------------------------------------------------ sums


def _iter_cells(grid: VerifyGrid) -> Iterable[tuple[int, int, int]]:
    for p in grid.primes:
        for n in grid.ns:
            for h in grid.hs_for(p):
                yield p, n, h


@check("sum-methods-agree-S")
def _check_agree_s(grid: VerifyGrid, store) -> CheckResult:
    failures, count, worst = [], 0, 0.0
    for p, n, h in _iter_cells(grid):
        if n < 2:
            continue
        ctx = _ctx(p)
        for trial in range(grid.trials):
            rng = substream(grid.seed, p, n, h, trial)
            kind = WEIGHT_KINDS[trial % len(WEIGHT_KINDS)]
            spec = draw_spec(rng, ctx, n, h, list(grid.exponent_pool), kind)
            naive = sums.monomial_sum_naive(spec)
            fast = sums.monomial_sum_bilinear(spec)
            count += 1
            tol = agreement_tolerance(naive.terms)
            res = abs(naive.value - fast.value) / tol
            worst = max(worst, res * tol)
            if res > 1.0:
                failures.append(f"S methods disagree: p={p}, n={n}, h={h}, trial={trial}")
            if fast.terms != naive.terms:
                failures.append(f"terms disagree: p={p}, n={n}, h={h}, trial={trial}")
    return CheckResult("sum-methods-agree-S", count, worst, failures)


@check("sum-methods-agree-T")
def _check_agree_t(grid: VerifyGrid, store) -> CheckResult:
    failures, count, worst = [], 0, 0.0
    for p, n, h in _iter_cells(grid):
        if n < 2:
            continue
        ctx = _ctx(p)
        for trial in range(grid.trials):
            rng = substream(grid.seed, p, n, h, trial + 10_000)
            kind = WEIGHT_KINDS[trial % len(WEIGHT_KINDS)]
            spec = draw_spec(rng, ctx, n, h, list(grid.exponent_pool), kind)
            chi = MultChar(ctx, int(rng.integers(0, p - 1)))
            naive = sums.character_sum_naive(spec, chi)
            fast = sums.character_sum_split(spec, chi)
            count += 1
            tol = agreement_tolerance(naive.terms)
            res = abs(naive.value - fast.value)
            worst = max(worst, res)
            if res > tol:
                failures.append(f"T methods disagree: p={p}, n={n}, h={h}, trial={trial}")
    return CheckResult("sum-methods-agree-T", count, worst, failures)


@check("trivial-bound")
def _check_trivial(grid: VerifyGrid, store) -> CheckResult:
    failures, count = [], 0
    for p, n, h in _iter_cells(grid):
        ctx = _ctx(p)
        for trial in range(min(grid.trials, 5)):
            rng = substream(grid.seed, p, n, h, trial + 20_000)
            spec = draw_spec(rng, ctx, n, h, list(grid.exponent_pool), "table")
            res = sums.monomial_sum_naive(spec)
            count += 1
            if not abs(res.value) <= res.terms + 1e-9 or not res.terms <= h**n:
                failures.append(f"trivial bound broken: p={p}, n={n}, h={h}")
    return CheckResult("trivial-bound", count, 0.0, failures)


@check("conjugation-symmetry")
def _check_conj(grid: VerifyGrid, store) -> CheckResult:
    failures, count, worst = [], 0, 0.0
    for p, n, h in _iter_cells(grid):
        ctx = _ctx(p)
        for trial in range(min(grid.trials, 5)):
            rng = substream(grid.seed, p, n, h, trial + 30_000)
            spec = draw_spec(rng, ctx, n, h, list(grid.exponent_pool), "unit")
            mirrored = SumSpec(ctx, spec.box, spec.e, UnitWeights(), p - spec.lam)
            a = sums.monomial_sum_naive(spec)
            b = sums.monomial_sum_naive(mirrored)
            count += 1
            res = abs(b.value - a.value.conjugate())
            worst = max(worst, res)
            if res > agreement_tolerance(a.terms):
                failures.append(f"conjugation broken: p={p}, n={n}, h={h}, trial={trial}")
    return CheckResult("conjugation-symmetry", count, worst, failures)


def _random_spec_stream(grid: VerifyGrid, tag: int, trials: int):
    """Stream of random specs over the grid primes with n in 2..4, h < p."""
    for trial in range(trials):
        rng = substream(grid.seed, tag, trial)
        p = grid.primes[int(rng.integers(0, len(grid.primes)))]
        ctx = _ctx(p)
        n = int(rng.integers(2, 5))
        h = int(rng.integers(1, min(p, 9)))
        kind = WEIGHT_KINDS[trial % len(WEIGHT_KINDS)]
        yield trial, ctx, draw_spec(rng, ctx, n, h, list(grid.exponent_pool), kind), rng


@check("cauchy-majorant")
def _check_cauchy(grid: VerifyGrid, store) -> CheckResult:
    failures, count, worst = [], 0, 0.0
    for trial, ctx, spec, rng in _random_spec_stream(grid, 40_000, CAUCHY_TRIALS):
        naive = sums.monomial_sum_naive(spec)
        maj = sums.cauchy_majorant(spec)
        count += 1
        tol = agreement_tolerance(naive.terms)
        slack = abs(naive.value) - maj
        worst = max(worst, slack)
        if slack > tol:
            failures.append(f"majorant below |S| at trial {trial}, p={ctx.p}")
    return CheckResult("cauchy-majorant", count, worst, failures)


@check("holder-majorant")
def _check_holder(grid: VerifyGrid, store) -> CheckResult:
    failures, count, worst = [], 0, 0.0
    for trial, ctx, spec, rng in _random_spec_stream(grid, 50_000, HOLDER_TRIALS):
        chi = MultChar(ctx, int(rng.integers(1, ctx.p - 1)))
        naive = sums.character_sum_naive(spec, chi)
        tol = agreement_tolerance(naive.terms)
        for r in (1, 2, 3):
            maj = sums.holder_majorant(spec, chi, r)
            count += 1
            slack = abs(naive.value) - maj
            worst = max(worst, slack)
            if slack > tol:
                failures.append(f"majorant below |T| at trial {trial}, p={ctx.p}, r={r}")
    return CheckResult("holder-majorant", count, worst, failures)


@check("kloosterman-specialization")
def _check_kloosterman(grid: VerifyGrid, store) -> CheckResult:
    failures, count = [], 0
    for p in grid.primes:
        ctx = _ctx(p)
        for n in grid.ns:
            for h in grid.hs_for(p):
                rng = substream(grid.seed, p, n, h, 60_000)
                box = Box(tuple(int(v) for v in rng.integers(0, p, size=n)), h)
                lam = draw_coprime_lambda(rng, p)
                viaK = sums.kloosterman_sum(ctx, box, lam, (0,) * n)
                spec = SumSpec(ctx, box, ExponentVector((-1,) * n), UnitWeights(), lam)
                viaS = sums.monomial_sum_naive(spec)
                count += 1
                if viaK.value != viaS.value or viaK.terms != viaS.terms:
                    failures.append(f"specialization broken: p={p}, n={n}, h={h}")
    return CheckResult("kloosterman-specialization", count, 0.0, failures)


# ---------------------------------------------------------------------- counts

_COUNT_PRIMES = (5, 7, 11, 13, 31)


@check("count-identity")
def _check_count_identity(grid: VerifyGrid, store) -> CheckResult:
    failures, count, worst = [], 0, 0.0
    for p in _COUNT_PRIMES:
        ctx = _ctx(p)
        for nu in (1, 2, 3):
            for h in range(3, 9):
                if h >= p:
                    continue
                for k in (0, 1, -1, p // 2):
                    brute = counts.count_product_pairs_brute(ctx, nu, h, k).value
                    spectral = counts.count_product_pairs_spectral(ctx, nu, h, k)
                    count += 1
                    if spectral.value != brute:
                        failures.append(f"identity broken: p={p}, nu={nu}, h={h}, k={k}")
    return CheckResult("count-identity", count, worst, failures)


@check("count-monotone-h")
def _check_count_monotone(grid: VerifyGrid, store) -> CheckResult:
    failures, count = [], 0
    for p in _COUNT_PRIMES:
        ctx = _ctx(p)
        for nu in (1, 2, 3):
            for k in (0, 1, -1, p // 2):
                prev = -1
                for h in range(1, min(9, p)):
                    v = counts.count_product_pairs_brute(ctx, nu, h, k).value
                    count += 1
                    if v < prev:
                        failures.append(f"count decreased: p={p}, nu={nu}, k={k}, h={h}")
                    prev = v
    return CheckResult("count-monotone-h", count, 0.0, failures)


@check("count-diagonal-lower")
def _check_count_diagonal(grid: VerifyGrid, store) -> CheckResult:
    failures, count = [], 0
    for p in _COUNT_PRIMES:
        ctx = _ctx(p)
        for nu in (1, 2, 3):
            for k in (0, 1, -1, p // 2):
                for h in range(1, min(9, p)):
                    v = counts.count_product_pairs_brute(ctx, nu, h, k).value
                    delta = 1 if any((x + k) % p == 0 for x in range(1, h + 1)) else 0
                    count += 1
                    if v < (h - delta) ** nu:
                        failures.append(f"diagonal bound broken: p={p}, nu={nu}, k={k}, h={h}")
    return CheckResult("count-diagonal-lower", count, 0.0, failures)


@check("product-inequality-gcd")
def _check_product_inequality(grid: VerifyGrid, store) -> CheckResult:
    failures, count = [], 0
    plain_violations = []
    pool = [e for e in range(-3, 4) if e != 0]
    for p in (5, 7, 11, 13):
        ctx = _ctx(p)
        # The plain counts I_j for nu = 2, once per side (h_j, k_j) of this p.
        plain = {(h_j, k_j): counts.count_product_pairs_brute(ctx, 2, h_j, k_j).value
                 for h_j in (3, 4, 5) if h_j < p for k_j in (0, 1)}
        for e in itertools.product(pool, repeat=2):
            for h in itertools.product((3, 4, 5), repeat=2):
                if max(h) >= p:
                    continue
                for k in itertools.product((0, 1), repeat=2):
                    i_counts = [plain[side] for side in zip(h, k)]
                    rep = counts.product_inequality_report(ctx, ExponentVector(e), h, k, i_counts)
                    count += 1
                    if not rep.holds_gcd:
                        failures.append(f"gcd form broken: p={p}, e={e}, h={h}, k={k}")
                    if not rep.holds_plain:
                        plain_violations.append(f"p={p}, e={e}, h={h}, k={k}")
    notes = ""
    if plain_violations:
        notes = f"plain-form findings (logged, not failed): {len(plain_violations)}"
    return CheckResult("product-inequality-gcd", count, 0.0, failures, notes=notes)


def count_growth_ratios(nu: int) -> list[float]:
    """Counts over bounds.count_growth_majorant on the count-growth/nu calibration grid."""
    ratios = []
    for p in _COUNT_PRIMES + (101,):
        ctx = _ctx(p)
        for h in range(3, 9):
            if h >= p:
                continue
            for k in (0, 1, -1):
                v = counts.count_product_pairs_brute(ctx, nu, h, k).value
                ratios.append(v / bounds.count_growth_majorant(nu, h, p))
    return ratios


@check("count-growth-regression")
def _check_count_growth(grid: VerifyGrid, store) -> CheckResult:
    failures, count = [], 0
    per_nu = {}
    for nu in (2, 3):
        ratios = count_growth_ratios(nu)
        best = max(ratios)
        count += len(ratios)
        per_nu[nu] = best
        key = f"count-growth/nu={nu}"
        cap = store.cap(key) if store is not None else None
        if cap is not None and best > cap:
            failures.append(
                f"nu={nu}: ratio {best:.4f} exceeds 2x calibrated {store.constant(key):.4f}"
            )
    notes = "max ratios " + ", ".join(f"nu={k}: {v:.4f}" for k, v in per_nu.items())
    if store is None:
        notes += " (no calibration store; record-only)"
    return CheckResult("count-growth-regression", count, max(per_nu.values()), failures, notes=notes)


@check("count-almost-all-probe")
def _check_count_almost_all(grid: VerifyGrid, store) -> CheckResult:
    nu, h, k = 2, 6, 0
    lines = []
    count = 0
    worst = 0.0
    for t in (500, 2000):
        ratios = [row.ratio for row in counts.almost_all_rows(nu, h, k, t // 2, t)]
        count += len(ratios)
        worst = max(worst, max(ratios))
        for c in (0.5, 1.0, 2.0, 4.0):
            frac = sum(r > c for r in ratios) / len(ratios)
            lines.append(f"T={t}, C={c}: violation fraction {frac:.4f}")
    return CheckResult(
        "count-almost-all-probe", count, worst, [], report_only=True, notes="; ".join(lines)
    )


# ---------------------------------------------------------------------- bounds

_BOUND_PRIMES = (101, 1009, 10007)


def _log_grid(p: int) -> list[int]:
    hs = sorted({int(round(p ** (i / 40))) for i in range(1, 40)})
    return [h for h in hs if 1 <= h < p]


@check("bound-monotone-h")
def _check_bound_monotone(grid: VerifyGrid, store) -> CheckResult:
    failures, count = [], 0
    for selector, dims in bounds.DIMS.items():
        for n in dims:
            for p in _BOUND_PRIMES:
                prev = None
                for h in _log_grid(p):
                    try:
                        v = bounds.bound_value(selector, n, h, p, r=2).value
                    except OutOfRangeError:
                        continue
                    count += 1
                    if prev is not None and v < prev * (1 - 1e-12):
                        failures.append(f"{selector}, n={n}, p={p}, h={h}: bound decreased")
                    prev = v
    return CheckResult("bound-monotone-h", count, 0.0, failures)


@check("bound-nontrivial-range")
def _check_bound_nontrivial(grid: VerifyGrid, store) -> CheckResult:
    """Above the nontriviality threshold the bound must undercut h^n.

    With a calibration store, the stored max ratio per (selector, n) is the
    constant and violations are hard failures. With the raw constant 1 the
    claim is asymptotic and fails at desk scale (term sums slightly above
    h^n near the threshold), so bare-constant exceptions are findings only.
    """
    failures, count = [], 0
    raw_findings = 0
    for selector, dims in bounds.DIMS.items():
        for n in dims:
            alpha = bounds.nontrivial_threshold(selector, n)
            stored = store.constant(f"{selector}/n={n}") if store is not None else None
            constant = 1.0 if stored is None else stored
            for p in _BOUND_PRIMES:
                lo = p ** (alpha + 0.05)
                for h in _log_grid(p):
                    if h < lo:
                        continue
                    try:
                        v = bounds.bound_value(selector, n, h, p, r=2).value
                    except OutOfRangeError:
                        continue
                    count += 1
                    if not constant * v < float(h) ** n:
                        if stored is not None:
                            failures.append(f"{selector}, n={n}, p={p}, h={h}: bound >= h^n")
                        else:
                            raw_findings += 1
    notes = ""
    if raw_findings:
        notes = f"constant-1 exceptions near threshold (findings): {raw_findings}"
    return CheckResult("bound-nontrivial-range", count, 0.0, failures, notes=notes)


@check("bound-middle-term")
def _check_bound_middle(grid: VerifyGrid, store) -> CheckResult:
    failures, count = [], 0
    for p in _BOUND_PRIMES:
        for h in _log_grid(p):
            # Dropped middle terms inside the squared every-prime bounds
            # for n = 4 and n = 6.
            cases = [
                (h**4, h**6 / p, h**8 / p**2),
                (h**6, h**9 * p**-0.75, h**12 * p**-1.5),
            ]
            # Middle term of the almost-all bound for even n.
            cases.extend(bounds.almost_all_terms(n, h, p) for n in (2, 4, 6))
            for first, middle, last in cases:
                count += 1
                if middle > max(first, last) * (1 + 1e-12):
                    failures.append(f"middle term dominates at p={p}, h={h}")
    return CheckResult("bound-middle-term", count, 0.0, failures)


# ---------------------------------------------------------------------- runner


def grid_from_config(config) -> VerifyGrid:
    grid = VerifyGrid()
    grid.primes = tuple(config.primes)
    if config.n:
        grid.ns = tuple(config.n)
    if config.h:
        grid.hs = tuple(config.h)
    grid.trials = config.trials
    grid.seed = config.seed if config.seed is not None else 0
    if config.exponent_pool:
        grid.exponent_pool = tuple(config.exponent_pool)
    return grid


def run_verify(config, store=None, emit=print) -> VerifyReport:
    """Run every registered invariant check over the configured grid."""
    config.validate("verify")
    registered = set(CHECKS)
    expected = set(EXPECTED_INVENTORY)
    if registered != expected:
        missing = sorted(expected - registered)
        extra = sorted(registered - expected)
        raise ConfigInvalidError(
            f"check inventory mismatch: missing={missing}, unexpected={extra}"
        )
    grid = grid_from_config(config)
    results = []
    for name in EXPECTED_INVENTORY:
        result = CHECKS[name](grid, store)
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        if result.report_only:
            status = "INFO"
        line = f"{status} {result.name} instances={result.instances} max_residual={result.max_residual:.3e}"
        if result.notes:
            line += f" [{result.notes}]"
        emit(line)
        for failure in result.failures[:10]:
            emit(f"     {failure}")
    return VerifyReport(results=results)
