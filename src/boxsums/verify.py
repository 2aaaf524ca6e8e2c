"""The verification suite: every module invariant as a named check.

A check registers with `@check(name)`: the registry builds its CheckResult,
passes it to the check body as `out`, and returns it. The body tallies each
instance with `out.add(residual, *failures)`, which counts the instance, keeps
the running max of the residual (from 0.0; a NaN residual is kept and fails)
and records each failure that is a message; bodies pass `cond and f"..."`, so a
message is formatted only when the check fails. Checks that walk the same grid
share its generator, and each computes its own values. The suite carries a fixed
inventory of check names and refuses to run if the registry does not cover it exactly.
`monomial-factor-agreement` checks the interval kernel of the counts and of the sums'
coordinate pass against `_slow_pow`, an oracle that does not call the built-in `pow`:
its tabulated rows are multiplied over each box as one numpy outer product, apart from
`box_powers` and `monomial_values`.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from functools import wraps
from typing import Callable, Iterable

import numpy as np

from . import bounds, characters, counts, sums
from .characters import MultChar, ResidueDistribution
from .errors import ConfigInvalidError, OutOfRangeError
from .modular import (
    Box, ExponentVector, PrimeContext, box_powers, build_context, monomial_values, pow_mod
)
from .sampling import WEIGHT_KINDS, draw_spec, substream
from .sums import SumSpec, UnitWeights, agreement_tolerance


# Grid primes when a run names none.
DEFAULT_PRIMES = (5, 7, 11, 13, 31, 101)

# Specs per majorant check.
CAUCHY_TRIALS = 1000
HOLDER_TRIALS = 500


@dataclass
class VerifyGrid:
    """Grid parameters shared by the checks, and the prime contexts they build."""

    primes: tuple[int, ...] = DEFAULT_PRIMES
    ns: tuple[int, ...] = (2, 3, 4)
    hs: tuple[int, ...] = (1, 2, 3, 8)
    trials: int = 20
    seed: int = 0
    exponent_pool: tuple[int, ...] = (-2, -1, 1, 2)
    contexts: dict[int, PrimeContext] = field(default_factory=dict, init=False, repr=False, compare=False)

    def hs_for(self, p: int) -> list[int]:
        return sorted({h for h in self.hs if 1 <= h < p})

    def ctx(self, p: int) -> PrimeContext:
        """The context of p, built once per grid, so freed with the grid (one per run)."""
        if p not in self.contexts:
            self.contexts[p] = build_context(p)
        return self.contexts[p]


@dataclass
class CheckResult:
    name: str
    instances: int = 0
    max_residual: float = 0.0
    failures: list[str] = field(default_factory=list)
    report_only: bool = False
    notes: str = ""

    def add(self, residual: float = 0.0, *failures, instances: int = 1) -> None:
        """Tally instances with their worst residual, and keep each failure
        that is a message (a falsy one is a condition that held). A NaN residual,
        which compares false with every tolerance, is a failure and the max from then on."""
        if not residual <= self.max_residual:  # a larger residual, or a NaN on either side
            if math.isnan(residual):
                failures += (f"NaN residual after {self.instances} instances",)
            if not math.isnan(self.max_residual):
                self.max_residual = residual
        self.instances += instances
        self.failures.extend(f for f in failures if f)

    @property
    def passed(self) -> bool:
        return self.report_only or not self.failures


@dataclass
class VerifyReport:
    results: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


CheckFn = Callable[[VerifyGrid, "object"], CheckResult]
CheckBody = Callable[[VerifyGrid, "object", CheckResult], None]
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


def check(name: str) -> Callable[[CheckBody], CheckFn]:
    """Register body as the check `name`, run as CHECKS[name](grid, store)."""

    def deco(body: CheckBody) -> CheckFn:
        @wraps(body)
        def run(grid: VerifyGrid, store) -> CheckResult:
            out = CheckResult(name)
            body(grid, store, out)
            return out

        CHECKS[name] = run
        return run

    return deco


# ---------------------------------------------------------------- modular-core


@check("pow-fermat-inverse")
def _check_fermat(grid: VerifyGrid, store, out: CheckResult) -> None:
    for p in grid.primes:
        for a in range(1, p):
            out.add(
                0.0,
                pow_mod(a, p - 1, p) != 1 and f"a^(p-1) != 1 for a={a}, p={p}",
                a * pow_mod(a, -1, p) % p != 1 and f"a*inv(a) != 1 for a={a}, p={p}",
            )


@check("pow-negative-exponent-inverse")
def _check_pow_neg(grid: VerifyGrid, store, out: CheckResult) -> None:
    for p in grid.primes:
        for a in range(1, p):
            for e in range(-5, 6):
                out.add(0.0, pow_mod(a, e, p) * pow_mod(a, -e, p) % p != 1 and f"a={a}, e={e}, p={p}")


@check("index-bijection")
def _check_index(grid: VerifyGrid, store, out: CheckResult) -> None:
    for p in grid.primes:
        ctx = grid.ctx(p)
        seen = sorted(int(v) for v in ctx.index[1:])
        out.add(0.0, seen != list(range(p - 1)) and f"index not a bijection for p={p}", instances=0)
        for k in range(p - 1):
            out.add(0.0, ctx.index[pow_mod(ctx.g, k, p)] != k and f"index[g^{k}] != {k} for p={p}")


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
def _check_monomial(grid: VerifyGrid, store, out: CheckResult) -> None:
    """The interval kernel that sums and counts run (`box_powers`), through `monomial_values`,
    at each tuple of [1, p-1]^n, against products of tabulated `_slow_pow`."""
    for p in [q for q in grid.primes if q <= 13]:
        ctx = grid.ctx(p)
        oracle = {ej: np.array([_slow_pow(x, ej, p) for x in range(1, p)]) for ej in (-2, -1, 1, 2)}
        for n in (1, 2, 3):
            shape = (p - 1,) * n
            for e in itertools.product(oracle, repeat=n):
                kernel = monomial_values(box_powers(ctx, Box((0,) * n, p - 1), e)[0], p)
                # Products over the tuples of [1, p-1]^n, the last coordinate fastest (< 13^3 in int64).
                want = (np.prod(np.meshgrid(*(oracle[ej] for ej in e), indexing="ij"), axis=0) % p).ravel()
                m = min(len(kernel), len(want))
                # One tally per e: each tuple is an instance, and a message is built only for a mismatch.
                out.add(
                    0.0,
                    len(kernel) != len(want) and f"p={p}, e={e}: {len(kernel)} kernel values, want {len(want)}",
                    *(
                        f"p={p}, x={tuple(int(c) + 1 for c in np.unravel_index(i, shape))}, e={e}"
                        for i in np.flatnonzero(kernel[:m] != want[:m])
                    ),
                    instances=len(want),
                )


# ------------------------------------------------------------------ characters


@check("additive-char-homomorphism")
def _check_additive_hom(grid: VerifyGrid, store, out: CheckResult) -> None:
    for p in grid.primes:
        ctx = grid.ctx(p)
        vals = np.array([characters.additive_char(ctx, z) for z in range(p)])
        mod_res = float(np.abs(np.abs(vals) - 1).max())
        out.add(mod_res, mod_res > 1e-12 and f"|e_p(z)| != 1 at p={p}", instances=0)
        for z1 in range(p):
            prod = vals[z1] * vals
            both = np.array([vals[(z1 + z2) % p] for z2 in range(p)])
            res = float(np.abs(both - prod).max())
            out.add(res, res > 1e-12 and f"homomorphism residual {res:.2e} at p={p}, z1={z1}", instances=p)


@check("mult-char-multiplicative")
def _check_mult_char(grid: VerifyGrid, store, out: CheckResult) -> None:
    for p in [q for q in grid.primes if q <= 31]:
        ctx = grid.ctx(p)
        for a in {1, 2, (p - 1) // 2, p - 2}:
            chi = MultChar(ctx, a)
            t = chi.table()
            x = np.arange(1, p)
            for xv in range(1, p):
                lhs = t[(xv * x) % p]
                rhs = t[xv] * t[x]
                res = float(np.abs(lhs - rhs).max())
                out.add(res, res > 1e-10 and f"p={p}, a={a}, x={xv}, residual {res:.2e}", instances=p - 1)


@check("char-orthogonality")
def _check_orthogonality(grid: VerifyGrid, store, out: CheckResult) -> None:
    for p in grid.primes:
        ctx = grid.ctx(p)
        m = p - 1
        a = np.arange(m)
        for x in range(1, p):
            total = np.exp(2j * np.pi * ((a * ctx.ind(x)) % m) / m).sum()
            want = m if x == 1 else 0.0
            res = abs(total - want)
            out.add(res, res > 1e-8 * p and f"p={p}, x={x}, residual {res:.2e}")


def _random_dists(grid: VerifyGrid, tag: int):
    """Five random complex distributions per grid prime, each from substream(seed, p, tag, i)."""
    for p in grid.primes:
        ctx = grid.ctx(p)
        for i in range(5):
            rng = substream(grid.seed, p, tag, i)
            yield p, i, ResidueDistribution.from_values(ctx, rng.normal(size=p) + 1j * rng.normal(size=p))


@check("spectrum-parseval")
def _check_parseval(grid: VerifyGrid, store, out: CheckResult) -> None:
    for p, i, dist in _random_dists(grid, 9001):
        hat = characters.additive_spectrum(dist)
        lhs = float((np.abs(hat) ** 2).sum())
        rhs = p * float((np.abs(dist.values) ** 2).sum())
        res = abs(lhs - rhs) / rhs
        out.add(res, res > 1e-9 and f"p={p}, trial={i}, rel residual {res:.2e}")


@check("spectrum-method-agreement")
def _check_spectrum_methods(grid: VerifyGrid, store, out: CheckResult) -> None:
    for p, i, dist in _random_dists(grid, 9002):
        direct = characters.spectrum_direct(dist)
        fast = characters.additive_spectrum(dist)
        scale = 1.0 + float(np.abs(direct).max())
        res = float(np.abs(direct - fast).max()) / scale
        out.add(res, res > 1e-8 and f"p={p}, trial={i}, rel residual {res:.2e}")


@check("char-moment-direct-recount")
def _check_char_moment_recount(grid: VerifyGrid, store, out: CheckResult) -> None:
    for p in [q for q in grid.primes if 7 <= q <= 31]:
        ctx = grid.ctx(p)
        for i in range(5):
            rng = substream(grid.seed, p, 9003, i)
            a, h, k, lam = rng.integers([1, 1, 0, 1], [p - 1, min(p, 9), p, p]).tolist()
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
            res = abs(got - want) / (1.0 + want)
            out.add(res, res > 1e-10 and f"p={p}, trial={i}, rel residual {res:.2e}")


# ------------------------------------------------------------------------ sums


def _iter_cells(grid: VerifyGrid) -> Iterable[tuple[int, int, int]]:
    for p in grid.primes:
        for n in grid.ns:
            for h in grid.hs_for(p):
                yield p, n, h


def _cell_specs(grid: VerifyGrid, tag: int, trials: int, kind: str | None = None):
    """(p, n, h, trial, spec, rng) for each cell and trial, drawn from
    substream(seed, p, n, h, trial + tag); the weight kind cycles unless given."""
    for p, n, h in _iter_cells(grid):
        ctx = grid.ctx(p)
        for trial in range(trials):
            rng = substream(grid.seed, p, n, h, trial + tag)
            weights = kind or WEIGHT_KINDS[trial % len(WEIGHT_KINDS)]
            yield p, n, h, trial, draw_spec(rng, ctx, n, h, list(grid.exponent_pool), weights), rng


@check("sum-methods-agree-S")
def _check_agree_s(grid: VerifyGrid, store, out: CheckResult) -> None:
    for p, n, h, trial, spec, rng in _cell_specs(grid, 0, grid.trials):
        if n < 2:  # the bilinear form splits the box in two
            continue
        naive = sums.monomial_sum_naive(spec)
        fast = sums.monomial_sum_bilinear(spec)
        tol = agreement_tolerance(naive.terms)
        res = abs(naive.value - fast.value) / tol
        out.add(
            res * tol,
            res > 1.0 and f"S methods disagree: p={p}, n={n}, h={h}, trial={trial}",
            fast.terms != naive.terms and f"terms disagree: p={p}, n={n}, h={h}, trial={trial}",
        )


@check("sum-methods-agree-T")
def _check_agree_t(grid: VerifyGrid, store, out: CheckResult) -> None:
    for p, n, h, trial, spec, rng in _cell_specs(grid, 10_000, grid.trials):
        if n < 2:  # the split sum splits the box in two
            continue
        chi = MultChar(spec.ctx, int(rng.integers(0, p - 1)))
        naive = sums.character_sum_naive(spec, chi)
        fast = sums.character_sum_split(spec, chi)
        tol = agreement_tolerance(naive.terms)
        res = abs(naive.value - fast.value)
        out.add(res, res > tol and f"T methods disagree: p={p}, n={n}, h={h}, trial={trial}")


@check("trivial-bound")
def _check_trivial(grid: VerifyGrid, store, out: CheckResult) -> None:
    for p, n, h, trial, spec, rng in _cell_specs(grid, 20_000, min(grid.trials, 5), "table"):
        res = sums.monomial_sum_naive(spec)
        broken = not abs(res.value) <= res.terms + 1e-9 or not res.terms <= h**n
        out.add(0.0, broken and f"trivial bound broken: p={p}, n={n}, h={h}")


@check("conjugation-symmetry")
def _check_conj(grid: VerifyGrid, store, out: CheckResult) -> None:
    for p, n, h, trial, spec, rng in _cell_specs(grid, 30_000, min(grid.trials, 5), "unit"):
        mirrored = SumSpec(spec.ctx, spec.box, spec.e, UnitWeights(), p - spec.lam)
        a = sums.monomial_sum_naive(spec)
        b = sums.monomial_sum_naive(mirrored)
        res = abs(b.value - a.value.conjugate())
        tol = agreement_tolerance(a.terms)
        out.add(res, res > tol and f"conjugation broken: p={p}, n={n}, h={h}, trial={trial}")


def _random_spec_stream(grid: VerifyGrid, tag: int, trials: int):
    """Stream of random specs over the grid primes with n in 2..4, h < p."""
    for trial in range(trials):
        rng = substream(grid.seed, tag, trial)
        i, n = rng.integers([0, 2], [len(grid.primes), 5]).tolist()
        p = grid.primes[i]
        ctx = grid.ctx(p)
        h = int(rng.integers(1, min(p, 9)))
        kind = WEIGHT_KINDS[trial % len(WEIGHT_KINDS)]
        yield trial, ctx, draw_spec(rng, ctx, n, h, list(grid.exponent_pool), kind), rng


@check("cauchy-majorant")
def _check_cauchy(grid: VerifyGrid, store, out: CheckResult) -> None:
    for trial, ctx, spec, rng in _random_spec_stream(grid, 40_000, CAUCHY_TRIALS):
        naive = sums.monomial_sum_naive(spec)
        tol = agreement_tolerance(naive.terms)
        slack = abs(naive.value) - sums.cauchy_majorant(spec)
        out.add(slack, slack > tol and f"majorant below |S| at trial {trial}, p={ctx.p}")


@check("holder-majorant")
def _check_holder(grid: VerifyGrid, store, out: CheckResult) -> None:
    for trial, ctx, spec, rng in _random_spec_stream(grid, 50_000, HOLDER_TRIALS):
        chi = MultChar(ctx, int(rng.integers(1, ctx.p - 1)))
        naive = sums.character_sum_naive(spec, chi)
        tol = agreement_tolerance(naive.terms)
        for r, majorant in zip((1, 2, 3), sums.holder_majorant(spec, chi, (1, 2, 3))):
            slack = abs(naive.value) - majorant
            out.add(slack, slack > tol and f"majorant below |T| at trial {trial}, p={ctx.p}, r={r}")


@check("kloosterman-specialization")
def _check_kloosterman(grid: VerifyGrid, store, out: CheckResult) -> None:
    for p, n, h in _iter_cells(grid):
        ctx = grid.ctx(p)
        rng = substream(grid.seed, p, n, h, 60_000)
        *k, lam = rng.integers([0] * n + [1], p).tolist()
        box = Box(tuple(k), h)
        viaK = sums.kloosterman_sum(ctx, box, lam, (0,) * n)
        spec = SumSpec(ctx, box, ExponentVector((-1,) * n), UnitWeights(), lam)
        viaS = sums.monomial_sum_naive(spec)
        broken = viaK.value != viaS.value or viaK.terms != viaS.terms
        out.add(0.0, broken and f"specialization broken: p={p}, n={n}, h={h}")


# ---------------------------------------------------------------------- counts

_COUNT_PRIMES = (5, 7, 11, 13, 31)


@check("count-identity")
def _check_count_identity(grid: VerifyGrid, store, out: CheckResult) -> None:
    for p in _COUNT_PRIMES:
        ctx = grid.ctx(p)
        for nu in (1, 2, 3):
            for h in range(3, min(9, p)):
                for k in (0, 1, -1, p // 2):
                    brute = counts.count_product_pairs_brute(ctx, nu, h, k).value
                    spectral = counts.count_product_pairs_spectral(ctx, nu, h, k)
                    out.add(0.0, spectral.value != brute and f"identity broken: p={p}, nu={nu}, h={h}, k={k}")


def _count_groups(grid: VerifyGrid):
    """(ctx, nu, k, hs) per group of the count checks' grid; h runs inside a group."""
    for p in _COUNT_PRIMES:
        ctx = grid.ctx(p)
        for nu in (1, 2, 3):
            for k in (0, 1, -1, p // 2):
                yield ctx, nu, k, range(1, min(9, p))


@check("count-monotone-h")
def _check_count_monotone(grid: VerifyGrid, store, out: CheckResult) -> None:
    for ctx, nu, k, hs in _count_groups(grid):
        prev = -1
        for h in hs:
            v = counts.count_product_pairs_brute(ctx, nu, h, k).value
            out.add(0.0, v < prev and f"count decreased: p={ctx.p}, nu={nu}, k={k}, h={h}")
            prev = v


@check("count-diagonal-lower")
def _check_count_diagonal(grid: VerifyGrid, store, out: CheckResult) -> None:
    for ctx, nu, k, hs in _count_groups(grid):
        p = ctx.p
        for h in hs:
            v = counts.count_product_pairs_brute(ctx, nu, h, k).value
            delta = 1 if any((x + k) % p == 0 for x in range(1, h + 1)) else 0
            out.add(0.0, v < (h - delta) ** nu and f"diagonal bound broken: p={p}, nu={nu}, k={k}, h={h}")


@check("product-inequality-gcd")
def _check_product_inequality(grid: VerifyGrid, store, out: CheckResult) -> None:
    plain_violations = 0
    pool = [e for e in range(-3, 4) if e != 0]
    # Neither depends on p: every exponent vector and every box, in (h, k) order, built once.
    vectors = [ExponentVector(e) for e in itertools.product(pool, repeat=2)]
    sides, corners = itertools.product((3, 4, 5), repeat=2), list(itertools.product((0, 1), repeat=2))
    boxes = [Box(k, h) for h in sides for k in corners]
    for p in (5, 7, 11, 13):
        ctx = grid.ctx(p)
        # The plain counts I_j for nu = 2, once per side (h_j, k_j) of this p.
        plain = {(h_j, k_j): counts.count_product_pairs_brute(ctx, 2, h_j, k_j).value
                 for h_j in (3, 4, 5) if h_j < p for k_j in (0, 1)}
        for ev in vectors:
            for box in boxes:
                if max(box.sides) >= p:
                    continue
                i_counts = [plain[side] for side in zip(box.sides, box.k)]
                rep = counts.product_inequality_report(ctx, ev, box, i_counts)
                out.add(0.0, not rep.holds_gcd and f"gcd form broken: p={p}, e={ev.e}, h={box.h}, k={box.k}")
                plain_violations += not rep.holds_plain
    if plain_violations:
        out.notes = f"plain-form findings (logged, not failed): {plain_violations}"


def count_growth_ratios(nu: int, context: Callable[[int], PrimeContext] = build_context) -> list[float]:
    """Counts over bounds.count_growth_majorant on the count-growth/nu calibration grid,
    taking each prime's context from `context` (the verify grid passes its own)."""
    ratios = []
    for p in _COUNT_PRIMES + (101,):
        ctx = context(p)
        for h in range(3, min(9, p)):
            for k in (0, 1, -1):
                v = counts.count_product_pairs_brute(ctx, nu, h, k).value
                ratios.append(v / bounds.count_growth_majorant(nu, h, p))
    return ratios


@check("count-growth-regression")
def _check_count_growth(grid: VerifyGrid, store, out: CheckResult) -> None:
    notes = []
    for nu in (2, 3):
        ratios = count_growth_ratios(nu, grid.ctx)
        best = max(ratios)
        key = f"count-growth/nu={nu}"
        cap = store.cap(key) if store is not None else None
        over = cap is not None and best > cap
        out.add(
            best,
            over and f"nu={nu}: ratio {best:.4f} exceeds 2x calibrated {store.constant(key):.4f}",
            instances=len(ratios),
        )
        notes.append(f"nu={nu}: {best:.4f}")
    out.notes = "max ratios " + ", ".join(notes)
    if store is None:
        out.notes += " (no calibration store; record-only)"


@check("count-almost-all-probe")
def _check_count_almost_all(grid: VerifyGrid, store, out: CheckResult) -> None:
    nu, h, k = 2, 6, 0
    lines = []
    for t in (500, 2000):
        ratios = [row.ratio for row in counts.almost_all_rows(nu, h, k, t // 2, t)]
        out.add(max(ratios), instances=len(ratios))
        for c in (0.5, 1.0, 2.0, 4.0):
            frac = sum(r > c for r in ratios) / len(ratios)
            lines.append(f"T={t}, C={c}: violation fraction {frac:.4f}")
    out.report_only = True
    out.notes = "; ".join(lines)


# ---------------------------------------------------------------------- bounds

_BOUND_PRIMES = (101, 1009, 10007)


def _log_grid(p: int) -> list[int]:
    hs = sorted({int(round(p ** (i / 40))) for i in range(1, 40)})
    return [h for h in hs if 1 <= h < p]


def _bound_groups():
    """(selector, n, p) per group of the bound checks' grid: every tabled family and dimension."""
    for selector, dims in bounds.DIMS.items():
        for n in dims:
            for p in _BOUND_PRIMES:
                yield selector, n, p


def _bound_values(selector: str, n: int, p: int, hs: Iterable[int]):
    """(h, bound) for each h of hs inside the family's range."""
    for h in hs:
        try:
            yield h, bounds.bound_value(selector, n, h, p, r=2).value
        except OutOfRangeError:
            continue


@check("bound-monotone-h")
def _check_bound_monotone(grid: VerifyGrid, store, out: CheckResult) -> None:
    for selector, n, p in _bound_groups():
        prev = None
        for h, v in _bound_values(selector, n, p, _log_grid(p)):
            decreased = prev is not None and v < prev * (1 - 1e-12)
            out.add(0.0, decreased and f"{selector}, n={n}, p={p}, h={h}: bound decreased")
            prev = v


@check("bound-nontrivial-range")
def _check_bound_nontrivial(grid: VerifyGrid, store, out: CheckResult) -> None:
    """Above the nontriviality threshold the bound must undercut h^n.

    With a calibration store, the stored max ratio per (selector, n) is the
    constant and violations are hard failures. With the raw constant 1 the
    claim is asymptotic and fails at desk scale (term sums slightly above
    h^n near the threshold), so bare-constant exceptions are findings only.
    """
    raw_findings = 0
    for selector, n, p in _bound_groups():
        stored = store.constant(f"{selector}/n={n}") if store is not None else None
        constant = 1.0 if stored is None else stored
        lo = p ** (bounds.nontrivial_threshold(selector, n) + 0.05)
        for h, v in _bound_values(selector, n, p, [h for h in _log_grid(p) if h >= lo]):
            broken = not constant * v < float(h) ** n
            hard = broken and stored is not None
            out.add(0.0, hard and f"{selector}, n={n}, p={p}, h={h}: bound >= h^n")
            raw_findings += broken and stored is None
    if raw_findings:
        out.notes = f"constant-1 exceptions near threshold (findings): {raw_findings}"


@check("bound-middle-term")
def _check_bound_middle(grid: VerifyGrid, store, out: CheckResult) -> None:
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
                dominates = middle > max(first, last) * (1 + 1e-12)
                out.add(0.0, dominates and f"middle term dominates at p={p}, h={h}")


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
    grid.exponent_pool = tuple(config.exponent_pool)
    return grid


def run_verify(config, store=None, emit=print) -> VerifyReport:
    """Run every registered invariant check over the configured grid."""
    config.validate("verify")
    missing = sorted(set(EXPECTED_INVENTORY) - set(CHECKS))
    extra = sorted(set(CHECKS) - set(EXPECTED_INVENTORY))
    if missing or extra:
        raise ConfigInvalidError(f"check inventory mismatch: missing={missing}, unexpected={extra}")
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
