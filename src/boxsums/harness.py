"""Experiment runner: ratio sweeps against the bound formulas, prime sweeps
probing the almost-all-primes counts, and calibration storage.

Output is deterministic for a fixed config and seed: records are keyed by
(selector, n, p, h, trial) and written in that order; timing columns sit
at the end and are outside the determinism contract. A sweep draws and
evaluates each (kind, n, p, h, trial) instance once, kind being monomial or
character sum; every family whose cell holds it shares that evaluation and
its eval_ns, and adds its own bound, ratio, branch and bound_ns.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, astuple, dataclass, field, fields

from . import bounds, characters, counts, sums
from .characters import MultChar
from .config import ExperimentConfig
from .errors import ConfigInvalidError, OutOfRangeError, VerifyNotGreenError
from .modular import build_context
from .sampling import draw_coprime_lambda, draw_spec, substream
from .verify import DEFAULT_PRIMES, count_growth_ratios, run_verify

ARTIFACT_VERSION = "0.1.0"

_S_SELECTORS = (bounds.S_ALL, bounds.S_ALMOST)

# Default sweep dimensions: bounds.DIMS, but t-moment-almost stays at n <= 4
# because the benchmark's stored sweep-t reference pins those records.
_SWEEP_DIMS = {**bounds.DIMS, bounds.T_MOMENT_ALMOST: (2, 3, 4)}

# Workload guard: skip cells whose naive box has more tuples than this.
_MAX_CELL_TUPLES = 2_000_000


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass
class RatioRecord:
    """One sweep trial: parameters, |sum|, bound, and their ratio."""

    selector: str
    p: int
    n: int
    h: int
    e: tuple[int, ...]
    k: tuple[int, ...]
    lam: int
    char_index: int  # -1 for monomial sums
    abs_sum: float
    bound: float
    ratio: float
    branch: str
    trial: int
    eval_ns: int = 0
    bound_ns: int = 0


# The sweep's columns, in RatioRecord's field order; lam is written as lambda.
CSV_FIELDS = tuple("lambda" if f.name == "lam" else f.name for f in fields(RatioRecord))


def _cell(value) -> str:
    if isinstance(value, tuple):
        return ";".join(map(str, value))
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _write_csv(header, rows, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, astuple(row))) + "\n")


def _write_json(payload, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_records_csv(records: list[RatioRecord], path: str) -> None:
    _write_csv(CSV_FIELDS, records, path)


def write_records_json(records: list[RatioRecord], path: str) -> None:
    _write_json([dict(zip(CSV_FIELDS, astuple(rec))) for rec in records], path)


class CalibrationStore:
    """Append-only store of max observed ratios, keyed per experiment.

    Stored maxima never decrease; regressions compare fresh maxima
    against cap(key), 2x the stored value.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self.entries: dict[str, dict] = {}
        if path is not None:
            try:
                with open(path, encoding="utf-8") as fh:
                    self.entries = json.load(fh)
            except FileNotFoundError:
                pass

    def constant(self, key: str) -> float | None:
        """The stored max ratio, or None if the key was never calibrated."""
        return self.entries.get(key, {}).get("max_ratio")

    def cap(self, key: str) -> float | None:
        """The regression cap, 2x the stored max ratio, or None."""
        constant = self.constant(key)
        return None if constant is None else 2 * constant

    def update(self, key: str, max_ratio: float, grid: str, seed: int) -> None:
        old = self.constant(key)
        if old is not None:
            max_ratio = max(max_ratio, old)
        self.entries[key] = {
            "max_ratio": max_ratio,
            "grid": grid,
            "seed": seed,
            "version": ARTIFACT_VERSION,
        }

    def save(self) -> None:
        if self.path is None:
            raise ValueError("no path for calibration store")
        _write_json(self.entries, self.path)


def threshold_h_values(selector: str, n: int, p: int) -> list[int]:
    """Integer side lengths spanning the nontriviality threshold alpha of the
    bound: h = p^(alpha-0.05) .. p^(alpha+0.05), clipped to [2, p-1]."""
    alpha = bounds.nontrivial_threshold(selector, n)
    lo = max(2, math.ceil(p ** (alpha - 0.05)))
    hi = max(lo, math.floor(p ** (alpha + 0.05)))
    hs = sorted({h for h in range(lo, hi + 1) if h < p})
    if len(hs) > 6:  # keep cells tractable; endpoints always included
        step = (len(hs) - 1) / 5
        hs = sorted({hs[round(i * step)] for i in range(6)})
    return hs


@dataclass(frozen=True)
class _Evaluation:
    """One drawn and evaluated instance, shared by every family whose cell holds it."""

    e: tuple[int, ...]
    k: tuple[int, ...]
    lam: int
    char_index: int  # -1 for monomial sums
    abs_sum: float
    eval_ns: int


def _evaluate(is_char: bool, ctx, n: int, h: int, trial: int, config: ExperimentConfig) -> _Evaluation:
    p = ctx.p
    rng = substream(config.seed, p, n, h, trial)
    fixed = config.lambda_policy == "fixed"
    lam = config.lambda_value % p if fixed else draw_coprime_lambda(rng, p)
    spec = draw_spec(
        rng,
        ctx,
        n,
        h,
        config.exponent_pool,
        config.weights,
        origin_box=(trial == 0),
        lam=lam,
    )
    char_index = -1
    t0 = time.perf_counter_ns()
    if is_char:
        char_index = int(rng.integers(1, p - 1))
        chi = MultChar(ctx, char_index)
        result = sums.character_sum_split(spec, chi)
    else:
        result = sums.monomial_sum_bilinear(spec)
    t1 = time.perf_counter_ns()
    abs_sum = abs(result.value)
    # Independent re-check of the trivial bound at emission time.
    if abs_sum > float(h) ** n * (1 + 1e-9):
        raise AssertionError(
            f"|sum|={abs_sum} exceeds trivial bound h^n at p={p}, n={n}, h={h}"
        )
    return _Evaluation(spec.e.e, spec.box.k, lam, char_index, abs_sum, t1 - t0)


@dataclass
class CellSummary:
    selector: str
    p: int
    n: int
    h: int
    max_ratio: float
    mean_ratio: float
    trials: int


@dataclass
class SweepResult:
    records: list[RatioRecord]
    summaries: list[CellSummary]
    warnings: list[str] = field(default_factory=list)


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Seeded ratio sweep of |sum| against the selected bound formulas."""
    config.validate("sweep")
    selectors = config.bounds or [bounds.S_ALL]

    warnings: list[str] = []
    cells: list[tuple[str, int, int, int, bounds.BoundValue, int]] = []
    for selector in selectors:
        dims = config.n or _SWEEP_DIMS[selector]
        for n in dims:
            if n not in bounds.DIMS[selector]:
                warnings.append(f"skipping n={n} for {selector}: unsupported dimension")
                continue
            for p in config.primes:
                hs = config.h or threshold_h_values(selector, n, p)
                for h in hs:
                    if h >= p:
                        warnings.append(f"skipping cell p={p}, h={h}: h >= p")
                        continue
                    if float(h) ** n > _MAX_CELL_TUPLES:
                        warnings.append(f"skipping cell p={p}, n={n}, h={h}: too large")
                        continue
                    t0 = time.perf_counter_ns()
                    try:
                        bv = bounds.bound_value(selector, n, h, p, r=config.r)
                    except OutOfRangeError:
                        warnings.append(
                            f"skipping cell p={p}, n={n}, h={h}: below the {selector} bound's range"
                        )
                        continue
                    cells.append((selector, n, p, h, bv, time.perf_counter_ns() - t0))

    contexts = {p: build_context(p) for p in sorted({c[2] for c in cells})}
    records: list[RatioRecord] = []
    summaries: list[CellSummary] = []
    # A trial's instance depends on (kind, n, p, h, trial) alone, so families whose cells
    # coincide share one evaluation of each sum.
    evaluations: dict[tuple[bool, int, int, int, int], _Evaluation] = {}
    for selector, n, p, h, bv, bound_ns in cells:
        is_char = selector not in _S_SELECTORS
        ratios = []
        for trial in range(config.trials):
            key = (is_char, n, p, h, trial)
            if key not in evaluations:
                evaluations[key] = _evaluate(is_char, contexts[p], n, h, trial, config)
            ev = evaluations[key]
            rec = RatioRecord(
                selector=selector, p=p, n=n, h=h, bound=bv.value, ratio=ev.abs_sum / bv.value,
                branch=bv.branch, trial=trial, bound_ns=bound_ns, **vars(ev),
            )
            records.append(rec)
            ratios.append(rec.ratio)
        mean = sum(ratios) / len(ratios)
        summaries.append(CellSummary(selector, p, n, h, max(ratios), mean, len(ratios)))
    records.sort(key=lambda r: (r.selector, r.n, r.p, r.h, r.trial))
    return SweepResult(records=records, summaries=summaries, warnings=warnings)


@dataclass
class PrimeSweepReport:
    nu: int
    h: int
    k: int
    rows: list[counts.PrimeSweepRow]
    violation_fractions: dict[str, float]


_CONSTANT_LADDER = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def run_prime_sweep(config: ExperimentConfig, store: CalibrationStore | None = None) -> PrimeSweepReport:
    """Per-prime product-pair counts against the almost-all-primes majorant
    h^nu + h^{2nu-1/2} p^{-1/2}, with a violation-fraction ladder."""
    config.validate("prime-sweep")
    lo, hi = config.prime_range
    nu = config.nu
    h = config.h[0] if config.h else 6
    k = config.k
    rows = counts.almost_all_rows(nu, h, k, lo, hi)
    if not rows:
        raise ConfigInvalidError(f"no usable primes in range [{lo}, {hi}]")
    constants = list(_CONSTANT_LADDER)
    stored = store.constant(f"count-almost-all/nu={nu}") if store is not None else None
    if stored is not None:
        constants.append(stored)
    fractions = {}
    for c in sorted(set(constants)):
        frac = sum(row.ratio > c for row in rows) / len(rows)
        fractions[_fmt(c)] = frac
    return PrimeSweepReport(nu=nu, h=h, k=k, rows=rows, violation_fractions=fractions)


def write_prime_sweep_csv(report: PrimeSweepReport, path: str) -> None:
    _write_csv([f.name for f in fields(counts.PrimeSweepRow)], report.rows, path)


def write_prime_sweep_json(report: PrimeSweepReport, path: str) -> None:
    payload = {
        "nu": report.nu,
        "h": report.h,
        "k": report.k,
        "rows": [asdict(r) for r in report.rows],
        "violation_fractions": report.violation_fractions,
    }
    _write_json(payload, path)


# ------------------------------------------------------------------ calibrate

# Families whose theorem ratios are calibrated, over all their bounds.DIMS.
CALIBRATED_SELECTORS = (bounds.S_ALL, bounds.T_MOMENT, bounds.S_ALMOST)

# The theorem-ratio calibration grid, shared with criterion 7's regression.
CALIBRATION_PRIMES = (101, 1009)
CALIBRATION_TRIALS = 50
_MOMENT_PRIMES = (101, 257)


# The calibrated theorem-ratio keys, one per family and n: "{selector}/n={n}".
THEOREM_KEYS = tuple(f"{s}/n={n}" for s in CALIBRATED_SELECTORS for n in bounds.DIMS[s])


def theorem_ratio_maxima(config: ExperimentConfig) -> list[float]:
    """The max sweep ratio per key of THEOREM_KEYS, in its order, over CALIBRATION_PRIMES at the
    threshold-spanning side lengths, from the config's seed and trials alone: the grid fixes unit
    weights, the default exponent pool and the default r, which no calibrated family reads.
    One joint sweep of every calibrated family (over its whole bounds.DIMS, which the default
    sweep dimensions keep), so families whose cells coincide share each evaluation."""
    sweep_cfg = ExperimentConfig(
        mode="sweep",
        primes=list(CALIBRATION_PRIMES),
        bounds=list(CALIBRATED_SELECTORS),
        trials=config.trials,
        seed=config.seed,
    )
    best: dict[str, float] = {}
    for rec in run_sweep(sweep_cfg).records:
        key = f"{rec.selector}/n={rec.n}"
        best[key] = max(best.get(key, rec.ratio), rec.ratio)
    return [best[key] for key in THEOREM_KEYS]


def char_moment_shape_ratio(seed: int, r: int) -> float:
    """Max of char_moment over bounds.char_moment_shape, 10 seeded samples per prime."""
    best = 0.0
    for p in _MOMENT_PRIMES:
        ctx = build_context(p)
        for i in range(10):
            rng = substream(seed, p, 70_000, r, i)
            a, h, k, lam = rng.integers([1, 3, 0, 1], [p - 1, p, p, p]).tolist()
            moment = characters.char_moment(MultChar(ctx, a), k, h, lam, None, r)
            best = max(best, moment / bounds.char_moment_shape(r, h, p))
    return best


# Every calibrated metric: (keys, grid label, fresh), where fresh(config) is the list of
# the keys' max ratios, in their order; a label's {trials} is filled from the config.
CALIBRATED = (
    (THEOREM_KEYS, f"p={CALIBRATION_PRIMES}, threshold +-0.05, trials={{trials}}", theorem_ratio_maxima),
    *(((f"char-moment/r={r}",), f"p={_MOMENT_PRIMES}, 10 samples each",
       lambda config, r=r: [char_moment_shape_ratio(config.seed, r)]) for r in (1, 2)),
    *(((f"count-growth/nu={nu}",), "p<=101, h=3..8, k in {{0,1,-1}}",
       lambda config, nu=nu: [max(count_growth_ratios(nu))]) for nu in (2, 3)),
    # The almost-all-primes constant, which joins the prime-sweep ladder.
    (("count-almost-all/nu=2",), "primes in [250,500], h=6",
     lambda config: [max(row.ratio for row in counts.almost_all_rows(2, 6, 0, 250, 500))]),
)


def run_calibrate(
    config: ExperimentConfig,
    store: CalibrationStore,
    emit=print,
) -> CalibrationStore:
    """Record max observed ratios per experiment into the store.

    Refuses to calibrate unless the verification suite is green.
    Idempotent for a fixed seed: re-running cannot lower stored maxima.
    """
    config.validate("calibrate")
    gate = ExperimentConfig(
        mode="verify", primes=config.primes or list(DEFAULT_PRIMES), seed=config.seed, trials=5
    )
    report = run_verify(gate, store=None, emit=lambda line: None)
    if not report.passed:
        raise VerifyNotGreenError("verification suite is not green")

    for keys, grid, fresh in CALIBRATED:
        for key, best in zip(keys, fresh(config), strict=True):
            store.update(key, best, grid.format(trials=config.trials), config.seed)
            emit(f"calibrated {key}: max ratio {best:.6f}")

    if store.path is not None:
        store.save()
    return store
