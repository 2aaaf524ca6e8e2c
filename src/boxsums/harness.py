"""Experiment runner: ratio sweeps against the bound formulas, prime sweeps
probing the almost-all-primes counts, and calibration storage.

Output is deterministic for a fixed config and seed: records are keyed by
(selector, n, p, h, trial) and written in that order; timing columns sit
at the end and are outside the determinism contract.
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
    against 2x the stored values.
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

    def get(self, key: str) -> dict | None:
        return self.entries.get(key)

    def update(self, key: str, max_ratio: float, grid: str, seed: int) -> None:
        old = self.entries.get(key)
        if old is not None:
            max_ratio = max(max_ratio, old["max_ratio"])
        self.entries[key] = {
            "max_ratio": max_ratio,
            "grid": grid,
            "seed": seed,
            "version": ARTIFACT_VERSION,
        }

    def save(self, path: str | None = None) -> None:
        path = path or self.path
        if path is None:
            raise ValueError("no path for calibration store")
        _write_json(self.entries, path)


def threshold_h_values(selector: str, n: int, p: int, width: float = 0.05) -> list[int]:
    """Integer side lengths spanning the nontriviality threshold of the
    bound: exponents alpha-width .. alpha+width, clipped to [2, p-1]."""
    alpha = bounds.nontrivial_threshold(selector, n)
    lo = max(2, math.ceil(p ** (alpha - width)))
    hi = max(lo, math.floor(p ** (alpha + width)))
    hs = sorted({h for h in range(lo, hi + 1) if h < p})
    if len(hs) > 6:  # keep cells tractable; endpoints always included
        step = (len(hs) - 1) / 5
        hs = sorted({hs[round(i * step)] for i in range(6)})
    return hs


def _run_trial(
    selector: str,
    ctx,
    n: int,
    h: int,
    trial: int,
    config: ExperimentConfig,
) -> RatioRecord | None:
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
    is_char = selector not in _S_SELECTORS
    char_index = -1
    t0 = time.perf_counter_ns()
    if is_char:
        char_index = int(rng.integers(1, p - 1))
        chi = MultChar(ctx, char_index)
        result = sums.character_sum_split(spec, chi)
    else:
        result = sums.monomial_sum_bilinear(spec)
    t1 = time.perf_counter_ns()
    try:
        bv = bounds.bound_value(selector, n, h, p, r=config.r)
    except OutOfRangeError:
        return None
    t2 = time.perf_counter_ns()
    abs_sum = abs(result.value)
    # Independent re-check of the trivial bound at emission time.
    if abs_sum > float(h) ** n * (1 + 1e-9):
        raise AssertionError(
            f"|sum|={abs_sum} exceeds trivial bound h^n at p={p}, n={n}, h={h}"
        )
    return RatioRecord(
        selector=selector,
        p=p,
        n=n,
        h=h,
        e=spec.e.e,
        k=spec.box.k,
        lam=lam,
        char_index=char_index,
        abs_sum=abs_sum,
        bound=bv.value,
        ratio=abs_sum / bv.value,
        branch=bv.branch,
        trial=trial,
        eval_ns=t1 - t0,
        bound_ns=t2 - t1,
    )


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
    cells: list[tuple[str, int, int, int]] = []
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
                    cells.append((selector, n, p, h))

    contexts = {p: build_context(p) for p in sorted({c[2] for c in cells})}
    records: list[RatioRecord] = []
    summaries: list[CellSummary] = []
    for selector, n, p, h in cells:
        ratios = []
        for trial in range(config.trials):
            rec = _run_trial(selector, contexts[p], n, h, trial, config)
            if rec is not None:
                records.append(rec)
                ratios.append(rec.ratio)
        if ratios:
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

    @property
    def max_ratio(self) -> float:
        return max(row.ratio for row in self.rows)


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
    if store is not None:
        entry = store.get(f"count-almost-all/nu={nu}")
        if entry is not None:
            constants.append(entry["max_ratio"])
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


def _verify_config(config: ExperimentConfig) -> ExperimentConfig:
    return ExperimentConfig(
        mode="verify",
        primes=config.primes or list(DEFAULT_PRIMES),
        seed=config.seed,
        trials=5,
    )


def theorem_ratio_sweep(selector: str, n: int, config: ExperimentConfig) -> list[RatioRecord]:
    """Sweep records of one family and n over CALIBRATION_PRIMES at the threshold-spanning
    side lengths, with the config's seed, trials, weights, exponent pool and r."""
    sweep_cfg = ExperimentConfig(
        mode="sweep",
        primes=list(CALIBRATION_PRIMES),
        n=[n],
        bounds=[selector],
        trials=config.trials,
        seed=config.seed,
        weights=config.weights,
        exponent_pool=config.exponent_pool,
        r=config.r,
    )
    return run_sweep(sweep_cfg).records


def char_moment_shape_ratio(seed: int, r: int) -> float:
    """Max of char_moment over bounds.char_moment_shape, 10 seeded samples per prime."""
    best = 0.0
    for p in _MOMENT_PRIMES:
        ctx = build_context(p)
        for i in range(10):
            rng = substream(seed, p, 70_000, r, i)
            a = int(rng.integers(1, p - 1))
            h = int(rng.integers(3, p))
            k = int(rng.integers(0, p))
            lam = draw_coprime_lambda(rng, p)
            moment = characters.char_moment(MultChar(ctx, a), k, h, lam, None, r)
            best = max(best, moment / bounds.char_moment_shape(r, h, p))
    return best


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
    report = run_verify(_verify_config(config), store=None, emit=lambda line: None)
    if not report.passed:
        raise VerifyNotGreenError("verification suite is not green")

    # Theorem-ratio maxima over the threshold-spanning grid.
    for selector in CALIBRATED_SELECTORS:
        for n in bounds.DIMS[selector]:
            records = theorem_ratio_sweep(selector, n, config)
            if not records:
                continue
            max_ratio = max(r.ratio for r in records)
            grid = f"p={CALIBRATION_PRIMES}, threshold +-0.05, trials={config.trials}"
            store.update(f"{selector}/n={n}", max_ratio, grid, config.seed)
            emit(f"calibrated {selector}/n={n}: max ratio {max_ratio:.6f}")

    # Character-moment shape constants.
    for r in (1, 2):
        best = char_moment_shape_ratio(config.seed, r)
        store.update(
            f"char-moment/r={r}", best, f"p={_MOMENT_PRIMES}, 10 samples each", config.seed
        )
        emit(f"calibrated char-moment/r={r}: max ratio {best:.6f}")

    # Product-count growth constants.
    for nu in (2, 3):
        best = max(count_growth_ratios(nu))
        store.update(f"count-growth/nu={nu}", best, "p<=101, h=3..8, k in {0,1,-1}", config.seed)
        emit(f"calibrated count-growth/nu={nu}: max ratio {best:.6f}")

    # Almost-all-primes count constant (drives the prime-sweep ladder).
    sweep_cfg = ExperimentConfig(
        mode="prime-sweep", prime_range=(250, 500), nu=2, h=[6], k=0, seed=config.seed
    )
    report = run_prime_sweep(sweep_cfg)
    store.update("count-almost-all/nu=2", report.max_ratio, "primes in [250,500], h=6", config.seed)
    emit(f"calibrated count-almost-all/nu=2: max ratio {report.max_ratio:.6f}")

    if store.path is not None:
        store.save()
    return store
