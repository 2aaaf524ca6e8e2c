"""Acceptance gate: one test per criterion, each emitting a single
pass/fail line. Tolerances and grids are pinned here and must not drift."""

import math
from pathlib import Path

import pytest

from boxsums import bounds, counts, sums
from boxsums.config import ExperimentConfig
from boxsums.harness import (
    CALIBRATED,
    CALIBRATED_SELECTORS,
    CALIBRATION_PRIMES,
    CALIBRATION_TRIALS,
    CalibrationStore,
    run_prime_sweep,
    threshold_h_values,
)
from boxsums.modular import build_context, is_prime
from boxsums.sums import agreement_tolerance
from boxsums.verify import CHECKS, VerifyGrid

SEED = 0
STORE_PATH = Path(__file__).resolve().parent.parent / "calibration" / "seed0.json"


@pytest.fixture(scope="module")
def store():
    s = CalibrationStore(str(STORE_PATH))
    assert s.entries, "calibration store must be committed before acceptance runs"
    return s


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {num} ({name}): {status} — {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_count_identity_exact():
    mismatches = []
    instances = 0
    for p in (5, 7, 11, 13, 31):
        ctx = build_context(p)
        for nu in (1, 2, 3):
            for h in range(3, 9):
                if h >= p:
                    continue
                for k in (0, 1, -1, p // 2):
                    instances += 1
                    brute = counts.count_product_pairs_brute(ctx, nu, h, k).value
                    # The spectral path raises RoundingUnstable when the
                    # pre-rounding residual reaches 0.4, so success here
                    # certifies both equality and the residual budget.
                    spectral = counts.count_product_pairs_spectral(ctx, nu, h, k).value
                    if spectral != brute:
                        mismatches.append((p, nu, h, k, brute, spectral))
    _report(
        1,
        "count identity exact",
        not mismatches,
        f"{instances} cells, {len(mismatches)} mismatches",
    )


def test_criterion_2_method_agreement():
    grid = VerifyGrid(
        primes=(5, 7, 11, 13, 101),
        ns=(2, 3, 4),
        hs=(1, 2, 3, 25),
        trials=20,
        seed=SEED,
    )
    res_s = CHECKS["sum-methods-agree-S"](grid, None)
    res_t = CHECKS["sum-methods-agree-T"](grid, None)
    ok = res_s.passed and res_t.passed
    _report(
        2,
        "method agreement within 1e-9*(1+terms)",
        ok,
        f"S: {res_s.instances} trials, {len(res_s.failures)} failures; "
        f"T: {res_t.instances} trials, {len(res_t.failures)} failures",
    )


def test_criterion_3_cauchy_step():
    grid = VerifyGrid(seed=SEED)
    res = CHECKS["cauchy-majorant"](grid, None)
    _report(
        3,
        "Cauchy majorant dominates on 1000 specs",
        res.passed and res.instances == 1000,
        f"{res.instances} specs, {len(res.failures)} violations, "
        f"max slack {res.max_residual:.3e}",
    )


def test_criterion_4_holder_step():
    grid = VerifyGrid(seed=SEED)
    res = CHECKS["holder-majorant"](grid, None)
    _report(
        4,
        "Holder majorant dominates for r in {1,2,3} on 500 specs",
        res.passed and res.instances == 1500,
        f"{res.instances} (spec, r) pairs, {len(res.failures)} violations, "
        f"max slack {res.max_residual:.3e}",
    )


def test_criterion_5_product_inequality_gcd():
    grid = VerifyGrid(seed=SEED)
    res = CHECKS["product-inequality-gcd"](grid, None)
    _report(
        5,
        "gcd-form product inequality exhaustive",
        res.passed,
        f"{res.instances} cells, {len(res.failures)} gcd violations; {res.notes}",
    )


def _fresh_against_caps(store, family):
    """(key, fresh max ratio, stored cap) per CALIBRATED key that starts with family."""
    cfg = ExperimentConfig(seed=SEED, trials=CALIBRATION_TRIALS)
    rows = []
    for keys, _, fresh in CALIBRATED:
        if any(key.startswith(family) for key in keys):
            for key, best in zip(keys, fresh(cfg), strict=True):
                if key.startswith(family):
                    cap = store.cap(key)
                    assert cap is not None, f"missing calibration for {key}"
                    rows.append((key, best, cap))
    return rows


def test_criterion_6_char_moment_shape(store):
    rows = _fresh_against_caps(store, "char-moment/")
    ok = all(best <= cap for _, best, cap in rows)
    detail = "; ".join(f"{key}: max ratio {best:.4f} vs cap {cap:.4f}" for key, best, cap in rows)
    _report(6, "character-moment shape regression", ok, detail)


def test_criterion_7_theorem_ratio_regression(store):
    rows = _fresh_against_caps(store, tuple(f"{selector}/" for selector in CALIBRATED_SELECTORS))
    breaches = [f"{key}: {best:.4f} > {cap:.4f}" for key, best, cap in rows if best > cap]
    _report(
        7,
        "theorem-ratio regression vs 2x calibration",
        not breaches,
        "; ".join(breaches) if breaches else f"{len(rows)} families within caps",
    )


def test_criterion_8_nontriviality_with_calibrated_constants(store):
    exceptions = []
    cells = 0
    for selector in CALIBRATED_SELECTORS:
        for n in bounds.DIMS[selector]:
            constant = store.constant(f"{selector}/n={n}")
            alpha = bounds.nontrivial_threshold(selector, n)
            for p in CALIBRATION_PRIMES:
                cutoff = p ** (alpha + 0.05)
                # The sweep grid plus explicit points at and above the cutoff,
                # so the check is never vacuous.
                hs = set(threshold_h_values(selector, n, p))
                hs.update(
                    h
                    for h in (math.ceil(cutoff), math.ceil(1.5 * cutoff), 2 * math.ceil(cutoff))
                    if h < p
                )
                for h in sorted(hs):
                    if h < cutoff:
                        continue
                    cells += 1
                    value = bounds.bound_value(selector, n, h, p, r=2).value
                    if not constant * value < float(h) ** n:
                        exceptions.append(f"{selector}/n={n}, p={p}, h={h}")
    _report(
        8,
        "calibrated bound beats trivial above threshold",
        not exceptions,
        f"{cells} cells above threshold, exceptions: {exceptions or 'none'}",
    )


def test_criterion_9_prime_sweep_probe():
    cfg = ExperimentConfig(
        mode="prime-sweep", prime_range=(3, 2000), nu=2, h=[6], k=0, seed=SEED
    )
    first = run_prime_sweep(cfg)
    second = run_prime_sweep(cfg)
    same = [(r.p, r.count, r.ratio) for r in first.rows] == [
        (r.p, r.count, r.ratio) for r in second.rows
    ]
    expected_primes = sum(1 for p in range(7, 2001) if is_prime(p))
    complete = len(first.rows) == expected_primes
    ok = same and complete
    ladder = ", ".join(f"C={c}: {f:.3f}" for c, f in first.violation_fractions.items())
    _report(
        9,
        "prime-sweep probe deterministic and complete (report-only table)",
        ok,
        f"{len(first.rows)} primes; {ladder}",
    )
