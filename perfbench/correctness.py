"""Output checks: a gate against stored reference outputs for the reference
seed, and an independent re-derivation for any other (held-out) seed.

Both count failed ops against the reference's op keys, which do not depend
on the seed: a missing, extra or wrong op fails, and a verify check fails
as many ops as it reports failures (at most its instance count).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from boxsums import bounds, counts, sums
from boxsums.characters import MultChar
from boxsums.modular import ExponentVector, build_context
from boxsums.sums import Box, SumSpec, UnitWeights, agreement_tolerance

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

REL_TOL = 1e-12
# Records re-evaluated with the naive sum on a held-out seed.
NAIVE_SAMPLE = 24


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _close(a: float, b: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), abs_tol)


def _record_params(key: str) -> tuple[str, int, int, int]:
    selector, n, p, h, _ = key.split("|")
    return selector, int(n), int(p), int(h)


def _terms(k: list[int], h: int, p: int) -> int:
    """Tuples of the box with no coordinate divisible by p."""
    out = 1
    for k_j in k:
        out *= h - ((k_j + h) // p - k_j // p)
    return out


def count_failed(got: dict | None, reference: dict, check_op) -> int:
    """Failed ops of one pass; check_op(key, value) -> failed ops of that key."""
    want = reference["outputs"]["weights"]
    if got is None:
        return sum(want.values())
    failed = sum(w for key, w in got["weights"].items() if key not in want)
    for key, weight in want.items():
        if key not in got["ops"]:
            failed += weight
        else:
            failed += min(weight, check_op(key, got["ops"][key]))
    return failed


def identical_to(first: dict):
    """check_op that requires the op to equal the first pass's op."""

    def check_op(key, value):
        return 0 if first["ops"].get(key) == value else first["weights"].get(key, 1)

    return check_op


def _verify_op(reference: dict):
    ref_ops = reference["outputs"]["ops"]

    def check_op(key, value):
        if value["instances"] != ref_ops[key]["instances"]:
            return ref_ops[key]["instances"]
        return 0 if value["passed"] else max(1, value["failures"])

    return check_op


def reference_gate(name: str, reference: dict):
    """check_op comparing one op with the stored reference output."""
    if name == "verify":
        return _verify_op(reference)
    ref_ops = reference["outputs"]["ops"]

    if name == "prime-sweep":

        def check_op(key, value):
            want = ref_ops[key]
            ok = (
                value["count"] == want["count"]
                and _close(value["majorant"], want["majorant"])
                and _close(value["ratio"], want["ratio"])
            )
            return 0 if ok else 1

        return check_op

    def check_op(key, value):
        want = ref_ops[key]
        exact = ("e", "k", "lambda", "char_index", "branch")
        if any(value[f] != want[f] for f in exact):
            return 1
        _, _, p, h = _record_params(key)
        # |sum| below one term's modulus counts as near 0: absolute tolerance.
        tol = agreement_tolerance(_terms(want["k"], h, p)) if want["abs_sum"] < 1.0 else 0.0
        ok = (
            _close(value["abs_sum"], want["abs_sum"], tol)
            and _close(value["bound"], want["bound"])
            and _close(value["ratio"], want["ratio"], tol / want["bound"])
        )
        return 0 if ok else 1

    return check_op


def independent_check(name: str, seed: int, config, got: dict, reference: dict):
    """check_op re-deriving each op without the stored outputs.

    Sweeps: every bound and ratio is recomputed, and a seeded sample of
    records is re-evaluated with the naive sum. Prime sweep: every count is
    checked against the spectral identity. Verify: the suite must pass with
    the reference's per-check instance counts.
    """
    if name == "verify":
        return _verify_op(reference)

    if name == "prime-sweep":
        nu, h, k = config.nu, config.h[0], config.k

        def check_op(key, value):
            ctx = build_context(int(key))
            spectral = counts.count_product_pairs_spectral(ctx, nu, h, k).value
            ratio = value["count"] / value["majorant"]
            ok = value["count"] == spectral and _close(value["ratio"], ratio)
            return 0 if ok else 1

        return check_op

    if config.weights != "unit" or config.lambda_policy != "random-coprime":
        raise ValueError("the naive re-check assumes unit weights and random coprime lambda")
    keys = sorted(got["ops"])
    rng = np.random.default_rng([seed & (2**64 - 1), 0x5EED])
    picks = rng.choice(len(keys), size=min(NAIVE_SAMPLE, len(keys)), replace=False)
    sample = {keys[i] for i in picks}
    contexts = {}

    def check_op(key, value):
        selector, n, p, h = _record_params(key)
        bv = bounds.bound_value(selector, n, h, p, r=config.r)
        terms = _terms(value["k"], h, p)
        ok = (
            _close(value["bound"], bv.value)
            and value["branch"] == bv.branch
            and value["abs_sum"] <= terms * (1 + 1e-9)
            and _close(value["ratio"], value["abs_sum"] / value["bound"])
            and 1 <= value["lambda"] < p
        )
        if ok and key in sample:
            if p not in contexts:
                contexts[p] = build_context(p)
            ctx = contexts[p]
            box, e = Box(tuple(value["k"]), h), ExponentVector(tuple(value["e"]))
            spec = SumSpec(ctx, box, e, UnitWeights(), value["lambda"])
            if value["char_index"] < 0:
                naive = sums.monomial_sum_naive(spec)
            else:
                naive = sums.character_sum_naive(spec, MultChar(ctx, value["char_index"]))
            error = abs(abs(naive.value) - value["abs_sum"])
            ok = naive.terms == terms and error <= agreement_tolerance(terms)
        return 0 if ok else 1

    return check_op
