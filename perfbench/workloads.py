"""The four benchmark workloads.

Each workload is generated from the seed alone, runs through one public
entry point of the package (``harness.run_sweep``, ``harness.run_prime_sweep``
or ``verify.run_verify``), and yields its non-timing outputs as keyed
operations: one op per sweep record, per prime row, or per verify check
instance. See README.md for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from boxsums import harness, verify
from boxsums.config import ExperimentConfig

NAMES = ("sweep-s", "sweep-t", "prime-sweep", "verify")

# Seed whose outputs are stored under reference/.
DEFAULT_SEED = 0

SWEEP_PRIMES = (1009, 10007)
SWEEP_TRIALS = 3
S_SELECTORS = ("s-all", "s-almost")
T_SELECTORS = ("t-all", "t-almost", "t-moment", "t-moment-almost")
PRIME_RANGE = (3, 7000)
VERIFY_PRIMES = (5, 7, 11, 13, 31, 101)


def make_config(name: str, seed: int) -> ExperimentConfig:
    """The workload's whole input, generated from the seed."""
    if name in ("sweep-s", "sweep-t"):
        return ExperimentConfig(
            mode="sweep",
            primes=list(SWEEP_PRIMES),
            bounds=list(S_SELECTORS if name == "sweep-s" else T_SELECTORS),
            trials=SWEEP_TRIALS,
            seed=seed,
        )
    if name == "prime-sweep":
        # The seed picks the interval shift k; seed 0 is the CLI's k = 0.
        return ExperimentConfig(
            mode="prime-sweep", prime_range=PRIME_RANGE, nu=2, h=[6], k=seed % 2**16, seed=seed
        )
    if name == "verify":
        return ExperimentConfig(mode="verify", primes=list(VERIFY_PRIMES), seed=seed)
    raise ValueError(f"unknown workload {name!r}")


def config_digest(config: ExperimentConfig) -> str:
    text = json.dumps(dataclasses.asdict(config), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run(name: str, config: ExperimentConfig):
    """One workload call through the package's public entry point."""
    if name in ("sweep-s", "sweep-t"):
        return harness.run_sweep(config)
    if name == "prime-sweep":
        return harness.run_prime_sweep(config)
    if name == "verify":
        return verify.run_verify(config, store=None, emit=lambda line: None)
    raise ValueError(f"unknown workload {name!r}")


def outputs(name: str, result) -> dict:
    """Non-timing outputs as JSON: {"ops": {key: value}, "weights": {key: ops}}.

    Sweep ops are keyed by (selector, n, p, h, trial) and hold every CSV column
    except eval_ns/bound_ns. Prime ops are keyed by p. Verify ops are keyed by
    check name and weigh as many ops as the check has instances.
    """
    if name in ("sweep-s", "sweep-t"):
        ops = {}
        for r in result.records:
            key = f"{r.selector}|{r.n}|{r.p}|{r.h}|{r.trial}"
            ops[key] = {
                "e": list(r.e),
                "k": list(r.k),
                "lambda": r.lam,
                "char_index": r.char_index,
                "abs_sum": r.abs_sum,
                "bound": r.bound,
                "ratio": r.ratio,
                "branch": r.branch,
            }
        return {"ops": ops, "weights": {key: 1 for key in ops}}
    if name == "prime-sweep":
        ops = {
            str(row.p): {"count": row.count, "majorant": row.majorant, "ratio": row.ratio}
            for row in result.rows
        }
        return {"ops": ops, "weights": {key: 1 for key in ops}}
    if name == "verify":
        ops = {
            c.name: {
                "instances": c.instances,
                "passed": c.passed,
                "failures": len(c.failures),
                "max_residual": c.max_residual,
            }
            for c in result.results
        }
        return {"ops": ops, "weights": {key: v["instances"] for key, v in ops.items()}}
    raise ValueError(f"unknown workload {name!r}")
