"""Experiment configuration: a line-oriented key = value format.

Repeated keys form lists; keys are case-sensitive; unknown keys are
hard errors. CLI flags map onto the same fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigInvalidError

MODES = ("verify", "sweep", "prime-sweep", "calibrate", "sum", "count")

_KNOWN_KEYS = {
    "mode",
    "prime",
    "prime_range",
    "n",
    "h",
    "e",
    "weights",
    "lambda_policy",
    "lambda",
    "trials",
    "seed",
    "bound",
    "nu",
    "k",
    "r",
    "char_index",
    "out",
    "format",
    "threads",
}

# Modes that draw random instances and therefore require a seed.
_RANDOMIZED_MODES = ("sweep", "calibrate")


@dataclass
class ExperimentConfig:
    mode: str = "verify"
    primes: list[int] = field(default_factory=list)
    prime_range: tuple[int, int] | None = None
    n: list[int] = field(default_factory=list)
    h: list[int] = field(default_factory=list)
    exponent_pool: list[int] = field(default_factory=lambda: [-2, -1, 1, 2])
    weights: str = "unit"  # unit | phase | table
    lambda_policy: str = "random-coprime"  # fixed | random-coprime
    lambda_value: int = 1
    trials: int = 20
    seed: int | None = None
    bounds: list[str] = field(default_factory=list)
    nu: int = 2
    k: int = 0
    r: int = 2
    char_index: int | None = None
    out: str | None = None
    format: str = "csv"
    threads: int = 1

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigInvalidError(f"unknown mode {self.mode!r}")
        if self.weights not in ("unit", "phase", "table"):
            raise ConfigInvalidError(f"unknown weight kind {self.weights!r}")
        if self.lambda_policy not in ("fixed", "random-coprime"):
            raise ConfigInvalidError(f"unknown lambda policy {self.lambda_policy!r}")
        if self.format not in ("csv", "json"):
            raise ConfigInvalidError(f"unknown output format {self.format!r}")
        if self.trials < 1:
            raise ConfigInvalidError("trials must be >= 1")
        if self.threads < 1:
            raise ConfigInvalidError("threads must be >= 1")
        if any(v == 0 for v in self.exponent_pool):
            raise ConfigInvalidError("exponent pool must not contain 0")
        if self.mode in _RANDOMIZED_MODES and self.seed is None:
            raise ConfigInvalidError(f"mode {self.mode!r} requires an explicit seed")
        if self.mode in ("sweep", "verify", "calibrate") and not self.primes:
            raise ConfigInvalidError("no primes configured")
        if self.mode == "prime-sweep" and self.prime_range is None:
            raise ConfigInvalidError("prime-sweep requires prime_range")
        # Cells with h >= p are skipped at run time; all-invalid configs are rejected.
        if self.primes and self.h and all(h >= p for p in self.primes for h in self.h):
            raise ConfigInvalidError("every configured (p, h) cell violates h < p")


def _to_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigInvalidError(f"key {key!r}: expected integer, got {raw!r}") from exc


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse key = value lines into an ExperimentConfig (not yet validated
    against a mode; call .validate())."""
    pairs: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigInvalidError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigInvalidError(f"line {lineno}: unknown key {key!r}")
        pairs.append((key, value))

    cfg = ExperimentConfig()
    for key, value in pairs:
        if key == "mode":
            cfg.mode = value
        elif key == "prime":
            cfg.primes.extend(_to_int(key, v) for v in value.split())
        elif key == "prime_range":
            parts = value.split()
            if len(parts) != 2:
                raise ConfigInvalidError("prime_range needs exactly two integers")
            cfg.prime_range = (_to_int(key, parts[0]), _to_int(key, parts[1]))
        elif key == "n":
            cfg.n.extend(_to_int(key, v) for v in value.split())
        elif key == "h":
            cfg.h.extend(_to_int(key, v) for v in value.split())
        elif key == "e":
            cfg.exponent_pool = [_to_int(key, v) for v in value.split()]
        elif key == "weights":
            cfg.weights = value
        elif key == "lambda_policy":
            cfg.lambda_policy = value
        elif key == "lambda":
            cfg.lambda_value = _to_int(key, value)
            cfg.lambda_policy = "fixed"
        elif key == "trials":
            cfg.trials = _to_int(key, value)
        elif key == "seed":
            cfg.seed = _to_int(key, value)
        elif key == "bound":
            cfg.bounds.extend(value.split())
        elif key == "nu":
            cfg.nu = _to_int(key, value)
        elif key == "k":
            cfg.k = _to_int(key, value)
        elif key == "r":
            cfg.r = _to_int(key, value)
        elif key == "char_index":
            cfg.char_index = _to_int(key, value)
        elif key == "out":
            cfg.out = value
        elif key == "format":
            cfg.format = value
        elif key == "threads":
            cfg.threads = _to_int(key, value)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())
