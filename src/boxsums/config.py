"""Experiment configuration: a line-oriented key = value format.

KEYS is the one table of config keys: each names its ExperimentConfig field
and the parser of its value text. Config-file lines and CLI flags both set a
field through apply_key, and each flag's dest is its key's name (``--range``
is ``prime_range``), so a flag replaces the file's value. In a file, repeated
keys form lists; keys are case-sensitive; unknown keys are hard errors.
ExperimentConfig.validate is the one check of a config, for the mode it runs as.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bounds import SELECTORS
from .errors import ConfigInvalidError

MODES = ("verify", "sweep", "prime-sweep", "calibrate", "sum", "count")

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
    out: str | None = None
    format: str = "csv"
    # Not keys and unread; kept because the benchmark's config digests hash every field.
    char_index: int | None = None
    threads: int = 1

    def validate(self, mode: str | None = None) -> None:
        """Reject the config for running as mode (default: its own)."""
        mode = mode or self.mode
        if mode not in MODES:
            raise ConfigInvalidError(f"unknown mode {mode!r}")
        if self.weights not in ("unit", "phase", "table"):
            raise ConfigInvalidError(f"unknown weight kind {self.weights!r}")
        if self.lambda_policy not in ("fixed", "random-coprime"):
            raise ConfigInvalidError(f"unknown lambda policy {self.lambda_policy!r}")
        if self.format not in ("csv", "json"):
            raise ConfigInvalidError(f"unknown output format {self.format!r}")
        for name in ("trials", "nu", "r"):
            if getattr(self, name) < 1:
                raise ConfigInvalidError(f"{name} must be >= 1")
        if any(h < 1 for h in self.h):
            raise ConfigInvalidError("side lengths h must be >= 1")
        if any(v == 0 for v in self.exponent_pool):
            raise ConfigInvalidError("exponent pool must not contain 0")
        for sel in self.bounds:
            if sel not in SELECTORS:
                raise ConfigInvalidError(f"unknown bound selector {sel!r}")
        if mode in _RANDOMIZED_MODES and self.seed is None:
            raise ConfigInvalidError(f"{mode} requires a seed")
        if mode in ("sweep", "verify") and not self.primes:
            raise ConfigInvalidError("no primes configured")
        if mode == "sweep" and self.lambda_policy == "fixed":
            if any(self.lambda_value % p == 0 for p in self.primes):
                raise ConfigInvalidError("fixed lambda must be coprime to every configured prime")
        if mode == "prime-sweep" and self.prime_range is None:
            raise ConfigInvalidError("prime-sweep requires prime_range")
        if mode == "prime-sweep" and len(self.h) > 1:
            raise ConfigInvalidError("prime-sweep takes one h")
        # Cells with h >= p are skipped at run time; all-invalid configs are rejected.
        if self.primes and self.h and all(h >= p for p in self.primes for h in self.h):
            raise ConfigInvalidError("every configured (p, h) cell violates h < p")


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split()]


def _pair(text: str) -> tuple[int, int]:
    values = _ints(text)
    if len(values) != 2:
        raise ValueError("needs exactly two integers")
    return values[0], values[1]


# Config key -> (ExperimentConfig field, parser of the value text).
KEYS = {
    "mode": ("mode", str),
    "prime": ("primes", _ints),
    "prime_range": ("prime_range", _pair),
    "n": ("n", _ints),
    "h": ("h", _ints),
    "e": ("exponent_pool", _ints),
    "weights": ("weights", str),
    "lambda_policy": ("lambda_policy", str),
    "lambda": ("lambda_value", int),  # also fixes lambda_policy
    "trials": ("trials", int),
    "seed": ("seed", int),
    "bound": ("bounds", str.split),
    "nu": ("nu", int),
    "k": ("k", int),
    "r": ("r", int),
    "out": ("out", str),
    "format": ("format", str),
}


def apply_key(cfg: ExperimentConfig, key: str, text: str, extend: bool = False) -> None:
    """Set key's field from its value text; with extend, a list value is
    appended to the field's list instead of replacing it."""
    name, parse = KEYS[key]
    try:
        value = parse(text)
    except ValueError as exc:
        raise ConfigInvalidError(f"key {key!r}: {exc}") from exc
    if extend and isinstance(value, list):
        value = getattr(cfg, name) + value
    setattr(cfg, name, value)
    if key == "lambda":
        cfg.lambda_policy = "fixed"


def parse_config_text(text: str, cfg: ExperimentConfig | None = None) -> ExperimentConfig:
    """Apply key = value lines to cfg (default: a fresh ExperimentConfig). A key's
    first line replaces the field's value and its later lines extend it."""
    cfg = cfg or ExperimentConfig()
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, value = stripped.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigInvalidError(f"line {lineno}: expected 'key = value'")
        if key not in KEYS:
            raise ConfigInvalidError(f"line {lineno}: unknown key {key!r}")
        apply_key(cfg, key, value.strip(), extend=key in seen)
        seen.add(key)
    return cfg


def load_config(path: str, cfg: ExperimentConfig | None = None) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read(), cfg)
