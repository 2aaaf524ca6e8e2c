"""Command-line interface.

Subcommands: verify, sweep, prime-sweep, calibrate, sum, count.
Exit codes: 0 success, 1 property failure, 2 config error, 3 internal error,
141 (128 + SIGPIPE) stdout closed before the output was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import counts, sums
from .characters import MultChar
from .config import KEYS, MODES, ExperimentConfig, apply_key, load_config
from .errors import BoxsumsError, ConfigInvalidError, DimensionTooSmallError, NotPrimeError, TooLargeError
from .harness import (
    CALIBRATION_TRIALS,
    CalibrationStore,
    run_calibrate,
    run_prime_sweep,
    run_sweep,
    write_prime_sweep_csv,
    write_prime_sweep_json,
    write_records_csv,
    write_records_json,
)
from .modular import Box, ExponentVector, build_context
from .sums import PhaseWeights, SumSpec, TableWeights, UnitWeights
from .verify import DEFAULT_PRIMES, run_verify

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_INTERNAL_ERROR = 3
EXIT_BROKEN_PIPE = 128 + 13  # SIGPIPE


def _int_list(raw: str) -> list[int]:
    try:
        return [int(v) for v in raw.split(",") if v != ""]
    except ValueError as exc:
        raise ConfigInvalidError(f"expected comma-separated integers, got {raw!r}") from exc


_RUN_HELP = {
    "verify": "run the invariant suite",
    "sweep": "ratio sweep against a bound family",
    "prime-sweep": "per-prime count ratios over a range",
    "calibrate": "record max observed ratios",
}


def build_parser() -> argparse.ArgumentParser:
    """Each run mode takes --config, --calibration if it uses the store, and one flag of
    one or more words per key it reads. Abbreviations are off: --n is not taken for --nu."""
    parser = argparse.ArgumentParser(
        prog="boxsums",
        description="Exponential/character sums over short boxes mod p: "
        "evaluation, counting, and empirical bound verification.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p_run = sub.add_parser(mode, help=_RUN_HELP[mode], allow_abbrev=False)
        p_run.add_argument("--config", help="path to a key = value config file")
        if mode != "sweep":  # the other run modes read or write a calibration store
            p_run.add_argument("--calibration", help="path to the calibration store")
        for key, (_, _, modes) in KEYS.items():
            if mode in modes:
                flag = "--range" if key == "prime_range" else f"--{key}"
                p_run.add_argument(flag, dest=key, nargs="+", action="append", help=f"the {key} key")

    # sum and count are not run modes: they take no config file and no key flags.
    p_sum = sub.add_parser("sum", help="evaluate one sum instance")
    p_sum.add_argument("--p", type=int, required=True)
    p_sum.add_argument("--h", type=int, required=True)
    p_sum.add_argument("--e", required=True, help="comma-separated exponents")
    p_sum.add_argument("--k", required=True, help="comma-separated corners")
    p_sum.add_argument("--lambda", dest="lam", type=int, default=1)
    p_sum.add_argument("--char-index", type=int, help="evaluate a character sum with this index")
    p_sum.add_argument("--weights", default="unit", help="unit | phase:l1,l2,... | file:PATH")
    p_sum.add_argument("--method", choices=("naive", "split"), default="naive")

    p_count = sub.add_parser("count", help="count product-congruence solutions")
    p_count.add_argument("--p", type=int, required=True)
    p_count.add_argument("--nu", type=int, help="tuple length of a plain product count (default 1)")
    p_count.add_argument("--h", required=True, help="side length(s), comma-separated")
    p_count.add_argument("--k", default="0", help="corner(s), comma-separated")
    p_count.add_argument("--e", help="exponents; omitted for plain product counts")

    return parser


def _mode_defaults(mode: str) -> ExperimentConfig:
    """Each run mode's own defaults, set before the config file and the flags."""
    cfg = ExperimentConfig(mode=mode)
    if mode == "verify":
        cfg.primes = list(DEFAULT_PRIMES)
    elif mode == "sweep":
        cfg.primes = [101, 1009]
    elif mode == "calibrate":
        cfg.trials = CALIBRATION_TRIALS
    return cfg


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The mode's defaults, then the config file, then each given flag, whose
    first use replaces the file's value and later uses extend it."""
    cfg = _mode_defaults(args.mode)
    if args.config:
        load_config(args.config, cfg)
    for key in KEYS:
        for i, words in enumerate(getattr(args, key, None) or ()):
            apply_key(cfg, key, " ".join(words), extend=i > 0)
    return cfg


def _parse_weights(raw: str):
    if raw == "unit":
        return UnitWeights()
    if raw.startswith("phase:"):
        return PhaseWeights(_int_list(raw[len("phase:") :]))
    if raw.startswith("file:"):
        try:
            with open(raw[len("file:") :], encoding="utf-8") as fh:
                data = json.load(fh)
            return TableWeights([[complex(re, im) for re, im in coord] for coord in data])
        except (OSError, TypeError) as exc:
            raise ConfigInvalidError(f"weights file: {exc}") from exc
    raise ConfigInvalidError(f"unknown weights {raw!r}")


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    store = CalibrationStore(args.calibration) if args.calibration else None
    report = run_verify(cfg, store=store)
    return EXIT_OK if report.passed else EXIT_PROPERTY_FAILURE


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    result = run_sweep(cfg)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    out = cfg.out or "sweep_records." + cfg.format
    if cfg.format == "json":
        write_records_json(result.records, out)
    else:
        write_records_csv(result.records, out)
    for s in result.summaries:
        print(
            f"{s.selector} p={s.p} n={s.n} h={s.h}: max={s.max_ratio:.6f} "
            f"mean={s.mean_ratio:.6f} trials={s.trials}"
        )
    print(f"wrote {len(result.records)} records to {out}")
    return EXIT_OK


def _cmd_prime_sweep(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    store = CalibrationStore(args.calibration) if args.calibration else None
    report = run_prime_sweep(cfg, store=store)
    if cfg.out:
        if cfg.format == "json":
            write_prime_sweep_json(report, cfg.out)
        else:
            write_prime_sweep_csv(report, cfg.out)
        print(f"wrote {len(report.rows)} rows to {cfg.out}")
    print(f"nu={report.nu} h={report.h} k={report.k} primes={len(report.rows)}")
    for c, frac in report.violation_fractions.items():
        print(f"C={c}: violation fraction {frac:.4f}")
    return EXIT_OK


def _cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    store = CalibrationStore(args.calibration or "calibration.json")
    run_calibrate(cfg, store)
    print(f"calibration store written to {store.path}")
    return EXIT_OK


def _cmd_sum(args: argparse.Namespace) -> int:
    e = _int_list(args.e)
    k = _int_list(args.k)
    ctx = build_context(args.p)
    spec = SumSpec(
        ctx=ctx,
        box=Box(tuple(k), args.h),
        e=ExponentVector(tuple(e)),
        weights=_parse_weights(args.weights),
        lam=args.lam,
    )
    if args.char_index is not None:
        chi = MultChar(ctx, args.char_index)
        result = (
            sums.character_sum_split(spec, chi)
            if args.method == "split"
            else sums.character_sum_naive(spec, chi)
        )
    else:
        result = (
            sums.monomial_sum_bilinear(spec)
            if args.method == "split"
            else sums.monomial_sum_naive(spec)
        )
    payload = {
        "p": args.p,
        "value_re": result.value.real,
        "value_im": result.value.imag,
        "abs": abs(result.value),
        "terms": result.terms,
        "method": result.method,
    }
    print(json.dumps(payload, indent=1, sort_keys=True))
    return EXIT_OK


def _cmd_count(args: argparse.Namespace) -> int:
    ctx = build_context(args.p)
    hs = _int_list(args.h)
    ks = _int_list(args.k)
    if args.e is not None:
        if args.nu is not None:
            raise ConfigInvalidError("--nu is the tuple length of a plain count; --e sets the dimension")
        es = _int_list(args.e)
        # One --k is every corner, and one --h the side of a cube.
        box = Box(ks * len(es) if len(ks) == 1 else ks, hs[0] if len(hs) == 1 else hs)
        result = counts.count_monomial_pairs_brute(ctx, ExponentVector(tuple(es)), box)
        hs, ks = list(box.sides), list(box.k)
        payload = {"p": args.p, "e": es, "h": hs, "k": ks, "value": result.value, "method": result.method}
    else:
        if len(hs) != 1 or len(ks) != 1:
            raise ConfigInvalidError("a product count takes one --h and one --k; add --e for a box")
        nu = 1 if args.nu is None else args.nu
        brute = counts.count_product_pairs_brute(ctx, nu, hs[0], ks[0])
        spectral = counts.count_product_pairs_spectral(ctx, nu, hs[0], ks[0])
        payload = {
            "p": args.p,
            "nu": nu,
            "h": hs[0],
            "k": ks[0],
            "value": brute.value,
            "spectral_value": spectral.value,
        }
    print(json.dumps(payload, indent=1, sort_keys=True))
    return EXIT_OK


_COMMANDS = {
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "prime-sweep": _cmd_prime_sweep,
    "calibrate": _cmd_calibrate,
    "sum": _cmd_sum,
    "count": _cmd_count,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = _COMMANDS[args.mode](args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull so the interpreter's final flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    # Out-of-range arguments raise ValueError (h >= p, say) or DimensionTooSmallError (a split with n = 1).
    except (ConfigInvalidError, DimensionTooSmallError, NotPrimeError, TooLargeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MemoryError as exc:  # an input too large for this host; numpy names the allocation
        print(f"config error: out of memory. {exc}".rstrip(), file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except AssertionError as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return EXIT_PROPERTY_FAILURE
    except BoxsumsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
