"""Benchmark command for boxsums.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one-shot passes of the workload, each in a fresh single-threaded
process, until S seconds have passed (at least one pass). Then it checks the
outputs and prints, as its last line, one JSON object with the end-to-end
metrics (--trace 0) or the per-layer metrics of one extra traced pass
(--trace 1). The metric names and units come from BENCHMARK.json. End-to-end
times are the median over passes of each pass's time at reference speed
(see worker.py); the human summary also prints the measured medians. It
exits 1 if any output is wrong, and 2 if the source tree or the workload is
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PASS_TIMEOUT_S = 150
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_pass(name: str, seed: int, tmp: Path, index: int, trace: bool = False) -> dict | None:
    """One worker process; returns its payload, or None if it failed."""
    out = tmp / f"pass-{index}.json"
    env = {**os.environ, **THREAD_ENV}
    cmd = [sys.executable, str(HERE / "worker.py"), name, str(seed)]
    spawned = time.monotonic()
    argv = cmd + [repr(spawned), str(out)] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=sys.stderr, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"pass {index} of {name} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.is_file():
        print(f"pass {index} of {name} exited with {proc.returncode}", file=sys.stderr)
        return None
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "boxsums").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment_stamp(args, passes: int) -> dict:
    import boxsums
    import gauge
    import numpy
    import workloads

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "boxsums": boxsums.__version__,
        "git_commit": _git_commit(),
        "src_digest": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": THREAD_ENV,
        "passes": passes,
        "gauge": {"period_s": gauge.PERIOD_S, "ref_chunk_s": gauge.REF_CHUNK_S},
        "config_digests": {
            name: workloads.config_digest(workloads.make_config(name, args.seed))
            for name in workloads.NAMES
        },
    }


def check_outputs(name: str, seed: int, runs: list[dict | None]) -> tuple[int, int]:
    """(attempted, failed) ops over all passes. The first good pass is
    checked against the reference (reference seed) or re-derived (any other
    seed); every other pass must reproduce it exactly."""
    import correctness
    import workloads

    reference = correctness.load_reference(name)
    expected = sum(reference["outputs"]["weights"].values())
    config = workloads.make_config(name, seed)
    good = [r["outputs"] for r in runs if r is not None]
    attempted = expected * len(runs)
    if not good:
        return attempted, attempted
    first = good[0]
    if seed == reference["seed"]:
        if workloads.config_digest(config) != reference["config_digest"]:
            print(f"{name}: config differs from the stored reference's", file=sys.stderr)
            return attempted, attempted
        gate = correctness.reference_gate(name, reference)
    else:
        gate = correctness.independent_check(name, seed, config, first, reference)
    failed = correctness.count_failed(first, reference, gate)
    same = correctness.identical_to(first)
    failed += expected * (len(runs) - len(good))
    failed += sum(correctness.count_failed(out, reference, same) for out in good[1:])
    return attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills the running pass and the
    # temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "boxsums" / "__init__.py").is_file():
        print(f"no boxsums source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        passes: list[dict | None] = []
        start = time.monotonic()
        while True:
            begun = time.monotonic()
            passes.append(run_pass(args.workload, args.seed, tmp, len(passes)))
            now = time.monotonic()
            # Stop unless a pass as long as this one still ends in time.
            if now - start + (now - begun) > args.seconds:
                break
        traced = None
        if args.trace:
            traced = run_pass(args.workload, args.seed, tmp, len(passes), trace=True)

    good = [p for p in passes if p is not None]
    checked = passes + ([traced] if args.trace else [])
    attempted, failed = check_outputs(args.workload, args.seed, checked)
    stamp = environment_stamp(args, len(passes))
    print("stamp " + json.dumps(stamp, sort_keys=True))
    if not good or (args.trace and traced is None):
        print("no pass completed; no metrics", file=sys.stderr)
        return 1

    def median(key: str, at_ref_speed: bool = True) -> float:
        return statistics.median((p["ref"] if at_ref_speed else p)[key] for p in good)

    if args.trace:
        stats = tracing.layer_stats(traced["trace"], *traced["wall_ns"])
        # Against the untraced pass that ran just before, so both saw the same host.
        stats["trace.overhead_s"] = traced["ref"]["wall_s"] - good[-1]["ref"]["wall_s"]
        wanted = spec["per_layer"]
    else:
        ops = statistics.median(sum(p["outputs"]["weights"].values()) for p in good)
        wall = median("wall_s")
        stats = {
            "setup_s": median("setup_s"),
            "wall_s": wall,
            "cpu_s": median("cpu_s"),
            "ops_per_s": ops / wall,
            "peak_rss_mb": median("peak_rss_mb", at_ref_speed=False),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": stats[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"{args.workload} seed={args.seed} passes={len(passes)} trace={args.trace}")
    print("  wall_s per pass, measured:     " + " ".join(f"{p['wall_s']:.3f}" for p in good))
    print("  wall_s per pass, at ref speed: " + " ".join(f"{p['ref']['wall_s']:.3f}" for p in good))
    for key in ("setup_s", "wall_s", "cpu_s"):
        print(f"  {key + ' (measured)':<48} {median(key, at_ref_speed=False):.6g} s")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<48} {failed / attempted:.6g} ratio ({failed}/{attempted} ops)")
    correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
