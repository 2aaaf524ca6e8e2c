"""One workload pass in a fresh process, as a one-shot CLI call would run.

Usage: worker.py WORKLOAD SEED SPAWN_TIME OUT_JSON [--trace]

SPAWN_TIME is the parent's time.monotonic() just before it started this
process, so set-up time covers interpreter start, ``import boxsums`` and
config generation. The pass's measurements and outputs go to OUT_JSON.

A speed gauge (gauge.py) samples the host's speed from before ``import
boxsums`` to the end of the workload call. Each time is reported as measured
and, under "ref", at reference speed: less the gauge's own time, times its
factor.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

import gauge

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv: list[str]) -> int:
    name, seed, spawned, out_path = argv[0], int(argv[1]), float(argv[2]), argv[3]
    traced = argv[4:] == ["--trace"]
    speed = gauge.Gauge()
    speed.start()
    sys.path.insert(0, str(SRC))
    import boxsums
    import workloads

    if not Path(boxsums.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"boxsums imported from {boxsums.__file__}, not from {SRC}")
    config = workloads.make_config(name, seed)
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer(pass_id=os.getpid())
        tracer.install()
    setup_s = time.monotonic() - spawned
    setup_gauge_s = speed.spent
    cpu0, t0 = time.process_time(), time.perf_counter_ns()
    try:
        result = workloads.run(name, config)
    finally:
        t1, cpu1 = time.perf_counter_ns(), time.process_time()
        speed.stop()
        if tracer is not None:
            tracer.restore()
    wall_s = (t1 - t0) / 1e9
    cpu_s = cpu1 - cpu0
    run_gauge_s = speed.spent - setup_gauge_s
    factor = speed.factor()
    payload = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "wall_ns": [t0, t1],
        "cpu_s": cpu_s,
        "gauge": {"samples": len(speed.samples), "spent_s": speed.spent, "factor": factor},
        "ref": {
            "setup_s": (setup_s - setup_gauge_s) * factor,
            "wall_s": (wall_s - run_gauge_s) * factor,
            "cpu_s": (cpu_s - run_gauge_s) * factor,
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs": workloads.outputs(name, result),
    }
    if tracer is not None:
        payload["trace"] = tracer.dump()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
