"""Sanity checks of the benchmark's tracing, speed gauge and output gate.

    python3 -m pytest perfbench/tests -q

They run small versions of the workloads in-process, so they take seconds.
"""

import copy
import json
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import correctness  # noqa: E402
import gauge  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from boxsums.config import ExperimentConfig  # noqa: E402

SMALL = {
    "sweep-s": lambda: ExperimentConfig(
        mode="sweep", primes=[101], bounds=["s-all", "s-almost"], n=[4], trials=2, seed=7
    ),
    "sweep-t": lambda: ExperimentConfig(
        mode="sweep", primes=[101], bounds=["t-all", "t-moment"], n=[4], trials=2, seed=7
    ),
    "prime-sweep": lambda: ExperimentConfig(
        mode="prime-sweep", prime_range=(3, 400), nu=2, h=[6], k=3, seed=7
    ),
    "verify": lambda: ExperimentConfig(mode="verify", primes=[5, 7], seed=7),
}


def traced_run(name):
    tracer = tracing.Tracer(pass_id=1)
    tracer.install()
    try:
        t0 = time.perf_counter_ns()
        result = workloads.run(name, SMALL[name]())
        t1 = time.perf_counter_ns()
    finally:
        tracer.restore()
    return workloads.outputs(name, result), tracing.layer_stats(tracer.dump(), t0, t1)


def package_bindings() -> dict:
    out = {}
    for key, module in list(sys.modules.items()):
        if key == "boxsums" or key.startswith("boxsums."):
            for attr, value in vars(module).items():
                out[(key, attr)] = value
    return out


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_pass_outputs_match_untraced(name):
    untraced = workloads.outputs(name, workloads.run(name, SMALL[name]()))
    traced, _ = traced_run(name)
    assert traced == untraced


def test_every_wrapper_is_restored():
    from boxsums import characters, sums, verify

    before = package_bindings()
    checks = dict(verify.CHECKS)
    table = characters.MultChar.__dict__["table"]
    tracer = tracing.Tracer(pass_id=1)
    tracer.install()
    try:
        assert sums.additive_spectrum is characters.additive_spectrum
        assert sums.additive_spectrum is not before[("boxsums.sums", "additive_spectrum")]
        assert all(getattr(fn, "__perfbench_wrapper__", False) for fn in verify.CHECKS.values())
    finally:
        tracer.restore()
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert all(verify.CHECKS[k] is fn for k, fn in checks.items())
    assert characters.MultChar.__dict__["table"] is table


def test_self_time_on_synthetic_span_tree():
    spans = [
        ["harness.run_sweep", 0, 100, -1],
        ["a", 10, 40, 0],
        ["b", 15, 25, 1],
        ["a", 20, 22, 2],  # a inside b inside a: counted once in busy time
        ["c", 50, 90, 0],
        ["d", 60, 70, 4],
        ["d", 65, 80, 4],  # overlapping siblings cover 60..80 once
    ]
    busy, own = tracing.span_times(spans)
    assert busy == {"harness.run_sweep": 100, "a": 30, "b": 10, "c": 40, "d": 25}
    assert own == {"harness.run_sweep": 30, "a": 22, "b": 8, "c": 20, "d": 25}
    # Wall 0..110; layer spans cover 10..40 and 50..90.
    assert tracing.unattributed_ns(spans, 0, 110) == 40


@pytest.mark.parametrize(
    "name, spectrum_used", [("sweep-s", True), ("sweep-t", False), ("prime-sweep", False)]
)
def test_spectrum_is_bypassed_where_predicted(name, spectrum_used):
    _, stats = traced_run(name)
    assert (stats["characters.additive_spectrum.calls"] > 0) == spectrum_used


def test_layer_stats_cover_every_per_layer_metric():
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    _, stats = traced_run("sweep-s")
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in stats]
    assert missing == ["trace.overhead_s"]  # added by run.py from the untraced passes


def _perturbed(name, edit):
    reference = correctness.load_reference(name)
    got = copy.deepcopy(reference["outputs"])
    edit(got)
    return correctness.count_failed(got, reference, correctness.reference_gate(name, reference))


def test_reference_gate_counts_each_wrong_op():
    assert _perturbed("sweep-s", lambda got: None) == 0
    assert _perturbed("prime-sweep", lambda got: None) == 0

    def bump_sum(got):
        op = next(iter(got["ops"].values()))
        op["abs_sum"] *= 1 + 1e-9

    def drop_record(got):
        key = next(iter(got["ops"]))
        del got["ops"][key], got["weights"][key]

    def bump_count(got):
        next(iter(got["ops"].values()))["count"] += 1

    def fail_check(got):
        got["ops"]["sum-methods-agree-S"].update(passed=False, failures=3)

    assert _perturbed("sweep-s", bump_sum) == 1
    assert _perturbed("sweep-t", drop_record) == 1
    assert _perturbed("prime-sweep", bump_count) == 1
    assert _perturbed("verify", fail_check) == 3


def test_reference_matches_its_workload_config():
    for name in workloads.NAMES:
        reference = correctness.load_reference(name)
        config = workloads.make_config(name, reference["seed"])
        assert workloads.config_digest(config) == reference["config_digest"]


def test_gauge_factor_is_reference_over_mean_chunk_time():
    g = gauge.Gauge()
    g.samples = [gauge.REF_CHUNK_S * 2, gauge.REF_CHUNK_S * 2]
    assert g.factor() == pytest.approx(0.5)
    g.samples = [gauge.REF_CHUNK_S / 2, gauge.REF_CHUNK_S * 1.5]
    assert g.factor() == pytest.approx(1.0)


def test_gauge_samples_while_started_and_leaves_no_handler():
    g = gauge.Gauge()
    g.start()
    try:
        deadline = time.perf_counter() + 20 * gauge.PERIOD_S
        while time.perf_counter() < deadline:
            sum(range(1000))
    finally:
        g.stop()
    assert len(g.samples) >= 5
    assert 0 < g.spent < 20 * gauge.PERIOD_S
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
