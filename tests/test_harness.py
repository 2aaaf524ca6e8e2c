import collections
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from boxsums import bounds, cli, harness, sums
from boxsums.config import ExperimentConfig
from boxsums.counts import PrimeSweepRow
from boxsums.errors import ConfigInvalidError, VerifyNotGreenError
from boxsums.harness import (
    CSV_FIELDS,
    CalibrationStore,
    PrimeSweepReport,
    RatioRecord,
    run_calibrate,
    run_prime_sweep,
    run_sweep,
    threshold_h_values,
    write_prime_sweep_csv,
    write_prime_sweep_json,
    write_records_csv,
    write_records_json,
)
from boxsums.characters import MultChar
from boxsums.modular import Box, ExponentVector, build_context
from boxsums.sampling import substream
from boxsums.sums import SumResult
from boxsums.verify import CHECKS, DEFAULT_PRIMES, CheckResult, VerifyGrid, VerifyReport, run_verify

STORE_PATH = Path(__file__).resolve().parent.parent / "calibration" / "seed0.json"
TIMING_COLUMNS = 2  # eval_ns, bound_ns sit last and are outside determinism


def _strip_timings(csv_text: str) -> str:
    lines = csv_text.splitlines()
    return "\n".join(",".join(line.split(",")[:-TIMING_COLUMNS]) for line in lines)


def _sweep_config(**overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(
        mode="sweep",
        primes=[101],
        n=[4],
        h=[3, 5],
        bounds=["s-all"],
        trials=5,
        seed=42,
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


class TestSampling:
    def test_substream_reproducible(self):
        a = substream(7, 101, 4, 3, 0).integers(0, 1000, size=8)
        b = substream(7, 101, 4, 3, 0).integers(0, 1000, size=8)
        assert (a == b).all()

    def test_substream_trials_differ(self):
        a = substream(7, 101, 4, 3, 0).integers(0, 1000, size=8)
        b = substream(7, 101, 4, 3, 1).integers(0, 1000, size=8)
        assert not (a == b).all()

    @pytest.mark.parametrize("weights", ["unit", "phase", "table"])
    @pytest.mark.parametrize("lam", [None, 10**9 + 7])
    def test_sweep_draws_equal_separate_calls(self, weights, lam):
        # The sweep's order, written out one generator call per kind: lam first unless fixed,
        # then the corners, the exponents and the weights, and the character index last.
        cfg = _sweep_config(primes=[3, 5, 101, 10007], n=[2, 4], h=[1, 2], trials=3, weights=weights)
        cfg.bounds = ["s-almost", "t-almost"]
        if lam is not None:
            cfg.lambda_policy, cfg.lambda_value = "fixed", lam
        result = run_sweep(cfg)
        assert len(result.records) == 2 * 4 * 2 * 2 * 3
        contexts = {p: build_context(p) for p in cfg.primes}
        for r in result.records:
            p, n, h, ctx, pool = r.p, r.n, r.h, contexts[r.p], cfg.exponent_pool
            rng = substream(cfg.seed, p, n, h, r.trial)
            want_lam = lam % p if lam is not None else int(rng.integers(1, p))
            k = (0,) * n if r.trial == 0 else tuple(rng.integers(0, p, size=n).tolist())
            e = tuple(pool[i] for i in rng.integers(0, len(pool), size=n).tolist())
            if weights == "phase":
                rho = sums.PhaseWeights(rng.integers(0, p, size=n).tolist())
            elif weights == "table":
                u = rng.random((n, 2, h))
                rho = sums.TableWeights(u[:, 0] * np.exp(1j * (2 * np.pi * u[:, 1])))
            else:
                rho = sums.UnitWeights()
            is_char = r.selector == "t-almost"
            a = int(rng.integers(1, p - 1)) if is_char else -1
            assert (r.k, r.e, r.lam, r.char_index) == (k, e, want_lam, a), r
            spec = sums.SumSpec(ctx, Box(k, h), ExponentVector(e), rho, want_lam)
            value = sums.character_sum_split(spec, MultChar(ctx, a)) if is_char else sums.monomial_sum_bilinear(spec)
            assert r.abs_sum == abs(value.value), r


class TestSweep:
    def test_deterministic_csv(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            result = run_sweep(_sweep_config())
            write_records_csv(result.records, str(path))
        a, b = (p.read_text(encoding="utf-8") for p in paths)
        assert _strip_timings(a) == _strip_timings(b)

    def test_csv_schema(self, tmp_path):
        result = run_sweep(_sweep_config())
        path = tmp_path / "r.csv"
        write_records_csv(result.records, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(CSV_FIELDS)
        assert len(lines) == 1 + len(result.records)
        assert len(result.records) == 2 * 5  # 2 cells x 5 trials

    def test_json_mirror(self, tmp_path):
        result = run_sweep(_sweep_config())
        path = tmp_path / "r.json"
        write_records_json(result.records, str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert len(payload) == len(result.records)
        assert payload[0]["selector"] == "s-all"
        assert "lambda" in payload[0] and "lam" not in payload[0]

    def test_ratios_finite_and_bounded(self):
        result = run_sweep(_sweep_config())
        for rec in result.records:
            assert rec.bound > 0
            assert rec.ratio >= 0
            assert np.isfinite(rec.ratio)
            assert rec.abs_sum <= float(rec.h) ** rec.n * (1 + 1e-9)

    def test_h_at_least_p_skipped_with_warning(self):
        result = run_sweep(_sweep_config(primes=[5, 101], h=[7]))
        assert any("h >= p" in w for w in result.warnings)
        assert all(rec.p == 101 for rec in result.records)

    def test_cell_below_bound_range_skipped_before_its_trials(self, monkeypatch):
        calls = collections.Counter()
        for module, name in ((bounds, "bound_value"), (sums, "character_sum_split")):

            def counted(*args, fn=getattr(module, name), name=name, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        # At p = 1009, h = 5 lies below the t-moment n = 3 range h >= p^(1/4) ~ 5.64; h = 20 is inside it.
        result = run_sweep(_sweep_config(primes=[1009], bounds=["t-moment"], n=[3], h=[5, 20], trials=3))
        assert "skipping cell p=1009, n=3, h=5: below the t-moment bound's range" in result.warnings
        assert [(rec.h, rec.trial) for rec in result.records] == [(20, 0), (20, 1), (20, 2)]
        # One bound per cell, and no sum for the skipped cell.
        assert calls == {"bound_value": 2, "character_sum_split": 3}
        assert len({rec.bound_ns for rec in result.records}) == 1

    def test_unsupported_dimension_warned(self):
        result = run_sweep(_sweep_config(n=[3, 4]))
        assert any("unsupported dimension" in w for w in result.warnings)

    def test_every_tabled_dimension_sweeps(self):
        # n = 5 lies in bounds.DIMS but outside the default t-moment-almost grid.
        result = run_sweep(_sweep_config(bounds=["t-moment-almost"], n=[5], h=[], trials=1))
        assert result.records
        assert not any("unsupported dimension" in w for w in result.warnings)

    def test_default_t_moment_almost_grid(self):
        result = run_sweep(_sweep_config(bounds=["t-moment-almost"], n=[], h=[], trials=1))
        assert sorted({rec.n for rec in result.records}) == [2, 3, 4]

    def test_seed_required(self):
        with pytest.raises(ConfigInvalidError):
            run_sweep(_sweep_config(seed=None))

    def test_origin_box_on_trial_zero(self):
        result = run_sweep(_sweep_config())
        for rec in result.records:
            if rec.trial == 0:
                assert rec.k == (0,) * rec.n

    def test_trivial_bound_recheck_trips_on_fault(self, monkeypatch):
        def corrupted(spec):
            return SumResult(value=complex(10.0**12), terms=1, method="bilinear")

        monkeypatch.setattr(sums, "monomial_sum_bilinear", corrupted)
        with pytest.raises(AssertionError):
            run_sweep(_sweep_config())

    @staticmethod
    def _spy_sums(monkeypatch):
        """Count each sum kind's calls per (n, p, h), from the spec the harness passes."""
        calls = collections.Counter()
        for name in ("character_sum_split", "monomial_sum_bilinear"):

            def counted(spec, *args, fn=getattr(sums, name), name=name):
                calls[name, spec.n, spec.ctx.p, spec.box.sides[0]] += 1
                return fn(spec, *args)

            monkeypatch.setattr(sums, name, counted)
        return calls

    @pytest.mark.parametrize("families", [("t-all", "t-almost"), ("s-all", "s-almost")])
    def test_families_sharing_cells_match_their_lone_sweeps(self, families):
        # On the default grids at p = 101 the two families' cells coincide at n = 4, 5, 6.
        def untimed(selectors):
            config = _sweep_config(bounds=list(selectors), n=[], h=[], trials=2)
            return [dataclasses.replace(r, eval_ns=0, bound_ns=0) for r in run_sweep(config).records]

        together = untimed(families)
        alone = [rec for family in families for rec in untimed([family])]
        assert together == alone
        shared = {(r.n, r.h) for r in together if r.selector == families[0]}
        assert shared & {(r.n, r.h) for r in together if r.selector == families[1]}

    def test_one_evaluation_per_distinct_instance(self, monkeypatch):
        calls = self._spy_sums(monkeypatch)
        result = run_sweep(_sweep_config(bounds=list(bounds.SELECTORS), n=[], h=[], trials=2))
        by_kind = collections.defaultdict(set)
        for r in result.records:
            kind = "monomial_sum_bilinear" if r.selector in ("s-all", "s-almost") else "character_sum_split"
            by_kind[kind].add((r.n, r.p, r.h, r.trial))
        expected = collections.Counter((kind, n, p, h) for kind, keys in by_kind.items() for n, p, h, _ in keys)
        assert calls == expected
        assert sum(calls.values()) < len(result.records)

    def test_monomial_and_character_sums_evaluated_separately(self, monkeypatch):
        calls = self._spy_sums(monkeypatch)
        result = run_sweep(_sweep_config(bounds=["s-almost", "t-almost"], trials=3))
        # The two kinds draw from the same substream at each (n, p, h, trial), and neither reuses the other.
        kinds = ("character_sum_split", "monomial_sum_bilinear")
        assert calls == {(name, 4, 101, h): 3 for name in kinds for h in (3, 5)}
        for r in result.records:
            assert (r.char_index == -1) == (r.selector == "s-almost")


class TestBlasThreads:
    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def _after_import(self, **preset) -> list[str]:
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        src = str(Path(harness.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = f"import os, boxsums; print(*(os.environ.get(v) for v in {self.VARS!r}))"
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**env, **preset}, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_import_pins_one_thread(self):
        assert self._after_import() == ["1", "1", "1"]

    def test_explicit_setting_wins(self):
        assert self._after_import(OPENBLAS_NUM_THREADS="3") == ["3", "1", "1"]


class TestWriters:
    """Golden bytes of each writer for one hand-built row: negative exponents
    and corners, char_index -1, and floats that need all 17 digits."""

    RECORD = RatioRecord(
        selector="t-moment",
        p=1009,
        n=3,
        h=17,
        e=(-2, 1, -1),
        k=(1008, 0, 7),
        lam=-7,
        char_index=-1,
        abs_sum=0.1 + 0.2,
        bound=1 / 3,
        ratio=(0.1 + 0.2) / (1 / 3),
        branch="main",
        trial=4,
        eval_ns=123456,
        bound_ns=789,
    )
    REPORT = PrimeSweepReport(
        nu=2,
        h=6,
        k=-1,
        rows=[PrimeSweepRow(p=1013, count=41, majorant=200 / 3, ratio=41 / (200 / 3))],
        violation_fractions={"0.25": 0.1 + 0.2},
    )

    def test_records_csv(self, tmp_path):
        path = tmp_path / "r.csv"
        write_records_csv([self.RECORD], str(path))
        assert path.read_text(encoding="utf-8") == (
            "selector,p,n,h,e,k,lambda,char_index,abs_sum,bound,ratio,branch,trial,eval_ns,bound_ns\n"
            "t-moment,1009,3,17,-2;1;-1,1008;0;7,-7,-1,"
            "0.30000000000000004,0.33333333333333331,0.90000000000000013,main,4,123456,789\n"
        )

    def test_records_json(self, tmp_path):
        path = tmp_path / "r.json"
        write_records_json([self.RECORD], str(path))
        text = path.read_text(encoding="utf-8")
        assert json.loads(text) == [
            {
                "abs_sum": 0.30000000000000004,
                "bound": 0.3333333333333333,
                "bound_ns": 789,
                "branch": "main",
                "char_index": -1,
                "e": [-2, 1, -1],
                "eval_ns": 123456,
                "h": 17,
                "k": [1008, 0, 7],
                "lambda": -7,
                "n": 3,
                "p": 1009,
                "ratio": 0.9000000000000001,
                "selector": "t-moment",
                "trial": 4,
            }
        ]
        assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"

    def test_prime_sweep_csv(self, tmp_path):
        path = tmp_path / "p.csv"
        write_prime_sweep_csv(self.REPORT, str(path))
        assert path.read_text(encoding="utf-8") == (
            "p,count,majorant,ratio\n1013,41,66.666666666666671,0.61499999999999999\n"
        )

    def test_prime_sweep_json(self, tmp_path):
        path = tmp_path / "p.json"
        write_prime_sweep_json(self.REPORT, str(path))
        assert path.read_text(encoding="utf-8") == (
            '{\n "h": 6,\n "k": -1,\n "nu": 2,\n "rows": [\n  {\n   "count": 41,\n'
            '   "majorant": 66.66666666666667,\n   "p": 1013,\n   "ratio": 0.615\n  }\n ],\n'
            ' "violation_fractions": {\n  "0.25": 0.30000000000000004\n }\n}\n'
        )


class TestThresholdHValues:
    def test_within_range_and_small(self):
        for selector, n in (("s-all", 4), ("t-moment", 3), ("s-almost", 2)):
            for p in (101, 1009, 10007):
                hs = threshold_h_values(selector, n, p)
                assert 1 <= len(hs) <= 6
                assert all(2 <= h < p for h in hs)
                assert hs == sorted(hs)


class TestPrimeSweep:
    def test_basic_report(self):
        cfg = ExperimentConfig(mode="prime-sweep", prime_range=(100, 200), nu=2, h=[6], k=0)
        report = run_prime_sweep(cfg)
        assert report.nu == 2 and report.h == 6
        assert all(r.ratio == r.count / r.majorant for r in report.rows)
        assert all(0.0 <= f <= 1.0 for f in report.violation_fractions.values())

    def test_deterministic(self):
        cfg = ExperimentConfig(mode="prime-sweep", prime_range=(100, 200), nu=2, h=[6], k=0)
        a = run_prime_sweep(cfg)
        b = run_prime_sweep(cfg)
        assert [(r.p, r.count, r.ratio) for r in a.rows] == [
            (r.p, r.count, r.ratio) for r in b.rows
        ]

    def test_empty_range_rejected(self):
        cfg = ExperimentConfig(mode="prime-sweep", prime_range=(24, 28), nu=2, h=[6], k=0)
        with pytest.raises(ConfigInvalidError):
            run_prime_sweep(cfg)

    def test_calibrated_constant_joins_ladder(self):
        store = CalibrationStore()
        store.update("count-almost-all/nu=2", 3.25, "test", 0)
        cfg = ExperimentConfig(mode="prime-sweep", prime_range=(100, 150), nu=2, h=[6], k=0)
        report = run_prime_sweep(cfg, store=store)
        assert "3.25" in report.violation_fractions


class TestCalibrationStore:
    def test_update_is_max_monotone(self):
        store = CalibrationStore()
        store.update("x", 1.0, "g", 0)
        store.update("x", 0.5, "g", 0)
        assert store.constant("x") == 1.0
        store.update("x", 2.0, "g", 0)
        assert store.constant("x") == 2.0

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "cal.json"
        store = CalibrationStore(str(path))
        store.update("a/n=4", 0.25, "grid", 7)
        store.save()
        reloaded = CalibrationStore(str(path))
        assert reloaded.constant("a/n=4") == 0.25
        assert reloaded.entries["a/n=4"]["seed"] == 7

    def test_missing_file_is_empty(self, tmp_path):
        store = CalibrationStore(str(tmp_path / "missing.json"))
        assert store.entries == {}

    def test_constant_and_cap_of_stored_key(self):
        store = CalibrationStore()
        store.update("a/n=4", 0.25, "grid", 0)
        assert store.constant("a/n=4") == 0.25
        assert store.cap("a/n=4") == 0.5

    def test_constant_and_cap_of_missing_key(self):
        store = CalibrationStore()
        assert store.constant("a/n=4") is None
        assert store.cap("a/n=4") is None

    def test_committed_store_loads(self):
        store = CalibrationStore(str(STORE_PATH))
        for key in ("s-all/n=4", "t-moment/n=3", "char-moment/r=1", "count-growth/nu=2"):
            assert store.constant(key) > 0


@pytest.fixture
def green_verify(monkeypatch):
    """Stub calibration's verification gate with a green report."""
    monkeypatch.setattr(harness, "run_verify", lambda *args, **kwargs: VerifyReport(results=[]))


class TestCalibrate:
    def test_refuses_without_seed(self, tmp_path):
        cfg = ExperimentConfig(mode="calibrate", primes=[5, 7])
        with pytest.raises(ConfigInvalidError):
            run_calibrate(cfg, CalibrationStore(str(tmp_path / "c.json")))

    def test_refuses_when_verify_red(self, tmp_path, monkeypatch):
        from boxsums import characters

        def corrupted(dist):
            return dist.ctx.p * np.fft.ifft(dist.values) + 1.0

        monkeypatch.setattr(characters, "_spectrum_fast", corrupted)
        cfg = ExperimentConfig(mode="calibrate", primes=[5, 7], seed=0, trials=2)
        with pytest.raises(VerifyNotGreenError):
            run_calibrate(cfg, CalibrationStore(str(tmp_path / "c.json")))

    def test_idempotent_for_fixed_seed(self, tmp_path, green_verify):
        path = tmp_path / "c.json"
        cfg = ExperimentConfig(mode="calibrate", primes=[101], seed=0, trials=2)
        store = CalibrationStore(str(path))
        run_calibrate(cfg, store, emit=lambda line: None)
        first = {k: v["max_ratio"] for k, v in store.entries.items()}
        run_calibrate(cfg, store, emit=lambda line: None)
        second = {k: v["max_ratio"] for k, v in store.entries.items()}
        assert first == second
        assert "s-all/n=4" in first

    def test_grid_ignores_weights_exponents_and_r(self, tmp_path, green_verify):
        # A store's labels record its primes, threshold width and trials, so no other
        # config field may move the maxima written under them.
        stores = []
        for extra in ({}, {"weights": "table", "exponent_pool": [1], "r": 5}):
            store = CalibrationStore(str(tmp_path / f"c{len(stores)}.json"))
            cfg = ExperimentConfig(mode="calibrate", seed=0, trials=2, **extra)
            stores.append(run_calibrate(cfg, store, emit=lambda line: None).entries)
        assert stores[0] == stores[1]

    def test_reproduces_committed_store(self, tmp_path, green_verify):
        committed = CalibrationStore(str(STORE_PATH)).entries
        store = CalibrationStore(str(tmp_path / "c.json"))
        cfg = ExperimentConfig(mode="calibrate", seed=0, trials=50)
        run_calibrate(cfg, store, emit=lambda line: None)
        assert store.entries.keys() == committed.keys()
        for key, entry in committed.items():
            assert store.entries[key]["grid"] == entry["grid"], key
            assert store.entries[key]["max_ratio"] == pytest.approx(
                entry["max_ratio"], rel=1e-12, abs=0
            ), key

    def test_joint_theorem_sweep_writes_the_lone_sweeps_store(self, tmp_path, green_verify, monkeypatch):
        # The theorem ratios come from one joint sweep of the calibrated families; the store it
        # writes for seed 0 is byte for byte the one that one lone sweep per (family, n) writes.
        evaluate, evaluated = harness._evaluate, []

        def spy(is_char, ctx, n, h, trial, config):
            evaluated.append((is_char, n, ctx.p, h, trial))
            return evaluate(is_char, ctx, n, h, trial, config)

        monkeypatch.setattr(harness, "_evaluate", spy)
        cfg = ExperimentConfig(mode="calibrate", seed=0, trials=harness.CALIBRATION_TRIALS)
        joint = CalibrationStore(str(tmp_path / "joint.json"))
        run_calibrate(cfg, joint, emit=lambda line: None)
        assert len(evaluated) == len(set(evaluated)) == 1900
        lone = CalibrationStore(str(tmp_path / "lone.json"))
        lone.entries = json.loads((tmp_path / "joint.json").read_text(encoding="utf-8"))
        records = 0
        for selector in harness.CALIBRATED_SELECTORS:
            for n in bounds.DIMS[selector]:
                sweep = ExperimentConfig(
                    mode="sweep", primes=list(harness.CALIBRATION_PRIMES), n=[n], bounds=[selector],
                    trials=harness.CALIBRATION_TRIALS, seed=0,
                )
                ratios = [rec.ratio for rec in run_sweep(sweep).records]
                records += len(ratios)
                lone.entries[f"{selector}/n={n}"]["max_ratio"] = max(ratios)
        lone.save()
        assert records == 2550
        assert (tmp_path / "joint.json").read_bytes() == (tmp_path / "lone.json").read_bytes()


class TestCheckResult:
    def test_add_counts_one_instance_by_default(self):
        out = CheckResult("c")
        out.add(0.5)
        out.add()
        assert (out.instances, out.max_residual, out.failures) == (2, 0.5, [])

    def test_add_bulk_instances(self):
        out = CheckResult("c")
        out.add(0.25, instances=7)
        out.add(0.125, instances=3)
        assert (out.instances, out.max_residual) == (10, 0.25)

    def test_add_without_instances_keeps_count(self):
        out = CheckResult("c")
        out.add(2.0, "table broken", instances=0)
        assert (out.instances, out.max_residual, out.failures) == (0, 2.0, ["table broken"])
        assert not out.passed

    def test_two_failures_from_one_instance(self):
        out = CheckResult("c")
        out.add(0.0, "first", "second")
        assert (out.instances, out.failures) == (1, ["first", "second"])

    def test_falsy_failures_dropped(self):
        out = CheckResult("c")
        out.add(0.0, False, None, "", np.False_, 1 > 2 and "never formatted", instances=5)
        assert (out.instances, out.failures) == (5, [])
        assert out.passed

    def test_negative_slack_leaves_zero(self):
        out = CheckResult("c")
        out.add(-3.0)
        out.add(-1e-9, instances=2)
        assert (out.instances, out.max_residual) == (3, 0.0)

    def test_report_only_passes_with_failures(self):
        out = CheckResult("c", report_only=True)
        out.add(0.0, "finding")
        assert out.passed


class TestVerifySuite:
    def test_quick_grid_green(self):
        cfg = ExperimentConfig(mode="verify", primes=[5, 7, 11], trials=3, seed=0)
        lines = []
        report = run_verify(cfg, emit=lines.append)
        assert report.passed
        assert any(line.startswith("INFO") for line in lines)  # report-only probe

    def test_fault_injection_goes_red(self, monkeypatch):
        from boxsums import characters

        def corrupted(dist):
            return dist.ctx.p * np.fft.ifft(dist.values) + 1.0

        monkeypatch.setattr(characters, "_spectrum_fast", corrupted)
        cfg = ExperimentConfig(mode="verify", primes=[5, 7], trials=2, seed=0)
        report = run_verify(cfg, emit=lambda line: None)
        assert not report.passed
        bad = {r.name for r in report.results if not r.passed}
        assert "spectrum-method-agreement" in bad

    def test_monomial_check_catches_kernel_fault(self, monkeypatch):
        from boxsums import verify as verify_mod

        real = verify_mod.monomial_values

        def corrupted(powers, p):
            vals = real(powers, p).copy()
            if p == 11 and len(powers) == 2:
                vals[17] = (vals[17] + 1) % p  # the tuple x = (2, 8)
            return vals

        monkeypatch.setattr(verify_mod, "monomial_values", corrupted)
        result = verify_mod.CHECKS["monomial-factor-agreement"](verify_mod.VerifyGrid(primes=(5, 11)), None)
        assert not result.passed
        assert result.instances == 4 * 4 + 16 * 16 + 64 * 64 + 4 * 10 + 16 * 100 + 64 * 1000
        assert len(result.failures) == 16
        assert all(f.startswith("p=11, x=(2, 8), e=(") for f in result.failures)
        assert "p=11, x=(2, 8), e=(-2, 1)" in result.failures

    def test_monomial_check_catches_coordinate_fault(self, monkeypatch):
        from boxsums import verify as verify_mod

        real = verify_mod.box_powers

        def corrupted(ctx, box, e):
            pv, w = real(ctx, box, e)
            if tuple(e) == (1, -2, 2):
                pv = list(pv)
                pv[1] = pv[1].copy()
                pv[1][4] = (pv[1][4] + 1) % ctx.p  # the point x_2 = 5
            return pv, w

        monkeypatch.setattr(verify_mod, "box_powers", corrupted)
        result = verify_mod.CHECKS["monomial-factor-agreement"](verify_mod.VerifyGrid(primes=(11,)), None)
        assert not result.passed
        assert result.instances == 4 * 10 + 16 * 100 + 64 * 1000
        assert len(result.failures) == 100
        assert all(re.fullmatch(r"p=11, x=\(\d+, 5, \d+\), e=\(1, -2, 2\)", f) for f in result.failures)
        assert "p=11, x=(3, 5, 7), e=(1, -2, 2)" in result.failures

    @pytest.mark.parametrize("name", ["count-growth-regression", "bound-nontrivial-range"])
    def test_store_checks_pass_with_committed_store(self, name):
        result = CHECKS[name](VerifyGrid(), CalibrationStore(str(STORE_PATH)))
        assert result.passed
        assert "record-only" not in result.notes

    def test_count_growth_regression_fails_above_cap(self):
        store = CalibrationStore()
        store.update("count-growth/nu=2", 0.5, "test", 0)
        result = CHECKS["count-growth-regression"](VerifyGrid(), store)
        assert result.failures == ["nu=2: ratio 1.7612 exceeds 2x calibrated 0.5000"]

    def test_bound_nontrivial_fails_with_calibrated_constant(self):
        store = CalibrationStore()
        store.update("s-all/n=4", 1e6, "test", 0)
        result = CHECKS["bound-nontrivial-range"](VerifyGrid(), store)
        assert len(result.failures) == 82
        assert all(f.startswith("s-all, n=4, ") for f in result.failures)

    # (name, instances, failures, notes, max_residual where it is exact: 0.0 or a count ratio).
    SMALL_GRID = [
        ("pow-fermat-inverse", 10, 0, "", 0.0),
        ("pow-negative-exponent-inverse", 110, 0, "", 0.0),
        ("index-bijection", 10, 0, "", 0.0),
        ("monomial-factor-agreement", 18792, 0, "", 0.0),
        ("additive-char-homomorphism", 74, 0, "", None),
        ("mult-char-multiplicative", 192, 0, "", None),
        ("char-orthogonality", 10, 0, "", None),
        ("spectrum-parseval", 10, 0, "", None),
        ("spectrum-method-agreement", 10, 0, "", None),
        ("char-moment-direct-recount", 5, 0, "", None),
        ("sum-methods-agree-S", 36, 0, "", None),
        ("sum-methods-agree-T", 36, 0, "", None),
        ("trivial-bound", 36, 0, "", 0.0),
        ("conjugation-symmetry", 36, 0, "", None),
        ("cauchy-majorant", 1000, 0, "", 0.0),
        ("holder-majorant", 1500, 0, "", 0.0),
        ("kloosterman-specialization", 18, 0, "", 0.0),
        ("count-identity", 288, 0, "", 0.0),
        ("count-monotone-h", 408, 0, "", 0.0),
        ("count-diagonal-lower", 408, 0, "", 0.0),
        ("product-inequality-gcd", 4464, 0, "plain-form findings (logged, not failed): 1944", 0.0),
        (
            "count-growth-regression",
            180,
            0,
            "max ratios nu=2: 1.7612, nu=3: 1.8644 (no calibration store; record-only)",
            1.8644147205484944,
        ),
        (
            "count-almost-all-probe",
            177,
            0,
            "; ".join(
                f"T={t}, C={c}: violation fraction {1.0 if c < 2 else 0.0:.4f}"
                for t in (500, 2000)
                for c in (0.5, 1.0, 2.0, 4.0)
            ),
            1.7978931431778133,
        ),
        ("bound-monotone-h", 2500, 0, "", 0.0),
        ("bound-nontrivial-range", 2036, 0, "constant-1 exceptions near threshold (findings): 267", 0.0),
        ("bound-middle-term", 505, 0, "", 0.0),
    ]

    def test_small_grid_tallies_pinned(self):
        cfg = ExperimentConfig(mode="verify", primes=[5, 7], trials=2, seed=0)
        results = run_verify(cfg, emit=lambda line: None).results
        assert [r.name for r in results] == [row[0] for row in self.SMALL_GRID]
        for r, (name, instances, failures, notes, residual) in zip(results, self.SMALL_GRID):
            assert (r.instances, len(r.failures), r.notes) == (instances, failures, notes), name
            assert r.report_only == (name == "count-almost-all-probe"), name
            # The other residuals are floating-point noise that varies with the numpy build.
            if residual is not None:
                assert r.max_residual == residual, name

    def test_count_checks_reset_at_each_group(self, monkeypatch):
        from boxsums import counts

        real = counts.count_product_pairs_brute

        def faulty(ctx, nu, h, k):
            res = real(ctx, nu, h, k)
            if (ctx.p, nu, k) == (11, 2, 0):  # a whole group raised: the next group starts lower
                return dataclasses.replace(res, value=res.value * 1000)
            if (ctx.p, nu, k, h) == (11, 2, 1, 4):  # one value dropped inside a group
                return dataclasses.replace(res, value=0)
            return res

        monkeypatch.setattr(counts, "count_product_pairs_brute", faulty)
        grid = VerifyGrid()
        assert CHECKS["count-monotone-h"](grid, None).failures == ["count decreased: p=11, nu=2, k=1, h=4"]
        assert CHECKS["count-diagonal-lower"](grid, None).failures == [
            "diagonal bound broken: p=11, nu=2, k=1, h=4"
        ]

    def test_bound_monotone_resets_at_each_group(self, monkeypatch):
        from boxsums import bounds

        real = bounds.bound_value

        def faulty(selector, n, h, p, r=2):
            res = real(selector, n, h, p, r=r)
            if (selector, n, p) == ("s-all", 4, 101):  # a whole group raised
                return dataclasses.replace(res, value=res.value * 1e9)
            if (selector, n, p, h) == ("s-all", 4, 1009, 45):  # one value dropped inside a group
                return dataclasses.replace(res, value=res.value * 0.1)
            return res

        monkeypatch.setattr(bounds, "bound_value", faulty)
        result = CHECKS["bound-monotone-h"](VerifyGrid(), None)
        assert result.failures == ["s-all, n=4, p=1009, h=45: bound decreased"]

    def test_contexts_built_per_run(self, monkeypatch):
        from boxsums import verify as verify_mod

        built = []

        def counting(p):
            built.append(p)
            return build_context(p)

        monkeypatch.setattr(verify_mod, "build_context", counting)
        cfg = ExperimentConfig(mode="verify", primes=[5], trials=1, seed=0)
        for _ in range(2):
            built.clear()
            run_verify(cfg, emit=lambda line: None)
            # Each grid, count and count-growth prime once for the run's checks (5 is all three).
            assert collections.Counter(built) == {5: 1, 7: 1, 11: 1, 13: 1, 31: 1, 101: 1}

    def test_empty_prime_list_rejected(self):
        cfg = ExperimentConfig(mode="verify", primes=[], trials=2, seed=0)
        with pytest.raises(ConfigInvalidError):
            run_verify(cfg, emit=lambda line: None)

    def test_inventory_self_check(self, monkeypatch):
        from boxsums import verify as verify_mod

        trimmed = dict(verify_mod.CHECKS)
        trimmed.pop("cauchy-majorant")
        monkeypatch.setattr(verify_mod, "CHECKS", trimmed)
        cfg = ExperimentConfig(mode="verify", primes=[5], trials=1, seed=0)
        with pytest.raises(ConfigInvalidError, match="inventory"):
            run_verify(cfg, emit=lambda line: None)


class TestCli:
    def test_ci_sweep_at_10007_takes_both_spectrum_branches(self, tmp_path, monkeypatch):
        # The CI determinism cell that runs this exact sweep is there to cover both branches
        # of the bilinear contraction's spectrum: the FFT and the index-domain support sum.
        from boxsums import characters

        fft, summed = [], []
        fast, support_sum = characters._spectrum_fast, characters._support_sum
        monkeypatch.setattr(characters, "_spectrum_fast", lambda dist: fft.append(1) or fast(dist))
        monkeypatch.setattr(characters, "_support_sum", lambda dist, at: summed.append(1) or support_sum(dist, at))
        argv = "sweep --bound s-all --prime 10007 --trials 3 --seed 0 --out".split() + [str(tmp_path / "a.csv")]
        assert cli.main(argv) == 0
        assert len(fft) > 0 and len(summed) > 0

    def test_sum_naive_pinned(self, capsys):
        rc = cli.main(
            ["sum", "--p", "5", "--h", "2", "--e", "1,1", "--k", "0,0", "--lambda", "1"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["value_re"] - (-1.0)) < 1e-9
        assert abs(payload["value_im"] - 1.1755705045849463) < 1e-9

    def test_sum_split_matches_naive(self, capsys):
        args = ["sum", "--p", "11", "--h", "3", "--e=-1,2", "--k", "1,2"]
        assert cli.main(args + ["--method", "naive"]) == 0
        naive = json.loads(capsys.readouterr().out)
        assert cli.main(args + ["--method", "split"]) == 0
        split = json.loads(capsys.readouterr().out)
        assert abs(naive["value_re"] - split["value_re"]) < 1e-9
        assert abs(naive["value_im"] - split["value_im"]) < 1e-9

    def test_sum_box_parsed_as_count_does(self, capsys, tmp_path):
        # One side per coordinate, one corner for all, and a weight file with one row per side.
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps([[[0.5, 0.5]] * h for h in (3, 5)]), encoding="utf-8")
        args = ["sum", "--p", "11", "--h", "3,5", "--e=-1,2", "--k", "8", "--weights", f"file:{wfile}"]
        payloads = []
        for method in ("naive", "split"):
            assert cli.main(args + ["--method", method]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        weights = sums.TableWeights([[0.5 + 0.5j] * 3, [0.5 + 0.5j] * 5])
        spec = sums.SumSpec(build_context(11), Box((8, 8), (3, 5)), ExponentVector((-1, 2)), weights)
        want = sums.monomial_sum_naive(spec)
        for got in payloads:
            # Each interval holds the point 11, so 2 * 4 tuples.
            assert got["terms"] == want.terms == 2 * 4
            assert abs(complex(got["value_re"], got["value_im"]) - want.value) < 1e-9

    def test_character_sum_flag(self, capsys):
        rc = cli.main(
            ["sum", "--p", "7", "--h", "2", "--e=1,-1", "--k", "0,0", "--char-index", "3"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["abs"]) < 1e-9  # frozen oracle: the four terms cancel

    def test_count_subcommand(self, capsys):
        rc = cli.main(["count", "--p", "5", "--nu", "2", "--h", "2", "--k", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 6
        assert payload["spectral_value"] == 6

    def test_count_reads_nu_as_given(self, capsys):
        assert cli.main(["count", "--p", "7", "--h", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["nu"], payload["value"], payload["spectral_value"]) == (1, 3, 3)
        for nu in ("0", "-1"):
            assert cli.main(["count", "--p", "7", "--h", "3", "--nu", nu]) == 2, nu
        assert capsys.readouterr().err.count("nu must be >= 1") == 2

    def test_monomial_count_rejects_nu(self, capsys):
        assert cli.main(["count", "--p", "7", "--h", "3", "--e", "1,1", "--nu", "5"]) == 2
        assert "--nu" in capsys.readouterr().err
        assert cli.main(["count", "--p", "7", "--h", "3", "--e", "1,1"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 19

    def test_sum_rejects_nan_weight_file(self, capsys, tmp_path):
        wfile = tmp_path / "w.json"
        # json writes the float NaN as the bare token NaN, which json.load reads back.
        wfile.write_text(json.dumps([[[1.0, 0.0], [float("nan"), 0.0]], [[0.5, 0.5], [0.0, 1.0]]]))
        argv = ["sum", "--p", "101", "--h", "2", "--e", "1,1", "--k", "0,0", "--weights", f"file:{wfile}"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "|rho(x)| <= 1" in captured.err

    @pytest.mark.parametrize("contents", ["[[1, 0], [0.5, 0]]", None])
    def test_sum_rejects_malformed_or_missing_weight_file(self, capsys, tmp_path, contents):
        wfile = tmp_path / "w.json"
        if contents is not None:
            wfile.write_text(contents, encoding="utf-8")
        argv = ["sum", "--p", "101", "--h", "2", "--e", "1,1", "--k", "0,0", "--weights", f"file:{wfile}"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "config error: weights file" in captured.err

    def test_product_count_rejects_several_sides_or_corners(self, capsys):
        for extra in (["--h", "3,4"], ["--h", "3", "--k", "0,1"]):
            assert cli.main(["count", "--p", "7", "--nu", "2", *extra]) == 2, extra
        assert capsys.readouterr().err.count("one --h and one --k") == 2

    def test_config_error_exit_code(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["sum", "--p", "6", "--h", "2", "--e", "1", "--k", "0"]) == 2
        assert cli.main(["sum", "--p", "7", "--h", "2", "--e", "1", "--k", "0,0"]) == 2
        assert cli.main(["count", "--p", "7", "--h", "9"]) == 2
        assert cli.main(["sum", "--p", "101", "--h", "5", "--e=0,1", "--k", "0,0"]) == 2
        for argv in (
            "sweep --prime 101 --bound s-all --n 4 --h 3 --seed 1 --trials 0",
            "sweep --prime 101 --bound t-moment-almost --n 2 --h 30 --trials 1 --seed 1 --r 0",
            "sweep --prime 101 --bound t-moment-almost --n 2 --h 30 --trials 1 --seed 1 --r 1",
            "prime-sweep --range 100 150 --nu 0",
            "prime-sweep --range 100 150 --h 0",
        ):
            assert cli.main(argv.split()) == 2, argv
        assert capsys.readouterr().err.count("config error:") == 9
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("extra", [[], ["--char-index", "1"]])
    def test_split_method_on_one_coordinate_is_a_config_error(self, capsys, extra):
        argv = ["sum", "--p", "7", "--h", "3", "--e", "1", "--k", "0", *extra]
        assert cli.main([*argv, "--method", "split"]) == 2
        assert "config error:" in capsys.readouterr().err
        assert cli.main([*argv, "--method", "naive"]) == 0

    def test_sweep_rejects_fixed_lambda_dividing_a_skipped_prime(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_text("lambda = 5\nprime = 5\nprime = 101\n", encoding="utf-8")
        argv = "sweep --config exp.cfg --bound s-all --n 4 --h 7 --trials 1 --seed 0"
        assert cli.main(argv.split()) == 2
        assert "fixed lambda" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "exp.cfg"]

    def test_empty_exponent_pool_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "e.cfg").write_text("e =\n", encoding="utf-8")
        for mode in ("verify", "sweep"):
            assert cli.main([mode, "--config", "e.cfg", "--seed", "0"]) == 2, mode
        assert capsys.readouterr().err.count("config error: exponent pool must not be empty") == 2
        assert list(tmp_path.iterdir()) == [tmp_path / "e.cfg"]

    def test_threads_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main("sweep --prime 101 --seed 0 --threads 2".split())
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_sum_and_count_reject_common_flags(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argvs = (
            "sum --p 5 --h 2 --e 1,1 --k 0,0 --out x.json",
            "count --p 7 --h 3 --config /nonexistent",
            # Each run mode takes only the common flags it reads.
            "verify --prime 5 --trials 1 --out x.csv",
            "verify --prime 5 --trials 1 --format json",
            "sweep --prime 101 --bound s-all --n 4 --h 3 --trials 1 --seed 0 --calibration c.json",
            "prime-sweep --range 100 150 --seed 0 --out x.csv",
            "calibrate --seed 0 --calibration c.json --out x.csv",
            "calibrate --seed 0 --calibration c.json --format json",
            # calibrate sweeps one fixed grid, which its store's labels describe.
            "calibrate --seed 0 --calibration c.json --e 1",
            "calibrate --seed 0 --calibration c.json --weights table",
            "calibrate --seed 0 --calibration c.json --r 1",
        )
        for argv in argvs:
            with pytest.raises(SystemExit) as exc:
                cli.main(argv.split())
            assert exc.value.code == 2, argv
        assert capsys.readouterr().err.count("unrecognized arguments") == len(argvs)
        assert list(tmp_path.iterdir()) == []

    def test_verify_exit_zero(self):
        rc = cli.main(["verify", "--prime", "5", "--prime", "7", "--trials", "2"])
        assert rc == 0

    def test_verify_exit_one_on_fault(self, monkeypatch):
        from boxsums import characters

        def corrupted(dist):
            return dist.ctx.p * np.fft.ifft(dist.values) + 1.0

        monkeypatch.setattr(characters, "_spectrum_fast", corrupted)
        rc = cli.main(["verify", "--prime", "5", "--trials", "2"])
        assert rc == 1

    def test_calibrate_exit_three_when_not_green(self, tmp_path, monkeypatch):
        from boxsums import characters

        def corrupted(dist):
            return dist.ctx.p * np.fft.ifft(dist.values) + 1.0

        monkeypatch.setattr(characters, "_spectrum_fast", corrupted)
        rc = cli.main(
            ["calibrate", "--seed", "0", "--calibration", str(tmp_path / "c.json")]
        )
        assert rc == 3

    def test_calibrate_trials_from_config_file(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_calibrate", lambda cfg, store: seen.append(cfg))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cal.cfg").write_text("trials = 20\n", encoding="utf-8")
        assert cli.main(["calibrate", "--seed", "0", "--config", "cal.cfg"]) == 0
        assert cli.main(["calibrate", "--seed", "0"]) == 0
        assert [cfg.trials for cfg in seen] == [20, harness.CALIBRATION_TRIALS]

    def test_calibrate_gate_runs_default_verify_grid(self, tmp_path, monkeypatch):
        class GateRan(Exception):
            pass

        gates = []

        def gate(config, store=None, emit=print):
            gates.append((config, run_verify(config, store=store, emit=emit)))
            raise GateRan

        monkeypatch.setattr(harness, "run_verify", gate)
        with pytest.raises(GateRan):
            cli.main(["calibrate", "--seed", "0", "--calibration", str(tmp_path / "c.json")])
        config, report = gates[0]
        assert tuple(config.primes) == DEFAULT_PRIMES
        assert report.passed
        assert [r.name for r in report.results if r.instances == 0] == []

    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = cli.main(
            [
                "sweep",
                "--prime",
                "101",
                "--bound",
                "s-all",
                "--n",
                "4",
                "--h",
                "3",
                "--trials",
                "3",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(CSV_FIELDS)
        assert len(lines) == 4

    def test_prime_sweep_runs(self, tmp_path, capsys):
        out = tmp_path / "ps.csv"
        rc = cli.main(
            ["prime-sweep", "--range", "100", "150", "--nu", "2", "--h", "6", "--out", str(out)]
        )
        assert rc == 0
        assert out.read_text(encoding="utf-8").startswith("p,count,majorant,ratio\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["prime-sweep", "--range", "100", "300", "--nu", "2", "--h", "6", "--k=-4"],
            ["sum", "--p", "5", "--h", "2", "--e", "1,1", "--k", "0,0"],
        ],
        ids=["prime-sweep", "sum"],
    )
    def test_closed_stdout_exits_141_without_traceback(self, argv):
        # The read end is closed before the child starts, so its first write to stdout fails.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "boxsums.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
        assert b"Traceback" not in proc.stderr
