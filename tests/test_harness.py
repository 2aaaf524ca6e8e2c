import json
from pathlib import Path

import numpy as np
import pytest

from boxsums import cli, harness, sums
from boxsums.characters import ResidueDistribution, additive_spectrum
from boxsums.config import ExperimentConfig
from boxsums.errors import ConfigInvalidError, VerifyNotGreenError
from boxsums.harness import (
    CSV_FIELDS,
    CalibrationStore,
    run_calibrate,
    run_prime_sweep,
    run_sweep,
    threshold_h_values,
    write_records_csv,
    write_records_json,
)
from boxsums.modular import build_context
from boxsums.sampling import substream
from boxsums.sums import SumResult
from boxsums.verify import VerifyReport, run_verify

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


class TestSweep:
    def test_deterministic_csv(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            result = run_sweep(_sweep_config())
            write_records_csv(result.records, str(path))
        a, b = (p.read_text(encoding="utf-8") for p in paths)
        assert _strip_timings(a) == _strip_timings(b)

    def test_threads_do_not_change_records(self, tmp_path):
        serial = run_sweep(_sweep_config(threads=1))
        parallel = run_sweep(_sweep_config(threads=4))
        for a, b in zip(serial.records, parallel.records):
            assert (a.selector, a.p, a.n, a.h, a.trial) == (
                b.selector,
                b.p,
                b.n,
                b.h,
                b.trial,
            )
            assert a.ratio == b.ratio

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
        assert store.get("x")["max_ratio"] == 1.0
        store.update("x", 2.0, "g", 0)
        assert store.get("x")["max_ratio"] == 2.0

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "cal.json"
        store = CalibrationStore(str(path))
        store.update("a/n=4", 0.25, "grid", 7)
        store.save()
        reloaded = CalibrationStore(str(path))
        assert reloaded.get("a/n=4")["max_ratio"] == 0.25
        assert reloaded.get("a/n=4")["seed"] == 7

    def test_missing_file_is_empty(self, tmp_path):
        store = CalibrationStore(str(tmp_path / "missing.json"))
        assert store.get("anything") is None

    def test_committed_store_loads(self):
        store = CalibrationStore(str(STORE_PATH))
        for key in ("s-all/n=4", "t-moment/n=3", "char-moment/r=1", "count-growth/nu=2"):
            entry = store.get(key)
            assert entry is not None and entry["max_ratio"] > 0


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


class TestVerifySuite:
    def test_quick_grid_green(self):
        cfg = ExperimentConfig(mode="verify", primes=[5, 7, 11], trials=3, seed=0)
        lines = []
        report = run_verify(cfg, emit=lines.append)
        assert report.passed
        assert report.exit_code == 0
        assert any(line.startswith("INFO") for line in lines)  # report-only probe

    def test_fault_injection_goes_red(self, monkeypatch):
        from boxsums import characters

        def corrupted(dist):
            return dist.ctx.p * np.fft.ifft(dist.values) + 1.0

        monkeypatch.setattr(characters, "_spectrum_fast", corrupted)
        cfg = ExperimentConfig(mode="verify", primes=[5, 7], trials=2, seed=0)
        report = run_verify(cfg, emit=lambda line: None)
        assert not report.passed
        assert report.exit_code == 1
        bad = {r.name for r in report.results if not r.passed}
        assert "spectrum-method-agreement" in bad

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

    def test_config_error_exit_code(self, capsys):
        assert cli.main(["sum", "--p", "6", "--h", "2", "--e", "1", "--k", "0"]) == 2
        assert cli.main(["sum", "--p", "7", "--h", "2", "--e", "1", "--k", "0,0"]) == 2

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
