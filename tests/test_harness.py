import json
from pathlib import Path

import numpy as np
import pytest

from boxsums import cli, harness, sums
from boxsums.characters import ResidueDistribution, additive_spectrum
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
from boxsums.modular import build_context
from boxsums.sampling import substream
from boxsums.sums import SumResult
from boxsums.verify import DEFAULT_PRIMES, VerifyReport, run_verify

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

    def test_monomial_check_catches_eval_fault(self, monkeypatch):
        from boxsums import verify as verify_mod

        real = verify_mod.monomial_eval

        def corrupted(ctx, x, e):
            got = real(ctx, x, e)
            return (got + 1) % ctx.p if (x, e.e) == ((3, 5, 7), (1, -2, 2)) else got

        monkeypatch.setattr(verify_mod, "monomial_eval", corrupted)
        result = verify_mod.CHECKS["monomial-factor-agreement"](verify_mod.VerifyGrid(primes=(11,)), None)
        assert result.failures == ["p=11, x=(3, 5, 7), e=(1, -2, 2)"]

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
            "prime-sweep --range 100 150 --nu 0",
            "prime-sweep --range 100 150 --h 0",
        ):
            assert cli.main(argv.split()) == 2, argv
        assert capsys.readouterr().err.count("config error:") == 8
        assert list(tmp_path.iterdir()) == []

    def test_sweep_rejects_fixed_lambda_dividing_a_skipped_prime(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_text("lambda = 5\nprime = 5\nprime = 101\n", encoding="utf-8")
        argv = "sweep --config exp.cfg --bound s-all --n 4 --h 7 --trials 1 --seed 0"
        assert cli.main(argv.split()) == 2
        assert "fixed lambda" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "exp.cfg"]

    def test_threads_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main("sweep --prime 101 --seed 0 --threads 2".split())
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_sum_and_count_reject_common_flags(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv in (
            "sum --p 5 --h 2 --e 1,1 --k 0,0 --out x.json",
            "count --p 7 --h 3 --config /nonexistent",
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv.split())
            assert exc.value.code == 2, argv
        assert capsys.readouterr().err.count("unrecognized arguments") == 2
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
