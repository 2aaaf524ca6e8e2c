import argparse

import pytest

from boxsums import cli
from boxsums.config import KEYS, ExperimentConfig, load_config, parse_config_text
from boxsums.errors import ConfigInvalidError


class TestParse:
    def test_basic_fields(self):
        cfg = parse_config_text(
            """
            prime = 101 1009
            n = 4
            seed = 7
            bound = s-all
            format = json
            """,
            ExperimentConfig(mode="sweep"),
        )
        assert cfg.primes == [101, 1009]
        assert cfg.n == [4]
        assert cfg.seed == 7
        assert cfg.bounds == ["s-all"]
        assert cfg.format == "json"

    def test_repeated_keys_extend(self):
        cfg = parse_config_text("prime = 5\nprime = 7 11\n")
        assert cfg.primes == [5, 7, 11]
        # The first line replaces a non-empty default; later lines extend it.
        cfg = parse_config_text("e = -1\ne = 2\n")
        assert cfg.exponent_pool == [-1, 2]

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# comment\n\nseed = 3\n")
        assert cfg.seed == 3

    def test_unknown_key_rejected(self):
        for text in ("primes = 5\n", "char_index = 5\n", "threads = 2\n", "lambda_policy = fixed\n"):
            with pytest.raises(ConfigInvalidError):
                parse_config_text(text)

    def test_keys_case_sensitive(self):
        with pytest.raises(ConfigInvalidError):
            parse_config_text("Seed = 3\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigInvalidError):
            parse_config_text("seed 3\n")

    def test_non_integer_rejected(self):
        with pytest.raises(ConfigInvalidError):
            parse_config_text("seed = abc\n")

    def test_lambda_implies_fixed_policy(self):
        cfg = parse_config_text("lambda = 3\n", ExperimentConfig(mode="sweep"))
        assert cfg.lambda_policy == "fixed"
        assert cfg.lambda_value == 3

    def test_prime_range(self):
        cfg = parse_config_text("prime_range = 100 500\n", ExperimentConfig(mode="prime-sweep"))
        assert cfg.prime_range == (100, 500)
        with pytest.raises(ConfigInvalidError):
            parse_config_text("prime_range = 100\n", ExperimentConfig(mode="prime-sweep"))

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("prime = 5 7\n", encoding="utf-8")
        cfg = load_config(str(path))
        assert cfg.mode == "verify"
        assert cfg.primes == [5, 7]


class TestValidate:
    def test_default_verify_needs_primes(self):
        cfg = ExperimentConfig(mode="verify")
        with pytest.raises(ConfigInvalidError):
            cfg.validate()

    def test_randomized_mode_needs_seed(self):
        cfg = ExperimentConfig(mode="sweep", primes=[101])
        with pytest.raises(ConfigInvalidError):
            cfg.validate()

    def test_unknown_mode(self):
        cfg = ExperimentConfig(mode="bogus", primes=[101])
        with pytest.raises(ConfigInvalidError):
            cfg.validate()

    def test_zero_exponent_rejected(self):
        cfg = ExperimentConfig(mode="verify", primes=[5], exponent_pool=[0, 1])
        with pytest.raises(ConfigInvalidError):
            cfg.validate()

    def test_all_cells_invalid_rejected(self):
        cfg = ExperimentConfig(mode="sweep", primes=[5], h=[7, 9], seed=0)
        with pytest.raises(ConfigInvalidError):
            cfg.validate()

    def test_some_cells_valid_ok(self):
        cfg = ExperimentConfig(mode="sweep", primes=[5, 101], h=[7], seed=0)
        cfg.validate()

    def test_prime_sweep_needs_range(self):
        cfg = ExperimentConfig(mode="prime-sweep")
        with pytest.raises(ConfigInvalidError):
            cfg.validate()

    def test_bad_trials(self):
        with pytest.raises(ConfigInvalidError):
            ExperimentConfig(mode="verify", primes=[5], trials=0).validate()

    def test_fixed_lambda_must_be_coprime_to_every_prime(self):
        # Every p = 5 cell is skipped at run time (h >= p), yet the config is rejected.
        cfg = ExperimentConfig(mode="sweep", primes=[5, 101], h=[7], seed=0, lambda_policy="fixed", lambda_value=5)
        with pytest.raises(ConfigInvalidError, match="fixed lambda"):
            cfg.validate()
        cfg.lambda_value = -10
        with pytest.raises(ConfigInvalidError, match="fixed lambda"):
            cfg.validate()
        cfg.lambda_value = 6
        cfg.validate()
        cfg.lambda_policy, cfg.lambda_value = "random-coprime", 5
        cfg.validate()

    @pytest.mark.parametrize(
        "overrides",
        [{"nu": 0}, {"r": 0}, {"h": [0, 5]}, {"bounds": ["s-most"]}],
    )
    def test_out_of_range_values_rejected(self, overrides):
        with pytest.raises(ConfigInvalidError):
            ExperimentConfig(mode="verify", primes=[101], **overrides).validate()

    def test_validates_as_the_given_mode(self):
        cfg = ExperimentConfig(mode="verify", primes=[101])
        cfg.validate()
        with pytest.raises(ConfigInvalidError, match="requires a seed"):
            cfg.validate("sweep")

    def test_calibrate_needs_no_primes(self):
        ExperimentConfig(mode="calibrate", seed=0).validate()

    def test_prime_sweep_takes_one_h(self):
        cfg = ExperimentConfig(mode="prime-sweep", prime_range=(100, 150), h=[6, 8])
        with pytest.raises(ConfigInvalidError):
            cfg.validate()


# Each key: (file value, the matching flags, parsed field value).
_KEY_CASES = {
    "prime": ("11 13", ["--prime", "11", "--prime", "13"], [11, 13]),
    "prime_range": ("100 150", ["--range", "100", "150"], (100, 150)),
    "n": ("3 4", ["--n", "3", "4"], [3, 4]),
    "h": ("3 5", ["--h", "3", "--h", "5"], [3, 5]),
    "e": ("-1 1", ["--e", "-1", "1"], [-1, 1]),
    "weights": ("phase", ["--weights", "phase"], "phase"),
    "lambda": ("3", ["--lambda", "3"], 3),
    "trials": ("7", ["--trials", "7"], 7),
    "seed": ("9", ["--seed", "9"], 9),
    "bound": ("s-all t-moment", ["--bound", "s-all", "--bound", "t-moment"], ["s-all", "t-moment"]),
    "nu": ("3", ["--nu", "3"], 3),
    "k": ("-4", ["--k=-4"], -4),
    "r": ("3", ["--r", "3"], 3),
    "out": ("ratios.csv", ["--out", "ratios.csv"], "ratios.csv"),
    "format": ("json", ["--format", "json"], "json"),
}

# Each run mode's flags, written out: --config, --calibration for the store
# modes, and one flag per key the mode reads.
_MODE_FLAGS = {
    "verify": {"--config", "--calibration", "--prime", "--n", "--h", "--e", "--trials", "--seed"},
    "sweep": {
        "--config", "--prime", "--n", "--h", "--e", "--weights", "--lambda", "--trials", "--seed",
        "--bound", "--r", "--out", "--format",
    },
    "prime-sweep": {"--config", "--calibration", "--range", "--h", "--nu", "--k", "--out", "--format"},
    "calibrate": {"--config", "--calibration", "--prime", "--e", "--weights", "--trials", "--seed", "--r"},
}


def _flag(key: str) -> str:
    return "--range" if key == "prime_range" else f"--{key}"


def _cli_config(argv: list[str]) -> ExperimentConfig:
    return cli._config_from_args(cli.build_parser().parse_args(argv))


class TestKeyTable:
    def test_every_key_has_a_case(self):
        assert set(_KEY_CASES) == set(KEYS)

    def test_each_mode_takes_its_flags(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for mode, flags in _MODE_FLAGS.items():
            taken = {s for a in sub.choices[mode]._actions for s in a.option_strings}
            assert taken - {"-h", "--help"} == flags, mode

    @pytest.mark.parametrize("key", sorted(_KEY_CASES))
    def test_file_line_and_flag_agree(self, key, tmp_path):
        text, flags, expected = _KEY_CASES[key]
        path = tmp_path / "exp.cfg"
        path.write_text(f"{key} = {text}\n", encoding="utf-8")
        modes = [mode for mode, taken in _MODE_FLAGS.items() if _flag(key) in taken]
        assert modes, key
        for mode in modes:
            from_file = _cli_config([mode, "--config", str(path)])
            assert getattr(from_file, KEYS[key][0]) == expected, mode
            assert _cli_config([mode] + flags) == from_file, mode

    @pytest.mark.parametrize(
        "mode, key",
        [(mode, key) for mode, taken in _MODE_FLAGS.items() for key in _KEY_CASES if _flag(key) not in taken],
    )
    def test_unread_key_refused(self, mode, key, tmp_path, capsys):
        text, flags, _ = _KEY_CASES[key]
        path = tmp_path / "exp.cfg"
        path.write_text(f"{key} = {text}\n", encoding="utf-8")
        assert cli.main([mode, "--config", str(path)]) == 2
        assert f"line 1: {mode} does not read key {key!r}" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.main([mode] + flags)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_flag_replaces_file_value(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("prime = 5 7\ntrials = 3\n", encoding="utf-8")
        cfg = _cli_config(["sweep", "--config", str(path), "--prime", "11"])
        assert cfg.primes == [11]
        assert cfg.trials == 3

    def test_file_replaces_mode_default(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("prime = 5\nprime = 7\n", encoding="utf-8")
        assert _cli_config(["sweep"]).primes == [101, 1009]
        assert _cli_config(["sweep", "--config", str(path)]).primes == [5, 7]

    def test_subcommand_sets_mode_over_file(self, tmp_path, capsys):
        # The subcommand is the mode; there is no mode key.
        path = tmp_path / "exp.cfg"
        path.write_text("mode = verify\n", encoding="utf-8")
        assert _cli_config(["prime-sweep"]).mode == "prime-sweep"
        assert cli.main(["prime-sweep", "--config", str(path)]) == 2
        assert "line 1: unknown key 'mode'" in capsys.readouterr().err


class TestOutOfMemory:
    """An input too large for the host's memory is a config error (exit 2), not a property failure."""

    @pytest.mark.parametrize("message", ["", "Unable to allocate 121. GiB for an array with shape (27000000, 300)"])
    def test_evaluator_memory_error_exits_2_with_one_line(self, message, monkeypatch, capsys):
        def refuse(spec):
            raise MemoryError(message) if message else MemoryError

        monkeypatch.setattr(cli.sums, "monomial_sum_naive", refuse)
        argv = ["sum", "--p", "10007", "--h", "300", "--e", "1,1,1,1", "--k", "0,0,0,0", "--method", "naive"]
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"config error: out of memory. {message}".rstrip() + "\n"
