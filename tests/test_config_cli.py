import base64
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eprsim import cli, config, layers


class TestParseSetting:
    def test_unit_triple(self):
        out = config.parse_setting("0.6,0.8,0")
        np.testing.assert_allclose(out, [0.6, 0.8, 0.0], atol=1e-15)

    def test_non_unit_rejected(self):
        with pytest.raises(config.ConfigError):
            config.parse_setting("1,1,0")

    def test_non_unit_normalized_on_request(self):
        out = config.parse_setting("2,0,0", normalize=True)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=0)

    def test_wrong_arity(self):
        with pytest.raises(config.ConfigError):
            config.parse_setting("1,0")

    def test_not_a_number(self):
        with pytest.raises(config.ConfigError):
            config.parse_setting("a,b,c")


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment\n"
            "n = 8\n"
            "L = 3\n"
            "layers = 25\n"
            "trials = 1000\n"
            "seed = 42\n"
            "settings = 1,0,0; 0.6,0.8,0\n"
        )
        assert config.load_config(path) == {
            "n": 8,
            "L": 3,
            "layers": 25,
            "trials": 1000,
            "seed": 42,
            "settings": ["1,0,0", "0.6,0.8,0"],
        }

    def test_missing_n_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("trials = 10\n")
        with pytest.raises(config.ConfigError, match="'n'"):
            config.load_config(path)

    def test_small_n_cites_requirement(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n = 3\n")
        with pytest.raises(config.ConfigError, match=">= 4"):
            config.load_config(path)

    def test_malformed_line_names_position(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n = 4\nnot a pair\n")
        with pytest.raises(config.ConfigError, match=":2"):
            config.load_config(path)

    @pytest.mark.parametrize("item", ["1,0", "1,zero,0"])
    def test_setting_syntax_names_position_and_key(self, tmp_path, item):
        path = tmp_path / "run.cfg"
        path.write_text(f"n = 4\nsettings = 1,0,0; {item}\n")
        with pytest.raises(config.ConfigError, match=rf"{path}:2: key 'settings'"):
            config.load_config(path)

    def test_setting_norm_left_to_the_run(self, tmp_path):
        # --normalize is not known here, so a non-unit triple loads as text
        path = tmp_path / "run.cfg"
        path.write_text("n = 4\nsettings = 2,0,0; 0,1,0\n")
        assert config.load_config(path)["settings"] == ["2,0,0", "0,1,0"]

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n = 4\nmystery = 7\n")
        with pytest.raises(config.ConfigError, match="mystery"):
            config.load_config(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliVerify:
    def test_orthogonal_settings(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "4", "--a", "1,0,0", "--b", "0,1,0")
        assert code == 0
        doc = json.loads(out)
        assert doc["abs_error"] <= 1e-12
        assert doc["mass"] == pytest.approx(1.0, abs=1e-12)
        assert doc["schema_versions"]["universe"] == "layer-universe/2"

    def test_genuine_variant_block(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "4", "--a", "1,0,0", "--b", "0,1,0", "--genuine-variant"
        )
        doc = json.loads(out)
        assert doc["genuine_variant"]["total"] == pytest.approx(2.0, abs=1e-12)
        assert doc["genuine_variant"]["is_unit_mass"] is False

    def test_bad_setting_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "4", "--a", "1,1,0", "--b", "0,1,0")
        assert code == 2
        assert "norm" in err

    def test_missing_setting_exits_2_naming_it(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--n", "4", "--a", "1,0,0"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the following arguments are required: --b" in captured.err


class TestCliSimulate:
    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
    def test_non_finite_angle_exits_2_naming_it(self, capsys, angle):
        code, out, err = run_cli(
            capsys, "simulate", f"--angle={angle}", "--trials", "10", "--seed", "1"
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --angle must be finite degrees (got {float(angle)})\n"

    def test_zero_trials_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--angle", "45", "--trials", "0", "--seed", "1")
        assert code == 2

    def test_replay_byte_identical(self, capsys):
        args = ("simulate", "--angle", "45", "--trials", "20000", "--seed", "9")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_report_embeds_config(self, capsys):
        _, out, _ = run_cli(capsys, "simulate", "--angle", "30", "--trials", "5000", "--seed", "2")
        doc = json.loads(out)
        assert doc["config"]["seed"] == 2
        assert doc["config"]["trials"] == 5000
        assert doc["trials"] == 5000

    def test_config_file_drives_run(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "n = 4\nL = 2\nlayers = 10\ntrials = 2000\nseed = 77\n"
            "settings = 1,0,0; 0.6,0.8,0\n"
        )
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["trials"] == 2000
        assert doc["exact_target"] == pytest.approx(-0.6, abs=1e-12)

    def test_flags_override_config(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n = 4\ntrials = 2000\nseed = 77\nsettings = 1,0,0; 0.6,0.8,0\n")
        code, out, _ = run_cli(
            capsys, "simulate", "--config", str(path), "--trials", "500", "--angle", "60"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["trials"] == 500
        assert doc["exact_target"] == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("key", ["genuine_variant", "witness"])
    def test_retired_config_keys_rejected(self, capsys, tmp_path, key):
        # the --genuine-variant and --witness flags stay; no config key sets them
        path = tmp_path / "run.cfg"
        path.write_text(
            f"n = 4\ntrials = 200\nseed = 7\nsettings = 1,0,0; 0.6,0.8,0\n{key} = true\n"
        )
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert out == ""
        assert "unknown key" in err and key in err

    def test_missing_seed_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--angle", "45", "--trials", "100")
        assert code == 2
        assert "seed" in err

    def test_config_without_trials_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n = 4\nseed = 7\nsettings = 1,0,0; 0.6,0.8,0\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert out == ""
        assert "trials must be given (flag --trials or config key)" in err

    def test_flags_win_over_config_settings_one_by_one(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n = 4\ntrials = 200\nseed = 7\nsettings = 1,0,0; 0.6,0.8,0\n")
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path), "--b", "0,1,0")
        assert code == 0
        doc = json.loads(out)
        assert doc["a"] == [1.0, 0.0, 0.0]
        assert doc["b"] == [0.0, 1.0, 0.0]

    @pytest.mark.parametrize(
        "command, settings",
        [
            ("simulate", "1,0,0"),
            ("simulate", "1,0,0; 0,1,0; 0,0,1"),
            ("chsh", "1,0,0; 0,1,0"),
            ("chsh", "1,0,0; 0,1,0; 0,0,1; 1,0,0; 0,1,0"),
        ],
    )
    def test_settings_count_must_match_the_command(self, capsys, tmp_path, command, settings):
        path = tmp_path / "run.cfg"
        path.write_text(f"n = 4\ntrials = 200\nseed = 7\nsettings = {settings}\n")
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: settings")


    @pytest.mark.parametrize("command", ["simulate", "chsh"])
    def test_config_settings_follow_normalize(self, capsys, tmp_path, command):
        # non-unit triples in the file run under --normalize, as the same
        # flags do, and without it exit 2 naming the key
        settings = {"simulate": "2,0,0; 0,1,0", "chsh": "2,0,0; 0,3,0; 0,1,1; 1,1,0"}[command]
        path = tmp_path / "run.cfg"
        path.write_text(f"n = 4\ntrials = 200\nseed = 7\nsettings = {settings}\n")
        code, out, _ = run_cli(capsys, command, "--config", str(path), "--normalize")
        assert code == 0
        flags = [f"--{name}={text.strip()}" for name, text in zip(
            cli.SETTING_FLAGS[command], settings.split(";")
        )]
        code, flag_out, _ = run_cli(
            capsys, command, "--n", "4", "--trials", "200", "--seed", "7", "--normalize", *flags
        )
        assert code == 0
        without_config = {k: v for k, v in json.loads(out).items() if k != "config"}
        assert without_config == {k: v for k, v in json.loads(flag_out).items() if k != "config"}
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: settings") and "norm" in err


# valid runs of the commands taking size flags; a bad size is appended as a
# flag (the last occurrence wins) or as a config line (the last line wins)
FLAG_RUNS = {
    "simulate": ["simulate", "--angle", "45", "--trials", "100", "--seed", "1"],
    "chsh": ["chsh", "--angles", "0,90,45,135", "--trials", "100", "--seed", "1"],
    "layers": ["layers", "--n", "4", "--layers", "3", "--seed", "1", "--universe", "{uni}"],
}
CONFIG_RUNS = {
    "simulate": ["simulate", "--angle", "45"],
    "chsh": ["chsh", "--angles", "0,90,45,135"],
}
VALID_CONFIG = "n = 4\ntrials = 100\nseed = 1\n"
BAD_SIZES = {"n": "3", "L": "0", "layers": "0", "trials": "0", "seed": "-1"}
BAD_SIZE_CASES = [
    (command, key, source)
    for source, runs in (("flag", FLAG_RUNS), ("config", CONFIG_RUNS))
    for command in runs
    for key in BAD_SIZES
    if (command, key) != ("layers", "trials")  # layers takes no --trials
]


class TestCliSizeChecks:
    @pytest.mark.parametrize("command, key, source", BAD_SIZE_CASES)
    def test_bad_size_exits_2_naming_the_field(self, capsys, tmp_path, command, key, source):
        uni = tmp_path / "uni.json"
        if source == "flag":
            argv = [arg.format(uni=uni) for arg in FLAG_RUNS[command]]
            argv += [f"--{key}", BAD_SIZES[key]]
        else:
            path = tmp_path / "run.cfg"
            path.write_text(f"{VALID_CONFIG}{key} = {BAD_SIZES[key]}\n")
            argv = [*CONFIG_RUNS[command], "--config", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and f"--{key} must be >= " in err
        assert not uni.exists()


# sizes whose largest array would pass the 1 GiB budget; each run is valid
# apart from the named flag
OVER_BUDGET = {
    "k": ["poisson", "--theta", "1", "--k", "1000000000000", "--labels", "5", "--seed", "1"],
    "labels": ["poisson", "--theta", "1", "--k", "10", "--labels", "1000000000", "--seed", "1"],
    "layers": ["layers", "--n", "4", "--layers", "1000000000", "--seed", "1",
               "--universe", "{uni}"],
    "L": ["layers", "--n", "4", "--layers", "3", "--L", "1000000000", "--seed", "1",
          "--universe", "{uni}"],
    "grid": ["splines", "--n", "4", "--grid", "10000000"],
    "n": ["verify", "--n", "100000000", "--a", "1,0,0", "--b", "0,1,0"],
}

# pairs of sizes that pass their caps one by one but not together in the
# command that allocates their array
OVER_JOINT_BUDGET = {
    ("n", "layers"): ["layers", "--n", "1000", "--layers", "100000", "--seed", "1",
                      "--universe", "{uni}"],
    ("L", "layers"): ["layers", "--n", "4", "--L", "100000", "--layers", "100000",
                      "--seed", "1", "--universe", "{uni}"],
    ("n", "grid"): ["splines", "--n", "1000000", "--grid", "501"],
}

# simulate and chsh runs at sizes a universe could not be built at: they build
# none, so each runs in well under 2 MiB
UNBUILT_SIZES = {
    "layers_cap": ["chsh", "--angles", "0,90,45,135", "--trials", "1000", "--seed", "1",
                   "--n", "4", "--layers", str(config.MAXIMUMS["layers"])],
    "n_with_layers": ["simulate", "--angle", "45", "--trials", "1000", "--seed", "1",
                      "--n", "1000", "--layers", "100000"],
    "L_with_layers": ["chsh", "--angles", "0,90,45,135", "--trials", "1000", "--seed", "1",
                      "--L", "100000", "--layers", "100000"],
}


class TestCliSizeBudget:
    @pytest.mark.parametrize("flag", sorted(OVER_BUDGET))
    def test_over_cap_exits_2_before_allocating(self, capsys, tmp_path, flag):
        uni = tmp_path / "uni.json"
        argv = [arg.format(uni=uni) for arg in OVER_BUDGET[flag]]
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --{flag} must be <= {config.MAXIMUMS[flag]} (got ")
        assert peak < 2**20
        assert not uni.exists()

    @pytest.mark.parametrize("flags", sorted(OVER_JOINT_BUDGET))
    def test_joint_sizes_over_budget_exit_2_naming_both(self, capsys, tmp_path, flags):
        uni = tmp_path / "uni.json"
        argv = [arg.format(uni=uni) for arg in OVER_JOINT_BUDGET[flags]]
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert all(f"--{flag} " in err for flag in flags) and "budget" in err
        assert peak < 2**20
        assert not uni.exists()

    @pytest.mark.parametrize("case", sorted(UNBUILT_SIZES))
    def test_runs_build_no_universe(self, capsys, tmp_path, case):
        timings = tmp_path / "timings.json"
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *UNBUILT_SIZES[case], "--timings", str(timings))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert json.loads(out)["command"] == UNBUILT_SIZES[case][0]
        assert peak < 2 * 2**20
        stages = json.loads(timings.read_text())["stages"]
        assert not any(stage.startswith("layers.") for stage in stages)

    def test_layers_n_over_the_file_limit_exits_2_before_building(self, capsys, tmp_path):
        # n = MAX_SAVED_N + 1 passes the budget with up to 1023 pairs, whose
        # relocations would fill about 1 GiB before the save could refuse them
        uni = tmp_path / "uni.json"
        n = layers.MAX_SAVED_N + 1
        argv = ["layers", "--n", str(n), "--layers", "1000", "--seed", "1", "--universe", str(uni)]
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --n must be <= {layers.MAX_SAVED_N} (got {n}): ")
        assert peak < 2**20
        assert not uni.exists()

    def test_config_value_over_cap_names_line_and_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(f"{VALID_CONFIG}layers = 1000000000\n")
        match = r"run.cfg:4: key 'layers': --layers must be <="
        with pytest.raises(config.ConfigError, match=match):
            config.load_config(path)

    @pytest.mark.parametrize("flag, cap", sorted(config.MAXIMUMS.items()))
    def test_caps_leave_room_for_the_benchmark_and_golden_sizes(self, flag, cap):
        # the largest size a benchmark workload or golden report uses, and the
        # default --grid 501
        largest_used = {
            "n": 5, "layers": 10_000, "L": 64, "grid": 501, "k": 1_000_000, "labels": 50
        }
        assert cap >= 20 * largest_used[flag]

    def test_largest_valid_sizes_fit_the_budget(self):
        # at its cap, each size's own array stays within the budget
        caps = config.MAXIMUMS
        assert 16 * (3 * caps["n"] + 12) <= config.BUDGET
        assert 16 * caps["layers"] * (3 * 4 + 12) <= config.BUDGET
        assert 8 * caps["L"] <= config.BUDGET
        assert 8 * caps["grid"] ** 2 <= config.BUDGET < 8 * (caps["grid"] + 1) ** 2
        assert 8 * caps["k"] <= config.BUDGET
        assert 8 * (caps["labels"] + 1) <= config.BUDGET


def _universe_file(capsys, tmp_path):
    """A universe of n = 5, L = 3 and 3 pairs, written through the CLI."""
    path = tmp_path / "u5.json"
    code, _, _ = run_cli(
        capsys, "layers", "--n", "5", "--layers", "3", "--L", "3", "--seed", "2",
        "--universe", str(path),
    )
    assert code == 0
    return path


UNIVERSE_RUNS = {
    "simulate": ["simulate", "--a", "1,0,0", "--b", "0,1,0", "--trials", "100", "--seed", "1"],
    "chsh": ["chsh", "--angles", "0,90,45,135", "--trials", "100", "--seed", "1"],
}


class TestCliUniverseSizes:
    @pytest.mark.parametrize("command", sorted(UNIVERSE_RUNS))
    def test_report_shows_the_file_sizes(self, capsys, tmp_path, command):
        path = _universe_file(capsys, tmp_path)
        code, out, _ = run_cli(capsys, *UNIVERSE_RUNS[command], "--universe", str(path))
        assert code == 0
        cfg = json.loads(out)["config"]
        assert (cfg["n"], cfg["L"], cfg["layers"]) == (5, 3, 3)

    @pytest.mark.parametrize("command", sorted(UNIVERSE_RUNS))
    def test_agreeing_sizes_change_nothing(self, capsys, tmp_path, command):
        path = _universe_file(capsys, tmp_path)
        argv = [*UNIVERSE_RUNS[command], "--universe", str(path)]
        _, plain, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--n", "5", "--L", "3", "--layers", "3")
        assert code == 0
        assert out == plain

    @pytest.mark.parametrize("command", sorted(UNIVERSE_RUNS))
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key, value", [("n", "9"), ("L", "7"), ("layers", "1")])
    def test_disagreeing_size_exits_2_naming_the_flag(
        self, capsys, tmp_path, command, source, key, value
    ):
        path = _universe_file(capsys, tmp_path)
        argv = [*UNIVERSE_RUNS[command], "--universe", str(path)]
        if source == "flag":
            argv += [f"--{key}", value]
        else:
            cfg = tmp_path / "run.cfg"
            lines = {"n": "5", key: value}
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
            argv += ["--config", str(cfg)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --{key} {value} disagrees with {path}")

    @pytest.mark.parametrize("command", sorted(UNIVERSE_RUNS))
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_tie_weights_exits_2(self, capsys, tmp_path, command, source):
        # simulate and chsh build no universe, so they have nothing to tie:
        # the flag is unknown to the parser and the key unknown to the config
        if source == "flag":
            with pytest.raises(SystemExit) as excinfo:
                cli.main([*UNIVERSE_RUNS[command], "--tie-weights"])
            assert excinfo.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments: --tie-weights" in captured.err
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("n = 4\ntie_weights = true\n")
            code, out, err = run_cli(capsys, *UNIVERSE_RUNS[command], "--config", str(cfg))
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "unknown key 'tie_weights'" in err


class TestCliLayersAnalyze:
    def test_layers_then_analyze(self, capsys, tmp_path):
        upath = tmp_path / "uni.json"
        code, out, _ = run_cli(
            capsys,
            "layers", "--n", "4", "--layers", "10", "--L", "2",
            "--seed", "7", "--universe", str(upath),
        )
        assert code == 0
        assert upath.exists()
        code, out, _ = run_cli(
            capsys,
            "analyze", "--universe", str(upath),
            "--a", "1,0,0", "--b", "0.6,0.8,0", "--c", "0,0,1", "--witness",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["tv_cond_indep"] <= 1e-12
        assert doc["conditional_bias"]["A"] <= 1e-12
        assert doc["witness_bias"]["A"] > 0.1
        assert doc["pair_expectation"] == pytest.approx(-0.6, abs=1e-12)

    def test_analyze_without_c_exits_2_naming_it(self, capsys, tmp_path):
        upath = tmp_path / "uni.json"
        argv = ["layers", "--n", "4", "--layers", "3", "--seed", "7", "--universe", str(upath)]
        assert run_cli(capsys, *argv)[0] == 0
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["analyze", "--universe", str(upath), "--a", "1,0,0", "--b", "0,1,0"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the following arguments are required: --c" in captured.err

    def test_universe_round_trip_through_cli(self, capsys, tmp_path):
        upath = tmp_path / "uni.json"
        run_cli(
            capsys,
            "layers", "--n", "4", "--layers", "3", "--L", "2",
            "--seed", "11", "--universe", str(upath),
        )
        first = upath.read_bytes()
        run_cli(
            capsys,
            "layers", "--n", "4", "--layers", "3", "--L", "2",
            "--seed", "11", "--universe", str(upath),
        )
        assert upath.read_bytes() == first


def _set_packed(key, dtype, index, value):
    def doctor(doc):
        arr = np.frombuffer(base64.b64decode(doc[key]), dtype).reshape(3, -1).copy()
        arr[index] = value(arr[index])
        doc[key] = base64.b64encode(arr.tobytes()).decode("ascii")

    return doctor


def _truncate(key):
    def doctor(doc):
        doc[key] = base64.b64encode(base64.b64decode(doc[key])[:-2]).decode("ascii")

    return doctor


# doctoring of the valid 3-pair, n=4, L=2 layer-universe/2 document that
# `layers` writes -> text the error must hold (the field it names)
BAD_UNIVERSES = {
    "v1_schema": (
        lambda doc: doc.update(schema="layer-universe/1"),
        "unsupported universe schema 'layer-universe/1'",
    ),
    "v2_n_missing": (lambda doc: doc.pop("n"), "'n'"),
    "v2_interval_count_not_int": (lambda doc: doc.update(interval_count="2"), "interval_count"),
    "v2_pair_count_plus_one": (lambda doc: doc.update(pair_count=4), "pair_count"),
    "v2_pair_count_minus_one": (lambda doc: doc.update(pair_count=2), "pair_count"),
    "v2_pair_count_zero": (lambda doc: doc.update(pair_count=0), "pair_count"),
    # past the budget `layers` checks: rejected from the header, before the
    # short data could be decoded and found the wrong length
    "v2_pair_count_huge": (
        lambda doc: doc.update(pair_count=10**9),
        "'pair_count' = 1000000000 are past the sizes `layers` writes",
    ),
    "v2_interval_count_huge": (
        lambda doc: doc.update(interval_count=10**8),
        "--L 100000000 with --layers 3 would make",
    ),
    "v2_n_past_saved": (lambda doc: doc.update(n=10**8), "universe field 'n' must be <="),
    "v2_columns_not_base64": (lambda doc: doc.update(columns="*" + doc["columns"][1:]), "columns"),
    "v2_rows_truncated": (_truncate("rows"), "rows"),
    "v2_columns_repeat_a_position": (
        _set_packed("columns", "<u2", 0, lambda col: [col[1], *col[1:]]),
        "columns",
    ),
    "v2_rows_out_of_range": (_set_packed("rows", "<u2", 2, lambda row: [*row[:-1], 99]), "rows"),
    "v2_weights_nan": (_set_packed("weights", "<f8", 0, lambda w: [np.nan, 1.0]), "weights"),
    "v2_weights_sum_to_0.9": (_set_packed("weights", "<f8", 1, lambda w: [0.45, 0.45]), "weights"),
    "v2_weights_sum_to_1.4": (_set_packed("weights", "<f8", 1, lambda w: [0.7, 0.7]), "weights"),
    "v2_weights_negative": (_set_packed("weights", "<f8", 2, lambda w: [1.5, -0.5]), "weights"),
    "v2_weights_missing": (lambda doc: doc.pop("weights"), "weights"),
}


class TestCliRejectsBadUniverse:
    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    @pytest.mark.parametrize("defect", sorted(BAD_UNIVERSES))
    def test_exit_2_naming_the_field(self, capsys, tmp_path, command, defect):
        upath = tmp_path / "uni.json"
        code, _, _ = run_cli(
            capsys,
            "layers", "--n", "4", "--layers", "3", "--L", "2",
            "--seed", "13", "--universe", str(upath),
        )
        assert code == 0
        doc = json.loads(upath.read_text())
        doctor, field = BAD_UNIVERSES[defect]
        doctor(doc)
        upath.write_text(json.dumps(doc))
        settings = ["--a", "1,0,0", "--b", "0.6,0.8,0"]
        if command == "analyze":
            argv = ["analyze", "--universe", str(upath), *settings, "--c", "0,0,1"]
        else:
            argv = ["simulate", "--universe", str(upath), *settings]
            argv += ["--trials", "100", "--seed", "1"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and field in err


# a run of each command reading --universe, with the path appended
READS_UNIVERSE = {
    "analyze": ["analyze", "--a", "1,0,0", "--b", "0.6,0.8,0", "--c", "0,0,1"],
    "simulate": ["simulate", "--angle", "45", "--trials", "100", "--seed", "1"],
    "chsh": ["chsh", "--angles", "0,90,45,135", "--trials", "100", "--seed", "1"],
}


class TestCliUniverseFileErrors:
    @pytest.mark.parametrize("command", sorted(READS_UNIVERSE))
    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unreadable_file_exits_2_naming_the_path(self, capsys, tmp_path, command, target):
        path = tmp_path / "absent.json" if target == "missing" else tmp_path
        code, out, err = run_cli(capsys, *READS_UNIVERSE[command], "--universe", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("target", ["missing_directory", "directory"])
    def test_unwritable_path_exits_2_naming_it(self, capsys, tmp_path, target):
        path = tmp_path / "absent" / "uni.json" if target == "missing_directory" else tmp_path
        code, out, err = run_cli(
            capsys,
            "layers", "--n", "4", "--layers", "3", "--seed", "1", "--universe", str(path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(path) in err


class TestCliChsh:
    def test_angle_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "chsh", "--angles", "0,90,45,135", "--trials", "20000", "--seed", "3"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["s_value"] == pytest.approx(2.8284, abs=0.1)

    def test_config_run_matches_the_flag_run(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "n = 5\nL = 3\nlayers = 4\ntrials = 3000\nseed = 21\n"
            "settings = 1,0,0; 0,1,0; 0.6,0.8,0; 0.6,-0.8,0\n"
        )
        code, out, _ = run_cli(capsys, "chsh", "--config", str(path))
        assert code == 0
        from_config = json.loads(out)
        code, out, _ = run_cli(
            capsys,
            "chsh", "--n", "5", "--L", "3", "--layers", "4", "--trials", "3000", "--seed", "21",
            "--a", "1,0,0", "--a2", "0,1,0", "--b", "0.6,0.8,0",
            "--b2", "0.6,-0.8,0",
        )
        assert code == 0
        from_flags = json.loads(out)
        assert from_config.pop("config") != from_flags.pop("config")
        assert from_config == from_flags

    def test_wrong_angle_count(self, capsys):
        code, _, err = run_cli(capsys, "chsh", "--angles", "0,90", "--trials", "10", "--seed", "3")
        assert code == 2

    @pytest.mark.parametrize(
        "angles, message",
        [
            ("0,90,45,nan", "--angles must be finite degrees (got nan)"),
            ("0,inf,45,135", "--angles must be finite degrees (got inf)"),
            ("0,90,x,135", "--angles: 'x' is not a number"),
        ],
    )
    def test_bad_angle_exits_2_naming_it(self, capsys, angles, message):
        code, out, err = run_cli(capsys, "chsh", "--angles", angles, "--trials", "10", "--seed", "3")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestCliPoisson:
    def test_report_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "decay.csv"
        code, out, _ = run_cli(
            capsys,
            "poisson", "--theta", "1", "--k", "20000", "--labels", "20",
            "--seed", "5", "--csv", str(csv_path),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["uniform_ok"] is True
        assert doc["extreme_exact"] is True
        assert doc["extreme_lower"] == doc["extreme_upper"]
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "k,star_discrepancy"
        assert len(rows) >= 3

    @pytest.mark.parametrize("theta", ["-1", "0", "nan", "inf", "-inf"])
    def test_bad_theta_exits_2_naming_it(self, capsys, tmp_path, theta):
        out_path = tmp_path / "report.json"
        argv = ["poisson", f"--theta={theta}", "--k", "100", "--labels", "5", "--seed", "1"]
        code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: theta must be finite and positive, got ")
        assert not out_path.exists()


    @pytest.mark.parametrize("flag, value", [("k", 0), ("labels", 0), ("labels", 1)])
    def test_size_below_its_minimum_names_the_flag(self, capsys, flag, value):
        # one label would leave the uniformity test no degree of freedom
        argv = ["poisson", "--theta", "1", "--k", "100", "--labels", "5", "--seed", "1"]
        code, out, err = run_cli(capsys, *argv, f"--{flag}", str(value))
        assert code == 2
        assert out == ""
        assert err == f"error: --{flag} must be >= {config.MINIMUMS[flag]} (got {value})\n"

    def test_gate_passing_no_emission_exits_2_naming_the_flags(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        argv = ["poisson", "--theta", "1", "--k", "10", "--labels", "3", "--seed", "1"]
        argv += ["--p1", "0.0001", "--p2", "0.0001", "--out", str(out_path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and all(f"--{flag} " in err for flag in ("k", "p1", "p2"))
        assert not out_path.exists()

    # an escaped numpy RuntimeWarning would fail the run, not reach stderr;
    # at 1.79e305 and seed 3 the trace's times stay finite and the gate's pass
    # the largest float64
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("theta, seed", [("1e308", "1"), ("1.79e305", "3")])
    def test_overflowing_emission_times_exit_2_naming_the_flags(
        self, capsys, tmp_path, theta, seed
    ):
        out_path = tmp_path / "report.json"
        argv = ["poisson", "--theta", theta, "--k", "1000", "--labels", "2", "--seed", seed]
        code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --theta {float(theta)} and --k 1000 ")
        assert err.count("\n") == 1
        assert not out_path.exists()

    def test_command_peaks_below_three_emission_arrays(self, capsys):
        # the parts of one million emission times and their sorted copy are
        # 15.3 MiB; three such arrays are 22.9 MiB
        argv = ["poisson", "--theta", "1", "--k", "1000000", "--labels", "50",
                "--p1", "0.5", "--p2", "0.5", "--seed", "5"]
        assert run_cli(capsys, *argv, "--k", "1000")[0] == 0  # imports scipy.special
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 24 * 2**20

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_report_value_is_an_internal_error(
        self, capsys, monkeypatch, tmp_path, value
    ):
        # a report that strict JSON cannot hold is the program's fault: exit 1,
        # and neither the report nor the table is written
        monkeypatch.setattr(cli, "chi_square_quantile", lambda level, dof: value)
        csv_path = tmp_path / "decay.csv"
        argv = ["poisson", "--theta", "1", "--k", "100", "--labels", "5", "--seed", "1"]
        code, out, err = run_cli(capsys, *argv, "--csv", str(csv_path))
        assert code == 1
        assert out == ""
        assert err.startswith("internal error: the poisson report is not strict JSON")
        assert not csv_path.exists()


class TestCliSplines:
    def test_residual_summary(self, capsys):
        code, out, _ = run_cli(capsys, "splines", "--n", "4", "--grid", "51")
        assert code == 0
        doc = json.loads(out)
        assert doc["residual_min"] >= -1e-12
        assert doc["residual_max"] <= doc["defect_bound"] + 1e-12
        assert doc["partition_max_error"] <= 1e-12
        assert doc["marsden_max_error"] <= 1e-10

    @pytest.mark.parametrize("grid", ["1", "0", "-3"])
    def test_grid_below_two_names_the_flag(self, capsys, grid):
        code, out, err = run_cli(capsys, "splines", "--n", "4", "--grid", grid)
        assert code == 2
        assert out == ""
        assert "--grid" in err


def test_module_entry_point_runs_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    argv = [sys.executable, "-m", "eprsim.cli", "verify", "--n", "4", "--a", "1,0,0"]
    argv += ["--b", "0,1,0"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["command"] == "verify"
    assert doc["abs_error"] <= 1e-12


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 2
