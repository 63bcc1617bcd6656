import argparse
import base64
import csv
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eprsim import cli, config, emission, layers, measure, sampling
from eprsim.timings import StageTimer

from oracles import naive_squared_diff_sum, one_sided_discrepancies, point_labels


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
            "settings_line": 7,
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
    def test_setting_syntax_names_position_and_key(self, capsys, tmp_path, item):
        # the one parse of a run names the file line of a bad triple
        path = tmp_path / "run.cfg"
        path.write_text(f"n = 4\nsettings = 1,0,0; {item}\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}:2: key 'settings': ")

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

    @pytest.mark.parametrize(
        "text, key, lines",
        [
            ("seed = 3\nn = 4\nseed = 5\n", "seed", (1, 3)),
            ("n = 4\nsettings = 1,0,0; 0,1,0\n# again\nsettings = 0,1,0; 1,0,0\n",
             "settings", (2, 4)),
        ],
    )
    def test_key_given_twice_names_both_lines(self, capsys, tmp_path, text, key, lines):
        # the second line would silently replace the first: the run exits 2
        path = tmp_path / "run.cfg"
        path.write_text(text)
        message = f"{path}:{lines[1]}: key {key!r} is given again (first on line {lines[0]})"
        with pytest.raises(config.ConfigError) as exc:
            config.load_config(path)
        assert str(exc.value) == message
        code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--trials", "10")
        assert (code, out, err) == (2, "", f"error: {message}\n")


def _run_module(argv):
    """`python -m eprsim.cli argv` in a fresh process on this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    argv = [sys.executable, "-m", "eprsim.cli", *argv]
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)


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
        assert doc["schema_versions"]["universe"] == "layer-universe/3"

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

    # a squared norm that overflows, underflows to a subnormal, or to 0
    @pytest.mark.parametrize("b", ["1e308,1e308,0", "3e-162,3e-162,0", "1e-320,1e-320,0"])
    def test_normalize_at_the_ends_of_the_double_range(self, b):
        argv = ["verify", "--n", "4", "--a", "1,0,0", "--b", b, "--normalize"]
        proc = _run_module(argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        half = math.sqrt(0.5)
        assert json.loads(proc.stdout)["b"] == pytest.approx([half, half, 0.0], rel=0, abs=1e-15)

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

    def test_one_setting_exits_2_naming_the_setting_forms(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--a", "1,0,0", "--trials", "10", "--seed", "1")
        assert (code, out) == (2, "")
        assert err == "error: provide --a and --b, --angle, or two settings in --config\n"

    def test_zero_trials_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--angle", "45", "--trials", "0", "--seed", "1")
        assert code == 2

    def test_setting_starting_with_minus_needs_the_equals_form(self, capsys):
        # argparse reads a bare "-1,0,0" as an option, so README gives --b=-1,0,0
        argv = ["simulate", "--a", "1,0,0", "--trials", "10", "--seed", "1"]
        code, out, err = run_cli(capsys, *argv, "--b=-1,0,0")
        assert code == 0, err
        assert json.loads(out)["b"] == [-1.0, 0.0, 0.0]
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*argv, "--b", "-1,0,0"])
        assert excinfo.value.code == 2
        assert "argument --b: expected one argument" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["simulate", "chsh"])
    def test_config_that_is_not_utf8_names_the_file(self, capsys, tmp_path, command):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xffn = 4\ntrials = 200\nseed = 7\n")
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 2
        assert out == ""
        assert f"error: {path}: not UTF-8 text" in err

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
        assert err.startswith(f"error: {path}:4: key 'settings': setting norm")


# an angle run of each command with its degrees, and the settings they give
ANGLE_RUNS = {
    "simulate": (["simulate", "--angle", "45"], (0.0, 45.0)),
    "chsh": (["chsh", "--angles", "0,90,45,135"], (0.0, 90.0, 45.0, 135.0)),
}


class TestCliAngleRuns:
    """An --angle or --angles run takes every setting from its degrees: a
    setting flag beside it is refused, and a config file's setting texts,
    which the run does not use, are not reported."""

    @pytest.mark.parametrize(
        "command, flags, named",
        [
            ("simulate", ["--a", "1,0,0", "--b", "1,0,0"], "--a"),
            ("simulate", ["--b", "1,0,0"], "--b"),
            ("chsh", ["--a", "1,0,0", "--b2", "0,1,0"], "--a"),
            ("chsh", ["--b2", "0,1,0"], "--b2"),
        ],
    )
    def test_a_setting_flag_beside_the_angles_exits_2_naming_both(
        self, capsys, command, flags, named
    ):
        argv, _ = ANGLE_RUNS[command]
        code, out, err = run_cli(capsys, *argv, *flags, "--trials", "10", "--seed", "1")
        assert code == 2
        assert out == ""
        assert err == f"error: {argv[1]} and {named} cannot be given together\n"

    @pytest.mark.parametrize("command", ["simulate", "chsh"])
    def test_angles_override_config_settings_and_report_them_null(
        self, capsys, tmp_path, command
    ):
        argv, degrees = ANGLE_RUNS[command]
        settings = "; ".join(["1,0,0"] * len(degrees))
        path = tmp_path / "run.cfg"
        path.write_text(f"n = 4\ntrials = 200\nseed = 7\nsettings = {settings}\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert code == 0, err
        doc = json.loads(out)
        names = cli.SETTING_FLAGS[command]
        assert {name: doc["config"][name] for name in names} == dict.fromkeys(names)
        code, plain, err = run_cli(capsys, *argv, "--n", "4", "--trials", "200", "--seed", "7")
        assert code == 0, err
        assert {k: v for k, v in doc.items() if k != "config"} == {
            k: v for k, v in json.loads(plain).items() if k != "config"
        }
        if command == "simulate":
            assert doc["b"] == [float(x) for x in measure.setting_from_angle(45.0)]


# valid runs of the commands taking size flags; a bad size is appended as a
# flag (the last occurrence wins) or given as a config line in place of the
# valid one (a key given twice is refused)
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
            valid = "".join(line for line in VALID_CONFIG.splitlines(True)
                            if not line.startswith(f"{key} "))
            path.write_text(f"{valid}{key} = {BAD_SIZES[key]}\n")
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
    # the first n and, at n = 4 and one pair, the first L of a universe file
    # that `analyze` could not hold
    ("n",): ["layers", "--n", "1870", "--layers", "1", "--seed", "1", "--universe", "{uni}"],
    ("n", "L", "layers"): ["layers", "--n", "4", "--L", "321096", "--layers", "1", "--seed", "1",
                           "--universe", "{uni}"],
    # each below its cap, but the trace and the label counts take 1.18 GB
    ("k", "labels"): ["poisson", "--theta", "1", "--k", "100000000", "--labels", "16000000",
                      "--seed", "1"],
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


# the commands that build a first-layer measure of order --n
MEASURE_RUNS = {
    "verify": ["verify", "--a", "0.6,0.8,0", "--b", "0,0,1"],
    "simulate": ["simulate", "--angle", "45", "--trials", "1000", "--seed", "1"],
    "chsh": ["chsh", "--angles", "0,90,45,135", "--trials", "1000", "--seed", "1"],
}


# the start of a multi-MiB universe file that must be refused from its first
# bytes -> text the error must hold
UNREAD_BODIES = {
    # a `layer-universe/2` file is one JSON line of megabytes
    "no_header_line": (b'{"columns": "', "so it is not 'layer-universe/3'"),
    "sizes_past_the_budget": (
        b'{"interval_count": 2, "n": 4, "pair_count": 1000000000, '
        b'"schema": "layer-universe/3"}\n',
        "'pair_count' = 1000000000 are past the sizes `layers` writes",
    ),
}


# the most each command may allocate per pair of a universe at n = 4 (bytes,
# whole-command tracemalloc slope from M = 1e4 to 2e4): bounds that only a
# run holding the universe plus scratch of a fixed size per pass meets.
# Measured 124 (layers, simulate) and 152 (analyze) at L = 2, 618 and 649 at
# L = 64, where the file takes 112 and 608; passes over all M pairs at once
# took 185, 317, 678 and 1194, and analyze's M-float unit scale and row sums
# 176 and 657 (numpy 2.4, x86-64 Linux)
UNIVERSE_SLOPES = {
    2: {"layers": 140, "analyze": 165, "simulate": 140},
    64: {"layers": 640, "analyze": 700, "simulate": 640},
}


def _identity_universe(tmp_path, n, intervals, pairs):
    """A hand-made `layer-universe/3` file of identity pairs and even
    weights, at sizes `layers` may refuse to write."""
    eye = np.tile(np.arange(3 * n + 12, dtype="<u2"), (pairs, 1)).tobytes()
    header = {"interval_count": intervals, "n": n, "pair_count": pairs,
              "schema": "layer-universe/3"}
    path = tmp_path / "u.universe"
    path.write_bytes(
        json.dumps(header, sort_keys=True).encode() + b"\n" + eye + eye
        + np.full(pairs * intervals, 1.0 / intervals, dtype="<f8").tobytes()
    )
    return path


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
        # n = 1869 is the largest n of a universe file, one pair and one
        # interval; n = 1870 is refused before anything is built, naming --n
        uni = tmp_path / "uni.json"
        argv = ["layers", "--layers", "1", "--L", "1", "--seed", "1", "--universe", str(uni)]
        assert run_cli(capsys, *argv, "--n", "1869")[0] == 0
        uni.unlink()
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv, "--n", "1870")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err == "error: --n 1870 would need about 1025 MiB, above the 1 GiB budget\n"
        assert peak < 2**20
        assert not uni.exists()

    def test_analyze_at_the_largest_saved_n_exits_2_naming_it(self, capsys, tmp_path):
        # a file of one pair at the largest n whose positions fit uint16, which
        # `layers` does not write: the dependence_report joint table of
        # (3n+12)^2 float64 would take 32 GiB, so the header is refused
        n = layers.MAX_SAVED_N
        uni = _identity_universe(tmp_path, n, 1, 1)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *READS_UNIVERSE["analyze"], "--universe", str(uni))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {uni}: universe fields 'n' = {n}, ")
        assert err.count("\n") == 1
        assert peak < 2**20

    def test_analyze_refuses_n_past_its_budget_from_the_header(self, capsys, tmp_path):
        # n = 1870 is the first n whose joint table passes the budget, and
        # `layers` refuses it: a hand-made file of 100 identity pairs (4.5 MB)
        # is refused from its header, before the body is read or checked
        n, pairs = 1870, 100
        config.check_budget("layers", {"n": n - 1})
        with pytest.raises(config.ConfigError):
            config.check_budget("layers", {"n": n})
        uni = _identity_universe(tmp_path, n, 1, pairs)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *READS_UNIVERSE["analyze"], "--universe", str(uni))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {uni}: universe fields 'n' = {n}, ")
        assert peak < 2**20

    def test_analyze_refuses_intervals_past_its_budget_from_the_header(self, capsys, tmp_path):
        # at n = 4 and one pair, L = 321096 is the first interval count whose
        # S x L sums pass the budget, and `layers` refuses it: a hand-made
        # file (2.6 MB) is refused from its header, before the body is read
        n, intervals, pairs = 4, 321_096, 1
        config.check_budget("layers", {"n": n, "L": intervals - 1, "layers": pairs})
        with pytest.raises(config.ConfigError):
            config.check_budget("layers", {"n": n, "L": intervals, "layers": pairs})
        uni = _identity_universe(tmp_path, n, intervals, pairs)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *READS_UNIVERSE["analyze"], "--universe", str(uni))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {uni}: universe fields 'n' = {n}, 'interval_count' = {intervals} and "
            f"'pair_count' = {pairs} are past the sizes `layers` writes: --n {n} with "
            f"--L {intervals} with --layers {pairs} would need about 1025 MiB, above the "
            "1 GiB budget\n"
        )
        assert peak < 2**20

    def test_budgets_count_one_block_of_layers_rows(self):
        # `config` cannot import `layers.BLOCK_ROWS` and states it: the
        # scratch of one block of pairs grows with the pairs up to
        # BLOCK_ROWS, and past it only the weights do
        rows = layers.BLOCK_ROWS
        for nbytes, per_pair in (
            (lambda pairs: config.JOINT_ARRAYS["layers"][("L", "layers")](1, pairs), 24),
            (lambda pairs: config.JOINT_ARRAYS["layers"][("n", "L", "layers")](4, 1, pairs), 16),
        ):
            assert nbytes(rows) - nbytes(rows - 1) == per_pair
            assert nbytes(rows + 1) - nbytes(rows) == 8

    def test_analyze_peak_per_interval_stays_within_its_budget(self, capsys, tmp_path):
        # the whole command's peak at two interval counts of one pair, whose
        # difference the S x L sums of `outcome_biases` make: measured 2593
        # bytes per interval, where the budget counts 3344
        nbytes = config.JOINT_ARRAYS["layers"][("n", "L", "layers")]
        peaks = []
        for intervals in (2, 2**12, 2**13):  # the first run pays first-call imports
            uni = tmp_path / f"{intervals}.universe"
            argv = ["layers", "--n", "4", "--L", str(intervals), "--layers", "1", "--seed", "1"]
            assert run_cli(capsys, *argv, "--universe", str(uni))[0] == 0
            tracemalloc.start()
            try:
                code, _, err = run_cli(capsys, *READS_UNIVERSE["analyze"], "--universe", str(uni))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0, err
        slope = (peaks[2] - peaks[1]) / 2**12
        assert slope <= (nbytes(4, 2**13, 1) - nbytes(4, 2**12, 1)) / 2**12, slope

    def test_layers_peak_per_interval_stays_within_its_budget(self, capsys, tmp_path):
        # one pair's weights beside one block's uint64 words and edges: the
        # whole command's peak grows by the 24 bytes per interval the budget
        # counts (measured 23.96-24.00 from L = 2^17 to 2^18, below the
        # L = 321 095 where one pair's files stop), give or take the 1% of
        # what else the two runs allocate
        nbytes = config.JOINT_ARRAYS["layers"][("L", "layers")]
        argv = ["layers", "--n", "4", "--layers", "1", "--seed", "1"]
        peaks = []
        for intervals in (2, 2**17, 2**18):  # the first run pays first-call imports
            tracemalloc.start()
            try:
                code, _, err = run_cli(capsys, *argv, "--L", str(intervals),
                                       "--universe", str(tmp_path / "u.universe"))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0, err
        slope = (peaks[2] - peaks[1]) / 2**17
        assert slope <= 1.01 * (nbytes(2**18, 1) - nbytes(2**17, 1)) / 2**17, slope

    @pytest.mark.parametrize("command", ["analyze", "chsh", "simulate"])
    @pytest.mark.parametrize("defect", sorted(UNREAD_BODIES))
    def test_universe_refused_before_its_body_is_read(self, capsys, tmp_path, command, defect):
        # a 4 MiB file: the header is read through a capped line and checked
        # against the budget before any more of the file is read
        path = tmp_path / "uni.json"
        path.write_bytes(UNREAD_BODIES[defect][0] + bytes(4 << 20))
        argv = [*READS_UNIVERSE[command], "--universe", str(path)]
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and UNREAD_BODIES[defect][1] in err
        assert peak < 2**20

    @pytest.mark.parametrize("interval_count", sorted(UNIVERSE_SLOPES))
    def test_universe_commands_peak_per_pair(self, capsys, tmp_path, interval_count):
        # whole-command peaks at M = 1e4 and 2e4 pairs (n = 4): the slope per
        # pair of each command that writes or reads a universe file
        peaks = {}
        for pairs in (10_000, 20_000):
            path = str(tmp_path / f"u{pairs}.universe")
            runs = {
                "layers": [
                    "layers", "--n", "4", "--layers", str(pairs), "--L", str(interval_count),
                    "--seed", "1", "--universe", path,
                ],
                "analyze": [*READS_UNIVERSE["analyze"], "--witness", "--universe", path],
                "simulate": [*READS_UNIVERSE["simulate"], "--universe", path],
            }
            for command, argv in runs.items():
                # the first call writes the file the others read, and imports
                assert run_cli(capsys, *argv)[0] == 0
                tracemalloc.start()
                try:
                    code, _, err = run_cli(capsys, *argv)
                    peaks.setdefault(command, []).append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                assert code == 0, err
        slopes = {command: (high - low) / 10_000 for command, (low, high) in peaks.items()}
        for command, bound in UNIVERSE_SLOPES[interval_count].items():
            assert slopes[command] <= bound, (command, slopes)

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

    def test_universe_rule_leaves_room_for_the_benchmark_and_golden_sizes(self):
        # the largest universe sizes a benchmark workload or golden report
        # uses, all at once, take at most a twentieth of the budget
        sizes = {"n": 5, "L": 64, "layers": 10_000}
        for names, nbytes in config.JOINT_ARRAYS["layers"].items():
            assert 20 * nbytes(*(sizes[name] for name in names)) <= config.BUDGET, names

    def test_largest_valid_sizes_fit_the_budget(self):
        # at its cap, each size's own array stays within the budget
        caps = config.MAXIMUMS
        assert 16 * (3 * caps["n"] + 12) <= config.BUDGET
        assert 16 * caps["layers"] * (3 * 4 + 12) <= config.BUDGET
        assert 8 * caps["L"] <= config.BUDGET
        assert 8 * caps["grid"] ** 2 <= config.BUDGET < 8 * (caps["grid"] + 1) ** 2
        assert 8 * caps["k"] <= config.BUDGET
        assert 8 * (caps["labels"] + 1) <= config.BUDGET

    def test_k_cap_keeps_the_poisson_peak_within_the_budget(self, capsys):
        # the whole command's peak at two trace lengths: one array of k
        # floats, each prefix sorted in place, so about the 8 bytes per k
        # that the cap of BUDGET // 8 assumes
        argv = ["poisson", "--theta", "1", "--labels", "50", "--seed", "1"]
        assert run_cli(capsys, *argv, "--k", "1000")[0] == 0  # first-call imports
        peaks = []
        for k in (2_000_000, 4_000_000):
            tracemalloc.start()
            try:
                code, _, err = run_cli(capsys, *argv, "--k", str(k))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0, err
        slope = (peaks[1] - peaks[0]) / 2_000_000
        assert slope <= 8.25, slope

    def test_labels_cap_keeps_the_poisson_peak_within_the_budget(self, capsys):
        # the whole command's peak at two label counts with k >= labels: the
        # label counts, gated counts and chi-square temporaries grow with the
        # labels, about 32 bytes each, within the BUDGET // 64 of the cap
        argv = ["poisson", "--theta", "1", "--k", "2000000", "--seed", "1"]
        assert run_cli(capsys, *argv, "--labels", "2")[0] == 0  # first-call imports
        peaks = []
        for labels in (200_000, 2_000_000):
            tracemalloc.start()
            try:
                code, _, err = run_cli(capsys, *argv, "--labels", str(labels))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0, err
        slope = (peaks[1] - peaks[0]) / 1_800_000
        assert slope <= config.BUDGET // config.MAXIMUMS["labels"], slope
        # the ungated and gated int64 counts and one float temporary of the
        # chi-square: the 24 bytes per label of the joint (k, labels) budget
        assert slope <= 26, slope

    @pytest.mark.parametrize("k", [1_000_000, 2_000_000])
    def test_poisson_holds_its_trace_plus_a_fixed_scratch(self, capsys, k):
        # beside the k parts every pass keeps buffers of one chunk: measured
        # 0.31 MiB above 8 bytes per k; a 2**16 trace chunk took 1.08 MiB
        argv = ["poisson", "--theta", "1", "--labels", "50", "--seed", "1"]
        assert run_cli(capsys, *argv, "--k", "1000")[0] == 0  # first-call imports
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, *argv, "--k", str(k))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak - 8 * k <= 2**19, peak - 8 * k

    def test_poisson_budget_counts_the_trace_with_the_labels(self):
        # each size passes its cap, but not both together
        sizes = {"k": 100_000_000, "labels": 16_000_000}
        for name, value in sizes.items():
            assert config.check_size(name, value) == value
        config.check_budget("poisson", {"k": 100_000_000, "labels": 2})
        config.check_budget("poisson", {"k": 10, "labels": 16_000_000})
        with pytest.raises(config.ConfigError, match="--k 100000000 with --labels 16000000 "):
            config.check_budget("poisson", sizes)

    def test_poisson_budget_message_names_the_run_not_an_array(self):
        # the joint entry adds the trace and the label counts, two arrays, so
        # the message names what they would need: 8 k + 24 labels bytes
        with pytest.raises(config.ConfigError) as err:
            config.check_budget("poisson", {"k": 100_000_000, "labels": 16_000_000})
        assert str(err.value) == (
            "--k 100000000 with --labels 16000000 would need about "
            "1130 MiB, above the 1 GiB budget"
        )

    @pytest.mark.parametrize("command", sorted(MEASURE_RUNS))
    def test_n_cap_keeps_the_measure_peak_within_the_budget(self, capsys, command):
        # the peak per unit of n at two sizes, scaled to the cap; chsh builds
        # one measure per component, one after another
        assert run_cli(capsys, *MEASURE_RUNS[command], "--n", "4")[0] == 0  # first-call imports
        for n in (10_000, 100_000):
            tracemalloc.start()
            try:
                code, _, err = run_cli(capsys, *MEASURE_RUNS[command], "--n", str(n))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 0, err
            assert peak / n * config.MAXIMUMS["n"] <= config.BUDGET, (n, peak)


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

    def test_analyze_takes_a_setting_c_near_b_and_refuses_c_equal_to_b(self, capsys, tmp_path):
        upath = tmp_path / "uni.json"
        argv = ["layers", "--n", "4", "--layers", "10", "--seed", "7", "--universe", str(upath)]
        assert run_cli(capsys, *argv)[0] == 0
        argv = ["analyze", "--universe", str(upath), "--a", "1,0,0", "--b", "0.6,0.8,0"]
        # a unit setting 4e-6 from b
        code, out, err = run_cli(capsys, *argv, "--c", "0.6000039999925,0.79999699999,0")
        assert code == 0, err
        assert json.loads(out)["setting_shift"] > 0.0
        code, out, err = run_cli(capsys, *argv, "--c", "0.6,0.8,0")
        assert code == 2
        assert out == ""
        assert err == "error: alternate setting c must differ from b\n"

    def test_layers_reports_the_digits_at_n_249(self, capsys, tmp_path):
        upath = tmp_path / "uni.json"
        argv = ["layers", "--n", "249", "--layers", "1", "--seed", "1", "--universe", str(upath)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert json.loads(out)["published_layer_count_digits"] == 4310

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


# a valid run of each command taking setting flags; {uni} is a universe file
SETTING_RUNS = {
    "verify": ["verify", "--n", "4", "--a", "1,0,0", "--b", "0.6,0.8,0"],
    "analyze": ["analyze", "--universe", "{uni}",
                "--a", "1,0,0", "--b", "0.6,0.8,0", "--c", "0,0,1"],
    "simulate": ["simulate", "--n", "4", "--trials", "100", "--seed", "1",
                 "--a", "1,0,0", "--b", "0.6,0.8,0"],
    "chsh": ["chsh", "--n", "4", "--trials", "100", "--seed", "1",
             "--a", "1,0,0", "--a2", "0,1,0", "--b", "0.6,0.8,0", "--b2", "0.6,-0.8,0"],
}
# the setting flags of each of those runs
RUN_SETTING_FLAGS = {
    "verify": ("a", "b"), "analyze": ("a", "b", "c"),
    "simulate": ("a", "b"), "chsh": ("a", "a2", "b", "b2"),
}
# a bad value of each kind a setting flag can take
BAD_SETTINGS = {"norm": "1,1,0", "zero": "0,0,0", "non_finite": "nan,0,0", "syntax": "1,0"}
# each setting divided by its norm a second time changes a bit, and with
# a = (1,0,0) so does -a.b
TWICE_DIVIDED = ["1,2,2", "1e308,1e308,0"]


@pytest.fixture(scope="module")
def setting_universe(tmp_path_factory):
    path = tmp_path_factory.mktemp("settings") / "uni.json"
    report = path.with_name("layers.json")
    argv = ["layers", "--n", "4", "--layers", "3", "--seed", "1", "--universe", str(path)]
    assert cli.main([*argv, "--out", str(report)]) == 0
    return path


def _setting_run(command, uni):
    return [arg.format(uni=uni) for arg in SETTING_RUNS[command]]


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


class TestCliSettingErrors:
    def test_every_setting_flag_is_covered(self):
        assert {c: cli.SETTING_FLAGS.get(c) for c in SETTING_RUNS} == RUN_SETTING_FLAGS

    @pytest.mark.parametrize("command", sorted(SETTING_RUNS))
    def test_the_valid_runs_exit_0(self, capsys, setting_universe, command):
        code, _, err = run_cli(capsys, *_setting_run(command, setting_universe))
        assert code == 0, err

    @pytest.mark.parametrize("kind", sorted(BAD_SETTINGS))
    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command, flags in RUN_SETTING_FLAGS.items() for flag in flags],
    )
    def test_exit_2_naming_the_flag(self, capsys, tmp_path, setting_universe, command, flag, kind):
        # the last occurrence of a flag wins
        out = tmp_path / "report.json"
        argv = [*_setting_run(command, setting_universe), f"--{flag}={BAD_SETTINGS[kind]}"]
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: --{flag}: setting ")
        assert not out.exists()


class TestCliSettingsKeepTheirBits:
    """A report's settings are the bits `parse_setting` returned, and its
    numbers are computed from those bits."""

    @pytest.mark.parametrize("b", TWICE_DIVIDED)
    def test_verify(self, capsys, b):
        argv = ["verify", "--n", "4", "--a", "1,0,0", "--b", b, "--normalize", "--genuine-variant"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        doc = json.loads(out)
        assert _bits(doc["b"]) == config.parse_setting(b, normalize=True).tobytes()
        assert doc["expected"] == -float(np.dot(doc["a"], doc["b"]))
        m1 = float(np.sum(np.abs(doc["a"]) * np.abs(doc["b"])))
        assert doc["genuine_variant"]["m1"] == m1

    @pytest.mark.parametrize("b", TWICE_DIVIDED)
    def test_simulate(self, capsys, b):
        argv = ["simulate", "--n", "4", "--a", "1,0,0", "--b", b, "--normalize"]
        code, out, err = run_cli(capsys, *argv, "--trials", "100", "--seed", "1")
        assert code == 0, err
        doc = json.loads(out)
        assert _bits(doc["b"]) == config.parse_setting(b, normalize=True).tobytes()
        assert doc["exact_target"] == -float(np.dot(doc["a"], doc["b"]))

    def test_chsh(self, capsys):
        texts = ["1,0,0", "1e308,1e308,0", "1,2,2", "0,0,1"]
        flags = [f"--{name}={text}" for name, text in zip(RUN_SETTING_FLAGS["chsh"], texts)]
        argv = ["chsh", "--n", "4", "--trials", "100", "--seed", "1", "--normalize", *flags]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        a, a2, b, b2 = (config.parse_setting(text, normalize=True) for text in texts)
        targets = [comp["exact_target"] for comp in json.loads(out)["components"]]
        assert targets == [-float(np.dot(x, y)) for x, y in ((a, b), (a, b2), (a2, b), (a2, b2))]

    def test_analyze_builds_two_measures_from_the_parsed_bits(
        self, capsys, monkeypatch, setting_universe
    ):
        built = []

        def build(a, b, n):
            built.append(measure.build_measure(a, b, n))
            return built[-1]

        monkeypatch.setattr(cli, "build_measure", build)
        texts = ["1,2,2", "1e308,1e308,0", "0,0,1"]
        flags = [f"--{name}={text}" for name, text in zip("abc", texts)]
        argv = ["analyze", "--universe", str(setting_universe), "--normalize", *flags]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        a, b, c = (config.parse_setting(text, normalize=True).tobytes() for text in texts)
        assert [(mu.a.tobytes(), mu.b.tobytes()) for mu in built] == [(a, b), (a, c)]
        want = -float(np.dot(built[0].a, built[0].b))
        assert json.loads(out)["pair_expectation"] == pytest.approx(want, abs=1e-12)


def _split(data):
    header, body = data.split(b"\n", 1)
    return json.loads(header), body


def _join(header, body):
    return json.dumps(header).encode() + b"\n" + body


def _set_header(**fields):
    """Rewrite header fields; a field set to None is dropped."""

    def doctor(data):
        header, body = _split(data)
        header.update(fields)
        return _join({k: v for k, v in header.items() if v is not None}, body)

    return doctor


# each array of the valid n = 4, L = 2, 3-pair body: (dtype, offset, count)
BODY_ARRAYS = {"columns": ("<u2", 0, 72), "rows": ("<u2", 144, 72), "weights": ("<f8", 288, 6)}


def _set_array(key, index, value):
    def doctor(data):
        header, body = _split(data)
        dtype, offset, count = BODY_ARRAYS[key]
        arr = np.frombuffer(body, dtype, count, offset).reshape(3, -1).copy()
        arr[index] = value(arr[index])
        return _join(header, body[:offset] + arr.tobytes() + body[offset + arr.nbytes :])

    return doctor


def _as_schema_2(data):
    """The same universe as the `layer-universe/2` file an earlier release
    wrote: one JSON object with the arrays in base64, and no newline."""
    header, body = _split(data)
    for key, (dtype, offset, count) in BODY_ARRAYS.items():
        raw = body[offset : offset + count * np.dtype(dtype).itemsize]
        header[key] = base64.b64encode(raw).decode("ascii")
    header["schema"] = "layer-universe/2"
    return json.dumps(header, sort_keys=True).encode()


# doctoring of the bytes of the valid 3-pair, n=4, L=2 layer-universe/3 file
# that `layers` writes -> text the error must hold (the field it names)
BAD_UNIVERSES = {
    "schema_1": (_set_header(schema="layer-universe/1"), "universe schema 'layer-universe/1'"),
    "schema_2": (_set_header(schema="layer-universe/2"), "universe schema 'layer-universe/2'"),
    "schema_missing": (_set_header(schema=None), "unsupported universe schema None"),
    # a whole file of the earlier schema has no header line
    "schema_2_file": (_as_schema_2, "universe header: the file does not start with a line"),
    "header_no_newline": (
        lambda data: data.split(b"\n", 1)[0],
        "so it is not 'layer-universe/3'",
    ),
    "header_past_the_cap": (
        _set_header(padding="x" * layers.HEADER_CAP),
        f"at most {layers.HEADER_CAP} bytes, so it is not 'layer-universe/3'",
    ),
    "header_not_json": (
        lambda data: b"n = 4" + data[data.index(b"\n") :],
        "universe header is not UTF-8 JSON",
    ),
    "header_not_utf8": (
        lambda data: b'{"schema": "\xff"}' + data[data.index(b"\n") :],
        "universe header is not UTF-8",
    ),
    "header_not_an_object": (
        lambda data: b"[4, 2, 3]" + data[data.index(b"\n") :],
        "universe header must be a JSON object",
    ),
    "n_missing": (_set_header(n=None), "universe field 'n' must be an integer, got None"),
    "n_not_int": (_set_header(n=4.0), "universe field 'n' must be an integer"),
    "n_zero": (_set_header(n=0), "universe field 'n' must be >= 4"),
    "n_past_saved": (_set_header(n=10**8), "universe fields 'n' = 100000000, "),
    "n_one_past_saved": (
        _set_header(n=layers.MAX_SAVED_N + 1), f"universe fields 'n' = {layers.MAX_SAVED_N + 1}, "
    ),
    # the first n past the sizes of a universe file, refused from the header
    "n_past_the_file_sizes": (
        _set_header(n=1870),
        "'n' = 1870, 'interval_count' = 2 and 'pair_count' = 3 are past the sizes `layers` "
        "writes: --n 1870 would need",
    ),
    "n_plus_one": (_set_header(n=5), "'n' = 5"),
    "interval_count_missing": (_set_header(interval_count=None), "'interval_count'"),
    "interval_count_not_int": (_set_header(interval_count="2"), "'interval_count'"),
    "interval_count_zero": (_set_header(interval_count=0), "'interval_count' must be >= 1"),
    "interval_count_plus_one": (_set_header(interval_count=3), "'interval_count' = 3"),
    # past the budget `layers` checks: rejected from the header, before the
    # short body could be read and found the wrong length
    "interval_count_huge": (
        _set_header(interval_count=10**8),
        "--L 100000000 with --layers 3 would need",
    ),
    "pair_count_missing": (_set_header(pair_count=None), "'pair_count'"),
    "pair_count_not_int": (_set_header(pair_count=True), "'pair_count' must be an integer"),
    "pair_count_zero": (_set_header(pair_count=0), "'pair_count' must be >= 1"),
    "pair_count_plus_one": (_set_header(pair_count=4), "'pair_count' = 4"),
    "pair_count_minus_one": (_set_header(pair_count=2), "'pair_count' = 2"),
    "pair_count_huge": (
        _set_header(pair_count=10**9),
        "'pair_count' = 1000000000 are past the sizes `layers` writes",
    ),
    "body_missing": (lambda data: data[: data.index(b"\n") + 1], "universe body holds 0 bytes"),
    "body_one_byte_short": (lambda data: data[:-1], "universe body holds 335 bytes"),
    "body_one_byte_extra": (lambda data: data + b"\0", "universe body holds more than 336"),
    "columns_repeat_a_position": (
        _set_array("columns", 0, lambda col: [col[1], *col[1:]]),
        "columns",
    ),
    "rows_out_of_range": (_set_array("rows", 2, lambda row: [*row[:-1], 99]), "rows"),
    # one past the last of the 3n+12 = 24 positions, and the largest uint16
    "columns_at_3n_plus_12": (_set_array("columns", 1, lambda col: [*col[:-1], 24]), "columns"),
    "rows_at_uint16_max": (_set_array("rows", 0, lambda row: [65535, *row[1:]]), "rows"),
    "weights_nan": (_set_array("weights", 0, lambda w: [np.nan, 1.0]), "weights"),
    "weights_sum_to_0.9": (_set_array("weights", 1, lambda w: [0.45, 0.45]), "weights"),
    "weights_sum_to_1.4": (_set_array("weights", 1, lambda w: [0.7, 0.7]), "weights"),
    "weights_negative": (_set_array("weights", 2, lambda w: [1.5, -0.5]), "weights"),
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
        doctor, field = BAD_UNIVERSES[defect]
        upath.write_bytes(doctor(upath.read_bytes()))
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

    def test_bench_argv_keeps_its_size_flags(self, capsys):
        # --L and --layers size nothing, but stay valid and in the config block
        argv = ["chsh", "--angles", "0,90,45,135", "--trials", "1000000", "--n", "4",
                "--L", "64", "--layers", "50", "--seed", "1"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        doc = json.loads(out)
        assert (doc["config"]["L"], doc["config"]["layers"]) == (64, 50)
        assert abs(doc["s_value"] - 2.0 * np.sqrt(2.0)) <= 6.0 * doc["stderr"]

    def test_three_settings_exit_2_naming_the_setting_forms(self, capsys):
        code, out, err = run_cli(
            capsys, "chsh", "--a", "1,0,0", "--a2", "0,1,0", "--b", "0,0,1",
            "--trials", "10", "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: provide --angles, all of --a --a2 --b --b2, or four settings in --config\n"
        )

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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--a", "1,0,0", "--a2", "0,1,0", "--b", "1,0,0", "--b2", "0,1,0"],
             "--angles and --a cannot be given together"),
            ([], "--angles needs four comma-separated degrees: a,a',b,b'"),
        ],
    )
    def test_empty_angles_are_given_angles(self, capsys, flags, message):
        # an empty --angles is four degrees too few, not a run without --angles
        code, out, err = run_cli(
            capsys, "chsh", "--angles", "", *flags, "--trials", "100", "--seed", "2"
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestReportIsTheLibraryReturn:
    """The simulate and chsh reports print the dicts `sampling` returns, key
    for key and value for value; simulate adds only abs_error."""

    def test_chsh_report_is_the_chsh_return(self, capsys):
        argv = ["chsh", "--angles", "0,90,45,135", "--trials", "1000000", "--n", "4"]
        code, out, err = run_cli(capsys, *argv, "--seed", "17")
        assert code == 0, err
        report = json.loads(out)
        settings = [measure.setting_from_angle(x) for x in (0.0, 90.0, 45.0, 135.0)]
        estimate = sampling.chsh(4, *settings, 1_000_000, seed=17)
        assert {key: report[key] for key in estimate} == estimate
        assert len(estimate["components"]) == 4

    def test_simulate_report_is_the_run_experiment_return(self, capsys):
        argv = ["simulate", "--a", "1,0,0", "--b", "0.6,0.8,0", "--trials", "1000000"]
        code, out, err = run_cli(capsys, *argv, "--seed", "19")
        assert code == 0, err
        report = json.loads(out)
        estimate = sampling.run_experiment(4, [1, 0, 0], [0.6, 0.8, 0], 1_000_000, seed=19)
        assert {key: report[key] for key in estimate} == estimate
        assert report["abs_error"] == abs(estimate["mean"] - estimate["exact_target"])


CHUNK = emission.CHUNK
# sizes on and around the chunk length of every emission pass
POISSON_SIZES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17]
# a mean wait at which the trace's first chunk ends near 2/3 of the largest
# float64 and its second passes it
CHUNK_OVERFLOW_THETA = repr(sys.float_info.max / (1.5 * CHUNK))


def _serial_poisson(theta, k, labels, p1, p2, seed):
    """A poisson report's numbers and CSV rows from the serial composition:
    the trace, the one-sided discrepancies of its prefixes, each sorted in a
    copy, the labels of its parts point by point, then the gate on the same
    stream."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    fracs = emission.generate_trace(theta, k, rng)
    d_plus, d_minus = one_sided_discrepancies(fracs)
    ks = [10**e for e in range(3, 10) if 10**e < k] + [k]
    stars = [max(one_sided_discrepancies(fracs[:j])) for j in ks]
    counts = np.bincount(point_labels(fracs, labels), minlength=labels)
    gated = emission.detector_gate(p1, p2, counts, rng)
    stat_u, dof = emission.uniform_chi_square(counts)
    stat_g, _ = emission.uniform_chi_square(gated)
    fields = {
        "star": max(d_plus, d_minus),
        "extreme_lower": d_plus + d_minus,
        "chi_square_ungated": stat_u,
        "chi_square_gated": stat_g,
        "chi_square_dof": dof,
        "acceptance_rate": int(gated.sum()) / k,
        "rate_slope": emission.fit_rate(ks, stars) if len(ks) >= 2 else None,
    }
    return fields, [[str(j), repr(star)] for j, star in zip(ks, stars)]


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

    @pytest.mark.parametrize("theta", ["-1", "0", "-0.0", "nan", "inf", "-inf"])
    def test_bad_theta_exits_2_naming_it(self, capsys, monkeypatch, tmp_path, theta):
        def not_reached(*args, **kwargs):
            raise AssertionError("a bad --theta reached the trace")

        monkeypatch.setattr(cli, "generate_trace", not_reached)
        out_path = tmp_path / "report.json"
        argv = ["poisson", f"--theta={theta}", "--k", "100", "--labels", "5", "--seed", "1"]
        code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err == f"error: --theta must be finite and positive (got {float(theta)})\n"
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

    # an escaped numpy RuntimeWarning would fail the run, not reach stderr
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("theta, k", [("1e308", 1000), (CHUNK_OVERFLOW_THETA, 2 * CHUNK)])
    def test_overflowing_emission_times_exit_2_naming_the_flags(self, capsys, tmp_path, theta, k):
        out_path = tmp_path / "report.json"
        argv = ["poisson", "--theta", theta, "--k", str(k), "--labels", "2", "--seed", "3"]
        code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --theta {float(theta)} and --k {k} ")
        assert err.count("\n") == 1
        assert not out_path.exists()

    def test_command_peaks_below_two_emission_arrays(self, capsys):
        # the parts of one million emission times, sorted in place, are
        # 7.6 MiB; a second such array would take the run past 15.3 MiB
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
        assert peak <= 12 * 2**20

    @pytest.mark.parametrize("flag", ["p1", "p2"])
    @pytest.mark.parametrize("value", ["0", "-0.5", "1.5", "nan", "inf"])
    def test_bad_readiness_exits_2_before_any_draw(
        self, capsys, monkeypatch, tmp_path, flag, value
    ):
        def not_reached(*args, **kwargs):
            raise AssertionError("a bad readiness probability reached the draws")

        monkeypatch.setattr(cli, "generate_trace", not_reached)
        monkeypatch.setattr(cli, "detector_gate", not_reached)
        out_path = tmp_path / "report.json"
        argv = ["poisson", "--theta", "1", "--k", "100", "--labels", "5", "--seed", "1"]
        code, out, err = run_cli(capsys, *argv, f"--{flag}={value}", "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err == f"error: --{flag} must lie in (0, 1] (got {float(value)})\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("labels", [2, 7, CHUNK + 3])
    @pytest.mark.parametrize("k", POISSON_SIZES)
    def test_report_and_csv_are_the_serial_composition(self, capsys, tmp_path, k, labels):
        csv_path = tmp_path / "decay.csv"
        argv = ["poisson", "--theta", "0.37", "--k", str(k), "--labels", str(labels),
                "--p1", "0.9", "--p2", "0.8", "--seed", "17", "--csv", str(csv_path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        fields, rows = _serial_poisson(0.37, k, labels, 0.9, 0.8, 17)
        doc = json.loads(out)
        assert {key: doc.get(key) for key in fields} == fields
        with open(csv_path, newline="") as fh:
            assert list(csv.reader(fh)) == [["k", "star_discrepancy"], *rows]

    def test_discrepancy_error_exits_2_writing_nothing(self, capsys, monkeypatch, tmp_path):
        def refuse(fracs, ks, label_count):
            raise ValueError("the discrepancies refuse the trace")

        monkeypatch.setattr(cli, "prefix_discrepancies", refuse)
        out_path, csv_path = tmp_path / "report.json", tmp_path / "decay.csv"
        argv = ["poisson", "--theta", "1", "--k", "100000", "--labels", "5", "--seed", "1",
                "--out", str(out_path), "--csv", str(csv_path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: the discrepancies refuse the trace\n"
        assert not (out_path.exists() or csv_path.exists())

    @pytest.mark.parametrize("labels", [2, 7, 50])
    @pytest.mark.parametrize("theta, k, seed", [("1", 5000, 10), ("0.37", CHUNK + 1, 17)])
    def test_gate_labels_the_reports_own_trace(self, capsys, theta, k, seed, labels):
        # the ungated chi-square is that of the labels floor({x} * N) + 1 of
        # the parts whose discrepancy the report gives
        argv = ["poisson", "--theta", theta, "--k", str(k), "--labels", str(labels),
                "--p1", "0.5", "--p2", "0.5", "--seed", str(seed)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        fracs = emission.generate_trace(float(theta), k, rng)
        labels0 = np.minimum(np.floor(fracs * labels).astype(np.int64), labels - 1)
        counts = np.bincount(labels0, minlength=labels)
        doc = json.loads(out)
        assert doc["star"] == max(one_sided_discrepancies(fracs))
        assert doc["chi_square_ungated"] == emission.uniform_chi_square(counts)[0]

    def test_timings_record_the_gate_and_the_trace_once(self, capsys, tmp_path):
        timings = tmp_path / "timings.json"
        argv = ["poisson", "--theta", "1", "--k", str(3 * CHUNK + 17), "--labels", "5",
                "--seed", "1", "--timings", str(timings)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        stages = json.loads(timings.read_text())["stages"]
        for name in ("cli.parse", "cmd.poisson", "emission.detector_gate",
                     "emission.generate_trace", "emission.prefix_discrepancies"):
            assert stages[name]["calls"] == 1, name
        # the command's stage starts with `main`, so it holds the parse
        assert set(stages["cli.parse"]) == {"calls", "wall_s", "peak_rss_mb"}
        assert 0.0 < stages["cli.parse"]["wall_s"] <= stages["cmd.poisson"]["wall_s"]

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


# a small run of each command that writes a CSV table beside its report
WRITES_CSV = {
    "splines": ["splines", "--n", "4", "--grid", "3"],
    "simulate": ["simulate", "--angle", "30", "--trials", "1000", "--seed", "1"],
    "poisson": ["poisson", "--theta", "1", "--k", "1000", "--labels", "5", "--seed", "1"],
}


class TestCliOutputFiles:
    @pytest.mark.parametrize("command", sorted(WRITES_CSV))
    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    @pytest.mark.parametrize("target", ["missing_directory", "directory"])
    def test_unwritable_output_exits_2_writing_neither_file(
        self, capsys, tmp_path, command, flag, target
    ):
        outputs = tmp_path / "outputs"
        outputs.mkdir()
        paths = {"--out": outputs / "report.json", "--csv": outputs / "table.csv"}
        paths[flag] = outputs / "absent" / "file" if target == "missing_directory" else outputs
        timings = tmp_path / "timings.json"
        argv = [*WRITES_CSV[command], "--timings", str(timings)]
        for name, path in paths.items():
            argv += [name, str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(paths[flag]) in err
        assert list(outputs.iterdir()) == []
        # the timings file is written whatever the run's outcome
        assert {f"cmd.{command}", "cli.parse"} <= set(json.loads(timings.read_text())["stages"])

    @pytest.mark.parametrize("command", sorted(WRITES_CSV))
    def test_report_and_table_are_both_written(self, capsys, tmp_path, command):
        # the report in --out is the one printed without it, beside its table
        out_path, csv_path = tmp_path / "report.json", tmp_path / "table.csv"
        argv = [*WRITES_CSV[command], "--out", str(out_path), "--csv", str(csv_path)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (0, ""), err
        _, printed, _ = run_cli(capsys, *WRITES_CSV[command])
        assert out_path.read_text() == printed
        assert len(csv_path.read_text().splitlines()) >= 2

    @pytest.mark.parametrize("target", ["missing_directory", "directory"])
    def test_layers_removes_its_universe_when_the_report_fails(self, capsys, tmp_path, target):
        # the universe is written before the report, so a report that cannot
        # be written takes the universe with it; the timings file stays
        uni, timings = tmp_path / "u.universe", tmp_path / "timings.json"
        out = tmp_path / "absent" / "r.json" if target == "missing_directory" else tmp_path
        argv = ["layers", "--n", "4", "--layers", "10", "--seed", "1", "--universe", str(uni),
                "--timings", str(timings), "--out", str(out)]
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and str(out) in err
        assert not uni.exists()
        assert "cmd.layers" in json.loads(timings.read_text())["stages"]


# runs whose path flags are appended, and the pairs of those flags that are
# given one file: the report, table, timings and universe files of a run
SAME_PATH_RUNS = {
    "simulate": ["simulate", "--angle", "30", "--trials", "1000", "--seed", "1"],
    "layers": ["layers", "--n", "4", "--layers", "10", "--seed", "1"],
    "analyze": READS_UNIVERSE["analyze"],
}
SAME_PATH_CASES = [
    ("simulate", "out", "csv"),
    ("simulate", "out", "timings"),
    ("simulate", "csv", "timings"),
    ("layers", "universe", "out"),
    ("layers", "universe", "timings"),
    ("layers", "out", "timings"),
    # a file `analyze` reads is not overwritten either
    ("analyze", "universe", "timings"),
    ("analyze", "universe", "out"),
]


class TestCliOutputPathsDiffer:
    @pytest.mark.parametrize("command, first, second", SAME_PATH_CASES)
    def test_one_path_for_two_flags_exits_2_naming_both(
        self, capsys, monkeypatch, tmp_path, command, first, second
    ):
        # one file, named relative to the working directory and through a
        # link to that directory: refused before any work and before any
        # file is opened
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link").symlink_to(tmp_path)
        path, linked = tmp_path / "same.file", str(tmp_path / "link" / "same.file")
        argv = [*SAME_PATH_RUNS[command], f"--{first}", "same.file", f"--{second}", linked]
        if command == "layers" and "universe" not in (first, second):
            argv += ["--universe", "u.universe"]
        if command == "analyze":
            path.write_bytes(b"a universe file")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: --{first} and --{second} name one file, {linked}\n"
        expected = ["link", "same.file"] if command == "analyze" else ["link"]
        assert sorted(p.name for p in tmp_path.iterdir()) == expected
        if command == "analyze":
            assert path.read_bytes() == b"a universe file"

    def test_a_link_loop_exits_2_naming_it(self, capsys, tmp_path):
        # a path that cannot be resolved is left to the open, which fails
        loop = tmp_path / "loop"
        loop.symlink_to(loop)
        argv = [*SAME_PATH_RUNS["simulate"], "--out", str(loop), "--csv", str(tmp_path / "t.csv")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(loop) in err
        assert [p.name for p in tmp_path.iterdir()] == ["loop"]


class TestCliSplines:
    def test_residual_summary(self, capsys):
        code, out, _ = run_cli(capsys, "splines", "--n", "4", "--grid", "51")
        assert code == 0
        doc = json.loads(out)
        assert doc["residual_min"] >= -1e-12
        assert doc["residual_max"] <= doc["defect_bound"] + 1e-12
        assert doc["partition_max_error"] <= 1e-12
        assert doc["marsden_max_error"] <= 1e-10

    def test_csv_holds_the_residual_grid(self, capsys, tmp_path):
        # rows run over y, then x; the report's extremes are the column's, and
        # each residual is the clipped spline sum minus (y - x)^2
        csv_path = tmp_path / "residual.csv"
        code, out, _ = run_cli(capsys, "splines", "--n", "5", "--grid", "21", "--csv", str(csv_path))
        assert code == 0
        doc = json.loads(out)
        with csv_path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "residual"]
        values = np.array(rows[1:], dtype=float)
        grid = np.linspace(0.0, 1.0, 21)
        np.testing.assert_array_equal(values[:, 0], np.tile(grid, 21))
        np.testing.assert_array_equal(values[:, 1], np.repeat(grid, 21))
        assert values[:, 2].min() == doc["residual_min"]
        assert values[:, 2].max() == doc["residual_max"]
        for x, y, residual in values[::17]:
            assert residual == pytest.approx(naive_squared_diff_sum(5, x, y) - (y - x) ** 2, abs=1e-14)

    @pytest.mark.parametrize("grid", ["1", "0", "-3"])
    def test_grid_below_two_names_the_flag(self, capsys, grid):
        code, out, err = run_cli(capsys, "splines", "--n", "4", "--grid", grid)
        assert code == 2
        assert out == ""
        assert "--grid" in err


def test_module_entry_point_runs_the_cli():
    proc = _run_module(["verify", "--n", "4", "--a", "1,0,0", "--b", "0,1,0"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["command"] == "verify"
    assert doc["abs_error"] <= 1e-12


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 2


# one small run of every subcommand; "{u}" stands for a universe file
ONE_THREAD_RUNS = {
    "splines": ["splines", "--n", "4", "--grid", "5"],
    "verify": ["verify", "--n", "4", "--a", "1,0,0", "--b", "0,1,0"],
    "layers": ["layers", "--n", "4", "--layers", "3", "--seed", "1", "--universe", "{u}"],
    "analyze": ["analyze", "--universe", "{u}", "--a", "1,0,0", "--b", "0,1,0", "--c",
                "0,0,1", "--witness"],
    "simulate": ["simulate", "--angle", "45", "--trials", "100", "--seed", "1"],
    "chsh": ["chsh", "--angles", "0,90,45,135", "--trials", "100", "--seed", "1"],
    "poisson": ["poisson", "--theta", "1", "--k", str(3 * CHUNK + 17), "--labels", "5",
                "--seed", "1", "--p1", "0.5", "--p2", "0.5"],
}


def test_every_subcommand_is_covered_by_the_thread_check():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(commands.choices) == set(ONE_THREAD_RUNS)


@pytest.mark.parametrize("command", sorted(ONE_THREAD_RUNS))
def test_no_command_starts_a_thread(capsys, monkeypatch, tmp_path, command):
    universe = str(_universe_file(capsys, tmp_path))
    started = []

    def refuse(thread):
        started.append(thread.name)
        raise AssertionError(f"{command} started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    argv = [universe if arg == "{u}" else arg for arg in ONE_THREAD_RUNS[command]]
    code, _, err = run_cli(capsys, *argv)
    assert started == []
    assert code == 0, err


# every subcommand's small run, and simulate and chsh on a universe file
RESOLVED_RUNS = {
    **ONE_THREAD_RUNS,
    "simulate --universe": [*ONE_THREAD_RUNS["simulate"], "--universe", "{u}"],
    "chsh --universe": [*ONE_THREAD_RUNS["chsh"], "--universe", "{u}"],
}


@pytest.mark.parametrize("run", sorted(RESOLVED_RUNS))
def test_no_command_changes_its_resolved_args(capsys, tmp_path, run):
    # a run's inputs are merged once, before the command runs, so the
    # report's config block shows what the command ran on
    universe = str(_universe_file(capsys, tmp_path))
    argv = [universe if arg == "{u}" else arg for arg in RESOLVED_RUNS[run]]
    args = cli.build_parser().parse_args(argv)
    cli._resolve_run_params(args)
    resolved = dict(vars(args))
    args.func(args)
    assert vars(args).keys() == resolved.keys()
    assert all(vars(args)[key] is value for key, value in resolved.items())


def _subparser(command):
    """The full parser's subparser of `command`."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices[command]


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_one_command_parser_is_the_full_parsers_subparser(command):
    assert cli.build_parser(command).format_help() == _subparser(command).format_help()


# argv whose parse exits: a help, a top-level error, or one command's error
PARSE_EXITS = [
    [], ["--help"], ["frobnicate", "--n", "4"], ["--"], ["--", "verify"], ["-x", "verify"],
    ["layers", "--n", "4"], ["splines", "--n", "x"], ["layers", "--bogus", "-h"],
    [*ONE_THREAD_RUNS["verify"], "--", "x"],
    *([command, "--help"] for command in ONE_THREAD_RUNS),
    *([*argv, "--bogus"] for argv in ONE_THREAD_RUNS.values()),
]


@pytest.mark.parametrize("argv", PARSE_EXITS, ids=lambda argv: " ".join(argv) or "no-argument")
def test_main_exits_on_its_parse_as_the_full_parser_does(capsys, argv):
    exits = []
    for parse in (cli.main, cli.build_parser().parse_args):
        with pytest.raises(SystemExit) as excinfo:
            parse(list(argv))
        exits.append((excinfo.value.code, *capsys.readouterr()))
    assert exits[0] == exits[1]


@pytest.mark.parametrize("command", sorted(ONE_THREAD_RUNS))
def test_a_run_builds_only_its_own_commands_flags(capsys, monkeypatch, tmp_path, command):
    # the full parser adds every command's flags; a run adds its own and -h
    universe = str(_universe_file(capsys, tmp_path))
    argv = [universe if arg == "{u}" else arg for arg in ONE_THREAD_RUNS[command]]
    own = len(_subparser(command)._actions)
    added = []
    add_argument = argparse._ActionsContainer.add_argument

    def counted(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert 0 < len(added) <= own


def test_stage_timer_counts_calls_and_sums_wall_time():
    # repeated, nested and raising stages each count every call and add its
    # wall time; an outer stage's time includes its inner stages'
    timer = StageTimer()
    for _ in range(3):
        with timer.stage("outer"):
            with timer.stage("inner"):
                time.sleep(0.002)
    nested = timer.stages["inner"]["wall_s"]
    assert timer.stages["outer"]["wall_s"] >= nested >= 3 * 0.002
    with pytest.raises(KeyError):
        with timer.stage("inner"):
            time.sleep(0.002)
            raise KeyError("the stage raised")
    outer, inner = timer.stages["outer"], timer.stages["inner"]
    assert (outer["calls"], inner["calls"]) == (3, 4)
    assert inner["wall_s"] >= nested + 0.002
    assert outer["peak_rss_mb"] > 0.0 and inner["peak_rss_mb"] > 0.0
    # a stage can start at an earlier reading, as `cmd.<name>` starts with main
    start = time.perf_counter()
    time.sleep(0.002)
    timer.add("parse", start, time.perf_counter())
    with timer.stage("whole", start):
        pass
    assert timer.stages["whole"]["wall_s"] >= timer.stages["parse"]["wall_s"] >= 0.002
    assert timer.stages["parse"]["calls"] == timer.stages["whole"]["calls"] == 1


def test_stage_decorates_a_function_and_attached_restores_the_namespace():
    # a function decorated with a stage counts every call, one that raises
    # too, sums their wall time and keeps its name and `__wrapped__`
    timer = StageTimer()

    def nap(seconds):
        time.sleep(seconds)
        if seconds > 0.002:
            raise KeyError("the call raised")
        return seconds

    timed = timer.stage("f")(nap)
    assert (timed.__name__, timed.__wrapped__) == ("nap", nap)
    assert [timed(0.002), timed(0.002)] == [0.002, 0.002]
    with pytest.raises(KeyError):
        timed(0.003)
    assert timer.stages["f"]["calls"] == 3
    assert timer.stages["f"]["wall_s"] >= 0.007
    # `attached` times the functions of the named modules under their own
    # names, leaves the rest, and puts every original back when the block
    # ends, though it raises
    namespace = {"angle": measure.setting_from_angle, "run": sampling.run_experiment, "nap": nap}
    saved = dict(namespace)
    with pytest.raises(KeyError):
        with timer.attached(namespace, ["measure"]):
            assert namespace["angle"].__wrapped__ is measure.setting_from_angle
            assert namespace["run"] is sampling.run_experiment
            assert namespace["nap"] is nap
            namespace["angle"](45.0)
            raise KeyError("the block raised")
    assert namespace == saved
    assert timer.stages["measure.setting_from_angle"]["calls"] == 1
