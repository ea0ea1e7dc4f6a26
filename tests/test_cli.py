import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mistsim
from mistsim.cli import _build_config, build_parser, main
from mistsim.output import json_text
from mistsim.sweep import SweepConfig, run_oracle_check


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCalibrate:
    def test_reference_point(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate", "--delta", "1.1", "--ng", "0.2")
        assert code == 0
        report = json.loads(out)
        assert report["g"] == pytest.approx(0.126513, abs=1e-5)
        assert report["n_crit"] == pytest.approx(18.9, abs=0.05)
        assert report["k_bend"] == 5
        assert report["omega_q"] == pytest.approx(5.85)
        assert report["chi"] > 0

    def test_stark_and_geff_options(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "calibrate",
            "--delta",
            "1.1",
            "--ng",
            "0.2",
            "--stark-shift",
            "0.005",
            "--target-level",
            "9",
            "--nbar-cross",
            "40",
        )
        assert code == 0
        report = json.loads(out)
        assert report["stark_photons"] == pytest.approx(
            0.005 / (2 * report["chi"]), rel=1e-9
        )
        assert report["g_eff"] == pytest.approx(0.032, rel=0.15)

    def test_writes_file(self, capsys, tmp_path):
        out_dir = tmp_path / "cal"
        code, out, _ = run_cli(
            capsys, "calibrate", "--delta", "1.0", "--out", str(out_dir)
        )
        assert code == 0
        on_disk = json.loads((out_dir / "calibration.json").read_text())
        assert on_disk == json.loads(out)

    def test_config_file_supplies_physics(self, capsys, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"k_eff": 0.024}))
        code, out, _ = run_cli(
            capsys, "calibrate", "--config", str(cfg_path), "--delta", "1.1", "--ng", "0.2"
        )
        assert code == 0
        report = json.loads(out)
        assert report["g"] == pytest.approx(0.126513 / 2, abs=1e-5)

    @pytest.mark.parametrize(
        "config, flags, g",
        [({"g": 0.1}, ["--k-eff", "0.05"], 0.1318), ({"k_eff": 0.03}, ["--g", "0.12"], 0.12)],
        ids=["k_eff-flag-over-g-file", "g-flag-over-k_eff-file"],
    )
    def test_coupling_flag_replaces_the_file_source(self, capsys, tmp_path, config, flags, g):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, out, _ = run_cli(
            capsys, "calibrate", "--config", str(cfg_path), "--delta", "1.1", *flags
        )
        assert code == 0
        assert json.loads(out)["g"] == pytest.approx(g, abs=1e-4)


class TestFan:
    def test_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "fan"
        code, _, _ = run_cli(
            capsys,
            "fan",
            "--delta",
            "1.1",
            "--ng",
            "0.2",
            "--nbar-max",
            "50",
            "--out",
            str(out_dir),
        )
        assert code == 0
        fan_lines = (out_dir / "fan.csv").read_text().splitlines()
        assert fan_lines[0].startswith("# config_hash:")
        crossings = json.loads((out_dir / "crossings.json").read_text())
        pair_09 = [
            c
            for c in crossings["crossings"]
            if (c["branch_a"], c["branch_b"]) == (0, 9)
        ]
        assert len(pair_09) == 1
        assert 34 <= pair_09[0]["nbar_cross"] <= 46


class TestTrace:
    def test_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "trace"
        code, _, _ = run_cli(
            capsys,
            "trace",
            "--delta",
            "1.1",
            "--ng",
            "0.2",
            "--duration",
            "40",
            "--out",
            str(out_dir),
        )
        assert code == 0
        for name in ("trace.csv", "survival.csv", "field.csv"):
            lines = (out_dir / name).read_text().splitlines()
            assert lines[0].startswith("# config_hash:")

    def test_field_ends_with_the_trace(self, capsys, tmp_path):
        # 30.0025 ns is no whole number of 0.01 ns field steps
        out_dir = tmp_path / "trace"
        argv = ["--delta", "1.1", "--duration", "30.0025", "--dt", "0.0025", "--stride", "40"]
        code, _, _ = run_cli(capsys, "trace", *argv, "--out", str(out_dir))
        assert code == 0
        last = {
            name: (out_dir / name).read_text().splitlines()[-1].split(",")[0]
            for name in ("trace.csv", "field.csv")
        }
        assert last == {"trace.csv": "30.0025", "field.csv": "30.0025"}

    def test_survival_drop_visible(self, capsys, tmp_path):
        out_dir = tmp_path / "trace"
        run_cli(
            capsys,
            "trace",
            "--delta",
            "1.1",
            "--ng",
            "0.2",
            "--out",
            str(out_dir),
        )
        rows = [
            line.split(",")
            for line in (out_dir / "survival.csv").read_text().splitlines()
            if not line.startswith("#") and not line.startswith("nbar")
        ]
        survival = np.array([float(r[1]) for r in rows])
        assert survival[-1] < 0.5


class TestSweepCommand:
    def test_small_sweep(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "--delta-grid",
            "1.1",
            "--ng-grid",
            "0.0",
            "--states",
            "0",
            "--duration",
            "30",
            "--out",
            str(out_dir),
        )
        assert code == 0
        assert (out_dir / "heatmap_state0.csv").exists()
        assert (out_dir / "boundary_state0.json").exists()
        assert (out_dir / "run_info.json").exists()

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        config = {
            "delta_grid": [1.1],
            "n_g_grid": [0.0],
            "initial_states": [0],
            "duration": 60.0,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "sweep"
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "--config",
            str(cfg_path),
            "--duration",
            "30",
            "--out",
            str(out_dir),
        )
        assert code == 0
        heatmap = (out_dir / "heatmap_state0.csv").read_text().splitlines()
        axis = heatmap[4].split(",")[1:]
        # 30 ns at the default drive reaches ~60 photons, not the 60 ns ~94
        assert float(axis[-1]) < 70.0

    def test_every_config_flag_reaches_the_config(self, tmp_path):
        parser = build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        fields = {f.name for f in dataclasses.fields(SweepConfig)}
        actions = [a for a in subparsers.choices["sweep"]._actions if a.dest in fields]
        assert {"n_g_grid", "initial_states", "delta_grid"} <= {a.dest for a in actions}
        # 3 and [1, 2] pass every SweepConfig check for every field but these
        # bounded ones (charges 1 and 2 are one charge modulo 1); each value
        # differs from the field's default
        bounded = {"dt": 0.04, "threshold": 0.5, "charge_cutoff": 33, "n_g_grid": [0.1, 0.2]}
        for action in actions:
            if action.nargs == "+":
                value = bounded.get(action.dest, [action.type(1), action.type(2)])
                words = [str(v) for v in value]
            else:
                value = action.type(bounded.get(action.dest, 3))
                words = [str(value)]
            args = parser.parse_args(
                ["sweep", "--out", str(tmp_path), action.option_strings[0], *words]
            )
            assert getattr(_build_config(args), action.dest) == value, action.dest


class TestOracleCheckCommand:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--n-max", "20")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["max_difference"] < 1e-12

    def test_defaults_are_the_functions(self, capsys):
        # --delta and --ng-values left out: run_oracle_check's defaults apply
        code, out, _ = run_cli(capsys, "oracle-check", "--n-max", "5")
        assert code == 0
        assert out == json_text(run_oracle_check(SweepConfig(), n_max=5)) + "\n"


class TestErrorHandling:
    def test_invalid_parameter_gives_json_error(self, capsys):
        code, _, err = run_cli(capsys, "calibrate", "--delta", "1.0", "--e-c", "-1")
        assert code == 1
        record = json.loads(err)
        assert record["error"] == "ValueError"

    def test_usage_error_is_json(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fan"])  # missing required --delta/--out
        assert exc.value.code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "usage"

    @pytest.mark.parametrize("command", ["fan", "trace", "calibrate", "oracle-check"])
    def test_workers_is_a_sweep_flag_only(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--delta", "1.1", "--out", "unused", "--workers", "2"])
        assert exc.value.code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "usage"
        assert "--workers" in record["detail"]

    @pytest.mark.parametrize(
        "argv, detail",
        [
            (["fan", "--nbar-grid-step", "0"], "--nbar-grid-step must be positive, got 0.0"),
            (["fan", "--nbar-grid-step", "-0.25"], "--nbar-grid-step must be positive, got -0.25"),
            (["fan", "--nbar-max", "-1"], "--nbar-max must be >= 0, got -1.0"),
            (["oracle-check", "--n-max", "-1"], "n_max must be >= 0, got -1"),
            (["fan", "--ng", "nan"], "n_g must be finite, got nan"),
            (["oracle-check", "--ng-values", "nan"], "n_g must be finite, got nan"),
            (["trace", "--ng", "inf"], "n_g must be finite, got inf"),
            (["fan", "--delta", "nan"], "target frequency must be positive and finite, got nan"),
            (["calibrate", "--delta", "nan"], "target frequency must be positive and finite, got nan"),
            (["fan", "--min-gap", "nan"], "need min_gap <= max_gap, got min_gap=nan, max_gap=0.2"),
            (["fan", "--max-gap", "nan"], "need min_gap <= max_gap, got min_gap=0.0001, max_gap=nan"),
            (
                ["fan", "--min-gap", "0.1", "--max-gap", "0.01"],
                "need min_gap <= max_gap, got min_gap=0.1, max_gap=0.01",
            ),
            (["calibrate", "--stark-shift", "nan"], "freq_shift must be finite, got nan"),
            (["calibrate", "--stark-shift", "inf"], "freq_shift must be finite, got inf"),
            (["calibrate", "--omega-r", "-1.0", "--delta", "6.0"], "omega_r must be positive, got -1.0"),
            (
                ["calibrate", "--omega-r", "-1.0", "--delta", "6.0", "--g", "0.1"],
                "omega_r must be positive, got -1.0",
            ),
            (["fan", "--nbar-max", "nan"], "--nbar-max must be finite, got nan"),
            (["fan", "--nbar-max", "inf"], "--nbar-max must be finite, got inf"),
            (
                ["calibrate", "--nbar-cross", "30"],
                "--target-level and --nbar-cross must be given together",
            ),
            (
                ["calibrate", "--target-level", "9"],
                "--target-level and --nbar-cross must be given together",
            ),
            (["calibrate", "--levels", "2"], "anharmonicity needs at least 3 levels, got 2"),
            (["calibrate", "--g", "0.12", "--k-eff", "0.05"], "specify exactly one of g, k_eff"),
            (
                ["calibrate", "--target-level", "3", "--nbar-cross", "inf"],
                "nbar_cross must be finite, got inf",
            ),
            # a bare OverflowError, and a non-JSON Infinity on stdout with exit 0
            (
                ["calibrate", "--target-level", "9", "--nbar-cross", "1e70"],
                "nbar_cross = 1e+70 is too large: g_eff overflows",
            ),
            (
                ["calibrate", "--stark-shift", "1e308"],
                "freq_shift = 1e+308 is too large: the photon number overflows",
            ),
        ],
        ids=[
            "fan-step-zero",
            "fan-step-negative",
            "fan-max-negative",
            "oracle-n-max-negative",
            "fan-ng-nan",
            "oracle-ng-nan",
            "trace-ng-inf",
            "fan-delta-nan",
            "calibrate-delta-nan",
            "fan-min-gap-nan",
            "fan-max-gap-nan",
            "fan-gap-window-inverted",
            "calibrate-stark-nan",
            "calibrate-stark-inf",
            "calibrate-omega-r-negative",
            "calibrate-omega-r-negative-g",
            "fan-max-nan",
            "fan-max-inf",
            "calibrate-nbar-cross-alone",
            "calibrate-target-level-alone",
            "calibrate-two-levels",
            "calibrate-g-and-k_eff",
            "calibrate-nbar-cross-inf",
            "calibrate-nbar-cross-overflow",
            "calibrate-stark-overflow",
        ],
    )
    def test_bad_number_is_named(self, capsys, tmp_path, argv, detail):
        # a --delta in argv comes later, so it overrides the default 1.1
        command, *rest = argv
        out = tmp_path / "o"
        code, stdout, err = run_cli(capsys, command, "--delta", "1.1", *rest, "--out", str(out))
        assert code == 1 and stdout == ""
        record = json.loads(err)
        assert record == {"error": "ValueError", "detail": detail}
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (command, flag, value)
            for command in ("fan", "calibrate", "oracle-check")
            for flag, value in (("--kappa", "0.1"), ("--omega-d", "4.745"), ("--dt", "0.025"))
        ]
        + [("trace", "--threshold", "0.5")],
    )
    def test_drive_flags_are_propagation_flags_only(self, capsys, tmp_path, command, flag, value):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--delta", "1.1", "--out", str(out), flag, value])
        assert exc.value.code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "usage"
        assert flag in record["detail"]
        assert not out.exists()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "mistsim" in capsys.readouterr().out


class TestStartup:
    def test_import_loads_no_scipy(self):
        # scipy.optimize alone used to cost 0.4 s and 45 MB of every start-up;
        # queue, logging and concurrent.futures each cost every process memory,
        # so a member's two threads share plain threading primitives
        unwanted = "('scipy', 'queue', 'logging', 'concurrent')"
        code = (
            "import sys, mistsim, mistsim.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {unwanted}))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(mistsim.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "config, detail",
    [
        ({"threshold": None}, "threshold must be a number, got None"),
        ({"e_c": "0.194"}, "e_c must be a number, got '0.194'"),
        ({"delta_grid": 1.1}, "delta_grid must be a list of numbers, got 1.1"),
        ({"initial_states": 0}, "initial_states must be a list of integers, got 0"),
    ],
    ids=["threshold-null", "e_c-string", "delta_grid-scalar", "initial_states-scalar"],
)
def test_config_file_setting_of_the_wrong_kind(capsys, tmp_path, config, detail):
    # each exited 1 with a raw TypeError that named no setting
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "sweep"
    code, stdout, err = run_cli(capsys, "sweep", "--config", str(cfg_path), "--out", str(out))
    assert code == 1
    assert json.loads(err) == {"error": "ValueError", "detail": detail}
    assert stdout == ""
    assert not out.exists()
