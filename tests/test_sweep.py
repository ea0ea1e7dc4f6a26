import filecmp
import inspect
import json
import os

import numpy as np
import pytest

import mistsim.sweep as sweep_mod
from mistsim.dynamics import _sample_photons
from mistsim.strip import StripConfig, jtc_strip_hamiltonian
from mistsim.sweep import (
    SweepConfig,
    charge_averaged_survival,
    config_hash,
    run_oracle_check,
    run_sweep,
    spectral_differences,
    strip_for_detuning,
)
from mistsim.transmon import TransmonEigen, TransmonParams, ej_for_frequency


def small_config(**overrides):
    base = dict(
        delta_grid=[1.0, 1.1],
        n_g_grid=[-0.5, -0.25, 0.0],
        initial_states=[0],
        duration=50.0,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestRunSweep:
    def test_trivial_single_point(self):
        cfg = SweepConfig(
            delta_grid=[1.1],
            n_g_grid=[0.0],
            initial_states=[0],
            epsilon=0.001,  # 0.02 photons at 30 ns, below the first axis step
            duration=30.0,
        )
        result = run_sweep(cfg)
        assert result.heatmaps[0].shape == (1, len(result.nbar_axis))
        assert np.all(result.heatmaps[0] > 1 - 1e-9)
        assert result.onsets[0] == []
        assert result.boundaries[0] == "insufficient points"

    def test_axis_and_values(self):
        cfg = small_config()
        result = run_sweep(cfg)
        assert result.nbar_axis[0] == 0.0
        assert np.allclose(np.diff(result.nbar_axis), 0.25)
        end = cfg.drive().steady_state_nbar * (1 - np.exp(-cfg.kappa * 50.0 / 2)) ** 2
        assert result.nbar_axis[-1] <= end <= result.nbar_axis[-1] + 0.25
        assert np.all(result.heatmaps[0] >= 0)
        assert np.all(result.heatmaps[0] <= 1 + 1e-9)

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        dirs = []
        for i, workers in enumerate((1, 2)):
            out = tmp_path / f"w{workers}_{i}"
            cfg = small_config(workers=workers, out_dir=str(out))
            run_sweep(cfg)
            dirs.append(out)
        for name in sorted(os.listdir(dirs[0])):
            if name == "run_info.json":
                continue
            assert filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False), name

    def test_numpy_settings_give_the_plain_bytes(self, tmp_path):
        # numpy values reached json.dumps in config_hash only after every member ran
        plain = dict(delta_grid=[1.1], n_g_grid=[0.0], initial_states=[0])
        typed = dict(
            delta_grid=np.array([1.1]),
            n_g_grid=np.array([0.0]),
            initial_states=np.array([0]),
            level_count=np.int64(20),
            charge_cutoff=np.int64(30),
            sample_stride=np.int64(SweepConfig.sample_stride),
            workers=np.int64(1),
        )
        configs = []
        for name, settings in (("plain", plain), ("typed", typed)):
            cfg = SweepConfig(**settings, duration=20.0, out_dir=str(tmp_path / name))
            run_sweep(cfg)
            cfg.to_json(tmp_path / f"{name}.json")
            assert SweepConfig.from_json(tmp_path / f"{name}.json") == cfg
            configs.append(cfg)
        assert config_hash(configs[0]) == config_hash(configs[1])
        for name in sorted(os.listdir(tmp_path / "plain")):
            if name == "run_info.json":
                continue
            assert filecmp.cmp(tmp_path / "plain" / name, tmp_path / "typed" / name, shallow=False)

    def test_member_failure_names_coordinates(self, monkeypatch):
        original = sweep_mod._point_survival

        def failing(task):
            if task[1] == -0.25:  # n_g of the injected failure
                raise np.linalg.LinAlgError("injected")
            return original(task)

        monkeypatch.setattr(sweep_mod, "_point_survival", failing)
        with pytest.raises(RuntimeError, match=r"delta=1.0, n_g=-0.25, state=0"):
            run_sweep(small_config(delta_grid=[1.0]))

    def test_failure_writes_partial_results(self, monkeypatch, tmp_path):
        original = sweep_mod._point_survival

        def failing(task):
            if task[1] == 0.0:  # last n_g in the grid fails
                raise np.linalg.LinAlgError("injected")
            return original(task)

        monkeypatch.setattr(sweep_mod, "_point_survival", failing)
        out = tmp_path / "partial"
        with pytest.raises(RuntimeError):
            run_sweep(small_config(delta_grid=[1.0], out_dir=str(out)))
        manifest = json.loads((out / "failure_manifest.json").read_text())
        assert manifest["failed"]["n_g"] == 0.0
        assert manifest["completed_tasks"] == 2
        partial = np.load(out / "partial_curves.npz")
        assert len(partial.files) == 3  # nbar_axis + two completed curves

    def test_success_clears_earlier_failure_files(self, tmp_path):
        # an earlier failed run's files used to survive beside the new results
        out = tmp_path / "rerun"
        out.mkdir()
        (out / "failure_manifest.json").write_text("{}")
        np.savez(out / "partial_curves.npz", nbar_axis=np.zeros(1))
        cfg = small_config(
            delta_grid=[1.1], n_g_grid=[0.0], duration=20.0, out_dir=str(out)
        )
        run_sweep(cfg)
        assert sorted(os.listdir(out)) == [
            "boundary_state0.json", "heatmap_state0.csv", "run_info.json"
        ]

    def test_two_state_failure_names_point_and_states(self, monkeypatch, tmp_path):
        original = sweep_mod._point_survival

        def failing(task):
            if task[1] == -0.25:
                raise np.linalg.LinAlgError("injected")
            return original(task)

        monkeypatch.setattr(sweep_mod, "_point_survival", failing)
        out = tmp_path / "partial"
        cfg = small_config(
            delta_grid=[1.0], initial_states=[0, 1], duration=20.0, out_dir=str(out)
        )
        with pytest.raises(RuntimeError, match=r"delta=1.0, n_g=-0.25, state=0, state=1$"):
            run_sweep(cfg)
        manifest = json.loads((out / "failure_manifest.json").read_text())
        assert manifest["failed"]["delta"] == 1.0
        assert manifest["failed"]["n_g"] == -0.25
        assert manifest["failed"]["states"] == [0, 1]
        assert "injected" in manifest["failed"]["error"]
        assert manifest["completed_tasks"] == 1
        partial = np.load(out / "partial_curves.npz")
        assert sorted(partial.files) == [
            "delta1.0_ng-0.5_state0",
            "delta1.0_ng-0.5_state1",
            "nbar_axis",
        ]

    def test_two_states_equal_one_state_sweeps(self):
        cfg = small_config(initial_states=[0, 1], duration=20.0)
        both = run_sweep(cfg)
        for state in (0, 1):
            alone = run_sweep(small_config(initial_states=[state], duration=20.0))
            assert np.array_equal(both.heatmaps[state], alone.heatmaps[state])

    def test_pool_sized_to_points_and_run_info_counts(self, monkeypatch, tmp_path):
        sizes = []
        real_pool = sweep_mod.Pool

        def recording_pool(processes):
            sizes.append(processes)
            return real_pool(processes)

        monkeypatch.setattr(sweep_mod, "Pool", recording_pool)
        out = tmp_path / "run"
        cfg = small_config(
            delta_grid=[1.1],
            n_g_grid=[0.0],
            initial_states=[0, 1],
            duration=20.0,
            workers=3,
            out_dir=str(out),
        )
        run_sweep(cfg)
        assert sizes == [1]  # one point: no idle worker processes
        info = json.loads((out / "run_info.json").read_text())
        assert (info["workers"], info["tasks"], info["members"]) == (3, 1, 2)

    def test_rows_equal_charge_averaged_survival(self):
        # the sweep and charge_averaged_survival share one point computation,
        # also for a two-state point in a turning frame
        cfg = small_config(
            delta_grid=[1.1],
            n_g_grid=[-0.5, 0.2],
            initial_states=[0, 1],
            duration=20.0,
            omega_d=4.745,
            omega_r_dressed=4.745,
        )
        result = run_sweep(cfg)
        for state in cfg.initial_states:
            curve = charge_averaged_survival(
                cfg.simulation(1.1, initial_state=state),
                n_g_grid=np.array(cfg.n_g_grid),
                nbar_axis=result.nbar_axis,
            )
            assert np.array_equal(result.heatmaps[state][0], curve.survival_running_min), state

    def test_output_files_and_headers(self, tmp_path):
        out = tmp_path / "run"
        cfg = small_config(out_dir=str(out))
        run_sweep(cfg)
        heatmap = (out / "heatmap_state0.csv").read_text().splitlines()
        assert heatmap[0] == f"# config_hash: {config_hash(cfg)}"
        first_data = heatmap[4]
        assert first_data.startswith(",0,0.25,0.5")
        assert heatmap[5].startswith("1,")  # delta column
        boundary = json.loads((out / "boundary_state0.json").read_text())
        assert boundary["config_hash"] == config_hash(cfg)
        info = json.loads((out / "run_info.json").read_text())
        assert info["workers"] == 1
        assert "wall_time_s" in info


class TestSweepConfig:
    def test_default_hash_is_pinned(self):
        # the regression anchor of every default result file; a deliberate
        # change of a default moves it
        assert config_hash(SweepConfig()) == "d7565976aae8fdc4"

    def test_integer_setting_hashes_as_its_float(self):
        # duration=100 hashed to adfaea2f598e0340: the same physics, a second hash
        cfg = SweepConfig(duration=100)
        assert type(cfg.duration) is float
        assert config_hash(cfg) == "d7565976aae8fdc4"

    def test_numpy_float_settings_become_plain_floats(self, tmp_path):
        # a float32 epsilon built, ran every member, then failed json.dumps in config_hash
        cfg = SweepConfig(
            delta_grid=[1.1],
            n_g_grid=[0.0],
            initial_states=[0],
            duration=20.0,
            epsilon=np.float32(0.045),
            threshold=np.float32(0.9),
            kappa=np.array(1.0 / 22.0),
            out_dir=str(tmp_path / "out"),
        )
        for name in sweep_mod._SCALAR_FLOATS:
            value = getattr(cfg, name)
            assert value is None or type(value) is float, name
        assert cfg.g is None and cfg.omega_d is None and cfg.omega_r_dressed is None
        assert cfg.epsilon == float(np.float32(0.045))
        assert cfg.kappa == 1.0 / 22.0
        run_sweep(cfg)
        cfg.to_json(tmp_path / "config.json")
        assert SweepConfig.from_json(tmp_path / "config.json") == cfg

    def test_truncation_defaults_are_the_transmon_defaults(self):
        cfg = SweepConfig()
        assert cfg.level_count == TransmonParams.level_count
        assert cfg.charge_cutoff == TransmonParams.charge_cutoff
        cutoff = inspect.signature(ej_for_frequency).parameters["charge_cutoff"]
        assert cutoff.default == TransmonParams.charge_cutoff

    def test_hash_ignores_execution_fields(self):
        a = small_config(workers=1, out_dir="/tmp/a")
        b = small_config(workers=8, out_dir="/tmp/b")
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(small_config(epsilon=0.05))

    def test_json_round_trip(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "config.json"
        cfg.to_json(path)
        assert SweepConfig.from_json(path) == cfg

    def test_from_dict_with_coupling_only(self):
        cfg = SweepConfig.from_dict({"g": 0.13})
        assert cfg.g == 0.13 and cfg.k_eff is None
        with pytest.raises(ValueError, match="exactly one"):
            SweepConfig.from_dict({"g": 0.13, "k_eff": 0.05})

    def test_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            small_config(delta_grid=[1.1, 1.0])
        with pytest.raises(ValueError, match="exactly one"):
            small_config(g=0.1)  # both k_eff default and g set
        with pytest.raises(ValueError, match="non-empty"):
            small_config(n_g_grid=[])
        with pytest.raises(ValueError, match="worker"):
            small_config(workers=0)
        with pytest.raises(ValueError, match="worker"):
            SweepConfig.from_dict({"workers": None})  # an old config's null
        with pytest.raises(ValueError, match="initial_state 20 outside"):
            small_config(initial_states=[0, 20])
        with pytest.raises(ValueError, match="nbar_step"):
            small_config(nbar_step=0.0)
        with pytest.raises(ValueError, match="nbar_step"):
            small_config(nbar_step=-0.25)
        with pytest.raises(ValueError, match="dt"):
            small_config(dt=0.0)
        # above the 0.1 ns ceiling, though each divides the 50 ns pulse
        for dt in (0.125, 0.2):
            with pytest.raises(ValueError, match="dt"):
                small_config(dt=dt)
        assert small_config(dt=0.1).dt == 0.1
        # a 20 MHz detuned drive rings up and back down within the pulse
        with pytest.raises(ValueError, match="not monotone"):
            small_config(omega_d=4.77, omega_r_dressed=4.75)
        small_config(omega_d=4.745, omega_r_dressed=4.745)  # dressed-frequency drive
        # every spectrum is 1-periodic in n_g: these charges are one charge
        for n_g_grid in ([-0.5, 0.5], [0.0, 1.0], [0.1, 1.1], [0.2, -0.8 + 1e-12]):
            with pytest.raises(ValueError, match="n_g_grid must not repeat"):
                small_config(n_g_grid=n_g_grid)
        assert small_config(n_g_grid=[-0.5, 0.49]).n_g_grid == [-0.5, 0.49]

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"threshold": 1.5}, "threshold"),
            ({"charge_cutoff": 19}, "charge_cutoff"),
            ({"level_count": 1}, "level_count"),
            ({"k_eff": None, "g": 0.0}, "positive"),
            ({"k_eff": -0.048}, "positive"),
            ({"initial_states": [0, 0]}, "repeat"),
            ({"epsilon": 0.0}, "epsilon"),
            ({"epsilon": -0.045}, "epsilon"),
            ({"dt": 0.03}, "does not divide"),
            ({"duration": 50.02}, "does not divide"),
            ({"kappa": np.nan}, "kappa"),
            ({"kappa": np.inf}, "kappa"),
            ({"e_c": np.nan}, "e_c"),
            ({"omega_r": np.nan}, "omega_r"),
            ({"epsilon": np.inf}, "epsilon"),
            ({"delta_grid": [np.nan, 1.0]}, "delta_grid"),
            ({"charge_cutoff": 30.5}, "charge_cutoff must be an integer"),
            ({"level_count": 20.5}, "level_count must be an integer"),
            ({"initial_states": [0.5]}, "initial_state must be an integer"),
            ({"sample_stride": 2.5}, "sample_stride must be an integer"),
            ({"workers": 1.5}, "workers must be an integer"),
            ({"workers": True}, "workers must be an integer"),
            ({"omega_r": -1.0, "delta_grid": [6.0, 6.5]}, "omega_r must be positive, got -1.0"),
            ({"omega_r": 0.0}, "omega_r must be positive, got 0.0"),
            ({"n_g_grid": [0.0, 0.0]}, "n_g_grid must not repeat"),
            ({"epsilon": True}, "epsilon must be a number, got True"),
            ({"k_eff": True}, "k_eff must be a number, got True"),
            # a true in a grid used to pass as 1.0
            ({"delta_grid": [1.0, True]}, "delta_grid must be a number, got True"),
            ({"n_g_grid": [True, 0.2]}, "n_g_grid must be a number, got True"),
            ({"n_g_grid": [0.0, np.inf]}, "n_g_grid must be finite, got inf"),
        ],
    )
    def test_rejected_when_built(self, overrides, match, tmp_path):
        # each of these used to fail only inside the sweep, after E_J solves
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=match):
            small_config(**overrides, out_dir=str(out))
        assert not out.exists()

    def test_axis_ends_at_the_members_last_sample(self):
        cfg = SweepConfig()
        _, nbar_s = _sample_photons(cfg.drive(), cfg.dt, cfg.sample_stride)
        end = cfg.nbar_axis()[-1]
        assert nbar_s[-1] - cfg.nbar_step < end <= nbar_s[-1] + 1e-12

    def test_resolved_drive_is_resonant_by_default(self):
        cfg = small_config()
        assert cfg.drive().detuning == 0.0
        assert cfg.drive().omega_d == cfg.omega_r

    @pytest.mark.parametrize(
        "name, value, match", [("dt", 0.2, "dt"), ("threshold", 1.5, "threshold")]
    )
    def test_field_set_after_construction_is_checked(self, monkeypatch, name, value, match):
        calls = []
        monkeypatch.setattr(sweep_mod, "_point_survival", calls.append)
        cfg = small_config()
        setattr(cfg, name, value)
        with pytest.raises(ValueError, match=match):
            run_sweep(cfg)
        assert calls == []


class TestOracleCheck:
    def test_default_configuration_passes(self):
        # at nbar = N the stack's bonds are bitwise the ladder's: exactly 0.0
        report = run_oracle_check(SweepConfig())
        assert report["passed"]
        assert report["max_difference"] == 0.0
        assert list(report["max_difference_per_ng"].values()) == [0.0] * 4

    def test_no_offset_charge_rejected(self):
        # an empty scan compared nothing and reported passed
        with pytest.raises(ValueError, match="n_g_values must be non-empty"):
            run_oracle_check(SweepConfig(), n_g_values=())

    @pytest.mark.parametrize(
        "n_g_values", [(0.2, 0.2), (0.2, -0.8)], ids=["repeat", "repeat-mod-1"]
    )
    def test_repeated_charge_rejected(self, n_g_values):
        # both used to be computed twice and reported once
        with pytest.raises(ValueError, match="n_g_values must not repeat modulo 1"):
            run_oracle_check(SweepConfig(), n_g_values=n_g_values)

    @pytest.mark.parametrize("n_max", [True, 2.5, np.float64(3.0)])
    def test_n_max_must_be_an_integer(self, n_max):
        # True would scan N <= 1 and report "n_max": true
        with pytest.raises(ValueError, match="n_max must be an integer"):
            run_oracle_check(SweepConfig(), n_max=n_max, n_g_values=(0.0,))

    def test_solves_ej_once(self, monkeypatch):
        # the other charges re-diagonalize the first charge's transmon
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return ej_for_frequency(*args, **kwargs)

        monkeypatch.setattr(sweep_mod, "ej_for_frequency", counted)
        report = run_oracle_check(SweepConfig(), n_max=5)
        assert len(report["max_difference_per_ng"]) == 4
        assert len(calls) == 1

    def test_two_level_toy_system(self):
        cfg = SweepConfig(level_count=2)
        report = run_oracle_check(cfg, n_max=1, n_g_values=(0.0,))
        assert report["passed"]
        strip_cfg = sweep_mod.strip_for_detuning(cfg, 1.1, 0.0)
        assert np.all(spectral_differences(strip_cfg, 1) < 1e-14)

    def test_detects_missing_interaction_cutoff(self):
        # deliberate defect: bonds scaled by sqrt(nbar) with no per-level cutoff
        cfg = SweepConfig()
        strip_cfg = sweep_mod.strip_for_detuning(cfg, 1.1, 0.2)
        n_total = 5
        k_count = strip_cfg.level_count
        corrupted = np.diag(strip_cfg.rotating_diagonal).astype(complex)
        bonds = (
            strip_cfg.eigen.couplings[: k_count - 1]
            * strip_cfg.coupling
            * np.sqrt(float(n_total))
        )
        idx = np.arange(k_count - 1)
        corrupted[idx, idx + 1] = bonds
        corrupted[idx + 1, idx] = bonds
        eff = np.linalg.eigvalsh(corrupted)
        ladder = np.linalg.eigvalsh(jtc_strip_hamiltonian(strip_cfg, n_total))
        bare = strip_cfg.rotating_diagonal[len(ladder) :]
        combined = np.sort(np.concatenate([ladder, bare]))
        assert np.max(np.abs(eff - combined)) > 1e-6

    def test_correct_hamiltonian_matches_where_defect_does_not(self):
        cfg = SweepConfig()
        strip_cfg = sweep_mod.strip_for_detuning(cfg, 1.1, 0.2)
        diffs = spectral_differences(strip_cfg, 19)
        assert diffs.shape == (20,)
        assert np.all(diffs < 1e-12)

    def test_detects_missing_cutoff_in_the_propagation_bonds(self, monkeypatch):
        # the driven side is the propagation's own bond builder, so its defect shows
        def uncut(config, nbar):
            root = np.sqrt(np.asarray(nbar, float))[..., None]
            return root * (config.eigen.couplings * config.coupling)

        monkeypatch.setattr(sweep_mod, "bond_amplitudes", uncut)
        report = run_oracle_check(SweepConfig(), n_max=10)
        assert report["passed"] is False
        assert report["max_difference"] > 1e-6


class TestAtCharge:
    @pytest.mark.parametrize("n_g", [-0.5, 0.2, 0.5])
    def test_equals_the_strip_built_at_the_charge(self, n_g):
        cfg = SweepConfig()
        moved = strip_for_detuning(cfg, 1.1, 0.0).at_charge(n_g)
        built = strip_for_detuning(cfg, 1.1, n_g)
        assert np.array_equal(moved.eigen.energies, built.eigen.energies)
        assert np.array_equal(moved.eigen.couplings, built.eigen.couplings)
        assert moved.eigen.raw_n01 == built.eigen.raw_n01
        assert moved.eigen.provenance == built.eigen.provenance
        assert (moved.omega_r, moved.g, moved.k_eff) == (built.omega_r, built.g, built.k_eff)

    def test_needs_provenance(self):
        eigen = TransmonEigen(
            energies=np.array([0.0, 5.85, 11.5]),
            couplings=np.array([1.0, 1.4]),
            raw_n01=1.0,
        )
        strip = StripConfig(eigen=eigen, omega_r=4.75, g=0.1)
        with pytest.raises(ValueError, match="no transmon provenance"):
            strip.at_charge(0.2)
