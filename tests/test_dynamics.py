import numpy as np
import pytest
from dataclasses import replace

from mistsim.dynamics import (
    PopulationTrace,
    SimulationConfig,
    charge_averaged_survival,
    evolve_piecewise_constant,
    propagate,
    propagate_states,
    survival_vs_nbar,
)
from mistsim.field import DriveConfig
from mistsim.strip import StripConfig
from mistsim.transmon import TransmonEigen

from conftest import EPSILON, KAPPA, OMEGA_R


def make_trace(nbar, survival):
    nbar = np.asarray(nbar, float)
    survival = np.asarray(survival, float)
    pops = np.zeros((len(nbar), 2))
    pops[:, 0] = survival
    pops[:, 1] = 1 - survival
    return PopulationTrace(
        times=np.arange(len(nbar), dtype=float),
        nbar=nbar,
        populations=pops,
        survival=survival,
        norm=np.ones(len(nbar)),
        initial_state=0,
        flagged_samples=[],
    )


class TestPropagate:
    def test_undriven_eigenstate_is_stationary(self, ref_strip):
        drive = DriveConfig(
            epsilon=0.0,
            omega_d=OMEGA_R,
            omega_r_dressed=OMEGA_R,
            kappa=KAPPA,
            duration=20.0,
        )
        for state in (0, 1):
            sim = SimulationConfig(strip=ref_strip, drive=drive, initial_state=state)
            trace = propagate(sim)
            assert np.all(trace.survival > 1 - 1e-12)

    def test_survival_starts_at_one(self, ref_trace):
        assert ref_trace.survival[0] == 1.0

    def test_norm_preserved(self, ref_trace):
        assert np.max(np.abs(ref_trace.norm - 1.0)) < 1e-6

    def test_populations_sum_to_one(self, ref_trace):
        sums = ref_trace.populations.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-6
        assert np.all(ref_trace.populations >= -1e-12)
        assert np.all(ref_trace.populations <= 1 + 1e-9)

    def test_transition_at_reference_crossing(self, ref_trace):
        # sharp population exchange into branch 9 once the ring-up passes ~40 photons
        curve = survival_vs_nbar(ref_trace)
        below = curve.survival_running_min < 0.5
        assert np.any(below)
        first = curve.nbar_axis[int(np.argmax(below))]
        assert 34.0 <= first <= 47.0
        assert ref_trace.populations[-1, 9] > 0.5

    def test_branch_tracking_clean_on_reference_trace(self, ref_trace):
        assert ref_trace.flagged_samples == []

    def test_halving_dt_converged(self, ref_strip, ref_drive):
        drive = replace(ref_drive, duration=40.0)
        coarse = propagate(
            SimulationConfig(strip=ref_strip, drive=drive, dt=0.01, sample_stride=10)
        )
        fine = propagate(
            SimulationConfig(strip=ref_strip, drive=drive, dt=0.005, sample_stride=20)
        )
        assert np.allclose(coarse.times, fine.times)
        assert np.max(np.abs(coarse.populations - fine.populations)) < 1e-4

    def test_deterministic(self, ref_sim):
        a = propagate(ref_sim)
        b = propagate(ref_sim)
        assert np.array_equal(a.populations, b.populations)
        assert np.array_equal(a.norm, b.norm)

    def test_detuned_drive_gauge_path(self, ref_strip):
        # rotating bond phase exercises the time-varying gauge branch
        drive = DriveConfig(
            epsilon=EPSILON,
            omega_d=OMEGA_R,
            omega_r_dressed=OMEGA_R + 0.003,
            kappa=KAPPA,
            duration=20.0,
        )
        sim = SimulationConfig(strip=ref_strip, drive=drive)
        trace = propagate(sim)
        assert np.max(np.abs(trace.norm - 1.0)) < 1e-6
        assert np.max(np.abs(trace.populations.sum(axis=1) - 1.0)) < 1e-6

    def test_gauge_optimization_matches_brute_force(self, ref_eigen):
        # the rotated-gauge fast path must reproduce a direct propagation of
        # the full complex Hamiltonian when drive, frame and field all detune
        from mistsim.field import field_amplitude
        from mistsim.strip import effective_hamiltonian, match_branches

        strip = StripConfig(
            eigen=ref_eigen, omega_r=OMEGA_R, omega_d=OMEGA_R - 0.01, k_eff=0.048
        )
        drive = DriveConfig(
            epsilon=EPSILON,
            omega_d=OMEGA_R - 0.01,
            omega_r_dressed=OMEGA_R - 0.005,
            kappa=KAPPA,
            duration=10.0,
        )
        sim = SimulationConfig(strip=strip, drive=drive, dt=0.01, sample_stride=10)
        trace = propagate(sim)

        steps = 1000
        t_mid = (np.arange(steps) + 0.5) * 0.01
        alphas = field_amplitude(drive, t_mid)
        stack = np.array(
            [effective_hamiltonian(strip, a, t) for a, t in zip(alphas, t_mid)]
        )
        psis = evolve_piecewise_constant(stack, 0.01, np.eye(20)[0], 10)

        t_s = np.arange(0, steps + 1, 10) * 0.01
        alpha_s = field_amplitude(drive, t_s)
        h_s = np.array(
            [effective_hamiltonian(strip, a, t) for a, t in zip(alpha_s, t_s)]
        )
        _, vecs = np.linalg.eigh(h_s)
        cols = np.argsort(np.argmax(np.abs(vecs[0]), axis=0))
        prev = vecs[0][:, cols]
        pops = [np.abs(prev.conj().T @ psis[0]) ** 2]
        for j in range(1, len(t_s)):
            cols, _, _ = match_branches(prev, vecs[j])
            prev = vecs[j][:, cols]
            pops.append(np.abs(prev.conj().T @ psis[j]) ** 2)
        assert np.max(np.abs(np.array(pops) - trace.populations)) < 1e-9

    def test_config_validation(self, ref_strip, ref_drive):
        with pytest.raises(ValueError):
            SimulationConfig(strip=ref_strip, drive=ref_drive, dt=0.1)
        with pytest.raises(ValueError):
            SimulationConfig(strip=ref_strip, drive=ref_drive, initial_state=20)
        with pytest.raises(ValueError):
            SimulationConfig(strip=ref_strip, drive=ref_drive, sample_stride=0)

    @pytest.mark.parametrize("kind", ["resonant", "dressed", "tabulated"])
    def test_states_in_one_pass_equal_single_runs(self, ref_strip, ref_drive, kind):
        # full 100 ns: the sampled block is large enough for numpy to reuse
        # temporaries, which is where a batched rewrite can change rounding
        strip, drive = ref_strip, ref_drive
        if kind == "dressed":  # drive at the dressed frequency: lab-gauge frame path
            strip = replace(ref_strip, omega_d=4.745)
            drive = replace(ref_drive, omega_d=4.745, omega_r_dressed=4.745)
        elif kind == "tabulated":
            ramp = (np.array([0.0, 30.0, 60.0, 100.0]), EPSILON * np.array([0, 0.6, 1, 1]))
            drive = replace(ref_drive, envelope=ramp)
        sim = SimulationConfig(strip=strip, drive=drive)
        batch = propagate_states(sim, [0, 1])
        for state, trace in zip((0, 1), batch):
            single = propagate(replace(sim, initial_state=state))
            assert trace.initial_state == state
            assert np.array_equal(trace.populations, single.populations)
            assert np.array_equal(trace.survival, single.survival)
            assert np.array_equal(trace.norm, single.norm)
            assert np.array_equal(trace.nbar, single.nbar)
            assert trace.flagged_samples == single.flagged_samples

    def test_states_validated(self, ref_sim):
        with pytest.raises(ValueError, match="initial_state 20 outside"):
            propagate_states(ref_sim, [0, 20])

    def test_csv_export(self, ref_trace, tmp_path):
        path = tmp_path / "trace.csv"
        ref_trace.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("t_ns,nbar,norm,pop_branch_0")
        assert header.endswith("pop_branch_19")


class TestPiecewiseConstantEvolver:
    def test_constant_hamiltonian_phase_exact(self):
        h = np.diag([0.0, 0.5])
        stack = np.broadcast_to(h, (100, 2, 2))
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2)
        out = evolve_piecewise_constant(stack, 0.01, psi0, sample_stride=100)
        expected = psi0 * np.exp(-2j * np.pi * np.array([0.0, 0.5]) * 1.0)
        assert np.allclose(out[-1], expected, atol=1e-12)

    def test_two_level_rabi_oscillation(self):
        # resonant coupling g: population oscillates as sin^2(2*pi*g*t)
        g = 0.05
        h = np.array([[0.0, g], [g, 0.0]])
        steps = 400
        stack = np.broadcast_to(h, (steps, 2, 2))
        out = evolve_piecewise_constant(stack, 0.0125, np.array([1.0, 0.0]), 400)
        t_final = steps * 0.0125
        assert abs(out[-1][1]) ** 2 == pytest.approx(
            np.sin(2 * np.pi * g * t_final) ** 2, abs=1e-10
        )

    def test_matches_direct_matrix_exponential(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(7)
        raw = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = (raw + raw.conj().T) / 2
        psi0 = rng.normal(size=5) + 1j * rng.normal(size=5)
        psi0 /= np.linalg.norm(psi0)
        steps, dt = 50, 0.02
        stack = np.broadcast_to(h, (steps, 5, 5))
        out = evolve_piecewise_constant(stack, dt, psi0, steps)
        expected = expm(-2j * np.pi * h * steps * dt) @ psi0
        assert np.allclose(out[-1], expected, atol=1e-10)

    @pytest.mark.parametrize("with_frame", [False, True])
    def test_block_columns_equal_single_runs(self, with_frame):
        rng = np.random.default_rng(11)
        steps, k, m = 40, 6, 3
        raw = rng.normal(size=(steps, k, k)) + 1j * rng.normal(size=(steps, k, k))
        stack = (raw + raw.conj().transpose(0, 2, 1)) / 2
        frame = np.exp(1j * rng.uniform(0, 2 * np.pi, (steps, k))) if with_frame else None
        block = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
        out = evolve_piecewise_constant(stack, 0.02, block, 7, frame)
        assert out.shape == (1 + steps // 7 + 1, k, m)  # start, every 7th step, end
        for j in range(m):
            single = evolve_piecewise_constant(stack, 0.02, block[:, j], 7, frame)
            assert np.array_equal(out[:, :, j], single)


class TestSurvivalCurve:
    def test_constant_survival(self):
        curve = survival_vs_nbar(make_trace([0, 1, 2, 3], [1, 1, 1, 1]))
        assert np.array_equal(curve.survival_running_min, np.ones(4))

    def test_running_minimum_ignores_recovery(self):
        curve = survival_vs_nbar(
            make_trace([0.0, 20.0, 40.0, 60.0], [1.0, 1.0, 0.3, 0.6])
        )
        assert np.array_equal(curve.survival_running_min, [1.0, 1.0, 0.3, 0.3])

    def test_rejects_non_monotone_photon_number(self):
        with pytest.raises(ValueError, match="monotone"):
            survival_vs_nbar(make_trace([0.0, 5.0, 3.0], [1.0, 1.0, 1.0]))

    def test_reference_onset_within_coherent_uncertainty(self, ref_trace, ref_fan):
        from mistsim.strip import find_avoided_crossings

        rec = next(
            r
            for r in find_avoided_crossings(ref_fan, 1e-3, 0.1)
            if (r.branch_a, r.branch_b) == (0, 9)
        )
        curve = survival_vs_nbar(ref_trace)
        below = curve.survival_running_min < 0.9
        first = curve.nbar_axis[int(np.argmax(below))]
        assert abs(first - rec.nbar_cross) <= np.sqrt(rec.nbar_cross)

    def test_csv_export(self, ref_trace, tmp_path):
        path = tmp_path / "survival.csv"
        survival_vs_nbar(ref_trace).to_csv(path)
        assert path.read_text().splitlines()[0] == "nbar,survival"


class TestChargeAveraging:
    def test_average_of_stationary_members_is_one(self, ref_strip):
        drive = DriveConfig(
            epsilon=0.0,
            omega_d=OMEGA_R,
            omega_r_dressed=OMEGA_R,
            kappa=KAPPA,
            duration=10.0,
        )
        sim = SimulationConfig(strip=ref_strip, drive=drive)
        curve = charge_averaged_survival(sim, n_g_grid=np.array([-0.5, -0.25, 0.0]))
        assert np.all(curve.survival_running_min > 1 - 1e-9)

    def test_single_point_grid_equals_member(self, ref_sim):
        averaged = charge_averaged_survival(ref_sim, n_g_grid=np.array([0.2]))
        member = survival_vs_nbar(propagate(ref_sim))
        assert np.allclose(averaged.survival_running_min, member.survival_running_min)
        assert np.allclose(averaged.nbar_axis, member.nbar_axis)

    def test_reference_average_departs_near_crossing(self, ref_sim):
        curve = charge_averaged_survival(ref_sim)
        in_window = (curve.nbar_axis > 30.0) & (curve.nbar_axis < 60.0)
        assert np.min(curve.survival_running_min[in_window]) < 0.95
        before = curve.nbar_axis < 20.0
        assert np.all(curve.survival_running_min[before] > 0.98)

    def test_custom_common_axis(self, ref_sim):
        axis = np.arange(0.0, 100.0, 1.0)
        curve = charge_averaged_survival(ref_sim, n_g_grid=np.array([0.2]), nbar_axis=axis)
        assert np.array_equal(curve.nbar_axis, axis)
        member = survival_vs_nbar(propagate(ref_sim))
        expected = np.interp(axis, member.nbar_axis, member.survival_running_min)
        assert np.allclose(curve.survival_running_min, expected)

    def test_requires_provenance(self, ref_drive):
        eigen = TransmonEigen(
            energies=np.array([0.0, 5.85, 11.5]),
            couplings=np.array([1.0, 1.4]),
            raw_n01=1.0,
            n_g=0.0,
        )
        strip = StripConfig(eigen=eigen, omega_r=OMEGA_R, g=0.1)
        sim = SimulationConfig(strip=strip, drive=ref_drive)
        with pytest.raises(RuntimeError, match="n_g"):
            charge_averaged_survival(sim, n_g_grid=np.array([0.0, 0.1]))
