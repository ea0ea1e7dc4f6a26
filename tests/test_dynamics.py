import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from dataclasses import replace

import mistsim.strip as strip_mod
import mistsim.sweep as sweep_mod
from mistsim import dynamics
from mistsim.dynamics import (
    CF4_NODES,
    CF4_WEIGHTS,
    PopulationTrace,
    SimulationConfig,
    _sample_photons,
    _sample_times,
    _step_edges,
    evolve_piecewise_constant,
    propagate,
    propagate_states,
    survival_vs_nbar,
)
from mistsim.field import DriveConfig, field_amplitude, level_crossings
from mistsim.strip import StripConfig
from mistsim.sweep import SweepConfig, charge_averaged_survival, strip_for_detuning
from mistsim.transmon import TransmonEigen

from conftest import EPSILON, KAPPA, OMEGA_R, lab_strip_hamiltonian


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


def loop_evolve(hamiltonians, dt, psi0):
    """The kernel as a per-state list of matrix-vector products: the reference."""
    steps = hamiltonians.shape[0]
    evals, evecs = np.linalg.eigh(hamiltonians)
    evecs_h = evecs.conj().transpose(0, 2, 1)
    phases = np.exp(-2j * np.pi * evals * np.reshape(dt, (-1, 1)))
    start = np.asarray(psi0, dtype=complex)
    psi = [np.array(column) for column in np.atleast_2d(start.T)]
    out = [psi]
    for s in range(steps):
        v, vh, p = evecs[s], evecs_h[s], phases[s]
        psi = [v @ (p * (vh @ x)) for x in psi]
        out.append(psi)
    states = np.array(out).transpose(0, 2, 1)
    return states[:, :, 0] if start.ndim == 1 else states


def loop_populations(vectors, psis):
    """The read-out as a list over the samples: the reference."""
    return np.array([np.abs(v.T @ psi) ** 2 for v, psi in zip(vectors, psis)])


def member_drive(ref_drive, kind):
    """The 100 ns reference drive, at the dressed frequency or with a ramp."""
    if kind == "dressed":  # drive at the dressed frequency: the frame turns
        return replace(ref_drive, omega_d=4.745, omega_r_dressed=4.745)
    if kind == "tabulated":
        ramp = (np.array([0.0, 30.0, 60.0, 100.0]), EPSILON * np.array([0, 0.6, 1, 1]))
        return replace(ref_drive, envelope=ramp)
    return ref_drive


# 20 MHz from the dressed resonator: nbar rings up and back down, so kinks
# both rise and fall
RISE_AND_FALL = DriveConfig(
    epsilon=EPSILON, omega_d=OMEGA_R + 0.02, omega_r_dressed=OMEGA_R, kappa=KAPPA, duration=100.0
)


@pytest.fixture(scope="module")
def stiff_corner():
    """States 0 and 1 at (0.6, -0.5) at the default step and at dt 0.0025."""
    strip = strip_for_detuning(SweepConfig(), 0.6, -0.5)
    sim = SimulationConfig(strip=strip, drive=SweepConfig().drive())
    fine = replace(sim, dt=0.0025, sample_stride=40)
    return propagate_states(sim, [0, 1]), propagate_states(fine, [0, 1])


class TestPropagate:
    def test_undriven_eigenstate_is_stationary(self, ref_strip):
        # below omega_r the frame turns with alpha = 0 throughout
        for omega_d in (OMEGA_R, OMEGA_R - 0.01):
            drive = DriveConfig(
                epsilon=0.0,
                omega_d=omega_d,
                omega_r_dressed=omega_d,
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
        # the field's phase winds, so the frame turns at a varying rate
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

    def test_gauge_optimization_matches_brute_force(self, ref_strip):
        # the real drive-frame stack must reproduce a direct propagation of
        # the full complex Hamiltonian when drive, frame and field all detune
        from mistsim.strip import match_branches

        strip = ref_strip
        square = DriveConfig(
            epsilon=EPSILON,
            omega_d=OMEGA_R - 0.01,
            omega_r_dressed=OMEGA_R - 0.005,
            kappa=KAPPA,
            duration=10.0,
        )
        ramp = (np.array([0.0, 4.0, 10.0]), EPSILON * np.array([0, 1, 0.7]))
        for drive in (square, replace(square, envelope=ramp)):
            sim = SimulationConfig(strip=strip, drive=drive, dt=0.01, sample_stride=10)
            trace = propagate(sim)

            # CF4 on the complex lab-gauge Hamiltonian: same nodes on the same
            # edges; the field is wound into the resonator frame here
            theta = 2 * np.pi * (OMEGA_R - drive.omega_d)

            def lab_hamiltonian(alpha, t):
                return lab_strip_hamiltonian(strip, alpha * np.exp(1j * theta * t))

            edges = _step_edges(drive, sim.dt, np.arange(1, 19))
            h = np.diff(edges)
            nodes = edges[:-1, None] + h[:, None] * CF4_NODES
            alphas = field_amplitude(drive, nodes.ravel()).reshape(nodes.shape)
            h_nodes = np.array(
                [
                    [lab_hamiltonian(a, t) for a, t in zip(pair_a, pair_t)]
                    for pair_a, pair_t in zip(alphas, nodes)
                ]
            )
            a1, a2 = CF4_WEIGHTS
            stack = np.stack(
                (a2 * h_nodes[:, 0] + a1 * h_nodes[:, 1], a1 * h_nodes[:, 0] + a2 * h_nodes[:, 1]),
                axis=1,
            ).reshape(-1, 20, 20)
            t_s = np.arange(0, 1001, 10) * 0.01
            # the state after every sub-step; edge j falls after sub-step 2*j
            psis = evolve_piecewise_constant(stack, np.repeat(h, 2), np.eye(20)[0])
            psis = psis[2 * np.searchsorted(edges, t_s)]

            alpha_s = field_amplitude(drive, t_s)
            h_s = np.array([lab_hamiltonian(a, t) for a, t in zip(alpha_s, t_s)])
            _, vecs = np.linalg.eigh(h_s)
            cols = np.argsort(np.argmax(np.abs(vecs[0]), axis=0))
            prev = vecs[0][:, cols]
            pops = [np.abs(prev.conj().T @ psis[0]) ** 2]
            for j in range(1, len(t_s)):
                cols, _, _ = match_branches(prev, vecs[j])
                prev = vecs[j][:, cols]
                pops.append(np.abs(prev.conj().T @ psis[j]) ** 2)
            assert np.max(np.abs(np.array(pops) - trace.populations)) < 1e-9

    @pytest.mark.xfail(
        strict=True,
        reason="the bonds carry alpha, not conj(alpha): a drive at omega_d acts at 2*omega_r - omega_d",
    )
    def test_drive_at_qubit_frequency_excites_qubit(self, ref_strip):
        # a weak drive with its field resonant at the qubit frequency Rabi-flips
        # 0 -> 1; today only one at the mirror frequency 2*omega_r - omega_q does
        omega_q = ref_strip.eigen.qubit_frequency
        drive = DriveConfig(
            epsilon=0.0005,
            omega_d=omega_q,
            omega_r_dressed=omega_q,
            kappa=KAPPA,
            duration=100.0,
        )
        trace = propagate(SimulationConfig(strip=ref_strip, drive=drive))
        assert np.max(trace.populations[:, 1]) > 0.9

    def test_config_validation(self, ref_strip, ref_drive):
        # above the 0.1 ns ceiling, though each divides the duration
        for dt in (0.125, 0.2):
            with pytest.raises(ValueError, match=r"dt must be in \(0, 0.1\] ns"):
                SimulationConfig(strip=ref_strip, drive=ref_drive, dt=dt)
        # a float32 0.05 passed the divide test in float32, then its grid ended
        # at 100.0000015 ns, past the pulse
        with pytest.raises(ValueError, match="does not divide"):
            SimulationConfig(strip=ref_strip, drive=ref_drive, dt=np.float32(0.05))
        with pytest.raises(ValueError, match="dt must be a number, got True"):
            SimulationConfig(strip=ref_strip, drive=ref_drive, dt=True)
        with pytest.raises(ValueError):
            SimulationConfig(strip=ref_strip, drive=ref_drive, initial_state=20)
        with pytest.raises(ValueError):
            SimulationConfig(strip=ref_strip, drive=ref_drive, sample_stride=0)
        # a step grid that overshoots (0.049) or stops short (0.03, 30.02 ns)
        for dt, duration in ((0.049, 100.0), (0.03, 100.0), (0.05, 30.02)):
            drive = replace(ref_drive, duration=duration)
            with pytest.raises(ValueError, match="does not divide"):
                SimulationConfig(strip=ref_strip, drive=drive, dt=dt)
        accepted = (
            (0.1, 100.0),
            (0.05, 100.0),
            (0.0025, 100.0),
            (0.005, 100.0),
            (0.01, 10.0),
            (0.05, 30.0),
        )
        for dt, duration in accepted:
            drive = replace(ref_drive, duration=duration)
            assert SimulationConfig(strip=ref_strip, drive=drive, dt=dt).dt == dt

    @pytest.mark.parametrize("kind", ["resonant", "dressed", "tabulated"])
    def test_states_in_one_pass_equal_single_runs(self, ref_strip, ref_drive, kind):
        # full 100 ns: the sampled block is large enough for numpy to reuse
        # temporaries, which is where a batched rewrite can change rounding
        sim = SimulationConfig(strip=ref_strip, drive=member_drive(ref_drive, kind))
        batch = propagate_states(sim, [0, 1])
        for state, trace in zip((0, 1), batch):
            single = propagate(replace(sim, initial_state=state))
            assert trace.initial_state == state
            assert np.array_equal(trace.populations, single.populations)
            assert np.array_equal(trace.survival, single.survival)
            assert np.array_equal(trace.norm, single.norm)
            assert np.array_equal(trace.nbar, single.nbar)
            assert trace.flagged_samples == single.flagged_samples

    @pytest.mark.parametrize("kind", ["resonant", "dressed", "tabulated"])
    def test_stacked_products_equal_per_state_loops(self, ref_strip, ref_drive, kind, monkeypatch):
        # the stacked step product and read-out must keep every bit of a
        # per-state step loop and a per-sample read-out, on a real member
        sim = SimulationConfig(strip=ref_strip, drive=member_drive(ref_drive, kind))
        stacked = propagate_states(sim, [0, 1])
        monkeypatch.setattr(dynamics, "evolve_piecewise_constant", loop_evolve)
        monkeypatch.setattr(dynamics, "_populations", loop_populations)
        looped = propagate_states(sim, [0, 1])
        for a, b in zip(stacked, looped):
            for name in ("times", "nbar", "populations", "survival", "norm"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
            assert a.flagged_samples == b.flagged_samples

    @pytest.mark.parametrize("chunk", [2, 256])
    def test_step_chunks_equal_one_stack(self, ref_strip, ref_drive, chunk, monkeypatch):
        # the step stack goes through the kernel, and the samples through the
        # tracker and read-out, a chunk at a time; no chunk boundary may move
        # a bit against one stack of every sub-step and every sample
        sim = SimulationConfig(strip=ref_strip, drive=member_drive(ref_drive, "dressed"))
        monkeypatch.setattr(dynamics, "STEP_CHUNK", chunk)
        monkeypatch.setattr(strip_mod, "TRACK_CHUNK", chunk + 1)
        chunked = propagate_states(sim, [0, 1])
        monkeypatch.setattr(dynamics, "STEP_CHUNK", 10**9)
        monkeypatch.setattr(strip_mod, "TRACK_CHUNK", 10**9)
        whole = propagate_states(sim, [0, 1])
        for a, b in zip(chunked, whole):
            assert np.array_equal(a.populations, b.populations)
            assert np.array_equal(a.norm, b.norm)
            assert a.flagged_samples == b.flagged_samples

    def test_working_memory_does_not_grow_with_samples(self):
        # 4 001 samples, tracked and read out a block at a time; tracking the
        # whole grid at once and keeping every step's state peaked at 50.9 MB
        sim = SweepConfig(dt=0.025).simulation(1.1, 0.2)
        tracemalloc.start()
        try:
            propagate_states(sim, [0, 1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_default_step_matches_refined_dt(self, stiff_corner):
        # (0.6, -0.5) is the stiffest grid corner; CF4 without kink-aligned
        # edges misses this by 1.6e-4
        for coarse, ref in zip(*stiff_corner):
            assert np.allclose(coarse.times, ref.times)
            assert np.max(np.abs(coarse.populations - ref.populations)) < 5e-5

    def test_graded_edges_pin_the_refined_error(self, stiff_corner):
        # graded edges at dt 0.1 read 1.2e-6 here; ungraded dt 0.1 reads
        # 3.9e-5, and ungraded dt 0.05 1.1e-5
        for coarse, ref in zip(*stiff_corner):
            assert np.max(np.abs(coarse.populations - ref.populations)) < 3e-6

    @pytest.mark.parametrize("duration", [100.0, 50.0, 30.0, 20.0])
    def test_default_samples_are_the_old_grid(self, duration):
        # dt 0.1, stride 1 samples the same times, bit for bit, as dt 0.05,
        # stride 2 did, so sample photon numbers and branch labels stay put
        default = _sample_times(duration, SimulationConfig.dt, SimulationConfig.sample_stride)
        assert np.array_equal(default, _sample_times(duration, 0.05, 2))

    def test_states_validated(self, ref_sim):
        with pytest.raises(ValueError, match="initial_state 20 outside"):
            propagate_states(ref_sim, [0, 20])
        # int() used to turn 0.5 into state 0 before the check
        with pytest.raises(ValueError, match="initial_state must be an integer, got 0.5"):
            propagate_states(ref_sim, [0.5])

    def test_nan_norm_is_a_defect(self, monkeypatch):
        # np.max(...) > NORM_TOL is False for NaN, so NaN states passed the check
        original = dynamics.evolve_piecewise_constant

        def nan_states(*args):
            return np.full_like(original(*args), np.nan)

        monkeypatch.setattr(dynamics, "evolve_piecewise_constant", nan_states)
        with pytest.raises(RuntimeError, match="norm drifted to nan"):
            propagate(SweepConfig(duration=20.0).simulation(1.1, 0.2))

    def test_csv_export(self, ref_trace, tmp_path):
        path = tmp_path / "trace.csv"
        ref_trace.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("t_ns,nbar,norm,pop_branch_0")
        assert header.endswith("pop_branch_19")


class TestLevelCrossings:
    def test_resonant_square_drive_closed_form(self, ref_drive):
        # 400 ns reaches every level below the steady state n_ss ~ 154.8
        drive = replace(ref_drive, duration=400.0)
        grid = np.arange(8001) * 0.05
        n_ss = drive.steady_state_nbar
        levels = np.arange(1, int(np.ceil(n_ss)))
        kinks, rising = level_crossings(drive, grid, levels)
        expected = -(2 / drive.kappa) * np.log(1 - np.sqrt(levels / n_ss))
        assert len(kinks) == len(levels) and np.all(rising)
        assert np.max(np.abs(kinks - expected)) < 1e-9

    @pytest.mark.parametrize(
        "kind", ["resonant", "dressed", "field_detuned", "ramp", "switch_off"]
    )
    def test_kinks_hit_levels(self, ref_drive, kind):
        drive = {
            "resonant": ref_drive,
            "dressed": replace(ref_drive, omega_d=4.7354, omega_r_dressed=4.7354),
            "field_detuned": replace(ref_drive, omega_r_dressed=OMEGA_R + 0.013),
            "ramp": replace(
                ref_drive,
                envelope=(np.array([0.0, 30.0, 60.0, 100.0]), EPSILON * np.array([0, 0.6, 1, 1])),
            ),
            # both knots of the switch-off inside one grid interval; nbar then falls
            "switch_off": replace(
                ref_drive,
                envelope=(np.array([0.0, 50.01, 50.04]), EPSILON * np.array([1, 1, 0])),
            ),
        }[kind]
        grid = np.arange(2001) * 0.05
        levels = np.arange(1, 19)
        kinks, _ = level_crossings(drive, grid, levels)
        # every crossing, rising or falling, that a 1 ps grid sees
        fine = np.abs(field_amplitude(drive, np.arange(100001) * 0.001))[:, None] ** 2 > levels
        assert len(kinks) == np.count_nonzero(fine[1:] != fine[:-1])
        # the field the propagator samples at the step edges
        edges = _step_edges(drive, 0.05, levels)
        nbar = np.abs(field_amplitude(drive, edges[np.isin(edges, kinks)])) ** 2
        assert np.max(np.abs(nbar - np.round(nbar))) < 1e-12

    @pytest.mark.parametrize("kind", ["field_detuned", "switch_off"])
    def test_rising_is_false_exactly_at_falling_crossings(self, ref_drive, kind):
        drive = {
            "field_detuned": replace(ref_drive, omega_r_dressed=OMEGA_R + 0.013),
            "switch_off": replace(
                ref_drive,
                envelope=(np.array([0.0, 50.01, 50.04]), EPSILON * np.array([1, 1, 0])),
            ),
        }[kind]
        kinks, rising = level_crossings(drive, np.arange(2001) * 0.05, np.arange(1, 19))
        assert np.all(np.diff(kinks) > 0)
        falling = np.abs(field_amplitude(drive, kinks + 1e-6)) ** 2 < np.abs(
            field_amplitude(drive, kinks - 1e-6)
        ) ** 2
        assert 0 < np.count_nonzero(falling) < len(kinks)
        assert np.array_equal(rising, ~falling)

    def test_detuned_drive_rise_and_fall(self, ref_strip):
        drive = RISE_AND_FALL
        sim = SimulationConfig(strip=ref_strip, drive=drive)
        grid = _sample_times(drive.duration, sim.dt, 1)
        levels = np.arange(1, 19)
        kinks, _ = level_crossings(drive, grid, levels)
        fine = np.arange(100001) * 0.001
        nbar = np.abs(field_amplitude(drive, fine)) ** 2
        for k in levels:
            side = nbar > k
            crossed = fine[1:][side[1:] != side[:-1]]
            found = kinks[np.abs(np.abs(field_amplitude(drive, kinks)) ** 2 - k) < 1e-6]
            assert len(found) == len(crossed), k
            assert np.all(np.abs(found - crossed) < 1e-3), k
        assert len(kinks) > len(levels)  # some levels are crossed up and down
        assert np.max(np.abs(propagate(sim).norm - 1.0)) < 1e-6

    def test_graded_edges_on_the_side_above_the_level(self):
        drive = RISE_AND_FALL
        dt, levels = SimulationConfig.dt, np.arange(1, 19)
        kinks, _ = level_crossings(drive, _sample_times(drive.duration, dt, 1), levels)
        edges = _step_edges(drive, dt, levels)
        offsets = dt * 0.5 ** np.arange(1, 7)  # six graded edges, dt/2 to dt/64
        rising = np.abs(field_amplitude(drive, kinks + 1e-6)) ** 2 > np.abs(
            field_amplitude(drive, kinks - 1e-6)
        ) ** 2
        assert 0 < np.count_nonzero(rising) < len(kinks)

        def is_edge(times):
            return np.min(np.abs(edges[:, None] - times), axis=0) < 1e-12

        for t_k, up in zip(kinks, rising):
            # after a rising kink, before a falling one; none on the other side
            side = 1.0 if up else -1.0
            assert np.all(is_edge(t_k + side * offsets)), t_k
            assert not np.any(is_edge(t_k - side * offsets)), t_k
        # every edge is a grid point, a kink or a graded edge, and inside the pulse
        graded = (kinks + np.where(rising, 1.0, -1.0) * offsets[:, None]).ravel()
        known = np.concatenate((_sample_times(drive.duration, dt, 1), kinks, graded))
        assert np.all(np.min(np.abs(known[:, None] - edges), axis=0) < 1e-12)
        assert edges[0] == 0.0 and edges[-1] == drive.duration
        assert np.all(np.diff(edges) > dynamics.EDGE_MERGE_TOL)

    def test_graded_edges_end_with_the_pulse(self, ref_drive):
        # the pulse ends 3.5 ps after level 3's kink at 6.5965 ns: of its six
        # graded edges only dt/32 and dt/64 lie inside
        drive = replace(ref_drive, duration=6.6)
        dt = SimulationConfig.dt
        edges = _step_edges(drive, dt, np.arange(1, 19))
        grid = _sample_times(drive.duration, dt, 1)
        t_k = level_crossings(drive, grid, [3])[0][0]
        assert edges[-1] == grid[-1] and np.count_nonzero(edges > t_k) == 3
        assert np.allclose(edges[edges > t_k][:2] - t_k, [dt / 64, dt / 32], rtol=0, atol=1e-12)


class TestPiecewiseConstantEvolver:
    @pytest.mark.parametrize(
        "stride, match",
        [
            (0, "sample_stride must be >= 1"),
            (-1, "sample_stride must be >= 1"),
            (2.5, "sample_stride must be an integer"),
            (True, "sample_stride must be an integer"),
        ],
    )
    def test_bad_sample_stride_rejected(self, ref_strip, ref_drive, stride, match):
        # the sample rule is the config's: 0 divides by zero, -1 would sample
        # no step, 2.5 only the two ends
        with pytest.raises(ValueError, match=match):
            SimulationConfig(strip=ref_strip, drive=ref_drive, sample_stride=stride)

    def test_constant_hamiltonian_phase_exact(self):
        h = np.diag([0.0, 0.5])
        stack = np.broadcast_to(h, (100, 2, 2))
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2)
        out = evolve_piecewise_constant(stack, 0.01, psi0)
        expected = psi0 * np.exp(-2j * np.pi * np.array([0.0, 0.5]) * 1.0)
        assert np.allclose(out[-1], expected, atol=1e-12)

    def test_two_level_rabi_oscillation(self):
        # resonant coupling g: population oscillates as sin^2(2*pi*g*t)
        g = 0.05
        h = np.array([[0.0, g], [g, 0.0]])
        steps = 400
        stack = np.broadcast_to(h, (steps, 2, 2))
        out = evolve_piecewise_constant(stack, 0.0125, np.array([1.0, 0.0]))
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
        out = evolve_piecewise_constant(stack, dt, psi0)
        expected = expm(-2j * np.pi * h * steps * dt) @ psi0
        assert np.allclose(out[-1], expected, atol=1e-10)

    def test_block_columns_equal_single_runs(self):
        rng = np.random.default_rng(11)
        steps, k, m = 40, 6, 3
        raw = rng.normal(size=(steps, k, k)) + 1j * rng.normal(size=(steps, k, k))
        stack = (raw + raw.conj().transpose(0, 2, 1)) / 2
        block = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
        out = evolve_piecewise_constant(stack, 0.02, block)
        assert out.shape == (steps + 1, k, m)  # the start and every step
        for j in range(m):
            single = evolve_piecewise_constant(stack, 0.02, block[:, j])
            assert np.array_equal(out[:, :, j], single)

    def test_per_step_dt_array_equals_scalar(self):
        rng = np.random.default_rng(5)
        steps, k = 30, 4
        raw = rng.normal(size=(steps, k, k)) + 1j * rng.normal(size=(steps, k, k))
        stack = (raw + raw.conj().transpose(0, 2, 1)) / 2
        psi0 = np.eye(k)[:, :2]
        scalar = evolve_piecewise_constant(stack, 0.03, psi0)
        per_step = evolve_piecewise_constant(stack, np.full(steps, 0.03), psi0)
        assert np.array_equal(scalar, per_step)


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

    def test_each_charge_weighs_a_third(self, ref_sim):
        # uniform weights, each member propagated on its own; reweighting the
        # charges (ROADMAP item 2) changes this test on purpose
        n_g_grid = [-0.5, -0.25, 0.0]
        curve = charge_averaged_survival(ref_sim, n_g_grid=n_g_grid)
        members = [
            survival_vs_nbar(propagate(replace(ref_sim, strip=ref_sim.strip.at_charge(n_g))))
            for n_g in n_g_grid
        ]
        assert all(np.array_equal(m.nbar_axis, curve.nbar_axis) for m in members)
        a, b, c = (m.survival_running_min for m in members)
        assert np.array_equal(curve.survival_running_min, (a + b + c) / 3)

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
        )
        strip = StripConfig(eigen=eigen, omega_r=OMEGA_R, g=0.1)
        sim = SimulationConfig(strip=strip, drive=ref_drive)
        with pytest.raises(RuntimeError, match="n_g"):
            charge_averaged_survival(sim, n_g_grid=np.array([0.0, 0.1]))

    @pytest.mark.parametrize(
        "n_g_grid, match",
        [
            ([], "n_g_grid must be non-empty"),
            ([0.2, 0.2], "n_g_grid must not repeat"),
            # one charge modulo 1
            ([-0.5, 0.5], "n_g_grid must not repeat"),
            ([0.1, 0.3, 1.1], "n_g_grid must not repeat"),
        ],
    )
    def test_bad_grid_rejected(self, ref_sim, n_g_grid, match):
        # an empty grid ended in numpy's "need at least one array to stack",
        # and a repeated charge weighed double
        with pytest.raises(ValueError, match=match):
            charge_averaged_survival(ref_sim, n_g_grid=n_g_grid)

    @pytest.mark.parametrize(
        "axis",
        [
            [0.0, 1e6],  # past the last sample; np.interp clamped it to the final value
            [0.0, 2.0, 1.0],
            [0.0, 1.0, 1.0],
            [-1.0, 0.0, 1.0],
            [0.0, np.nan],
            [],  # np.all of an empty axis is True; it gave a 0-point curve
        ],
    )
    def test_axis_it_cannot_honour_rejected(self, ref_sim, axis, monkeypatch):
        calls = []
        monkeypatch.setattr(sweep_mod, "_point_survival", calls.append)
        with pytest.raises(ValueError, match="nbar_axis must ascend strictly"):
            charge_averaged_survival(ref_sim, n_g_grid=[0.2], nbar_axis=np.array(axis))
        assert calls == []

    def test_axis_may_end_at_the_last_sample(self, ref_sim, ref_trace):
        _, nbar_s = _sample_photons(ref_sim.drive, ref_sim.dt, ref_sim.sample_stride)
        axis = np.array([0.0, nbar_s[-1] / 2, nbar_s[-1] + 1e-12])
        curve = charge_averaged_survival(ref_sim, n_g_grid=[0.2], nbar_axis=axis)
        member = survival_vs_nbar(ref_trace)
        assert curve.survival_running_min[-1] == member.survival_running_min[-1]


@pytest.mark.parametrize(
    "name, value, match",
    [
        ("dt", None, "dt must be a number, got None"),
        ("dt", "0.1", "dt must be a number, got '0.1'"),
        ("dt", [0.1], r"dt must be a number, got \[0.1\]"),
        ("dt", 0.1 + 0j, r"dt must be a number, got \(0.1\+0j\)"),
        ("sample_stride", "1", "sample_stride must be an integer, got '1'"),
        ("initial_state", None, "initial_state must be an integer, got None"),
    ],
)
def test_simulation_rejects_a_setting_of_the_wrong_kind(ref_strip, ref_drive, name, value, match):
    with pytest.raises(ValueError, match=match):
        SimulationConfig(strip=ref_strip, drive=ref_drive, **{name: value})


def test_simulation_stores_plain_counts(ref_strip, ref_drive):
    sim = SimulationConfig(
        strip=ref_strip, drive=ref_drive, initial_state=np.int64(1), sample_stride=np.int32(2)
    )
    assert type(sim.initial_state) is int and type(sim.sample_stride) is int


def test_no_thread_outlives_a_member(monkeypatch):
    # the stepping thread is joined before propagate_states returns or raises
    sim = SweepConfig(duration=20.0).simulation(1.1, 0.2)
    before = threading.active_count()
    propagate_states(sim, [0, 1])
    assert threading.active_count() == before
    monkeypatch.setattr(dynamics, "NORM_TOL", -1.0)
    with pytest.raises(RuntimeError, match="norm drifted"):
        propagate_states(sim, [0, 1])
    assert threading.active_count() == before


def test_stepping_error_reaches_the_caller(monkeypatch):
    def broken_kernel(*args):
        raise FloatingPointError("kernel broke at step 0")

    monkeypatch.setattr(dynamics, "evolve_piecewise_constant", broken_kernel)
    before = threading.active_count()
    raised = []

    def run():
        with pytest.raises(FloatingPointError, match="kernel broke at step 0"):
            propagate(SweepConfig(duration=20.0).simulation(1.1, 0.2))
        raised.append(True)

    # a caller left waiting for samples that never come fails here, not by hanging
    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive() and raised
    assert threading.active_count() == before


def test_tracker_error_stops_the_stepping(monkeypatch):
    # about 64 step chunks at dt 0.025; the stepping thread must stop at the
    # next chunk once the tracker has raised, not run to the end of the pulse
    original = dynamics.evolve_piecewise_constant
    chunks = []

    def counted_kernel(*args):
        chunks.append(len(args[0]))
        return original(*args)

    def broken_tracker(config, nbar):
        raise ValueError("tracker broke")
        yield

    monkeypatch.setattr(dynamics, "evolve_piecewise_constant", counted_kernel)
    monkeypatch.setattr(dynamics, "_tracked_blocks", broken_tracker)
    before = threading.active_count()
    with pytest.raises(ValueError, match="tracker broke"):
        propagate_states(SweepConfig(dt=0.025).simulation(1.1, 0.2), [0, 1])
    assert threading.active_count() == before
    assert len(chunks) < 16


def test_read_out_waits_for_the_stepping(monkeypatch):
    # a slowed kernel leaves the tracker ahead of the stepping in every block,
    # and three members at once with a short switch interval interleave the
    # threads finely; a read-out that did not wait would read unwritten states
    sim = SweepConfig(duration=30.0).simulation(1.1, 0.2)
    reference = propagate_states(sim, [0, 1])
    original = dynamics.evolve_piecewise_constant

    def slow_kernel(*args):
        time.sleep(0.005)
        return original(*args)

    monkeypatch.setattr(dynamics, "evolve_piecewise_constant", slow_kernel)
    results = [None] * 3

    def run(i):
        results[i] = propagate_states(sim, [0, 1])

    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for result in results:
        for a, b in zip(result, reference, strict=True):
            assert np.array_equal(a.populations, b.populations)
            assert np.array_equal(a.norm, b.norm)


def test_member_heap_peak():
    # two states at dt 0.1, both threads, read 3.35 MB; 6.52 MB while each
    # tracker block's temporaries outlived their last use and a block was 256
    # samples, and 4.36 MB with blocks of 128 alone
    sim = SweepConfig().simulation(1.1, 0.2)
    tracemalloc.start()
    try:
        propagate_states(sim, [0, 1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.0e6
