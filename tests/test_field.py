import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mistsim.field import (
    DriveConfig,
    evolve_field_closed_form,
    evolve_field_numeric,
    field_amplitude,
)

from conftest import EPSILON, KAPPA, OMEGA_R


def resonant_drive(epsilon=EPSILON, duration=100.0):
    return DriveConfig(
        epsilon=epsilon,
        omega_d=OMEGA_R,
        omega_r_dressed=OMEGA_R,
        kappa=KAPPA,
        duration=duration,
    )


def detuned_drive(detuning, epsilon=EPSILON, duration=100.0):
    return DriveConfig(
        epsilon=epsilon,
        omega_d=OMEGA_R,
        omega_r_dressed=OMEGA_R + detuning,
        kappa=KAPPA,
        duration=duration,
    )


class TestClosedForm:
    def test_starts_in_vacuum(self):
        traj = evolve_field_closed_form(resonant_drive(), np.array([0.0, 1.0]))
        assert traj.alpha[0] == 0.0
        assert traj.nbar[0] == 0.0

    def test_resonant_steady_state_photon_number(self):
        drive = resonant_drive(duration=2000.0)
        expected = (2 * 2 * np.pi * EPSILON / KAPPA) ** 2
        assert expected == pytest.approx(154.8, abs=0.1)
        assert drive.steady_state_nbar == pytest.approx(expected, rel=1e-12)
        traj = evolve_field_closed_form(drive, np.array([0.0, 2000.0]))
        assert traj.nbar[-1] == pytest.approx(expected, rel=1e-6)

    def test_ring_up_fraction_at_one_kappa_time(self):
        drive = resonant_drive()
        traj = evolve_field_closed_form(drive, np.array([0.0, 22.0]))
        ratio = traj.nbar[-1] / drive.steady_state_nbar
        assert ratio == pytest.approx((1 - np.exp(-0.5)) ** 2, rel=1e-12)

    def test_nbar_is_squared_amplitude(self):
        traj = evolve_field_closed_form(resonant_drive())
        assert np.array_equal(traj.nbar, np.abs(traj.alpha) ** 2)

    def test_resonant_ring_up_monotone_and_bounded(self):
        drive = resonant_drive()
        traj = evolve_field_closed_form(drive)
        assert np.all(np.diff(traj.nbar) > 0)
        assert np.all(traj.nbar <= drive.steady_state_nbar)

    def test_rejects_tabulated_envelope(self):
        table = (np.array([0.0, 100.0]), np.array([EPSILON, EPSILON]))
        drive = DriveConfig(
            epsilon=EPSILON,
            omega_d=OMEGA_R,
            omega_r_dressed=OMEGA_R,
            kappa=KAPPA,
            duration=100.0,
            envelope=table,
        )
        with pytest.raises(ValueError, match="square"):
            evolve_field_closed_form(drive)


class TestNumeric:
    def test_matches_closed_form_on_square_pulse(self):
        drive = resonant_drive()
        grid = np.linspace(0.0, 100.0, 2001)
        exact = evolve_field_closed_form(drive, grid)
        numeric = evolve_field_numeric(drive, grid)
        assert np.max(np.abs(numeric.alpha - exact.alpha)) < 1e-8

    def test_matches_closed_form_detuned(self):
        drive = detuned_drive(0.013)
        grid = np.linspace(0.0, 100.0, 2001)
        exact = evolve_field_closed_form(drive, grid)
        numeric = evolve_field_numeric(drive, grid)
        assert np.max(np.abs(numeric.alpha - exact.alpha)) < 1e-8

    def test_starts_from_vacuum_at_zero_on_any_grid(self):
        # a grid that starts late still samples the drive switched on at t = 0
        drive = resonant_drive()
        grid = np.linspace(10.0, 20.0, 11)
        exact = evolve_field_closed_form(drive, grid)
        numeric = evolve_field_numeric(drive, grid)
        assert abs(exact.alpha[0]) > 1.0
        assert np.max(np.abs(numeric.alpha - exact.alpha)) < 1e-8

    @pytest.mark.parametrize(
        "grid", [[0.0, 2.0, 1.0], [-1.0, 0.0, 1.0]], ids=["descending", "before-zero"]
    )
    def test_grid_must_ascend_from_zero(self, grid):
        with pytest.raises(ValueError, match="ascend"):
            evolve_field_numeric(resonant_drive(), np.array(grid))

    def test_ring_down_after_switch_off(self):
        # the drive is off from t_off = 50 ns: alpha decays freely at the rate
        t_off = 50.0
        table = (np.array([0.0, 49.95, t_off, 100.0]), np.array([EPSILON, EPSILON, 0.0, 0.0]))
        drive = DriveConfig(
            epsilon=EPSILON,
            omega_d=OMEGA_R,
            omega_r_dressed=OMEGA_R + 0.003,
            kappa=KAPPA,
            duration=100.0,
            envelope=table,
        )
        grid = np.linspace(0.0, 100.0, 201)
        alpha = evolve_field_numeric(drive, grid).alpha
        after = grid >= t_off
        alpha_off = alpha[np.argmax(after)]
        lam = 1j * 2 * np.pi * 0.003 + KAPPA / 2
        free = alpha_off * np.exp(-lam * (grid[after] - t_off))
        assert abs(alpha_off) > 1.0
        assert np.max(np.abs(alpha[after] - free)) < 1e-8

    def test_detuned_steady_state(self):
        drive = detuned_drive(0.002, duration=2000.0)
        eps_ang = 2 * np.pi * EPSILON
        delta_ang = 2 * np.pi * 0.002
        expected = eps_ang**2 / (delta_ang**2 + KAPPA**2 / 4)
        grid = np.linspace(0.0, 2000.0, 2001)
        numeric = evolve_field_numeric(drive, grid)
        assert numeric.nbar[-1] == pytest.approx(expected, rel=1e-3)

    def test_grid_refinement_stable(self):
        # grid spacing below the 0.05 ns substep bound sets the RK4 step
        drive = resonant_drive()
        coarse = evolve_field_numeric(drive, np.linspace(0.0, 100.0, 2001))
        fine = evolve_field_numeric(drive, np.linspace(0.0, 100.0, 4001))
        assert np.max(np.abs(coarse.alpha - fine.alpha[::2])) < 1e-9

    def test_tabulated_constant_envelope_matches_square(self):
        table = (np.array([0.0, 100.0]), np.array([EPSILON, EPSILON]))
        tabulated = DriveConfig(
            epsilon=EPSILON,
            omega_d=OMEGA_R,
            omega_r_dressed=OMEGA_R,
            kappa=KAPPA,
            duration=100.0,
            envelope=table,
        )
        grid = np.linspace(0.0, 100.0, 501)
        exact = evolve_field_closed_form(resonant_drive(), grid)
        numeric = evolve_field_numeric(tabulated, grid)
        assert np.max(np.abs(numeric.alpha - exact.alpha)) < 1e-8

    @settings(deadline=None, max_examples=20)
    @given(scale=st.floats(min_value=0.05, max_value=20.0))
    def test_linearity_in_drive_amplitude(self, scale):
        grid = np.linspace(0.0, 40.0, 81)
        base = evolve_field_numeric(resonant_drive(), grid)
        scaled = evolve_field_numeric(resonant_drive(epsilon=scale * EPSILON), grid)
        assert np.allclose(scaled.alpha, scale * base.alpha, rtol=1e-9, atol=1e-12)

    def test_ramp_envelope_step_refinement(self):
        # no closed form for a ramp; halving the grid, and with it the
        # substep, must not move alpha
        table = (np.array([0.0, 50.0, 100.0]), np.array([0.0, EPSILON, EPSILON]))
        drive = DriveConfig(
            epsilon=EPSILON,
            omega_d=OMEGA_R,
            omega_r_dressed=OMEGA_R,
            kappa=KAPPA,
            duration=100.0,
            envelope=table,
        )
        coarse = evolve_field_numeric(drive, np.linspace(0.0, 100.0, 2001))
        fine = evolve_field_numeric(drive, np.linspace(0.0, 100.0, 4001))
        assert np.max(np.abs(coarse.alpha - fine.alpha[::2])) < 1e-9
        assert coarse.nbar[-1] > 1.0  # the ramp really drove the field


class TestHelpers:
    def test_field_amplitude_square_path(self):
        drive = resonant_drive()
        times = np.array([0.5, 13.0, 77.5])
        direct = evolve_field_closed_form(drive, times).alpha
        assert np.array_equal(field_amplitude(drive, times), direct)

    def test_field_amplitude_tabulated_with_offset_start(self):
        table = (np.array([0.0, 100.0]), np.array([EPSILON, EPSILON]))
        tabulated = DriveConfig(
            epsilon=EPSILON,
            omega_d=OMEGA_R,
            omega_r_dressed=OMEGA_R,
            kappa=KAPPA,
            duration=100.0,
            envelope=table,
        )
        times = np.array([5.0, 10.0])
        exact = evolve_field_closed_form(resonant_drive(), times).alpha
        assert np.allclose(field_amplitude(tabulated, times), exact, atol=1e-8)

    def test_csv_export(self, tmp_path):
        traj = evolve_field_closed_form(resonant_drive(), np.array([0.0, 1.0, 2.0]))
        path = tmp_path / "field.csv"
        traj.to_csv(path, header_lines=["units: t ns"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# units: t ns"
        assert lines[1] == "t_ns,re_alpha,im_alpha,nbar"
        assert len(lines) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            DriveConfig(epsilon=0.045, omega_d=4.75, omega_r_dressed=4.75, kappa=0.0, duration=10.0)
        with pytest.raises(ValueError):
            DriveConfig(epsilon=-0.1, omega_d=4.75, omega_r_dressed=4.75, kappa=0.05, duration=10.0)
        with pytest.raises(ValueError):
            DriveConfig(epsilon=0.1, omega_d=4.75, omega_r_dressed=4.75, kappa=0.05, duration=-1.0)
        with pytest.raises(ValueError):
            DriveConfig(
                epsilon=0.1,
                omega_d=4.75,
                omega_r_dressed=4.75,
                kappa=0.05,
                duration=10.0,
                envelope="gaussian",
            )
        drive = dict(epsilon=0.1, omega_d=4.75, omega_r_dressed=4.75, kappa=0.05, duration=10.0)
        for name in ("kappa", "duration", "epsilon"):
            with pytest.raises(ValueError, match=name):
                DriveConfig(**{**drive, name: np.nan})

    @pytest.mark.parametrize("duration", [30.0025, 30.013, 100.0])
    def test_default_grid_ends_at_duration(self, duration):
        drive = resonant_drive(duration=duration)
        grid = drive.default_time_grid()
        assert grid[0] == 0.0
        assert grid[-1] == duration
        assert np.max(np.diff(grid)) <= 0.01 + 1e-12

    def test_tabulated_times_must_ascend(self):
        # np.interp would silently read a wrong eps(t) from unsorted knots
        shape = np.array([0.0, 1.0, 1.0]) * EPSILON
        drive = dict(
            epsilon=EPSILON, omega_d=OMEGA_R, omega_r_dressed=OMEGA_R, kappa=KAPPA, duration=100.0
        )
        DriveConfig(**drive, envelope=(np.array([0.0, 20.0, 100.0]), shape))
        for times in ([0.0, 100.0, 20.0], [0.0, 20.0, 20.0]):
            with pytest.raises(ValueError, match="ascending"):
                DriveConfig(**drive, envelope=(np.array(times), shape))
