import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from mistsim.dynamics import CF4_NODES
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


def tabulated_drive(times, amplitudes, detuning=0.0):
    return DriveConfig(
        epsilon=EPSILON,
        omega_d=OMEGA_R,
        omega_r_dressed=OMEGA_R + detuning,
        kappa=KAPPA,
        duration=100.0,
        envelope=(np.array(times), np.array(amplitudes)),
    )


def dop853_alpha(drive, times):
    """alpha at ascending ``times`` from scipy's DOP853, restarted at every envelope knot."""
    lam = drive.rate
    t_tab, v_tab = (np.asarray(x, float) for x in drive.envelope)

    def rhs(t, y):
        d = -lam * complex(y[0], y[1]) - 1j * 2 * np.pi * np.interp(t, t_tab, v_tab)
        return [d.real, d.imag]

    inner = t_tab[(t_tab > 0) & (t_tab < times[-1])]
    stops = np.concatenate(([0.0], inner, [times[-1]]))
    alpha, y = np.empty(len(times), complex), [0.0, 0.0]
    for t0, t1 in zip(stops[:-1], stops[1:]):
        sol = solve_ivp(
            rhs, (t0, t1), y, method="DOP853", rtol=1e-12, atol=1e-12, dense_output=True
        )
        inside = (times >= t0) & (times <= t1)
        re, im = sol.sol(times[inside])
        alpha[inside] = re + 1j * im
        y = sol.y[:, -1]
    return alpha


def same_bits(a, b):
    """Equal values and equal sign bits, real and imaginary parts apart."""
    return all(
        np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))
        for x, y in ((a.real, b.real), (a.imag, b.imag))
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

    @pytest.mark.parametrize("grid", [[-1.0, 0.0, 1.0]], ids=["before-zero"])
    def test_grid_must_ascend_from_zero(self, grid):
        with pytest.raises(ValueError, match="ascend"):
            evolve_field_numeric(resonant_drive(), np.array(grid))

    def test_unsorted_times_give_the_sorted_result(self):
        times = np.random.default_rng(11).uniform(0.0, 100.0, 500)
        order = np.argsort(times)
        four_knots = tabulated_drive([5.0, 20.0, 60.0, 80.0], [0.0, EPSILON, 0.03, 0.0], 0.005)
        for drive in (four_knots, detuned_drive(0.013)):
            unsorted = field_amplitude(drive, times)
            assert same_bits(unsorted[order], field_amplitude(drive, times[order]))

    @pytest.mark.parametrize(
        "times, amplitudes, detuning",
        [
            ([0.0, 20.0], [0.0, EPSILON], 0.0),
            ([0.0, 49.95, 50.0, 100.0], [EPSILON, EPSILON, 0.0, 0.0], 0.003),
            ([5.0, 20.0, 60.0, 80.0], [0.0, EPSILON, 0.03, 0.0], 0.005),
        ],
        ids=["ramp", "switch-off", "four-knots-from-5ns"],
    )
    def test_matches_dop853_reference(self, times, amplitudes, detuning):
        # an independent integrator; the knots are off the 0.25 ns grid below
        drive = tabulated_drive(times, amplitudes, detuning)
        grid = np.union1d(np.linspace(0.0, 100.0, 401), [0.1, 19.99, 49.97, 50.01, 63.3])
        alpha = field_amplitude(drive, grid)
        assert np.max(np.abs(alpha)) > 1.0  # the envelope really drove the field
        assert np.max(np.abs(alpha - dop853_alpha(drive, grid))) < 1e-9

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


class TestHelpers:
    def test_field_amplitude_square_path(self):
        # a square pulse is one piece: bitwise the textbook closed form
        grid = np.linspace(0.0, 100.0, 2001)
        nodes = (grid[:-1, None] + np.diff(grid)[:, None] * CF4_NODES).ravel()
        odd = np.array([0.0, 1e-9, 0.5, 13.0, 77.5, 99.99999])
        dressed = DriveConfig(
            epsilon=EPSILON, omega_d=4.745, omega_r_dressed=OMEGA_R, kappa=KAPPA, duration=100.0
        )
        for drive in (resonant_drive(), detuned_drive(0.013), dressed):
            for times in (grid, nodes, odd):
                direct = evolve_field_closed_form(drive, times).alpha
                assert same_bits(field_amplitude(drive, times), direct)

    def test_times_before_switch_on_rejected(self):
        # alpha is 0 before the drive starts, not the closed form continued back
        ramp = tabulated_drive([0.0, 20.0], [0.0, EPSILON])
        for drive in (resonant_drive(), ramp):
            for times in ([-5.0], [0.0, np.nan]):
                with pytest.raises(ValueError, match="t >= 0"):
                    field_amplitude(drive, np.array(times))

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
        # epsilon=True built a 1 GHz drive
        for name in ("kappa", "duration", "epsilon", "omega_d", "omega_r_dressed"):
            for value in (np.nan, np.inf, True):
                with pytest.raises(ValueError, match=name):
                    DriveConfig(**{**drive, name: value})

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

    def test_tabulated_envelope_must_be_finite(self):
        # NaN knots pass the ascending check, since every NaN comparison is False
        drive = dict(
            epsilon=EPSILON, omega_d=OMEGA_R, omega_r_dressed=OMEGA_R, kappa=KAPPA, duration=100.0
        )
        times, shape = np.array([0.0, 20.0, 100.0]), np.array([0.0, 1.0, 1.0]) * EPSILON
        for envelope in (
            ([0.0, np.nan, 100.0], shape),
            ([0.0, 20.0, np.inf], shape),
            (times, [0.0, np.nan, EPSILON]),
        ):
            with pytest.raises(ValueError, match="finite"):
                DriveConfig(**drive, envelope=tuple(np.array(x) for x in envelope))

    def test_numpy_float_settings_become_plain_floats(self):
        drive = DriveConfig(
            epsilon=np.float32(EPSILON),
            omega_d=np.float32(OMEGA_R),
            omega_r_dressed=np.float64(OMEGA_R),
            kappa=np.float32(KAPPA),
            duration=np.int64(20),
        )
        for name in ("epsilon", "omega_d", "omega_r_dressed", "kappa", "duration"):
            assert type(getattr(drive, name)) is float, name

    def test_float32_epsilon_field_is_its_float_field(self):
        # a float32 epsilon computed part of the field in float32 (NEP 50):
        # nbar was off by 1.5e-5 photons against the same epsilon in float64
        times = np.linspace(0.0, 100.0, 1001)
        single = resonant_drive(epsilon=np.float32(0.045))
        plain = resonant_drive(epsilon=float(np.float32(0.045)))
        assert np.array_equal(field_amplitude(single, times), field_amplitude(plain, times))
