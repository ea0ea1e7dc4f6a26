"""Classical coherent amplitude of the driven readout resonator.

The amplitude obeys the linear equation

    d(alpha)/dt = -i*delta*alpha - (kappa/2)*alpha - i*eps

with delta = 2*pi*(omega_r_dressed - omega_d) in rad/ns and eps = 2*pi*epsilon
in rad/ns. For a square pulse the closed form is exact and is the primary
path; fixed-step RK4 exists for tabulated envelopes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .output import write_table

__all__ = [
    "DriveConfig",
    "FieldTrajectory",
    "evolve_field_closed_form",
    "evolve_field_numeric",
    "field_amplitude",
    "level_crossings",
]

DEFAULT_TIME_STEP = 0.01  # ns


@dataclass(frozen=True)
class DriveConfig:
    """Resonator drive parameters.

    Frequencies are linear GHz, kappa in 1/ns, duration in ns. The drive is
    resonant when ``omega_d == omega_r_dressed`` (zero detuning), which is the
    default operating point for readout simulations. ``envelope`` is either
    "square" or a ``(times, amplitudes)`` pair for tabulated pulses.
    """

    epsilon: float
    omega_d: float
    omega_r_dressed: float
    kappa: float
    duration: float
    envelope: str | tuple[np.ndarray, np.ndarray] = "square"

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {self.epsilon}")
        if isinstance(self.envelope, str):
            if self.envelope != "square":
                raise ValueError(f"unknown envelope {self.envelope!r}")
        else:
            t, v = self.envelope
            if len(t) != len(v) or len(t) < 2:
                raise ValueError("tabulated envelope needs matching (t, eps) arrays")
            if np.any(np.diff(np.asarray(t, float)) <= 0):
                raise ValueError("tabulated envelope times must be strictly ascending")

    @property
    def detuning(self) -> float:
        """omega_r_dressed - omega_d in GHz."""
        return self.omega_r_dressed - self.omega_d

    @property
    def steady_state_nbar(self) -> float:
        """|alpha|^2 reached by an endless square drive."""
        lam = 1j * 2 * np.pi * self.detuning + self.kappa / 2.0
        return float(abs(-1j * 2 * np.pi * self.epsilon / lam) ** 2)

    def default_time_grid(self) -> np.ndarray:
        n = int(round(self.duration / DEFAULT_TIME_STEP))
        return np.linspace(0.0, n * DEFAULT_TIME_STEP, n + 1)


@dataclass
class FieldTrajectory:
    """Sampled complex amplitude alpha(t) and photon number |alpha|^2."""

    times: np.ndarray
    alpha: np.ndarray
    nbar: np.ndarray

    @classmethod
    def from_alpha(cls, times: np.ndarray, alpha: np.ndarray) -> "FieldTrajectory":
        return cls(times=np.asarray(times, float), alpha=alpha, nbar=np.abs(alpha) ** 2)

    def to_csv(self, path, header_lines: list[str] | None = None) -> None:
        rows = np.column_stack((self.times, self.alpha.real, self.alpha.imag, self.nbar))
        write_table(path, header_lines, ["t_ns", "re_alpha", "im_alpha", "nbar"], rows)


def _closed_form_alpha(drive: DriveConfig, times: np.ndarray, alpha0: complex) -> np.ndarray:
    lam = 1j * 2 * np.pi * drive.detuning + drive.kappa / 2.0
    eps_ang = 2 * np.pi * drive.epsilon
    decay = np.exp(-lam * times)
    return alpha0 * decay + (-1j * eps_ang / lam) * (1.0 - decay)


def evolve_field_closed_form(
    drive: DriveConfig,
    t_grid: np.ndarray | None = None,
    alpha0: complex = 0j,
) -> FieldTrajectory:
    """Exact solution for a square pulse sampled on ``t_grid``."""
    if drive.envelope != "square":
        raise ValueError("closed form applies to square envelopes only")
    if t_grid is None:
        t_grid = drive.default_time_grid()
    t_grid = np.asarray(t_grid, float)
    return FieldTrajectory.from_alpha(t_grid, _closed_form_alpha(drive, t_grid, alpha0))


def _envelope_fn(drive: DriveConfig):
    if drive.envelope == "square":
        eps = 2 * np.pi * drive.epsilon
        return lambda t: eps
    t_tab, v_tab = drive.envelope
    t_tab = np.asarray(t_tab, float)
    v_tab = 2 * np.pi * np.asarray(v_tab, float)
    return lambda t: np.interp(t, t_tab, v_tab)


def evolve_field_numeric(
    drive: DriveConfig,
    t_grid: np.ndarray | None = None,
    alpha0: complex = 0j,
    step: float | None = None,
) -> FieldTrajectory:
    """Fixed-step RK4 integration, for arbitrary envelopes.

    The internal step must satisfy step <= min(0.01/kappa, 0.05 ns); a larger
    requested step is rejected. Matches the closed form to |d_alpha| < 1e-8
    on square pulses.
    """
    if t_grid is None:
        t_grid = drive.default_time_grid()
    t_grid = np.asarray(t_grid, float)
    h_max = min(0.01 / drive.kappa, 0.05)
    if step is None:
        step = h_max
    elif step > h_max:
        raise ValueError(f"step {step} ns violates bound {h_max:.4g} ns")

    lam = 1j * 2 * np.pi * drive.detuning + drive.kappa / 2.0
    eps_of = _envelope_fn(drive)

    def rhs(t, a):
        return -lam * a - 1j * eps_of(t)

    alpha = np.empty(len(t_grid), dtype=complex)
    alpha[0] = alpha0
    a = complex(alpha0)
    for i in range(len(t_grid) - 1):
        t0, t1 = t_grid[i], t_grid[i + 1]
        n_sub = max(1, int(np.ceil((t1 - t0) / step - 1e-12)))
        h = (t1 - t0) / n_sub
        t = t0
        for _ in range(n_sub):
            k1 = rhs(t, a)
            k2 = rhs(t + h / 2, a + h / 2 * k1)
            k3 = rhs(t + h / 2, a + h / 2 * k2)
            k4 = rhs(t + h, a + h * k3)
            a = a + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        alpha[i + 1] = a
    return FieldTrajectory.from_alpha(t_grid, alpha)


def level_crossings(
    drive: DriveConfig, times: np.ndarray, alpha: np.ndarray, levels
) -> np.ndarray:
    """Every time where |alpha|^2 crosses one of ``levels``, ascending.

    ``alpha`` is the field on the ascending grid ``times``. Each crossing is
    bracketed by a sign change of |alpha|^2 - k between neighbouring grid
    points, then bisected on the cubic Hermite interpolant of alpha, whose
    end slopes come exactly from the field equation. A level touched twice
    within one grid interval shows no sign change and is not reported.
    """
    times = np.asarray(times, float)
    levels = np.asarray(levels, float)
    above = np.abs(alpha)[:, None] ** 2 > levels
    i, j = np.nonzero(above[1:] != above[:-1])
    if len(i) == 0:
        return np.empty(0)
    lam = 1j * 2 * np.pi * drive.detuning + drive.kappa / 2.0
    eps_of = _envelope_fn(drive)
    slope = -lam * alpha - 1j * np.broadcast_to(eps_of(times), times.shape)
    h = times[i + 1] - times[i]
    a0, a1 = alpha[i], alpha[i + 1]
    m0, m1 = h * slope[i], h * slope[i + 1]
    level, rising = levels[j], above[i + 1, j]
    lo, hi = np.zeros(len(i)), np.ones(len(i))
    for _ in range(60):
        s = (lo + hi) / 2
        s2, s3 = s * s, s * s * s
        p = (
            (2 * s3 - 3 * s2 + 1) * a0
            + (s3 - 2 * s2 + s) * m0
            + (3 * s2 - 2 * s3) * a1
            + (s3 - s2) * m1
        )
        past = (np.abs(p) ** 2 > level) == rising
        hi = np.where(past, s, hi)
        lo = np.where(past, lo, s)
    return np.sort(times[i] + h * (lo + hi) / 2)


def field_amplitude(drive: DriveConfig, times: np.ndarray) -> np.ndarray:
    """alpha evaluated at arbitrary times >= 0, starting from alpha = 0 at t=0."""
    times = np.asarray(times, float)
    if drive.envelope == "square":
        return _closed_form_alpha(drive, times, 0j)
    if times[0] > 0:
        grid = np.concatenate(([0.0], times))
        return evolve_field_numeric(drive, grid).alpha[1:]
    return evolve_field_numeric(drive, times).alpha
