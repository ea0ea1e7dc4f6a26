"""Classical coherent amplitude of the driven readout resonator.

The amplitude obeys the linear equation

    d(alpha)/dt = -lam*alpha - i*eps,    lam = i*delta + kappa/2

with delta = 2*pi*(omega_r_dressed - omega_d) and eps = 2*pi*epsilon in
rad/ns. ``DriveConfig.rate`` is lam and ``_rhs`` the right-hand side. Both
solvers start from the vacuum, alpha = 0 at t = 0. For a square pulse the
closed form is exact and is the primary path; fixed-step RK4 exists for
tabulated envelopes.
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
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if not self.duration > 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not self.epsilon >= 0:
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
    def rate(self) -> complex:
        """lam = i*2*pi*detuning + kappa/2 in 1/ns, the complex decay rate of alpha."""
        return 1j * 2 * np.pi * self.detuning + self.kappa / 2.0

    @property
    def steady_state_nbar(self) -> float:
        """|alpha|^2 reached by an endless square drive."""
        return float(abs(-1j * 2 * np.pi * self.epsilon / self.rate) ** 2)

    def default_time_grid(self) -> np.ndarray:
        """0 to ``duration`` in equal steps of at most 0.01 ns."""
        n = int(np.ceil(self.duration / DEFAULT_TIME_STEP - 1e-9))
        return np.linspace(0.0, self.duration, n + 1)


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


def _closed_form_alpha(drive: DriveConfig, times: np.ndarray) -> np.ndarray:
    lam = drive.rate
    eps_ang = 2 * np.pi * drive.epsilon
    # + 0.0: alpha(0) is +0 in both components, never a signed zero
    return (-1j * eps_ang / lam) * (1.0 - np.exp(-lam * times)) + 0.0


def evolve_field_closed_form(
    drive: DriveConfig, t_grid: np.ndarray | None = None
) -> FieldTrajectory:
    """Exact solution for a square pulse sampled on ``t_grid``."""
    if drive.envelope != "square":
        raise ValueError("closed form applies to square envelopes only")
    if t_grid is None:
        t_grid = drive.default_time_grid()
    t_grid = np.asarray(t_grid, float)
    return FieldTrajectory.from_alpha(t_grid, _closed_form_alpha(drive, t_grid))


def _rhs(drive: DriveConfig):
    """The field equation's right-hand side as a function of (t, alpha)."""
    lam = drive.rate
    if drive.envelope == "square":
        eps = 2 * np.pi * drive.epsilon
        return lambda t, a: -lam * a - 1j * eps
    t_tab, v_tab = drive.envelope
    t_tab = np.asarray(t_tab, float)
    v_tab = 2 * np.pi * np.asarray(v_tab, float)
    return lambda t, a: -lam * a - 1j * np.interp(t, t_tab, v_tab)


def evolve_field_numeric(
    drive: DriveConfig, t_grid: np.ndarray | None = None
) -> FieldTrajectory:
    """Fixed-step RK4 integration, for arbitrary envelopes.

    Integrates from alpha = 0 at t = 0 through the ascending ``t_grid``
    (t >= 0) in substeps of at most min(0.01/kappa, 0.05 ns). Matches the
    closed form to |d_alpha| < 1e-8 on square pulses.
    """
    if t_grid is None:
        t_grid = drive.default_time_grid()
    t_grid = np.asarray(t_grid, float)
    if t_grid[0] < 0 or np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must ascend from t >= 0")
    step = min(0.01 / drive.kappa, 0.05)
    rhs = _rhs(drive)

    alpha = np.empty(len(t_grid), dtype=complex)
    a, t0 = 0j, 0.0
    for i, t1 in enumerate(t_grid):
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
        alpha[i] = a
        t0 = t1
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
    slope = _rhs(drive)(times, alpha)
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
    """alpha at ``times`` >= 0 (ascending unless the envelope is square)."""
    times = np.asarray(times, float)
    if drive.envelope == "square":
        return _closed_form_alpha(drive, times)
    return evolve_field_numeric(drive, times).alpha
