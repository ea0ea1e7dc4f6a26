"""Classical coherent amplitude of the driven readout resonator.

The amplitude obeys the linear equation

    d(alpha)/dt = -lam*alpha - i*eps(t),    lam = i*delta + kappa/2

with delta = 2*pi*(omega_r_dressed - omega_d) and eps = 2*pi*epsilon in
rad/ns; ``DriveConfig.rate`` is lam. The drive switches on at t = 0, where
alpha = 0. Every envelope is piecewise linear in t (a square pulse is one
piece), so alpha has a closed form on each piece and ``field_amplitude`` is
exact for every envelope. ``evolve_field_closed_form`` is the textbook
square-pulse formula, the reference the pieces are checked against.
``level_crossings`` bisects |alpha|^2 = k on ``field_amplitude`` and reports
each crossing's direction, the one source of the propagation's kink sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .output import write_table
from .transmon import _check_finite, _store_fields

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
        _store_fields(self)
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
            t, v = (np.asarray(x, float) for x in self.envelope)
            if len(t) != len(v) or len(t) < 2:
                raise ValueError("tabulated envelope needs matching (t, eps) arrays")
            _check_finite("tabulated envelope times", t)
            _check_finite("tabulated envelope amplitudes", v)
            if np.any(np.diff(t) <= 0):
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


def evolve_field_closed_form(
    drive: DriveConfig, t_grid: np.ndarray | None = None
) -> FieldTrajectory:
    """The textbook solution for a square pulse, sampled on ``t_grid``."""
    if drive.envelope != "square":
        raise ValueError("closed form applies to square envelopes only")
    if t_grid is None:
        t_grid = drive.default_time_grid()
    t_grid = np.asarray(t_grid, float)
    lam = drive.rate
    eps_ang = 2 * np.pi * drive.epsilon
    # + 0.0: alpha(0) is +0 in both components, never a signed zero
    alpha = (-1j * eps_ang / lam) * (1.0 - np.exp(-lam * t_grid)) + 0.0
    return FieldTrajectory.from_alpha(t_grid, alpha)


def _pieces(drive: DriveConfig):
    """Knots from t = 0, eps (rad/ns) at each and its slope up to the next knot.

    A square pulse is one knot. Past the last knot eps is constant, as ``np.interp`` holds it.
    """
    if drive.envelope == "square":
        return np.zeros(1), [2 * np.pi * drive.epsilon], [0.0]
    t_tab, v_tab = (np.asarray(x, float) for x in drive.envelope)
    knots = np.concatenate(([0.0], t_tab[t_tab > 0]))
    eps = 2 * np.pi * np.interp(knots, t_tab, v_tab)
    slope = np.append(np.diff(eps) / np.diff(knots), 0.0)
    return knots, eps.tolist(), slope.tolist()


def _along_piece(a0, f, r, lam: complex, tau):
    e = np.exp(-lam * tau)
    return a0 * e + f * (1.0 - e) + r * (tau - (1.0 - e) / lam)


def _alpha_slope(drive: DriveConfig, times: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """d(alpha)/dt = -lam*alpha - i*eps(t) at ``times``, where the field is ``alpha``."""
    knots, eps, _ = _pieces(drive)
    return -drive.rate * alpha - 1j * np.interp(times, knots, eps)


def field_amplitude(drive: DriveConfig, times: np.ndarray) -> np.ndarray:
    """Exact alpha at ``times`` >= 0, in any order, for every envelope.

    With tau = t - knots[k] and e = exp(-lam*tau), alpha on piece k is
    a_k*e + F_k*(1 - e) + R_k*(tau - (1 - e)/lam), F_k = -i*eps_k/lam and
    R_k = -i*slope_k/lam; a_k is that formula at the end of piece k - 1, a_0 = 0.
    """
    times = np.asarray(times, float)
    if not np.all(times >= 0):
        raise ValueError("field times must be t >= 0, where time ascends from the switch-on")
    lam = drive.rate
    knots, eps, slope = _pieces(drive)
    # scalar division rounds as the closed form does; numpy's elementwise one does not
    f = np.array([-1j * e / lam for e in eps])
    r = np.array([-1j * s / lam for s in slope])
    a = [0j]
    for k, h in enumerate(np.diff(knots)):
        a.append(_along_piece(a[k], f[k], r[k], lam, h))
    k = np.searchsorted(knots, times, side="right") - 1
    # + 0.0: alpha(0) is +0 in both components, never a signed zero
    return _along_piece(np.array(a)[k], f[k], r[k], lam, times - knots[k]) + 0.0


def evolve_field_numeric(drive: DriveConfig, t_grid: np.ndarray | None = None) -> FieldTrajectory:
    """``field_amplitude`` of any envelope sampled on ``t_grid`` (t >= 0)."""
    t_grid = drive.default_time_grid() if t_grid is None else t_grid
    return FieldTrajectory.from_alpha(t_grid, field_amplitude(drive, t_grid))


def level_crossings(drive: DriveConfig, times, levels) -> tuple[np.ndarray, np.ndarray]:
    """Every time where |alpha|^2 crosses one of ``levels``, and whether it rises there.

    Returns (times, rising), ascending in time. Each crossing is bracketed by a
    sign change of |alpha|^2 - k between neighbouring points of the ascending
    grid ``times``, then bisected on ``field_amplitude`` itself, 60 halvings of
    the grid interval; the bracket's far side gives ``rising``. A level touched
    twice within one grid interval shows no sign change and is not reported.
    """
    times = np.asarray(times, float)
    levels = np.asarray(levels, float)
    above = np.abs(field_amplitude(drive, times))[:, None] ** 2 > levels
    i, j = np.nonzero(above[1:] != above[:-1])
    h = times[i + 1] - times[i]
    level, rising = levels[j], above[i + 1, j]
    lo, hi = np.zeros(len(i)), np.ones(len(i))
    for _ in range(60):
        s = (lo + hi) / 2
        past = (np.abs(field_amplitude(drive, times[i] + h * s)) ** 2 > level) == rising
        hi = np.where(past, s, hi)
        lo = np.where(past, lo, s)
    crossings = times[i] + h * (lo + hi) / 2
    order = np.argsort(crossings)
    return crossings[order], rising[order]
