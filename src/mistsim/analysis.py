"""Dispersive-model utilities and transition-boundary extraction.

All formulas are homogeneous in frequency, so linear GHz units are used
throughout. The boundary model is a phenomenological exponential
n_fit = A*exp(B*delta) fitted in log space, with the operating limit defined
as n_fit - sqrt(n_fit).

Onsets are read from plain arrays: a sweep's (detunings, axis) heatmap of
running-min survival rows, all on one photon-number axis. The module needs
no propagation type; it depends only on the input rule in ``transmon``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .transmon import _check_finite, _store_fields

__all__ = [
    "DispersiveParams",
    "OnsetPoint",
    "TransitionBoundary",
    "chi",
    "dressed_frequencies",
    "stark_to_photons",
    "n_crit",
    "extract_onsets",
    "fit_boundary",
    "boundary_to_dict",
]

OMEGA_Q_TOL = 1e-9  # GHz; omega_r + delta computed in floats is within an ulp of omega_q


@dataclass(frozen=True)
class DispersiveParams:
    """Inputs of the dispersive model (all GHz).

    ``omega_q`` must be ``omega_r + delta`` to within ``OMEGA_Q_TOL``: the
    formulas use all three, and mixed values would give a mixed ``chi``.
    """

    g: float
    delta: float
    eta: float
    omega_r: float
    omega_q: float

    def __post_init__(self):
        _store_fields(self)
        if self.delta <= 0:
            raise ValueError("this model assumes omega_q > omega_r (delta > 0)")
        if abs(self.omega_q - self.omega_r - self.delta) > OMEGA_Q_TOL:
            raise ValueError(
                f"omega_q = {self.omega_q} GHz is not omega_r + delta = "
                f"{self.omega_r} + {self.delta} GHz"
            )


def chi(p: DispersiveParams) -> float:
    """Dispersive shift (g^2/delta) * (eta/(delta-eta)) * (omega_r/omega_q)."""
    if p.delta == p.eta:
        raise ValueError("delta equals eta; dispersive shift diverges")
    if p.omega_q <= 0:
        raise ValueError("omega_q must be positive")
    return (p.g**2 / p.delta) * (p.eta / (p.delta - p.eta)) * (p.omega_r / p.omega_q)


def dressed_frequencies(p: DispersiveParams) -> tuple[float, float]:
    """Dressed resonator frequencies for the qubit in its two lowest states.

    Ground: omega_r - g^2/delta. Excited: ground value minus twice the
    dispersive shift.
    """
    omega_ket0 = p.omega_r - p.g**2 / p.delta
    omega_ket1 = omega_ket0 - 2.0 * chi(p)
    return omega_ket0, omega_ket1


def stark_to_photons(freq_shift: float, chi_value: float) -> float:
    """Photon number from the linear qubit-frequency pull, shift/(2*chi)."""
    _check_finite("freq_shift", freq_shift)
    if chi_value <= 0:
        raise ValueError("chi must be positive")
    if freq_shift < 0:
        raise ValueError(
            "negative shift: qubit above its zero-photon frequency contradicts "
            "the linear model"
        )
    with np.errstate(over="ignore"):
        photons = freq_shift / (2.0 * chi_value)
    if not np.isfinite(photons):
        raise ValueError(f"freq_shift = {freq_shift} is too large: the photon number overflows")
    return photons


def n_crit(delta: float, g: float) -> float:
    """Conventional dispersive photon scale (delta/g)^2 / 4."""
    if g <= 0:
        raise ValueError("g must be positive")
    return (delta / g) ** 2 / 4.0


@dataclass(frozen=True)
class OnsetPoint:
    """Smallest photon number at which averaged survival crossed the threshold."""

    delta: float
    nbar_onset: float
    uncertainty: float
    initial_state: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def extract_onsets(
    delta_grid, nbar_axis, survival, threshold: float, initial_state: int = 0
) -> list[OnsetPoint]:
    """Onset points from running-min survival rows on one axis, monotonically filtered.

    ``survival`` holds one row per detuning of ``delta_grid`` (ascending), all
    sampled on the one photon-number axis ``nbar_axis``. A row's onset is the
    first axis photon number where its survival drops below the threshold,
    read for all rows at once from the ``below`` mask; a point is then kept
    only if its onset is positive and strictly larger than every kept
    predecessor's. The quoted uncertainty is the coherent-state fluctuation
    sqrt(nbar).
    """
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if any(b <= a for a, b in zip(delta_grid, delta_grid[1:])):
        raise ValueError("delta_grid must be strictly ascending")
    below = np.asarray(survival) < threshold
    shape = (len(delta_grid), len(nbar_axis))
    if below.shape != shape:
        raise ValueError(f"survival has shape {below.shape}, not (detunings, axis) = {shape}")
    if not below.size:  # argmax has no first index on an empty axis
        return []
    # first axis photon number below the threshold per row, 0 where none is
    onsets = np.where(below.any(axis=1), np.asarray(nbar_axis)[below.argmax(axis=1)], 0.0)
    kept: list[OnsetPoint] = []
    best = 0.0
    for delta, nbar_star in zip(delta_grid, onsets):
        if nbar_star > best:
            kept.append(
                OnsetPoint(
                    delta=float(delta),
                    nbar_onset=float(nbar_star),
                    uncertainty=float(np.sqrt(nbar_star)),
                    initial_state=initial_state,
                )
            )
            best = nbar_star
    return kept


@dataclass
class TransitionBoundary:
    """Fitted exponential onset model and the derived operating boundary."""

    A: float
    B: float
    points: list[OnsetPoint]

    def n_fit(self, delta):
        return self.A * np.exp(self.B * np.asarray(delta, float))

    def boundary(self, delta):
        """Operating limit n_fit - sqrt(n_fit)."""
        nf = self.n_fit(delta)
        return nf - np.sqrt(nf)


def fit_boundary(points: list[OnsetPoint]) -> TransitionBoundary:
    """Unweighted least-squares line fit of ln(nbar_onset) versus delta."""
    if len({p.delta for p in points}) < 2:
        raise ValueError("need onset points at >= 2 distinct detunings")
    nbar = np.array([p.nbar_onset for p in points])
    if np.any(nbar <= 0):
        raise ValueError("onset photon numbers must be positive")
    delta = np.array([p.delta for p in points])
    slope, intercept = np.polyfit(delta, np.log(nbar), 1)
    return TransitionBoundary(A=float(np.exp(intercept)), B=float(slope), points=list(points))


def boundary_to_dict(
    boundary: TransitionBoundary, threshold: float, delta_samples: np.ndarray
) -> dict:
    """JSON-ready record of the fit, its points and sampled boundary curve."""
    return {
        "A": boundary.A,
        "B": boundary.B,
        "threshold": threshold,
        "points": [p.to_dict() for p in boundary.points],
        "boundary_samples": [
            {"delta": float(d), "nbar": float(b)}
            for d, b in zip(delta_samples, boundary.boundary(delta_samples))
        ],
    }
