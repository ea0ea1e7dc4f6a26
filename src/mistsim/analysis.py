"""Dispersive-model utilities and transition-boundary extraction.

All formulas are homogeneous in frequency, so linear GHz units are used
throughout. The boundary model is a phenomenological exponential
n_fit = A*exp(B*delta) fitted in log space, with the operating limit defined
as n_fit - sqrt(n_fit).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import SurvivalCurve
from .transmon import _check_finite

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


@dataclass(frozen=True)
class DispersiveParams:
    """Inputs of the dispersive model (all GHz)."""

    g: float
    delta: float
    eta: float
    omega_r: float
    omega_q: float

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("this model assumes omega_q > omega_r (delta > 0)")


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
    return freq_shift / (2.0 * chi_value)


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
    curves: list[tuple[float, SurvivalCurve]],
    threshold: float = 0.9,
    initial_state: int = 0,
) -> list[OnsetPoint]:
    """Onset points from per-detuning survival curves, monotonically filtered.

    For each curve (ascending detuning) the onset is the first grid photon
    number where the running-min survival drops below the threshold; a point
    is then kept only if its onset is strictly larger than every kept
    predecessor's. The quoted uncertainty is the coherent-state fluctuation
    sqrt(nbar).
    """
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    deltas = [d for d, _ in curves]
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("curves must be indexed by strictly ascending delta")
    kept: list[OnsetPoint] = []
    best = -np.inf
    for delta, curve in curves:
        below = curve.survival_running_min < threshold
        if not np.any(below):
            continue
        nbar_star = float(curve.nbar_axis[int(np.argmax(below))])
        if nbar_star <= 0:
            continue
        if nbar_star > best:
            kept.append(
                OnsetPoint(
                    delta=float(delta),
                    nbar_onset=nbar_star,
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
