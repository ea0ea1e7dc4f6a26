"""Transmon eigenstructure in the charge basis at arbitrary offset charge.

Energies are linear frequencies in GHz (E/h). The angular conversion (x 2*pi,
rad/ns) happens only inside time propagation, never here.

This module also holds the package's one input rule. ``_store_fields`` stores
every field of a config dataclass by the kind its annotation declares: a
``float`` as one finite plain float (``_finite_float``), a ``float | None``
as that or None, an ``int`` as a plain int, and a ``list[float]`` or
``list[int]`` as a list of those. Every config calls it first in
``__post_init__``; its range rules come after.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

__all__ = [
    "TransmonParams",
    "TransmonEigen",
    "build_charge_hamiltonian",
    "diagonalize",
    "ej_for_frequency",
    "charge_dispersion",
    "k_bend",
]

#: Eigenvalue spacing below which levels are reported as degenerate (GHz).
DEGENERACY_TOL = 1e-12


def _check_integer(name: str, value) -> int:
    """``value`` as a plain int, once it is an int or numpy integer; ``bool`` is no count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_finite(name: str, value) -> None:
    """Reject a NaN or infinite setting, or a sequence holding one.

    Range checks written as ``x <= 0`` are False for NaN, so this comes first.
    """
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value}")


def _finite_float(name: str, value) -> float:
    """``value`` as a plain float, not a numpy one (NEP 50), once it is one finite real number.

    None, a string, a list, a complex and a bool are rejected by name; a 0-d
    array counts as the number it holds. A finite plain float needs no numpy.
    """
    if type(value) is float and math.isfinite(value):
        return value
    number = isinstance(value, (int, float, np.number, np.ndarray)) and not isinstance(value, bool)
    if not number or np.ndim(value) or np.asarray(value).dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a number, got {value!r}")
    _check_finite(name, value)
    return float(value)


def _plain_list(name: str, values, store, kind: str) -> list:
    """``values``, a non-string sequence, as a list of its entries stored by ``store``.

    An entry is named in the singular: ``initial_states`` holds ``initial_state`` values.
    """
    sequence = isinstance(values, (Sequence, np.ndarray)) and not isinstance(values, (str, bytes))
    if not sequence or getattr(values, "ndim", 1) != 1:
        raise ValueError(f"{name} must be a list of {kind}, got {values!r}")
    return [store(name.removesuffix("s"), value) for value in values]


# annotations are strings under ``from __future__ import annotations``
_FIELD_STORES = {
    "float": _finite_float,
    "float | None": lambda name, value: None if value is None else _finite_float(name, value),
    "int": _check_integer,
    "list[float]": lambda name, values: _plain_list(name, values, _finite_float, "numbers"),
    "list[int]": lambda name, values: _plain_list(name, values, _check_integer, "integers"),
}


def _store_fields(config) -> None:
    """Store each field of the dataclass ``config`` by the kind its annotation declares.

    A field of another kind (a nested config, an envelope, a path) is left to
    its class, and so is every range rule.
    """
    for f in fields(config):
        store = _FIELD_STORES.get(f.type)
        if store:
            object.__setattr__(config, f.name, store(f.name, getattr(config, f.name)))


def _wrap_offset_charge(n_g: float) -> float:
    """Wrap to the canonical window [-0.5, 0.5]; all spectra are 1-periodic."""
    return float(n_g - round(n_g))


@dataclass(frozen=True)
class TransmonParams:
    """Circuit parameters of a single transmon.

    Parameters
    ----------
    e_c : float
        Charging energy E_C/h in GHz.
    e_j : float
        Junction energy E_J/h in GHz.
    n_g : float
        Dimensionless offset charge. Wrapped into [-0.5, 0.5] on construction.
    charge_cutoff : int
        Charge basis spans -N..+N. Its default is the package's one. A
        fractional cutoff would shift the basis, which acts as an offset charge.
    level_count : int
        Eigenstates kept after diagonalization. Its default is the package's one.
    """

    e_c: float
    e_j: float
    n_g: float = 0.0
    charge_cutoff: int = 30
    level_count: int = 20

    def __post_init__(self):
        _store_fields(self)
        if not self.e_c > 0:
            raise ValueError(f"e_c must be positive, got {self.e_c}")
        if not self.e_j >= 0:
            raise ValueError(f"e_j must be non-negative, got {self.e_j}")
        if self.level_count < 2:
            raise ValueError(f"level_count must be >= 2, got {self.level_count}")
        if self.charge_cutoff < self.level_count:
            raise ValueError(
                f"charge_cutoff ({self.charge_cutoff}) too small for "
                f"level_count ({self.level_count})"
            )
        object.__setattr__(self, "n_g", _wrap_offset_charge(self.n_g))


@dataclass(frozen=True)
class TransmonEigen:
    """Diagonalized level structure.

    ``energies`` are referenced so that ``energies[0] == 0``. ``couplings[k]``
    is the magnitude |<k|n|k+1>| normalized by |<0|n|1>| (``raw_n01``). The
    strip couples nearest neighbours only, so the signs of these elements can
    be gauged away by flipping eigenvector signs in turn; the magnitudes are
    the gauge-fixed elements.
    """

    energies: np.ndarray
    couplings: np.ndarray
    raw_n01: float
    provenance: TransmonParams | None = None

    @property
    def level_count(self) -> int:
        return len(self.energies)

    @property
    def qubit_frequency(self) -> float:
        """0-1 transition frequency in GHz."""
        return float(self.energies[1])

    @property
    def anharmonicity(self) -> float:
        """(E1 - E0) - (E2 - E1) in GHz; positive in the transmon regime."""
        e = self.energies
        if len(e) < 3:
            raise ValueError(f"anharmonicity needs at least 3 levels, got {len(e)}")
        return float((e[1] - e[0]) - (e[2] - e[1]))


def build_charge_hamiltonian(params: TransmonParams) -> np.ndarray:
    """Charge-basis Hamiltonian 4*E_C*(n - n_g)^2 - E_J/2 on the off-diagonals.

    Returns a real symmetric matrix of dimension 2N+1 in GHz.
    """
    n = _charge_numbers(params)
    h = np.diag(4.0 * params.e_c * (n - params.n_g) ** 2)
    off = -params.e_j / 2.0 * np.ones(len(n) - 1)
    h += np.diag(off, 1) + np.diag(off, -1)
    return h


def _charge_numbers(params: TransmonParams) -> np.ndarray:
    return np.arange(-params.charge_cutoff, params.charge_cutoff + 1, dtype=float)


def _eigensystem(params: TransmonParams) -> tuple[np.ndarray, np.ndarray]:
    """Raw (unshifted) eigenvalues and eigenvectors of the charge Hamiltonian."""
    h = build_charge_hamiltonian(params)
    try:
        evals, evecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed to converge for {params}") from exc
    return evals, evecs


def diagonalize(params: TransmonParams) -> TransmonEigen:
    """Lowest level_count eigenpairs with gauge-fixed charge couplings.

    The couplings are the magnitudes |<k|n|k+1>|. Flipping eigenvector signs
    in turn until every adjacent element is >= 0 yields exactly these values,
    because a negated vector negates each term of the dot product exactly; in
    a nearest-neighbour strip that gauge removes every bond sign.
    """
    k_count = params.level_count
    evals, evecs = _eigensystem(params)
    energies = evals[:k_count] - evals[0]

    gaps = np.diff(evals[:k_count])
    if np.any(gaps < DEGENERACY_TOL):
        idx = int(np.argmax(gaps < DEGENERACY_TOL))
        warnings.warn(
            f"levels {idx} and {idx + 1} degenerate within {DEGENERACY_TOL} GHz; "
            "resolved by index order",
            stacklevel=2,
        )

    n_diag = _charge_numbers(params)
    elements = np.abs(
        [evecs[:, k] @ (n_diag * evecs[:, k + 1]) for k in range(k_count - 1)]
    )

    raw_n01 = float(elements[0])
    if raw_n01 == 0.0:
        raise ValueError(
            "vanishing <0|n|1> matrix element; couplings cannot be normalized "
            f"(params: {params})"
        )
    return TransmonEigen(
        energies=energies,
        couplings=elements / raw_n01,
        raw_n01=raw_n01,
        provenance=params,
    )


def ej_for_frequency(
    e_c: float,
    target_omega_q: float,
    charge_cutoff: int = TransmonParams.charge_cutoff,
) -> float:
    """Junction energy E_J (GHz) whose 0-1 transition equals the target at n_g = 0.

    Solved by Brent's method on a bracket seeded with the transmon-limit
    estimate E_J ~ (target + E_C)^2 / (8 E_C); the 0-1 frequency is monotone
    in E_J, so the root is unique. The root matches scipy's ``brentq`` with the
    same bracket and tolerances bit for bit. Converged to better than 1 kHz on
    the frequency.

    The inputs are checked on every call. The root is then memoized per
    (e_c, target, cutoff), taken as plain Python numbers, so a repeat call
    returns the same float without an eigensolve; a failed solve is not kept.
    """
    # checked before the lookup, so a cached root cannot bypass a check
    TransmonParams(e_c=e_c, e_j=0.0, charge_cutoff=charge_cutoff, level_count=2)
    if not 0 < target_omega_q < np.inf:
        raise ValueError(f"target frequency must be positive and finite, got {target_omega_q}")
    return _solve_ej(float(e_c), float(target_omega_q), int(charge_cutoff))


@lru_cache(maxsize=1024)
def _solve_ej(e_c: float, target_omega_q: float, charge_cutoff: int) -> float:
    """The root of ``ej_for_frequency`` for inputs it has already checked."""
    params = TransmonParams(e_c=e_c, e_j=0.0, charge_cutoff=charge_cutoff, level_count=2)

    def freq_error(e_j: float) -> float:
        evals, _ = _eigensystem(replace(params, e_j=e_j))
        return float((evals[1] - evals[0]) - target_omega_q)

    seed = (target_omega_q + e_c) ** 2 / (8.0 * e_c)
    lo, hi = 0.5 * seed, 2.0 * seed
    f_lo = freq_error(lo)
    for _ in range(60):
        if f_lo <= 0:
            break
        lo *= 0.5
        f_lo = freq_error(lo)
    f_hi = freq_error(hi)
    for _ in range(60):
        if f_hi >= 0:
            break
        hi *= 2.0
        f_hi = freq_error(hi)
    if f_lo > 0 or f_hi < 0:
        raise ValueError(
            f"target {target_omega_q} GHz not bracketed; achievable range at "
            f"E_J in [{lo:.4g}, {hi:.4g}] GHz is "
            f"[{f_lo + target_omega_q:.6g}, {f_hi + target_omega_q:.6g}] GHz"
        )
    e_j, f_root = _brentq(freq_error, lo, hi, f_lo, f_hi, xtol=1e-10, rtol=8.9e-16)
    residual = abs(f_root)
    if residual > 1e-6:
        raise RuntimeError(
            f"root finding left a residual of {residual:.3g} GHz (> 1 kHz)"
        )
    return float(e_j)


def _brentq(f, xa, xb, fa, fb, xtol, rtol, maxiter=100):
    """Root of ``f`` between ``xa`` and ``xb`` by Brent's method; returns (x, f(x)).

    A port of scipy's ``brentq.c`` (Brent 1973, *Algorithms for Minimization
    Without Derivatives*, ch. 4), branch for branch and operation for
    operation, so it returns the same double. ``fa`` and ``fb`` are f at the
    ends, already evaluated by the caller. As in ``scipy.optimize.brentq``, a
    NaN value of f and a bracket whose ends share a sign raise ValueError, and
    no convergence within ``maxiter`` steps raises RuntimeError.
    """

    def checked(x, fx):
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    fpre, fcur = checked(xa, fa), checked(xb, fb)
    if fpre == 0:
        return xpre, fpre
    if fcur == 0:
        return xcur, fcur
    # both are non-zero and not NaN, so the sign bit is the sign
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, fcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = checked(xcur, f(xcur))
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def charge_dispersion(params: TransmonParams, level: int) -> float:
    """Peak-to-peak offset-charge dispersion of a level in GHz.

    For level >= 1 this is the spread of the transition energy E_k - E_0 over
    21 offset charges evenly spaced on [-0.5, 0.5]; for level 0 the spread of
    the absolute ground energy (the 0-0 transition is identically zero). The
    n_g of ``params`` is ignored.
    """
    n_g_grid = np.linspace(-0.5, 0.5, 21)
    # a negative index would read the top of the charge basis, not a kept level
    if not 0 <= _check_integer("level", level) < params.level_count:
        raise ValueError(f"level {level} not kept (level_count={params.level_count})")
    values = np.empty(len(n_g_grid))
    for i, n_g in enumerate(n_g_grid):
        evals, _ = _eigensystem(replace(params, n_g=float(n_g)))
        if level == 0:
            values[i] = evals[0]
        else:
            values[i] = evals[level] - evals[0]
    return float(values.max() - values.min())


def k_bend(omega_q: float, omega_r: float, eta: float) -> int:
    """Level index where the excitation-preserving ladder folds back on itself.

    Rounds (omega_q - omega_r) / eta to the nearest integer.
    """
    if omega_q <= omega_r:
        raise ValueError("requires omega_q > omega_r")
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    return int(round((omega_q - omega_r) / eta))
