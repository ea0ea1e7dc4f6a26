"""Semi-classical Hamiltonian of a transmon driven by a classical resonator field.

The model lives in a single excitation-preserving strip: level k sits at
E_k - k*omega_r in the rotating frame, and adjacent levels are coupled by the
field with bond strength Re(sqrt(nbar - k)) * g_{k,k+1}. The sqrt cutoff turns
the interaction off when nbar < k, which makes the strip spectrum coincide
exactly with the full qubit-resonator ladder at fixed total excitation number.
That spectrum does not depend on the drive frequency, so the strip holds none.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .output import write_table
from .transmon import TransmonEigen, _check_finite

__all__ = [
    "StripConfig",
    "SpectrumResult",
    "CrossingRecord",
    "tridiagonal_stack",
    "effective_hamiltonian",
    "jtc_strip_hamiltonian",
    "fan_diagram",
    "find_avoided_crossings",
    "g_eff_perturbative",
    "bond_amplitudes",
    "bond_phase",
    "match_branches",
    "tracked_eigenbasis",
]

#: Overlap difference within which ``match_branches`` calls an assignment a tie.
TIE_TOL = 1e-6


def _check_coupling(g: float | None, k_eff: float | None) -> None:
    """Exactly one of ``g`` and ``k_eff`` sets the coupling; it must be finite and positive."""
    if (g is None) == (k_eff is None):
        raise ValueError("specify exactly one of g, k_eff")
    name, value = ("g", g) if g is not None else ("k_eff", k_eff)
    _check_finite(name, value)
    if not value > 0:
        raise ValueError(f"g or k_eff must be positive, got {value}")


@dataclass(frozen=True)
class StripConfig:
    """Strip model inputs: transmon eigen data and omega_r, no drive frequency.

    Exactly one of ``g`` (GHz) or ``k_eff`` (dimensionless efficiency) sets the
    coupling; with k_eff the strength is g = k_eff * sqrt(omega_q * omega_r)/2.
    """

    eigen: TransmonEigen
    omega_r: float
    g: float | None = None
    k_eff: float | None = None

    def __post_init__(self):
        _check_finite("omega_r", self.omega_r)
        if not self.omega_r > 0:
            raise ValueError(f"omega_r must be positive, got {self.omega_r}")
        _check_coupling(self.g, self.k_eff)
        if not self.coupling > 0:
            raise ValueError(f"derived coupling must be positive, got {self.coupling}")

    @property
    def level_count(self) -> int:
        """Number of strip levels: every level the transmon eigen data keeps."""
        return self.eigen.level_count

    @property
    def coupling(self) -> float:
        """Qubit-resonator coupling strength g in GHz."""
        if self.g is not None:
            return self.g
        return self.k_eff * np.sqrt(self.eigen.qubit_frequency * self.omega_r) / 2.0

    @property
    def rotating_diagonal(self) -> np.ndarray:
        """Bare rotating-frame energies E_k - k*omega_r (GHz)."""
        return self.eigen.energies - np.arange(self.level_count) * self.omega_r


@dataclass
class CrossingRecord:
    """An avoided crossing between two tracked branches."""

    branch_a: int
    branch_b: int
    nbar_cross: float
    gap: float
    g_eff: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SpectrumResult:
    """Eigenenergy branches versus photon number (a fan diagram).

    ``branches[j]`` follows the eigenstate anchored to bare level j at nbar=0,
    tracked along the grid by maximal eigenvector overlap. Grid points where
    the best overlap fell below 0.5, or where the greedy assignment was
    ambiguous within 1e-6, are listed in ``flagged_points``.
    """

    nbar_grid: np.ndarray
    branches: np.ndarray
    flagged_points: list[int] = field(default_factory=list)

    def to_csv(self, path, header_lines: list[str] | None = None) -> None:
        branches = [f"branch_{j}" for j in range(self.branches.shape[0])]
        rows = np.column_stack((self.nbar_grid, self.branches.T))
        write_table(path, header_lines, ["nbar", *branches], rows)


def bond_amplitudes(config: StripConfig, nbar) -> np.ndarray:
    """Real non-negative bond strengths Re(sqrt(nbar - k)) * g_{k,k+1} in GHz.

    ``nbar`` may be a scalar or an array; the bond axis is last.
    """
    k = np.arange(config.level_count - 1)
    nbar = np.asarray(nbar, float)
    root = np.sqrt(np.maximum(nbar[..., None] - k, 0.0))
    return root * (config.eigen.couplings * config.coupling)


def bond_phase(config: StripConfig, omega_d: float, alpha, mag, t) -> np.ndarray:
    """Bond phase u(t) = (alpha/|alpha|) * exp(i*2*pi*(omega_r - omega_d)*t).

    ``alpha`` is the field of a drive at ``omega_d`` (GHz). ``mag`` is |alpha|
    as the caller computed it (|alpha| or sqrt(nbar)), so the phase rounds
    exactly as the stack it belongs to; u = 1 where it is 0.
    """
    live = np.greater(mag, 0)
    unit = np.where(live, alpha / np.where(live, mag, 1.0), 1.0)
    theta = 2 * np.pi * (config.omega_r - omega_d)
    return unit * np.exp(1j * theta * t)


def tridiagonal_stack(diag: np.ndarray, bonds: np.ndarray) -> np.ndarray:
    """(S, K, K) Hermitian stack from one diagonal and per-matrix bonds (S, K-1).

    ``bonds`` fill the upper off-diagonal and their conjugates the lower one,
    so the stack is real symmetric when the bonds are real.
    """
    n_stack, n_bonds = bonds.shape
    k_count = n_bonds + 1
    h = np.zeros((n_stack, k_count, k_count), dtype=np.result_type(diag, bonds))
    rng = np.arange(k_count)
    h[:, rng, rng] = diag
    kb = np.arange(n_bonds)
    h[:, kb, kb + 1] = bonds
    h[:, kb + 1, kb] = bonds.conj()
    return h


def effective_hamiltonian(config: StripConfig, alpha: complex) -> np.ndarray:
    """K x K Hermitian matrix (GHz) of the strip under the field ``alpha``.

    ``alpha`` is in the resonator frame, alpha(t) * exp(i*2*pi*(omega_r -
    omega_d)*t) for a drive at omega_d; the off-diagonal carries its phase,
    and at alpha = 0 the interaction vanishes identically.
    """
    mag = abs(alpha)
    bonds = bond_phase(config, config.omega_r, alpha, mag, 0.0) * bond_amplitudes(config, mag**2)
    return tridiagonal_stack(config.rotating_diagonal, bonds[None])[0]


def jtc_strip_hamiltonian(config: StripConfig, n_total: int) -> np.ndarray:
    """Excitation-number strip of the full qubit-resonator ladder.

    Basis |k, N-k> for k = 0..min(K-1, N) with the constant N*omega_r offset
    removed; eigenvalues equal those of ``effective_hamiltonian`` at
    |alpha|^2 = N, up to the decoupled bare levels k > N.
    """
    if n_total < 0:
        raise ValueError(f"n_total must be >= 0, got {n_total}")
    dim = min(config.level_count, n_total + 1)
    h = np.diag(config.rotating_diagonal[:dim])
    if dim > 1:
        kb = np.arange(dim - 1)
        bonds = (
            config.eigen.couplings[: dim - 1]
            * config.coupling
            * np.sqrt(n_total - kb)
        )
        h[kb, kb + 1] = bonds
        h[kb + 1, kb] = bonds
    return h


def match_branches(prev_vecs: np.ndarray, cur_vecs: np.ndarray) -> tuple[np.ndarray, bool, bool]:
    """Greedy maximal-overlap assignment of current eigenvectors to branches.

    ``prev_vecs`` columns are branch-ordered; ``cur_vecs`` columns are in
    eigenvalue order. Returns (columns, low_overlap, ambiguous) where
    ``columns[branch]`` indexes into cur_vecs, ``low_overlap`` marks a best
    overlap below 0.5 and ``ambiguous`` a greedy pick with a rival within
    ``TIE_TOL`` in its row or column.
    """
    overlap = np.abs(prev_vecs.conj().T @ cur_vecs)
    n = overlap.shape[0]

    # fast path: per-row argmax already a contention-free assignment
    best_cols = np.argmax(overlap, axis=1)
    if len(np.unique(best_cols)) == n:
        sorted_rows = np.sort(overlap, axis=1)
        top = sorted_rows[:, -1]
        second = sorted_rows[:, -2]
        if np.all(top - second > TIE_TOL) and np.all(top >= 0.5):
            return best_cols, False, False

    columns = np.full(n, -1, dtype=int)
    work = overlap.copy()
    low_overlap = False
    ambiguous = False
    for _ in range(n):
        m = work.max()
        candidates = np.argwhere(work >= m - TIE_TOL)
        row, col = candidates[0]
        # a near-tie in another row and column cannot change the assignment
        if np.count_nonzero((candidates[:, 0] == row) | (candidates[:, 1] == col)) > 1:
            ambiguous = True
        columns[row] = col
        if m < 0.5:
            low_overlap = True
        work[row, :] = -1.0
        work[:, col] = -1.0
    return columns, low_overlap, ambiguous


def tracked_eigenbasis(
    config: StripConfig, nbar: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Instantaneous eigenbasis at each photon number, in branch order.

    ``nbar`` must start at 0, so branch j is anchored to the eigenvector of
    bare level j; each later point is matched to the previous one by
    ``match_branches``. Returns (energies, vectors, flagged): ``energies[i, j]``
    and ``vectors[i, :, j]`` belong to branch j at point i, and ``flagged``
    lists the points with a low-overlap or ambiguous match.
    """
    evals, evecs = np.linalg.eigh(
        tridiagonal_stack(config.rotating_diagonal, bond_amplitudes(config, nbar))
    )
    energies = np.empty_like(evals)
    vectors = np.empty_like(evecs)
    columns = np.empty(evals.shape[1], dtype=int)
    columns[np.argmax(np.abs(evecs[0]), axis=0)] = np.arange(evals.shape[1])
    flagged = []
    for i in range(len(evecs)):
        if i:
            columns, low, ambiguous = match_branches(vectors[i - 1], evecs[i])
            if low or ambiguous:
                flagged.append(i)
        energies[i] = evals[i, columns]
        vectors[i] = evecs[i][:, columns]
    return energies, vectors, flagged


def fan_diagram(config: StripConfig, nbar_grid: np.ndarray) -> SpectrumResult:
    """Instantaneous spectrum versus photon number with tracked branches.

    The grid must be sorted ascending and start at 0 so branches can be
    anchored to the bare levels. The field phase is irrelevant for the
    spectrum, so alpha is taken real positive.
    """
    nbar_grid = np.asarray(nbar_grid, float)
    if nbar_grid[0] != 0.0:
        raise ValueError("nbar_grid must start at 0 to anchor branch labels")
    if np.any(np.diff(nbar_grid) <= 0):
        raise ValueError("nbar_grid must be sorted strictly ascending")

    energies, _, flagged = tracked_eigenbasis(config, nbar_grid)
    branches = energies.T
    branches[:, 0] = config.rotating_diagonal  # exact bare energies at nbar = 0
    return SpectrumResult(nbar_grid=nbar_grid, branches=branches, flagged_points=flagged)


def _parabolic_refine(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Vertex of the parabola through three points, clipped to [x[0], x[2]]."""
    coeffs = np.polyfit(x, y, 2)
    a, b, c = coeffs
    if a <= 0:
        return float(x[1]), float(y[1])
    xv = float(np.clip(-b / (2 * a), x[0], x[2]))
    return xv, float(np.polyval(coeffs, xv))


def find_avoided_crossings(
    spectrum: SpectrumResult, min_gap: float = 0.0, max_gap: float = np.inf
) -> list[CrossingRecord]:
    """Local minima of pairwise branch gaps, refined by parabolic interpolation.

    Only interior minima are reported; the refined gap must fall inside
    [min_gap, max_gap]. The half-gap is reported as the effective coupling.
    """
    # a NaN bound or an inverted window would silently report no crossing
    if not min_gap <= max_gap:
        raise ValueError(f"need min_gap <= max_gap, got min_gap={min_gap}, max_gap={max_gap}")
    if len(spectrum.nbar_grid) < 3:
        raise ValueError("need at least 3 grid points to locate crossings")
    x = spectrum.nbar_grid
    a, b = np.triu_indices(spectrum.branches.shape[0], 1)
    gap = np.abs(spectrum.branches[a] - spectrum.branches[b])  # (pairs, grid)
    mid = gap[:, 1:-1]
    # prominence floor keeps rounding noise on near-parallel branches from
    # registering as minima
    noise = 1e-12 + 1e-10 * mid
    pairs, points = np.nonzero((mid < gap[:, :-2] - noise) & (mid <= gap[:, 2:]))
    records = []
    for p, i in zip(pairs, points + 1):
        nbar_c, gap_c = _parabolic_refine(x[i - 1 : i + 2], gap[p, i - 1 : i + 2])
        if min_gap <= gap_c <= max_gap:
            records.append(CrossingRecord(int(a[p]), int(b[p]), nbar_c, gap_c, gap_c / 2.0))
    return records


def g_eff_perturbative(config: StripConfig, target_level: int, nbar_cross: float) -> float:
    """Perturbative strength of the multi-step coupling from level 0 to m.

    Product of the m bond couplings divided by the m-1 intermediate bare
    detunings, times nbar^(m/2). Returns the magnitude in GHz.
    """
    m = target_level
    if m < 1:
        raise ValueError(f"target_level must be >= 1, got {m}")
    if m > config.level_count - 1:
        raise ValueError(f"target_level {m} not within the kept levels")
    if not nbar_cross >= 0:
        raise ValueError(f"nbar_cross must be >= 0, got {nbar_cross}")
    diag = config.rotating_diagonal
    detunings = diag[1:m] - diag[0]
    small = np.abs(detunings) < 1e-12
    if np.any(small):
        k = int(np.argmax(small)) + 1
        raise ValueError(
            f"intermediate level {k} is resonant with level 0; "
            "perturbative estimate diverges"
        )
    numerator = np.prod(config.eigen.couplings[:m] * config.coupling)
    return float(abs(numerator / np.prod(detunings)) * nbar_cross ** (m / 2.0))
