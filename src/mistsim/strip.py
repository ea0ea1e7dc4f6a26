"""Semi-classical Hamiltonian of a transmon driven by a classical resonator field.

The model lives in a single excitation-preserving strip: level k sits at
E_k - k*omega_r in the rotating frame, and adjacent levels are coupled by the
field with bond strength Re(sqrt(nbar - k)) * g_{k,k+1}. The sqrt cutoff turns
the interaction off when nbar < k, which makes the strip spectrum coincide
exactly with the full qubit-resonator ladder at fixed total excitation number.
That spectrum does not depend on the drive frequency, so the strip holds none.

``bond_amplitudes`` and ``tridiagonal_stack`` build the stack the
propagation diagonalizes, and the oracle check (``sweep.run_oracle_check``)
compares that same stack with ``jtc_strip_hamiltonian``. At nbar = N the
bonds are bitwise the ladder's, so at the defaults the check reads exactly
0.0; a bond builder without the cutoff fails it. The stack is real: the
drive frame (``dynamics``) gauges out the field's phase, and the complex
lab-frame matrix is a test reference. ``find_avoided_crossings`` refines
every gap minimum in one closed-form pass.

The one branch tracker, ``_tracked_blocks``, diagonalizes, overlaps and
matches ``TRACK_CHUNK`` points at a time, each block continuing from the
branch-ordered vectors at the end of the block before, so a long grid costs
time, not memory. Each block's eigenvectors and overlaps (sorted in place)
are dropped at their last use, and its branch-ordered vectors once the
consumer takes the next block, so the tracker holds one block's arrays at a
time. ``dynamics`` reads populations out of each block and drops it;
``tracked_eigenbasis`` and ``fan_diagram`` concatenate the blocks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .output import write_table
from .transmon import TransmonEigen, _check_finite, _check_integer, _store_fields, diagonalize

__all__ = [
    "StripConfig",
    "SpectrumResult",
    "CrossingRecord",
    "tridiagonal_stack",
    "jtc_strip_hamiltonian",
    "fan_diagram",
    "find_avoided_crossings",
    "g_eff_perturbative",
    "bond_amplitudes",
    "match_branches",
    "tracked_eigenbasis",
]

#: Overlap difference within which ``match_branches`` calls an assignment a tie.
TIE_TOL = 1e-6
#: Best overlap below which ``match_branches`` calls a match low-overlap.
LOW_OVERLAP = 0.5
#: Points diagonalized and tracked at a time: a tracker's working memory is
#: two (TRACK_CHUNK, K, K) stacks at most, whatever the length of the grid;
#: 128, as the propagation's ``dynamics.STEP_CHUNK``.
TRACK_CHUNK = 128


def _check_coupling(g: float | None, k_eff: float | None) -> None:
    """Exactly one of ``g``, ``k_eff`` must be set, and it must be positive."""
    if (g is None) == (k_eff is None):
        raise ValueError("specify exactly one of g, k_eff")
    value = g if g is not None else k_eff
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
        _store_fields(self)
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

    def at_charge(self, n_g: float) -> "StripConfig":
        """This strip with its transmon re-diagonalized at offset charge ``n_g``.

        E_J and every other transmon setting come from ``eigen.provenance``,
        so the result is bitwise the strip built at ``n_g`` from the start.
        """
        params = self.eigen.provenance
        if params is None:
            raise ValueError(
                "strip carries no transmon provenance; cannot re-diagonalize at "
                "other offset charges"
            )
        return replace(self, eigen=diagonalize(replace(params, n_g=n_g)))


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
    the best overlap fell below ``LOW_OVERLAP``, or where the greedy
    assignment was ambiguous within ``TIE_TOL``, are listed in
    ``flagged_points``.
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


def tridiagonal_stack(diag: np.ndarray, bonds: np.ndarray) -> np.ndarray:
    """(S, K, K) Hermitian stack from a (K,) or (S, K) diagonal and bonds (S, K-1).

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


def jtc_strip_hamiltonian(config: StripConfig, n_total: int) -> np.ndarray:
    """Excitation-number strip of the full qubit-resonator ladder.

    Basis |k, N-k> for k = 0..min(K-1, N) with the constant N*omega_r offset
    removed; eigenvalues equal those of the real stack at nbar = N
    (``tridiagonal_stack`` of ``bond_amplitudes``), up to the decoupled bare
    levels k > N.
    """
    if _check_integer("n_total", n_total) < 0:
        raise ValueError(f"n_total must be >= 0, got {n_total}")
    dim = min(config.level_count, n_total + 1)
    h = np.diag(config.rotating_diagonal[:dim])
    kb = np.arange(dim - 1)
    bonds = config.eigen.couplings[kb] * config.coupling * np.sqrt(n_total - kb)
    h[kb, kb + 1] = bonds
    h[kb + 1, kb] = bonds
    return h


def _row_maxima_assign(overlap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row argmaxes of each (n, n) overlap in a stack, and where they assign.

    They are the assignment of a matrix when they are distinct, each row's
    top overlap beats its second by more than ``TIE_TOL`` and every top is at
    least ``LOW_OVERLAP``: then ``match_branches`` returns them too, with no flag.
    Returns (best_cols, ok); ``ok`` has the stack's leading shape. Each row of
    ``overlap`` is left sorted ascending.
    """
    best_cols = np.argmax(overlap, axis=-1)
    distinct = np.all(np.diff(np.sort(best_cols, axis=-1), axis=-1) > 0, axis=-1)
    overlap.sort(axis=-1)  # in place: a sorted copy would be the largest temporary
    top = overlap[..., -1]
    second = overlap[..., -2]
    clear = np.all((top - second > TIE_TOL) & (top >= LOW_OVERLAP), axis=-1)
    return best_cols, distinct & clear


def match_branches(prev_vecs: np.ndarray, cur_vecs: np.ndarray) -> tuple[np.ndarray, bool, bool]:
    """Greedy maximal-overlap assignment of current eigenvectors to branches.

    ``prev_vecs`` columns are branch-ordered; ``cur_vecs`` columns are in
    eigenvalue order. Returns (columns, low_overlap, ambiguous) where
    ``columns[branch]`` indexes into cur_vecs, ``low_overlap`` marks a best
    overlap below ``LOW_OVERLAP`` and ``ambiguous`` a greedy pick with a
    rival within ``TIE_TOL`` in its row or column.
    """
    work = np.abs(prev_vecs.conj().T @ cur_vecs)
    n = work.shape[0]
    columns = np.full(n, -1, dtype=int)
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
        if m < LOW_OVERLAP:
            low_overlap = True
        work[row, :] = -1.0
        work[:, col] = -1.0
    return columns, low_overlap, ambiguous


def _tracked_blocks(config: StripConfig, nbar: np.ndarray):
    """``tracked_eigenbasis`` ``TRACK_CHUNK`` points at a time.

    Yields (energies, vectors, flagged) for each block of points in turn;
    ``flagged`` holds indices into the whole grid. ``nbar`` must be finite
    and start at 0. The grid's first point is matched against the bare basis,
    whose column j is bare level j, by the same row-maxima test and
    ``match_branches`` fallback as every other point. A later block's first
    point is matched to the branch-ordered eigenvectors at the last point of
    the block before it, which are the previous vectors a point-by-point
    tracker would pass ``match_branches``, so blocks of any size give the
    same labels, flags and bits.
    """
    nbar = np.asarray(nbar, float)
    _check_finite("nbar", nbar)
    if nbar[0] != 0.0:
        raise ValueError(
            f"nbar must start at 0 to anchor branch labels, got nbar[0] = {nbar[0]}"
        )
    # branch-ordered vectors before each block's first point: the bare basis,
    # so branch j starts on bare level j, then the block before's last point
    prev = np.eye(config.level_count)
    for lo in range(0, len(nbar), TRACK_CHUNK):
        evals, evecs = np.linalg.eigh(
            tridiagonal_stack(
                config.rotating_diagonal, bond_amplitudes(config, nbar[lo : lo + TRACK_CHUNK])
            )
        )
        # |overlap| of each point with the point before it, the first with prev
        overlap = np.empty(evecs.shape)
        np.matmul(prev.T, evecs[0], out=overlap[0])
        np.matmul(evecs[:-1].transpose(0, 2, 1), evecs[1:], out=overlap[1:])
        best_cols, ok = _row_maxima_assign(np.abs(overlap, out=overlap))
        columns = np.empty(evals.shape, dtype=int)
        order = np.arange(evals.shape[1])  # prev is in branch order already
        flagged = []
        for i, (best, accept) in enumerate(zip(best_cols, ok)):
            if accept:
                columns[i] = best[order]
            else:
                rows = evecs[i - 1] if i else prev
                columns[i], low, ambiguous = match_branches(rows[:, order], evecs[i])
                if low or ambiguous:
                    flagged.append(lo + i)
            order = columns[i]
        # drop every temporary at its last use, and the block's vectors once
        # the caller has them, so no two blocks' stacks are alive at once
        del overlap, best_cols, ok
        vectors = np.take_along_axis(evecs, columns[:, None, :], axis=2)
        del evecs
        prev = vectors[-1].copy()
        yield np.take_along_axis(evals, columns, axis=1), vectors, flagged
        del vectors


def tracked_eigenbasis(
    config: StripConfig, nbar: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Instantaneous eigenbasis at each photon number, in branch order.

    ``nbar`` must be finite and start at 0. The first point is matched
    against the bare basis, so branch j is anchored to the eigenvector of
    bare level j; each later point is matched to the previous one by
    ``match_branches``. Returns (energies, vectors, flagged): ``energies[i, j]``
    and ``vectors[i, :, j]`` belong to branch j at point i, and ``flagged``
    lists the points with a low-overlap or ambiguous match. This is the
    whole-grid form of ``_tracked_blocks``, whose blocks it concatenates.

    The overlaps of consecutive points in a block come from one stacked
    product of the eigenvectors in eigenvalue order, and a block's first
    point's from one product with the bare basis or the vectors ending the
    block before; no copy of the previous vectors is made. A branch order only
    permutes the rows of an overlap, which leaves the row-maxima test
    unchanged, so the test runs on every point of a block at once and the
    orders compose as integer permutations; where it accepts,
    ``match_branches`` would return its columns with no flag. The stacked
    overlaps may round in the last bit unlike one product per point, but they
    only decide the test, whose margins (``TIE_TOL``, ``LOW_OVERLAP``) are far
    wider; the energies and vectors are gathered, not computed.
    ``match_branches`` runs, on the ordered previous vectors as a
    point-by-point tracker would call it, only where the test fails, so every
    order, flag and bit is that tracker's.
    """
    energies, vectors, flagged = zip(*_tracked_blocks(config, nbar))
    return np.concatenate(energies), np.concatenate(vectors), [i for f in flagged for i in f]


def fan_diagram(config: StripConfig, nbar_grid: np.ndarray) -> SpectrumResult:
    """Instantaneous spectrum versus photon number with tracked branches.

    The grid must be sorted ascending and start at 0 so branches can be
    anchored to the bare levels. The field phase is irrelevant for the
    spectrum, so alpha is taken real positive.
    """
    nbar_grid = np.asarray(nbar_grid, float)
    if len(nbar_grid) == 0 or np.any(np.diff(nbar_grid) <= 0):
        raise ValueError("nbar_grid must be non-empty and sorted strictly ascending")

    energies, _, flagged = tracked_eigenbasis(config, nbar_grid)
    branches = energies.T
    branches[:, 0] = config.rotating_diagonal  # exact bare energies at nbar = 0
    return SpectrumResult(nbar_grid=nbar_grid, branches=branches, flagged_points=flagged)


def _parabolic_vertices(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the parabolas through the (n, 3) rows of ``x`` and ``y``.

    Each parabola comes from the two divided differences around the middle
    point, written about that point. One that does not open upward keeps the
    middle point; any other vertex is clipped to [x[:, 0], x[:, 2]].
    """
    h = np.diff(x, axis=1)
    d = np.diff(y, axis=1) / h
    curv = (d[:, 1] - d[:, 0]) / (h[:, 0] + h[:, 1])
    slope = d[:, 0] + curv * h[:, 0]  # at the middle point
    up = curv > 0
    shift = np.zeros_like(slope)
    shift[up] = np.clip(-slope[up] / (2 * curv[up]), -h[up, 0], h[up, 1])
    return x[:, 1] + shift, y[:, 1] + shift * (slope + curv * shift)


def find_avoided_crossings(
    spectrum: SpectrumResult, min_gap: float = 0.0, max_gap: float = np.inf
) -> list[CrossingRecord]:
    """Local minima of pairwise branch gaps, refined by parabolic interpolation.

    Only interior minima are reported; the refined gap must fall inside
    [min_gap, max_gap]. The half-gap is reported as the effective coupling.
    Records come in pair order, then grid order. The grid and the branches
    must be finite, and the grid must ascend strictly and hold one point per
    branch column.
    """
    # a NaN bound or an inverted window would silently report no crossing
    if not min_gap <= max_gap:
        raise ValueError(f"need min_gap <= max_gap, got min_gap={min_gap}, max_gap={max_gap}")
    x = np.asarray(spectrum.nbar_grid, float)
    if len(x) != spectrum.branches.shape[1]:
        raise ValueError(
            f"nbar_grid has {len(x)} points but branches have "
            f"{spectrum.branches.shape[1]} columns"
        )
    _check_finite("nbar_grid", x)  # NaN passes the ascent test
    if np.any(np.diff(x) <= 0):
        raise ValueError("nbar_grid must be sorted strictly ascending")
    # a NaN gap is no minimum and spoils its neighbours' tests
    bad = np.argwhere(~np.isfinite(spectrum.branches))
    if len(bad):
        j, i = bad[0]
        raise ValueError(
            f"branches must be finite, got {spectrum.branches[j, i]} in branch {j} at point {i}"
        )
    if len(x) < 3:
        raise ValueError("need at least 3 grid points to locate crossings")
    a, b = np.triu_indices(spectrum.branches.shape[0], 1)
    gap = np.abs(spectrum.branches[a] - spectrum.branches[b])  # (pairs, grid)
    mid = gap[:, 1:-1]
    # prominence floor keeps rounding noise on near-parallel branches from
    # registering as minima
    noise = 1e-12 + 1e-10 * mid
    pairs, points = np.nonzero((mid < gap[:, :-2] - noise) & (mid <= gap[:, 2:]))
    window = points[:, None] + np.arange(3)
    nbar_c, gap_c = _parabolic_vertices(x[window], gap[pairs[:, None], window])
    keep = (min_gap <= gap_c) & (gap_c <= max_gap)
    return [
        CrossingRecord(int(a[p]), int(b[p]), float(n), float(g), float(g) / 2.0)
        for p, n, g in zip(pairs[keep], nbar_c[keep], gap_c[keep])
    ]


def g_eff_perturbative(config: StripConfig, target_level: int, nbar_cross: float) -> float:
    """Perturbative strength of the multi-step coupling from level 0 to m.

    Product of the m bond couplings divided by the m-1 intermediate bare
    detunings, times nbar^(m/2). Returns the magnitude in GHz.
    """
    m = _check_integer("target_level", target_level)
    if m < 1:
        raise ValueError(f"target_level must be >= 1, got {m}")
    if m > config.level_count - 1:
        raise ValueError(f"target_level {m} not within the kept levels")
    # an infinite nbar_cross would print as the non-JSON Infinity
    _check_finite("nbar_cross", nbar_cross)
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
    with np.errstate(over="ignore"):  # numpy's power gives inf; Python's raises
        g_eff = abs(numerator / np.prod(detunings)) * np.float64(nbar_cross) ** (m / 2.0)
    if not np.isfinite(g_eff):
        raise ValueError(f"nbar_cross = {nbar_cross} is too large: g_eff overflows")
    return float(g_eff)
