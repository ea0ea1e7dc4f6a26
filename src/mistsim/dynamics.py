"""Schrodinger propagation of the transmon under the ring-up field.

Each step of length h is the commutator-free fourth-order Magnus step (CF4;
Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011)): two exact
exponentials, exp(-i*2*pi*h*B2) exp(-i*2*pi*h*B1), with B1 = a2*H(t1) +
a1*H(t2) acting first, B2 = a1*H(t1) + a2*H(t2), a1,2 = 1/4 -/+ sqrt(3)/6 and
Gauss nodes t1,2 = t + (1/2 -/+ sqrt(3)/6)*h. Each exponential comes from a
spectral decomposition, so unitarity is exact up to rounding. The bonds
Re(sqrt(nbar - k)) have a square-root kink wherever nbar(t) = k; the step
edges are the grid j*dt plus every such kink time (``field.level_crossings``),
so both nodes of a step lie on the same side of every kink. Populations of
the instantaneous eigenstates are sampled on grid edges every
``sample_stride`` steps, with branch identity carried from the bare labels at
alpha = 0 by maximal eigenvector overlap. ``evolve_piecewise_constant`` is
the one step kernel, and ``member_survival`` the one survival computation
behind both the sweep and ``charge_averaged_survival``.

Internally the propagation runs in a rotated gauge: each exponent B is a
tridiagonal matrix whose bond phases are peeled off into a diagonal frame,
leaving a real symmetric matrix. When the field phase (``strip.bond_phase``)
u(t) = (alpha/|alpha|) * exp(i*2*pi*(omega_r - omega_d)*t), which winds at the
drive's omega_d, is constant (every resonant sweep member) the combined bonds
are real and no frame is needed.
When it varies, the combined lab-gauge bond of each bond k has its own phase,
and the kernel's ``frame`` argument carries the cumulative bond phase of each
sub-step, so the state stays in the lab gauge. Observables (populations,
norms) are identical to the lab-gauge ones.

The Hamiltonian depends on the strip and the drive, not on the prepared
state. ``propagate_states`` therefore builds, diagonalizes and branch-tracks
both stacks once and carries every prepared state through them as one stack
of columns. Each column still gets its own matrix-vector product at every
step and sample, so its numbers are bitwise those of a one-state run.
``propagate`` is its one-state form, and ``member_survival`` takes all states
of one (strip, drive) point together.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .field import DriveConfig, field_amplitude, level_crossings
from .output import write_table
from .strip import StripConfig, bond_amplitudes, bond_phase, tracked_eigenbasis, tridiagonal_stack
from .transmon import _check_integer, diagonalize

__all__ = [
    "SimulationConfig",
    "PopulationTrace",
    "SurvivalCurve",
    "propagate",
    "propagate_states",
    "survival_vs_nbar",
    "member_survival",
    "charge_averaged_survival",
    "evolve_piecewise_constant",
]

NORM_TOL = 1e-6
DEFAULT_NG_GRID = tuple(round(-0.50 + 0.05 * i, 10) for i in range(11))
MAX_DT = 0.05  # ns
# CF4 Gauss nodes (fractions of a step) and exponent weights a1, a2
CF4_NODES = np.array([0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6])
CF4_WEIGHTS = (0.25 - np.sqrt(3) / 6, 0.25 + np.sqrt(3) / 6)
EDGE_MERGE_TOL = 1e-9  # ns; a kink this close to another edge adds no step


@dataclass(frozen=True)
class SimulationConfig:
    """One (strip, drive, initial state) propagation job."""

    strip: StripConfig
    drive: DriveConfig
    initial_state: int = 0
    dt: float = 0.05
    sample_stride: int = 2

    def __post_init__(self):
        _check_step(self.dt, self.sample_stride, self.drive.duration)
        _check_state(self.initial_state, self.strip.level_count)


def _check_step(dt: float, sample_stride: int, duration: float) -> None:
    if not 0 < dt <= MAX_DT:
        raise ValueError(f"dt must be in (0, {MAX_DT}] ns, got {dt}")
    # the step grid ends at round(duration / dt) * dt; it must end with the pulse
    if abs(round(duration / dt) * dt - duration) > EDGE_MERGE_TOL:
        raise ValueError(f"dt = {dt} ns does not divide the duration {duration} ns")
    _check_integer("sample_stride", sample_stride)
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")


def _check_state(state: int, level_count: int) -> int:
    """``state`` as an int, once it is checked to be an integer level index."""
    _check_integer("initial_state", state)
    if not 0 <= state < level_count:
        raise ValueError(
            f"initial_state {state} outside the {level_count} tracked levels"
        )
    return int(state)


@dataclass
class PopulationTrace:
    """Sampled instantaneous-eigenstate populations along one propagation."""

    times: np.ndarray
    nbar: np.ndarray
    populations: np.ndarray  # (samples, branches)
    survival: np.ndarray
    norm: np.ndarray
    initial_state: int
    flagged_samples: list[int]

    def to_csv(self, path, header_lines: list[str] | None = None) -> None:
        branches = [f"pop_branch_{j}" for j in range(self.populations.shape[1])]
        rows = np.column_stack((self.times, self.nbar, self.norm, self.populations))
        write_table(path, header_lines, ["t_ns", "nbar", "norm", *branches], rows)


@dataclass
class SurvivalCurve:
    """Running-minimum survival probability on a monotone photon-number axis."""

    nbar_axis: np.ndarray
    survival_running_min: np.ndarray

    def to_csv(self, path, header_lines: list[str] | None = None) -> None:
        rows = np.column_stack((self.nbar_axis, self.survival_running_min))
        write_table(path, header_lines, ["nbar", "survival"], rows)


def evolve_piecewise_constant(
    hamiltonians: np.ndarray,
    dt: float,
    psi0: np.ndarray,
    sample_stride: int = 1,
    frame: np.ndarray | None = None,
) -> np.ndarray:
    """Apply exp(-i*2*pi*H_s*dt_s) step by step; return states at sample points.

    ``hamiltonians`` is a (steps, K, K) Hermitian stack (GHz), one matrix per
    step, already combined as the caller's scheme needs. ``dt`` is one step
    length (ns) or a (steps,) array of them. An optional (steps, K) ``frame``
    of diagonal phase factors D_s makes step s apply
    D_s exp(-i*2*pi*H_s*dt_s) D_s^dag instead,
    which lets a real gauge-rotated stack drive a lab-gauge state. The
    returned array holds the state before any step, after every
    ``sample_stride`` steps, and after the final step.

    ``psi0`` is one (K,) state, giving a (samples, K) result, or a (K, m)
    block of m states in its columns, giving (samples, K, m). The
    eigendecomposition is shared, and the states are stepped together as one
    (m, K, 1) stack of columns: each product is then one matrix-vector
    product (gemv) per state, as a one-state run does, so column j is
    bitwise the one-state result for ``psi0[:, j]``. A (K, m) matrix-matrix
    product (gemm) would round differently, by up to 3.5e-15.
    """
    steps = hamiltonians.shape[0]
    evals, evecs = np.linalg.eigh(hamiltonians)
    evecs_h = evecs.conj().transpose(0, 2, 1)  # a view when the stack is real
    # trailing unit axes broadcast each step's factors over the (m, K, 1) stack
    phases = np.exp(-2j * np.pi * evals * np.reshape(dt, (-1, 1)))[..., None]
    start = np.asarray(psi0, dtype=complex)
    psi = np.ascontiguousarray(np.atleast_2d(start.T))[..., None]
    if frame is not None:
        frame = frame[..., None]
        frame_c = np.conj(frame)
    out = [psi]
    for s in range(steps):
        if frame is None:
            psi = evecs[s] @ (phases[s] * (evecs_h[s] @ psi))
        else:
            psi = frame[s] * (evecs[s] @ (phases[s] * (evecs_h[s] @ (frame_c[s] * psi))))
        if (s + 1) % sample_stride == 0 or s == steps - 1:
            out.append(psi)
    states = np.array(out)[..., 0].transpose(0, 2, 1)
    return states[:, :, 0] if start.ndim == 1 else states


def _sample_times(duration: float, dt: float, stride: int) -> np.ndarray:
    """Times (ns) of the states ``propagate`` samples: every stride, and the end."""
    steps = int(round(duration / dt))
    return np.minimum(np.arange(0, steps + stride, stride), steps) * dt


def _step_edges(grid: np.ndarray, kinks: np.ndarray) -> np.ndarray:
    """Ascending step edges: the uniform ``grid`` plus the ascending ``kinks``.

    A kink within EDGE_MERGE_TOL of a grid point or of the previous kink is
    dropped, so grid points (where samples are taken) always stay edges.
    """
    pos = np.searchsorted(grid, kinks)
    near_grid = np.minimum(
        np.abs(grid[np.minimum(pos, len(grid) - 1)] - kinks),
        np.abs(kinks - grid[np.maximum(pos - 1, 0)]),
    )
    kinks = kinks[near_grid > EDGE_MERGE_TOL]
    kinks = kinks[np.diff(kinks, prepend=-np.inf) > EDGE_MERGE_TOL]
    return np.sort(np.concatenate((grid, kinks)))


def _populations(vectors: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """|<branch j at sample i|psi_i>|^2 as a (samples, branches) array.

    One stacked product of (K, K) @ (K, 1) slices is one gemv per sample, so
    every population is bitwise that of a loop over the samples.
    """
    return np.abs(np.matmul(vectors.transpose(0, 2, 1), psis[..., None])[..., 0]) ** 2


def propagate(config: SimulationConfig) -> PopulationTrace:
    """Propagate the prepared eigenstate through the ring-up and sample it.

    Raises if the norm drifts beyond 1e-6 (a propagator defect, not physics).
    Samples where branch tracking saw an overlap below 0.5 are flagged but the
    trace is still returned.
    """
    return propagate_states(config, [config.initial_state])[0]


def propagate_states(config: SimulationConfig, states) -> list[PopulationTrace]:
    """``propagate`` for each prepared eigenstate in ``states``, in one pass.

    ``config.initial_state`` is ignored. The field, both Hamiltonian stacks,
    their eigendecompositions and the branch tracking are computed once; the
    trace of each state is bitwise the one ``propagate`` returns for it.
    """
    strip_cfg = config.strip
    drive = config.drive
    k_count = strip_cfg.level_count
    states = [_check_state(state, k_count) for state in states]

    # step edges: the grid j*dt plus every kink of the bonds, nbar(t) = k
    grid = _sample_times(drive.duration, config.dt, 1)
    alpha_grid = field_amplitude(drive, grid)
    edges = _step_edges(
        grid, level_crossings(drive, grid, alpha_grid, np.arange(1, k_count - 1))
    )
    h = np.diff(edges)
    nodes = edges[:-1, None] + h[:, None] * CF4_NODES
    alpha_n = field_amplitude(drive, nodes.ravel()).reshape(nodes.shape)
    bonds = bond_amplitudes(strip_cfg, np.abs(alpha_n) ** 2)  # (steps, 2, K-1)
    unit = bond_phase(strip_cfg, drive.omega_d, alpha_n, np.abs(alpha_n), nodes)
    gauge_varies = bool(np.any(np.abs(np.diff(unit.ravel())) > 1e-15))
    if gauge_varies:
        bonds = bonds * unit[..., None]  # lab-gauge bonds
    a1, a2 = CF4_WEIGHTS
    # sub-steps B1 = a2 H(t1) + a1 H(t2), then B2 = a1 H(t1) + a2 H(t2)
    combined = np.stack(
        (a2 * bonds[:, 0] + a1 * bonds[:, 1], a1 * bonds[:, 0] + a2 * bonds[:, 1]),
        axis=1,
    ).reshape(-1, k_count - 1)
    frame = None
    if gauge_varies:
        # lab-gauge B = D B_real D^dag with D_k the conjugate of the product
        # of the bond phases below level k
        magnitude = np.abs(combined)
        nonzero = magnitude > 0
        phase = np.where(nonzero, combined / np.where(nonzero, magnitude, 1.0), 1.0)
        frame = np.concatenate(
            (np.ones((len(phase), 1)), np.cumprod(np.conj(phase), axis=1)), axis=1
        )
        combined = magnitude
    t_s = _sample_times(drive.duration, config.dt, config.sample_stride)
    # a state after every full step, then those at the sample times
    block = evolve_piecewise_constant(
        tridiagonal_stack(strip_cfg.rotating_diagonal / 2, combined),
        np.repeat(h, 2),
        np.eye(k_count)[:, states],
        2,
        frame,
    )[np.searchsorted(edges, t_s)]

    # instantaneous eigenbasis at sample times, tracked from the bare labels
    alpha_s = alpha_grid[np.searchsorted(grid, t_s)]
    nbar_s = np.abs(alpha_s) ** 2
    _, vectors, flagged = tracked_eigenbasis(strip_cfg, nbar_s)
    if gauge_varies:
        # back to the rotated gauge of the sample-time stack
        unit_s = bond_phase(strip_cfg, drive.omega_d, alpha_s, np.sqrt(nbar_s), t_s)
        rotation = unit_s[:, None] ** np.arange(k_count)

    traces = []
    for j, state in enumerate(states):
        # contiguous (samples, K), so reductions round as in a one-state run
        psis = np.ascontiguousarray(block[:, :, j])
        norms = np.linalg.norm(psis, axis=1)
        if np.max(np.abs(norms - 1.0)) > NORM_TOL:
            raise RuntimeError(
                f"norm drifted to {np.max(np.abs(norms - 1.0)):.3g} (> {NORM_TOL}); "
                "propagator defect"
            )
        if gauge_varies:
            psis = np.multiply(rotation, psis)
        populations = _populations(vectors, psis)
        traces.append(
            PopulationTrace(
                times=t_s.copy(),
                nbar=nbar_s.copy(),
                populations=populations,
                survival=populations[:, state].copy(),
                norm=norms,
                initial_state=state,
                flagged_samples=list(flagged),
            )
        )
    return traces


def survival_vs_nbar(trace: PopulationTrace) -> SurvivalCurve:
    """Re-parameterize survival from time to photon number, running minimum.

    Requires a monotone ring-up (resonant square drive); partial recoveries
    after a crossing must not hide the transition, hence the running minimum.
    """
    if np.any(np.diff(trace.nbar) < -1e-12):
        raise ValueError("nbar(t) is not monotone; use the time axis instead")
    running_min = np.minimum.accumulate(trace.survival)
    return SurvivalCurve(
        nbar_axis=trace.nbar.copy(), survival_running_min=running_min
    )


def member_survival(
    config: SimulationConfig, states, nbar_axis: np.ndarray
) -> list[np.ndarray]:
    """Running-minimum survival of each state in ``states``, on ``nbar_axis``.

    One curve per state, in order; each is the (strip, drive, state) member's.
    """
    curves = [survival_vs_nbar(trace) for trace in propagate_states(config, states)]
    return [np.interp(nbar_axis, c.nbar_axis, c.survival_running_min) for c in curves]


def _rebuild_at_offset_charge(config: SimulationConfig, n_g: float) -> SimulationConfig:
    """``config`` with its transmon re-diagonalized at offset charge ``n_g``."""
    params = config.strip.eigen.provenance
    if params is None:
        raise ValueError(
            "strip carries no transmon provenance; cannot re-diagonalize at "
            "other offset charges"
        )
    eigen = diagonalize(replace(params, n_g=n_g))
    return replace(config, strip=replace(config.strip, eigen=eigen))


def charge_averaged_survival(
    base: SimulationConfig,
    n_g_grid: np.ndarray | None = None,
    nbar_axis: np.ndarray | None = None,
) -> SurvivalCurve:
    """Uniform average of survival curves over an offset-charge grid.

    Member curves are interpolated onto a common photon-number axis (the
    members' own sample-time axis unless one is given) and averaged with equal
    weights.
    """
    if n_g_grid is None:
        n_g_grid = DEFAULT_NG_GRID
    if nbar_axis is None:
        t_s = _sample_times(base.drive.duration, base.dt, base.sample_stride)
        nbar_axis = np.abs(field_amplitude(base.drive, t_s)) ** 2
    members = []
    for n_g in n_g_grid:
        try:
            cfg = _rebuild_at_offset_charge(base, float(n_g))
            members.append(member_survival(cfg, [base.initial_state], nbar_axis)[0])
        except Exception as exc:
            raise RuntimeError(f"member simulation failed at n_g={n_g}") from exc
    return SurvivalCurve(
        nbar_axis=np.asarray(nbar_axis, float),
        survival_running_min=np.stack(members).mean(axis=0),
    )
