"""Schrodinger propagation of the transmon under the ring-up field.

Each step of length h is the commutator-free fourth-order Magnus step (CF4;
Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011)): two exact
exponentials, exp(-i*2*pi*h*B2) exp(-i*2*pi*h*B1), with B1 = a2*H(t1) +
a1*H(t2) acting first, B2 = a1*H(t1) + a2*H(t2), a1,2 = 1/4 -/+ sqrt(3)/6 and
Gauss nodes t1,2 = t + (1/2 -/+ sqrt(3)/6)*h. Each exponential comes from a
spectral decomposition, so unitarity is exact up to rounding. The bonds
Re(sqrt(nbar - k)) have a square-root kink wherever nbar(t) = k; the step
edges are the grid j*dt plus every such kink time, which
``field.level_crossings`` bisects on the exact field solver ``field_amplitude``,
so both nodes of a step lie on the same side of every kink. On the side
where nbar > k the bond grows like sqrt(|t - t_k|), which costs CF4 its
order in the step beside the kink (Blanes, Casas, Oteo & Ros, Phys. Rep.
470, 151 (2009)); ``GRADED_EDGES`` more edges at dt*2^-j from the kink grade
the steps there, so the default dt = 0.1 ns is within 2e-6 of a
dt = 0.0025 ns reference at the grid corners. The graded steps still add
O(h^1.5) each, so the scheme is not fourth order overall. The one step
kernel, ``evolve_piecewise_constant``, returns the state after every step;
``_sample_times`` alone picks the samples, grid edges every ``sample_stride``
steps, where populations of the instantaneous eigenstates are read with
branch identity carried from the bare labels at alpha = 0 by maximal
eigenvector overlap. ``_sample_photons`` is the one place a member's sample
times become photon numbers: the sweep's heatmap axis and the charge
average's default axis end at its last sample. ``_check_monotone`` is the one
monotone ring-up rule, which reading survival against nbar(t) needs.

The propagation runs in the drive's frame. Under the field every bond of the
strip Hamiltonian carries the phase u(t) = (alpha/|alpha|) *
exp(i*2*pi*(omega_r - omega_d)*t), 1 where alpha = 0. The state is carried as
phi_k = u^k psi_k, in which the bonds are real and level k's diagonal gains
-k*r/(2*pi), where r = 2*pi*(omega_r - omega_d) + Im(alpha' conj(alpha))/|alpha|^2
is the rate of u. Every exponent B is therefore one real symmetric matrix,
whatever the drive. A resonant field at omega_d = omega_r has r = 0, so its
stack is bitwise the unshifted one. Populations and norms are the same in
both frames, and the sample-time eigenvectors are those of the real strip
stack.

The Hamiltonian depends on the strip and the drive, not on the prepared
state. ``propagate_states`` therefore builds, diagonalizes and branch-tracks
both stacks once and carries every prepared state through them as one stack
of columns. Each column still gets its own matrix-vector product at every
step and sample, so its numbers are bitwise those of a one-state run.
The step stack is built, diagonalized and applied ``STEP_CHUNK`` sub-steps
at a time, bitwise as one stack (``eigh`` is per matrix), so a sweep
worker's memory stays flat from member to member. ``propagate`` is its
one-state form. This module propagates one member at the offset charge its
strip was diagonalized at (``StripConfig.at_charge`` moves a strip to
another); ``sweep`` owns the charge grid and the average over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import DriveConfig, _alpha_slope, field_amplitude, level_crossings
from .output import write_table
from .strip import StripConfig, bond_amplitudes, tracked_eigenbasis, tridiagonal_stack
from .transmon import _check_integer, _finite_float

__all__ = [
    "SimulationConfig",
    "PopulationTrace",
    "SurvivalCurve",
    "propagate",
    "propagate_states",
    "survival_vs_nbar",
    "evolve_piecewise_constant",
]

NORM_TOL = 1e-6
MAX_DT = 0.1  # ns
# CF4 Gauss nodes (fractions of a step) and exponent weights a1, a2
CF4_NODES = np.array([0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6])
CF4_WEIGHTS = (0.25 - np.sqrt(3) / 6, 0.25 + np.sqrt(3) / 6)
EDGE_MERGE_TOL = 1e-9  # ns; a kink or graded edge this close to another edge adds no step
STEP_CHUNK = 256  # sub-steps per Hamiltonian stack; even, so every chunk ends on a full step
GRADED_EDGES = 6  # graded step edges beside each kink, at dt*2^-j from it, j = 1..6
MONOTONE_TOL = 1e-12  # photons a ring-up sample may fall by and still count as monotone


@dataclass(frozen=True)
class SimulationConfig:
    """One (strip, drive, initial state) propagation job."""

    strip: StripConfig
    drive: DriveConfig
    initial_state: int = 0
    dt: float = 0.1
    sample_stride: int = 1

    def __post_init__(self):
        object.__setattr__(self, "dt", _finite_float("dt", self.dt))
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


def evolve_piecewise_constant(hamiltonians: np.ndarray, dt: float, psi0: np.ndarray) -> np.ndarray:
    """Apply exp(-i*2*pi*H_s*dt_s) step by step; return the state after every step.

    ``hamiltonians`` is a (steps, K, K) Hermitian stack (GHz), one matrix per
    step, already combined as the caller's scheme needs; ``propagate_states``
    passes a real symmetric one. ``dt`` is one step length (ns) or a (steps,)
    array of them. The returned array holds the state before any step and
    after each of them; the caller picks its samples (``_sample_times``).

    ``psi0`` is one (K,) state, giving a (steps + 1, K) result, or a (K, m)
    block of m states in its columns, giving (steps + 1, K, m). The
    eigendecomposition is shared, and the states are stepped together as one
    (m, K, 1) stack of columns: each product is then one matrix-vector
    product (gemv) per state, as a one-state run does, so column j is
    bitwise the one-state result for ``psi0[:, j]``. A (K, m) matrix-matrix
    product (gemm) would round differently, by up to 3.5e-15.
    """
    evals, evecs = np.linalg.eigh(hamiltonians)
    evecs_h = evecs.conj().transpose(0, 2, 1)  # a view when the stack is real
    # trailing unit axes broadcast each step's factors over the (m, K, 1) stack
    phases = np.exp(-2j * np.pi * evals * np.reshape(dt, (-1, 1)))[..., None]
    start = np.asarray(psi0, dtype=complex)
    psi = np.ascontiguousarray(np.atleast_2d(start.T))[..., None]
    out = [psi]
    for v, p, vh in zip(evecs, phases, evecs_h):
        psi = v @ (p * (vh @ psi))
        out.append(psi)
    states = np.array(out)[..., 0].transpose(0, 2, 1)
    return states[:, :, 0] if start.ndim == 1 else states


def _sample_times(duration: float, dt: float, stride: int) -> np.ndarray:
    """Times (ns) of the states ``propagate`` samples: every stride, and the end."""
    steps = int(round(duration / dt))
    return np.minimum(np.arange(0, steps + stride, stride), steps) * dt


def _sample_photons(
    drive: DriveConfig, dt: float, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """A member's sample times (ns) and the photon numbers |alpha|^2 there."""
    t_s = _sample_times(drive.duration, dt, stride)
    return t_s, np.abs(field_amplitude(drive, t_s)) ** 2


def _check_monotone(nbar: np.ndarray, reason: str) -> None:
    """Reject photon numbers that fall by more than ``MONOTONE_TOL`` anywhere.

    Survival is read against nbar(t), so it needs a monotone ring-up; a drive
    detuned from the dressed resonator rings up and back down. ``reason``
    ends the "not monotone" message.
    """
    if np.any(np.diff(nbar) < -MONOTONE_TOL):
        raise ValueError(f"nbar(t) is not monotone{reason}")


def _step_edges(drive: DriveConfig, dt: float, levels) -> np.ndarray:
    """Ascending step edges of the pulse: the grid j*dt, every kink, and its graded edges.

    A kink is a time t_k where nbar(t) crosses one of ``levels``, k; there the
    bond Re(sqrt(nbar - k)) grows like sqrt(|t - t_k|) on its nbar > k side.
    On that side, after a rising crossing and before a falling one, the
    graded edges t_k +/- dt*2^-j, j = 1..GRADED_EDGES, shrink the steps
    geometrically toward the kink; those past the grid's ends are dropped.
    Grid points (where samples are taken) always stay edges: a kink within
    EDGE_MERGE_TOL of one is dropped, as is a graded edge that close to a
    grid point or kink (``_merge_edges``).
    """
    grid = _sample_times(drive.duration, dt, 1)
    kinks = level_crossings(drive, grid, levels)
    alpha = field_amplitude(drive, kinks)
    # d(nbar)/dt = 2*Re(alpha' conj(alpha)); nbar > k after a rising kink
    side = np.where((_alpha_slope(drive, kinks, alpha) * np.conj(alpha)).real > 0, 1.0, -1.0)
    graded = np.sort((kinks + side * dt * 0.5 ** np.arange(1, GRADED_EDGES + 1)[:, None]).ravel())
    graded = graded[(graded > 0) & (graded < grid[-1])]
    return _merge_edges(_merge_edges(grid, kinks), graded)


def _merge_edges(edges: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """The ascending ``edges`` plus those of the ascending ``extra`` that are
    more than EDGE_MERGE_TOL from every edge and from the previous ``extra``."""
    pos = np.searchsorted(edges, extra)
    near = np.minimum(
        np.abs(edges[np.minimum(pos, len(edges) - 1)] - extra),
        np.abs(extra - edges[np.maximum(pos - 1, 0)]),
    )
    extra = extra[near > EDGE_MERGE_TOL]
    extra = extra[np.diff(extra, prepend=-np.inf) > EDGE_MERGE_TOL]
    return np.sort(np.concatenate((edges, extra)))


def _populations(vectors: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """|<branch j at sample i|psi_i>|^2 as a (samples, branches) array.

    One stacked product of (K, K) @ (K, 1) slices is one gemv per sample, so
    every population is bitwise that of a loop over the samples.
    """
    return np.abs(np.matmul(vectors.transpose(0, 2, 1), psis[..., None])[..., 0]) ** 2


def propagate(config: SimulationConfig) -> PopulationTrace:
    """Propagate the prepared eigenstate through the ring-up and sample it.

    Raises if the norm drifts beyond 1e-6 (a propagator defect, not physics).
    Samples where branch tracking saw an overlap below ``strip.LOW_OVERLAP``
    are flagged but the trace is still returned.
    """
    return propagate_states(config, [config.initial_state])[0]


def _cf4_substeps(x: np.ndarray) -> np.ndarray:
    """(steps, 2, ...) node values as the sub-step sequence B1, B2 of every step.

    B1 = a2*x(t1) + a1*x(t2) acts first, then B2 = a1*x(t1) + a2*x(t2).
    """
    a1, a2 = CF4_WEIGHTS
    sub = np.stack((a2 * x[:, 0] + a1 * x[:, 1], a1 * x[:, 0] + a2 * x[:, 1]), axis=1)
    return sub.reshape(-1, *x.shape[2:])


def _frame_rate(omega_r: float, drive: DriveConfig, times, alpha, nbar) -> np.ndarray:
    """Rate (rad/ns) of the bond phase u = (alpha/|alpha|) * exp(i*2*pi*(omega_r - omega_d)*t).

    ``alpha`` is the field at ``times`` and ``nbar`` its |alpha|^2. The rate is
    2*pi*(omega_r - omega_d) + Im(alpha' conj(alpha))/|alpha|^2, the first
    term alone where alpha = 0.
    """
    live = nbar > 0
    winding = (_alpha_slope(drive, times, alpha) * np.conj(alpha)).imag
    return 2 * np.pi * (omega_r - drive.omega_d) + np.where(
        live, winding / np.where(live, nbar, 1.0), 0.0
    )


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

    # step edges: the grid j*dt, every kink of the bonds, nbar(t) = k, and
    # the graded edges beside each kink
    edges = _step_edges(drive, config.dt, np.arange(1, k_count - 1))
    h = np.diff(edges)
    nodes = edges[:-1, None] + h[:, None] * CF4_NODES
    alpha_n = field_amplitude(drive, nodes.ravel()).reshape(nodes.shape)
    nbar_n = np.abs(alpha_n) ** 2
    rate = _cf4_substeps(_frame_rate(strip_cfg.omega_r, drive, nodes, alpha_n, nbar_n))
    # the bonds carry alpha where the lab Hamiltonian has conj(alpha), so a drive
    # at omega_d acts at 2*omega_r - omega_d; the mend flips this term's sign and
    # conjugates the lab reference in test_gauge_optimization_matches_brute_force
    diag = strip_cfg.rotating_diagonal / 2 - np.arange(k_count) * rate[:, None] / (2 * np.pi)
    bonds, sub_h = _cf4_substeps(bond_amplitudes(strip_cfg, nbar_n)), np.repeat(h, 2)
    # the state after every full step (every second sub-step), STEP_CHUNK sub-steps
    # at a time, copied to free the half steps; then those at the sample times
    full = [np.eye(k_count)[None, :, states]]
    for part in (slice(lo, lo + STEP_CHUNK) for lo in range(0, len(sub_h), STEP_CHUNK)):
        stack = tridiagonal_stack(diag[part], bonds[part])
        full.append(evolve_piecewise_constant(stack, sub_h[part], full[-1][-1])[2::2].copy())
    t_s, nbar_s = _sample_photons(drive, config.dt, config.sample_stride)
    block = np.concatenate(full)[np.searchsorted(edges, t_s)]

    # instantaneous eigenbasis at sample times, tracked from the bare labels
    _, vectors, flagged = tracked_eigenbasis(strip_cfg, nbar_s)

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
    _check_monotone(trace.nbar, "; use the time axis instead")
    running_min = np.minimum.accumulate(trace.survival)
    return SurvivalCurve(
        nbar_axis=trace.nbar.copy(), survival_running_min=running_min
    )
