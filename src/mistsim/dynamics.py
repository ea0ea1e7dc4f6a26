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
so both nodes of a step lie on the same side of every kink. The bisection also
tells the side where nbar > k; there the bond grows like sqrt(|t - t_k|),
which costs CF4 its order in the step beside the kink (Blanes, Casas, Oteo &
Ros, Phys. Rep. 470, 151 (2009)); ``GRADED_EDGES`` more edges at dt*2^-j from
the kink grade the steps there, so the default dt = 0.1 ns is within 2e-6 of
a dt = 0.0025 ns reference at the grid corners. The graded steps still add
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
state. ``propagate_states`` therefore carries every prepared state through
one step stack and one tracked sample basis as one stack of columns. Each
column still gets its own matrix-vector product at every step and sample,
so its numbers are bitwise those of a one-state run. Both are worked in
blocks. The field and the frame rate are computed once at every Gauss node,
in one ``field_amplitude`` call, because the field can round differently
inside a different array. The step Hamiltonians are then built, diagonalized
and applied ``STEP_CHUNK`` sub-steps at a time, and only the states at the
sample times are kept. The sample-time eigenbasis is diagonalized,
branch-tracked and read out ``strip.TRACK_CHUNK`` samples at a time. Each
block's vectors are dropped once read, and a step chunk's states once its
samples and last state are copied out, so neither is held while the next
block is built. ``eigh`` and every product act per matrix, so the blocks
are bitwise one stack, and a member's working memory depends on K and the
block sizes, not on its sample count.

The two streams of ``eigh`` are independent, and batched ``eigh`` releases
the GIL, so they run at once. A helper thread, started and joined inside
each ``propagate_states`` call, builds, diagonalizes and applies the step
chunks and copies out the sample-time states (``_step_samples``). The
calling thread meanwhile tracks the sample basis, and reads each block out
once the helper has written that block's last sample. The two threads share
three plain primitives. After each chunk the helper appends its count of
written samples to a ``deque`` and releases a ``Semaphore``; the caller
acquires and pops counts until its block is in. An exception on the helper
is appended in place of a count, and the caller raises it again. The
caller sets an ``Event`` before it joins the helper, which stops the helper
at its next chunk if the caller raised. No thread outlives the call, and
nothing is set up at import, so the sweep's forked workers take the same
path. It is a plain ``threading.Thread`` with no ``queue.SimpleQueue`` and
no ``concurrent.futures`` executor: importing ``queue`` raised the peak RSS
of a script that runs one fan diagram by 0.1-0.5 MB, and an executor would
also import ``logging``, into every process that imports this module, the
spectrum-only ones too. Each thread makes the same numpy calls on the same
inputs as one thread in series would, so the outputs are bitwise the serial
ones. A step chunk and a tracker block are alive together, so both are 128
rather than 256: two states at dt 0.1 peak at 3.3 MB of numpy heap, both
threads, against 6.5 MB with tracker blocks of 256 whose temporaries
outlived their use, and block sizes move no bit.

``propagate`` is the one-state form. This module propagates one member at
the offset charge its strip was diagonalized at (``StripConfig.at_charge``
moves a strip to another); ``sweep`` owns the charge grid and the average
over it.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from .field import DriveConfig, _alpha_slope, field_amplitude, level_crossings
from .output import write_table
from .strip import StripConfig, _tracked_blocks, bond_amplitudes, tridiagonal_stack
from .transmon import _check_integer, _store_fields

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
# sub-steps per Hamiltonian stack, which bounds the stack's memory; even, so
# every chunk ends on a full step
STEP_CHUNK = 128
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
        _store_fields(self)
        _check_step(self.dt, self.sample_stride, self.drive.duration)
        _check_state(self.initial_state, self.strip.level_count)


def _check_step(dt: float, sample_stride: int, duration: float) -> None:
    if not 0 < dt <= MAX_DT:
        raise ValueError(f"dt must be in (0, {MAX_DT}] ns, got {dt}")
    # the step grid ends at round(duration / dt) * dt; it must end with the pulse
    if abs(round(duration / dt) * dt - duration) > EDGE_MERGE_TOL:
        raise ValueError(f"dt = {dt} ns does not divide the duration {duration} ns")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")


def _check_state(state: int, level_count: int) -> int:
    """``state`` as an int, once it is checked to be an integer level index."""
    if not 0 <= _check_integer("initial_state", state) < level_count:
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
    # each step writes straight into one (steps + 1, m, K, 1) buffer: a list of
    # small per-step arrays raised criterion 5's peak RSS from 80 to 145 MB
    out = np.empty((len(evecs) + 1, *np.atleast_2d(start.T).shape, 1), dtype=complex)
    out[0, ..., 0] = np.atleast_2d(start.T)
    half = np.empty(out.shape[1:], dtype=complex)
    for s, (v, p, vh) in enumerate(zip(evecs, phases, evecs_h)):
        np.matmul(vh, out[s], out=half)
        np.multiply(p, half, out=half)
        np.matmul(v, half, out=out[s + 1])
    states = out[..., 0].transpose(0, 2, 1)
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
    bond Re(sqrt(nbar - k)) grows like sqrt(|t - t_k|) on its nbar > k side,
    after a rising crossing and before a falling one (``level_crossings``
    reports which). There the graded edges t_k +/- dt*2^-j, j = 1..GRADED_EDGES,
    shrink the steps toward the kink; those past the grid's ends are dropped.
    Grid points (where samples are taken) always stay edges: a kink within
    EDGE_MERGE_TOL of one is dropped, as is a graded edge that close to a grid
    point or kink (``_merge_edges``).
    """
    grid = _sample_times(drive.duration, dt, 1)
    kinks, rising = level_crossings(drive, grid, levels)
    side = np.where(rising, 1.0, -1.0)
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


def _step_samples(strip_cfg, h, nbar_n, rate, sample_edges, psis, written, ready, stop) -> None:
    """Step ``psis[:, 0]`` through every sub-step and write the states at the samples.

    ``h`` holds the full-step lengths, ``nbar_n`` and ``rate`` the photon
    numbers at the Gauss nodes and the frame rate per sub-step, and
    ``sample_edges`` the step edge of each sample: edge e is reached after
    full step e, sub-step 2*e. The step Hamiltonians are built, diagonalized
    and applied ``STEP_CHUNK`` sub-steps at a time. After each chunk its
    samples are copied into ``psis``, the count of samples written so far is
    appended to ``written`` and ``ready`` is released; an exception is
    appended in its place, not raised on this thread. The next chunk does not
    start once ``stop`` is set.
    """
    kvec = np.arange(strip_cfg.level_count)
    psi = psis[:, 0].T  # (K, states), as the kernel takes a block of states
    try:
        for lo in range(0, len(h), STEP_CHUNK // 2):  # lo: the chunk's first full step
            if stop.is_set():
                return
            hi = lo + STEP_CHUNK // 2
            part = slice(2 * lo, 2 * hi)
            # the bonds carry alpha where the lab Hamiltonian has conj(alpha), so a
            # drive at omega_d acts at 2*omega_r - omega_d; the mend flips this term's
            # sign and conjugates the lab reference in
            # test_gauge_optimization_matches_brute_force
            diag = strip_cfg.rotating_diagonal / 2 - kvec * rate[part, None] / (2 * np.pi)
            bonds = _cf4_substeps(bond_amplitudes(strip_cfg, nbar_n[lo:hi]))
            stack = tridiagonal_stack(diag, bonds)
            steps = evolve_piecewise_constant(stack, np.repeat(h[lo:hi], 2), psi)
            here = (sample_edges > lo) & (sample_edges <= hi)
            psis[:, here] = steps[2 * (sample_edges[here] - lo)].transpose(2, 0, 1)
            # a copy, so the chunk's states are not held while the next is built
            psi = steps[-1].copy()
            del steps
            written.append(np.searchsorted(sample_edges, hi, "right"))
            ready.release()
    except BaseException as error:  # raised again by the caller, with its traceback
        written.append(error)
        ready.release()


def propagate_states(config: SimulationConfig, states) -> list[PopulationTrace]:
    """``propagate`` for each prepared eigenstate in ``states``, in one pass.

    ``config.initial_state`` is ignored. The field, the step stack, the
    sample-time eigenbasis and its branch tracking are computed once for all
    states, a block at a time; the trace of each state is bitwise the one
    ``propagate`` returns for it.
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
    t_s, nbar_s = _sample_photons(drive, config.dt, config.sample_stride)
    # each state's samples are one contiguous (samples, K) array, so
    # reductions and products round as in a one-state run
    psis = np.empty((len(states), len(t_s), k_count), dtype=complex)
    psis[:, 0] = np.eye(k_count)[states]  # the first sample is t = 0
    sample_edges = np.searchsorted(edges, t_s)
    populations = np.empty(psis.shape)
    flagged = []
    written, ready, stop = deque(), threading.Semaphore(0), threading.Event()
    helper = threading.Thread(
        target=_step_samples,
        args=(strip_cfg, h, nbar_n, rate, sample_edges, psis, written, ready, stop),
    )
    helper.start()
    try:
        # instantaneous eigenbasis at sample times, tracked from the bare
        # labels; each block is read out once its states are in, and dropped
        filled, done = 1, 0  # the first sample, t = 0, is the prepared state
        for _, vectors, block_flags in _tracked_blocks(strip_cfg, nbar_s):
            block = slice(done, done + len(vectors))
            while filled < block.stop:
                ready.acquire()
                filled = written.popleft()
                if isinstance(filled, BaseException):
                    raise filled
            for pops, state_psis in zip(populations, psis):
                pops[block] = _populations(vectors, state_psis[block])
            del vectors  # not held while the tracker diagonalizes the next block
            flagged += block_flags
            done = block.stop
    finally:
        stop.set()  # stops the helper if the tracker raised
        helper.join()

    norms = np.linalg.norm(psis, axis=2)
    if not np.all(np.abs(norms - 1.0) <= NORM_TOL):
        raise RuntimeError(
            f"norm drifted to {np.max(np.abs(norms - 1.0)):.3g} (> {NORM_TOL}); "
            "propagator defect"
        )
    return [
        PopulationTrace(
            times=t_s.copy(),
            nbar=nbar_s.copy(),
            populations=pops,
            survival=pops[:, state].copy(),
            norm=norm,
            initial_state=state,
            flagged_samples=list(flagged),
        )
        for state, pops, norm in zip(states, populations, norms)
    ]


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
