"""Schrodinger propagation of the transmon under the ring-up field.

Each time step applies the exact exponential of the Hamiltonian frozen at the
midpoint (time and field), via spectral decomposition; unitarity is then exact
up to rounding, with no stiffness tuning. Populations of the instantaneous
eigenstates are sampled on a coarser grid, with branch identity carried from
the bare labels at alpha = 0 by maximal eigenvector overlap.
``evolve_piecewise_constant`` is the one step kernel, and ``member_survival``
the one survival computation behind both the sweep and
``charge_averaged_survival``.

Internally the propagation runs in a rotated gauge where the bond phase
u(t) = (alpha/|alpha|) * exp(i*2*pi*(omega_r - omega_d)*t) is peeled off into
diagonal phase factors u^k, leaving a real symmetric tridiagonal matrix per
step. When u(t) varies in time the kernel's ``frame`` argument applies the
phase factors around each step, so the state stays in the lab gauge; when it
is constant (every resonant sweep member) no frame is needed. Observables
(populations, norms) are identical to the lab-gauge ones.

The Hamiltonian depends on the strip and the drive, not on the prepared
state. ``propagate_states`` therefore builds, diagonalizes and branch-tracks
both stacks once and carries every prepared state through them; each state
still gets its own matrix-vector products, so its numbers are bitwise those
of a one-state run. ``propagate`` is its one-state form, and
``member_survival`` takes all states of one (strip, drive) point together.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .field import DriveConfig, field_amplitude
from .strip import StripConfig, bond_amplitudes, track_branches, tridiagonal_stack
from .transmon import diagonalize

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
DEFAULT_NG_GRID = np.round(np.arange(-0.50, 0.0 + 1e-9, 0.05), 10)


@dataclass(frozen=True)
class SimulationConfig:
    """One (strip, drive, initial state) propagation job."""

    strip: StripConfig
    drive: DriveConfig
    initial_state: int = 0
    dt: float = 0.01
    sample_stride: int = 10

    def __post_init__(self):
        if not 0 < self.dt <= 0.05:
            raise ValueError(f"dt must be in (0, 0.05] ns, got {self.dt}")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")
        _check_state(self.initial_state, self.strip.level_count)


def _check_state(state: int, level_count: int) -> None:
    if not 0 <= state < level_count:
        raise ValueError(
            f"initial_state {state} outside the {level_count} tracked levels"
        )


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
        n_branches = self.populations.shape[1]
        with open(path, "w") as fh:
            for line in header_lines or []:
                fh.write(f"# {line}\n")
            cols = ",".join(f"pop_branch_{j}" for j in range(n_branches))
            fh.write(f"t_ns,nbar,norm,{cols}\n")
            for i in range(len(self.times)):
                pops = ",".join(f"{p:.12g}" for p in self.populations[i])
                fh.write(
                    f"{self.times[i]:.12g},{self.nbar[i]:.12g},"
                    f"{self.norm[i]:.12g},{pops}\n"
                )


@dataclass
class SurvivalCurve:
    """Running-minimum survival probability on a monotone photon-number axis."""

    nbar_axis: np.ndarray
    survival_running_min: np.ndarray

    def to_csv(self, path, header_lines: list[str] | None = None) -> None:
        with open(path, "w") as fh:
            for line in header_lines or []:
                fh.write(f"# {line}\n")
            fh.write("nbar,survival\n")
            for nb, s in zip(self.nbar_axis, self.survival_running_min):
                fh.write(f"{nb:.12g},{s:.12g}\n")


def evolve_piecewise_constant(
    hamiltonians: np.ndarray,
    dt: float,
    psi0: np.ndarray,
    sample_stride: int = 1,
    frame: np.ndarray | None = None,
) -> np.ndarray:
    """Apply exp(-i*2*pi*H_s*dt) step by step; return states at sample points.

    ``hamiltonians`` is a (steps, K, K) Hermitian stack (GHz), one matrix per
    step, already evaluated at whatever instant the caller chose (midpoint for
    second-order accuracy). An optional (steps, K) ``frame`` of diagonal phase
    factors D_s makes step s apply D_s exp(-i*2*pi*H_s*dt) D_s^dag instead,
    which lets a real gauge-rotated stack drive a lab-gauge state. The
    returned array holds the state before any step, after every
    ``sample_stride`` steps, and after the final step.

    ``psi0`` is one (K,) state, giving a (samples, K) result, or a (K, m)
    block of m states in its columns, giving (samples, K, m). The
    eigendecomposition is shared; each state is stepped by its own
    matrix-vector products, so column j is bitwise the one-state result for
    ``psi0[:, j]`` (a matrix-matrix product would round differently).
    """
    steps = hamiltonians.shape[0]
    evals, evecs = np.linalg.eigh(hamiltonians)
    evecs_h = evecs.conj().transpose(0, 2, 1)  # a view when the stack is real
    phases = np.exp(-2j * np.pi * evals * dt)
    frame_c = None if frame is None else np.conj(frame)
    start = np.asarray(psi0, dtype=complex)
    # one contiguous (K,) array per state, replaced at every step
    psi = [np.array(column) for column in np.atleast_2d(start.T)]
    out = [psi]
    for s in range(steps):
        v, vh, p = evecs[s], evecs_h[s], phases[s]
        if frame is None:
            psi = [v @ (p * (vh @ x)) for x in psi]
        else:
            d, dc = frame[s], frame_c[s]
            psi = [d * (v @ (p * (vh @ (dc * x)))) for x in psi]
        if (s + 1) % sample_stride == 0 or s == steps - 1:
            out.append(psi)
    states = np.array(out).transpose(0, 2, 1)
    return states[:, :, 0] if start.ndim == 1 else states


def _sample_times(duration: float, dt: float, stride: int) -> np.ndarray:
    """Times (ns) of the states ``propagate`` samples: every stride, and the end."""
    steps = int(round(duration / dt))
    return np.minimum(np.arange(0, steps + stride, stride), steps) * dt


def _gauge(strip: StripConfig, alpha: np.ndarray, mag: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Bond phase u(t) = (alpha/|alpha|) * exp(i*2*pi*(omega_r - omega_d)*t).

    ``mag`` is |alpha| as the caller computed it (|alpha| or sqrt(nbar)), so
    the phase rounds exactly as the stack it belongs to.
    """
    unit = np.where(mag > 0, alpha / np.where(mag > 0, mag, 1.0), 1.0)
    theta = 2 * np.pi * (strip.omega_r - strip.omega_d)
    return unit * np.exp(1j * theta * t)


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
    k_count = strip_cfg.level_count
    states = [int(state) for state in states]
    for state in states:
        _check_state(state, k_count)
    dt = config.dt
    steps = int(round(config.drive.duration / dt))
    diag = strip_cfg.rotating_diagonal
    kvec = np.arange(k_count)

    t_mid = (np.arange(steps) + 0.5) * dt
    alpha_mid = field_amplitude(config.drive, t_mid)
    unit = _gauge(strip_cfg, alpha_mid, np.abs(alpha_mid), t_mid)
    # lab-gauge state from the real rotated-gauge stack: D = diag(conj(u)^k);
    # a constant gauge leaves the populations of a bare start state unchanged
    gauge_varies = bool(np.any(np.abs(np.diff(unit)) > 1e-15))
    frame = np.conj(unit)[:, None] ** kvec[None, :] if gauge_varies else None
    block = evolve_piecewise_constant(
        tridiagonal_stack(diag, bond_amplitudes(strip_cfg, np.abs(alpha_mid) ** 2)),
        dt,
        np.eye(k_count)[:, states],
        config.sample_stride,
        frame,
    )

    # instantaneous eigenbasis at sample times, tracked from the bare labels
    t_s = _sample_times(config.drive.duration, dt, config.sample_stride)
    alpha_s = field_amplitude(config.drive, t_s)
    nbar_s = np.abs(alpha_s) ** 2
    _, evecs_s = np.linalg.eigh(tridiagonal_stack(diag, bond_amplitudes(strip_cfg, nbar_s)))
    if gauge_varies:
        unit_s = _gauge(strip_cfg, alpha_s, np.sqrt(nbar_s), t_s)
    columns, flagged = track_branches(evecs_s)

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
            # back to the rotated gauge. The power is left a temporary on
            # purpose: above 256 kB numpy multiplies into it in place, which
            # swaps the product's operands; hoisting it out of the loop moves
            # the last bit of the populations on 100 ns drives
            psis = psis * (unit_s[:, None] ** kvec[None, :])
        populations = np.array(
            [np.abs(v[:, c].T @ psi) ** 2 for v, c, psi in zip(evecs_s, columns, psis)]
        )
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
