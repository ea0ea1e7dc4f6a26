"""Detuning x offset-charge x initial-state sweeps with parallel workers.

This module owns the offset-charge grid and the average over it.
``SweepConfig.simulation``, which ``mistsim trace`` also calls, is the one
place a sweep config becomes a propagation job. ``run_sweep`` builds every
(delta, n_g) member with it before the pool starts, E_J solved once per
detuning by the memo of ``transmon.ej_for_frequency``; workers run
``_point_survival``, the one point computation, which only propagates all
initial states through the point's shared stack. ``charge_averaged_survival``
moves its member to each charge with ``StripConfig.at_charge`` and calls the
same function. Both average with ``_charge_average``, the one home of the
charge weights, over results kept in point order, so the output is identical
for any worker count; wall-clock metadata stays out of the result files.
Sample photon numbers come from ``dynamics._sample_photons`` alone, so the
heatmap axis ends at the members' last sample by construction.

``run_oracle_check`` checks the propagation's own stack builder
(``strip.bond_amplitudes`` and ``strip.tridiagonal_stack``) against the
exact excitation-number ladder, with one stacked eigensolve per side and
charge. At |alpha|^2 = N the builder's bonds are bitwise the ladder's, so
the check reads exactly 0.0 at the defaults; it fails when the builder
drops the Re(sqrt(nbar - k)) cutoff.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .analysis import OnsetPoint, TransitionBoundary, boundary_to_dict, extract_onsets, fit_boundary
from .dynamics import (
    SimulationConfig,
    SurvivalCurve,
    _check_monotone,
    _check_state,
    _check_step,
    _sample_photons,
    propagate_states,
    survival_vs_nbar,
)
from .field import DriveConfig
from .output import provenance, write_json, write_table
from .strip import (
    StripConfig,
    _check_coupling,
    bond_amplitudes,
    jtc_strip_hamiltonian,
    tridiagonal_stack,
)
from .transmon import TransmonParams, _check_integer, _store_fields, diagonalize, ej_for_frequency

__all__ = [
    "SweepConfig",
    "SweepResult",
    "run_sweep",
    "run_oracle_check",
    "config_hash",
    "strip_for_detuning",
    "charge_averaged_survival",
]

DEFAULT_DELTA_GRID = tuple(round(0.6 + 0.02 * i, 10) for i in range(51))
DEFAULT_NG_GRID = tuple(round(-0.50 + 0.05 * i, 10) for i in range(11))

# what a failed run leaves in its out_dir
_FAILURE_FILES = ("failure_manifest.json", "partial_curves.npz")
# a successful run's files besides run_info.json, one pair per initial state
_STATE_FILE = re.compile(r"heatmap_state(0|[1-9][0-9]*)\.csv|boundary_state(0|[1-9][0-9]*)\.json")

# photons the heatmap axis may reach past the members' last sample
AXIS_SLACK = 1e-12
# charges closer than this on the circle n_g mod 1 are one charge
CHARGE_TOL = 1e-9


def _check_charges(n_g_grid, name: str = "n_g_grid") -> None:
    """Reject an empty charge grid, or a repeated charge: it would weigh double.

    Every spectrum is 1-periodic in n_g, so charges repeat modulo 1. ``name``
    is the grid's name in the messages.
    """
    if len(n_g_grid) == 0:
        raise ValueError(f"{name} must be non-empty")
    n_g = np.asarray(n_g_grid, float)
    gap = np.abs(n_g[:, None] - n_g) % 1.0
    apart = np.minimum(gap, 1.0 - gap)[np.triu_indices(len(n_g), 1)]
    if np.any(apart < CHARGE_TOL):
        raise ValueError(f"{name} must not repeat modulo 1, got {n_g_grid}")


@dataclass
class SweepConfig:
    """Full sweep description; defaults reproduce the reference device values.

    Frequencies in GHz, times in ns, rates in 1/ns. ``workers`` and ``out_dir``
    are execution details and excluded from the configuration hash.
    """

    e_c: float = 0.194
    k_eff: float | None = 0.048
    g: float | None = None
    omega_r: float = 4.750
    omega_d: float | None = None
    omega_r_dressed: float | None = None
    kappa: float = 1.0 / 22.0
    epsilon: float = 0.045
    duration: float = 100.0
    delta_grid: list[float] = field(default_factory=lambda: list(DEFAULT_DELTA_GRID))
    n_g_grid: list[float] = field(default_factory=lambda: list(DEFAULT_NG_GRID))
    initial_states: list[int] = field(default_factory=lambda: [0, 1])
    level_count: int = TransmonParams.level_count
    charge_cutoff: int = TransmonParams.charge_cutoff
    dt: float = SimulationConfig.dt
    sample_stride: int = SimulationConfig.sample_stride
    threshold: float = 0.9
    nbar_step: float = 0.25
    workers: int = 1
    out_dir: str | None = None

    def __post_init__(self):
        # NaN passes range checks and fails deep in a sweep; a numpy float fails
        # json.dumps in config_hash, and an int hashes apart from its float
        _store_fields(self)
        # before the drive, whose omega_d defaults to omega_r
        if not self.omega_r > 0:
            raise ValueError(f"omega_r must be positive, got {self.omega_r}")
        _check_coupling(self.g, self.k_eff)
        # the transmon's own checks, without solving for E_J
        TransmonParams(self.e_c, 0.0, 0.0, self.charge_cutoff, self.level_count)
        if len(self.delta_grid) == 0 or len(self.initial_states) == 0:
            raise ValueError("delta_grid and initial_states must be non-empty")
        _check_charges(self.n_g_grid)
        if any(b <= a for a, b in zip(self.delta_grid, self.delta_grid[1:])):
            raise ValueError("delta_grid must be strictly ascending")
        if not self.nbar_step > 0:
            raise ValueError(f"nbar_step must be positive, got {self.nbar_step}")
        if not 0 < self.threshold < 1:
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")
        if len(set(self.initial_states)) != len(self.initial_states):
            raise ValueError(f"initial_states must not repeat, got {self.initial_states}")
        for state in self.initial_states:
            _check_state(state, self.level_count)
        drive = self.drive()
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        _check_step(self.dt, self.sample_stride, self.duration)
        _check_monotone(
            _sample_photons(drive, self.dt, self.sample_stride)[1],
            f": the drive at omega_d = {drive.omega_d} GHz is detuned from "
            f"omega_r_dressed = {drive.omega_r_dressed} GHz",
        )
        if self.workers < 1:
            raise ValueError(f"worker count must be >= 1, got {self.workers}")

    def drive(self) -> DriveConfig:
        """The drive; ``omega_d`` defaults to omega_r, ``omega_r_dressed`` to omega_d."""
        omega_d = self.omega_d if self.omega_d is not None else self.omega_r
        return DriveConfig(
            epsilon=self.epsilon,
            omega_d=omega_d,
            omega_r_dressed=(
                self.omega_r_dressed if self.omega_r_dressed is not None else omega_d
            ),
            kappa=self.kappa,
            duration=self.duration,
        )

    def simulation(
        self, delta: float, n_g: float = 0.0, initial_state: int = 0
    ) -> SimulationConfig:
        """Propagation job of the (delta, n_g, initial_state) member."""
        return SimulationConfig(
            strip=strip_for_detuning(self, delta, n_g),
            drive=self.drive(),
            initial_state=initial_state,
            dt=self.dt,
            sample_stride=self.sample_stride,
        )

    def nbar_axis(self) -> np.ndarray:
        """Heatmap axis: 0 to the members' last sample photon number, by ``nbar_step``."""
        end = _sample_photons(self.drive(), self.dt, self.sample_stride)[1][-1]
        return np.arange(0.0, end + AXIS_SLACK, self.nbar_step)

    def physics_dict(self) -> dict:
        d = asdict(self)
        d.pop("workers")
        d.pop("out_dir")
        return d

    def to_json(self, path) -> None:
        write_json(path, asdict(self))

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        # a config naming only g should displace the default k_eff
        if data.get("g") is not None and "k_eff" not in data:
            data = {**data, "k_eff": None}
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "SweepConfig":
        return cls.from_dict(_read_config(path))


def _read_config(path) -> dict:
    """The settings of the JSON config file at ``path``, which must hold an object."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object, got {type(data).__name__}")
    return data


def config_hash(config: SweepConfig) -> str:
    payload = json.dumps(config.physics_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class SweepResult:
    """Survival heatmaps, onset points and fitted boundaries per initial state."""

    delta_grid: np.ndarray
    nbar_axis: np.ndarray
    initial_states: list[int]
    heatmaps: dict[int, np.ndarray]
    onsets: dict[int, list[OnsetPoint]]
    boundaries: dict[int, TransitionBoundary | str]
    threshold: float
    metadata: dict

    def write(self, out_dir) -> None:
        """Result files (deterministic bytes) plus a separate run-info file."""
        os.makedirs(out_dir, exist_ok=True)
        header = provenance(
            self.metadata["config_hash"],
            "delta GHz, nbar photons, values survival probability",
        )
        for state in self.initial_states:
            write_table(
                os.path.join(out_dir, f"heatmap_state{state}.csv"),
                header + [f"initial_state: {state}"],
                ["", *self.nbar_axis],
                np.column_stack((self.delta_grid, self.heatmaps[state])),
            )
            record = {
                "config_hash": self.metadata["config_hash"],
                "tool_version": self.metadata["tool_version"],
                "initial_state": state,
                "threshold": self.threshold,
                "onsets": [p.to_dict() for p in self.onsets[state]],
            }
            boundary = self.boundaries[state]
            if isinstance(boundary, TransitionBoundary):
                record["boundary"] = boundary_to_dict(
                    boundary, self.threshold, np.asarray(self.delta_grid)
                )
            else:
                record["boundary_error"] = boundary
            write_json(os.path.join(out_dir, f"boundary_state{state}.json"), record)
        write_json(os.path.join(out_dir, "run_info.json"), self.metadata)


def _write_failure_artifacts(
    config: SweepConfig,
    points: list[tuple[float, float]],
    nbar_axis: np.ndarray,
    members: np.ndarray,
    done: int,
    exc: Exception,
) -> None:
    """Curves of the ``done`` completed points plus a manifest naming the next."""
    os.makedirs(config.out_dir, exist_ok=True)
    delta, n_g = points[done]
    manifest = {
        "failed": {
            "delta": delta,
            "n_g": n_g,
            "states": list(config.initial_states),
            "error": f"{type(exc).__name__}: {exc}",
        },
        "completed_tasks": done,
    }
    manifest_file, curves_file = _FAILURE_FILES
    write_json(os.path.join(config.out_dir, manifest_file), manifest)
    arrays = {"nbar_axis": nbar_axis}
    for (delta, n_g), curves in zip(points[:done], members):
        for state, curve in zip(config.initial_states, curves):
            arrays[f"delta{delta}_ng{n_g}_state{state}"] = curve
    np.savez(os.path.join(config.out_dir, curves_file), **arrays)


def _charge_average(curves: np.ndarray) -> np.ndarray:
    """Uniform mean over the charge axis (-2) of ``curves``: each charge weighs 1/len.

    Not the full-period weights of a grid folded onto [-0.5, 0]; see the
    charge-weights FOUND line in CHANGES.md.
    """
    return curves.mean(axis=-2)


def _point_survival(task) -> list[np.ndarray]:
    """Curves of a built point, one per state: ``task`` is (member, states, nbar_axis)."""
    member, states, nbar_axis = task
    curves = map(survival_vs_nbar, propagate_states(member, states))
    return [np.interp(nbar_axis, c.nbar_axis, c.survival_running_min) for c in curves]


def charge_averaged_survival(
    base: SimulationConfig,
    n_g_grid: np.ndarray | None = None,
    nbar_axis: np.ndarray | None = None,
) -> SurvivalCurve:
    """Uniform average of survival curves over an offset-charge grid.

    Member curves are interpolated onto a common photon-number axis (the
    members' own sample photon numbers unless one is given) and averaged by
    ``_charge_average``. Each member is the sweep's point computation at one
    charge. A given axis must ascend strictly from >= 0 and end no later than
    the members' last sample (plus ``AXIS_SLACK``): past it, interpolation
    would repeat the last survival value as if it had been computed.
    """
    if n_g_grid is None:
        n_g_grid = DEFAULT_NG_GRID
    _check_charges(n_g_grid)
    nbar_s = _sample_photons(base.drive, base.dt, base.sample_stride)[1]
    if nbar_axis is None:
        nbar_axis = nbar_s
    else:
        nbar_axis = np.asarray(nbar_axis, float)
        inside = (nbar_axis >= 0) & (nbar_axis <= nbar_s[-1] + AXIS_SLACK)
        # np.all of an empty axis is True
        if not (len(nbar_axis) and np.all(np.diff(nbar_axis) > 0) and np.all(inside)):
            raise ValueError(
                "nbar_axis must ascend strictly from >= 0 to at most the members' "
                f"last sample, nbar = {nbar_s[-1]}"
            )
    members = []
    for n_g in n_g_grid:
        try:
            member = replace(base, strip=base.strip.at_charge(n_g))
            members.append(_point_survival((member, [base.initial_state], nbar_axis))[0])
        except Exception as exc:
            raise RuntimeError(f"member simulation failed at n_g={n_g}") from exc
    return SurvivalCurve(
        nbar_axis=nbar_axis,
        survival_running_min=_charge_average(np.stack(members)),
    )


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run the full sweep and aggregate charge-averaged heatmaps and boundaries.

    ``config`` is checked again first, so a field set after construction
    fails here as it would in the constructor. Raises on the first failing
    point simulation, naming its (delta, n_g) coordinates and the states it
    carried; with ``out_dir`` set it writes the failure files there. When it
    starts, it removes every file a run writes from ``out_dir``, and nothing
    else, so no earlier run's results or failure files stay beside the new
    ones. Members are built before the pool starts; a failed build names no
    point. Results do not depend on worker count.
    """
    t_start = time.monotonic()
    config = replace(config)
    if config.out_dir and os.path.isdir(config.out_dir):
        for name in os.listdir(config.out_dir):
            if name in ("run_info.json", *_FAILURE_FILES) or _STATE_FILE.fullmatch(name):
                os.remove(os.path.join(config.out_dir, name))
    nbar_axis = config.nbar_axis()
    states = list(config.initial_states)
    points = [(delta, n_g) for delta in config.delta_grid for n_g in config.n_g_grid]
    tasks = [(config.simulation(delta, n_g), states, nbar_axis) for delta, n_g in points]

    # one row of curves per point, in point order
    members = np.empty((len(points), len(states), len(nbar_axis)))
    done = 0
    try:
        with ExitStack() as stack:
            if config.workers == 1:
                results = map(_point_survival, tasks)
            else:
                # imported here, so a process that starts no pool never loads it
                from multiprocessing import Pool

                pool = stack.enter_context(Pool(min(config.workers, len(tasks))))
                results = pool.imap(_point_survival, tasks)
            for curves in results:
                members[done] = curves
                done += 1
    except Exception as exc:
        if config.out_dir:
            _write_failure_artifacts(config, points, nbar_axis, members, done, exc)
        delta, n_g = points[done]
        coordinates = ", ".join(f"state={state}" for state in states)
        raise RuntimeError(
            f"simulation failed at delta={delta}, n_g={n_g}, {coordinates}"
        ) from exc

    members = members.reshape(len(config.delta_grid), len(config.n_g_grid), len(states), -1)
    heatmaps = {}
    onsets = {}
    boundaries: dict[int, TransitionBoundary | str] = {}
    for j, state in enumerate(states):
        heatmap = _charge_average(members[:, :, j])
        if not np.all((heatmap >= 0) & (heatmap <= 1 + 1e-9)):
            raise RuntimeError("survival heatmap left [0, 1]")
        heatmaps[state] = heatmap
        onsets[state] = extract_onsets(
            config.delta_grid, nbar_axis, heatmap, config.threshold, initial_state=state
        )
        try:
            boundaries[state] = fit_boundary(onsets[state])
        except ValueError:
            boundaries[state] = "insufficient points"

    metadata = {
        "config_hash": config_hash(config),
        "tool_version": __version__,
        "wall_time_s": round(time.monotonic() - t_start, 3),
        "workers": config.workers,
        "tasks": len(tasks),
        "members": len(tasks) * len(states),
    }
    result = SweepResult(
        delta_grid=np.asarray(config.delta_grid, float),
        nbar_axis=nbar_axis,
        initial_states=states,
        heatmaps=heatmaps,
        onsets=onsets,
        boundaries=boundaries,
        threshold=config.threshold,
        metadata=metadata,
    )
    if config.out_dir:
        result.write(config.out_dir)
    return result


def strip_for_detuning(config: SweepConfig, delta: float, n_g: float) -> StripConfig:
    """Strip model at one (detuning, offset charge) point of a sweep config.

    The junction energy is solved so the qubit sits at omega_r + delta
    (referenced at n_g = 0), then the transmon is diagonalized at ``n_g``.
    """
    params = TransmonParams(
        e_c=config.e_c,
        e_j=ej_for_frequency(config.e_c, config.omega_r + delta, config.charge_cutoff),
        n_g=n_g,
        charge_cutoff=config.charge_cutoff,
        level_count=config.level_count,
    )
    return StripConfig(
        eigen=diagonalize(params),
        omega_r=config.omega_r,
        g=config.g,
        k_eff=config.k_eff,
    )


def spectral_differences(strip_cfg: StripConfig, n_max: int) -> np.ndarray:
    """Max |eigenvalue difference| between the driven strip and the exact ladder.

    One value per total excitation number N = 0..n_max. The driven side is
    the propagation's own stack at |alpha|^2 = N, from ``bond_amplitudes``
    and ``tridiagonal_stack``. Its spectrum contains the N-excitation ladder
    spectrum plus the decoupled bare levels above N, so each ladder of
    ``jtc_strip_hamiltonian`` goes into the top left of the bare diagonal;
    the sorted spectra are compared entry by entry.
    """
    diag = strip_cfg.rotating_diagonal
    driven = tridiagonal_stack(diag, bond_amplitudes(strip_cfg, np.arange(n_max + 1)))
    ladders = np.broadcast_to(np.diag(diag), driven.shape).copy()
    for n in range(n_max + 1):
        dim = min(len(diag), n + 1)
        ladders[n, :dim, :dim] = jtc_strip_hamiltonian(strip_cfg, n)
    return np.max(np.abs(np.linalg.eigvalsh(driven) - np.linalg.eigvalsh(ladders)), axis=1)


def run_oracle_check(
    config: SweepConfig,
    delta: float = 1.1,
    n_g_values: tuple[float, ...] = (-0.5, -0.25, 0.0, 0.2),
    n_max: int | None = None,
    tolerance: float = 1e-12,
) -> dict:
    """Spectral identity check between the driven strip and the exact ladder.

    Scans total excitation numbers 0..3K (or ``n_max``) at each offset charge
    and reports the worst eigenvalue difference; passes iff below tolerance.
    The charges follow the sweep's rule: non-empty, no repeat modulo 1.
    """
    if n_max is None:
        n_max = 3 * config.level_count
    _check_integer("n_max", n_max)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    # no charge would mean no comparison, and "passed" would claim one
    _check_charges(n_g_values, "n_g_values")
    per_ng = {
        str(n_g): float(spectral_differences(strip_for_detuning(config, delta, n_g), n_max).max())
        for n_g in n_g_values
    }
    worst = max(per_ng.values())
    return {
        "delta": delta,
        "n_max": n_max,
        "tolerance": tolerance,
        "max_difference_per_ng": per_ng,
        "max_difference": worst,
        "passed": bool(worst < tolerance),
    }
