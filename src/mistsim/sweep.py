"""Detuning x offset-charge x initial-state sweeps with parallel workers.

``SweepConfig.simulation`` is the one place a sweep config becomes a
propagation job. Every (delta, n_g) point is one task, carrying its
detuning's frozen base member (built once per detuning, at the first grid
charge). A worker rebuilds the base at its n_g, as ``charge_averaged_survival``
does, and one ``member_survival`` call propagates all initial states through
the point's shared Hamiltonian stack, returning a curve per (delta, n_g,
state) member. Workers are stateless and results are collected in task
order, so the output is identical for any worker count. Wall-clock metadata
is kept out of the result files to preserve that.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field, replace
from multiprocessing import Pool

import numpy as np

from . import __version__
from .analysis import OnsetPoint, TransitionBoundary, boundary_to_dict, extract_onsets, fit_boundary
from .dynamics import (
    DEFAULT_NG_GRID,
    SimulationConfig,
    SurvivalCurve,
    _check_state,
    _check_step,
    _rebuild_at_offset_charge,
    _sample_times,
    member_survival,
)
from .field import DriveConfig, field_amplitude
from .output import provenance, write_json, write_table
from .strip import StripConfig, effective_hamiltonian, jtc_strip_hamiltonian
from .transmon import TransmonParams, _check_integer, diagonalize, ej_for_frequency

__all__ = [
    "SweepConfig",
    "SweepResult",
    "run_sweep",
    "run_oracle_check",
    "config_hash",
    "strip_for_detuning",
]

_FLOAT_SETTINGS = (
    "e_c", "k_eff", "g", "omega_r", "omega_d", "omega_r_dressed", "kappa", "epsilon",
    "duration", "delta_grid", "n_g_grid", "dt", "threshold", "nbar_step",
)


def _default_delta_grid() -> list[float]:
    return [round(0.6 + 0.02 * i, 10) for i in range(51)]


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
    delta_grid: list[float] = field(default_factory=_default_delta_grid)
    n_g_grid: list[float] = field(default_factory=lambda: list(DEFAULT_NG_GRID))
    initial_states: list[int] = field(default_factory=lambda: [0, 1])
    level_count: int = 20
    charge_cutoff: int = 30
    dt: float = SimulationConfig.dt
    sample_stride: int = SimulationConfig.sample_stride
    threshold: float = 0.9
    nbar_step: float = 0.25
    workers: int = 1
    out_dir: str | None = None

    def __post_init__(self):
        # NaN or inf passes some range checks below and fails deep in a sweep
        for name in _FLOAT_SETTINGS:
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")
        if (self.g is None) == (self.k_eff is None):
            raise ValueError("specify exactly one of g, k_eff")
        coupling = self.g if self.g is not None else self.k_eff
        if not coupling > 0:
            raise ValueError(f"g or k_eff must be positive, got {coupling}")
        # the transmon's own checks, without solving for E_J
        TransmonParams(self.e_c, 0.0, 0.0, self.charge_cutoff, self.level_count)
        if len(self.delta_grid) == 0 or len(self.n_g_grid) == 0 or len(self.initial_states) == 0:
            raise ValueError("delta_grid, n_g_grid and initial_states must be non-empty")
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
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        _check_step(self.dt, self.sample_stride, self.duration)
        # survival is read against nbar(t), which needs a monotone ring-up; a
        # drive detuned from the dressed resonator rings up and back down
        drive = self.drive()
        t_s = _sample_times(self.duration, self.dt, self.sample_stride)
        nbar = np.abs(field_amplitude(drive, t_s)) ** 2
        if np.any(np.diff(nbar) < -1e-12):
            raise ValueError(
                f"nbar(t) is not monotone: the drive at omega_d = {drive.omega_d} "
                f"GHz is detuned from omega_r_dressed = {drive.omega_r_dressed} GHz"
            )
        _check_integer("workers", self.workers)
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
        end = abs(field_amplitude(self.drive(), np.array([self.duration]))[0]) ** 2
        return np.arange(0.0, end + 1e-12, self.nbar_step)

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
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


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


def _task_point(config: SweepConfig, task: int) -> tuple[float, float]:
    """(delta, n_g) of sweep task ``task``; tasks run n_g fastest."""
    i, k = divmod(task, len(config.n_g_grid))
    return config.delta_grid[i], config.n_g_grid[k]


def _write_failure_artifacts(
    config: SweepConfig,
    nbar_axis: np.ndarray,
    members: np.ndarray,
    done: int,
    exc: Exception,
) -> None:
    """Curves of the ``done`` completed tasks plus a manifest naming the next."""
    os.makedirs(config.out_dir, exist_ok=True)
    delta, n_g = _task_point(config, done)
    manifest = {
        "failed": {
            "delta": delta,
            "n_g": n_g,
            "states": list(config.initial_states),
            "error": f"{type(exc).__name__}: {exc}",
        },
        "completed_tasks": done,
    }
    write_json(os.path.join(config.out_dir, "failure_manifest.json"), manifest)
    arrays = {"nbar_axis": nbar_axis}
    for task in range(done):
        delta, n_g = _task_point(config, task)
        for state, curve in zip(config.initial_states, members[task]):
            arrays[f"delta{delta}_ng{n_g}_state{state}"] = curve
    np.savez(os.path.join(config.out_dir, "partial_curves.npz"), **arrays)


def _sweep_worker(task) -> list[np.ndarray]:
    """Survival curves of one (delta, n_g) point, one per state in ``task[2]``."""
    base, n_g, states, nbar_axis = task
    return member_survival(_rebuild_at_offset_charge(base, n_g), states, nbar_axis)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run the full sweep and aggregate charge-averaged heatmaps and boundaries.

    ``config`` is checked again first, so a field set after construction
    fails here as it would in the constructor. Raises on the first failing
    point simulation, naming its (delta, n_g) coordinates and the states it
    carried. Results do not depend on worker count.
    """
    t_start = time.monotonic()
    config = replace(config)
    nbar_axis = config.nbar_axis()
    states = list(config.initial_states)
    tasks = []
    for delta in config.delta_grid:
        base = config.simulation(delta, config.n_g_grid[0])
        tasks.extend((base, n_g, states, nbar_axis) for n_g in config.n_g_grid)

    # one row of curves per task, in task order
    members = np.empty((len(tasks), len(states), len(nbar_axis)))
    done = 0
    try:
        with ExitStack() as stack:
            if config.workers == 1:
                results = map(_sweep_worker, tasks)
            else:
                pool = stack.enter_context(Pool(min(config.workers, len(tasks))))
                results = pool.imap(_sweep_worker, tasks)
            for curves in results:
                members[done] = curves
                done += 1
    except Exception as exc:
        if config.out_dir:
            _write_failure_artifacts(config, nbar_axis, members, done, exc)
        delta, n_g = _task_point(config, done)
        coordinates = ", ".join(f"state={state}" for state in states)
        raise RuntimeError(
            f"simulation failed at delta={delta}, n_g={n_g}, {coordinates}"
        ) from exc

    members = members.reshape(len(config.delta_grid), len(config.n_g_grid), len(states), -1)
    heatmaps = {}
    onsets = {}
    boundaries: dict[int, TransitionBoundary | str] = {}
    for j, state in enumerate(states):
        heatmap = members[:, :, j].mean(axis=1)
        if np.any(heatmap < 0) or np.any(heatmap > 1 + 1e-9):
            raise RuntimeError("survival heatmap left [0, 1]")
        heatmaps[state] = heatmap
        curves = [
            (delta, SurvivalCurve(nbar_axis, heatmap[i]))
            for i, delta in enumerate(config.delta_grid)
        ]
        onsets[state] = extract_onsets(curves, config.threshold, initial_state=state)
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


def spectral_difference(strip_cfg: StripConfig, n_total: int) -> float:
    """Max |eigenvalue difference| between the driven strip and the exact ladder.

    The driven-strip spectrum at |alpha|^2 = N contains the N-excitation
    ladder spectrum plus the decoupled bare levels above N; both sorted sets
    are compared entry by entry.
    """
    eff = np.linalg.eigvalsh(effective_hamiltonian(strip_cfg, np.sqrt(float(n_total))))
    ladder = np.linalg.eigvalsh(jtc_strip_hamiltonian(strip_cfg, n_total))
    dim = len(ladder)
    bare_tail = strip_cfg.rotating_diagonal[dim:]
    combined = np.sort(np.concatenate([ladder, bare_tail]))
    return float(np.max(np.abs(eff - combined)))


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
    """
    if n_max is None:
        n_max = 3 * config.level_count
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    per_ng = {}
    worst = 0.0
    for n_g in n_g_values:
        strip_cfg = strip_for_detuning(config, delta, n_g)
        diffs = [spectral_difference(strip_cfg, n) for n in range(n_max + 1)]
        per_ng[n_g] = max(diffs)
        worst = max(worst, per_ng[n_g])
    return {
        "delta": delta,
        "n_max": n_max,
        "tolerance": tolerance,
        "max_difference_per_ng": {str(k): v for k, v in per_ng.items()},
        "max_difference": worst,
        "passed": bool(worst < tolerance),
    }
