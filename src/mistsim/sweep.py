"""Detuning x offset-charge x initial-state sweeps with parallel workers.

Every (delta, n_g) point is one task: one ``member_survival`` call propagates
all initial states through the point's shared Hamiltonian stack and returns a
curve per (delta, n_g, state) member. Workers are stateless and results are
keyed by member, so the output is identical for any worker count. Wall-clock
metadata is kept out of the result files to preserve that.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, asdict
from multiprocessing import Pool

import numpy as np

from . import __version__
from .analysis import OnsetPoint, TransitionBoundary, boundary_to_dict, extract_onsets, fit_boundary
from .dynamics import SimulationConfig, SurvivalCurve, _sample_times, member_survival
from .field import DriveConfig, field_amplitude
from .strip import StripConfig, effective_hamiltonian, jtc_strip_hamiltonian
from .transmon import TransmonParams, diagonalize, ej_for_frequency

__all__ = [
    "SweepConfig",
    "SweepResult",
    "run_sweep",
    "run_oracle_check",
    "config_hash",
    "strip_for_detuning",
]

WORKERS_ENV_VAR = "MISTSIM_WORKERS"


def _default_delta_grid() -> list[float]:
    return [round(0.6 + 0.02 * i, 10) for i in range(51)]


def _default_ng_grid() -> list[float]:
    return [round(-0.50 + 0.05 * i, 10) for i in range(11)]


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
    n_g_grid: list[float] = field(default_factory=_default_ng_grid)
    initial_states: list[int] = field(default_factory=lambda: [0, 1])
    level_count: int = 20
    charge_cutoff: int = 30
    dt: float = 0.01
    sample_stride: int = 10
    threshold: float = 0.9
    nbar_step: float = 0.25
    workers: int | None = None
    out_dir: str | None = None

    def __post_init__(self):
        if (self.g is None) == (self.k_eff is None):
            raise ValueError("specify exactly one of g, k_eff")
        if len(self.delta_grid) == 0 or len(self.n_g_grid) == 0 or len(self.initial_states) == 0:
            raise ValueError("delta_grid, n_g_grid and initial_states must be non-empty")
        if any(b <= a for a, b in zip(self.delta_grid, self.delta_grid[1:])):
            raise ValueError("delta_grid must be strictly ascending")
        if not self.nbar_step > 0:
            raise ValueError(f"nbar_step must be positive, got {self.nbar_step}")
        if not (self.dt > 0 and self.sample_stride >= 1):
            raise ValueError("dt and sample_stride must be positive")
        # survival is read against nbar(t), which needs a monotone ring-up; a
        # drive detuned from the dressed resonator rings up and back down
        t_s = _sample_times(self.duration, self.dt, self.sample_stride)
        nbar = np.abs(field_amplitude(self.drive(), t_s)) ** 2
        if np.any(np.diff(nbar) < -1e-12):
            raise ValueError(
                "nbar(t) is not monotone: the drive at omega_d = "
                f"{self.resolved_omega_d} GHz is detuned from omega_r_dressed = "
                f"{self.resolved_omega_r_dressed} GHz"
            )
        if self.resolved_workers < 1:
            raise ValueError("worker count must be >= 1")

    @property
    def resolved_omega_d(self) -> float:
        return self.omega_d if self.omega_d is not None else self.omega_r

    @property
    def resolved_omega_r_dressed(self) -> float:
        return (
            self.omega_r_dressed
            if self.omega_r_dressed is not None
            else self.resolved_omega_d
        )

    @property
    def resolved_workers(self) -> int:
        if self.workers is not None:
            return self.workers
        return int(os.environ.get(WORKERS_ENV_VAR, "1"))

    def drive(self) -> DriveConfig:
        return DriveConfig(
            epsilon=self.epsilon,
            omega_d=self.resolved_omega_d,
            omega_r_dressed=self.resolved_omega_r_dressed,
            kappa=self.kappa,
            duration=self.duration,
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
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")

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
        header = [
            f"config_hash: {self.metadata['config_hash']}",
            f"tool_version: {self.metadata['tool_version']}",
            "units: delta GHz, nbar photons, values survival probability",
        ]
        for state in self.initial_states:
            path = os.path.join(out_dir, f"heatmap_state{state}.csv")
            with open(path, "w") as fh:
                for line in header + [f"initial_state: {state}"]:
                    fh.write(f"# {line}\n")
                fh.write("," + ",".join(f"{nb:.12g}" for nb in self.nbar_axis) + "\n")
                for i, delta in enumerate(self.delta_grid):
                    row = ",".join(f"{v:.12g}" for v in self.heatmaps[state][i])
                    fh.write(f"{delta:.12g},{row}\n")
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
            with open(os.path.join(out_dir, f"boundary_state{state}.json"), "w") as fh:
                json.dump(record, fh, indent=2, sort_keys=True)
                fh.write("\n")
        with open(os.path.join(out_dir, "run_info.json"), "w") as fh:
            json.dump(self.metadata, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _write_failure_artifacts(
    out_dir,
    nbar_axis: np.ndarray,
    completed: dict[tuple, np.ndarray],
    failed_point: tuple,
    states: list[int],
    completed_points: int,
    exc: Exception,
) -> None:
    """Partial survival curves plus a manifest naming the failed point."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "failed": {
            "delta": failed_point[0],
            "n_g": failed_point[1],
            "states": list(states),
            "error": f"{type(exc).__name__}: {exc}",
        },
        "completed_tasks": completed_points,
    }
    with open(os.path.join(out_dir, "failure_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    arrays = {"nbar_axis": nbar_axis}
    for (delta, n_g, state), curve in completed.items():
        arrays[f"delta{delta}_ng{n_g}_state{state}"] = curve
    np.savez(os.path.join(out_dir, "partial_curves.npz"), **arrays)


def _sweep_worker(task) -> list[np.ndarray]:
    """Survival curves of one (delta, n_g) point, one per state in ``task[3]``."""
    config_dict, e_j, n_g, states, nbar_axis = task
    config = SweepConfig.from_dict(config_dict)
    sim = SimulationConfig(
        strip=_strip_at(config, e_j, n_g),
        drive=config.drive(),
        dt=config.dt,
        sample_stride=config.sample_stride,
    )
    return member_survival(sim, states, nbar_axis)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run the full sweep and aggregate charge-averaged heatmaps and boundaries.

    Raises on the first failing point simulation, naming its (delta, n_g)
    coordinates and the states it carried. Results do not depend on worker
    count.
    """
    t_start = time.monotonic()
    nbar_axis = config.nbar_axis()
    e_j_per_delta = [
        ej_for_frequency(config.e_c, config.omega_r + delta, 0.0, config.charge_cutoff)
        for delta in config.delta_grid
    ]

    states = list(config.initial_states)
    tasks = []
    points = []
    cfg_dict = asdict(config)
    for i, delta in enumerate(config.delta_grid):
        for n_g in config.n_g_grid:
            tasks.append((cfg_dict, e_j_per_delta[i], n_g, states, nbar_axis))
            points.append((delta, n_g))

    workers = config.resolved_workers
    per_key: dict[tuple, np.ndarray] = {}
    done = 0
    try:
        with ExitStack() as stack:
            if workers == 1:
                results = map(_sweep_worker, tasks)
            else:
                pool = stack.enter_context(Pool(min(workers, len(tasks))))
                results = pool.imap(_sweep_worker, tasks)
            for (delta, n_g), curves in zip(points, results):
                for state, curve in zip(states, curves):
                    per_key[(delta, n_g, state)] = curve
                done += 1
    except Exception as exc:
        failed = points[done]
        if config.out_dir:
            _write_failure_artifacts(
                config.out_dir, nbar_axis, per_key, failed, states, done, exc
            )
        coordinates = ", ".join(f"state={state}" for state in states)
        raise RuntimeError(
            f"simulation failed at delta={failed[0]}, n_g={failed[1]}, {coordinates}"
        ) from exc

    heatmaps = {}
    onsets = {}
    boundaries: dict[int, TransitionBoundary | str] = {}
    for state in config.initial_states:
        heatmap = np.empty((len(config.delta_grid), len(nbar_axis)))
        for i, delta in enumerate(config.delta_grid):
            member = np.stack(
                [per_key[(delta, n_g, state)] for n_g in config.n_g_grid]
            )
            heatmap[i] = member.mean(axis=0)
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
        "workers": workers,
        "tasks": len(tasks),
        "members": len(tasks) * len(states),
    }
    result = SweepResult(
        delta_grid=np.asarray(config.delta_grid, float),
        nbar_axis=nbar_axis,
        initial_states=list(config.initial_states),
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
    e_j = ej_for_frequency(config.e_c, config.omega_r + delta, 0.0, config.charge_cutoff)
    return _strip_at(config, e_j, n_g)


def _strip_at(config: SweepConfig, e_j: float, n_g: float) -> StripConfig:
    """Strip model of the sweep's transmon with junction energy ``e_j`` at ``n_g``."""
    params = TransmonParams(
        e_c=config.e_c,
        e_j=e_j,
        n_g=n_g,
        charge_cutoff=config.charge_cutoff,
        level_count=config.level_count,
    )
    return StripConfig(
        eigen=diagonalize(params),
        omega_r=config.omega_r,
        omega_d=config.resolved_omega_d,
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
