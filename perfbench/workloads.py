"""The three benchmark workloads: seeded inputs, one operation, its check.

Every input is drawn from a fixed pool whose reference outputs are committed
in ``reference/`` (written by ``make_reference.py``). The program only sees the
generated inputs; the checks compare its outputs against those references.

Operations call the program through module attributes (``sweep.propagate``
style lookups happen inside the program), so the tracer in ``tracing.py``
sees every call once it has replaced those attributes.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

from mistsim import analysis, cli, dynamics, field, strip, sweep

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Desk-scale detuning grid of acceptance criterion 6; a sweep-desk op sweeps
# STRIP_WIDTH contiguous points of it, the least that still reaches the fit.
DESK_DELTAS = tuple(round(0.80 + 0.05 * i, 10) for i in range(13))
STRIP_WIDTH = 2
# criterion 6 uses 0.85 on this grid: at 0.9 the charge average rarely drops
# below threshold, leaving onset extraction and the fit with nothing to do
SWEEP_THRESHOLD = 0.85
SWEEP_WORKERS = 2

# member-mix: the four corners of the default (delta, n_g) grid and four
# interior points, times three drive kinds and both prepared states
MEMBER_POINTS = (
    (0.6, -0.5),
    (0.6, 0.0),
    (1.6, -0.5),
    (1.6, 0.0),
    (0.85, -0.35),
    (1.05, -0.2),
    (1.25, -0.1),
    (1.45, -0.4),
)
DRIVE_KINDS = ("resonant", "detuned", "tabulated")
STATES = (0, 1)
# tabulated envelope: epsilon ramps linearly to the square-drive value in 20 ns
RAMP_TIMES = (0.0, 20.0, 100.0)
RAMP_SHAPE = (0.0, 1.0, 1.0)

# spectrum: fan on 0..60 photons at 0.25 spacing, crossing window of `mistsim fan`
SPECTRUM_DELTAS = tuple(round(0.6 + 0.1 * i, 10) for i in range(11))
SPECTRUM_NG = tuple(round(-0.5 + 0.1 * i, 10) for i in range(6))
FAN_GRID = np.arange(0.0, 60.0 + 1e-12, 0.25)
MIN_GAP, MAX_GAP = 1e-4, 0.2

# References propagate at a quarter of the default step (the ROADMAP's
# accuracy line); outputs must agree within acceptance criterion 4's gate.
REF_DT = 0.0025
SURVIVAL_TOL = 1e-4
CROSSING_TOL = 1e-6  # photons, against the same-grid reference
GAP_TOL = 1e-9  # GHz
ORACLE_TOL = 1e-12  # GHz, acceptance criterion 1
CALIBRATION_RTOL = 1e-9


# ---------------------------------------------------------------- inputs


def member_inputs(seed: int):
    """Endless member stream; drive kinds cycle so the mix is fixed."""
    rng = np.random.default_rng(seed)
    i = 0
    while True:
        point = MEMBER_POINTS[int(rng.integers(len(MEMBER_POINTS)))]
        state = STATES[int(rng.integers(len(STATES)))]
        yield (point[0], point[1], DRIVE_KINDS[i % len(DRIVE_KINDS)], state)
        i += 1


def spectrum_inputs(seed: int):
    rng = np.random.default_rng(seed)
    while True:
        yield (
            SPECTRUM_DELTAS[int(rng.integers(len(SPECTRUM_DELTAS)))],
            SPECTRUM_NG[int(rng.integers(len(SPECTRUM_NG)))],
        )


def sweep_inputs(seed: int):
    rng = np.random.default_rng(seed)
    n_strips = len(DESK_DELTAS) - STRIP_WIDTH + 1
    while True:
        start = int(rng.integers(n_strips))
        yield DESK_DELTAS[start : start + STRIP_WIDTH]


def member_key(delta: float, n_g: float, kind: str, state: int) -> str:
    return f"{delta:g}/{n_g:g}/{kind}/{state}"


def point_key(delta: float, n_g: float) -> str:
    return f"{delta:g}/{n_g:g}"


def strip_key(deltas) -> str:
    return "/".join(f"{d:g}" for d in deltas)


# ---------------------------------------------------------------- operations


def member_configs(delta, n_g, kind, dressed_omega, dt=None, sample_stride=None):
    """(SweepConfig, DriveConfig) of one member; defaults are the sweep's."""
    if kind == "detuned":
        # drive at the dressed resonator frequency, as `mistsim calibrate`
        # reports it: the field is resonant, the strip frame is not
        config = sweep.SweepConfig(omega_d=dressed_omega, omega_r_dressed=dressed_omega)
    else:
        config = sweep.SweepConfig()
    if dt is not None:
        config.dt = dt
        config.sample_stride = sample_stride
    drive = config.drive()
    if kind == "tabulated":
        envelope = (np.array(RAMP_TIMES), config.epsilon * np.array(RAMP_SHAPE))
        drive = field.DriveConfig(
            epsilon=config.epsilon,
            omega_d=drive.omega_d,
            omega_r_dressed=drive.omega_r_dressed,
            kappa=drive.kappa,
            duration=drive.duration,
            envelope=envelope,
        )
    return config, drive


def run_member(config, drive, delta, n_g, state):
    """strip_for_detuning -> propagate -> survival_vs_nbar for one member."""
    strip_cfg = sweep.strip_for_detuning(config, delta, n_g)
    sim = dynamics.SimulationConfig(
        strip=strip_cfg,
        drive=drive,
        initial_state=state,
        dt=config.dt,
        sample_stride=config.sample_stride,
    )
    return dynamics.survival_vs_nbar(dynamics.propagate(sim))


def run_spectrum(config, delta, n_g):
    """Fan diagram, crossings, oracle and calibration at one (delta, n_g)."""
    strip_cfg = sweep.strip_for_detuning(config, delta, n_g)
    spectrum = strip.fan_diagram(strip_cfg, FAN_GRID)
    crossings = strip.find_avoided_crossings(spectrum, min_gap=MIN_GAP, max_gap=MAX_GAP)
    oracle = sweep.run_oracle_check(config, delta, (n_g,))
    params = analysis.DispersiveParams(
        g=strip_cfg.coupling,
        delta=delta,
        eta=strip_cfg.eigen.anharmonicity,
        omega_r=config.omega_r,
        omega_q=config.omega_r + delta,
    )
    dressed0, dressed1 = analysis.dressed_frequencies(params)
    calibration = [
        analysis.chi(params),
        dressed0,
        dressed1,
        analysis.n_crit(delta, strip_cfg.coupling),
    ]
    # perturbative estimate of every transition out of the ground branch
    g_eff = [
        strip.g_eff_perturbative(strip_cfg, c.branch_b, c.nbar_cross)
        for c in crossings
        if c.branch_a == 0
    ]
    return {
        "crossings": [[c.branch_a, c.branch_b, c.nbar_cross, c.gap] for c in crossings],
        "oracle_max_difference": oracle["max_difference"],
        "oracle_passed": oracle["passed"],
        "calibration": calibration,
        "g_eff": g_eff,
    }


def sweep_argv(deltas, out_dir, workers=SWEEP_WORKERS, n_g_grid=None, states=None):
    argv = ["sweep", "--delta-grid", *[repr(float(d)) for d in deltas]]
    if n_g_grid is not None:
        argv += ["--ng-grid", *[repr(float(n)) for n in n_g_grid]]
    if states is not None:
        argv += ["--states", *[str(s) for s in states]]
    argv += [
        "--threshold",
        repr(SWEEP_THRESHOLD),
        "--workers",
        str(workers),
        "--out",
        out_dir,
    ]
    return argv


def read_heatmap(path):
    """(nbar_axis, deltas, rows) from a heatmap_state{N}.csv file."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    axis = np.array([float(v) for v in lines[0].strip().split(",")[1:]])
    table = np.array([[float(v) for v in ln.strip().split(",")] for ln in lines[1:]])
    return axis, table[:, 0], table[:, 1:]


# ---------------------------------------------------------------- workloads


class Reference:
    def __init__(self):
        with open(os.path.join(REFERENCE_DIR, "reference.json")) as fh:
            self.meta = json.load(fh)
        with np.load(os.path.join(REFERENCE_DIR, "reference.npz")) as data:
            self.arrays = {k: data[k] for k in data.files}


class Workload:
    """One op kind: ``inputs(seed)`` streams inputs, ``run`` then ``check``."""

    name = ""
    members_per_op = 0  # (delta, n_g, state) members one op propagates
    runs_in_pool = False  # the op's work runs in worker processes

    def __init__(self, reference: Reference, scratch_dir: str):
        self.ref = reference
        self.scratch_dir = scratch_dir
        self.errors: list[float] = []

    def warm_up(self, seed: int) -> None:
        """One untimed op, outside the timed input stream."""
        self.check(*self.run(next(self.inputs(seed + 10_000))))


class MemberMix(Workload):
    name = "member-mix"
    members_per_op = 1
    error_name = "survival_err_max"
    error_unit = "probability"

    def inputs(self, seed):
        return member_inputs(seed)

    def run(self, inp):
        delta, n_g, kind, state = inp
        dressed = self.ref.meta["dressed_omega"][point_key(delta, n_g)]
        config, drive = member_configs(delta, n_g, kind, dressed)
        return inp, run_member(config, drive, delta, n_g, state)

    def check(self, inp, curve) -> bool:
        key = member_key(*inp)
        ref_nbar = self.ref.arrays[f"member_nbar:{key}"]
        ref_surv = self.ref.arrays[f"member_survival:{key}"]
        expected = np.interp(curve.nbar_axis, ref_nbar, ref_surv)
        err = float(np.max(np.abs(curve.survival_running_min - expected)))
        self.errors.append(err)
        return err <= SURVIVAL_TOL and curve.nbar_axis[-1] >= ref_nbar[-1] - 1e-9


class Spectrum(Workload):
    name = "spectrum"
    error_name = "crossing_err_max"
    error_unit = "photons"

    def __init__(self, reference, scratch_dir):
        super().__init__(reference, scratch_dir)
        self.config = sweep.SweepConfig()

    def inputs(self, seed):
        return spectrum_inputs(seed)

    def run(self, inp):
        return inp, run_spectrum(self.config, *inp)

    def check(self, inp, out) -> bool:
        ref = self.ref.meta["spectrum"][point_key(*inp)]
        got, want = out["crossings"], ref["crossings"]
        if [c[:2] for c in got] != [c[:2] for c in want]:
            self.errors.append(float("inf"))
            return False
        err = max((abs(g[2] - w[2]) for g, w in zip(got, want)), default=0.0)
        gap_err = max((abs(g[3] - w[3]) for g, w in zip(got, want)), default=0.0)
        self.errors.append(err)
        return (
            err <= CROSSING_TOL
            and gap_err <= GAP_TOL
            and out["oracle_passed"]
            and out["oracle_max_difference"] < ORACLE_TOL
            and len(out["g_eff"]) == len(ref["g_eff"])
            and np.allclose(out["g_eff"], ref["g_eff"], rtol=CALIBRATION_RTOL, atol=0)
            and np.allclose(out["calibration"], ref["calibration"], rtol=CALIBRATION_RTOL, atol=0)
        )


class SweepDesk(Workload):
    name = "sweep-desk"
    members_per_op = STRIP_WIDTH * 11 * len(STATES)
    runs_in_pool = True
    error_name = "heatmap_err_max"
    error_unit = "probability"

    def inputs(self, seed):
        return sweep_inputs(seed)

    def _out_dir(self):
        path = os.path.join(self.scratch_dir, "sweep_out")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def run(self, deltas, workers=SWEEP_WORKERS):
        out_dir = self._out_dir()
        return deltas, cli.main(sweep_argv(deltas, out_dir, workers)), out_dir

    def warm_up(self, seed):
        # a one-charge sweep through the same CLI path and worker pool; a full
        # strip would make set-up as long as a timed op
        deltas = next(self.inputs(seed + 10_000))
        argv = sweep_argv(deltas[:1], self._out_dir(), n_g_grid=[0.0], states=list(STATES))
        if cli.main(argv) != 0:
            raise RuntimeError("warm-up sweep failed")

    def check(self, deltas, code, out_dir) -> bool:
        if code != 0:
            return False
        ref = self.ref.meta["strips"][strip_key(deltas)]
        ref_axis = self.ref.arrays["sweep_nbar_axis"]
        ok = True
        err = 0.0
        for state in STATES:
            axis, got_deltas, rows = read_heatmap(
                os.path.join(out_dir, f"heatmap_state{state}.csv")
            )
            if len(axis) != len(ref_axis) or not np.allclose(axis, ref_axis, rtol=0, atol=1e-9):
                self.errors.append(float("inf"))
                return False
            ok &= np.allclose(got_deltas, deltas, rtol=0, atol=1e-12)
            for d, row in zip(deltas, rows):
                expected = self.ref.arrays[f"heatmap:{d:g}/{state}"]
                err = max(err, float(np.max(np.abs(row - expected))))
            with open(os.path.join(out_dir, f"boundary_state{state}.json")) as fh:
                record = json.load(fh)
            want = ref["boundaries"][str(state)]
            onsets = [[p["delta"], p["nbar_onset"]] for p in record["onsets"]]
            ok &= onsets == want["onsets"]
            if "fit" in want:
                got = record.get("boundary", {})
                ok &= bool(got) and np.allclose(
                    [got["A"], got["B"]], want["fit"], rtol=CALIBRATION_RTOL, atol=0
                )
            else:
                ok &= record.get("boundary_error") == want["error"]
        self.errors.append(err)
        return bool(ok) and err <= SURVIVAL_TOL


WORKLOADS = {cls.name: cls for cls in (SweepDesk, MemberMix, Spectrum)}
