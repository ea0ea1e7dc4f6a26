"""Write the benchmark's fixed reference data to reference/.

    python3 perfbench/make_reference.py

Every pool member is propagated at dt = 0.0025 ns, a quarter of the default
step; sweep-desk heatmaps are charge averages of such members. Spectrum
references (crossings, oracle differences, calibration values) use the same
grid as the benchmark op. The default-step outputs are computed as well and
their largest distance from the references is recorded, so the committed
tolerance can be seen to hold for the code that wrote the data. Takes about
ten minutes on two cores and about 1 GB of memory.
"""

from __future__ import annotations

import json
import os
import sys
import time
from multiprocessing import get_context

import bootstrap

bootstrap.prepare()

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from mistsim import analysis, dynamics, sweep  # noqa: E402


def _dressed_omega(delta: float, n_g: float) -> float:
    config = sweep.SweepConfig()
    strip_cfg = sweep.strip_for_detuning(config, delta, n_g)
    params = analysis.DispersiveParams(
        g=strip_cfg.coupling,
        delta=delta,
        eta=strip_cfg.eigen.anharmonicity,
        omega_r=config.omega_r,
        omega_q=config.omega_r + delta,
    )
    return analysis.dressed_frequencies(params)[0]


def _member(task):
    delta, n_g, kind, state, dressed = task
    default, drive = wl.member_configs(delta, n_g, kind, dressed)
    stride = round(default.dt * default.sample_stride / wl.REF_DT)
    config, drive_ref = wl.member_configs(delta, n_g, kind, dressed, wl.REF_DT, stride)
    ref = wl.run_member(config, drive_ref, delta, n_g, state)
    got = wl.run_member(default, drive, delta, n_g, state)
    err = np.max(np.abs(got.survival_running_min - np.interp(got.nbar_axis, ref.nbar_axis, ref.survival_running_min)))
    return ref.nbar_axis, ref.survival_running_min, float(err)


def _sweep(dt: float, stride: int, workers: int) -> sweep.SweepResult:
    return sweep.run_sweep(
        sweep.SweepConfig(
            delta_grid=list(wl.DESK_DELTAS),
            threshold=wl.SWEEP_THRESHOLD,
            dt=dt,
            sample_stride=stride,
            workers=workers,
        )
    )


def _strip_boundaries(result: sweep.SweepResult, deltas) -> dict:
    rows = [wl.DESK_DELTAS.index(d) for d in deltas]
    out = {}
    for state in wl.STATES:
        curves = [
            (d, dynamics.SurvivalCurve(result.nbar_axis, result.heatmaps[state][i]))
            for d, i in zip(deltas, rows)
        ]
        onsets = analysis.extract_onsets(curves, wl.SWEEP_THRESHOLD, initial_state=state)
        record = {"onsets": [[p.delta, p.nbar_onset] for p in onsets]}
        try:
            fit = analysis.fit_boundary(onsets)
            record["fit"] = [fit.A, fit.B]
        except ValueError:
            record["error"] = "insufficient points"
        out[str(state)] = record
    return out


def main() -> int:
    workers = 2
    t0 = time.monotonic()
    meta = {"environment": bootstrap.environment(), "ref_dt": wl.REF_DT}
    arrays = {}

    dressed = {wl.point_key(*p): _dressed_omega(*p) for p in wl.MEMBER_POINTS}
    meta["dressed_omega"] = dressed
    tasks = [
        (d, n, kind, state, dressed[wl.point_key(d, n)])
        for d, n in wl.MEMBER_POINTS
        for kind in wl.DRIVE_KINDS
        for state in wl.STATES
    ]
    with get_context("fork").Pool(workers) as pool:
        members = pool.map(_member, tasks, chunksize=1)
    member_err = {}
    for task, (nbar, surv, err) in zip(tasks, members):
        key = wl.member_key(*task[:4])
        arrays[f"member_nbar:{key}"] = nbar
        arrays[f"member_survival:{key}"] = surv
        member_err[key] = err
    meta["member_default_dt_err"] = member_err
    print(f"members done, max default-dt error {max(member_err.values()):.3g}", file=sys.stderr)

    default = sweep.SweepConfig()
    stride = round(default.dt * default.sample_stride / wl.REF_DT)
    refined = _sweep(wl.REF_DT, stride, workers)
    coarse = _sweep(default.dt, default.sample_stride, workers)
    arrays["sweep_nbar_axis"] = refined.nbar_axis
    heatmap_err = 0.0
    for state in wl.STATES:
        for i, d in enumerate(wl.DESK_DELTAS):
            arrays[f"heatmap:{d:g}/{state}"] = refined.heatmaps[state][i]
        heatmap_err = max(heatmap_err, float(np.max(np.abs(refined.heatmaps[state] - coarse.heatmaps[state]))))
    meta["heatmap_default_dt_err"] = heatmap_err
    strips = {}
    mismatched = []
    for start in range(len(wl.DESK_DELTAS) - wl.STRIP_WIDTH + 1):
        deltas = wl.DESK_DELTAS[start : start + wl.STRIP_WIDTH]
        strips[wl.strip_key(deltas)] = {"boundaries": _strip_boundaries(refined, deltas)}
        if _strip_boundaries(coarse, deltas) != strips[wl.strip_key(deltas)]["boundaries"]:
            mismatched.append(wl.strip_key(deltas))
    meta["strips"] = strips
    meta["strips_differing_at_default_dt"] = mismatched
    print(f"sweeps done, max default-dt error {heatmap_err:.3g}, onset mismatches {mismatched}", file=sys.stderr)

    config = sweep.SweepConfig()
    meta["spectrum"] = {
        wl.point_key(d, n): wl.run_spectrum(config, d, n)
        for d in wl.SPECTRUM_DELTAS
        for n in wl.SPECTRUM_NG
    }
    meta["generation_s"] = round(time.monotonic() - t0, 1)

    os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
    np.savez_compressed(os.path.join(wl.REFERENCE_DIR, "reference.npz"), **arrays)
    with open(os.path.join(wl.REFERENCE_DIR, "reference.json"), "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote reference data in {meta['generation_s']} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
