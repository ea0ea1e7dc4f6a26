"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import filecmp
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from mistsim.analysis import OnsetPoint, fit_boundary
from mistsim.dynamics import SimulationConfig, evolve_piecewise_constant, propagate, survival_vs_nbar
from mistsim.field import evolve_field_closed_form, evolve_field_numeric
from mistsim.strip import find_avoided_crossings, g_eff_perturbative
from mistsim.sweep import SweepConfig, run_oracle_check, run_sweep
from mistsim.transmon import TransmonParams, build_charge_hamiltonian, charge_dispersion, diagonalize

from conftest import E_C


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_spectral_oracle():
    t0 = time.monotonic()
    report = run_oracle_check(
        SweepConfig(),
        delta=1.1,
        n_g_values=(-0.5, -0.25, 0.0, 0.2),
        n_max=60,
        tolerance=1e-12,
    )
    elapsed = time.monotonic() - t0
    ok = report["passed"] and elapsed < 10.0
    _report(
        "1 spectral oracle",
        ok,
        f"max diff {report['max_difference']:.2e} GHz over N<=60, "
        f"4 offset charges, {elapsed:.1f}s",
    )


def test_criterion_2_reference_crossing(ref_strip, ref_fan, ref_trace):
    t0 = time.monotonic()
    records = find_avoided_crossings(ref_fan, min_gap=1e-3, max_gap=0.1)
    rec = next(r for r in records if (r.branch_a, r.branch_b) == (0, 9))
    ok_a = abs(rec.nbar_cross - 40.0) <= 6.0 and abs(rec.gap - 0.025) <= 0.005

    estimate = g_eff_perturbative(ref_strip, 9, rec.nbar_cross)
    ok_b = abs(estimate - 0.032) / 0.032 <= 0.10

    curve = survival_vs_nbar(ref_trace)
    below = curve.survival_running_min < 0.5
    first_below = curve.nbar_axis[int(np.argmax(below))] if below.any() else np.inf
    ok_c = below.any() and first_below >= rec.nbar_cross - np.sqrt(rec.nbar_cross)

    elapsed = time.monotonic() - t0
    _report(
        "2 reference avoided crossing",
        ok_a and ok_b and ok_c and elapsed < 60.0,
        f"crossing at nbar={rec.nbar_cross:.1f}, gap={rec.gap * 1e3:.1f} MHz, "
        f"g_eff={estimate * 1e3:.1f} MHz, survival<0.5 past nbar={first_below:.1f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_field_closed_form(ref_drive):
    t0 = time.monotonic()
    grid = np.linspace(0.0, 100.0, 2001)
    exact = evolve_field_closed_form(ref_drive, grid)
    numeric = evolve_field_numeric(ref_drive, grid)
    max_diff = float(np.max(np.abs(numeric.alpha - exact.alpha)))
    nbar_ss = ref_drive.steady_state_nbar
    elapsed = time.monotonic() - t0
    ok = max_diff < 1e-8 and abs(nbar_ss - 154.8) < 0.1 and elapsed < 1.0
    _report(
        "3 field closed form",
        ok,
        f"|numeric-exact| {max_diff:.1e}, steady state {nbar_ss:.1f} photons, "
        f"{elapsed:.2f}s",
    )


def test_criterion_4_unitarity_and_convergence(ref_sim, ref_trace):
    t0 = time.monotonic()
    norm_dev = float(np.max(np.abs(ref_trace.norm - 1.0)))
    fine = propagate(replace(ref_sim, dt=0.005, sample_stride=20))
    pop_diff = float(np.max(np.abs(fine.populations - ref_trace.populations)))
    elapsed = time.monotonic() - t0
    ok = norm_dev < 1e-6 and pop_diff < 1e-4 and elapsed < 60.0
    _report(
        "4 unitarity and dt convergence",
        ok,
        f"norm dev {norm_dev:.1e}, dt-halving pop change {pop_diff:.1e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_landau_zener():
    t0 = time.monotonic()
    coupling = 0.01  # GHz
    rates = (0.002, 0.0063246, 0.02)  # GHz/ns, spanning a decade
    dt = 0.01
    errors = []
    for slope in rates:
        half_window = 300.0 * coupling / slope
        steps = int(round(2 * half_window / dt))
        t_mid = -half_window + (np.arange(steps) + 0.5) * dt
        stack = np.zeros((steps, 2, 2))
        stack[:, 0, 0] = slope * t_mid / 2
        stack[:, 1, 1] = -slope * t_mid / 2
        stack[:, 0, 1] = coupling
        stack[:, 1, 0] = coupling
        psis = evolve_piecewise_constant(stack, dt, np.array([1.0, 0.0]))
        survived = abs(psis[-1][0]) ** 2
        # angular-unit transition formula for the diabatic passage
        predicted = np.exp(
            -2 * np.pi * (2 * np.pi * coupling) ** 2 / (2 * np.pi * slope)
        )
        errors.append(abs(survived - predicted) / predicted)
    elapsed = time.monotonic() - t0
    ok = max(errors) < 0.10 and elapsed < 60.0
    _report(
        "5 Landau-Zener property",
        ok,
        f"rel errors {[f'{e:.3f}' for e in errors]} across a decade of ramp "
        f"rates, {elapsed:.1f}s",
    )


def test_criterion_6_desk_scale_sweep():
    # The 0.85 threshold tracks single-feature onsets on this sparse 13-point
    # detuning grid; at the 0.9 default the 11-charge average only reacts once
    # two charges transition together, leaving too few fit points per state.
    t0 = time.monotonic()
    config = SweepConfig(
        delta_grid=[round(0.8 + 0.05 * i, 10) for i in range(13)],
        n_g_grid=[round(-0.50 + 0.05 * i, 10) for i in range(11)],
        initial_states=[0, 1],
        threshold=0.85,
    )
    result = run_sweep(config)
    deltas = np.asarray(config.delta_grid)

    ok_monotone = True
    ok_fits = True
    for state in (0, 1):
        onsets = np.array([p.nbar_onset for p in result.onsets[state]])
        ok_monotone &= len(onsets) >= 2 and bool(np.all(np.diff(onsets) > 0))
        boundary = result.boundaries[state]
        ok_fits &= not isinstance(boundary, str) and boundary.B > 0

    if ok_fits:
        fit0, fit1 = result.boundaries[0], result.boundaries[1]
        ratio = fit0.n_fit(deltas) / fit1.n_fit(deltas)
        geo_mean = float(np.exp(np.mean(np.log(ratio))))
        ok_ratio = 2.0 <= geo_mean <= 4.0
        ok_order = bool(np.all(fit1.boundary(deltas) < fit0.boundary(deltas)))
        detail_ratio = f"onset ratio geo-mean {geo_mean:.2f}"
    else:
        ok_ratio = ok_order = False
        detail_ratio = "fit unavailable"

    elapsed = time.monotonic() - t0
    ok = ok_monotone and ok_fits and ok_ratio and ok_order and elapsed < 900.0
    b_values = {
        s: (None if isinstance(result.boundaries[s], str) else round(result.boundaries[s].B, 2))
        for s in (0, 1)
    }
    _report(
        "6 desk-scale sweep",
        ok,
        f"kept onsets {[len(result.onsets[s]) for s in (0, 1)]}, B {b_values}, "
        f"{detail_ratio}, excited boundary below ground: {ok_order}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_boundary_fit_recovery():
    t0 = time.monotonic()
    deltas = [0.8, 1.0, 1.2]
    exact = [
        OnsetPoint(d, 10.0 * np.exp(2.0 * d), np.sqrt(10.0 * np.exp(2.0 * d)))
        for d in deltas
    ]
    fit = fit_boundary(exact)
    ok_exact = abs(fit.A - 10.0) / 10.0 < 1e-10 and abs(fit.B - 2.0) / 2.0 < 1e-10

    rng = np.random.default_rng(20240217)
    grid = np.linspace(0.8, 1.4, 7)
    hits = 0
    for _ in range(100):
        noisy = [
            OnsetPoint(d, 10.0 * np.exp(2.0 * d) * f, 1.0)
            for d, f in zip(grid, rng.uniform(0.9, 1.1, size=len(grid)))
        ]
        if abs(fit_boundary(noisy).B - 2.0) / 2.0 <= 0.15:
            hits += 1
    elapsed = time.monotonic() - t0
    ok = ok_exact and hits >= 95 and elapsed < 5.0
    _report(
        "7 boundary fit recovery",
        ok,
        f"exact to 1e-10: {ok_exact}, noisy B within 15% in {hits}/100 trials, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_transmon_eigensolver(ref_ej):
    t0 = time.monotonic()
    harmonic = diagonalize(TransmonParams(e_c=E_C, e_j=120 * E_C))
    coupling_err = abs(harmonic.couplings[1] / np.sqrt(2) - 1.0)
    asymptotic = np.sqrt(8 * 120) * E_C - E_C
    freq_err = abs(harmonic.qubit_frequency - asymptotic) / asymptotic

    params = TransmonParams(e_c=E_C, e_j=ref_ej)
    disp_1 = charge_dispersion(params, 1)
    raw = np.linalg.eigvalsh(build_charge_hamiltonian(params))[: params.level_count]
    barrier_level = int(np.argmin(np.abs(raw - ref_ej)))
    disp_top = charge_dispersion(params, barrier_level)

    elapsed = time.monotonic() - t0
    ok = (
        coupling_err < 0.05
        and freq_err < 0.02
        and disp_1 < 1e-4
        and 0.01 <= disp_top <= 1.0
        and elapsed < 10.0
    )
    _report(
        "8 transmon eigensolver",
        ok,
        f"coupling ratio err {coupling_err:.3f}, frequency err {freq_err:.3f}, "
        f"level-1 dispersion {disp_1 * 1e6:.2f} kHz, level-{barrier_level} "
        f"dispersion {disp_top * 1e3:.0f} MHz, {elapsed:.1f}s",
    )


def test_criterion_9_worker_determinism(tmp_path):
    t0 = time.monotonic()
    base = dict(
        delta_grid=[1.0, 1.1],
        n_g_grid=[-0.5, -0.25, 0.0],
        initial_states=[0, 1],
        duration=50.0,
    )
    dirs = []
    for workers in (1, 8):
        out = tmp_path / f"workers_{workers}"
        run_sweep(SweepConfig(**base, workers=workers, out_dir=str(out)))
        dirs.append(out)
    mismatched = []
    for name in sorted(os.listdir(dirs[0])):
        if name == "run_info.json":  # wall-time metadata lives here by design
            continue
        if not filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False):
            mismatched.append(name)
    elapsed = time.monotonic() - t0
    ok = not mismatched and elapsed < 300.0
    _report(
        "9 worker-count determinism",
        ok,
        f"result files byte-identical for 1 vs 8 workers "
        f"(mismatches: {mismatched or 'none'}), {elapsed:.0f}s",
    )
