"""Regression pin: a small sweep and two members no sweep reaches, against stored numbers.

``data/regression.npz`` holds the heatmaps, onsets and fit ``A``, ``B`` of a
2 x 2 x 2 sweep, and the survival and kink times of a tabulated-ramp and a
13 MHz field-detuned member at (1.1, 0.2). Values are compared within 1e-10,
so BLAS rounding passes and any change of method does not. Onsets are
compared exactly, which holds because no stored heatmap value lies within
1e-8 of the threshold, and ``A``, ``B`` to a relative 1e-12.

This module imports no scipy, so a numpy-only install runs it. After an
intended output change, rewrite the reference with
``PYTHONPATH=src python tests/test_regression.py``.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mistsim.dynamics import _sample_times, propagate
from mistsim.field import level_crossings
from mistsim.sweep import SweepConfig, run_sweep

REFERENCE = Path(__file__).with_name("data") / "regression.npz"
CONFIG = dict(delta_grid=[1.0, 1.1], n_g_grid=[-0.5, 0.0], initial_states=[0, 1], threshold=0.85)


def compute() -> dict[str, np.ndarray]:
    """Every pinned array, by its name in the reference."""
    config = SweepConfig(**CONFIG)
    result = run_sweep(config)
    data = {}
    for state in result.initial_states:
        data[f"heatmap{state}"] = result.heatmaps[state]
        data[f"onsets{state}"] = np.array([(p.delta, p.nbar_onset) for p in result.onsets[state]])
        fit = result.boundaries[state]
        data[f"fit{state}"] = np.array([fit.A, fit.B])
    sim = config.simulation(1.1, 0.2)
    ramp = (np.array([0.0, 30.0, 60.0, 100.0]), config.epsilon * np.array([0, 0.6, 1, 1]))
    drives = {
        "ramp": replace(sim.drive, envelope=ramp),
        "detuned": replace(sim.drive, omega_r_dressed=sim.drive.omega_r_dressed + 0.013),
    }
    grid = _sample_times(sim.drive.duration, sim.dt, 1)
    levels = np.arange(1, sim.strip.level_count - 1)
    for name, drive in drives.items():
        data[f"{name}_survival"] = propagate(replace(sim, drive=drive)).survival
        data[f"{name}_kinks"] = level_crossings(drive, grid, levels)[0]
    return data


@pytest.fixture(scope="module")
def computed():
    return compute()


@pytest.fixture(scope="module")
def reference():
    with np.load(REFERENCE) as stored:
        return dict(stored)


def test_same_arrays(computed, reference):
    assert sorted(computed) == sorted(reference)
    for name in computed:
        assert computed[name].shape == reference[name].shape, name


def test_no_heatmap_value_near_threshold(reference):
    for state in CONFIG["initial_states"]:
        assert np.min(np.abs(reference[f"heatmap{state}"] - CONFIG["threshold"])) > 1e-8


@pytest.mark.parametrize("state", CONFIG["initial_states"])
def test_sweep(computed, reference, state):
    heatmap = f"heatmap{state}"
    assert np.max(np.abs(computed[heatmap] - reference[heatmap])) < 1e-10
    assert len(reference[f"onsets{state}"]) == 2
    assert np.array_equal(computed[f"onsets{state}"], reference[f"onsets{state}"])
    np.testing.assert_allclose(computed[f"fit{state}"], reference[f"fit{state}"], rtol=1e-12)


@pytest.mark.parametrize("member", ["ramp", "detuned"])
def test_member(computed, reference, member):
    for name in (f"{member}_survival", f"{member}_kinks"):
        assert np.max(np.abs(computed[name] - reference[name])) < 1e-10, name


if __name__ == "__main__":
    REFERENCE.parent.mkdir(exist_ok=True)
    np.savez(REFERENCE, **compute())
