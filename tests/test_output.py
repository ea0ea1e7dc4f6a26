"""Result-file bytes: golden outputs of every table and record writer.

The inputs are tiny and hand-built so each file can be spelled out in full.
They include an integer, 1e-13, negative values and a complex field amplitude,
which pin the ``.12g`` number format, the column rows and the JSON layout.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import mistsim
from mistsim.analysis import OnsetPoint, TransitionBoundary
from mistsim.dynamics import PopulationTrace, SurvivalCurve
from mistsim.field import FieldTrajectory
from mistsim.strip import SpectrumResult
from mistsim.sweep import SweepResult

HEATMAP_HEADER = (
    "# config_hash: 0123456789abcdef\n"
    f"# tool_version: {mistsim.__version__}\n"
    "# units: delta GHz, nbar photons, values survival probability\n"
)


def test_trace_csv_bytes(tmp_path):
    trace = PopulationTrace(
        times=np.array([0, 2]),
        nbar=np.array([0.0, 1e-13]),
        populations=np.array([[1.0, 0.0], [0.75, -2.5e-3]]),
        survival=np.array([1.0, 0.75]),
        norm=np.array([1, 0.999999999999]),
        initial_state=0,
        flagged_samples=[],
    )
    trace.to_csv(tmp_path / "trace.csv", ["a: 1", "b"])
    assert (tmp_path / "trace.csv").read_text() == (
        "# a: 1\n# b\n"
        "t_ns,nbar,norm,pop_branch_0,pop_branch_1\n"
        "0,0,1,1,0\n"
        "2,1e-13,0.999999999999,0.75,-0.0025\n"
    )


def test_survival_csv_bytes(tmp_path):
    curve = SurvivalCurve(np.array([0, 0.25, 1e-13]), np.array([1, -0.5, 1 / 3]))
    curve.to_csv(tmp_path / "survival.csv")
    assert (tmp_path / "survival.csv").read_text() == (
        "nbar,survival\n0,1\n0.25,-0.5\n1e-13,0.333333333333\n"
    )


def test_field_csv_bytes(tmp_path):
    alpha = np.array([0j, -1.5 + 1e-13j, 0.5 - 2j])
    traj = FieldTrajectory.from_alpha(np.array([0, 0.5, 1]), alpha)
    traj.to_csv(tmp_path / "field.csv", ["units: t ns"])
    assert (tmp_path / "field.csv").read_text() == (
        "# units: t ns\n"
        "t_ns,re_alpha,im_alpha,nbar\n"
        "0,0,0,0\n"
        "0.5,-1.5,1e-13,2.25\n"
        "1,0.5,-2,4.25\n"
    )


def test_fan_csv_bytes(tmp_path):
    spectrum = SpectrumResult(np.array([0, 0.5]), np.array([[-1.5, 1e-13], [2, 1 / 3]]))
    spectrum.to_csv(tmp_path / "fan.csv")
    assert (tmp_path / "fan.csv").read_text() == (
        "nbar,branch_0,branch_1\n0,-1.5,2\n0.5,1e-13,0.333333333333\n"
    )


@pytest.fixture
def written_sweep(tmp_path):
    points = [OnsetPoint(1.0, 4, 2.0, 0), OnsetPoint(1.25, 9.5, 3.0, 0)]
    result = SweepResult(
        delta_grid=np.array([1.0, 1.25]),
        nbar_axis=np.array([0, 0.25, 1e-13]),
        initial_states=[0, 1],
        heatmaps={
            0: np.array([[1, 0.5, -1e-13], [1.0, 1 / 3, 0]]),
            1: np.array([[1, 1, 1], [1, 1, 0.25]]),
        },
        onsets={0: points, 1: []},
        # B = 0 keeps the sampled boundary A - sqrt(A) exact
        boundaries={0: TransitionBoundary(A=4.0, B=0.0, points=points), 1: "insufficient points"},
        threshold=0.9,
        metadata={
            "config_hash": "0123456789abcdef",
            "tool_version": mistsim.__version__,
            "workers": 1,
        },
    )
    result.write(tmp_path)
    return tmp_path


def test_heatmap_csv_bytes(written_sweep):
    assert (written_sweep / "heatmap_state0.csv").read_text() == (
        HEATMAP_HEADER + "# initial_state: 0\n"
        ",0,0.25,1e-13\n"
        "1,1,0.5,-1e-13\n"
        "1.25,1,0.333333333333,0\n"
    )
    assert (written_sweep / "heatmap_state1.csv").read_text() == (
        HEATMAP_HEADER + "# initial_state: 1\n"
        ",0,0.25,1e-13\n"
        "1,1,1,1\n"
        "1.25,1,1,0.25\n"
    )


def _onset_json(indent, delta, nbar, uncertainty):
    pad = " " * indent
    return (
        f"{pad}{{\n"
        f'{pad}  "delta": {delta},\n'
        f'{pad}  "initial_state": 0,\n'
        f'{pad}  "nbar_onset": {nbar},\n'
        f'{pad}  "uncertainty": {uncertainty}\n'
        f"{pad}}}"
    )


def test_boundary_json_bytes(written_sweep):
    onsets = ",\n".join([_onset_json(4, 1.0, 4, 2.0), _onset_json(4, 1.25, 9.5, 3.0)])
    points = ",\n".join([_onset_json(6, 1.0, 4, 2.0), _onset_json(6, 1.25, 9.5, 3.0)])
    assert (written_sweep / "boundary_state0.json").read_text() == (
        "{\n"
        '  "boundary": {\n'
        '    "A": 4.0,\n'
        '    "B": 0.0,\n'
        '    "boundary_samples": [\n'
        "      {\n"
        '        "delta": 1.0,\n'
        '        "nbar": 2.0\n'
        "      },\n"
        "      {\n"
        '        "delta": 1.25,\n'
        '        "nbar": 2.0\n'
        "      }\n"
        "    ],\n"
        '    "points": [\n'
        f"{points}\n"
        "    ],\n"
        '    "threshold": 0.9\n'
        "  },\n"
        '  "config_hash": "0123456789abcdef",\n'
        '  "initial_state": 0,\n'
        '  "onsets": [\n'
        f"{onsets}\n"
        "  ],\n"
        '  "threshold": 0.9,\n'
        f'  "tool_version": "{mistsim.__version__}"\n'
        "}\n"
    )
    assert (written_sweep / "boundary_state1.json").read_text() == (
        "{\n"
        '  "boundary_error": "insufficient points",\n'
        '  "config_hash": "0123456789abcdef",\n'
        '  "initial_state": 1,\n'
        '  "onsets": [],\n'
        '  "threshold": 0.9,\n'
        f'  "tool_version": "{mistsim.__version__}"\n'
        "}\n"
    )
    assert (written_sweep / "run_info.json").read_text() == (
        "{\n"
        '  "config_hash": "0123456789abcdef",\n'
        f'  "tool_version": "{mistsim.__version__}",\n'
        '  "workers": 1\n'
        "}\n"
    )


def _modules():
    names = [info.name for info in pkgutil.iter_modules(mistsim.__path__)]
    return [mistsim] + [importlib.import_module(f"mistsim.{name}") for name in names]


@pytest.mark.parametrize("module", _modules(), ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []
