import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mistsim.analysis import (
    DispersiveParams,
    OnsetPoint,
    TransitionBoundary,
    boundary_to_dict,
    chi,
    dressed_frequencies,
    extract_onsets,
    fit_boundary,
    n_crit,
    stark_to_photons,
)

REF = DispersiveParams(g=0.126513, delta=1.1, eta=0.194, omega_r=4.750, omega_q=5.850)


AXIS = np.arange(0.0, 60.0 + 1e-9, 0.5)


def step_row(onset_nbar, low=0.5):
    """Survival 1 until onset_nbar, then `low`, on the 0.5-photon AXIS."""
    return np.where(AXIS < onset_nbar, 1.0, low)


def reference_onsets(deltas, axis, rows, threshold, initial_state=0):
    """The per-curve rule the array scan replaced, one row at a time."""
    kept, best = [], -np.inf
    for delta, row in zip(deltas, rows):
        below = row < threshold
        if not np.any(below):
            continue
        nbar_star = float(axis[int(np.argmax(below))])
        if nbar_star <= 0:
            continue
        if nbar_star > best:
            root = float(np.sqrt(nbar_star))
            kept.append(OnsetPoint(float(delta), nbar_star, root, initial_state))
            best = nbar_star
    return kept


class TestDispersiveShift:
    def test_vanishing_anharmonicity(self):
        p = DispersiveParams(g=0.1, delta=1.0, eta=1e-12, omega_r=4.75, omega_q=5.75)
        assert abs(chi(p)) < 1e-12

    def test_reference_value(self):
        assert chi(REF) == pytest.approx(2.53e-3, rel=0.01)

    def test_quadratic_in_coupling(self):
        doubled = DispersiveParams(
            g=2 * REF.g, delta=REF.delta, eta=REF.eta, omega_r=REF.omega_r, omega_q=REF.omega_q
        )
        assert chi(doubled) == pytest.approx(4 * chi(REF), rel=1e-12)

    def test_positive_below_straddle(self):
        assert chi(REF) > 0

    def test_straddling_resonance_rejected(self):
        p = DispersiveParams(g=0.1, delta=0.2, eta=0.2, omega_r=4.75, omega_q=4.95)
        with pytest.raises(ValueError, match="eta"):
            chi(p)

    def test_requires_positive_detuning(self):
        with pytest.raises(ValueError):
            DispersiveParams(g=0.1, delta=-0.5, eta=0.2, omega_r=4.75, omega_q=4.25)


class TestDressedFrequencies:
    def test_reference_values(self):
        w0, w1 = dressed_frequencies(REF)
        assert w0 == pytest.approx(4.73545, abs=1e-4)
        assert w1 == pytest.approx(4.73039, abs=2e-4)
        assert w1 < w0 < REF.omega_r

    def test_zero_coupling(self):
        p = DispersiveParams(g=1e-12, delta=1.1, eta=0.194, omega_r=4.75, omega_q=5.85)
        w0, w1 = dressed_frequencies(p)
        assert w0 == pytest.approx(4.75, abs=1e-12)
        assert w1 == pytest.approx(4.75, abs=1e-12)

    def test_large_detuning_decouples(self):
        p = DispersiveParams(g=0.13, delta=1e6, eta=0.194, omega_r=4.75, omega_q=4.75 + 1e6)
        w0, w1 = dressed_frequencies(p)
        assert abs(w0 - 4.75) < 1e-7 and abs(w1 - 4.75) < 1e-7


class TestStarkConversion:
    def test_zero_shift(self):
        assert stark_to_photons(0.0, 2.53e-3) == 0.0

    def test_one_photon(self):
        assert stark_to_photons(2 * 2.53e-3, 2.53e-3) == pytest.approx(1.0, rel=1e-12)

    def test_reference_ten_photons(self):
        assert stark_to_photons(50.6e-3, 2.53e-3) == pytest.approx(10.0, rel=1e-12)

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            stark_to_photons(-1e-3, 2.53e-3)

    def test_requires_positive_chi(self):
        with pytest.raises(ValueError):
            stark_to_photons(1e-3, 0.0)


class TestCriticalPhotonNumber:
    def test_delta_twice_coupling(self):
        assert n_crit(0.2, 0.1) == 1.0

    def test_reference_value(self):
        assert n_crit(1.1, 0.126513) == pytest.approx(18.9, abs=0.05)

    def test_quadratic_in_detuning(self):
        assert n_crit(2.2, 0.1) == 4 * n_crit(1.1, 0.1)

    def test_requires_positive_coupling(self):
        with pytest.raises(ValueError):
            n_crit(1.0, 0.0)


class TestExtractOnsets:
    def test_flat_curve_yields_nothing(self):
        axis = np.arange(0.0, 50.0, 0.5)
        assert extract_onsets([1.0], axis, np.ones((1, len(axis))), 0.9) == []

    def test_onset_is_first_grid_point_below_threshold(self):
        onsets = extract_onsets([1.0], AXIS, [step_row(30.0)], threshold=0.9)
        assert len(onsets) == 1
        assert onsets[0].nbar_onset == 30.0
        assert onsets[0].uncertainty == pytest.approx(np.sqrt(30.0))
        assert onsets[0].delta == 1.0

    def test_monotonic_filter(self):
        rows = [step_row(30.0), step_row(25.0), step_row(40.0)]
        kept = extract_onsets([1.0, 1.1, 1.2], AXIS, rows, threshold=0.9)
        assert [(p.delta, p.nbar_onset) for p in kept] == [(1.0, 30.0), (1.2, 40.0)]

    def test_plateau_keeps_first_point_only(self):
        kept = extract_onsets([1.0, 1.1], AXIS, [step_row(30.0), step_row(30.0)], 0.9)
        assert [(p.delta, p.nbar_onset) for p in kept] == [(1.0, 30.0)]

    def test_threshold_honored(self):
        rows = [step_row(30.0, low=0.85)]
        assert extract_onsets([1.0], AXIS, rows, threshold=0.8) == []
        assert len(extract_onsets([1.0], AXIS, rows, threshold=0.9)) == 1

    def test_initial_state_carried(self):
        kept = extract_onsets([1.0], AXIS, [step_row(30.0)], 0.9, initial_state=1)
        assert kept[0].initial_state == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            extract_onsets([1.0], AXIS, [step_row(30.0)], threshold=1.5)
        with pytest.raises(ValueError, match="ascending"):
            extract_onsets([1.2, 1.0], AXIS, [step_row(30.0), step_row(40.0)], 0.9)

    def test_shape_mismatch_rejected(self):
        # argmax would read a row's onset off another axis, or past its end
        with pytest.raises(ValueError, match=r"survival has shape \(1, 121\), not .* = \(2, 121\)"):
            extract_onsets([1.0, 1.1], AXIS, [step_row(30.0)], 0.9)
        with pytest.raises(ValueError, match=r"survival has shape \(1, 121\), not .* = \(1, 120\)"):
            extract_onsets([1.0], AXIS[:-1], [step_row(30.0)], 0.9)

    def test_empty_axis_or_grid_yields_nothing(self):
        assert extract_onsets([1.0], np.array([]), np.empty((1, 0)), 0.9) == []
        assert extract_onsets([], AXIS, np.empty((0, len(AXIS))), 0.9) == []

    @settings(deadline=None, max_examples=200)
    @given(
        data=st.data(),
        steps=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=12),
        count=st.integers(min_value=0, max_value=6),
        threshold=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_array_scan_equals_the_per_curve_rule(self, data, steps, count, threshold):
        # axis from 0 (whose onset is skipped) with ties allowed, rows on it
        axis = np.cumsum(steps) - steps[0]
        deltas = 0.6 + 0.1 * np.arange(count)
        value = st.floats(min_value=0.0, max_value=1.0)
        rows = np.array(
            [data.draw(st.lists(value, min_size=len(axis), max_size=len(axis))) for _ in deltas]
        ).reshape(count, len(axis))
        got = extract_onsets(deltas, axis, rows, threshold, initial_state=1)
        assert got == reference_onsets(deltas, axis, rows, threshold, initial_state=1)


class TestFitBoundary:
    @staticmethod
    def exact_points(a, b, deltas, factors=None):
        factors = factors if factors is not None else np.ones(len(deltas))
        return [
            OnsetPoint(delta=d, nbar_onset=a * np.exp(b * d) * f, uncertainty=1.0)
            for d, f in zip(deltas, factors)
        ]

    def test_exact_recovery(self):
        fit = fit_boundary(self.exact_points(10.0, 2.0, [0.8, 1.0, 1.2]))
        assert abs(fit.A - 10.0) / 10.0 < 1e-10
        assert abs(fit.B - 2.0) / 2.0 < 1e-10

    def test_noisy_recovery_rate(self):
        rng = np.random.default_rng(20240217)
        deltas = np.linspace(0.8, 1.4, 7)
        hits = 0
        for _ in range(100):
            factors = rng.uniform(0.9, 1.1, size=len(deltas))
            fit = fit_boundary(self.exact_points(10.0, 2.0, deltas, factors))
            if abs(fit.B - 2.0) / 2.0 <= 0.15:
                hits += 1
        assert hits >= 95

    def test_boundary_definition(self):
        fit = TransitionBoundary(A=25.0, B=0.0, points=[])
        assert fit.n_fit(1.0) == 25.0
        assert fit.boundary(1.0) == 20.0

    def test_boundary_below_fit(self):
        fit = fit_boundary(self.exact_points(10.0, 2.0, [0.8, 1.0, 1.2]))
        deltas = np.linspace(0.5, 2.0, 20)
        assert np.all(fit.boundary(deltas) < fit.n_fit(deltas))

    @settings(deadline=None, max_examples=25)
    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    def test_scaling_equivariance(self, scale):
        base = self.exact_points(10.0, 2.0, [0.8, 1.0, 1.2, 1.4])
        scaled = [
            OnsetPoint(p.delta, scale * p.nbar_onset, p.uncertainty) for p in base
        ]
        fit_base = fit_boundary(base)
        fit_scaled = fit_boundary(scaled)
        assert fit_scaled.A == pytest.approx(scale * fit_base.A, rel=1e-9)
        assert fit_scaled.B == pytest.approx(fit_base.B, abs=1e-9)

    def test_errors(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_boundary(self.exact_points(10.0, 2.0, [1.0, 1.0]))
        bad = [OnsetPoint(1.0, -5.0, 1.0), OnsetPoint(1.2, 10.0, 1.0)]
        with pytest.raises(ValueError, match="positive"):
            fit_boundary(bad)

    def test_json_record(self):
        fit = fit_boundary(self.exact_points(10.0, 2.0, [0.8, 1.0, 1.2]))
        record = boundary_to_dict(fit, threshold=0.9, delta_samples=np.array([1.0]))
        assert set(record) == {"A", "B", "threshold", "points", "boundary_samples"}
        assert len(record["points"]) == 3
        sample = record["boundary_samples"][0]
        assert sample["nbar"] == pytest.approx(fit.boundary(1.0))


class TestDispersiveParamsInputs:
    def test_omega_q_must_be_omega_r_plus_delta(self):
        # 9.0 GHz was accepted, and chi came from the mixed values
        match = r"omega_q = 9.0 GHz is not omega_r \+ delta = 4.75 \+ 1.1"
        with pytest.raises(ValueError, match=match):
            DispersiveParams(g=0.1265, delta=1.1, eta=0.194, omega_r=4.75, omega_q=9.0)

    def test_omega_r_plus_delta_in_floats_accepted(self):
        for omega_r, delta in ((4.75, 1.1), (4.75, 0.62), (7.1, 0.3)):
            omega_q = omega_r + delta
            p = DispersiveParams(g=0.1, delta=delta, eta=0.2, omega_r=omega_r, omega_q=omega_q)
            assert p.omega_q == omega_r + delta

    @pytest.mark.parametrize(
        "name, value, match",
        [
            ("g", np.nan, "g must be finite, got nan"),
            ("g", None, "g must be a number, got None"),
            ("eta", "0.194", "eta must be a number, got '0.194'"),
            ("omega_r", [4.75], r"omega_r must be a number, got \[4.75\]"),
            ("delta", 1.1 + 0j, r"delta must be a number, got \(1.1\+0j\)"),
        ],
    )
    def test_wrong_kind_rejected(self, name, value, match):
        # a NaN g gave chi = nan and dressed frequencies (nan, nan)
        settings = dict(g=0.126513, delta=1.1, eta=0.194, omega_r=4.75, omega_q=5.85)
        with pytest.raises(ValueError, match=match):
            DispersiveParams(**{**settings, name: value})

    def test_settings_become_plain_floats(self):
        p = DispersiveParams(g=np.float32(0.1), delta=1, eta=0.2, omega_r=4.75, omega_q=5.75)
        assert all(type(getattr(p, name)) is float for name in ("g", "delta", "eta"))
