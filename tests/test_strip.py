import json

import numpy as np
import pytest

from mistsim.analysis import n_crit
from mistsim.strip import (
    CrossingRecord,
    SpectrumResult,
    StripConfig,
    bond_amplitudes,
    bond_phase,
    effective_hamiltonian,
    fan_diagram,
    find_avoided_crossings,
    g_eff_perturbative,
    jtc_strip_hamiltonian,
    match_branches,
    tracked_eigenbasis,
    tridiagonal_stack,
)
from mistsim.transmon import TransmonEigen, TransmonParams, diagonalize, ej_for_frequency

from conftest import E_C, K_EFF, OMEGA_R, REF_DELTA


def synthetic_eigen(energies, couplings):
    return TransmonEigen(
        energies=np.asarray(energies, float),
        couplings=np.asarray(couplings, float),
        raw_n01=1.0,
        n_g=0.0,
    )


class TestEffectiveHamiltonian:
    def test_zero_field_is_diagonal(self, ref_strip):
        h = effective_hamiltonian(ref_strip, 0.0)
        assert np.array_equal(h, np.diag(ref_strip.rotating_diagonal).astype(complex))

    def test_bond_cutoff_at_low_photon_number(self, ref_strip):
        h = effective_hamiltonian(ref_strip, np.sqrt(3.5))
        assert h[4, 5] == 0.0 and h[5, 6] == 0.0
        assert h[3, 4] != 0.0

    def test_resonant_frame_is_time_independent(self, ref_strip):
        alpha = 2.0 - 1.3j
        assert np.array_equal(
            bond_phase(ref_strip, OMEGA_R, alpha, abs(alpha), 0.0),
            bond_phase(ref_strip, OMEGA_R, alpha, abs(alpha), 17.3),
        )

    def test_detuned_frame_rotates(self, ref_strip):
        # the resonator-frame amplitude of a drive 10 MHz below omega_r
        units = (bond_phase(ref_strip, OMEGA_R - 0.01, 2.0, 2.0, t) for t in (0.0, 10.0))
        h0, h1 = (effective_hamiltonian(ref_strip, 2.0 * u) for u in units)
        assert not np.allclose(h0, h1)
        assert np.allclose(np.diag(h0), np.diag(h1))

    def test_bond_phase_is_field_phase_plus_detuning_winding(self, ref_strip):
        # h[k, k+1] = |bond_k| * (alpha/|alpha|) * exp(+i*2*pi*(omega_r - omega_d)*t)
        alpha, t = 5.0 * np.exp(0.4j), 10.0  # nbar = 25 keeps every bond open
        k = np.arange(ref_strip.level_count - 1)
        magnitude = effective_hamiltonian(ref_strip, abs(alpha))[k, k + 1]
        assert np.all(magnitude.real > 0) and np.all(magnitude.imag == 0)
        phase = np.exp(1j * (0.4 + 2 * np.pi * 0.01 * t))
        unit = bond_phase(ref_strip, OMEGA_R - 0.01, alpha, abs(alpha), t)
        assert np.isclose(unit, phase, rtol=1e-12, atol=0)
        h = effective_hamiltonian(ref_strip, abs(alpha) * unit)
        assert np.allclose(h[k, k + 1], phase * magnitude, rtol=1e-12, atol=0)
        assert np.allclose(h[k + 1, k], np.conj(phase) * magnitude, rtol=1e-12, atol=0)

    def test_hermitian(self, ref_strip):
        h = effective_hamiltonian(ref_strip, 1.7 * np.exp(0.6j))
        assert np.allclose(h, h.conj().T, atol=0)

    def test_spectrum_independent_of_field_phase(self, ref_strip):
        nbar = 17.0
        w0 = np.linalg.eigvalsh(effective_hamiltonian(ref_strip, np.sqrt(nbar)))
        w1 = np.linalg.eigvalsh(
            effective_hamiltonian(ref_strip, np.sqrt(nbar) * np.exp(2.1j))
        )
        assert np.allclose(w0, w1, atol=1e-12)


class TestLadderStrip:
    def test_zero_excitations(self, ref_strip):
        h = jtc_strip_hamiltonian(ref_strip, 0)
        assert h.shape == (1, 1)
        assert h[0, 0] == 0.0  # E_0 referenced to zero

    def test_entries_match_effective_block(self, ref_strip):
        n_total = 7
        eff = effective_hamiltonian(ref_strip, np.sqrt(float(n_total)))
        ladder = jtc_strip_hamiltonian(ref_strip, n_total)
        assert np.allclose(eff[: n_total + 1, : n_total + 1], ladder, atol=1e-12)

    @pytest.mark.parametrize("n_total", [1, 5, 19, 20, 45])
    def test_spectral_identity(self, ref_strip, n_total):
        eff = np.linalg.eigvalsh(effective_hamiltonian(ref_strip, np.sqrt(float(n_total))))
        ladder = np.linalg.eigvalsh(jtc_strip_hamiltonian(ref_strip, n_total))
        bare = ref_strip.rotating_diagonal[len(ladder) :]
        assert np.max(np.abs(eff - np.sort(np.concatenate([ladder, bare])))) < 1e-12

    def test_hybridization_of_ground_and_ninth_level(self):
        # qubit 1 GHz above the resonator, 0.2 GHz anharmonicity, g = 120 MHz:
        # at 50 photons some offset charge hybridizes bare levels 0 and 9
        e_j = ej_for_frequency(0.2, OMEGA_R + 1.0)
        best = 0.0
        for n_g in np.linspace(-0.5, 0.5, 41):
            eigen = diagonalize(TransmonParams(e_c=0.2, e_j=e_j, n_g=n_g))
            cfg = StripConfig(eigen=eigen, omega_r=OMEGA_R, g=0.120)
            h = jtc_strip_hamiltonian(cfg, 50)
            _, vecs = np.linalg.eigh(h)
            weight = np.min(np.abs(vecs[[0, 9], :]) ** 2, axis=0).max()
            best = max(best, weight)
        assert best > 0.1

    def test_negative_excitations_rejected(self, ref_strip):
        with pytest.raises(ValueError):
            jtc_strip_hamiltonian(ref_strip, -1)


class TestFanDiagram:
    def test_bare_column_exact(self, ref_fan, ref_strip):
        assert np.array_equal(ref_fan.branches[:, 0], ref_strip.rotating_diagonal)

    def test_branch_count_and_grid(self, ref_fan, ref_strip):
        assert ref_fan.branches.shape == (ref_strip.level_count, len(ref_fan.nbar_grid))

    def test_offset_charge_parity(self, ref_ej):
        grid = np.arange(0.0, 20.0 + 1e-9, 0.5)
        fans = []
        for n_g in (0.2, -0.2):
            eigen = diagonalize(TransmonParams(e_c=E_C, e_j=ref_ej, n_g=n_g))
            cfg = StripConfig(eigen=eigen, omega_r=OMEGA_R, k_eff=K_EFF)
            fans.append(fan_diagram(cfg, grid).branches)
        assert np.allclose(fans[0], fans[1], atol=1e-9)

    def test_grid_validation(self, ref_strip):
        with pytest.raises(ValueError, match="start"):
            fan_diagram(ref_strip, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="ascending"):
            fan_diagram(ref_strip, np.array([0.0, 2.0, 1.0]))

    def test_csv_export(self, ref_fan, tmp_path):
        path = tmp_path / "fan.csv"
        ref_fan.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("nbar,branch_0,")
        assert len(lines) == 1 + len(ref_fan.nbar_grid)

    def test_tracked_eigenbasis_diagonalizes_each_point(self, ref_strip, ref_fan):
        grid = ref_fan.nbar_grid
        energies, vectors, flagged = tracked_eigenbasis(ref_strip, grid)
        stack = tridiagonal_stack(ref_strip.rotating_diagonal, bond_amplitudes(ref_strip, grid))
        for h, e, v in zip(stack, energies, vectors):
            assert np.allclose(v.T @ h @ v, np.diag(e), rtol=0, atol=1e-10)
        # the fan replaces only the nbar = 0 column by the exact bare energies
        assert np.array_equal(energies.T[:, 1:], ref_fan.branches[:, 1:])
        assert np.allclose(energies[0], ref_fan.branches[:, 0], rtol=0, atol=1e-12)
        assert flagged == ref_fan.flagged_points

    def test_coarse_grid_flags_unresolved_tracking(self, ref_strip, ref_fan):
        coarse = fan_diagram(ref_strip, np.arange(0.0, 60.0 + 1e-9, 10.0))
        assert coarse.flagged_points  # eigenvectors reorganize within one step
        assert ref_fan.flagged_points == []  # quarter-photon grid resolves it


class TestAvoidedCrossings:
    def test_reference_crossing_location_and_gap(self, ref_fan):
        records = find_avoided_crossings(ref_fan, min_gap=1e-3, max_gap=0.1)
        pairs = {(r.branch_a, r.branch_b): r for r in records}
        assert (0, 9) in pairs
        rec = pairs[(0, 9)]
        assert 34.0 <= rec.nbar_cross <= 46.0
        assert 0.020 <= rec.gap <= 0.030
        assert rec.g_eff == rec.gap / 2.0

    def test_synthetic_two_level_gap_recovery(self):
        coupling = 0.013
        slope = 0.004
        center = 25.0
        grid = np.arange(0.0, 50.0 + 1e-9, 0.25)
        split = np.sqrt((slope * (grid - center)) ** 2 + coupling**2)
        spectrum = SpectrumResult(
            nbar_grid=grid, branches=np.vstack([+split, -split])
        )
        records = find_avoided_crossings(spectrum, min_gap=0.0, max_gap=1.0)
        assert len(records) == 1
        rec = records[0]
        assert abs(rec.gap - 2 * coupling) / (2 * coupling) < 0.01
        assert abs(rec.nbar_cross - center) < 0.25

    def test_records_ordered_by_pair_then_photon_number(self):
        grid = np.linspace(0.0, 10.0, 101)
        branches = np.vstack(
            [
                np.zeros_like(grid),
                1.0 + 0.5 * np.cos(2 * np.pi * grid / 5),  # gap to 0 dips at 2.5 and 7.5
                3.0 + 0.5 * (grid - 1.0) ** 2,  # gap to 0 dips at 1, gap to 1 below 1
            ]
        )
        records = find_avoided_crossings(SpectrumResult(grid, branches), 0.0, 10.0)
        assert [(r.branch_a, r.branch_b) for r in records] == [(0, 1), (0, 1), (0, 2), (1, 2)]
        nbar = [r.nbar_cross for r in records]
        assert nbar[:3] == pytest.approx([2.5, 7.5, 1.0], abs=1e-6)
        assert 0.0 < nbar[3] < 1.0
        assert json.loads(json.dumps([r.to_dict() for r in records]))[2]["branch_b"] == 2

    @pytest.mark.parametrize(
        "min_gap, max_gap",
        [(np.nan, 0.2), (1e-4, np.nan), (0.1, 0.01)],
        ids=["min-nan", "max-nan", "inverted"],
    )
    def test_malformed_window_rejected(self, ref_fan, min_gap, max_gap):
        # each of these used to report no crossing at all
        with pytest.raises(ValueError, match="min_gap <= max_gap"):
            find_avoided_crossings(ref_fan, min_gap=min_gap, max_gap=max_gap)

    def test_parallel_branches_yield_nothing(self):
        grid = np.arange(0.0, 10.0 + 1e-9, 0.5)
        branches = np.vstack([0.1 * grid, 0.1 * grid + 1.0])
        spectrum = SpectrumResult(nbar_grid=grid, branches=branches)
        assert find_avoided_crossings(spectrum, 0.0, 10.0) == []

    def test_requires_three_points(self):
        spectrum = SpectrumResult(
            nbar_grid=np.array([0.0, 1.0]), branches=np.zeros((2, 2))
        )
        with pytest.raises(ValueError):
            find_avoided_crossings(spectrum, 0.0, 1.0)


class TestPerturbativeCoupling:
    def test_reference_value(self, ref_strip, ref_fan):
        records = find_avoided_crossings(ref_fan, min_gap=1e-3, max_gap=0.1)
        rec = next(r for r in records if (r.branch_a, r.branch_b) == (0, 9))
        estimate = g_eff_perturbative(ref_strip, 9, rec.nbar_cross)
        assert abs(estimate - 0.032) / 0.032 < 0.10

    def test_single_bond_case(self, ref_strip):
        nbar = 7.3
        expected = ref_strip.coupling * np.sqrt(nbar)  # couplings[0] == 1
        assert g_eff_perturbative(ref_strip, 1, nbar) == pytest.approx(expected, rel=1e-12)

    def test_critical_photon_rewrite_consistency(self, ref_strip):
        # same estimate written through the critical photon number
        m, nbar = 9, 40.0
        g = ref_strip.coupling
        direct = g_eff_perturbative(ref_strip, m, nbar)
        crit = n_crit(REF_DELTA, g)
        diag = ref_strip.rotating_diagonal
        prefactor = (
            np.prod(ref_strip.eigen.couplings[:m])
            * REF_DELTA ** (m - 1)
            / (4.0 ** ((m - 1) / 2.0) * np.abs(np.prod(diag[1:m] - diag[0])))
        )
        rewritten = prefactor * (nbar / crit) ** ((m - 1) / 2.0) * g * np.sqrt(nbar)
        assert abs(rewritten - direct) / direct < 0.20

    def test_resonant_intermediate_level_rejected(self):
        eigen = synthetic_eigen([0.0, OMEGA_R, 2.0 * OMEGA_R + 0.5], [1.0, 1.0])
        cfg = StripConfig(eigen=eigen, omega_r=OMEGA_R, g=0.1)
        with pytest.raises(ValueError, match="level 1"):
            g_eff_perturbative(cfg, 2, 10.0)

    def test_negative_photon_number_rejected(self, ref_strip):
        # nbar^(m/2) of a negative nbar is complex; its real part is no magnitude
        with pytest.raises(ValueError, match="nbar_cross"):
            g_eff_perturbative(ref_strip, 3, -5.0)
        assert g_eff_perturbative(ref_strip, 3, 0.0) == 0.0

    def test_target_level_bounds(self, ref_strip):
        with pytest.raises(ValueError):
            g_eff_perturbative(ref_strip, 0, 10.0)
        with pytest.raises(ValueError):
            g_eff_perturbative(ref_strip, 20, 10.0)


class TestBranchMatching:
    def test_identity_assignment(self):
        vecs = np.eye(4)
        cols, low, ambiguous = match_branches(vecs, vecs)
        assert np.array_equal(cols, np.arange(4))
        assert not low and not ambiguous

    def test_swapped_columns_recovered(self):
        prev = np.eye(3)
        cur = prev[:, [1, 0, 2]]
        cols, low, ambiguous = match_branches(prev, cur)
        assert np.array_equal(cols, [1, 0, 2])
        assert not low

    def test_ambiguous_tie_flagged(self):
        prev = np.eye(2)
        theta = np.pi / 4
        cur = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        cols, low, ambiguous = match_branches(prev, cur)
        assert ambiguous  # both assignments tie at |cos(pi/4)|
        assert sorted(cols) == [0, 1]

    def test_tie_in_other_rows_and_columns_not_flagged(self):
        # rows 0 and 1 both peak in column 0, so the greedy path runs; the
        # maxima of rows 2 and 3 tie within 1e-9 in different columns, and
        # picking either first gives the same assignment
        cur = np.array(
            [
                [0.8, 0.5, 0.0, 0.0],
                [0.7, 0.6, 0.0, 0.0],
                [0.0, 0.0, 0.95, 0.1],
                [0.0, 0.0, 0.1, 0.95 - 1e-9],
            ]
        )
        cols, low, ambiguous = match_branches(np.eye(4), cur)
        assert np.array_equal(cols, np.arange(4))
        assert not low and not ambiguous

    def test_low_overlap_flagged(self):
        from scipy.linalg import hadamard

        prev = np.eye(8)
        cur = hadamard(8) / np.sqrt(8)  # every overlap is 1/sqrt(8) < 0.5
        _, low, _ = match_branches(prev, cur)
        assert low


class TestStripConfig:
    def test_coupling_from_efficiency(self, ref_strip):
        expected = K_EFF * np.sqrt(ref_strip.eigen.qubit_frequency * OMEGA_R) / 2
        assert ref_strip.coupling == pytest.approx(expected, rel=1e-12)
        assert ref_strip.coupling == pytest.approx(0.126513, abs=1e-5)

    def test_exactly_one_coupling_source(self, ref_eigen):
        with pytest.raises(ValueError):
            StripConfig(eigen=ref_eigen, omega_r=OMEGA_R, g=0.1, k_eff=0.05)
        with pytest.raises(ValueError):
            StripConfig(eigen=ref_eigen, omega_r=OMEGA_R)

    def test_level_count_is_the_eigen_data(self, ref_eigen):
        cfg = StripConfig(eigen=ref_eigen, omega_r=OMEGA_R, g=0.1)
        assert cfg.level_count == ref_eigen.level_count == len(cfg.rotating_diagonal)
        with pytest.raises(TypeError):
            StripConfig(eigen=ref_eigen, omega_r=OMEGA_R, g=0.1, level_count=10)

    @pytest.mark.parametrize(
        "settings, name",
        [
            (dict(omega_r=np.nan, k_eff=K_EFF), "omega_r"),
            (dict(omega_r=OMEGA_R, g=np.nan), "g"),
            (dict(omega_r=OMEGA_R, k_eff=np.inf), "k_eff"),
        ],
        ids=["omega_r-nan", "g-nan", "k_eff-inf"],
    )
    def test_non_finite_setting_rejected(self, ref_eigen, settings, name):
        # nan <= 0 is False, so a NaN coupling used to pass the positivity check
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            StripConfig(eigen=ref_eigen, **settings)

    @pytest.mark.parametrize("omega_r", [0.0, -1.0])
    @pytest.mark.parametrize("coupling", [dict(k_eff=K_EFF), dict(g=0.1)])
    def test_non_positive_resonator_rejected(self, ref_eigen, omega_r, coupling):
        # with k_eff the derived g was sqrt(-omega_r) = NaN, and NaN <= 0 is False
        with pytest.raises(ValueError, match=f"omega_r must be positive, got {omega_r}"):
            StripConfig(eigen=ref_eigen, omega_r=omega_r, **coupling)

    def test_crossing_record_serialization(self):
        rec = CrossingRecord(0, 9, 39.6, 0.025, 0.0125)
        d = rec.to_dict()
        assert d["branch_a"] == 0 and d["g_eff"] == 0.0125
