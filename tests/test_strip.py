import json
from dataclasses import replace

import numpy as np
import pytest

from mistsim import strip
from mistsim.analysis import n_crit
from mistsim.dynamics import _frame_rate
from mistsim.field import field_amplitude
from mistsim.strip import (
    CrossingRecord,
    SpectrumResult,
    StripConfig,
    bond_amplitudes,
    fan_diagram,
    find_avoided_crossings,
    g_eff_perturbative,
    jtc_strip_hamiltonian,
    match_branches,
    tracked_eigenbasis,
    tridiagonal_stack,
)
from mistsim.sweep import SweepConfig, strip_for_detuning
from mistsim.transmon import TransmonEigen, TransmonParams, diagonalize, ej_for_frequency

from conftest import E_C, EPSILON, K_EFF, OMEGA_R, REF_DELTA, lab_strip_hamiltonian


def sequential_tracker(config, nbar):
    """Branch tracking with one ``match_branches`` call per point: the reference."""
    evals, evecs = np.linalg.eigh(
        tridiagonal_stack(config.rotating_diagonal, bond_amplitudes(config, nbar))
    )
    energies = np.empty_like(evals)
    vectors = np.empty_like(evecs)
    columns = np.empty(evals.shape[1], dtype=int)
    columns[np.argmax(np.abs(evecs[0]), axis=0)] = np.arange(evals.shape[1])
    flagged = []
    for i in range(len(evecs)):
        if i:
            columns, low, ambiguous = match_branches(vectors[i - 1], evecs[i])
            if low or ambiguous:
                flagged.append(i)
        energies[i] = evals[i, columns]
        vectors[i] = evecs[i][:, columns]
    return energies, vectors, flagged


def polyfit_vertex(x, y):
    """Vertex of the parabola through three points by ``np.polyfit``: the reference."""
    coeffs = np.polyfit(x, y, 2)
    a, b, _ = coeffs
    if a <= 0:
        return float(x[1]), float(y[1])
    xv = float(np.clip(-b / (2 * a), x[0], x[2]))
    return xv, float(np.polyval(coeffs, xv))


def polyfit_crossings(spectrum, min_gap, max_gap):
    """Avoided crossings refined one candidate at a time by ``polyfit_vertex``."""
    x = spectrum.nbar_grid
    a, b = np.triu_indices(spectrum.branches.shape[0], 1)
    gap = np.abs(spectrum.branches[a] - spectrum.branches[b])
    mid = gap[:, 1:-1]
    noise = 1e-12 + 1e-10 * mid
    pairs, points = np.nonzero((mid < gap[:, :-2] - noise) & (mid <= gap[:, 2:]))
    records = []
    for p, i in zip(pairs, points + 1):
        nbar_c, gap_c = polyfit_vertex(x[i - 1 : i + 2], gap[p, i - 1 : i + 2])
        if min_gap <= gap_c <= max_gap:
            records.append(CrossingRecord(int(a[p]), int(b[p]), nbar_c, gap_c, gap_c / 2.0))
    return records


def real_stack(config, nbar):
    """The propagation's real K x K strip matrix at photon number ``nbar``."""
    return tridiagonal_stack(config.rotating_diagonal, bond_amplitudes(config, [nbar]))[0]


def synthetic_eigen(energies, couplings):
    return TransmonEigen(
        energies=np.asarray(energies, float),
        couplings=np.asarray(couplings, float),
        raw_n01=1.0,
    )


class TestEffectiveHamiltonian:
    # the strip's effective Hamiltonian: the propagation's real drive-frame
    # stack, and the complex lab-frame reference it is gauge-equivalent to
    def test_zero_field_is_diagonal(self, ref_strip):
        diag = np.diag(ref_strip.rotating_diagonal)
        assert np.array_equal(real_stack(ref_strip, 0.0), diag)
        assert np.array_equal(lab_strip_hamiltonian(ref_strip, 0.0), diag)

    def test_bond_cutoff_at_low_photon_number(self, ref_strip):
        bonds = bond_amplitudes(ref_strip, 3.5)
        assert bonds[4] == 0.0 and bonds[5] == 0.0
        assert bonds[3] != 0.0

    @pytest.mark.parametrize("kind", ["resonant", "dressed", "field_detuned", "tabulated"])
    def test_frame_rate_is_bond_phase_rate(self, ref_drive, kind):
        # the propagation frame turns at the rate of the bond phase
        # u(t) = (alpha/|alpha|) * exp(i*2*pi*(omega_r - omega_d)*t)
        drive = {
            "resonant": ref_drive,
            "dressed": replace(ref_drive, omega_d=4.745, omega_r_dressed=4.745),
            "field_detuned": replace(ref_drive, omega_r_dressed=OMEGA_R + 0.003),
            "tabulated": replace(
                ref_drive,
                omega_d=OMEGA_R - 0.01,
                omega_r_dressed=OMEGA_R - 0.005,
                envelope=(np.array([0.0, 4.0, 10.0]), EPSILON * np.array([0, 1, 0.7])),
            ),
        }[kind]
        t, h = np.array([0.3, 1.7, 3.1, 5.5, 8.9, 37.0]), 1e-4
        alpha = field_amplitude(drive, t)
        rate = _frame_rate(OMEGA_R, drive, t, alpha, np.abs(alpha) ** 2)
        theta = 2 * np.pi * (OMEGA_R - drive.omega_d)
        wound = [field_amplitude(drive, s) * np.exp(1j * theta * s) for s in (t - h, t + h)]
        before, after = np.unwrap(np.angle(wound), axis=0)
        assert np.allclose(rate, (after - before) / (2 * h), rtol=1e-6, atol=0)

    def test_hermitian(self, ref_strip):
        h = lab_strip_hamiltonian(ref_strip, 1.7 * np.exp(0.6j))
        assert np.allclose(h, h.conj().T, atol=0)

    def test_spectrum_independent_of_field_phase(self, ref_strip):
        # the gauge argument for the real frame: the field's phase drops out
        nbar = 17.0
        w0 = np.linalg.eigvalsh(real_stack(ref_strip, nbar))
        w1 = np.linalg.eigvalsh(lab_strip_hamiltonian(ref_strip, np.sqrt(nbar) * np.exp(2.1j)))
        assert np.allclose(w0, w1, rtol=0, atol=1e-12)


class TestLadderStrip:
    def test_zero_excitations(self, ref_strip):
        h = jtc_strip_hamiltonian(ref_strip, 0)
        assert h.shape == (1, 1)
        assert h[0, 0] == 0.0  # E_0 referenced to zero

    def test_entries_match_effective_block(self, ref_strip):
        # at nbar = N the stack's bonds are bitwise the ladder's
        n_total = 7
        stack = real_stack(ref_strip, float(n_total))
        ladder = jtc_strip_hamiltonian(ref_strip, n_total)
        assert np.array_equal(stack[: n_total + 1, : n_total + 1], ladder)

    @pytest.mark.parametrize("n_total", [1, 5, 19, 20, 45])
    def test_spectral_identity(self, ref_strip, n_total):
        eff = np.linalg.eigvalsh(real_stack(ref_strip, float(n_total)))
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

    @pytest.mark.parametrize("n_total", [2.5, True, np.float64(3.0)])
    def test_non_integer_excitations_rejected(self, ref_strip, n_total):
        with pytest.raises(ValueError, match="n_total must be an integer"):
            jtc_strip_hamiltonian(ref_strip, n_total)


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
        with pytest.raises(ValueError, match="nbar_grid must be non-empty"):
            fan_diagram(ref_strip, [])

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

    @pytest.mark.parametrize(
        "delta, n_g, step, fallbacks, expected_flags",
        [
            (None, None, None, 0, []),  # the reference member's 1 001 sample points
            (0.6, -0.5, 2.0, 1, [2]),
            (1.6, 0.0, 2.0, 1, []),
            (0.6, -0.5, 4.0, 2, [1, 2]),
        ],
    )
    def test_tracker_equals_sequential_matching(
        self, ref_strip, ref_trace, monkeypatch, delta, n_g, step, fallbacks, expected_flags
    ):
        if delta is None:
            config, grid = ref_strip, ref_trace.nbar
        else:
            config = strip_for_detuning(SweepConfig(), delta, n_g)
            grid = np.arange(0, 124 + 1e-12, step)
        calls = []

        def counted(prev, cur):
            calls.append(len(calls))
            return match_branches(prev, cur)

        monkeypatch.setattr(strip, "match_branches", counted)
        energies, vectors, flagged = tracked_eigenbasis(config, grid)
        # only the points that fail the fast-path test reach match_branches
        assert len(calls) == fallbacks
        assert flagged == expected_flags
        seq_energies, seq_vectors, seq_flagged = sequential_tracker(config, grid)
        assert np.array_equal(energies, seq_energies)
        assert np.array_equal(vectors, seq_vectors)
        assert flagged == seq_flagged

    def test_tracker_rejects_nonzero_start(self):
        # from nbar = 40 two branches share an anchor and come back duplicated
        config = strip_for_detuning(SweepConfig(), 1.1, 0.0)
        with pytest.raises(ValueError, match=r"nbar\[0\] = 40"):
            tracked_eigenbasis(config, np.array([40.0, 40.1]))

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

    @pytest.mark.parametrize("n_g", [0.0, 0.2])
    @pytest.mark.parametrize("window", [(1e-3, 0.1), (1e-4, 0.2), (0.0, np.inf)])
    def test_matches_the_polyfit_refinement(self, n_g, window):
        # the per-candidate np.polyfit loop that the closed form replaced
        spectrum = fan_diagram(
            strip_for_detuning(SweepConfig(), REF_DELTA, n_g), np.arange(0.0, 60.0 + 1e-9, 0.25)
        )
        records = find_avoided_crossings(spectrum, *window)
        expected = polyfit_crossings(spectrum, *window)
        assert records
        assert [(r.branch_a, r.branch_b) for r in records] == [
            (r.branch_a, r.branch_b) for r in expected
        ]
        for rec, ref in zip(records, expected):
            assert abs(rec.nbar_cross - ref.nbar_cross) <= 1e-9
            assert abs(rec.gap - ref.gap) <= 1e-11
            assert rec.g_eff == rec.gap / 2.0

    def test_vertices_match_polyfit_on_random_triples(self):
        rng = np.random.default_rng(2024)
        n = 400
        x = np.cumsum(rng.uniform(0.05, 1.0, (n, 3)), axis=1) + rng.uniform(0.0, 60.0, (n, 1))
        # opening down or up, vertex left of, inside or right of the triple
        curv = rng.choice([-1.0, 1.0], n) * rng.uniform(0.01, 2.0, n)
        where = rng.choice([-1, 0, 1], n)
        center = np.where(where == 0, x[:, 1], np.where(where < 0, x[:, 0] - 2.0, x[:, 2] + 2.0))
        center += (where == 0) * rng.uniform(-0.02, 0.02, n)
        y = curv[:, None] * (x - center[:, None]) ** 2 + rng.uniform(0.0, 0.1, (n, 1))
        xv, yv = strip._parabolic_vertices(x, y)
        expected = np.array([polyfit_vertex(xi, yi) for xi, yi in zip(x, y)])
        down = curv < 0
        assert np.any(down)
        assert np.any(~down & (where < 0)) and np.any(~down & (where > 0))
        assert np.array_equal(xv[down], x[down, 1]) and np.array_equal(yv[down], y[down, 1])
        assert np.array_equal(xv[~down & (where < 0)], x[~down & (where < 0), 0])
        assert np.array_equal(xv[~down & (where > 0)], x[~down & (where > 0), 2])
        assert np.max(np.abs(xv - expected[:, 0])) <= 1e-9
        assert np.max(np.abs(yv - expected[:, 1])) <= 1e-11

    @pytest.mark.parametrize(
        "grid",
        [np.array([0.0, 1.0, 1.0, 2.0]), np.array([0.0, 2.0, 1.0, 3.0])],
        ids=["repeated", "descending"],
    )
    def test_grid_that_does_not_ascend_rejected(self, grid):
        # a repeated point would divide by zero in the refinement
        branches = np.vstack([np.zeros(4), [1.0, 0.5, 0.4, 1.0]])
        with pytest.raises(ValueError, match="strictly ascending"):
            find_avoided_crossings(SpectrumResult(grid, branches), 0.0, 10.0)

    def test_grid_of_another_length_rejected(self):
        # used to report crossings at 2.5 and 7.5 photons on a grid twice as long
        grid = np.linspace(0.0, 20.0, 201)
        branches = np.vstack([np.zeros(101), 1.0 + 0.5 * np.cos(2 * np.pi * grid[:101] / 5)])
        with pytest.raises(ValueError, match="201 points but branches have 101 columns"):
            find_avoided_crossings(SpectrumResult(grid, branches), 0.0, 10.0)

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

    @pytest.mark.parametrize("nbar_cross", [np.inf, np.nan])
    def test_non_finite_photon_number_rejected(self, ref_strip, nbar_cross):
        # an infinite nbar_cross gave g_eff = inf, which printed as the non-JSON Infinity
        with pytest.raises(ValueError, match=f"nbar_cross must be finite, got {nbar_cross}"):
            g_eff_perturbative(ref_strip, 3, nbar_cross)

    def test_target_level_bounds(self, ref_strip):
        with pytest.raises(ValueError):
            g_eff_perturbative(ref_strip, 0, 10.0)
        with pytest.raises(ValueError):
            g_eff_perturbative(ref_strip, 20, 10.0)

    @pytest.mark.parametrize("target_level", [1.5, True, np.float64(2.0)])
    def test_non_integer_target_level_rejected(self, ref_strip, target_level):
        with pytest.raises(ValueError, match="target_level must be an integer"):
            g_eff_perturbative(ref_strip, target_level, 10.0)


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

    def test_greedy_returns_the_accepted_row_maxima(self):
        # where the tracker's stacked test accepts an overlap, the greedy rule
        # alone must give the same columns with no flag
        rng = np.random.default_rng(18)
        accepted = rejected = 0
        for _ in range(400):
            k = int(rng.integers(2, 21))
            prev, _ = np.linalg.qr(rng.standard_normal((k, k)))
            turn, _ = np.linalg.qr(np.eye(k) + rng.uniform(0, 1.5) * rng.standard_normal((k, k)))
            cur = (prev @ turn)[:, rng.permutation(k)]
            best_cols, ok = strip._row_maxima_assign(np.abs(prev.conj().T @ cur))
            if not ok:
                rejected += 1
                continue
            accepted += 1
            cols, low, ambiguous = match_branches(prev, cur)
            assert np.array_equal(cols, best_cols)
            assert not low and not ambiguous
        assert accepted > 0 and rejected > 0


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

    @pytest.mark.parametrize(
        "settings, name",
        [
            (dict(omega_r=True, k_eff=K_EFF), "omega_r"),
            (dict(omega_r=OMEGA_R, g=True), "g"),
            (dict(omega_r=OMEGA_R, k_eff=True), "k_eff"),
        ],
        ids=["omega_r", "g", "k_eff"],
    )
    def test_bool_setting_rejected(self, ref_eigen, settings, name):
        # k_eff=True gave g = 2.64 GHz
        with pytest.raises(ValueError, match=f"{name} must be a number, got True"):
            StripConfig(eigen=ref_eigen, **settings)

    @pytest.mark.parametrize("coupling", ["g", "k_eff"])
    def test_numpy_float_settings_become_plain_floats(self, ref_eigen, coupling):
        # a float32 omega_r made the coupling an np.float32
        settings = {"omega_r": np.float32(OMEGA_R), coupling: np.float32(0.05)}
        cfg = StripConfig(eigen=ref_eigen, **settings)
        assert type(cfg.omega_r) is float and type(getattr(cfg, coupling)) is float
        assert cfg.omega_r == float(np.float32(OMEGA_R))
        assert isinstance(cfg.coupling, float)

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
