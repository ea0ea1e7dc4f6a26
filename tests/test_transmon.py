import numpy as np
import pytest
from dataclasses import fields, replace

import mistsim.transmon as transmon_mod
from mistsim.analysis import DispersiveParams
from mistsim.dynamics import SimulationConfig
from mistsim.field import DriveConfig
from mistsim.strip import StripConfig
from mistsim.sweep import SweepConfig
from mistsim.transmon import (
    TransmonParams,
    _brentq,
    _solve_ej,
    build_charge_hamiltonian,
    charge_dispersion,
    diagonalize,
    ej_for_frequency,
    k_bend,
)

from conftest import E_C, OMEGA_R, REF_DELTA, REF_NG


class TestChargeHamiltonian:
    def test_free_charge_limit_is_diagonal(self):
        p = TransmonParams(e_c=0.3, e_j=0.0, n_g=0.1, charge_cutoff=5, level_count=2)
        h = build_charge_hamiltonian(p)
        n = np.arange(-5, 6)
        assert np.array_equal(np.diag(h), 4.0 * 0.3 * (n - 0.1) ** 2)
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0

    def test_tridiagonal_structure(self):
        p = TransmonParams(e_c=0.2, e_j=10.0, n_g=0.0, charge_cutoff=4, level_count=2)
        h = build_charge_hamiltonian(p)
        assert h.shape == (9, 9)
        assert np.array_equal(h, h.T)
        assert np.all(np.diag(h, 1) == -5.0)
        assert np.count_nonzero(np.triu(h, 2)) == 0

    def test_parity_of_spectrum(self):
        up = TransmonParams(e_c=0.2, e_j=8.0, n_g=0.3, charge_cutoff=20, level_count=5)
        down = replace(up, n_g=-0.3)
        w_up = np.linalg.eigvalsh(build_charge_hamiltonian(up))
        w_down = np.linalg.eigvalsh(build_charge_hamiltonian(down))
        assert np.allclose(w_up, w_down, atol=1e-12)

    def test_small_cutoff_rejected(self):
        with pytest.raises(ValueError, match="charge_cutoff"):
            TransmonParams(e_c=0.2, e_j=8.0, charge_cutoff=5, level_count=10)

    @pytest.mark.parametrize("name", ["e_c", "e_j"])
    def test_nan_energy_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            TransmonParams(**{"e_c": 0.2, "e_j": 8.0, name: np.nan})

    @pytest.mark.parametrize("name", ["e_c", "e_j"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_energy_rejected(self, name, value):
        # inf > 0 is True, so an infinite E_C or E_J used to build
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            TransmonParams(**{"e_c": 0.2, "e_j": 8.0, name: value})

    @pytest.mark.parametrize(
        "name, value",
        [("charge_cutoff", 30.5), ("charge_cutoff", True), ("level_count", 20.5), ("level_count", True)],
    )
    def test_counts_must_be_integers(self, name, value):
        # cutoff 30.5 silently built the charge basis of the n_g = 0.5 transmon
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value}"):
            TransmonParams(**{"e_c": 0.2, "e_j": 8.0, name: value})

    def test_numpy_integer_counts_accepted(self):
        p = TransmonParams(e_c=0.2, e_j=8.0, charge_cutoff=np.int64(30), level_count=np.int32(5))
        assert diagonalize(p).level_count == 5

    @pytest.mark.parametrize("n_g", [np.nan, np.inf, -np.inf])
    def test_non_finite_offset_charge_rejected(self, n_g):
        # the wrap used to fail first, with a message that named no setting
        with pytest.raises(ValueError, match=f"n_g must be finite, got {n_g}"):
            TransmonParams(e_c=0.2, e_j=8.0, n_g=n_g)

    @pytest.mark.parametrize("name", ["e_c", "e_j", "n_g"])
    def test_bool_setting_rejected(self, name):
        # e_c=True built the E_C = 1 GHz transmon
        with pytest.raises(ValueError, match=f"{name} must be a number, got True"):
            TransmonParams(**{"e_c": 0.2, "e_j": 8.0, name: True})

    def test_numpy_float_settings_become_plain_floats(self):
        p = TransmonParams(e_c=np.float32(0.2), e_j=np.float32(8.0), n_g=np.float32(0.3))
        for name in ("e_c", "e_j", "n_g"):
            assert type(getattr(p, name)) is float, name
        assert p.e_c == float(np.float32(0.2))


class TestDiagonalize:
    def test_reference_qubit_frequency(self, ref_ej):
        eigen = diagonalize(TransmonParams(e_c=E_C, e_j=ref_ej, n_g=0.0))
        assert abs(eigen.qubit_frequency - (OMEGA_R + REF_DELTA)) < 1e-6

    def test_harmonic_limit_frequency(self):
        eigen = diagonalize(TransmonParams(e_c=E_C, e_j=120 * E_C, n_g=0.0))
        asymptotic = np.sqrt(8 * 120) * E_C - E_C
        assert abs(eigen.qubit_frequency - asymptotic) / asymptotic < 0.02

    def test_harmonic_limit_coupling(self):
        eigen = diagonalize(TransmonParams(e_c=E_C, e_j=120 * E_C, n_g=0.0))
        assert abs(eigen.couplings[1] - np.sqrt(2)) / np.sqrt(2) < 0.05

    def test_anharmonicity_close_to_charging_energy(self, ref_ej):
        eigen = diagonalize(TransmonParams(e_c=E_C, e_j=ref_ej, n_g=0.0))
        assert abs(eigen.anharmonicity - E_C) / E_C < 0.15

    def test_anharmonicity_needs_three_levels(self, ref_ej):
        # with two levels it failed on numpy's "index 2 is out of bounds"
        eigen = diagonalize(TransmonParams(e_c=E_C, e_j=ref_ej, level_count=2))
        with pytest.raises(ValueError, match="at least 3 levels, got 2"):
            eigen.anharmonicity

    def test_gauge_fixing(self, ref_eigen):
        assert ref_eigen.couplings[0] == 1.0
        assert np.all(ref_eigen.couplings >= 0)
        assert ref_eigen.raw_n01 > 0

    def test_couplings_are_charge_element_magnitudes(self, ref_ej, ref_eigen):
        # the raw eigh elements have mixed signs here, so a signed coupling
        # or a missed sign flip would show
        params = TransmonParams(e_c=E_C, e_j=ref_ej, n_g=REF_NG)
        _, vecs = np.linalg.eigh(build_charge_hamiltonian(params))
        n = np.arange(-params.charge_cutoff, params.charge_cutoff + 1)
        raw = np.diag(vecs.T @ np.diag(n) @ vecs, 1)[: params.level_count - 1]
        assert np.any(raw < 0) and np.any(raw > 0)
        expected = np.abs(raw) / abs(raw[0])
        assert np.allclose(ref_eigen.couplings, expected, rtol=0, atol=1e-12)
        assert ref_eigen.raw_n01 == pytest.approx(abs(raw[0]), rel=1e-12)

    def test_energies_referenced_and_sorted(self, ref_eigen):
        assert ref_eigen.energies[0] == 0.0
        assert np.all(np.diff(ref_eigen.energies) > 0)

    def test_periodicity_in_offset_charge(self):
        # wrapping leaves an ulp-level n_g difference, so machine precision only
        a = diagonalize(TransmonParams(e_c=0.2, e_j=10.0, n_g=0.3))
        b = diagonalize(TransmonParams(e_c=0.2, e_j=10.0, n_g=1.3))
        assert np.allclose(a.energies, b.energies, rtol=0, atol=1e-12)
        assert np.allclose(a.couplings, b.couplings, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_g", [0.13, 0.37])
    def test_parity_in_offset_charge(self, n_g):
        a = diagonalize(TransmonParams(e_c=0.2, e_j=10.0, n_g=n_g))
        b = diagonalize(TransmonParams(e_c=0.2, e_j=10.0, n_g=-n_g))
        assert np.allclose(a.energies, b.energies, atol=1e-11)
        assert np.allclose(a.couplings, b.couplings, atol=1e-9)

    def test_parity_at_half_charge(self):
        # +-0.5 is the symmetry point: energies match, but levels far above
        # the barrier form exactly degenerate doublets whose eigenvector gauge
        # (hence couplings) is arbitrary, so only resolved levels compare
        with pytest.warns(UserWarning, match="degenerate"):
            a = diagonalize(TransmonParams(e_c=0.2, e_j=10.0, n_g=0.5))
        with pytest.warns(UserWarning, match="degenerate"):
            b = diagonalize(TransmonParams(e_c=0.2, e_j=10.0, n_g=-0.5))
        assert np.allclose(a.energies, b.energies, atol=1e-11)
        resolved = np.flatnonzero(np.diff(a.energies) < 1e-6)[0] - 1
        assert resolved >= 10
        assert np.allclose(a.couplings[:resolved], b.couplings[:resolved], atol=1e-9)

    def test_cutoff_convergence(self, ref_ej):
        base = TransmonParams(e_c=E_C, e_j=ref_ej, n_g=0.2, charge_cutoff=30)
        wide = replace(base, charge_cutoff=40)
        delta = np.abs(diagonalize(base).energies - diagonalize(wide).energies)
        assert np.max(delta) < 1e-9

    @pytest.mark.parametrize("k", [1, 2])
    def test_coupling_approaches_harmonic_ratio(self, k):
        # few levels: at ratio 50 the full 20 would reach degenerate
        # above-barrier doublets, which are irrelevant here
        ratios = [50, 120, 500]
        errors = []
        for ratio in ratios:
            eigen = diagonalize(
                TransmonParams(e_c=0.2, e_j=ratio * 0.2, n_g=0.0, level_count=6)
            )
            errors.append(abs(eigen.couplings[k] / np.sqrt(k + 1) - 1.0))
        assert errors[0] < 0.10
        assert errors[0] > errors[1] > errors[2]

    def test_zero_junction_energy_has_no_couplings(self):
        # decoupled charge states: degenerate pairs warn, normalization fails
        with pytest.warns(UserWarning, match="degenerate"):
            with pytest.raises(ValueError, match="<0|n|1>"):
                diagonalize(TransmonParams(e_c=0.2, e_j=0.0, n_g=0.0))

    def test_offset_charge_wrapped(self):
        p = TransmonParams(e_c=0.2, e_j=10.0, n_g=0.7)
        assert p.n_g == pytest.approx(-0.3)


class TestEjForFrequency:
    def test_converged_value_near_seed(self):
        target = OMEGA_R + REF_DELTA
        seed = (target + E_C) ** 2 / (8 * E_C)
        e_j = ej_for_frequency(E_C, target)
        assert abs(e_j - seed) / seed < 0.10

    @pytest.mark.parametrize("target", [5.35, 5.85, 6.35])
    def test_round_trip(self, target):
        e_j = ej_for_frequency(E_C, target)
        eigen = diagonalize(TransmonParams(e_c=E_C, e_j=e_j, n_g=0.0))
        assert abs(eigen.qubit_frequency - target) < 1e-6

    def test_unreachable_target_reports_range(self):
        # the ends and values are those of the last halving and the first doubling
        message = (
            "target 0.1 GHz not bracketed; achievable range at E_J in "
            "[2.415e-20, 0.1114] GHz is [0.776, 0.782592] GHz"
        )
        with pytest.raises(ValueError) as exc:
            ej_for_frequency(0.194, 0.1)
        assert str(exc.value) == message

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ej_for_frequency(-0.1, 5.0)
        with pytest.raises(ValueError):
            ej_for_frequency(0.2, -5.0)

    @pytest.mark.parametrize("target", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, target):
        # NaN passed `target <= 0` and failed later, in an error naming e_j
        with pytest.raises(ValueError, match=f"positive and finite, got {target}"):
            ej_for_frequency(E_C, target)

    def test_float32_charging_energy_is_solved_at_its_value(self, cold_ej):
        # the float32 E_C failed to converge after 100 Brent iterations
        e_c = np.float32(0.194)
        e_j = ej_for_frequency(e_c, 5.85)
        _solve_ej.cache_clear()
        assert e_j == ej_for_frequency(float(e_c), 5.85)
        eigen = diagonalize(TransmonParams(e_c=float(e_c), e_j=e_j, n_g=0.0))
        assert abs(eigen.qubit_frequency - 5.85) < 1e-6


@pytest.fixture
def cold_ej():
    """An empty E_J memo before and after the test, whatever ran before it."""
    _solve_ej.cache_clear()
    yield
    _solve_ej.cache_clear()


@pytest.fixture
def eigensolves(monkeypatch):
    """A list that grows by one entry per charge-basis eigensolve."""
    calls = []
    solve = transmon_mod._eigensystem

    def counted(params):
        calls.append(params)
        return solve(params)

    monkeypatch.setattr(transmon_mod, "_eigensystem", counted)
    return calls


@pytest.mark.usefixtures("cold_ej")
class TestEjMemo:
    def test_repeat_call_solves_nothing(self, eigensolves):
        first = ej_for_frequency(E_C, 5.85)
        assert len(eigensolves) > 0
        solved = len(eigensolves)
        assert ej_for_frequency(E_C, 5.85, 30) is first
        assert len(eigensolves) == solved

    @pytest.mark.parametrize("cutoff", [30.0, True])
    def test_cutoff_checked_after_a_cached_root(self, cutoff):
        ej_for_frequency(0.194, 5.85, 30)
        with pytest.raises(ValueError, match=f"charge_cutoff must be an integer, got {cutoff}"):
            ej_for_frequency(0.194, 5.85, cutoff)

    @pytest.mark.parametrize("target", [np.nan, np.inf, 0.0, -5.85])
    def test_bad_target_raises_on_every_call(self, target):
        for _ in range(2):
            with pytest.raises(ValueError, match="positive and finite"):
                ej_for_frequency(E_C, target)

    def test_failed_solve_is_not_kept(self, eigensolves):
        messages, solves = [], []
        for _ in range(2):
            with pytest.raises(ValueError, match="not bracketed") as exc:
                ej_for_frequency(0.194, 0.1)
            messages.append(str(exc.value))
            solves.append(len(eigensolves))
        assert messages[0] == messages[1]
        # the second call searched the whole bracket again
        assert solves[1] == 2 * solves[0] > 0
        assert _solve_ej.cache_info().currsize == 0

    @pytest.mark.parametrize("typed", [np.float64(5.85), np.array(5.85)], ids=["float64", "0-d"])
    def test_numpy_target_gives_the_plain_bits(self, typed):
        plain = ej_for_frequency(E_C, 5.85)
        _solve_ej.cache_clear()
        assert ej_for_frequency(E_C, typed).hex() == plain.hex()

    def test_cold_and_warm_give_the_same_bits(self):
        cold = ej_for_frequency(E_C, OMEGA_R + REF_DELTA)
        warm = ej_for_frequency(E_C, OMEGA_R + REF_DELTA)
        _solve_ej.cache_clear()
        again = ej_for_frequency(E_C, OMEGA_R + REF_DELTA)
        assert cold.hex() == warm.hex() == again.hex()


@pytest.fixture
def brentq():
    """scipy's brentq, the reference of the port; scipy is a test extra only."""
    from scipy.optimize import brentq

    return brentq


def _scipy_ej(brentq, e_c, target):
    """E_J from scipy's brentq on the bracket that ej_for_frequency searches."""

    def freq_error(e_j):
        h = build_charge_hamiltonian(TransmonParams(e_c=e_c, e_j=e_j, level_count=2))
        evals, _ = np.linalg.eigh(h)
        return (evals[1] - evals[0]) - target

    seed = (target + e_c) ** 2 / (8.0 * e_c)
    lo, hi = 0.5 * seed, 2.0 * seed
    for _ in range(60):
        if freq_error(lo) <= 0:
            break
        lo *= 0.5
    for _ in range(60):
        if freq_error(hi) >= 0:
            break
        hi *= 2.0
    return brentq(freq_error, lo, hi, xtol=1e-10, rtol=8.9e-16)


_RNG = np.random.default_rng(16)
EJ_TARGETS = {
    "desk": [(E_C, OMEGA_R + round(0.8 + 0.05 * i, 10)) for i in range(13)],
    "default": [(E_C, OMEGA_R + delta) for delta in SweepConfig().delta_grid],
    "random": list(zip(_RNG.uniform(0.1, 0.4, 60).tolist(), _RNG.uniform(2.0, 9.0, 60).tolist())),
}


class TestBrentq:
    @pytest.mark.parametrize("grid", sorted(EJ_TARGETS))
    def test_ej_equals_scipy_bit_for_bit(self, grid, brentq):
        targets = EJ_TARGETS[grid]
        ours = [ej_for_frequency(e_c, target) for e_c, target in targets]
        assert ours == [_scipy_ej(brentq, e_c, target) for e_c, target in targets]

    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: x**3 - 2 * x - 5, 2.0, 3.0),
            (lambda x: np.cos(x) - x, 0.0, 1.0),
            (lambda x: x**9 - 0.5, 0.0, 1.5),
            (lambda x: np.tanh(20 * (x - 0.3)), -1.0, 4.0),
        ],
        ids=["cubic", "cos", "steep", "step"],
    )
    @pytest.mark.parametrize("xtol, rtol", [(2e-12, 8.881784197001252e-16), (1e-10, 8.9e-16), (1e-3, 1e-6)])
    def test_root_equals_scipy_bit_for_bit(self, f, a, b, xtol, rtol, brentq):
        root, f_root = _brentq(f, a, b, f(a), f(b), xtol, rtol)
        assert root == brentq(f, a, b, xtol=xtol, rtol=rtol)
        assert f_root == f(root)

    @pytest.fixture
    def same_error(self, brentq):
        """Assert that the port raises scipy's exception type and message."""

        def check(exc_type, f, a, b, maxiter=100):
            with pytest.raises(exc_type) as ref:
                brentq(f, a, b, xtol=1e-10, rtol=8.9e-16, maxiter=maxiter)
            with pytest.raises(exc_type) as ours:
                _brentq(f, a, b, f(a), f(b), 1e-10, 8.9e-16, maxiter)
            assert str(ours.value) == str(ref.value)

        return check

    def test_nan_at_an_end_raises(self, same_error):
        same_error(ValueError, lambda x: np.nan if x < 0.5 else x, 0.0, 1.0)

    def test_nan_inside_raises(self, same_error):
        same_error(ValueError, lambda x: x - 0.5 if x in (0.0, 1.0) else np.nan, 0.0, 1.0)

    def test_same_sign_bracket_raises(self, same_error):
        same_error(ValueError, lambda x: x + 1.0, 0.0, 1.0)

    def test_no_convergence_raises(self, same_error):
        same_error(RuntimeError, lambda x: x**3 - 2, 0.0, 2.0, maxiter=2)

    @pytest.mark.parametrize("at_a", [True, False])
    def test_zero_at_an_end_is_the_root(self, at_a, brentq):
        def never(x):
            raise AssertionError("f evaluated again")

        f_a, f_b = (0.0, 3.0) if at_a else (-3.0, 0.0)
        assert _brentq(never, 1.0, 2.0, f_a, f_b, 1e-10, 8.9e-16) == ((1.0 if at_a else 2.0), 0.0)
        assert brentq(lambda x: f_a if x == 1.0 else f_b, 1.0, 2.0) == (1.0 if at_a else 2.0)


class TestChargeDispersion:
    def test_computational_level_is_flat(self):
        p = TransmonParams(e_c=E_C, e_j=120 * E_C)
        assert charge_dispersion(p, 1) < 1e-4  # < 0.1 MHz

    def test_level_near_barrier_top_disperses_strongly(self, ref_ej):
        p = TransmonParams(e_c=E_C, e_j=ref_ej)
        raw = np.linalg.eigvalsh(build_charge_hamiltonian(p))[: p.level_count]
        barrier_level = int(np.argmin(np.abs(raw - ref_ej)))
        assert barrier_level in (9, 10)
        dispersion = charge_dispersion(p, barrier_level)
        assert 0.01 <= dispersion <= 1.0  # order 100 MHz

    def test_free_charge_ground_band(self):
        p = TransmonParams(e_c=0.26, e_j=0.0, charge_cutoff=10, level_count=2)
        assert charge_dispersion(p, 0) == pytest.approx(0.26, rel=1e-12)

    def test_level_out_of_range(self):
        p = TransmonParams(e_c=0.2, e_j=10.0, level_count=5, charge_cutoff=10)
        with pytest.raises(ValueError, match="not kept"):
            charge_dispersion(p, 7)

    @pytest.mark.parametrize(
        "level, match",
        [(-1, "not kept"), (True, "integer"), (2.5, "integer"), (np.float64(1.0), "integer")],
    )
    def test_level_must_be_a_kept_index(self, level, match):
        # -1 would index the top of the 2N+1 charge-basis levels, not a kept one
        p = TransmonParams(e_c=0.2, e_j=10.0, level_count=5, charge_cutoff=10)
        with pytest.raises(ValueError, match=match):
            charge_dispersion(p, level)


class TestKBend:
    @pytest.mark.parametrize(
        "omega_q,omega_r,eta,expected",
        [
            (5.750, 4.750, 0.200, 5),
            (5.850, 4.750, 0.194, 6),  # 5.67 rounds up
            (5.0, 4.8, 0.2, 1),  # detuning equals anharmonicity
        ],
    )
    def test_values(self, omega_q, omega_r, eta, expected):
        assert k_bend(omega_q, omega_r, eta) == expected

    def test_preconditions(self):
        with pytest.raises(ValueError):
            k_bend(4.0, 4.75, 0.2)
        with pytest.raises(ValueError):
            k_bend(5.75, 4.75, -0.2)


# the composite fields: nested configs, a path and an envelope, each checked by its class
COMPOSITE_FIELDS = {"eigen", "strip", "drive", "envelope", "out_dir"}


class TestStoreFields:
    def test_every_config_field_has_a_stored_kind(self):
        # a future Optional[float] or list[str] would otherwise skip the pass silently
        configs = (
            TransmonParams, DriveConfig, StripConfig, SimulationConfig, SweepConfig,
            DispersiveParams,
        )
        unstored = {
            f.name
            for config in configs
            for f in fields(config)
            if f.type not in transmon_mod._FIELD_STORES
        }
        assert unstored == COMPOSITE_FIELDS

    @pytest.mark.parametrize(
        "value",
        [None, "0.194", [0.194], (0.194,), 0.194 + 0j, np.complex128(0.194), np.array([0.194])],
    )
    def test_finite_float_rejects_what_is_not_one_real_number(self, value):
        with pytest.raises(ValueError, match="e_c must be a number, got"):
            transmon_mod._finite_float("e_c", value)

    @pytest.mark.parametrize(
        "name, value, match",
        [
            ("e_c", None, "e_c must be a number, got None"),
            ("e_j", "8.0", "e_j must be a number, got '8.0'"),
            ("n_g", [0.2], r"n_g must be a number, got \[0.2\]"),
            ("e_c", 0.2 + 0j, r"e_c must be a number, got \(0.2\+0j\)"),
            ("charge_cutoff", None, "charge_cutoff must be an integer, got None"),
            ("level_count", "20", "level_count must be an integer, got '20'"),
        ],
    )
    def test_params_reject_a_setting_of_the_wrong_kind(self, name, value, match):
        with pytest.raises(ValueError, match=match):
            TransmonParams(**{"e_c": 0.2, "e_j": 8.0, name: value})

    def test_numpy_integer_counts_become_plain_ints(self):
        p = TransmonParams(e_c=0.2, e_j=8.0, charge_cutoff=np.int64(30), level_count=np.int32(5))
        assert type(p.charge_cutoff) is int and type(p.level_count) is int
