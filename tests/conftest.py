"""Shared fixtures: the reference device parameter set used across the suite.

E_C = 0.194 GHz, k_eff = 0.048, omega_r = 4.750 GHz, 1/kappa = 22 ns,
epsilon = 45 MHz resonant square drive for 100 ns; the single-point studies
sit at delta = 1.1 GHz, n_g = 0.2 with 20 levels.
"""

import numpy as np
import pytest

from mistsim.dynamics import SimulationConfig, propagate
from mistsim.field import DriveConfig
from mistsim.strip import StripConfig, bond_amplitudes
from mistsim.transmon import TransmonParams, diagonalize, ej_for_frequency

E_C = 0.194
K_EFF = 0.048
OMEGA_R = 4.750
KAPPA = 1.0 / 22.0
EPSILON = 0.045
DURATION = 100.0
REF_DELTA = 1.1
REF_NG = 0.2


def lab_strip_hamiltonian(strip, alpha):
    """Complex K x K strip Hamiltonian (GHz) under the resonator-frame field ``alpha``.

    The lab-frame reference for the real drive-frame stack: the upper
    off-diagonal carries the field's phase alpha/|alpha| (1 at alpha = 0) and
    the lower one its conjugate. It is built from ``np.diag`` and
    ``bond_amplitudes``, not ``tridiagonal_stack``, so it shares no stack code
    with the propagation.
    """
    mag = abs(alpha)
    unit = alpha / mag if mag > 0 else 1.0
    bonds = unit * bond_amplitudes(strip, mag**2)
    h = np.diag(strip.rotating_diagonal).astype(complex)
    k = np.arange(len(bonds))
    h[k, k + 1] = bonds
    h[k + 1, k] = np.conj(bonds)
    return h


@pytest.fixture(scope="session")
def ref_ej():
    return ej_for_frequency(E_C, OMEGA_R + REF_DELTA)


@pytest.fixture(scope="session")
def ref_eigen(ref_ej):
    return diagonalize(TransmonParams(e_c=E_C, e_j=ref_ej, n_g=REF_NG))


@pytest.fixture(scope="session")
def ref_strip(ref_eigen):
    return StripConfig(eigen=ref_eigen, omega_r=OMEGA_R, k_eff=K_EFF)


@pytest.fixture(scope="session")
def ref_drive():
    return DriveConfig(
        epsilon=EPSILON,
        omega_d=OMEGA_R,
        omega_r_dressed=OMEGA_R,
        kappa=KAPPA,
        duration=DURATION,
    )


@pytest.fixture(scope="session")
def ref_sim(ref_strip, ref_drive):
    return SimulationConfig(strip=ref_strip, drive=ref_drive, initial_state=0)


@pytest.fixture(scope="session")
def ref_trace(ref_sim):
    return propagate(ref_sim)


@pytest.fixture(scope="session")
def ref_fan(ref_strip):
    from mistsim.strip import fan_diagram

    return fan_diagram(ref_strip, np.arange(0.0, 60.0 + 1e-9, 0.25))
