"""Semi-classical simulator for measurement-induced state transitions (MIST)
of a transmon read out through a lower-frequency resonator.

The model: the resonator is a classical coherent field ringing up under a
square drive; the field drives excitation-preserving transitions between
transmon levels whose ladder folds back on itself when the qubit sits above
the resonator. Resonances inside that strip move the qubit out of the
computational subspace; this package predicts where they bite as a function
of detuning, photon number, offset charge and prepared state.
"""

__version__ = "0.1.0"

from .transmon import (
    TransmonParams,
    TransmonEigen,
    build_charge_hamiltonian,
    diagonalize,
    ej_for_frequency,
    charge_dispersion,
    k_bend,
)
from .field import (
    DriveConfig,
    FieldTrajectory,
    evolve_field_closed_form,
    evolve_field_numeric,
    field_amplitude,
)
from .strip import (
    StripConfig,
    SpectrumResult,
    CrossingRecord,
    effective_hamiltonian,
    jtc_strip_hamiltonian,
    fan_diagram,
    find_avoided_crossings,
    g_eff_perturbative,
)
from .dynamics import (
    SimulationConfig,
    PopulationTrace,
    SurvivalCurve,
    propagate,
    propagate_states,
    survival_vs_nbar,
    charge_averaged_survival,
)
from .analysis import (
    DispersiveParams,
    OnsetPoint,
    TransitionBoundary,
    chi,
    dressed_frequencies,
    stark_to_photons,
    n_crit,
    extract_onsets,
    fit_boundary,
)
from .sweep import (
    SweepConfig,
    SweepResult,
    run_sweep,
    run_oracle_check,
    config_hash,
    strip_for_detuning,
)

__all__ = [
    "__version__",
    "TransmonParams",
    "TransmonEigen",
    "build_charge_hamiltonian",
    "diagonalize",
    "ej_for_frequency",
    "charge_dispersion",
    "k_bend",
    "DriveConfig",
    "FieldTrajectory",
    "evolve_field_closed_form",
    "evolve_field_numeric",
    "field_amplitude",
    "StripConfig",
    "SpectrumResult",
    "CrossingRecord",
    "effective_hamiltonian",
    "jtc_strip_hamiltonian",
    "fan_diagram",
    "find_avoided_crossings",
    "g_eff_perturbative",
    "SimulationConfig",
    "PopulationTrace",
    "SurvivalCurve",
    "propagate",
    "propagate_states",
    "survival_vs_nbar",
    "charge_averaged_survival",
    "DispersiveParams",
    "OnsetPoint",
    "TransitionBoundary",
    "chi",
    "dressed_frequencies",
    "stark_to_photons",
    "n_crit",
    "extract_onsets",
    "fit_boundary",
    "SweepConfig",
    "SweepResult",
    "run_sweep",
    "run_oracle_check",
    "config_hash",
    "strip_for_detuning",
]
