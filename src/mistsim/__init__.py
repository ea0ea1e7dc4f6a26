"""Semi-classical simulator for measurement-induced state transitions (MIST)
of a transmon read out through a lower-frequency resonator.

The model: the resonator is a classical coherent field ringing up under a
square drive; the field drives excitation-preserving transitions between
transmon levels whose ladder folds back on itself when the qubit sits above
the resonator. Resonances inside that strip move the qubit out of the
computational subspace; this package predicts where they bite as a function
of detuning, photon number, offset charge and prepared state.

Each science module's ``__all__`` is the one list of its public names; the
package exports all of them. ``output`` and ``cli`` stay module-level.
"""

__version__ = "0.1.0"

from . import analysis, dynamics, field, strip, sweep, transmon
from .transmon import *  # noqa: F403
from .field import *  # noqa: F403
from .strip import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .analysis import *  # noqa: F403
from .sweep import *  # noqa: F403

__all__ = [
    "__version__",
    *transmon.__all__,
    *field.__all__,
    *strip.__all__,
    *dynamics.__all__,
    *analysis.__all__,
    *sweep.__all__,
]
