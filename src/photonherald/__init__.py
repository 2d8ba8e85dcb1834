"""Few-mode Fock-space simulator for heralded single-photon purification.

Simulates small linear-optical circuits — beam splitters, two-photon
absorbers, four-wave mixers, number-resolving detectors — on truncated
multimode Fock spaces, and provides the closed-form success probabilities,
the null-condition manifold, sweeps, and optimizers for the heralding
schemes built from them.
"""

from . import analysis, elements, fock, schemes, tpam
from .analysis import *  # noqa: F403
from .elements import *  # noqa: F403
from .fock import *  # noqa: F403
from .schemes import *  # noqa: F403
from .tpam import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *fock.__all__,
    *elements.__all__,
    *tpam.__all__,
    *schemes.__all__,
    *analysis.__all__,
]
