"""Many-body spectra of the nonreciprocal Hatano-Nelson chain, assembled by
the generalized Aufbau rule (fill single-particle levels by the real part of
their complex energy), with a brute-force Fock-space engine as the oracle.

The package exports the __all__ of aufbau, fock, hardcore, lattice,
numerics, observables and verify, joined in that order; no name is in two
of them. kernels (which does no input checks) and cli stay module-only.
"""

from . import aufbau, fock, hardcore, lattice, numerics, observables, verify
from .aufbau import *  # noqa: F403
from .fock import *  # noqa: F403
from .hardcore import *  # noqa: F403
from .lattice import *  # noqa: F403
from .numerics import *  # noqa: F403
from .observables import *  # noqa: F403
from .verify import *  # noqa: F403

__all__ = [
    *aufbau.__all__, *fock.__all__, *hardcore.__all__, *lattice.__all__,
    *numerics.__all__, *observables.__all__, *verify.__all__,
]
__version__ = "0.1.0"
