"""Many-body spectra of the nonreciprocal Hatano-Nelson chain, assembled by
the generalized Aufbau rule (fill single-particle levels by the real part of
their complex energy), with a brute-force Fock-space engine as the oracle.
"""

from .aufbau import (
    ManyBodyLevel,
    OccupationConfig,
    SectorError,
    SectorTooLargeError,
    Spectrum,
    build_spectrum,
    count_configs,
    ground_state,
    occupation_string,
    occupation_strings,
    parse_occupation_string,
    sort_complex_spectrum,
    sort_levels,
)
from .fock import (
    BasisMismatchError,
    FockBasis,
    FockVector,
    NullStateError,
    build_dense_hamiltonian,
    construct_product_state,
    eigenstate_from_config,
    get_basis,
    residual,
)
from .hardcore import (
    EnergyGap,
    delta_E_scan,
    im_delta_closed_form,
    obc_equivalence_check,
)
from .lattice import (
    ComplexLevel,
    HNParams,
    Levels,
    hardcore_image,
    hopping_matrix,
    single_particle_levels,
)
from .numerics import eigenvalues
from .observables import (
    DistributionProfile,
    SingularMatrixError,
    SkinMetrics,
    correlation_matrix,
    density_from_fock,
    density_matrix_from_orbitals,
    momentum_distribution,
    skin_metrics,
)
from .verify import SUITES, CheckResult, run_checks, summary_table

__version__ = "0.1.0"
