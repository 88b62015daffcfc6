"""Explicit Fock-space engine: bases, Hamiltonian application, product states.

A basis lists the occupation vectors of one sector in colexicographic order
(the last mode varies slowest), and a state's index is its colex rank: the
combinatorial number system of kernels._colex_rank, read off a table of
partial-sector counts clipped at the sector dimension. So the rank of any
state, and of every state with one particle removed, is exact int64
arithmetic at any L, and no lookup searches the basis.

The Hamiltonian is H = sum_ij h[i, j] c_i^dag c_j for the L x L hopping
matrix h of lattice.hopping_matrix, so H v is apply_hopping(v,
hopping_matrix(p)). Every operator goes through one lowering table per
basis: c_j|s> = coef[s, j] |down[s, j]> in the N-1 sector, held as the flat
index lowering[s, j] = down[s, j] * L + j. The factor is the
Jordan-Wigner sign (-1)^(occupied sites below j) for fermions and sqrt(n_j)
for bosons and hard-core bosons; hard-core bosons thus follow bosonic rules
with occupancy capped at 1 and no sign, which is exactly where the two
statistics part ways on a periodic wrap-around bond. Annihilation is a
scatter over the table, creation a gather, so H v, the dense sector
Hamiltonian, correlation matrices and product states are all numpy array
operations.

Product states are built by applying creation operators one orbital after
another to the vacuum, for a batch of rows at once (eigenstates_from_configs
runs the steps over the rows' stacked vectors, at most STATE_CELLS cells a
batch, and yields one state at a time); determinant antisymmetry and
permanent symmetrization come out automatically; a hard-core product state
is the Jordan-Wigner image of the fermion one, read in the hard-core basis
(same rows). eigenstate_from_config and construct_product_state are its
one-row case. eigenstate_from_config, eigenstates_from_configs and
FockBasis.index_of take states as occupation rows and raise SectorError for
a row that is not one.
residual(v, h, E) is the norm of H v - E v for a hopping matrix h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .aufbau import (
    SectorError,
    SectorTooLargeError,
    _capped_dim,
    _check_occupations,
    _check_sector,
    _occupation_rows,
    _sector_levels,
    count_configs,
)
from .lattice import HNParams, hopping_matrix, single_particle_levels

__all__ = [
    "BasisMismatchError",
    "FockBasis",
    "FockVector",
    "NullStateError",
    "annihilate",
    "apply_hopping",
    "build_dense_hamiltonian",
    "construct_product_state",
    "eigenstate_from_config",
    "eigenstates_from_configs",
    "get_basis",
    "residual",
]

DENSE_DIM_CAP = 2500
# dim x L cells of a basis: rank arithmetic, lowering tables and the bases
# below take about 50 bytes a cell, against 2 to 6 in a spectrum run, so
# the cap is a quarter of MAX_OCCUPATION_CELLS; fermions at L = 58, N = 5
# (265,762,728 cells) fit
MAX_FOCK_CELLS = 1 << 28
NULL_NORM_TOL = 1e-12
# rows x basis dim x L complex cells of one creation batch (256 KB); a
# basis wider than that goes row by row
STATE_CELLS = 1 << 14
# n boson creations of unit orbitals reach a norm of at most sqrt(n!), past
# float range from n = 171; a row is scaled down by a power of two once its
# largest amplitude passes 2**RESCALE_EXP, checked from the step where
# sqrt(n!) first can
RESCALE_EXP = 256


class BasisMismatchError(ValueError):
    """Vector basis does not match the requested operation."""


class NullStateError(ArithmeticError):
    """Construction produced a vector of (numerically) zero norm."""


class FockBasis:
    """Ordered N-particle basis for one statistics over L sites.

    ``occupations`` is the dim x L occupation matrix in colex order, of the
    spectrum's dtype (int8, or int16 for bosons with N > 127); a state's
    index is its colex rank. The lowering table ``lowering``/``coef``
    (dim x L each) is built on first use and kept on the basis:
    ``lowering[s, j]`` is ``down[s, j] * L + j``, the flat position of
    c_j|s> in an N-1 sector array of ``lower_dim + 1`` rows of L, where
    ``down`` is ``lower_dim``, the zero row past the last state, for n_j = 0.
    """

    def __init__(self, statistics, L, N):
        self.statistics = statistics
        self.L = int(L)
        self.N = int(N)
        self.dim = _capped_dim(L, N, statistics, MAX_FOCK_CELLS)
        self.lower_dim = count_configs(L, N - 1, statistics) if N > 0 else 0
        self.occupations = _occupation_rows(L, N, statistics)

    @cached_property
    def _counts(self) -> np.ndarray:
        """w[m, n]: the rows with n particles on modes 0..m-1, clipped at dim.
        It outgrows the dim x L occupations only where dim = 1: a full
        fermion or hard-core sector, or bosons on one mode."""
        if self.L * (self.N + 1) > MAX_FOCK_CELLS:
            raise SectorTooLargeError(
                f"rank table of {self.L} x {self.N + 1} counts, above the cap of "
                f"{MAX_FOCK_CELLS}"
            )
        w = np.zeros((self.L, self.N + 1), dtype=np.int64)
        w[:, 0] = 1
        # by the highest occupied mode m' < m: the other n - 1 particles sit
        # on the modes below m' (fermions), or on those up to m' (bosons)
        s = 1 if self.statistics == "boson" else 0
        for n in range(1, self.N + 1):
            np.cumsum(w[s : self.L - 1 + s, n - 1], out=w[1:, n])
            np.minimum(w[:, n], self.dim, out=w[:, n])
        return w

    @cached_property
    def coef(self) -> np.ndarray:
        """Factor of c_j|s>: Jordan-Wigner sign or sqrt(n_j); 0 where n_j = 0."""
        occ = self.occupations
        if self.statistics == "fermion":
            below = np.cumsum(occ, axis=1) - occ
            return np.where(occ == 1, 1.0 - 2.0 * (below % 2), 0.0)
        return np.sqrt(occ.astype(np.float64))

    @cached_property
    def lowering(self) -> np.ndarray:
        """Flat index down[s, j] * L + j of c_j|s> (see ``down``)."""
        lowered = kernels._colex_rank(self.occupations, self._counts)[1]
        down = np.where(self.occupations == 0, self.lower_dim, lowered)
        return down * self.L + np.arange(self.L)

    @property
    def down(self) -> np.ndarray:
        """Index of c_j|s> in the N-1 sector; lower_dim where n_j = 0."""
        return self.lowering // self.L

    def index_of(self, occ) -> int:
        """Position of an occupation row in the basis: SectorError for a row
        that is not a state, BasisMismatchError for one of another N."""
        occ = _check_occupations(self.L, self.statistics, occ)
        if occ.sum() != self.N:
            raise BasisMismatchError(
                f"occupation {tuple(occ.tolist())} not in sector (L={self.L}, N={self.N})"
            )
        return int(kernels._colex_rank(occ[None], self._counts)[0][0])

    def __repr__(self):
        return (
            f"FockBasis(statistics={self.statistics!r}, L={self.L}, "
            f"N={self.N}, dim={self.dim})"
        )


@lru_cache(maxsize=64)
def get_basis(statistics, L, N) -> FockBasis:
    """Memoized basis constructor; bases are immutable once built."""
    return FockBasis(statistics, L, N)


@dataclass
class FockVector:
    """Complex amplitudes over a FockBasis."""

    basis: FockBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.basis.dim,):
            raise BasisMismatchError(
                f"amplitude count {amps.shape} does not match basis dim {self.basis.dim}"
            )
        self.amplitudes = amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "FockVector":
        n = self.norm()
        if n < NULL_NORM_TOL:
            raise NullStateError(f"vector norm {n:.3e} below {NULL_NORM_TOL}")
        return FockVector(self.basis, self.amplitudes / n)


def annihilate(v: FockVector) -> np.ndarray:
    """Matrix A of shape (dim_{N-1}, L) whose column j is c_j v."""
    basis = v.basis
    A = np.zeros((basis.lower_dim + 1, basis.L), dtype=np.complex128)
    A.ravel()[basis.lowering] = basis.coef * v.amplitudes[:, None]
    return A[:-1]


def _create(basis: FockBasis, A) -> np.ndarray:
    """Amplitudes of sum_j c_j^dag A[..., :, j] in basis, for A of shape
    (..., lower_dim, L) indexed by the N-1 sector. The gather is
    C-contiguous, so a row in a batch rounds as it does alone."""
    batch = A.shape[:-2]
    padded = np.zeros((*batch, basis.lower_dim + 1, basis.L), dtype=A.dtype)
    padded[..., :-1, :] = A
    gathered = np.take(padded.reshape(*batch, -1), basis.lowering, axis=-1)
    return np.sum(np.multiply(basis.coef, gathered, out=gathered), axis=-1)


def apply_hopping(v: FockVector, h: np.ndarray) -> FockVector:
    """w = H v for H = sum_ij h[i, j] c_i^dag c_j; a diagonal entry acts as
    h[i, i] n_i. Raises BasisMismatchError unless h is L x L."""
    if h.shape != (v.basis.L, v.basis.L):
        raise BasisMismatchError(f"hopping matrix shape {h.shape} does not fit L={v.basis.L}")
    return FockVector(v.basis, _create(v.basis, annihilate(v) @ h.T))


def build_dense_hamiltonian(p: HNParams, statistics, N) -> np.ndarray:
    """Dense sector Hamiltonian, columns indexed like the basis. Sectors
    larger than 2500 states are refused."""
    basis = get_basis(statistics, p.L, N)
    if basis.dim > DENSE_DIM_CAP:
        raise SectorTooLargeError(
            f"dense sector has {basis.dim} states, above the cap of {DENSE_DIM_CAP}"
        )
    h = hopping_matrix(p)
    down, coef = basis.down, basis.coef
    sites = np.arange(p.L)
    # inverse table: up[r, i] is the state s with down[s, i] = r, -1 if none
    up = np.full((basis.lower_dim + 1, p.L), -1, dtype=np.intp)
    up[down, sites] = np.arange(basis.dim)[:, None]
    H = np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    for i, j in zip(*np.nonzero(h)):
        s = np.flatnonzero(coef[:, j])
        t = up[down[s, j], i]
        s, t = s[t >= 0], t[t >= 0]
        with np.errstate(over="ignore", invalid="ignore"):  # inf/nan beyond float range
            H[t, s] += coef[t, i] * (h[i, j] * coef[s, j])
    return H


def _unit_orbital(o) -> np.ndarray:
    """o scaled to unit norm; an o whose norm overflows is first divided by
    its largest real or imaginary part. NullStateError for a zero orbital."""
    with np.errstate(over="ignore"):
        nn = np.linalg.norm(o)
        if not np.isfinite(nn):  # finite entries, norm beyond float range
            o = o / max(np.abs(o.real).max(), np.abs(o.imag).max())
            nn = np.linalg.norm(o)
    if nn < 1e-300:
        raise NullStateError("zero orbital")
    return o / nn


def _product_states(statistics, L, orbitals, picks):
    """Yield, for each row i of picks (R x N), the normalized product of the
    creation operators of the unit orbitals orbitals[picks[i, 0]],
    orbitals[picks[i, 1]], ... applied in turn to the vacuum.

    The rows go through the creation steps in batches of at most
    STATE_CELLS cells of the sector basis (at least one row). A boson row
    whose largest amplitude passes 2**RESCALE_EXP is scaled down by an
    exact power of two, which changes no bit of its normalized state, and
    NullStateError judges each norm with that scale put back.
    """
    rows, N = picks.shape
    basis = get_basis(statistics, L, N)
    creation = "fermion" if statistics == "hardcore" else statistics
    size = max(1, STATE_CELLS // (basis.dim * L))
    for lo in range(0, rows, size):
        batch = picks[lo : lo + size]
        vec = np.ones((len(batch), 1), dtype=np.complex128)
        scale = np.zeros(len(batch), dtype=np.int64)
        for n, orb in enumerate(orbitals[batch.T], 1):
            vec = _create(get_basis(creation, L, n), vec[:, :, None] * orb[:, None, :])
            if creation == "boson" and math.lgamma(n + 1) > 2 * RESCALE_EXP * math.log(2):
                peak = np.abs(vec).max(axis=1)
                big = peak > 2.0**RESCALE_EXP
                if big.any():
                    shift = np.frexp(peak[big])[1]
                    vec[big] *= np.ldexp(1.0, -shift)[:, None]
                    scale[big] += shift
        for amps, shift in zip(vec, scale.tolist()):
            norm = float(np.linalg.norm(amps))
            if norm < math.ldexp(NULL_NORM_TOL, -shift):
                raise NullStateError(
                    f"vector norm {math.ldexp(norm, shift):.3e} below {NULL_NORM_TOL}")
            yield FockVector(basis, amps / norm)


def construct_product_state(orbitals, statistics, L=None) -> FockVector:
    """Apply creation operators sum_j orb[j] c_j^dag for each orbital in turn
    to the vacuum, then normalize: the one-row case of the creation loop of
    eigenstates_from_configs.

    A hard-core state is the Jordan-Wigner image of the fermion product, its
    amplitudes read in the hard-core basis, not a symmetrized product.

    Orbitals may come in unnormalized (open-boundary closed forms are); each
    is scaled to unit norm first, which only changes the overall factor that
    normalization fixes anyway; an orbital whose norm overflows is first
    divided by its largest real or imaginary part. Raises SectorError when
    the orbitals do not fit a sector of L modes, NullStateError when the
    result vanishes, e.g. linearly dependent fermion or hard-core orbitals.
    """
    orbs = [np.asarray(o, dtype=np.complex128).ravel() for o in orbitals]
    if L is None:
        if not orbs:
            raise ValueError("need L when constructing the bare vacuum")
        L = orbs[0].size
    for o in orbs:
        if o.size != L:
            raise ValueError(f"orbital length {o.size} != L={L}")
        if not np.all(np.isfinite(o.real)) or not np.all(np.isfinite(o.imag)):
            raise ValueError("orbital contains non-finite entries")
    N = len(orbs)
    _check_sector(L, N, statistics)
    unit = np.array([_unit_orbital(o) for o in orbs]).reshape(N, L)
    return next(_product_states(statistics, L, unit, np.arange(N)[None]))


def residual(v: FockVector, h: np.ndarray, E) -> float:
    """Euclidean norm of H v - E v for H = sum_ij h[i, j] c_i^dag c_j, with h
    an L x L hopping matrix such as lattice.hopping_matrix(p)."""
    w = apply_hopping(v, h)
    return float(np.linalg.norm(w.amplitudes - complex(E) * v.amplitudes))


def eigenstates_from_configs(p: HNParams, statistics, rows):
    """Generator of the product eigenstate of each occupation row of rows
    (R x L, one sector), in row order, using the analytic orbitals of the
    boundary at hand: mode m occupied n_m times, at position m-1.

    The rows index the levels their sector fills (aufbau._sector_levels): for
    hard-core bosons those of the Jordan-Wigner image of p, whose fermion
    Hamiltonian is the hard-core one of p entry by entry. The levels are
    built once and each occupied level's orbital is normalized once; only
    the occupied levels' orbitals are read, so the vacuum needs none. The
    states are built in batches (_product_states) and never all held. A
    row that is not a state of p, or rows of different particle numbers,
    raise SectorError, occupied orbitals beyond float range OverflowError,
    both in the call itself, before the first state.
    """
    occ = _check_occupations(p.L, statistics, rows, ndim=2)
    counts = occ.sum(axis=1)
    N = int(counts[0]) if counts.size else 0
    if (counts != N).any():
        raise SectorError(f"rows hold different particle numbers {sorted(set(counts.tolist()))}")
    _check_sector(p.L, N, statistics)
    levels = _sector_levels(single_particle_levels(p), statistics, N)
    used = np.flatnonzero(occ.any(axis=0))
    orbitals = levels.orbitals[used]
    if not np.isfinite(orbitals).all():
        raise OverflowError(f"orbitals of the chain at g={p.g} leave float range")
    unit = np.array([_unit_orbital(o) for o in orbitals]).reshape(used.size, p.L)
    # row r creates its occupied levels in mode order, n_m times each; the
    # picks are positions in used, one byte each below 256 levels
    positions = np.arange(used.size, dtype=np.min_scalar_type(used.size))
    picks = np.repeat(np.tile(positions, len(occ)), occ[:, used].ravel()).reshape(len(occ), N)
    return _product_states(statistics, p.L, unit, picks)


def eigenstate_from_config(p: HNParams, statistics, occupations) -> FockVector:
    """Product eigenstate of one occupation row: the one-row case of
    eigenstates_from_configs. A row that is not a state of p raises
    SectorError, orbitals beyond float range OverflowError.
    """
    occ = _check_occupations(p.L, statistics, occupations)
    return next(eigenstates_from_configs(p, statistics, occ[None]))
