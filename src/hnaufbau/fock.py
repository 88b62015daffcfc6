"""Explicit Fock-space engine: bases, Hamiltonian application, product states.

A basis lists the occupation vectors of one sector in colexicographic order
(the last mode varies slowest), and a state's index is its colex rank: the
combinatorial number system of kernels._colex_rank, read off a table of
partial-sector counts clipped at the sector dimension. So the rank of any
state, and of every state with one particle removed, is exact int64
arithmetic at any L, and no lookup searches the basis.

The Hamiltonian is H = sum_ij h[i, j] c_i^dag c_j for the L x L hopping
matrix h of lattice.hopping_matrix. Every operator goes through one
lowering table per basis: c_j|s> = coef[s, j] |down[s, j]> in the N-1
sector. The factor is the Jordan-Wigner sign (-1)^(occupied sites below j)
for fermions and sqrt(n_j) for bosons and hard-core bosons; hard-core
bosons thus follow bosonic rules with occupancy capped at 1 and no sign,
which is exactly where the two statistics part ways on a periodic
wrap-around bond. Annihilation is a scatter over the table, creation a
gather, so H v, the dense sector Hamiltonian, correlation matrices and
product states are all numpy array operations.

Product states are built by applying creation operators sequentially to the
vacuum, one sector at a time; determinant antisymmetry and permanent
symmetrization come out automatically. eigenstate_from_config takes a state
as its occupation row and gathers its orbitals from the rows of
Levels.orbitals with one np.repeat.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .aufbau import (
    SectorError,
    SectorTooLargeError,
    _capped_dim,
    _check_occupations,
    _occupation_rows,
    count_configs,
)
from .lattice import HNParams, hardcore_image, hopping_matrix, single_particle_levels

__all__ = [
    "BasisMismatchError",
    "FockBasis",
    "FockVector",
    "NullStateError",
    "annihilate",
    "apply_hamiltonian",
    "apply_hopping",
    "build_dense_hamiltonian",
    "construct_product_state",
    "eigenstate_from_config",
    "get_basis",
    "residual",
]

DENSE_DIM_CAP = 2500
# dim x L cells of a basis: rank arithmetic, lowering tables and the bases
# below take about 50 bytes a cell, against about 6 in a spectrum run, so
# the cap is a quarter of MAX_OCCUPATION_CELLS; fermions at L = 58, N = 5
# (265,762,728 cells) fit
MAX_FOCK_CELLS = 1 << 28
NULL_NORM_TOL = 1e-12


class BasisMismatchError(ValueError):
    """Vector basis does not match the requested operation."""


class NullStateError(ArithmeticError):
    """Construction produced a vector of (numerically) zero norm."""


class FockBasis:
    """Ordered N-particle basis for one statistics over L sites.

    ``occupations`` is the dim x L int16 occupation matrix in colex order;
    a state's index is its colex rank. The lowering table ``down``/``coef``
    (dim x L each) is built on first use and kept on the basis; ``down``
    points at ``lower_dim``, one past the last state of the N-1 sector,
    where n_j = 0.
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
    def down(self) -> np.ndarray:
        """Index of c_j|s> in the N-1 sector; lower_dim where n_j = 0."""
        lowered = kernels._colex_rank(self.occupations, self._counts)[1]
        return np.where(self.occupations == 0, self.lower_dim, lowered)

    def index_of(self, occ) -> int:
        """Position of an occupation vector in the basis."""
        occ = tuple(int(n) for n in occ)
        if len(occ) != self.L or sum(occ) != self.N:
            raise BasisMismatchError(f"occupation {occ} not in sector (L={self.L}, N={self.N})")
        if min(occ) < 0:
            raise BasisMismatchError(f"occupation {occ} has a negative entry")
        if self.statistics != "boson" and max(occ) > 1:
            raise BasisMismatchError(f"occupation {occ} exceeds the hard-core cap")
        return int(kernels._colex_rank(np.array([occ]), self._counts)[0][0])

    def zero_vector(self) -> "FockVector":
        return FockVector(self, np.zeros(self.dim, dtype=np.complex128))

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
    A[basis.down, np.arange(basis.L)] = basis.coef * v.amplitudes[:, None]
    return A[:-1]


def _create(basis: FockBasis, A) -> np.ndarray:
    """Amplitudes of sum_j c_j^dag A[:, j] in basis, A indexed by its N-1 sector."""
    padded = np.vstack([A, np.zeros((1, basis.L), dtype=A.dtype)])
    return np.sum(basis.coef * padded[basis.down, np.arange(basis.L)], axis=1)


def apply_hopping(v: FockVector, h: np.ndarray) -> FockVector:
    """w = H v for H = sum_ij h[i, j] c_i^dag c_j; a diagonal entry acts as
    h[i, i] n_i. Raises BasisMismatchError unless h is L x L."""
    if h.shape != (v.basis.L, v.basis.L):
        raise BasisMismatchError(f"hopping matrix shape {h.shape} does not fit L={v.basis.L}")
    return FockVector(v.basis, _create(v.basis, annihilate(v) @ h.T))


def apply_hamiltonian(p: HNParams, v: FockVector) -> FockVector:
    """Action of the many-body Hamiltonian of p on v, in v's own statistics."""
    return apply_hopping(v, hopping_matrix(p))


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
        H[t, s] += coef[t, i] * (h[i, j] * coef[s, j])
    return H


def construct_product_state(orbitals, statistics, L=None) -> FockVector:
    """Apply creation operators sum_j orb[j] c_j^dag for each orbital in turn
    to the vacuum, then normalize.

    Orbitals may come in unnormalized (open-boundary closed forms are); each
    is scaled to unit norm first, which only changes the overall factor that
    normalization fixes anyway; an orbital whose norm overflows is first
    divided by its largest real or imaginary part. Raises NullStateError
    when the result vanishes, e.g. linearly dependent fermion orbitals or
    more hard-core particles than an orbital's support can hold.
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
    if statistics in ("fermion", "hardcore") and N > L:
        raise SectorError(f"{statistics} requires N <= L, got N={N}")

    normed = []
    with np.errstate(over="ignore"):
        for o in orbs:
            nn = np.linalg.norm(o)
            if not np.isfinite(nn):  # finite entries, norm beyond float range
                o = o / max(np.abs(o.real).max(), np.abs(o.imag).max())
                nn = np.linalg.norm(o)
            if nn < 1e-300:
                raise NullStateError("zero orbital")
            normed.append(o / nn)

    vec = np.ones(1, dtype=np.complex128)
    for n, orb in enumerate(normed):
        vec = _create(get_basis(statistics, L, n + 1), np.outer(vec, orb))
    return FockVector(get_basis(statistics, L, N), vec).normalized()


def residual(p: HNParams, v: FockVector, E) -> float:
    """Euclidean norm of H v - E v."""
    w = apply_hamiltonian(p, v)
    return float(np.linalg.norm(w.amplitudes - complex(E) * v.amplitudes))


def eigenstate_from_config(p: HNParams, statistics, occupations) -> FockVector:
    """Product eigenstate of one occupation row (mode m occupied n_m times,
    at position m-1), using the analytic orbitals of the boundary at hand.

    Hard-core states are the fermion states of the Jordan-Wigner image of p
    (lattice.hardcore_image), whose levels the hard-core occupations index:
    the image's fermion Hamiltonian equals the hard-core one of p entry by
    entry in the shared occupation basis, so the fermion amplitudes ARE the
    hard-core amplitudes; a symmetrized bosonic product would not be an
    eigenstate. A row that is not a state of p raises SectorError, occupied
    orbitals beyond float range OverflowError.
    """
    occ = _check_occupations(p.L, statistics, occupations)
    N = int(occ.sum())
    hardcore = statistics == "hardcore"
    levels = single_particle_levels(hardcore_image(p, N) if hardcore else p)
    orbitals = np.repeat(levels.orbitals, occ, axis=0)
    if not np.isfinite(orbitals).all():
        raise OverflowError(f"orbitals of the chain at g={p.g} leave float range")
    if hardcore:
        ferm = construct_product_state(orbitals, "fermion", L=p.L)
        return FockVector(get_basis("hardcore", p.L, N), ferm.amplitudes)
    return construct_product_state(orbitals, statistics, L=p.L)
