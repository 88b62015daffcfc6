"""Hatano-Nelson chain: hopping matrices and analytic single-particle data.

The model is the nonreciprocal nearest-neighbor chain

    H = t e^{g} c_j^dag c_{j+1} + t e^{-g} c_{j+1}^dag c_j,

summed over bonds, with open, periodic, or twisted boundaries. A twist phi
multiplies the wrap-around hops by e^{-i phi} (rightward) and e^{+i phi}
(leftward); phi = 0 is periodic and phi = pi antiperiodic.

Closed forms implemented here:

  periodic/twisted:  k_m = (2 pi m + phi)/L,  m = 1..L
                     eps_m = t e^{g} e^{-i k_m} + t e^{-g} e^{+i k_m}
                     orbital phi_j = e^{-i k_m j} / sqrt(L)   (unit norm)

  open:              k'_m = m pi / (L+1)
                     eps_m = 2 t cos k'_m                     (real)
                     orbital phi_j = e^{-g j} sin(j k'_m)     (NOT normalized)

Open-boundary orbitals are kept unnormalized on purpose; normalization is
applied downstream where observables are formed. Sites are 1-indexed in the
formulas above and stored at array positions j-1.

Hard-core bosons on a ring are free fermions on a different ring. The
Jordan-Wigner string of a particle hopping across the wrap-around bond
passes the other N-1 particles, so that bond picks up the sign (-1)^(N-1)
(Lieb, Schultz & Mattis, Ann. Phys. 16, 407, 1961): hardcore_image(p, N) is
p itself for an open chain or odd N, and p with its twist shifted by pi
otherwise.

One builder, single_particle_levels, returns one array-backed Levels per
chain, for either boundary: labels, momenta and energies are evaluated with
numpy over all m at once, by the same expressions in the same order as the
scalar formulas, so they agree with a level-by-level evaluation bit for bit.
The L x L orbital matrix is built lazily, on first access, so energy-only
work (spectra, ground-energy scans over long rings) never allocates it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

__all__ = [
    "BOUNDARIES",
    "ComplexLevel",
    "HNParams",
    "Levels",
    "hardcore_image",
    "hopping_matrix",
    "single_particle_levels",
]

BOUNDARIES = ("periodic", "open", "twisted")


@dataclass(frozen=True)
class HNParams:
    """Model parameters: length L >= 2, hopping t > 0, nonreciprocity g,
    boundary in {periodic, open, twisted} with twist angle in radians
    (meaningful only when boundary == "twisted")."""

    L: int
    t: float = 1.0
    g: float = 0.0
    boundary: str = "periodic"
    twist: float = 0.0

    def __post_init__(self):
        if not isinstance(self.L, (int, np.integer)) or isinstance(self.L, bool):
            raise ValueError(f"L must be an integer, got {self.L!r}")
        if self.L < 2:
            raise ValueError(f"L must be >= 2, got {self.L}")
        for name in ("t", "g", "twist"):
            val = getattr(self, name)
            if not isinstance(val, (int, float, np.floating, np.integer)) or isinstance(
                val, bool
            ):
                raise ValueError(f"{name} must be a real number, got {val!r}")
            if not math.isfinite(float(val)):
                raise ValueError(f"{name} must be finite, got {val}")
        if not self.t > 0:
            raise ValueError(f"t must be > 0, got {self.t}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(
                f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}"
            )
        if self.boundary != "twisted" and self.twist != 0.0:
            raise ValueError("twist angle is only valid with boundary='twisted'")

    @property
    def phi(self) -> float:
        """Effective wrap-around phase: 0 for periodic, twist for twisted."""
        return float(self.twist) if self.boundary == "twisted" else 0.0


@dataclass(frozen=True)
class ComplexLevel:
    """One single-particle level: mode label m (1..L), its momentum, complex
    energy, and the length-L orbital amplitudes (site j at position j-1)."""

    label: int
    momentum: float
    energy: complex
    orbital: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class Levels:
    """The single-particle levels of a chain, held as arrays.

    Entry i of ``labels`` (mode label m, int64), ``momenta`` (float64) and
    ``energies`` (complex128) belongs to level i. ``orbitals`` is the
    read-only matrix whose row i is the orbital of level i; it is built from
    the closed form of ``params`` on first access and cached, so callers that
    need only energies never pay for it (nor for its overflow at large |g| on
    an open chain). ``levels[i]`` builds the ComplexLevel of level i
    (negative i counts from the end). Levels made from bare energies
    (``params`` None) have no orbitals.
    """

    labels: np.ndarray = field(repr=False)
    momenta: np.ndarray = field(repr=False)
    energies: np.ndarray = field(repr=False)
    params: HNParams | None

    def __len__(self) -> int:
        return self.energies.shape[0]

    def __getitem__(self, key) -> ComplexLevel:
        i = operator.index(key)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"level {key} outside {len(self)} levels")
        return ComplexLevel(
            int(self.labels[i]),
            float(self.momenta[i]),
            complex(self.energies[i]),
            self.orbitals[i],
        )

    @cached_property
    def orbitals(self) -> np.ndarray:
        p = self.params
        if p is None:
            raise ValueError("levels built from bare energies have no orbitals")
        sites = np.arange(1, p.L + 1)
        k = self.momenta[:, None]
        if p.boundary == "open":
            with np.errstate(over="ignore", invalid="ignore"):  # inf beyond float range
                orbitals = (np.exp(-p.g * sites) * np.sin(k * sites)).astype(np.complex128)
        else:
            orbitals = np.exp(-1j * k * sites) / math.sqrt(p.L)
        orbitals.flags.writeable = False
        return orbitals


def _exp_pm(g):
    """(e^g, e^-g) for the hopping amplitudes; an OverflowError that names g
    when either leaves float range."""
    try:
        return math.exp(g), math.exp(-g)
    except OverflowError:
        raise OverflowError(f"hopping amplitude e^|g| at g={g} leaves float range") from None


def hardcore_image(p: HNParams, N) -> HNParams:
    """Jordan-Wigner image of N hard-core bosons on p: the chain whose N free
    fermions have the same Hamiltonian, entry by entry in the occupation
    basis. That is p for an open chain or odd N, else the same ring with its
    wrap-around phase shifted by pi."""
    if p.boundary == "open" or N % 2 == 1:
        return p
    return replace(p, boundary="twisted", twist=p.phi + math.pi)


def hopping_matrix(p: HNParams) -> np.ndarray:
    """L x L hopping matrix of the chain.

    Row i, column j holds the amplitude of c_i^dag c_j. Wrap-around entries
    accumulate onto existing ones, which matters only at L = 2 where chain
    and wrap bonds coincide.
    """
    L = p.L
    tg, tg_rev = (p.t * e for e in _exp_pm(p.g))
    h = np.zeros((L, L), dtype=np.complex128)
    bond = np.arange(L - 1)
    h[bond, bond + 1] = tg
    h[bond + 1, bond] = tg_rev
    if p.boundary != "open":
        phase = np.exp(-1j * p.phi)
        with np.errstate(over="ignore", invalid="ignore"):  # inf/nan beyond float range
            h[L - 1, 0] += tg * phase
            h[0, L - 1] += tg_rev * np.conj(phase)
    return h


def single_particle_levels(p: HNParams) -> Levels:
    """Analytic levels of the chain, labels m = 1..L.

    Periodic or twisted: momenta k_m = (2 pi m + phi)/L and plane-wave
    orbitals normalized to 1. Open: momenta k'_m = m pi/(L+1), real energies
    2 t cos k'_m and orbitals e^{-g j} sin(j k'_m) unnormalized; the energies
    are independent of g (similarity transform to the Hermitian chain), the
    orbitals are not.
    """
    L = p.L
    m = np.arange(1, L + 1, dtype=np.int64)
    if p.boundary == "open":
        k = math.pi * m / (L + 1)
        energies = (2.0 * p.t * np.cos(k)).astype(np.complex128)
    else:
        k = (2.0 * math.pi * m + p.phi) / L
        eg, eg_rev = _exp_pm(p.g)
        phase = np.exp(1j * k)  # e^{-ik} is its conjugate, bit for bit
        with np.errstate(over="ignore", invalid="ignore"):  # inf/nan beyond float range
            energies = p.t * eg * np.conj(phase) + p.t * eg_rev * phase
    return Levels(m, k, energies, p)
