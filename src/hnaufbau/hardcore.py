"""Fermion vs hard-core boson comparison on the nonreciprocal chain.

Under open boundaries the two statistics share their full spectrum. On a
ring they differ through the wrap-around bond: mapping hard-core bosons to
fermions turns the boundary hop into a parity-dependent one, so a sector
with an odd particle number maps to periodic fermions and an even number to
antiperiodic ones (twist pi). Ground-state energies of hard-core bosons on
a ring are therefore reachable at any size through twisted free-fermion
filling, no Fock enumeration involved.

The half-filled ground-state gap

    Delta E_fb = E0_fermion - E0_hcb

has an imaginary part fixed by filling alone,

    Im Delta E_fb = t (-e^{g} + e^{-g}) sin(pi (1 - N/L)),

while the real part decays with chain length. Both are scanned here; the
dense Fock oracle validates the parity mapping at small sizes, signs and
all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .aufbau import (
    SectorError,
    _check_sector,
    _fill,
    ground_state,
    sort_complex_spectrum,
)
from .fock import build_dense_hamiltonian
from .lattice import HNParams, pbc_spectrum

__all__ = [
    "EnergyGap",
    "ParitySector",
    "delta_E_scan",
    "fermion_ground_energy_pbc",
    "hcb_ground_energy_pbc",
    "im_delta_closed_form",
    "obc_equivalence_check",
    "parity_sector",
]

HCB_IM_TOL = 1e-10


@dataclass(frozen=True)
class ParitySector:
    """Particle-number parity of a hard-core sector on a ring and the
    boundary condition its fermion image sees."""

    L: int
    N: int
    N_parity: str
    effective_fermion_boundary: str


@dataclass(frozen=True)
class EnergyGap:
    """Ground-state energies of the two statistics at one size, plus their
    difference. The hard-core value must come out real; a non-real one is a
    computation failure and raises ArithmeticError."""

    L: int
    N: int
    g: float
    t: float
    E0_fermion: complex
    E0_hcb: complex
    delta: complex

    def __post_init__(self):
        if abs(self.E0_hcb.imag) >= HCB_IM_TOL:
            raise ArithmeticError(
                f"hard-core ground energy has Im = {self.E0_hcb.imag:.3e}, "
                f"expected |Im| < {HCB_IM_TOL}"
            )


def parity_sector(L, N) -> ParitySector:
    """Boundary condition of the fermion image of a hard-core ring sector."""
    _check_sector(L, N, "hardcore", ring=True)
    if N % 2 == 0:
        return ParitySector(int(L), int(N), "even", "antiperiodic")
    return ParitySector(int(L), int(N), "odd", "periodic")


def _ring_params(L, t, g, phi):
    if phi == 0.0:
        return HNParams(L=L, t=t, g=g, boundary="periodic")
    return HNParams(L=L, t=t, g=g, boundary="twisted", twist=phi)


def fermion_ground_energy_pbc(L, N, g, t=1.0) -> complex:
    """Aufbau ground energy of N periodic fermions; for even N this sits on
    the negative-imaginary branch of the degenerate pair (g > 0)."""
    _check_sector(L, N, "hardcore", ring=True)
    levels = pbc_spectrum(_ring_params(int(L), t, g, 0.0))
    return ground_state(levels, "fermion", int(N)).energy


def hcb_ground_energy_pbc(L, N, g, t=1.0) -> complex:
    """Hard-core ground energy on the ring via the parity-twisted fermion
    image: twist 0 for odd N, twist pi for even N."""
    sector = parity_sector(L, N)
    phi = math.pi if sector.effective_fermion_boundary == "antiperiodic" else 0.0
    p = _ring_params(int(L), t, g, phi)
    levels = pbc_spectrum(p)
    return ground_state(levels, "fermion", int(N)).energy


def im_delta_closed_form(L, N, g, t=1.0) -> float:
    """Filling-only closed form for Im(Delta E_fb)."""
    _check_sector(L, N, "hardcore", ring=True)
    return t * (-math.exp(g) + math.exp(-g)) * math.sin(math.pi * (1.0 - N / L))


def delta_E_scan(L_list, filling=0.5, g=0.5, t=1.0):
    """EnergyGap per chain length, at fixed filling (default one half).

    Each L must give an even integer N = filling * L; even parity is the
    ring sector where the two statistics genuinely differ. Cost is
    O(L log L) per point.
    """
    gaps = []
    for L in L_list:
        if not isinstance(L, (int, np.integer)) or isinstance(L, bool) or L < 2:
            raise SectorError(f"scan lengths must be integers >= 2, got {L!r}")
        n_real = filling * L
        N = int(round(n_real))
        if abs(n_real - N) > 1e-9:
            raise SectorError(
                f"filling {filling} gives non-integer N = {n_real} at L={L}"
            )
        if N % 2 != 0:
            raise SectorError(
                f"scan requires even N (got N={N} at L={L}); use L = 0 mod 4 at half filling"
            )
        _check_sector(L, N, "hardcore", ring=True)
        e0f, e0b = (
            _fill(pbc_spectrum(_ring_params(int(L), t, g, phi)), "fermion", N, None)[0]
            for phi in (0.0, math.pi)
        )
        gaps.append(
            EnergyGap(
                L=int(L), N=N, g=float(g), t=float(t),
                E0_fermion=e0f, E0_hcb=e0b, delta=e0f - e0b,
            )
        )
    return gaps


def obc_equivalence_check(L, N, g, t=1.0, boundary="open", tol=1e-8) -> bool:
    """True iff the dense hard-core and fermion spectra agree as multisets
    within tol. Open boundaries always agree; a ring with even N does not."""
    _check_sector(L, N, "hardcore", ring=True)
    p = HNParams(L=int(L), t=t, g=g, boundary=boundary)
    ef = numerics.eigenvalues(build_dense_hamiltonian(p, "fermion", int(N)))
    eb = numerics.eigenvalues(build_dense_hamiltonian(p, "hardcore", int(N)))
    diff = sort_complex_spectrum(ef) - sort_complex_spectrum(eb)
    return bool(np.max(np.abs(diff)) <= tol)
