"""Fermion vs hard-core boson comparison on the nonreciprocal chain.

Under open boundaries the two statistics share their full spectrum. On a
ring they differ through the wrap-around bond: the Jordan-Wigner image of
the hard-core sector (lattice.hardcore_image) is the periodic ring for odd
particle number and the antiperiodic one (twist pi) for even. The aufbau
fill applies that image to the ring it is given, so hard-core ground-state
energies are reachable at any size by free-fermion filling, no Fock
enumeration involved: the one level builder gives both statistics,
ground_state(single_particle_levels(p), statistics, N).energy.

The half-filled ground-state gap

    Delta E_fb = E0_fermion - E0_hcb

has an imaginary part fixed by filling alone,

    Im Delta E_fb = t (-e^{g} + e^{-g}) sin(pi (1 - N/L)),

while the real part decays with chain length. Both are scanned here; the
dense Fock oracle validates the Jordan-Wigner image at small sizes, signs and
all. The scan returns its energies as computed; the hard-core one is real
only in exact arithmetic, and its reporters (hcb-compare, verify's
closed-form suite) judge it against verify.TOLERANCES["closed_form"].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .aufbau import SectorError, _check_sector, _fill, sort_complex_spectrum
from .fock import build_dense_hamiltonian
from .lattice import HNParams, _exp_pm, single_particle_levels

__all__ = [
    "EnergyGap",
    "delta_E_scan",
    "im_delta_closed_form",
    "obc_equivalence_check",
]

@dataclass(frozen=True)
class EnergyGap:
    """Ground-state energies of the two statistics at one size, plus their
    difference, as the fill computed them; E0_hcb may carry a rounding
    imaginary part, which the reporter judges."""

    L: int
    N: int
    g: float
    t: float
    E0_fermion: complex
    E0_hcb: complex
    delta: complex


def im_delta_closed_form(L, N, g, t=1.0) -> float:
    """Filling-only closed form for Im(Delta E_fb), for t and g that HNParams accepts."""
    _check_sector(L, N, "hardcore", ring=True)
    HNParams(L=L, t=t, g=g)
    eg, eg_rev = _exp_pm(g)
    return t * (-eg + eg_rev) * math.sin(math.pi * (1.0 - N / L))


def delta_E_scan(L_list, filling=0.5, g=0.5, t=1.0):
    """EnergyGap per chain length, at fixed filling (default one half).

    Each L must give an even integer N = filling * L; even parity is the
    ring sector where the two statistics genuinely differ. Cost is
    O(L log L) per point. Raises SectorError on a bad length or filling and
    OverflowError on an energy beyond float range; a non-real hard-core
    energy comes back as computed.
    """
    if not math.isfinite(filling):
        raise SectorError(f"filling must be finite, got {filling}")
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
        levels = single_particle_levels(HNParams(L=int(L), t=t, g=g))
        e0f, e0b = (_fill(levels, stats, N)[0] for stats in ("fermion", "hardcore"))
        gaps.append(
            EnergyGap(
                L=int(L), N=N, g=float(g), t=float(t),
                E0_fermion=e0f, E0_hcb=e0b, delta=e0f - e0b,
            )
        )
    return gaps


def obc_equivalence_check(L, N, g, t=1.0, boundary="open") -> bool:
    """True iff the dense hard-core and fermion spectra agree as multisets
    within 1e-8. Open boundaries always agree; a ring with even N does not."""
    _check_sector(L, N, "hardcore", ring=True)
    p = HNParams(L=int(L), t=t, g=g, boundary=boundary)
    ef = numerics.eigenvalues(build_dense_hamiltonian(p, "fermion", int(N)))
    eb = numerics.eigenvalues(build_dense_hamiltonian(p, "hardcore", int(N)))
    diff = sort_complex_spectrum(ef) - sort_complex_spectrum(eb)
    return bool(np.max(np.abs(diff)) <= 1e-8)
