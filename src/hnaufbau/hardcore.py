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
all. The scan checks every length before it fills the first, then fills
the lengths in blocks: a block of at least MIN_LANES fills (two per
length) puts each fill's level energies in a column of one buffer of at
most BLOCK_CELLS cells and sums every column at once (kernels.column_sums);
a narrower block sums fill by fill (aufbau._config_energy). Either way the
energies have ground_state's bits and come back as computed; the hard-core
one is real only in exact arithmetic, and its reporters (hcb-compare,
verify's closed-form suite) judge it against
verify.TOLERANCES["closed_form"].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, numerics
from .aufbau import (
    SectorError,
    _check_sector,
    _config_energy,
    _finite_ground,
    _ground_fill,
    sort_complex_spectrum,
)
from .fock import build_dense_hamiltonian
from .lattice import HNParams, _exp_pm, single_particle_levels

__all__ = [
    "EnergyGap",
    "delta_E_scan",
    "im_delta_closed_form",
    "obc_equivalence_check",
]

_STATISTICS = ("fermion", "hardcore")
# A wide block sums its fills in one (max N) x lanes complex128 buffer of
# at most BLOCK_CELLS cells (512 KB); blocks of fewer than MIN_LANES fills
# sum fill by fill instead. Measured on a 2-core x86-64 host: a column step
# costs about 2 us a row at 4 to 32 lanes and the scalar loop about 0.15 us
# a term, so the two break even near 14-16 lanes. On hcb-compare over the
# 501 lengths 400..2400, as one process against 2^15 cells, 2^14 reads 0.4
# MB less peak RSS and 15% more time, 2^16 0.5 MB more and 5% less time,
# 2^17 1.5 MB more; 2^15 keeps the scan's traced peak under 1 MB.
BLOCK_CELLS = 1 << 15
MIN_LANES = 16


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


def _scan_size(L, filling):
    """N = filling * L at scan length L. Raises SectorError unless filling
    is finite and L is an integer >= 2 whose N is an even integer of a ring
    sector; even parity is the ring sector where the two statistics
    genuinely differ."""
    if not math.isfinite(filling):
        raise SectorError(f"filling must be finite, got {filling}")
    if not isinstance(L, (int, np.integer)) or isinstance(L, bool) or L < 2:
        raise SectorError(f"scan lengths must be integers >= 2, got {L!r}")
    n_real = filling * L
    N = int(round(n_real))
    if abs(n_real - N) > 1e-9:
        raise SectorError(f"filling {filling} gives non-integer N = {n_real} at L={L}")
    if N % 2 != 0:
        raise SectorError(
            f"scan requires even N (got N={N} at L={L}); use L = 0 mod 4 at half filling")
    _check_sector(L, N, "hardcore", ring=True)
    return N


def _blocks(sizes):
    """(L, N) pairs in the order given, cut into runs whose two fills each
    fit a (max N) x lanes buffer of at most BLOCK_CELLS cells; a pair whose
    own fills do not fit is a run alone."""
    block, steps = [], 0
    for L, N in sizes:
        if block and max(steps, N) * 2 * (len(block) + 1) > BLOCK_CELLS:
            yield block
            block, steps = [], 0
        block.append((L, N))
        steps = max(steps, N)
    if block:
        yield block


def _gap(L, N, g, t, e0f, e0b):
    return EnergyGap(L=L, N=N, g=float(g), t=float(t), E0_fermion=e0f, E0_hcb=e0b,
                     delta=e0f - e0b)


def _ring(L, g, t):
    return single_particle_levels(HNParams(L=L, t=t, g=g))


def _wide_block(block, buffer, g, t):
    """The block's gaps from one column sum: each fill's level energies sit
    right-aligned in a column of a (max N) x lanes view of buffer, zeros
    above. A length whose levels or order raise ends the block there: the
    lengths before it are summed and yielded, and then the error is raised."""
    steps = max(N for _, N in block)
    terms = buffer[: steps * 2 * len(block)].reshape(steps, 2 * len(block))
    lanes, error = 0, None
    try:
        for L, N in block:
            ring = _ring(L, g, t)
            for stats in _STATISTICS:
                column = terms[:, lanes]
                column[: steps - N] = 0
                column[steps - N :] = _ground_fill(ring, stats, N)[1]
                lanes += 1
    except Exception as exc:  # raised once the lanes before it are yielded
        error = exc
    with np.errstate(over="ignore", invalid="ignore"):
        sums = kernels.column_sums(terms[:, :lanes]).tolist()
    for (L, N), e0f, e0b in zip(block, sums[0::2], sums[1::2]):
        yield _gap(L, N, g, t, _finite_ground(e0f), _finite_ground(e0b))
    if lanes % 2:  # the fermion fill of the failing length comes first
        _finite_ground(sums[-1])
    if error is not None:
        raise error


def _scan_gaps(L_list, filling, g, t):
    """delta_E_scan's gaps one at a time, in the order of L_list.

    Every length is checked by _scan_size before the first is filled; then
    the lengths go in blocks of _blocks. A block of at least MIN_LANES
    fills is summed by kernels.column_sums, a narrower one length by length
    by aufbau._config_energy; both give the bits of ground_state. An energy
    beyond float range raises OverflowError when its gap is reached.
    """
    sizes = [(L, _scan_size(L, filling)) for L in L_list]
    sizes = [(int(L), N) for L, N in sizes]
    buffer = None
    for block in _blocks(sizes):
        if 2 * len(block) < MIN_LANES:
            for L, N in block:
                ring = _ring(L, g, t)
                e0f, e0b = (_finite_ground(_config_energy(_ground_fill(ring, stats, N)[1]))
                            for stats in _STATISTICS)
                yield _gap(L, N, g, t, e0f, e0b)
        else:
            if buffer is None:
                buffer = np.empty(BLOCK_CELLS, np.complex128)
            yield from _wide_block(block, buffer, g, t)


def delta_E_scan(L_list, filling=0.5, g=0.5, t=1.0):
    """EnergyGap per chain length, at fixed filling (default one half), as
    a list in the order given (_scan_gaps yields them one at a time).

    _scan_size checks every length, in the order given, before the first
    is filled: a bad length or filling raises SectorError. Cost is
    O(L log L) per point. Raises OverflowError on an energy beyond float
    range; a non-real hard-core energy comes back as computed.
    """
    return list(_scan_gaps(L_list, filling, g, t))


def obc_equivalence_check(L, N, g, t=1.0, boundary="open") -> bool:
    """True iff the dense hard-core and fermion spectra agree as multisets
    within 1e-8. Open boundaries always agree; a ring with even N does not."""
    _check_sector(L, N, "hardcore", ring=True)
    p = HNParams(L=int(L), t=t, g=g, boundary=boundary)
    ef = numerics.eigenvalues(build_dense_hamiltonian(p, "fermion", int(N)))
    eb = numerics.eigenvalues(build_dense_hamiltonian(p, "hardcore", int(N)))
    diff = sort_complex_spectrum(ef) - sort_complex_spectrum(eb)
    return bool(np.max(np.abs(diff)) <= 1e-8)
