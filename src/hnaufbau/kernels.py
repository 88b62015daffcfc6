"""Sector enumeration and configuration energies: numpy builds of the
occupation rows (colex order) and of their compensated level sums.

Plain interpreted NumPy; there is no compiled backend. Enumeration builds
a sector's occupation matrix particle by particle in colex order, one byte
a cell (int8) wherever the largest occupation fits and int16 otherwise,
_colex_rank maps rows back to their colex positions, and a whole sector's
configuration energies are one compensated sum per row, for every
statistics, over blocks of BLOCK_ROWS rows whose transposed occupations
are copied once into cache-sized buffers (aufbau._config_energy runs the
same recursion on one configuration). The Fock-space operators do not
live here: they are gathers and scatters over each basis's lowering
table, whose indices are colex ranks (see ``fock.FockBasis``).

Kernels never raise; input checks live in the calling modules.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["boson_states", "fermion_occupations", "config_energies_boson"]

# no compiled backend; kept so tools that record the backend can read it
JIT_ENABLED = NUMBA_AVAILABLE = False

# rows per block of config_energies_boson, so its buffers stay in cache
BLOCK_ROWS = 1 << 13


def _colex_rows(L, N, cap):
    """All rows of L occupation numbers summing to N, in colex order, for
    cap = 1 (fermions) or cap >= N (bosons). The cells are int8 while cap
    fits one (every fermion sector, bosons up to N = 127), else int16.

    Built one particle at a time. In colex order the rows with every
    particle below mode c (bosons: at or below c) come first, so the
    n-particle rows whose top particle sits on mode c are a prefix of the
    (n-1)-particle rows plus one particle on c. The blocks follow c upward;
    fermions stop where the particles still to come fit above c.
    """
    dtype = np.int8 if cap <= np.iinfo(np.int8).max else np.int16
    rows = np.zeros((1, L), dtype)
    for n in range(1, N + 1):
        span, tops = (0, range(n - 1, L - N + n)) if cap == 1 else (n - 1, range(L))
        sizes = [math.comb(c + span, n - 1) for c in tops]
        new = np.empty((sum(sizes), L), dtype)
        r = 0
        for c, size in zip(tops, sizes):
            new[r : r + size] = rows[:size]
            new[r : r + size, c] += 1
            r += size
        rows = new
    return rows


def _colex_rank(rows, w):
    """Colex positions of occupation rows within their sector, and, in
    column j, the position of each row with one particle taken off mode j
    within the sector below (meaningless where n_j = 0).

    The combinatorial number system: w[m, n] counts the rows with n
    particles on modes 0..m-1. With r_m and c_m the particles on modes
    0..m and 0..m-1, a row's rank is sum_m sum_{c_m < u <= r_m} w[m, u],
    and taking a particle off mode j lowers it by w[j, r_j] plus
    sum_{m > j} (w[m, r_m] - w[m, c_m]). Every entry read is at most the
    sector dimension, so w may be clipped there and int64 stays exact.
    """
    r = np.cumsum(rows, axis=1)
    r += np.arange(rows.shape[1]) * w.shape[1]  # flat position of w[m, r_m]
    c = r - rows  # of w[m, c_m]
    cum = np.cumsum(w, axis=1).ravel()
    rank = cum[r].sum(axis=1) - cum[c].sum(axis=1)
    wr = w.ravel()[r]
    step = np.subtract(wr, w.ravel()[c], out=c)
    # sum_{m > j} step_m is the row total less the running sum up to j
    low = np.cumsum(step, axis=1, out=r)
    low -= wr
    low += (rank - step.sum(axis=1))[:, None]
    return rank, low


def fermion_occupations(L, N):
    """The C(L, N) rows (int8) of every 0/1 occupation of L modes with N
    ones, in colex order, i.e. ascending as L-bit words. No bit words are
    formed, so any L works."""
    return _colex_rows(L, N, 1)


def boson_states(L, N):
    """The C(L+N-1, N) occupation vectors of L modes summing to N, in
    colexicographic order: int8 up to N = 127, int16 above."""
    return _colex_rows(L, N, N)


def config_energies_boson(occupations, perm, eps):
    """Occupation-weighted level sums of every row, compensated (Kahan) and
    visiting the modes in sorted-level order ``perm``. The rows may hold
    any occupations, so this serves every statistics.

    A row adds eps[m] itself where n_m = 1, n_m * eps[m] where n_m > 1, and
    skips the update where n_m = 0, so the scalar sum of one configuration's
    occupied terms (``aufbau._config_energy``) has the same bits. The rows
    go BLOCK_ROWS at a time: each block's occupations are copied transposed
    once, so each mode's column is contiguous, its sums accumulate in place
    in the output, and every step writes into buffers allocated once at
    block size; no whole-sector temporary is made.
    """
    dim, L = occupations.shape
    out = np.zeros(dim, np.complex128)
    size = min(dim, BLOCK_ROWS)
    sums, flags = np.empty((3, size), np.complex128), np.empty((2, size), bool)
    block = np.empty((L, size), occupations.dtype)
    for lo in range(0, dim, BLOCK_ROWS):
        k = min(size, dim - lo)
        acc, (comp, y, t), (hit, many) = out[lo : lo + k], sums[:, :k], flags[:, :k]
        columns = block[:, :k]
        comp.fill(0)
        np.copyto(columns, occupations[lo : lo + k].T)
        for m in perm:
            n = columns[m]
            np.not_equal(n, 0, out=hit)
            np.greater(n, 1, out=many)
            y.fill(eps[m])
            np.multiply(n, eps[m], out=y, where=many)
            y -= comp
            np.add(acc, y, out=t)
            np.subtract(t, acc, out=comp, where=hit)
            np.subtract(comp, y, out=comp, where=hit)
            np.copyto(acc, t, where=hit)
    return out
