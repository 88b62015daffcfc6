"""Sector enumeration and configuration energies: whole-sector numpy
builds of the occupation rows (colex order) and of their compensated
level sums.

Plain interpreted NumPy; there is no compiled backend. Enumeration builds
a sector's occupation matrix mode by mode in colex order, _colex_rank maps
rows back to their colex positions, and configuration energies are one
compensated sum over all rows at once, for every statistics. The
Fock-space operators do not live here: they are gathers and scatters over
each basis's lowering table, whose indices are colex ranks (see
``fock.FockBasis``).

Kernels never raise; input checks live in the calling modules.
"""

from __future__ import annotations

import numpy as np

__all__ = ["boson_states", "fermion_occupations", "config_energies_boson"]

# no compiled backend; kept so tools that record the backend can read it
JIT_ENABLED = NUMBA_AVAILABLE = False


def _colex_rows(L, N, cap):
    """All rows of L occupation numbers in 0..cap summing to N, colex order.

    Built one mode at a time: the rows over modes 0..m are the rows over
    modes 0..m-1 extended by n_m = 0, then by n_m = 1, and so on, so each
    row's last occupied mode varies slowest. ``blocks[n]`` holds the rows
    over the modes seen so far that carry n particles.
    """
    blocks = [np.zeros((1, 0), np.int16)] + [None] * N
    for m in range(L):
        # fewest particles on modes 0..m that the remaining modes can top up
        lo = max(0, N - cap * (L - 1 - m))
        new = [None] * (N + 1)
        for n in range(lo, min(N, cap * (m + 1)) + 1):
            parts = [(k, blocks[n - k]) for k in range(min(cap, n) + 1)
                     if blocks[n - k] is not None]
            rows = np.empty((sum(b.shape[0] for _k, b in parts), m + 1), np.int16)
            r = 0
            for k, b in parts:
                rows[r : r + b.shape[0], :m] = b
                rows[r : r + b.shape[0], m] = k
                r += b.shape[0]
            new[n] = rows
        blocks = new
    return blocks[N]


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
    """The C(L, N) rows (int16) of every 0/1 occupation of L modes with N
    ones, in colex order, i.e. ascending as L-bit words. No bit words are
    formed, so any L works."""
    return _colex_rows(L, N, 1)


def boson_states(L, N):
    """The C(L+N-1, N) occupation vectors (int16) of L modes summing to N,
    in colexicographic order."""
    return _colex_rows(L, N, N)


def config_energies_boson(occupations, perm, eps):
    """Occupation-weighted level sums of every row at once, compensated
    (Kahan) and visiting the modes in sorted-level order ``perm``. The
    rows may hold any occupations, so this serves every statistics.

    A row adds eps[m] itself where n_m = 1, n_m * eps[m] where n_m > 1, and
    skips the update where n_m = 0, so each sum is bit-identical to the
    scalar ``aufbau._kahan_energy`` of the same row.
    """
    dim = occupations.shape[0]
    acc = np.zeros(dim, np.complex128)
    comp = np.zeros(dim, np.complex128)
    for m in perm:
        n = occupations[:, m]
        hit = n != 0
        y = np.where(n > 1, n * eps[m], eps[m]) - comp
        t = acc + y
        comp = np.where(hit, (t - acc) - y, comp)
        acc = np.where(hit, t, acc)
    return acc
