"""Low-level numerics: the Ryser permanent, and whole-sector numpy builds
of the occupation rows and their configuration energies.

Plain interpreted NumPy; there is no compiled backend. Dense eigenvalues
and determinants come from numpy's LAPACK, not from here. Enumeration
builds a sector's occupation matrix mode by mode in colex order, and
configuration energies are one compensated sum over all rows at once. The
Fock-space operators do not live here: they are gathers and scatters over
each basis's lowering table (see ``fock.FockBasis``).

Kernels never raise; input checks live in the calling modules.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "permanent_ryser",
    "boson_states",
    "fermion_occupations",
    "config_energies_fermion",
    "config_energies_boson",
]

# no compiled backend; kept so tools that record the backend can read it
JIT_ENABLED = NUMBA_AVAILABLE = False


# ---------------------------------------------------------------------------
# permanents
# ---------------------------------------------------------------------------


def permanent_ryser(a):
    """Permanent by Ryser's formula with Gray-code subset updates, O(2^n n)."""
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    row = np.zeros(n, np.complex128)
    total = 0.0 + 0.0j
    gray = 0
    nsub = 1 << n
    for g in range(1, nsub):
        newgray = g ^ (g >> 1)
        diff = newgray ^ gray
        j = 0
        d = diff >> 1
        while d != 0:
            d >>= 1
            j += 1
        if newgray & diff:
            for i in range(n):
                row[i] += a[i, j]
        else:
            for i in range(n):
                row[i] -= a[i, j]
        gray = newgray
        prod = 1.0 + 0.0j
        for i in range(n):
            prod *= row[i]
        bits = 0
        gg = newgray
        while gg:
            gg &= gg - 1
            bits += 1
        if bits % 2:
            total -= prod
        else:
            total += prod
    if n % 2:
        return -total
    return total


# ---------------------------------------------------------------------------
# sector enumeration and configuration energies
# ---------------------------------------------------------------------------


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
    (Kahan) and visiting the modes in sorted-level order ``perm``.

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


def config_energies_fermion(occupations, perm, eps):
    """config_energies_boson over 0/1 occupation rows."""
    return config_energies_boson(occupations, perm, eps)
