"""Low-level numerics: dense linear algebra loops, and whole-sector numpy
builds of the occupation rows and their configuration energies.

Plain interpreted NumPy; there is no compiled backend. Enumeration builds a
sector's occupation matrix mode by mode in colex order, and configuration
energies are one compensated sum over all rows at once. The Fock-space
operators do not live here: they are gathers and scatters over each
basis's lowering table (see ``fock.FockBasis``).

Kernels never raise: failure modes come back as status flags and the calling
modules translate them into exceptions.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "balance_inplace",
    "hessenberg_inplace",
    "qr_eigvals",
    "lu_factor_inplace",
    "lu_solve_factored",
    "permanent_ryser",
    "fermion_words",
    "boson_states",
    "fermion_occupations",
    "config_energies_fermion",
    "config_energies_boson",
]

# no compiled backend; kept so tools that record the backend can read it
JIT_ENABLED = NUMBA_AVAILABLE = False


# ---------------------------------------------------------------------------
# dense linear algebra
# ---------------------------------------------------------------------------


def balance_inplace(a):
    """Parlett-Reinsch diagonal balancing, radix 2; eigenvalue-preserving."""
    n = a.shape[0]
    radix = 2.0
    done = False
    while not done:
        done = True
        for i in range(n):
            c = 0.0
            r = 0.0
            for j in range(n):
                if j != i:
                    c += abs(a[j, i])
                    r += abs(a[i, j])
            if c == 0.0 or r == 0.0:
                continue
            f = 1.0
            s = c + r
            while c < r / radix:
                c *= radix
                r /= radix
                f *= radix
            while c >= r * radix:
                c /= radix
                r *= radix
                f /= radix
            if (c + r) < 0.95 * s:
                done = False
                for j in range(n):
                    a[i, j] /= f
                for j in range(n):
                    a[j, i] *= f


def hessenberg_inplace(h):
    """Reduce a complex square matrix to upper Hessenberg form by Householder
    similarity transforms, in place."""
    n = h.shape[0]
    for k in range(n - 2):
        x = h[k + 1 :, k]
        normx = np.sqrt(np.sum(np.abs(x) ** 2))
        if normx < 1e-300:
            continue
        alpha = x[0]
        aa = abs(alpha)
        phase = alpha / aa if aa > 0.0 else 1.0 + 0.0j
        v = x.copy()
        v[0] += phase * normx
        vn = np.sqrt(np.sum(np.abs(v) ** 2))
        if vn < 1e-300:
            continue
        v = v / vn
        h[k + 1 :, k:] -= 2.0 * np.outer(v, np.conj(v) @ h[k + 1 :, k:])
        h[:, k + 1 :] -= 2.0 * np.outer(h[:, k + 1 :] @ v, np.conj(v))
        for i in range(k + 2, n):
            h[i, k] = 0.0


def qr_eigvals(h, max_sweeps, tol, exc_every):
    """Shifted QR iteration (explicit complex Givens form) on an upper
    Hessenberg matrix. Deflates when a subdiagonal entry drops below
    tol * (|diag above| + |diag below|); Wilkinson shift, with an exceptional
    shift every ``exc_every`` stalled sweeps; gives up on an eigenvalue after
    ``max_sweeps`` sweeps without a deflation.

    Returns (eigenvalues, converged_flag, total_sweeps)."""
    n = h.shape[0]
    eigs = np.zeros(n, np.complex128)
    ok = True
    total = 0
    if n == 0:
        return eigs, ok, total
    anorm = 0.0
    for i in range(n):
        s = 0.0
        for j in range(n):
            s += abs(h[i, j])
        if s > anorm:
            anorm = s
    if anorm == 0.0:
        anorm = 1.0
    hi = n
    since = 0
    cs = np.zeros(n, np.float64)
    sn = np.zeros(n, np.complex128)
    while hi > 0:
        lo = hi - 1
        while lo > 0:
            s = abs(h[lo - 1, lo - 1]) + abs(h[lo, lo])
            if s == 0.0:
                s = anorm
            if abs(h[lo, lo - 1]) <= tol * s:
                h[lo, lo - 1] = 0.0
                break
            lo -= 1
        if lo == hi - 1:
            eigs[hi - 1] = h[hi - 1, hi - 1]
            hi -= 1
            since = 0
            continue
        if lo == hi - 2:
            a = h[hi - 2, hi - 2]
            b = h[hi - 2, hi - 1]
            c = h[hi - 1, hi - 2]
            d = h[hi - 1, hi - 1]
            half = 0.5 * (a + d)
            disc = np.sqrt(half * half - (a * d - b * c))
            eigs[hi - 2] = half + disc
            eigs[hi - 1] = half - disc
            hi -= 2
            since = 0
            continue
        since += 1
        if since > max_sweeps:
            ok = False
            eigs[hi - 1] = h[hi - 1, hi - 1]
            hi -= 1
            since = 0
            continue
        total += 1
        if since % exc_every == 0:
            shift = h[hi - 1, hi - 1] + 1.5 * abs(h[hi - 1, hi - 2])
        else:
            a = h[hi - 2, hi - 2]
            b = h[hi - 2, hi - 1]
            c = h[hi - 1, hi - 2]
            d = h[hi - 1, hi - 1]
            half = 0.5 * (a - d)
            disc = np.sqrt(half * half + b * c)
            l1 = d + half + disc
            l2 = d + half - disc
            shift = l1 if abs(l1 - d) <= abs(l2 - d) else l2
        for i in range(lo, hi):
            h[i, i] -= shift
        for q in range(lo, hi - 1):
            f = h[q, q]
            g = h[q + 1, q]
            r = np.sqrt(abs(f) ** 2 + abs(g) ** 2)
            if r == 0.0:
                cs[q] = 1.0
                sn[q] = 0.0
                continue
            af = abs(f)
            if af == 0.0:
                cs[q] = 0.0
                sn[q] = np.conj(g) / r
            else:
                cs[q] = af / r
                sn[q] = (f / af) * np.conj(g) / r
            c_ = cs[q]
            s_ = sn[q]
            row1 = c_ * h[q, q:hi] + s_ * h[q + 1, q:hi]
            row2 = -np.conj(s_) * h[q, q:hi] + c_ * h[q + 1, q:hi]
            h[q, q:hi] = row1
            h[q + 1, q:hi] = row2
        for q in range(lo, hi - 1):
            c_ = cs[q]
            s_ = sn[q]
            top = q + 2
            col1 = c_ * h[lo:top, q] + np.conj(s_) * h[lo:top, q + 1]
            col2 = -s_ * h[lo:top, q] + c_ * h[lo:top, q + 1]
            h[lo:top, q] = col1
            h[lo:top, q + 1] = col2
        for i in range(lo, hi):
            h[i, i] += shift
    return eigs, ok, total


def lu_factor_inplace(a, pivot_rtol):
    """LU with partial pivoting, in place (L strict lower, U upper).

    Returns (piv, sign, singular, scale) where ``scale`` is the max row
    1-norm used for the pivot threshold and ``sign`` the permutation sign."""
    n = a.shape[0]
    piv = np.zeros(n, np.int64)
    sign = 1.0
    singular = False
    scale = 0.0
    for i in range(n):
        s = 0.0
        for j in range(n):
            s += abs(a[i, j])
        if s > scale:
            scale = s
    if scale == 0.0:
        singular = True
        scale = 1.0
    for k in range(n):
        p = k + np.argmax(np.abs(a[k:, k]))
        piv[k] = p
        if p != k:
            tmp = a[k, :].copy()
            a[k, :] = a[p, :]
            a[p, :] = tmp
            sign = -sign
        pivval = a[k, k]
        if abs(pivval) < pivot_rtol * scale:
            singular = True
            continue
        a[k + 1 :, k] /= pivval
        if k + 1 < n:
            a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
    return piv, sign, singular, scale


def lu_solve_factored(lu, piv, b):
    """Solve for a factored system; b has shape (n, m), overwritten copy returned."""
    n = lu.shape[0]
    x = b.copy()
    for k in range(n):
        p = piv[k]
        if p != k:
            tmp = x[k, :].copy()
            x[k, :] = x[p, :]
            x[p, :] = tmp
    for k in range(1, n):
        x[k, :] -= lu[k, :k] @ x[:k, :]
    for k in range(n - 1, -1, -1):
        if k + 1 < n:
            x[k, :] -= lu[k, k + 1 :] @ x[k + 1 :, :]
        x[k, :] /= lu[k, k]
    return x


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


def fermion_occupations(L, N, count):
    """The count = C(L, N) rows (int16) of every 0/1 occupation of L modes
    with N ones, in colex order, i.e. ascending as L-bit words. No bit words
    are formed, so any L works."""
    return _colex_rows(L, N, 1)


def fermion_words(L, N, count):
    """The count = C(L, N) L-bit words of population N, ascending
    (colexicographic order); L <= 62."""
    radix = np.int64(1) << np.arange(L, dtype=np.int64)
    return fermion_occupations(L, N, count) @ radix


def boson_states(L, N, count):
    """The count = C(L+N-1, N) occupation vectors (int16) of L modes summing
    to N, in colexicographic order."""
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
