"""Low-level numeric loops: dense linear algebra, sector enumeration and
configuration energies.

Plain interpreted NumPy; there is no compiled backend. The Fock-space
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


def fermion_words(L, N, count):
    """All L-bit words of population N, ascending (colexicographic order)."""
    out = np.zeros(count, np.int64)
    if N == 0:
        return out
    v = np.int64((1 << N) - 1)
    for i in range(count):
        out[i] = v
        if i + 1 < count:
            t = v | (v - 1)
            low = v & (-v)
            tz = 0
            lw = low
            while lw > 1:
                lw >>= 1
                tz += 1
            v = (t + 1) | ((((~t) & (t + 1)) - 1) >> (tz + 1))
    return out


def boson_states(L, N, count):
    """All occupation vectors of L modes summing to N, colexicographic order."""
    out = np.zeros((count, L), np.int16)
    cur = np.zeros(L, np.int64)
    cur[0] = N
    for r in range(count):
        for j in range(L):
            out[r, j] = cur[j]
        if r + 1 == count:
            break
        i0 = 0
        while cur[i0] == 0:
            i0 += 1
        carry = cur[i0] - 1
        cur[i0] = 0
        cur[i0 + 1] += 1
        cur[0] = carry
    return out


def fermion_occupations(words, L):
    out = np.zeros((words.shape[0], L), np.int16)
    for s in range(words.shape[0]):
        w = words[s]
        for j in range(L):
            out[s, j] = (w >> j) & 1
    return out


def config_energies_fermion(words, perm, eps, out):
    """Occupation-weighted level sums, compensated, in sorted-mode order."""
    dim = words.shape[0]
    Lp = perm.shape[0]
    for s in range(dim):
        w = words[s]
        acc = 0.0 + 0.0j
        comp = 0.0 + 0.0j
        for l in range(Lp):
            m = perm[l]
            if (w >> m) & 1 == 1:
                y = eps[m] - comp
                t = acc + y
                comp = (t - acc) - y
                acc = t
        out[s] = acc
    return out


def config_energies_boson(states, perm, eps, out):
    dim = states.shape[0]
    Lp = perm.shape[0]
    for s in range(dim):
        acc = 0.0 + 0.0j
        comp = 0.0 + 0.0j
        for l in range(Lp):
            m = perm[l]
            n = states[s, m]
            if n != 0:
                y = n * eps[m] - comp
                t = acc + y
                comp = (t - acc) - y
                acc = t
        out[s] = acc
    return out
