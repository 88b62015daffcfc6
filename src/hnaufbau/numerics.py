"""Dense complex linear algebra: LU solves, determinants, permanents, and a
non-symmetric eigensolver.

Matrices are numpy arrays of complex128. Everything here is hand-rolled on
top of the interpreted loops in the kernels module (LU with partial
pivoting, Ryser permanents, Hessenberg + shifted QR); numpy supplies only
array storage and slicing. The eigensolver balances the matrix first, which
keeps badly scaled inputs (e.g. open-boundary hopping matrices at large g,
whose natural basis spans e^{2gL} in magnitude) within reach of the
relative deflation test.

Bad input raises ValueError; a singular matrix is a computation failure and
raises SingularMatrixError, an ArithmeticError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels

__all__ = [
    "DimensionError",
    "EigenResult",
    "SingularMatrixError",
    "as_complex_matrix",
    "determinant",
    "eigenvalues",
    "lu_solve",
    "permanent",
]

PIVOT_RTOL = 1e-14


class SingularMatrixError(ArithmeticError):
    """A pivot fell below the singularity threshold during factorization."""


class DimensionError(ValueError):
    """Input dimension outside the supported range."""


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalue multiset of a complex square matrix.

    converged is False when some eigenvalue was force-deflated after the
    sweep budget ran out; iterations counts QR sweeps across the whole run.
    """

    eigenvalues: np.ndarray
    converged: bool
    iterations: int


def as_complex_matrix(a, square=False, name="matrix"):
    """Validate and convert to a complex128 2-D array.

    Raises ValueError on wrong rank, empty axes, non-finite entries, or
    (when square=True) a non-square shape. Always returns a fresh array.
    """
    m = np.array(a, dtype=np.complex128, order="C", copy=True)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError(f"{name} must be non-empty, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def lu_solve(a, b):
    """Solve A X = B by LU with partial pivoting.

    B may be a vector or a matrix; the result matches its shape. Raises
    SingularMatrixError when a pivot magnitude drops below
    PIVOT_RTOL * max row 1-norm of A.
    """
    a = as_complex_matrix(a, square=True, name="A")
    b_arr = np.array(b, dtype=np.complex128, copy=True)
    vector = b_arr.ndim == 1
    if vector:
        b_arr = b_arr[:, None]
    if b_arr.ndim != 2 or b_arr.shape[0] != a.shape[0]:
        raise ValueError(
            f"B has shape {np.shape(b)}, expected leading dimension {a.shape[0]}"
        )
    if not np.all(np.isfinite(b_arr.real)) or not np.all(np.isfinite(b_arr.imag)):
        raise ValueError("B contains non-finite entries")
    lu = a
    piv, _sign, singular, _scale = kernels.lu_factor_inplace(lu, PIVOT_RTOL)
    if singular:
        raise SingularMatrixError(
            f"matrix of dimension {a.shape[0]} is singular to working precision"
        )
    x = kernels.lu_solve_factored(lu, piv, b_arr)
    return x[:, 0] if vector else x


def determinant(a):
    """Determinant as the signed product of LU pivots; 0 for singular input."""
    a = as_complex_matrix(a, square=True, name="A")
    piv, sign, singular, _scale = kernels.lu_factor_inplace(a, PIVOT_RTOL)
    del piv
    if singular:
        return 0.0 + 0.0j
    prod = complex(sign)
    for k in range(a.shape[0]):
        prod *= complex(a[k, k])
    return prod


def permanent(a):
    """Matrix permanent via Ryser's inclusion-exclusion, dimension <= 20."""
    a = as_complex_matrix(a, square=True, name="A")
    n = a.shape[0]
    if n > 20:
        raise DimensionError(f"permanent limited to dimension <= 20, got {n}")
    return complex(kernels.permanent_ryser(a))


def eigenvalues(a, max_iter=80, tol=1e-13):
    """All eigenvalues of a complex square matrix.

    Balancing, Householder reduction to Hessenberg form, then shifted QR
    with Wilkinson shifts and an exceptional shift every 10 stalled sweeps.
    max_iter bounds the sweeps spent on any single eigenvalue; on overrun
    the current diagonal entry is taken and converged is set False.
    """
    a = as_complex_matrix(a, square=True, name="A")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    n = a.shape[0]
    if n == 1:
        return EigenResult(a[0, :1].copy(), True, 0)
    kernels.balance_inplace(a)
    kernels.hessenberg_inplace(a)
    eigs, ok, sweeps = kernels.qr_eigvals(a, max_iter, tol, 10)
    return EigenResult(eigs, bool(ok), int(sweeps))
