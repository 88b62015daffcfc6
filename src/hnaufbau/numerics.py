"""Dense complex linear algebra: the input check of a complex matrix, and
the eigenvalues of a non-symmetric matrix.

Matrices are numpy arrays of complex128. Eigenvalues come from numpy's
LAPACK ``zgeev`` (balancing, Hessenberg reduction, shifted QR).

Bad input raises ValueError; a QR iteration that does not converge is a
computation failure and raises ArithmeticError.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_complex_matrix", "eigenvalues"]


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


def eigenvalues(a):
    """All eigenvalues of a complex square matrix, as a complex128 array in
    LAPACK's order. Raises ArithmeticError if the QR iteration does not
    converge."""
    m = as_complex_matrix(a, square=True, name="A")
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # a ValueError, but not a usage error
        raise ArithmeticError(f"dense eigensolve failed: {exc}") from exc
