"""Dense eigenvalues of a non-symmetric complex matrix.

Eigenvalues come from numpy's LAPACK ``zgeev`` (balancing, Hessenberg
reduction, shifted QR) behind an input check. Bad input (not 2-D, empty,
not square, non-finite) raises ValueError; a QR iteration that does not
converge is a computation failure and raises ArithmeticError.
"""

from __future__ import annotations

import numpy as np

__all__ = ["eigenvalues"]


def eigenvalues(a):
    """All eigenvalues of a complex square matrix, as a complex128 array in
    LAPACK's order. Raises ArithmeticError if the QR iteration does not
    converge."""
    m = np.array(a, dtype=np.complex128, order="C", copy=True)
    if m.ndim != 2:
        raise ValueError(f"A must be 2-D, got ndim={m.ndim}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError(f"A must be non-empty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("A contains non-finite entries")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"A must be square, got shape {m.shape}")
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # a ValueError, but not a usage error
        raise ArithmeticError(f"dense eigensolve failed: {exc}") from exc
