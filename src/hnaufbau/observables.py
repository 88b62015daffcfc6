"""Distributions and localization diagnostics of many-body eigenstates.

Position profiles n_j come straight from Fock amplitudes; momentum profiles
come from the one-body correlation matrix G[i][j] = <c_i^dag c_j> through

    n_{k_m} = (1/L) sum_{i,j} e^{-i k_m (i - j)} G[i][j],   k_m = 2 pi m / L,

the unitary-transform convention, so sum_m n_{k_m} = trace G = N and a
plane-wave eigenstate puts integer weight exactly on its occupied momenta.
For determinant states an independent route to the same G is the projector
Q Q^dag onto the span of the occupied (non-orthogonal) orbitals, Q from the
QR factorization Phi = Q R. QR keeps the condition number of Phi, where
the normal equations (Phi^dag Phi)^{-1} would square that of the graded
open-chain orbitals e^{-gj} sin(jk). The two routes cross-check each other
in the verification suite. Orbitals that QR's rank test finds linearly
dependent raise SingularMatrixError, an ArithmeticError.

All expectation values are right-state averages over self-normalized
vectors; no biorthogonal weighting anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .fock import FockVector, annihilate

__all__ = [
    "CorrelationMatrix",
    "DistributionProfile",
    "SingularMatrixError",
    "SkinMetrics",
    "correlation_matrix",
    "density_from_fock",
    "density_matrix_from_orbitals",
    "momentum_distribution",
    "skin_metrics",
]

PROFILE_KINDS = ("position", "momentum")
PROFILE_FLOOR = -1e-10
PIVOT_RTOL = 1e-14


class SingularMatrixError(ArithmeticError):
    """QR's rank test found the occupied orbitals linearly dependent."""


@dataclass(frozen=True)
class DistributionProfile:
    """Real profile over sites (grid j = 1..L) or momenta (grid k_m = 2 pi m/L);
    total carries the summed weight, which should equal N."""

    kind: str
    grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    total: float

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"kind must be one of {PROFILE_KINDS}, got {self.kind!r}")
        grid = np.asarray(self.grid, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if grid.shape != values.shape or grid.ndim != 1:
            raise ValueError("grid and values must be 1-D arrays of equal length")
        if not np.all(np.isfinite(values)):
            raise ValueError("profile values must be finite")
        if values.size and float(values.min()) < PROFILE_FLOOR:
            raise ValueError(
                f"profile has weight {values.min():.3e} below the floor {PROFILE_FLOOR}"
            )
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class CorrelationMatrix:
    """One-body correlations G[i][j] = <c_i^dag c_j>, with a tag recording
    which route produced it."""

    entries: np.ndarray = field(repr=False)
    source: str = "fock"

    def __post_init__(self):
        entries = numerics.as_complex_matrix(self.entries, square=True, name="G")
        object.__setattr__(self, "entries", entries)

    @property
    def L(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SkinMetrics:
    """left_fraction: weight on sites j <= L/2 over total; ipr: sum n^2 over
    (sum n)^2, 1/L for a flat profile; log_slope: least-squares slope of
    ln n_j against j over the sites carrying weight."""

    left_fraction: float
    ipr: float
    log_slope: float


def density_from_fock(v: FockVector) -> DistributionProfile:
    """Position profile n_j = sum_s |a_s|^2 n_{s,j} of a normalized vector."""
    basis = v.basis
    weights = np.abs(v.amplitudes) ** 2
    values = weights @ basis.occupations
    grid = np.arange(1, basis.L + 1, dtype=np.float64)
    return DistributionProfile("position", grid, values, float(values.sum()))


def correlation_matrix(v: FockVector) -> CorrelationMatrix:
    """Full G = A^H A, where column j of A is c_j v."""
    A = annihilate(v)
    return CorrelationMatrix(A.conj().T @ A, source=f"fock-{v.basis.statistics}")


def density_matrix_from_orbitals(orbitals) -> CorrelationMatrix:
    """G for a fermion determinant state from its (possibly non-orthogonal)
    occupied orbitals: the projector Q Q^dag onto their span, Q from the QR
    factorization Phi = Q R, read in the <c_i^dag c_j> index convention.
    Raises SingularMatrixError when the orbitals are linearly dependent to
    working precision (|R_kk| <= PIVOT_RTOL * max |R_jj|)."""
    phi = np.column_stack([np.asarray(o, dtype=np.complex128).ravel() for o in orbitals])
    q, r = np.linalg.qr(phi)
    diag = np.abs(np.diag(r))
    if not diag.min() > PIVOT_RTOL * diag.max():
        raise SingularMatrixError(
            f"{phi.shape[1]} orbitals are linearly dependent to working precision"
        )
    rho = q @ np.conj(q.T)
    return CorrelationMatrix(rho.T, source="orbital-projector")


def momentum_distribution(G: CorrelationMatrix) -> DistributionProfile:
    """n_k on the grid k_m = 2 pi m / L, m = 1..L, unitary convention."""
    L = G.L
    sites = np.arange(1, L + 1)
    grid = np.zeros(L, dtype=np.float64)
    values = np.zeros(L, dtype=np.float64)
    for m in range(1, L + 1):
        k = 2.0 * math.pi * m / L
        w = np.exp(1j * k * sites)
        val = np.conj(w) @ (G.entries @ w) / L
        grid[m - 1] = k
        values[m - 1] = val.real
    return DistributionProfile("momentum", grid, values, float(values.sum()))


def skin_metrics(d: DistributionProfile) -> SkinMetrics:
    """Boundary-localization diagnostics of a position profile."""
    if d.kind != "position":
        raise ValueError(f"skin_metrics requires a position profile, got {d.kind!r}")
    values = d.values
    L = values.size
    total = float(values.sum())
    if total <= 0.0:
        raise ValueError("profile carries no weight")
    left = float(values[d.grid <= L / 2.0].sum())
    ipr = float(np.sum(values**2)) / total**2
    peak = float(values.max())
    mask = values > 1e-12 * peak
    if int(mask.sum()) >= 2:
        x = d.grid[mask]
        y = np.log(values[mask])
        xm = x - x.mean()
        slope = float(np.dot(xm, y - y.mean()) / np.dot(xm, xm))
    else:
        slope = float("nan")
    return SkinMetrics(left_fraction=left / total, ipr=ipr, log_slope=slope)
