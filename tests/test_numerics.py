"""The numerics module checked against independent oracles.

The eigenvalue wrapper is numpy's LAPACK zgeev behind an input check, so
its tests pin that contract: known spectra, invariants, and rejected input.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnaufbau import (
    aufbau,
    cli,
    fock,
    hardcore,
    kernels,
    lattice,
    numerics,
    observables,
    verify,
)
from hnaufbau.numerics import eigenvalues


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def sorted_by_parts(values):
    values = np.asarray(values, dtype=np.complex128)
    order = np.lexsort((values.imag, values.real))
    return values[order]


# ------------------------------------------------------------- eigenvalues


def test_eigenvalues_diagonal():
    d = np.array([1.0 + 2.0j, -3.0, 0.5j])
    eigs = eigenvalues(np.diag(d))
    np.testing.assert_allclose(sorted_by_parts(eigs), sorted_by_parts(d), atol=1e-13)


def test_eigenvalues_asymmetric_hopping_cell():
    # [[0, a], [b, 0]] has spectrum +/- sqrt(ab); with a=e^g, b=e^-g the
    # product is 1 and the eigenvalues are exactly +/- 1 for every g.
    g = 0.5
    a = np.array([[0.0, math.exp(g)], [math.exp(-g), 0.0]], dtype=complex)
    got = sorted_by_parts(eigenvalues(a))
    np.testing.assert_allclose(got, [-1.0, 1.0], atol=1e-12)


def test_eigenvalues_jordan_block():
    # defective: [[0,1],[0,0]] has a double eigenvalue 0
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    np.testing.assert_allclose(eigenvalues(a), [0.0, 0.0], atol=1e-12)


def test_eigenvalues_trace_invariant_dim_200(rng):
    a = random_complex(rng, 200)
    assert abs(eigenvalues(a).sum() - np.trace(a)) < 1e-8 * np.linalg.norm(a)


def test_eigenvalues_determinant_invariant(rng):
    a = random_complex(rng, 30)
    ref = np.linalg.det(a)
    assert abs(np.prod(eigenvalues(a)) - ref) < 1e-8 * (1 + abs(ref))


def test_eigenvalues_similarity_invariance(rng):
    # spectra are invariant under similarity transforms; exercises balancing
    a = random_complex(rng, 12)
    d = np.diag(10.0 ** rng.integers(-3, 4, size=12).astype(float))
    b = d @ a @ np.linalg.inv(d)
    got = sorted_by_parts(eigenvalues(b))
    ref = sorted_by_parts(eigenvalues(a))
    np.testing.assert_allclose(got, ref, atol=1e-8)


def test_eigenvalues_empty_rejected():
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((0, 0)))


def test_eigenvalues_rejects_nonsquare():
    with pytest.raises(ValueError):
        eigenvalues(np.ones((2, 3)))


def test_eigenvalues_rejects_nonfinite():
    a = np.eye(2, dtype=complex)
    a[0, 1] = np.nan
    with pytest.raises(ValueError):
        eigenvalues(a)


def test_eigenvalues_lapack_failure_is_arithmetic(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(ArithmeticError):
        eigenvalues(np.eye(2))


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 25))
def test_eigenvalues_trace_property(seed, n):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, n)
    scale = np.linalg.norm(a) + 1.0
    assert abs(eigenvalues(a).sum() - np.trace(a)) < 1e-9 * n * scale


# ------------------------------------------------------------ public names


@pytest.mark.parametrize(
    "module",
    [aufbau, cli, fock, hardcore, kernels, lattice, numerics, observables, verify],
    ids=lambda m: m.__name__,
)
def test_public_names_resolve(module):
    # perfbench's tracer wraps every name in these lists; the package itself
    # has no __all__, and its explicit imports fail at import time if stale
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
