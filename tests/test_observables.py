"""Distributions and localization diagnostics.

The correlation matrix gets the dual-route treatment: the explicit
Fock-space contraction must agree entry by entry with the projector onto
the span of the non-orthogonal occupied orbitals, built from their QR
factorization. Momentum
profiles of ring eigenstates must reproduce the occupation numbers
exactly, which pins the Fourier convention.
"""

import math

import numpy as np
import pytest

import hnaufbau
from hnaufbau import observables
from hnaufbau.aufbau import build_spectrum
from hnaufbau.fock import (
    FockVector,
    NullStateError,
    construct_product_state,
    eigenstate_from_config,
    get_basis,
)
from hnaufbau.lattice import HNParams, single_particle_levels
from hnaufbau.observables import (
    DistributionProfile,
    SingularMatrixError,
    correlation_matrix,
    density_from_fock,
    density_matrix_from_orbitals,
    momentum_distribution,
    skin_metrics,
)
from hnaufbau.verify import TOLERANCES


def ring(L, g=0.5):
    return HNParams(L=L, t=1.0, g=g, boundary="periodic")


def chain(L, g=0.5):
    return HNParams(L=L, t=1.0, g=g, boundary="open")


# ----------------------------------------------------------------- density


def test_density_single_particle_is_normalized_orbital():
    p = chain(6, g=1.0)
    orb = single_particle_levels(p)[0].orbital
    v = construct_product_state([orb], "fermion")
    d = density_from_fock(v)
    expect = np.abs(orb) ** 2 / np.sum(np.abs(orb) ** 2)
    np.testing.assert_allclose(d.values, expect, atol=1e-12)
    np.testing.assert_array_equal(d.grid, np.arange(1, 7))
    assert d.total == pytest.approx(1.0, abs=1e-12)


def test_density_ring_eigenstates_uniform():
    p = ring(6)
    spec = build_spectrum(single_particle_levels(p), "fermion", 3)
    for occ in spec.occupations(range(6)):
        v = eigenstate_from_config(p, "fermion", occ)
        d = density_from_fock(v)
        np.testing.assert_allclose(d.values, np.full(6, 0.5), atol=1e-10)


def test_density_sums_to_particle_number():
    p = chain(8, g=0.7)
    for stats, N in (("fermion", 3), ("boson", 3), ("hardcore", 4)):
        spec = build_spectrum(single_particle_levels(p), stats, N)
        for occ in spec.occupations(range(10)):
            v = eigenstate_from_config(p, stats, occ)
            d = density_from_fock(v)
            assert d.total == pytest.approx(N, abs=1e-8)
            assert np.all(d.values >= 0)


def test_density_mirror_under_g_flip():
    # flipping the hopping asymmetry reflects open-chain profiles
    for stats in ("fermion", "boson"):
        specs = []
        for g in (0.8, -0.8):
            p = chain(7, g=g)
            spec = build_spectrum(single_particle_levels(p), stats, 3)
            occ = spec.occupations(0)
            v = eigenstate_from_config(p, stats, occ)
            specs.append(density_from_fock(v).values)
        np.testing.assert_allclose(specs[0], specs[1][::-1], atol=1e-10)


def test_density_boson_ground_frozen_edge_weight():
    # open chain, five bosons condensed in the leftmost-localized orbital:
    # the edge site holds |phi_1|^2 / sum |phi_j|^2 of the weight
    p = chain(10, g=1.5)
    spec = build_spectrum(single_particle_levels(p), "boson", 5)
    occ = spec.occupations(0)
    v = eigenstate_from_config(p, "boson", occ)
    d = density_from_fock(v)
    phi = single_particle_levels(p).orbitals[0]
    expect = np.abs(phi[0]) ** 2 / np.sum(np.abs(phi) ** 2)
    assert d.values[0] / d.total == pytest.approx(expect, abs=1e-10)
    assert d.values[0] / d.total == pytest.approx(0.8315702527234174, abs=1e-10)


# ----------------------------------------------------------- correlations


def test_correlation_diagonal_equals_density():
    p = chain(6, g=0.5)
    for stats in ("fermion", "boson", "hardcore"):
        spec = build_spectrum(single_particle_levels(p), stats, 3)
        occ = spec.occupations(1)
        v = eigenstate_from_config(p, stats, occ)
        G = correlation_matrix(v)
        d = density_from_fock(v)
        np.testing.assert_allclose(np.diag(G).real, d.values, atol=1e-10)
        np.testing.assert_allclose(np.diag(G).imag, 0.0, atol=1e-10)
        assert np.trace(G).real == pytest.approx(3, abs=1e-8)


def test_correlation_single_particle_projector():
    rng = np.random.default_rng(5)
    orb = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v = construct_product_state([orb], "fermion")
    G = correlation_matrix(v)
    u = orb / np.linalg.norm(orb)
    # G[i][j] = <c_i^dag c_j> = conj(u_i) u_j
    expect = np.outer(np.conj(u), u)
    np.testing.assert_allclose(G, expect, atol=1e-12)


def test_correlation_dual_route_fermion():
    # explicit Fock contraction vs non-orthogonal orbital projector
    p = chain(6, g=0.5)
    levels = single_particle_levels(p)
    spec = build_spectrum(levels, "fermion", 3)
    for occ in spec.occupations(range(8)):
        v = eigenstate_from_config(p, "fermion", occ)
        G_fock = correlation_matrix(v)
        G_orb = density_matrix_from_orbitals(levels.orbitals[occ > 0])
        np.testing.assert_allclose(G_fock, G_orb, atol=1e-10)


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_correlation_dual_route_property_over_g(boundary):
    # every rank of L=6, N=3 on a g grid over [0, 6]; the graded open-chain
    # orbitals e^{-gj} sin(jk) grow ill-conditioned as g rises
    bound = TOLERANCES["dual_route"]
    failures = []
    for g in np.linspace(0.0, 6.0, 25):
        p = HNParams(L=6, t=1.0, g=float(g), boundary=boundary)
        levels = single_particle_levels(p)
        spec = build_spectrum(levels, "fermion", 3)
        for rank, occ in enumerate(spec.occupations(slice(None))):
            try:
                v = eigenstate_from_config(p, "fermion", occ)
            except NullStateError:
                continue
            G_orb = density_matrix_from_orbitals(levels.orbitals[occ > 0])
            diff = np.max(np.abs(correlation_matrix(v) - G_orb))
            if not diff < bound:
                failures.append((float(g), rank, float(diff)))
    assert failures == []


def test_orbital_projector_rejects_dependent_orbitals():
    orb = single_particle_levels(chain(6, g=0.5))[0].orbital
    with pytest.raises(SingularMatrixError):
        density_matrix_from_orbitals([orb, 2.0 * orb])


def test_singular_matrix_error_is_the_package_export():
    # the package exports the class its only raiser defines: a computation
    # failure, so the CLI maps it to exit 1
    assert hnaufbau.SingularMatrixError is observables.SingularMatrixError
    assert issubclass(SingularMatrixError, ArithmeticError)


# -------------------------------------------------------------- momentum


def test_momentum_of_ring_eigenstates_equals_occupations():
    p = ring(6)
    for stats in ("fermion", "boson"):
        spec = build_spectrum(single_particle_levels(p), stats, 3)
        for occ in spec.occupations(range(8)):
            v = eigenstate_from_config(p, stats, occ)
            nk = momentum_distribution(correlation_matrix(v))
            np.testing.assert_allclose(nk.values, occ.astype(float), atol=1e-10)


def test_momentum_grid_convention():
    G = np.eye(4) * 0.5
    nk = momentum_distribution(G)
    np.testing.assert_allclose(nk.grid, 2 * math.pi * np.arange(1, 5) / 4, atol=0)
    assert nk.kind == "momentum"


def test_momentum_sum_rule():
    p = chain(8, g=1.0)
    for stats, N in (("fermion", 4), ("boson", 3)):
        spec = build_spectrum(single_particle_levels(p), stats, N)
        for occ in spec.occupations(range(10)):
            v = eigenstate_from_config(p, stats, occ)
            nk = momentum_distribution(correlation_matrix(v))
            assert nk.total == pytest.approx(N, abs=1e-8)
            assert np.all(nk.values >= -1e-10)


def test_momentum_fermion_pauli_bound():
    p = chain(8, g=1.5)
    spec = build_spectrum(single_particle_levels(p), "fermion", 4)
    for occ in spec.occupations(range(20)):
        v = eigenstate_from_config(p, "fermion", occ)
        nk = momentum_distribution(correlation_matrix(v))
        assert np.all(nk.values <= 1.0 + 1e-8)


def test_momentum_boson_ring_condensate_peak():
    p = ring(10)
    spec = build_spectrum(single_particle_levels(p), "boson", 5)
    occ = spec.occupations(0)
    v = eigenstate_from_config(p, "boson", occ)
    nk = momentum_distribution(correlation_matrix(v))
    peak = int(np.argmax(nk.values))
    assert nk.values[peak] == pytest.approx(5.0, abs=1e-8)
    others = np.delete(nk.values, peak)
    np.testing.assert_allclose(others, 0.0, atol=1e-8)
    # the condensate momentum minimizes Re of the dispersion: k = pi
    assert nk.grid[peak] == pytest.approx(math.pi, abs=1e-12)


# ------------------------------------------------------------ skin metrics


def test_skin_uniform_profile():
    d = DistributionProfile("position", np.arange(1, 11), np.full(10, 0.3), 3.0)
    m = skin_metrics(d)
    assert m.left_fraction == pytest.approx(0.5, abs=1e-12)
    assert m.ipr == pytest.approx(1 / 10, abs=1e-12)
    assert m.log_slope == pytest.approx(0.0, abs=1e-12)


def test_skin_pure_exponential_slope():
    grid = np.arange(1, 9, dtype=float)
    vals = np.exp(-1.3 * grid)
    d = DistributionProfile("position", grid, vals, float(vals.sum()))
    assert skin_metrics(d).log_slope == pytest.approx(-1.3, abs=1e-10)


def test_skin_boson_ground_slope_matches_minus_two_g():
    p = chain(10, g=1.5)
    spec = build_spectrum(single_particle_levels(p), "boson", 5)
    occ = spec.occupations(0)
    v = eigenstate_from_config(p, "boson", occ)
    m = skin_metrics(density_from_fock(v))
    assert m.log_slope == pytest.approx(-3.0, rel=0.15)
    assert m.left_fraction > 0.99


def test_skin_fermion_chain_all_left_skewed():
    p = chain(10, g=1.5)
    spec = build_spectrum(single_particle_levels(p), "fermion", 5)
    fractions = []
    for occ in spec.occupations(slice(None)):
        v = eigenstate_from_config(p, "fermion", occ)
        fractions.append(skin_metrics(density_from_fock(v)).left_fraction)
    assert min(fractions) > 0.5


def test_skin_requires_position_profile():
    d = DistributionProfile("momentum", np.arange(1, 5, dtype=float), np.ones(4), 4.0)
    with pytest.raises(ValueError):
        skin_metrics(d)


def test_skin_single_site_slope_is_nan():
    vals = np.zeros(6)
    vals[0] = 2.0
    d = DistributionProfile("position", np.arange(1, 7, dtype=float), vals, 2.0)
    m = skin_metrics(d)
    assert math.isnan(m.log_slope)
    assert m.left_fraction == pytest.approx(1.0)


# --------------------------------------------------------------- validation


def test_profile_validation():
    with pytest.raises(ValueError):
        DistributionProfile("speed", np.arange(3.0), np.ones(3), 3.0)
    with pytest.raises(ValueError):
        DistributionProfile("position", np.arange(3.0), np.ones(2), 2.0)
    with pytest.raises(ValueError):
        DistributionProfile("position", np.arange(3.0), np.array([1.0, -1e-6, 0.0]), 1.0)
    with pytest.raises(ValueError):
        DistributionProfile("position", np.arange(2.0), np.array([np.inf, 1.0]), 1.0)


def test_hardcore_momentum_not_fermionic():
    # hard-core ring eigenstates are built from parity-twisted fermions;
    # their momentum profile need not match the fermionic occupations, but
    # the sum rule still holds
    ring = HNParams(L=6, t=1.0, g=0.5, boundary="periodic")
    spec = build_spectrum(single_particle_levels(ring), "hardcore", 4)
    occ = spec.occupations(0)
    v = eigenstate_from_config(ring, "hardcore", occ)
    nk = momentum_distribution(correlation_matrix(v))
    assert nk.total == pytest.approx(4.0, abs=1e-8)
