"""Single-particle layer: hopping matrices and analytic level sets.

Frozen reference values were computed once from the closed-form
dispersion and orbital expressions and are asserted at tight absolute
tolerances; everything else is checked structurally (residuals, symmetry,
parameter independence).
"""

import math
import warnings

import numpy as np
import pytest

from hnaufbau.aufbau import sort_complex_spectrum
from hnaufbau.lattice import (
    ComplexLevel,
    HNParams,
    Levels,
    hopping_matrix,
    single_particle_levels,
)
from hnaufbau.numerics import eigenvalues


def level_residual(h, level):
    v = level.orbital
    return np.linalg.norm(h @ v - level.energy * v)


# ----------------------------------------------------------- hopping matrix


def test_matrix_entries_open():
    p = HNParams(L=4, t=1.0, g=0.5, boundary="open")
    h = hopping_matrix(p)
    up, down = math.exp(0.5), math.exp(-0.5)
    for j in range(3):
        assert h[j, j + 1] == pytest.approx(up, abs=1e-15)
        assert h[j + 1, j] == pytest.approx(down, abs=1e-15)
    assert h[3, 0] == 0
    assert h[0, 3] == 0
    assert np.all(np.diag(h) == 0)


def test_matrix_wrap_periodic():
    p = HNParams(L=5, t=2.0, g=0.3, boundary="periodic")
    h = hopping_matrix(p)
    assert h[4, 0] == pytest.approx(2.0 * math.exp(0.3), abs=1e-15)
    assert h[0, 4] == pytest.approx(2.0 * math.exp(-0.3), abs=1e-15)


def test_matrix_twisted_pi_negates_wrap():
    base = HNParams(L=6, t=1.0, g=0.5, boundary="periodic")
    tw = HNParams(L=6, t=1.0, g=0.5, boundary="twisted", twist=math.pi)
    hb = hopping_matrix(base)
    ht = hopping_matrix(tw)
    np.testing.assert_allclose(ht[5, 0], -hb[5, 0], atol=1e-15)
    np.testing.assert_allclose(ht[0, 5], -hb[0, 5], atol=1e-15)
    # bulk untouched
    np.testing.assert_array_equal(ht[:5, :5], hb[:5, :5].astype(complex))


def test_matrix_l2_periodic_accumulates_both_routes():
    # at L=2 the bulk bond and the wrap bond connect the same pair of
    # sites, so the two amplitudes add
    p = HNParams(L=2, t=1.0, g=0.5, boundary="periodic")
    h = hopping_matrix(p)
    both = math.exp(0.5) + math.exp(-0.5)
    assert h[0, 1] == pytest.approx(both, abs=1e-14)
    assert h[1, 0] == pytest.approx(both, abs=1e-14)


def test_matrix_g_zero_is_symmetric():
    p = HNParams(L=8, t=1.0, g=0.0, boundary="periodic")
    h = hopping_matrix(p)
    np.testing.assert_allclose(h, h.T.conj(), atol=1e-15)


def per_bond_reference(p):
    """The hopping matrix built one bond at a time, as a scalar loop."""
    L = p.L
    tg, tg_rev = p.t * math.exp(p.g), p.t * math.exp(-p.g)
    h = np.zeros((L, L), dtype=np.complex128)
    for j in range(L - 1):
        h[j, j + 1] += tg
        h[j + 1, j] += tg_rev
    if p.boundary != "open":
        phase = np.exp(-1j * p.phi)
        h[L - 1, 0] += tg * phase
        h[0, L - 1] += tg_rev * np.conj(phase)
    return h


@pytest.mark.parametrize("L", [2, 3, 7, 12])
def test_hopping_matrix_bit_identical_to_per_bond_reference(L):
    for g in (-3.0, 0.0, 0.5, 4.0):
        for p in (
            HNParams(L=L, g=g, boundary="periodic"),
            HNParams(L=L, g=g, boundary="open"),
            HNParams(L=L, g=g, boundary="twisted", twist=math.pi / 3),
        ):
            assert hopping_matrix(p).tobytes() == per_bond_reference(p).tobytes()


# --------------------------------------------------------------- validation


def test_params_reject_bad_length():
    with pytest.raises(ValueError):
        HNParams(L=1)
    with pytest.raises(ValueError):
        HNParams(L=4.0)


def test_params_reject_nonpositive_t():
    with pytest.raises(ValueError):
        HNParams(L=4, t=0.0)
    with pytest.raises(ValueError):
        HNParams(L=4, t=-1.0)


def test_params_reject_unknown_boundary():
    with pytest.raises(ValueError):
        HNParams(L=4, boundary="moebius")


def test_params_twist_requires_twisted_boundary():
    with pytest.raises(ValueError):
        HNParams(L=4, boundary="periodic", twist=0.3)
    # and twisted accepts it
    p = HNParams(L=4, boundary="twisted", twist=0.3)
    assert p.phi == pytest.approx(0.3)


def test_params_reject_nonfinite():
    with pytest.raises(ValueError):
        HNParams(L=4, g=float("nan"))
    with pytest.raises(ValueError):
        HNParams(L=4, t=float("inf"))


# ------------------------------------------------------------ ring spectrum


def test_ring_dispersion_frozen_values():
    # L=4, t=1, g=0.5: the m=4 mode sits at k=2*pi and its energy is
    # e^g + e^-g = 2*cosh(0.5); the m=1 mode at k=pi/2 is purely
    # imaginary, -2i*sinh(0.5).
    p = HNParams(L=4, t=1.0, g=0.5, boundary="periodic")
    levels = single_particle_levels(p)
    by_m = {lv.label: lv for lv in levels}
    assert by_m[4].energy == pytest.approx(2.2552519304127614, abs=1e-12)
    assert by_m[1].energy.real == pytest.approx(0.0, abs=1e-12)
    assert by_m[1].energy.imag == pytest.approx(-1.0421906109874948, abs=1e-12)


def test_ring_momenta_and_labels():
    p = HNParams(L=6, boundary="periodic")
    levels = single_particle_levels(p)
    assert [lv.label for lv in levels] == [1, 2, 3, 4, 5, 6]
    for lv in levels:
        assert lv.momentum == pytest.approx(2 * math.pi * lv.label / 6, abs=1e-14)


def test_ring_levels_satisfy_eigenproblem():
    for boundary, twist in (("periodic", 0.0), ("twisted", 1.1)):
        p = HNParams(L=12, t=1.0, g=0.5, boundary=boundary, twist=twist)
        h = hopping_matrix(p)
        for lv in single_particle_levels(p):
            assert level_residual(h, lv) < 1e-10


def test_ring_energies_sum_to_trace():
    p = HNParams(L=10, t=1.0, g=0.7, boundary="periodic")
    total = sum(lv.energy for lv in single_particle_levels(p))
    assert abs(total) < 1e-10  # the matrix is traceless


def test_ring_orbitals_are_normalized_plane_waves():
    p = HNParams(L=8, t=1.0, g=0.5, boundary="periodic")
    for lv in single_particle_levels(p):
        v = lv.orbital
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.abs(v), 1 / math.sqrt(8), atol=1e-12)


def test_ring_g_zero_energies_real():
    p = HNParams(L=9, t=1.0, g=0.0, boundary="periodic")
    for lv in single_particle_levels(p):
        assert abs(lv.energy.imag) < 1e-12
        k = lv.momentum
        assert lv.energy.real == pytest.approx(2 * math.cos(k), abs=1e-12)


def test_ring_spectrum_matches_eigensolver():
    p = HNParams(L=60, t=1.0, g=0.5, boundary="periodic")
    analytic = np.array([lv.energy for lv in single_particle_levels(p)])
    eigs = eigenvalues(hopping_matrix(p))
    np.testing.assert_allclose(
        sort_complex_spectrum(eigs), sort_complex_spectrum(analytic), atol=1e-8
    )


def test_twist_shifts_momentum_grid():
    phi = 0.7
    p = HNParams(L=8, t=1.0, g=0.5, boundary="twisted", twist=phi)
    for lv in single_particle_levels(p):
        assert lv.momentum == pytest.approx(
            (2 * math.pi * lv.label + phi) / 8, abs=1e-14
        )


# ------------------------------------------------------------ open spectrum


def test_open_chain_l2_energies():
    p = HNParams(L=2, t=1.0, g=0.5, boundary="open")
    energies = sorted(lv.energy.real for lv in single_particle_levels(p))
    np.testing.assert_allclose(energies, [-1.0, 1.0], atol=1e-12)


def test_open_chain_l3_energies():
    # 2*cos(m*pi/4) for m=1,2,3 -> {sqrt2, 0, -sqrt2}
    p = HNParams(L=3, t=1.0, g=1.5, boundary="open")
    energies = sorted(lv.energy.real for lv in single_particle_levels(p))
    np.testing.assert_allclose(
        energies, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12
    )


def test_open_energies_real_and_g_independent():
    for g in (0.0, 0.5, 1.5):
        p = HNParams(L=10, t=1.0, g=g, boundary="open")
        energies = np.array([lv.energy for lv in single_particle_levels(p)])
        assert np.all(energies.imag == 0)
        expected = 2 * np.cos(np.arange(1, 11) * math.pi / 11)
        got = np.array([lv.energy.real for lv in single_particle_levels(p)])
        np.testing.assert_allclose(sorted(got), sorted(expected), atol=1e-12)


def test_open_orbital_amplitude_formula():
    # site-j amplitude of mode m is e^{-g j} sin(j k'_m), unnormalized
    p = HNParams(L=10, t=1.0, g=1.5, boundary="open")
    lv = single_particle_levels(p)[0]
    assert lv.label == 1
    k1 = math.pi / 11
    assert lv.momentum == pytest.approx(k1, abs=1e-14)
    first = lv.orbital[0]
    assert first == pytest.approx(math.exp(-1.5) * math.sin(k1), abs=1e-12)
    # frozen: e^{-1.5} sin(pi/11) = 0.0628630...
    assert first.real == pytest.approx(0.0628630305270548, abs=1e-12)
    last = lv.orbital[-1]
    assert last == pytest.approx(math.exp(-15.0) * math.sin(10 * k1), abs=1e-18)


def test_open_levels_satisfy_eigenproblem():
    p = HNParams(L=12, t=1.0, g=0.8, boundary="open")
    h = hopping_matrix(p)
    for lv in single_particle_levels(p):
        # unnormalized orbitals: scale the residual by the vector norm
        v = lv.orbital
        res = np.linalg.norm(h @ v - lv.energy * v) / np.linalg.norm(v)
        assert res < 1e-10


def test_open_spectrum_matches_eigensolver_strong_asymmetry():
    # balancing has to cope with e^{+-gL} dynamic range
    p = HNParams(L=40, t=1.0, g=1.5, boundary="open")
    analytic = np.array([lv.energy for lv in single_particle_levels(p)])
    eigs = eigenvalues(hopping_matrix(p))
    np.testing.assert_allclose(
        sort_complex_spectrum(eigs), sort_complex_spectrum(analytic), atol=1e-8
    )


# ----------------------------------------------------------------- dispatch


def test_single_particle_levels_dispatch():
    # one builder: the boundary picks the momentum grid and the dispersion
    m = np.arange(1, 7)
    ring = single_particle_levels(HNParams(L=6, g=0.5, boundary="periodic"))
    chain = single_particle_levels(HNParams(L=6, g=0.5, boundary="open"))
    np.testing.assert_allclose(ring.momenta, 2 * math.pi * m / 6, atol=1e-14)
    np.testing.assert_allclose(chain.momenta, math.pi * m / 7, atol=1e-14)
    assert np.any(ring.energies.imag != 0)
    assert np.all(chain.energies.imag == 0)


def test_complex_level_is_frozen():
    lv = ComplexLevel(label=1, momentum=0.5, energy=1.0 + 0j, orbital=np.ones(2))
    with pytest.raises(AttributeError):
        lv.energy = 0.0


# ------------------------------------------------------ array-backed levels


def per_level_reference(p):
    """The closed forms evaluated one level at a time, as scalar loops."""
    L = p.L
    sites = np.arange(1, L + 1)
    levels = []
    for m in range(1, L + 1):
        if p.boundary == "open":
            k = math.pi * m / (L + 1)
            energy = 2.0 * p.t * math.cos(k)
            orbital = (np.exp(-p.g * sites) * np.sin(k * sites)).astype(np.complex128)
        else:
            k = (2.0 * math.pi * m + p.phi) / L
            energy = p.t * math.exp(p.g) * np.exp(-1j * k) + p.t * math.exp(
                -p.g
            ) * np.exp(1j * k)
            orbital = np.exp(-1j * k * sites) / math.sqrt(L)
        levels.append(ComplexLevel(m, k, complex(energy), orbital))
    return levels


@pytest.mark.parametrize("L", [2, 3, 7, 10, 12, 20, 40, 62])
def test_levels_bit_identical_to_per_level_reference(L):
    for g in (-3.0, 0.0, 0.5, 1.5, 4.0):
        for p in (
            HNParams(L=L, g=g, boundary="periodic"),
            HNParams(L=L, g=g, boundary="twisted", twist=math.pi),
            HNParams(L=L, g=g, boundary="twisted", twist=math.pi / 3),
            HNParams(L=L, g=g, boundary="open"),
        ):
            levels = single_particle_levels(p)
            ref = per_level_reference(p)
            assert levels.labels.tolist() == [lv.label for lv in ref]
            want_k = np.array([lv.momentum for lv in ref])
            want_e = np.array([lv.energy for lv in ref], dtype=np.complex128)
            assert levels.momenta.tobytes() == want_k.tobytes()
            assert levels.energies.tobytes() == want_e.tobytes()
            for i, lv in enumerate(ref):
                assert levels[i].orbital.tobytes() == lv.orbital.tobytes()


def test_levels_views_and_lazy_orbitals():
    p = HNParams(L=5, g=0.5, boundary="periodic")
    levels = single_particle_levels(p)
    assert "orbitals" not in vars(levels)  # energies alone build no orbitals
    assert len(levels) == 5
    assert levels[-1].label == 5 and levels[np.int64(0)].label == 1
    assert [lv.energy for lv in levels] == levels.energies.tolist()
    with pytest.raises(IndexError):
        levels[5]
    assert levels.orbitals.shape == (5, 5)
    assert levels[2].orbital.tobytes() == levels.orbitals[2].tobytes()
    with pytest.raises(ValueError):
        levels[2].orbital[0] = 0.0  # views of the shared cache are read-only
    bare = Levels(np.arange(1, 3), np.zeros(2), np.array([1.0, 2.0 + 0j]), None)
    with pytest.raises(ValueError):
        bare.orbitals


@pytest.mark.parametrize("t,g,boundary,twist", [
    (1e308, 0.5, "periodic", 0.0), (1e308, 0.5, "twisted", 0.3), (1e308, 0.5, "open", 0.0),
    (1e300, 20.0, "periodic", 0.0),
])
def test_amplitudes_beyond_float_range_warn_nothing(t, g, boundary, twist):
    # t e^|g| past float range gives inf or nan entries, which the callers
    # refuse, and no numpy warning on the way
    p = HNParams(L=4, t=t, g=g, boundary=boundary, twist=twist)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        energies = single_particle_levels(p).energies
        h = hopping_matrix(p)
    assert not np.isfinite(energies).all()
    assert np.isfinite(h).all() == math.isfinite(t * math.exp(abs(g)))
