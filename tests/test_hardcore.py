"""Fermion vs hard-core comparison on the ring.

Two regimes, two verification strategies: small sectors go through the
dense Fock-space oracle; the long-chain scan is pinned by closed forms.
The real part of the ground-energy difference obeys

    Re(delta) = t (e^g + e^{-g}) tan(pi / (2 L))

exactly at even half filling, which decays as 1/L. Frozen values below
were computed from the momentum sums and cross-checked by dense
diagonalization at L=8.
"""

import math

import numpy as np
import pytest

from hnaufbau import hardcore
from hnaufbau.aufbau import (
    SectorError,
    build_spectrum,
    ground_state,
    sort_complex_spectrum,
)
from hnaufbau.fock import (
    apply_hopping,
    build_dense_hamiltonian,
    eigenstate_from_config,
)
from hnaufbau.hardcore import (
    EnergyGap,
    delta_E_scan,
    im_delta_closed_form,
    obc_equivalence_check,
)
from hnaufbau.lattice import HNParams, hardcore_image, hopping_matrix, single_particle_levels
from hnaufbau.numerics import eigenvalues
from hnaufbau.verify import TOLERANCES

SCAN_LENGTHS = list(range(160, 481, 16))


def lowest_re(values):
    s = sort_complex_spectrum(values)
    return s[0]


def ring_e0(L, N, g, statistics):
    """Aufbau ground energy of N particles on the periodic ring of L sites."""
    return ground_state(single_particle_levels(HNParams(L=L, g=g)), statistics, N).energy


# ------------------------------------------------------------ parity sector


def test_parity_sector_mapping():
    ring = HNParams(L=8, t=1.0, g=0.5, boundary="periodic")
    even = hardcore_image(ring, 4)
    assert even == HNParams(L=8, t=1.0, g=0.5, boundary="twisted", twist=math.pi)
    assert hardcore_image(ring, 3) is ring
    twisted = HNParams(L=8, t=1.0, g=0.5, boundary="twisted", twist=0.3)
    assert hardcore_image(twisted, 4).twist == 0.3 + math.pi
    assert hardcore_image(twisted, 3) is twisted
    chain = HNParams(L=8, t=1.0, g=0.5, boundary="open")
    assert hardcore_image(chain, 4) is chain


def test_parity_sector_validation():
    with pytest.raises(SectorError):
        ring_e0(8, 9, 0.5, "hardcore")
    with pytest.raises(ValueError):
        ring_e0(1, 1, 0.5, "hardcore")


@pytest.mark.parametrize("t,g", [
    (-1.0, 0.5), (0.0, 0.5), (math.inf, 0.5), (math.nan, 0.5), (1.0, math.nan), (1.0, math.inf),
])
def test_closed_form_keeps_the_chain_rules(t, g):
    # HNParams refuses each of these chains; the closed form once returned
    # 1.042 at t = -1, -0.0 at t = 0, -inf at t = inf and nan for nan
    with pytest.raises(ValueError):
        im_delta_closed_form(8, 4, g, t=t)


def _chains(L, g):
    yield HNParams(L=L, t=1.0, g=g, boundary="periodic")
    yield HNParams(L=L, t=1.0, g=g, boundary="open")
    yield HNParams(L=L, t=1.0, g=g, boundary="twisted", twist=0.3)
    yield HNParams(L=L, t=1.0, g=g, boundary="twisted", twist=math.pi)


def test_hardcore_spectrum_of_physical_chain_matches_dense_oracle():
    # every sector of L = 2..7 at three couplings and four boundaries (324 in
    # all): the fill on the physical chain gives the dense hard-core spectrum,
    # and its rank-0 product state solves the hard-core eigenproblem
    failures = []
    sectors = 0
    for L in range(2, 8):
        for g in (0.0, 0.5, 1.5):
            for p in _chains(L, g):
                for N in range(1, L + 1):
                    sectors += 1
                    spec = build_spectrum(single_particle_levels(p), "hardcore", N)
                    dense = eigenvalues(build_dense_hamiltonian(p, "hardcore", N))
                    diff = np.max(np.abs(
                        sort_complex_spectrum(spec.energies) - sort_complex_spectrum(dense)
                    ))
                    v = eigenstate_from_config(p, "hardcore", spec.occupations(0))
                    w = apply_hopping(v, hopping_matrix(p))
                    res = np.linalg.norm(w.amplitudes - spec.energies[0] * v.amplitudes)
                    if not (diff < TOLERANCES["spectrum_multiset"]
                            and res < TOLERANCES["residual_obc"]):
                        failures.append((p, N, float(diff), float(res)))
    assert sectors == 324
    assert not failures


# ------------------------------------------------------- ground energies


def test_hcb_ground_matches_dense_oracle_l8():
    p = HNParams(L=8, t=1.0, g=0.5, boundary="periodic")
    h = build_dense_hamiltonian(p, "hardcore", 4)  # dim 70
    dense = lowest_re(eigenvalues(h))
    fast = ring_e0(8, 4, 0.5, "hardcore")
    assert abs(dense - fast) < 1e-8


def test_fermion_ground_matches_dense_oracle_l8():
    p = HNParams(L=8, t=1.0, g=0.5, boundary="periodic")
    h = build_dense_hamiltonian(p, "fermion", 4)
    dense = lowest_re(eigenvalues(h))
    fast = ring_e0(8, 4, 0.5, "fermion")
    assert abs(dense - fast) < 1e-8


def test_odd_parity_sectors_coincide():
    # odd N: the fermion image is periodic, so the two routes agree exactly
    for L, N in ((6, 3), (10, 5), (9, 3)):
        assert ring_e0(L, N, 0.7, "hardcore") == ring_e0(L, N, 0.7, "fermion")


def test_hcb_ground_energy_is_real():
    for L, N in ((8, 4), (12, 6), (160, 80)):
        e = ring_e0(L, N, 0.5, "hardcore")
        assert abs(e.imag) < 1e-10


def test_hermitian_limit_hcb_below_fermion():
    # g=0: both energies real, hard-core strictly lower in the even sector
    ef = ring_e0(8, 4, 0.0, "fermion")
    eb = ring_e0(8, 4, 0.0, "hardcore")
    assert abs(ef.imag) < 1e-12 and abs(eb.imag) < 1e-12
    assert eb.real < ef.real
    # the separation closes as 1/L^2
    gap_small = ring_e0(8, 4, 0.0, "fermion").real - eb.real
    eb_big = ring_e0(32, 16, 0.0, "hardcore").real
    ef_big = ring_e0(32, 16, 0.0, "fermion").real
    assert 0 < ef_big - eb_big < gap_small


def test_fermion_even_sector_picks_negative_im_branch():
    e = ring_e0(8, 4, 0.5, "fermion")
    assert e.imag < 0


def test_hcb_route_matches_full_spectrum_route():
    # the hard-core fill of the ring is the fermion fill of its antiperiodic image
    p = HNParams(L=12, t=1.0, g=0.5, boundary="twisted", twist=math.pi)
    via_spectrum = ground_state(single_particle_levels(p), "fermion", 6).energy
    assert ring_e0(12, 6, 0.5, "hardcore") == via_spectrum


# ----------------------------------------------------------- closed forms


def test_im_delta_closed_form_values():
    half = im_delta_closed_form(160, 80, 0.5)
    assert half == pytest.approx(-1.0421906109874948, abs=1e-12)
    # filling-only: any L at half filling gives the same number
    assert im_delta_closed_form(12, 6, 0.5) == pytest.approx(half, abs=1e-12)
    assert im_delta_closed_form(10, 10, 0.9) == pytest.approx(0.0, abs=1e-15)
    assert im_delta_closed_form(10, 5, -0.5) == pytest.approx(-half, abs=1e-12)
    assert im_delta_closed_form(10, 5, 0.0) == 0.0


def test_scan_imaginary_part_matches_closed_form():
    gaps = delta_E_scan(SCAN_LENGTHS, filling=0.5, g=0.5)
    assert [gap.L for gap in gaps] == SCAN_LENGTHS
    for gap in gaps:
        want = im_delta_closed_form(gap.L, gap.N, gap.g, gap.t)
        assert abs(gap.delta.imag - want) < 1e-10
        assert abs(gap.E0_hcb.imag) < 1e-10


def test_scan_real_part_tan_law():
    gaps = delta_E_scan(SCAN_LENGTHS, filling=0.5, g=0.5)
    for gap in gaps:
        want = (math.exp(0.5) + math.exp(-0.5)) * math.tan(math.pi / (2 * gap.L))
        assert gap.delta.real == pytest.approx(want, abs=1e-10)
    # frozen endpoint
    assert gaps[0].delta.real == pytest.approx(0.022141595413103232, abs=1e-12)


def test_scan_real_part_strictly_decreasing():
    gaps = delta_E_scan(SCAN_LENGTHS, filling=0.5, g=0.5)
    re = [abs(gap.delta.real) for gap in gaps]
    assert all(b < a for a, b in zip(re, re[1:]))


def test_scan_decay_exponent_is_one():
    # log-log least squares over the Fig.-4 grid: the decay is 1/L
    gaps = delta_E_scan(SCAN_LENGTHS, filling=0.5, g=0.5)
    x = np.log([gap.L for gap in gaps])
    y = np.log([abs(gap.delta.real) for gap in gaps])
    slope = np.polyfit(x, y, 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.05)


def test_scan_matches_ground_state_fill_bitwise():
    # the scan's energy-only fill against the public ground-state route
    lengths = [400, 1000, 2400]
    gaps = delta_E_scan(lengths, filling=0.5, g=0.5)
    for L, gap in zip(lengths, gaps):
        energies = []
        for p in (
            HNParams(L=L, t=1.0, g=0.5, boundary="periodic"),
            HNParams(L=L, t=1.0, g=0.5, boundary="twisted", twist=math.pi),
        ):
            energies.append(ground_state(single_particle_levels(p), "fermion", L // 2).energy)
        e0f, e0b = energies
        assert np.array(gap.E0_fermion).tobytes() == np.array(e0f).tobytes()
        assert np.array(gap.E0_hcb).tobytes() == np.array(e0b).tobytes()
        assert gap.delta == e0f - e0b


def test_scan_hermitian_limit():
    gaps = delta_E_scan([160, 176], filling=0.5, g=0.0)
    for gap in gaps:
        assert abs(gap.delta.imag) < 1e-12


def test_scan_validation():
    with pytest.raises(SectorError):
        delta_E_scan([10], filling=0.5)  # N=5 odd
    with pytest.raises(SectorError):
        delta_E_scan([10], filling=0.3)  # non-integer N
    with pytest.raises(SectorError):
        delta_E_scan([7.5])


def test_scan_checks_every_length_before_the_first_fill(monkeypatch):
    # length 10 (N = 5, odd) is refused before length 8, whose g = 705
    # energy would be filled, or any other length is
    fills = []
    monkeypatch.setattr(hardcore, "_fill", lambda *args: fills.append(args))
    with pytest.raises(SectorError, match=r"even N \(got N=5 at L=10\)"):
        delta_E_scan([8, 10], 0.5, 705.0)
    assert len(fills) == 0


def test_scan_returns_a_non_real_hardcore_energy():
    # at g=20 rounding at e^20 scale leaves Im ~ 5e-6 on the hard-core
    # energy; the scan returns it as computed and its reporters judge it
    (gap,) = delta_E_scan([400], 0.5, 20.0)
    assert isinstance(gap, EnergyGap)
    assert f"{gap.E0_hcb.imag:.3e}" == "5.186e-06"
    assert gap.delta == gap.E0_fermion - gap.E0_hcb


# -------------------------------------------------------- OBC equivalence


def test_obc_equivalence_true_cases():
    assert obc_equivalence_check(6, 3, 0.7) is True
    assert obc_equivalence_check(7, 3, 1.1) is True
    assert obc_equivalence_check(6, 2, 0.7) is True  # even N, still open


def test_pbc_even_sector_inequivalent():
    assert obc_equivalence_check(6, 2, 0.7, boundary="periodic") is False


def test_pbc_odd_sector_equivalent():
    assert obc_equivalence_check(6, 3, 0.7, boundary="periodic") is True
