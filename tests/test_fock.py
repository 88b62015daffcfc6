"""Fock-space engine against first-principles oracles.

The two sharpest checks here tie the product-state constructor back to
dense linear algebra: fermion amplitudes must be proportional to
orbital-submatrix determinants (numpy's LU), boson amplitudes to
permanents (a naive permutation sum) divided by sqrt of the occupation
factorials. One global scalar (phase/normalization) is fixed from the
largest amplitude and everything else must follow.

The operators themselves are checked against a brute-force reference that
works on dicts over occupation tuples, counting Jordan-Wigner signs site by
site: a second implementation that shares nothing with the lowering tables.
"""

import itertools
import math
import warnings
from collections import defaultdict

import numpy as np
import pytest

from hnaufbau.aufbau import (
    MAX_OCCUPATION_CELLS,
    _capped_dim,
    _occupation_rows,
    _sector_levels,
    SectorError,
    SectorTooLargeError,
    build_spectrum,
    sort_complex_spectrum,
)
from hnaufbau import fock
from hnaufbau.fock import (
    BasisMismatchError,
    FockBasis,
    FockVector,
    NullStateError,
    apply_hopping,
    build_dense_hamiltonian,
    construct_product_state,
    eigenstate_from_config,
    eigenstates_from_configs,
    get_basis,
    residual,
)
from hnaufbau.lattice import (
    HNParams,
    hopping_matrix,
    single_particle_levels,
)
from hnaufbau.numerics import eigenvalues
from hnaufbau.observables import correlation_matrix


# ------------------------------------------------------------------- basis


def test_basis_dimensions():
    assert get_basis("fermion", 6, 3).dim == 20
    assert get_basis("hardcore", 6, 3).dim == 20
    assert get_basis("boson", 6, 3).dim == 56
    assert get_basis("fermion", 10, 5).dim == 252
    assert get_basis("boson", 10, 5).dim == 2002
    assert get_basis("boson", 4, 0).dim == 1


def test_basis_lookup_roundtrip():
    for stats in ("fermion", "boson", "hardcore"):
        basis = get_basis(stats, 6, 3)
        occ = basis.occupations
        for i in range(basis.dim):
            assert basis.index_of(occ[i]) == i


def test_basis_rows_match_enumeration_order():
    # the aufbau rank <-> fock index bridge: same colex order on both sides
    for stats in ("fermion", "boson", "hardcore"):
        basis = get_basis(stats, 6, 3)
        listed = [tuple(row) for row in _occupation_rows(6, 3, stats).tolist()]
        got = [tuple(int(n) for n in row) for row in basis.occupations]
        assert got == listed
        # the spectrum's rows are the same sector, ranked by energy instead
        spec = build_spectrum(single_particle_levels(HNParams(L=6, g=0.5)), stats, 3)
        assert sorted(map(tuple, spec.occupations(slice(None)).tolist()), key=lambda r: r[::-1]) == got


def test_basis_lookup_rejects_foreign_occupation():
    # a row that is not a state raises SectorError, as eigenstate_from_config
    # does; a state of another particle number BasisMismatchError
    basis = get_basis("fermion", 4, 2)
    with pytest.raises(BasisMismatchError):
        basis.index_of((1, 1, 1, 0))  # wrong N
    with pytest.raises(SectorError):
        basis.index_of((2, 0, 0, 0))  # over the cap
    bos = get_basis("boson", 3, 2)
    with pytest.raises(SectorError):
        bos.index_of((1, 1))  # wrong length
    with pytest.raises(SectorError):
        bos.index_of((3, -1, 0))  # negative entry, right sum


@pytest.mark.parametrize("row", [
    (1.5, 1.5, 0, 0), (1.0, 1.0, 0.0, 0.0), ("1", "1", "0", "0"), (True, True, False, False),
])
def test_basis_lookup_rejects_non_integer_rows(row):
    # int() truncation once ranked (1.5, 1.5, 0, 0) as (1, 1, 0, 0)
    with pytest.raises(SectorError, match="occupations must be integers"):
        get_basis("fermion", 4, 2).index_of(row)


def test_basis_sector_guards():
    with pytest.raises(SectorError):
        FockBasis("fermion", 4, 5)
    with pytest.raises(SectorError):
        FockBasis("boson", 4, -1)
    # past 62 bits, and past base-(N+1) keys in int64: ranks need neither
    assert FockBasis("hardcore", 63, 1).dim == 63
    assert FockBasis("boson", 40, 3).dim == 11480
    with pytest.raises(SectorTooLargeError):
        FockBasis("boson", 30, 10)  # 635 million states
    with pytest.raises(SectorTooLargeError, match="occupation cells"):
        FockBasis("fermion", 20000, 1)  # 4e8 cells, under 5e6 states
    # the largest sector the two guards ever let through still is
    assert _capped_dim(58, 5, "fermion", fock.MAX_FOCK_CELLS) * 58 == 265_762_728


@pytest.mark.parametrize("statistics,L,N", [
    ("fermion", 100, 4), ("fermion", 1000, 2), ("boson", 100, 4), ("hardcore", 202, 3),
])
def test_spectrum_sectors_past_the_fock_cell_cap(statistics, L, N):
    # 3.9e8 to 5e8 cells: a spectrum enumerates them, a Fock basis refuses
    dim = _capped_dim(L, N, statistics)
    assert fock.MAX_FOCK_CELLS < dim * L <= MAX_OCCUPATION_CELLS
    with pytest.raises(SectorTooLargeError, match="occupation cells"):
        FockBasis(statistics, L, N)
    with pytest.raises(SectorTooLargeError, match="occupation cells"):
        _capped_dim(100_000, 1, statistics)  # 1e10 cells, 20 GB of int16


def test_rank_table_guard(monkeypatch):
    # a full sector has one state, but its L x (N+1) count table does not
    # shrink with it: the table obeys the occupation-cell cap as well
    monkeypatch.setattr(fock, "MAX_FOCK_CELLS", 100)
    assert FockBasis("fermion", 5, 2).index_of([1, 1, 0, 0, 0]) == 0  # 5 x 3 counts
    full = FockBasis("hardcore", 12, 12)
    with pytest.raises(SectorTooLargeError, match="rank table of 12 x 13 counts"):
        full.down


def _colex_sector(statistics, L, N):
    """The sector's rows from itertools, sorted last mode first: an oracle
    that shares nothing with the enumeration or the rank."""
    if statistics == "boson":
        picks = itertools.combinations_with_replacement(range(L), N)
    else:
        picks = itertools.combinations(range(L), N)
    rows = [tuple(sum(1 for m in pick if m == j) for j in range(L)) for pick in picks]
    return sorted(rows, key=lambda row: row[::-1])


_STATS = ("fermion", "boson", "hardcore")
# sectors past the old int64 keys, the vacuum of each statistics, and seeded
# draws of L in 1..9, N in 0..5
RANK_SECTORS = [("hardcore", 63, 1), ("boson", 40, 3), ("fermion", 70, 2)] + sorted(
    {(stats, L, 0) for stats, L in zip(_STATS, (1, 3, 5))}
    | {
        (stats, int(L), int(N))
        for stats, (L, N) in zip(
            _STATS * 8, np.random.default_rng(17).integers([1, 0], [10, 6], size=(24, 2))
        )
        if stats == "boson" or N <= L
    }
)


@pytest.mark.parametrize("statistics,L,N", RANK_SECTORS)
def test_rank_matches_brute_force_rows(statistics, L, N):
    basis = FockBasis(statistics, L, N)
    rows = _colex_sector(statistics, L, N)
    assert basis.occupations.tolist() == [list(row) for row in rows]
    lower = {row: i for i, row in enumerate(_colex_sector(statistics, L, N - 1))} if N else {}
    want = np.full((basis.dim, L), len(lower))
    for s, row in enumerate(rows):
        for j in np.flatnonzero(row):
            want[s, j] = lower[row[:j] + (row[j] - 1,) + row[j + 1:]]
    np.testing.assert_array_equal(basis.down, want)
    for s in np.random.default_rng(L * 10 + N).choice(basis.dim, min(basis.dim, 50), replace=False):
        assert basis.index_of(rows[s]) == s


def test_vector_shape_guard():
    basis = get_basis("fermion", 4, 2)
    with pytest.raises(BasisMismatchError):
        FockVector(basis, np.zeros(5, dtype=complex))


def test_vector_normalize_null():
    basis = get_basis("fermion", 4, 2)
    with pytest.raises(NullStateError):
        FockVector(basis, np.zeros(basis.dim, dtype=np.complex128)).normalized()


# ------------------------------------------------------- hamiltonian action


def test_apply_single_particle_sector_equals_hopping_matrix():
    p = HNParams(L=6, t=1.0, g=0.5, boundary="periodic")
    h = hopping_matrix(p)
    rng = np.random.default_rng(7)
    amps = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for stats in ("fermion", "boson", "hardcore"):
        basis = get_basis(stats, 6, 1)
        # N=1 basis rows are single-site occupations in site order
        np.testing.assert_array_equal(
            np.asarray(basis.occupations), np.eye(6, dtype=np.int16)
        )
        v = FockVector(basis, amps.copy())
        w = apply_hopping(v, hopping_matrix(p))
        np.testing.assert_allclose(w.amplitudes, h @ amps, atol=1e-13)


def test_apply_pauli_blocked_filled_band():
    p = HNParams(L=2, t=1.0, g=0.5, boundary="periodic")
    basis = get_basis("fermion", 2, 2)
    assert basis.dim == 1
    v = FockVector(basis, np.array([1.0 + 0j]))
    w = apply_hopping(v, hopping_matrix(p))
    assert np.all(w.amplitudes == 0)
    assert residual(v, hopping_matrix(p), 0.0) == 0.0


def test_apply_boson_sqrt2_matrix_element():
    # open chain, one directed hop c_1^dag c_0: |2,0> -> sqrt(2)*|1,1>
    basis = get_basis("boson", 2, 2)
    i20 = basis.index_of((2, 0))
    i11 = basis.index_of((1, 1))
    v = FockVector(basis, np.zeros(basis.dim, dtype=np.complex128))
    v.amplitudes[i20] = 1.0
    w = apply_hopping(v, np.array([[0, 0], [1.0 + 0j, 0]]))
    expect = np.zeros(3, dtype=complex)
    expect[i11] = math.sqrt(2.0)
    np.testing.assert_allclose(w.amplitudes, expect, atol=1e-15)


def test_apply_output_stays_in_sector():
    p = HNParams(L=5, t=1.0, g=0.3, boundary="periodic")
    for stats in ("fermion", "boson", "hardcore"):
        basis = get_basis(stats, 5, 2)
        rng = np.random.default_rng(3)
        v = FockVector(basis, rng.standard_normal(basis.dim) + 0j)
        w = apply_hopping(v, hopping_matrix(p))
        assert w.basis is basis
        assert w.amplitudes.shape == (basis.dim,)


def test_apply_basis_mismatch_errors():
    p = HNParams(L=4, t=1.0, g=0.5, boundary="periodic")
    basis6 = get_basis("fermion", 6, 2)
    v6 = FockVector(basis6, np.zeros(basis6.dim, dtype=np.complex128))
    with pytest.raises(BasisMismatchError):
        apply_hopping(v6, hopping_matrix(p))


def test_apply_hopping_rejects_wrong_shape():
    basis = get_basis("fermion", 4, 2)
    v = FockVector(basis, np.zeros(basis.dim, dtype=np.complex128))
    for shape in ((4, 5), (5, 4), (5, 5), (3, 3), (4,), (4, 4, 1)):
        with pytest.raises(BasisMismatchError):
            apply_hopping(v, np.ones(shape, dtype=complex))


@pytest.mark.parametrize("stats", ["fermion", "boson", "hardcore"])
def test_diagonal_bond_is_number_operator(stats, rng):
    basis = get_basis(stats, 5, 3)
    amps = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    v = FockVector(basis, amps)
    a = 0.7 - 0.4j
    for i in range(5):
        h = np.zeros((5, 5), dtype=complex)
        h[i, i] = a
        w = apply_hopping(v, h)
        want = a * basis.occupations[:, i] * amps
        np.testing.assert_allclose(w.amplitudes, want, rtol=0, atol=1e-13)


# ------------------------------------------------- brute-force reference


def ref_states(stats, L, N):
    cap = N if stats == "boson" else 1
    return [o for o in itertools.product(range(cap + 1), repeat=L) if sum(o) == N]


def ref_hop(stats, occ, i, j):
    """c_i^dag c_j |occ> as (factor, occ'), or None when it vanishes."""
    occ = list(occ)
    nj = occ[j]
    if nj == 0:
        return None
    factor = (-1) ** sum(occ[:j]) if stats == "fermion" else math.sqrt(nj)
    occ[j] -= 1
    ni = occ[i]
    if stats != "boson" and ni == 1:
        return None
    factor *= (-1) ** sum(occ[:i]) if stats == "fermion" else math.sqrt(ni + 1)
    occ[i] += 1
    return factor, tuple(occ)


def ref_apply(stats, vec, bonds):
    """H v for H = sum amp c_i^dag c_j, v a dict over occupation tuples."""
    out = defaultdict(complex)
    for occ, a in vec.items():
        for i, j, amp in bonds:
            hop = ref_hop(stats, occ, i, j)
            if hop is not None:
                out[hop[1]] += amp * hop[0] * a
    return out


@pytest.mark.parametrize("stats", ["fermion", "boson", "hardcore"])
@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_engine_matches_brute_force_reference(stats, boundary, rng):
    for L in range(2, 7):
        p = HNParams(L=L, t=1.0, g=0.5, boundary=boundary)
        h = hopping_matrix(p)
        bonds = [(i, j, h[i, j]) for i, j in zip(*np.nonzero(h))]
        h_diag = h.copy()
        h_diag[L - 1, L - 1] += 0.3 - 0.2j
        for N in range(min(L, 4) + 1):
            basis = get_basis(stats, L, N)
            occs = [tuple(int(n) for n in row) for row in basis.occupations]
            assert sorted(occs) == sorted(ref_states(stats, L, N))

            amps = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
            amps /= np.linalg.norm(amps)
            v = FockVector(basis, amps)
            vec = dict(zip(occs, amps))
            with_diag = bonds + [(L - 1, L - 1, 0.3 - 0.2j)]
            want = ref_apply(stats, vec, with_diag)
            np.testing.assert_allclose(
                apply_hopping(v, h_diag).amplitudes,
                [want.get(o, 0) for o in occs], rtol=0, atol=1e-13,
            )

            if N > 0:
                dense = np.zeros((basis.dim, basis.dim), dtype=complex)
                index = {o: k for k, o in enumerate(occs)}
                for col, occ in enumerate(occs):
                    for row_occ, val in ref_apply(stats, {occ: 1.0}, bonds).items():
                        dense[index[row_occ], col] = val
                np.testing.assert_allclose(
                    build_dense_hamiltonian(p, stats, N), dense, rtol=0, atol=1e-13
                )

            G = np.zeros((L, L), dtype=complex)
            for i in range(L):
                for j in range(L):
                    hv = ref_apply(stats, vec, [(i, j, 1.0)])
                    G[i, j] = sum(np.conj(vec[o]) * a for o, a in hv.items())
            np.testing.assert_allclose(
                correlation_matrix(v), G, rtol=0, atol=1e-13
            )


# ------------------------------------------------------------ dense builder


def test_dense_dimensions_and_trace():
    p = HNParams(L=6, t=1.0, g=0.5, boundary="periodic")
    hf = build_dense_hamiltonian(p, "fermion", 3)
    assert hf.shape == (20, 20)
    assert abs(np.trace(hf)) < 1e-12
    hb = build_dense_hamiltonian(p, "boson", 3)
    assert hb.shape == (56, 56)
    assert abs(np.trace(hb)) < 1e-12


def test_dense_columns_equal_apply_on_unit_vectors():
    p = HNParams(L=5, t=1.0, g=0.4, boundary="periodic")
    for stats in ("fermion", "boson", "hardcore"):
        basis = get_basis(stats, 5, 2)
        h = build_dense_hamiltonian(p, stats, 2)
        for col in range(basis.dim):
            v = FockVector(basis, np.zeros(basis.dim, dtype=np.complex128))
            v.amplitudes[col] = 1.0
            w = apply_hopping(v, hopping_matrix(p))
            np.testing.assert_array_equal(h[:, col], w.amplitudes)


def test_dense_hermitian_when_reciprocal():
    p = HNParams(L=6, t=1.0, g=0.0, boundary="periodic")
    for stats in ("fermion", "boson"):
        h = build_dense_hamiltonian(p, stats, 3)
        np.testing.assert_allclose(h, h.T.conj(), atol=1e-14)


def test_dense_hardcore_equals_fermion_entrywise():
    # open boundary: no string ever crosses the cut, so the matrices agree
    p_open = HNParams(L=6, t=1.0, g=0.5, boundary="open")
    np.testing.assert_allclose(
        build_dense_hamiltonian(p_open, "hardcore", 3),
        build_dense_hamiltonian(p_open, "fermion", 3),
        atol=0,
    )
    # ring, odd N: the wrap string is even, same agreement
    p_ring = HNParams(L=6, t=1.0, g=0.5, boundary="periodic")
    np.testing.assert_allclose(
        build_dense_hamiltonian(p_ring, "hardcore", 3),
        build_dense_hamiltonian(p_ring, "fermion", 3),
        atol=0,
    )
    # ring, even N: agreement only after twisting the fermion wrap by pi
    p_tw = HNParams(L=6, t=1.0, g=0.5, boundary="twisted", twist=math.pi)
    np.testing.assert_allclose(
        build_dense_hamiltonian(p_ring, "hardcore", 4),
        build_dense_hamiltonian(p_tw, "fermion", 4),
        atol=1e-15,
    )


@pytest.mark.parametrize("statistics,t,g", [
    ("fermion", 1e300, 20.0), ("boson", 1e300, 20.0), ("hardcore", 1e300, 20.0),
    ("boson", 1e308, 0.5),
])
def test_dense_hamiltonian_beyond_float_range_warns_nothing(statistics, t, g):
    # t e^g = inf on every bond, or a finite bond times a boson sqrt(2):
    # the entries are inf or nan, silently
    p = HNParams(L=4, t=t, g=g, boundary="periodic")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        H = build_dense_hamiltonian(p, statistics, 2)
    assert not np.isfinite(H).all()


def test_dense_obc_hardcore_spectrum_matches_fermion():
    p = HNParams(L=6, t=1.0, g=0.5, boundary="open")
    eh = eigenvalues(build_dense_hamiltonian(p, "hardcore", 3))
    ef = eigenvalues(build_dense_hamiltonian(p, "fermion", 3))
    np.testing.assert_allclose(
        sort_complex_spectrum(eh),
        sort_complex_spectrum(ef),
        atol=1e-8,
    )


def test_dense_dimension_cap():
    p = HNParams(L=14, t=1.0, g=0.5, boundary="periodic")
    with pytest.raises(SectorTooLargeError):
        build_dense_hamiltonian(p, "fermion", 7)  # 3432 > 2500


def test_dense_spectrum_matches_aufbau_multiset():
    p = HNParams(L=6, t=1.0, g=0.5, boundary="periodic")
    levels = single_particle_levels(p)
    for stats in ("fermion", "boson"):
        spec = build_spectrum(levels, stats, 3)
        want = np.array([lv.energy for lv in spec])
        eigs = eigenvalues(build_dense_hamiltonian(p, stats, 3))
        np.testing.assert_allclose(
            sort_complex_spectrum(eigs),
            sort_complex_spectrum(want),
            atol=1e-8,
        )


# ----------------------------------------------------------- product states


def test_product_state_single_orbital():
    rng = np.random.default_rng(11)
    orb = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    for stats in ("fermion", "boson", "hardcore"):
        v = construct_product_state([orb], stats)
        np.testing.assert_allclose(
            v.amplitudes, orb / np.linalg.norm(orb), atol=1e-13
        )
        assert v.norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("stats", ["fermion", "boson"])
def test_product_state_orbital_with_overflowing_norm(stats):
    # every entry is finite but the norm is not; the orbital must not scale
    # to zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = construct_product_state([np.full(3, 1e300)], stats)
    np.testing.assert_allclose(v.amplitudes, np.full(3, 1 / np.sqrt(3)), rtol=1e-15)


def test_product_state_identical_fermion_orbitals_null():
    orb = np.ones(4, dtype=complex)
    with pytest.raises(NullStateError):
        construct_product_state([orb, orb], "fermion")


def test_product_state_zero_orbital_rejected():
    with pytest.raises(NullStateError):
        construct_product_state([np.zeros(4)], "boson")


def test_product_state_length_mismatch():
    with pytest.raises(ValueError):
        construct_product_state([np.ones(4), np.ones(5)], "fermion")


def test_product_state_vacuum_needs_length():
    with pytest.raises(ValueError):
        construct_product_state([], "fermion")
    v = construct_product_state([], "fermion", L=4)
    assert v.basis.dim == 1
    assert v.amplitudes[0] == 1.0


def test_fermion_amplitudes_proportional_to_determinants(rng):
    L, N = 6, 3
    orbs = [rng.standard_normal(L) + 1j * rng.standard_normal(L) for _ in range(N)]
    v = construct_product_state(orbs, "fermion")
    phi = np.array(orbs)  # rows: orbitals, columns: sites
    basis = v.basis
    occ = np.asarray(basis.occupations)
    dets = np.array(
        [np.linalg.det(phi[:, np.nonzero(occ[i])[0]]) for i in range(basis.dim)]
    )
    i0 = int(np.argmax(np.abs(v.amplitudes)))
    scale = v.amplitudes[i0] / dets[i0]
    np.testing.assert_allclose(v.amplitudes, scale * dets, atol=1e-12)


def test_hardcore_product_state_is_the_jordan_wigner_image(rng):
    # three hard-core particles: the fermion amplitudes in the shared
    # occupation basis, signs included, not the symmetrized product
    L = 5
    orbs = [rng.standard_normal(L) + 1j * rng.standard_normal(L) for _ in range(3)]
    hcb = construct_product_state(orbs, "hardcore")
    ferm = construct_product_state(orbs, "fermion")
    assert hcb.basis is get_basis("hardcore", L, 3)
    assert (hcb.basis.occupations == ferm.basis.occupations).all()
    assert hcb.amplitudes.tobytes() == ferm.amplitudes.tobytes()


def permanent_sum(a):
    """Permutation-sum reference, no signs."""
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        term = 1.0 + 0.0j
        for i, j in enumerate(perm):
            term *= a[i, j]
        total += term
    return total


def test_boson_amplitudes_proportional_to_permanents(rng):
    L, N = 4, 3
    orbs = [rng.standard_normal(L) + 1j * rng.standard_normal(L) for _ in range(N)]
    v = construct_product_state(orbs, "boson")
    phi = np.array(orbs)
    basis = v.basis
    occ = np.asarray(basis.occupations)
    ref = np.empty(basis.dim, dtype=complex)
    for i in range(basis.dim):
        cols = np.repeat(np.arange(L), occ[i])
        fact = 1.0
        for n in occ[i]:
            fact *= math.factorial(int(n))
        ref[i] = permanent_sum(phi[:, cols]) / math.sqrt(fact)
    i0 = int(np.argmax(np.abs(v.amplitudes)))
    scale = v.amplitudes[i0] / ref[i0]
    np.testing.assert_allclose(v.amplitudes, scale * ref, atol=1e-12)


def test_boson_same_orbital_pair_open_ground():
    # both particles in the lowest open-chain orbital: |2000> carries
    # phi_1^2, |1100> carries sqrt(2) phi_1 phi_2, up to one overall scale
    p = HNParams(L=4, t=1.0, g=0.5, boundary="open")
    orb = single_particle_levels(p)[0].orbital
    v = construct_product_state([orb, orb], "boson")
    basis = v.basis
    a2000 = v.amplitudes[basis.index_of((2, 0, 0, 0))]
    a1100 = v.amplitudes[basis.index_of((1, 1, 0, 0))]
    ratio = a1100 / a2000
    expect = math.sqrt(2.0) * orb[1] / orb[0]
    assert ratio == pytest.approx(expect, abs=1e-12)


# ------------------------------------------------- batched product states


def _row_by_row(p, stats, occ):
    """One row's amplitudes by the plain sequential loop: each occupied
    level's orbital scaled to unit norm, created one at a time through
    fock._create on a 1-D vector, then the vector normalized."""
    levels = _sector_levels(single_particle_levels(p), stats, int(occ.sum()))
    creation = "fermion" if stats == "hardcore" else stats
    vec = np.ones(1, dtype=np.complex128)
    for n, m in enumerate(np.repeat(np.arange(p.L), occ), 1):
        orb = levels.orbitals[m]
        vec = fock._create(get_basis(creation, p.L, n), np.outer(vec, orb / np.linalg.norm(orb)))
    return vec / float(np.linalg.norm(vec))


# (statistics, L, N, chain): sectors whose rows cross the default
# STATE_CELLS cut (rows > STATE_CELLS // (dim * L)), a hard-core ring of
# even N (the twisted image) and of odd N; a full fermion sector; the
# vacuum of each statistics at g = -70, where the open-chain orbitals leave
# float range; boson rows past 2**RESCALE_EXP whose norms still fit a
# float, two ranks each
BATCH_SECTORS = [
    (stats, L, N, chain)
    for stats, L, N in (("fermion", 9, 4), ("boson", 6, 4), ("hardcore", 9, 4), ("hardcore", 8, 3))
    for chain in (dict(boundary="periodic"), dict(boundary="open", g=1.5),
                  dict(boundary="twisted", twist=0.7, g=0.3))
] + [("fermion", 5, 5, dict(boundary="open"))] + [
    (stats, 12, 0, dict(boundary="open", g=-70.0)) for stats in ("fermion", "boson", "hardcore")
] + [("boson", 2, 150, dict(boundary="periodic")), ("boson", 3, 100, dict(boundary="open", g=0.2))]


@pytest.mark.parametrize("stats,L,N,chain", BATCH_SECTORS)
def test_batched_states_match_row_by_row_bitwise(monkeypatch, stats, L, N, chain):
    p = HNParams(L=L, **chain)
    spec = build_spectrum(single_particle_levels(p), stats, N)
    few = N > L + 10
    rows = spec.occupations([0, len(spec) - 1] if few else slice(None))
    want = [_row_by_row(p, stats, occ).tobytes() for occ in rows]
    cells = get_basis(stats, L, N).dim * L
    default = fock.STATE_CELLS
    assert few or len(rows) == 1 or len(rows) > default // cells
    for state_cells in (1, 2 * cells, default):  # batches of 1, of 2, at the cut
        monkeypatch.setattr(fock, "STATE_CELLS", state_cells)
        got = [v.amplitudes.tobytes() for v in eigenstates_from_configs(p, stats, rows)]
        assert got == want, state_cells
    for occ, amps in zip(rows[:3], want):
        assert eigenstate_from_config(p, stats, occ).amplitudes.tobytes() == amps


@pytest.mark.parametrize("stats", ["fermion", "boson", "hardcore"])
def test_batched_states_refuse_occupied_orbitals_beyond_float_range(stats):
    # at g = -70 the open-chain orbitals leave float range: the vacuum
    # (in BATCH_SECTORS) reads none of them, a row that occupies one is
    # refused in the call, before any state
    p = HNParams(L=12, g=-70.0, boundary="open")
    rows = np.zeros((2, 12), dtype=np.int8)
    rows[:, 0] = 1
    with pytest.raises(OverflowError, match="leave float range"):
        eigenstates_from_configs(p, stats, rows)


def test_batched_states_check_their_rows():
    p = HNParams(L=4)
    assert list(eigenstates_from_configs(p, "fermion", np.zeros((0, 4), dtype=int))) == []
    with pytest.raises(SectorError, match="different particle numbers"):
        eigenstates_from_configs(p, "fermion", [[1, 0, 0, 0], [1, 1, 0, 0]])
    with pytest.raises(SectorError, match="shape"):
        eigenstates_from_configs(p, "fermion", [1, 0, 0, 0])
    with pytest.raises(SectorError, match="0 or 1"):
        eigenstates_from_configs(p, "hardcore", [[2, 0, 0, 0]])


# -------------------------------------------------------- residual checks


def residual_scan(p, stats, N, tol, limit=None):
    levels = single_particle_levels(p)
    spec = build_spectrum(levels, stats, N)
    worst = 0.0
    for occ, energy in zip(spec.occupations(slice(limit)), spec.energies[:limit]):
        v = eigenstate_from_config(p, stats, occ)
        worst = max(worst, residual(v, hopping_matrix(p), energy))
    assert worst < tol, f"worst residual {worst:.3e} over {stats} {p.boundary}"


def test_residuals_ring_l6():
    p = HNParams(L=6, t=1.0, g=0.5, boundary="periodic")
    residual_scan(p, "fermion", 3, 1e-10)
    residual_scan(p, "boson", 3, 1e-10)


def test_residuals_ring_l8_fermion():
    p = HNParams(L=8, t=1.0, g=0.5, boundary="periodic")
    residual_scan(p, "fermion", 4, 1e-10)


def test_residuals_chain_l8():
    p = HNParams(L=8, t=1.0, g=0.5, boundary="open")
    for N in (1, 2, 3, 4):
        residual_scan(p, "fermion", N, 1e-9, limit=25)
        residual_scan(p, "boson", N, 1e-9, limit=25)


def test_residuals_hardcore_chain():
    p = HNParams(L=6, t=1.0, g=0.5, boundary="open")
    residual_scan(p, "hardcore", 3, 1e-9)


def test_residuals_hardcore_ring_via_parity_twist():
    # odd N: plain ring levels; even N: the fill and the eigenstates come
    # from the pi-twisted fermion image of the ring, and must satisfy the
    # *ring* hardcore eigenproblem, since the two Hamiltonians agree entry
    # by entry
    ring = HNParams(L=6, t=1.0, g=0.5, boundary="periodic")
    residual_scan(ring, "hardcore", 3, 1e-10)

    spec = build_spectrum(single_particle_levels(ring), "hardcore", 4)
    for occ, energy in zip(spec.occupations(range(8)), spec.energies[:8]):
        v = eigenstate_from_config(ring, "hardcore", occ)
        assert residual(v, hopping_matrix(ring), energy) < 1e-10


def test_residual_detects_perturbation(rng):
    p = HNParams(L=6, t=1.0, g=0.5, boundary="periodic")
    spec = build_spectrum(single_particle_levels(p), "fermion", 3)
    v = eigenstate_from_config(p, "fermion", spec.occupations(0))
    noisy = v.amplitudes + 1e-3 * rng.standard_normal(v.basis.dim)
    noisy /= np.linalg.norm(noisy)
    r = residual(FockVector(v.basis, noisy), hopping_matrix(p), spec.energies[0])
    assert r > 1e-4


def test_eigenstate_from_config_checks_length():
    p = HNParams(L=6, t=1.0, g=0.5, boundary="periodic")
    with pytest.raises(SectorError):
        eigenstate_from_config(p, "fermion", (1, 0, 1, 0))
