"""Filling-order construction of many-body spectra.

Frozen energies below were computed from the closed-form single-particle
dispersion and independently cross-checked against dense Fock-space
diagonalization (see test_fock / the verify module); they are asserted at
1e-12 absolute, which leaves headroom for route-dependent rounding.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hnaufbau import kernels
from hnaufbau.aufbau import (
    DEFAULT_MAX_STATES,
    _capped_dim,
    _check_occupations,
    _cluster_sort,
    _occupation_rows,
    _sector_levels,
    ManyBodyLevel,
    OccupationConfig,
    SectorError,
    SectorTooLargeError,
    Spectrum,
    build_spectrum,
    count_configs,
    default_tie_tol,
    energy_of_config,
    ground_state,
    occupation_string,
    occupation_strings,
    parse_occupation_string,
    sort_complex_spectrum,
    sort_levels,
)
from hnaufbau.fock import eigenstate_from_config
from hnaufbau.lattice import (
    HNParams,
    Levels,
    single_particle_levels,
)


def ring_levels(L, g=0.5, t=1.0):
    return single_particle_levels(HNParams(L=L, t=t, g=g, boundary="periodic"))


def chain_levels(L, g=0.5, t=1.0):
    return single_particle_levels(HNParams(L=L, t=t, g=g, boundary="open"))


def fake_levels(energies):
    n = len(energies)
    return Levels(
        labels=np.arange(1, n + 1, dtype=np.int64),
        momenta=np.zeros(n),
        energies=np.array(energies, dtype=np.complex128),
        params=None,
    )


# ------------------------------------------------------------- sort_levels


def filling_labels(levels):
    """Mode labels in filling order."""
    return levels.labels[sort_levels(levels)].tolist()


def test_sort_open_chain_l3():
    positions = sort_levels(chain_levels(3, g=1.5))
    assert positions.dtype == np.int64
    assert positions.tolist() == [2, 1, 0]


def test_sort_ring_l4_conjugate_pair_order():
    # Re-degenerate pair at k=pi/2 and 3pi/2: negative Im comes first
    # (by real part alone, cos(3pi/2) ~ -1.8e-16 would put mode 3 first)
    assert filling_labels(ring_levels(4, g=0.5)) == [2, 1, 3, 4]


def test_sort_stability_all_equal():
    assert filling_labels(fake_levels([1.0, 1.0, 1.0, 1.0])) == [1, 2, 3, 4]


def test_sort_noise_within_tie_tol_does_not_split():
    # 1e-15 jitter on the real part must not separate a conjugate pair:
    # the pair orders by Im, not by its noisy real parts
    eps = 1e-15
    assert filling_labels(fake_levels([-eps + 1.0j, eps - 1.0j, 2.0])) == [2, 1, 3]


def test_sort_tie_tol_zero_splits_everything():
    # within the default tie_tol the pair orders by Im, at 0 by Re; the
    # filling order always chains within the default, so tie_tol reaches
    # only the cluster sort of many-body energies
    levels = fake_levels([1e-12 - 1.0j, 0.0 + 1.0j, 2.0])
    assert filling_labels(levels) == [1, 2, 3]
    assert levels.labels[_cluster_sort(levels.energies, 0.0)[0]].tolist() == [2, 1, 3]


def test_sort_rejects_empty():
    with pytest.raises(ValueError):
        sort_levels([])


def test_sort_rejects_bad_tie_tol():
    # checked before the sector is enumerated
    with pytest.raises(ValueError):
        build_spectrum(fake_levels([1.0]), "fermion", 1, tie_tol=-1.0)
    with pytest.raises(ValueError):
        build_spectrum(fake_levels([1.0]), "fermion", 1, tie_tol=float("nan"))


@pytest.mark.parametrize("tie_tol", [None, 1e-3])
def test_spread_beyond_float_range_raises_whatever_tie_tol(tie_tol):
    # an explicit tie_tol keeps the spread check: real parts 2e308 apart
    # (levels) or 3e308 apart (two-particle energies of levels 1.6e308
    # apart) raise instead of overflowing in the gaps
    with pytest.raises(OverflowError, match="beyond float range"):
        _cluster_sort(fake_levels([-1e308, 1e308]).energies, tie_tol)
    levels = fake_levels([-8e307, -7e307, 7e307, 8e307])
    with pytest.raises(OverflowError, match="beyond float range"):
        build_spectrum(levels, "fermion", 2, tie_tol=tie_tol)


@settings(deadline=None, max_examples=50)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
)
def test_sort_real_parts_nondecreasing_property(seed, n):
    rng = np.random.default_rng(seed)
    energies = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    levels = fake_levels(energies)
    positions = sort_levels(levels)
    assert sorted(positions.tolist()) == list(range(n))
    sorted_re = levels.energies.real[positions]
    tie_tol = default_tie_tol(levels.energies.real)
    for a, b in zip(sorted_re, sorted_re[1:]):
        assert b >= a - tie_tol


def lexsort_cluster_order(values, tie_tol):
    """Reference for _cluster_sort: clusters chained over the Re-sorted
    values, then np.lexsort by (cluster id, Im, position)."""
    re = values.real
    by_re = np.argsort(re, kind="stable")
    cid = np.zeros(re.size, dtype=np.int64)
    cid[by_re[1:]] = np.cumsum(np.diff(re[by_re]) > tie_tol)
    order = np.lexsort((values.imag, cid))
    return order, cid[order]


def cluster_sort_inputs(seed):
    """Seeded complex arrays whose ties every stage of _cluster_sort meets:
    exact duplicates, +-0.0 imaginary parts, Re noise below the default tie
    tolerance, all-equal values, and n = 1 and 2."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(-3, 4, 6) + 1j * rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], 6)
    dupes = rng.choice(pool, 200)
    signed_zeros = rng.integers(-2, 3, 200) + 1j * rng.choice([0.0, -0.0], 200)
    noisy = dupes + rng.choice([0.0, 1e-15, -1e-15, 1e-3], 200)
    return [
        dupes,
        signed_zeros,
        noisy,
        rng.standard_normal(200) + 1j * rng.standard_normal(200),
        np.full(50, 2.0 - 1.0j),
        np.array([0.0 + 0.0j]),
        np.array([1.0 - 0.0j, 1.0 + 0.0j]),
        np.array([1.0 + 1.0j, 1.0 - 1.0j]),
        np.array([], dtype=np.complex128),
    ]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("tie_tol", [0.0, None, 1.0])
def test_cluster_sort_matches_lexsort_reference(seed, tie_tol):
    for values in cluster_sort_inputs(seed):
        tol = default_tie_tol(values.real) if tie_tol is None else tie_tol
        order, groups = _cluster_sort(values, tie_tol)
        want_order, want_groups = lexsort_cluster_order(values, tol)
        assert order.dtype == groups.dtype == np.int32
        assert order.tolist() == want_order.tolist()
        assert groups.tolist() == want_groups.tolist()


def test_cluster_sort_past_65536_clusters_matches_lexsort_reference():
    # 70,000 shuffled distinct real parts, each twice with a different Im:
    # the cluster ids pass 2^16, so the high 16-bit digit needs its own pass
    rng = np.random.default_rng(7)
    re = rng.permutation(np.repeat(np.arange(70_000, dtype=np.float64), 2))
    values = re + 1j * rng.choice([1.0, -1.0, 0.0, -0.0], re.size)
    order, groups = _cluster_sort(values, 0.0)
    want_order, want_groups = lexsort_cluster_order(values, 0.0)
    assert groups[-1] == 69_999
    assert order.tolist() == want_order.tolist()
    assert groups.tolist() == want_groups.tolist()


# ------------------------------------------------------- config enumeration


def test_counts_match_closed_forms():
    assert count_configs(10, 5, "fermion") == 252
    assert count_configs(10, 5, "hardcore") == 252
    assert count_configs(10, 5, "boson") == 2002
    assert count_configs(4, 0, "fermion") == 1
    assert count_configs(4, 0, "boson") == 1


def rows_of(L, N, stats):
    return [tuple(row) for row in _occupation_rows(L, N, stats).tolist()]


def test_enumeration_counts_and_uniqueness():
    for stats in ("fermion", "boson", "hardcore"):
        seen = set()
        for occ in rows_of(6, 3, stats):
            row = _check_occupations(6, stats, occ)  # checks the statistics' cap
            assert row.sum() == 3
            seen.add(occ)
        assert len(seen) == count_configs(6, 3, stats)


# (L, N) per statistics: a small sector, thin sectors, and near-full
# fermion or few-mode boson sectors
FERMION_SECTORS = [(5, 3), (64, 1), (40, 2), (12, 11), (12, 12)]
BOSON_SECTORS = [(5, 3), (64, 1), (40, 2), (2, 40), (3, 25)]


def test_enumeration_is_colexicographic():
    # colex: compare occupation tuples read from the last mode backwards
    def colex_key(occ):
        return tuple(reversed(occ))

    for stats, sectors in (("fermion", FERMION_SECTORS), ("boson", BOSON_SECTORS)):
        for L, N in sectors:
            occs = rows_of(L, N, stats)
            assert len(occs) == count_configs(L, N, stats)
            assert occs == sorted(occs, key=colex_key)


def test_enumeration_first_rows():
    fermion = rows_of(4, 2, "fermion")
    assert fermion[0] == (1, 1, 0, 0)
    assert fermion[1] == (1, 0, 1, 0)
    assert fermion[2] == (0, 1, 1, 0)
    boson = rows_of(3, 2, "boson")
    assert boson == [
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 2),
    ]


def test_enumeration_matches_itertools_combinations():
    got = set(rows_of(8, 3, "fermion"))
    want = set()
    for positions in itertools.combinations(range(8), 3):
        occ = [0] * 8
        for p in positions:
            occ[p] = 1
        want.add(tuple(occ))
    assert got == want


def test_fermion_words_match_combinations():
    # independent reference: bit words from combinations, sorted ascending,
    # unpacked into occupation rows
    for L, N in [(10, 4), *FERMION_SECTORS[1:]]:
        rows = kernels.fermion_occupations(L, N)
        words = sorted(
            sum(1 << p for p in positions)
            for positions in itertools.combinations(range(L), N)
        )
        ref = [[(w >> j) & 1 for j in range(L)] for w in words]
        np.testing.assert_array_equal(rows, np.array(ref, dtype=np.int16))


def test_boson_states_match_compositions():
    # independent reference: all compositions, colexicographically sorted
    def compositions(L, N):
        if L == 1:
            yield (N,)
            return
        for head in range(N + 1):
            for rest in compositions(L - 1, N - head):
                yield (head,) + rest

    for L, N in [(5, 4), *BOSON_SECTORS[1:]]:
        states = kernels.boson_states(L, N)
        ref = sorted(compositions(L, N), key=lambda occ: tuple(reversed(occ)))
        np.testing.assert_array_equal(states, np.array(ref, dtype=np.int16))


def test_enumeration_vacuum_and_full():
    assert rows_of(3, 0, "boson") == [(0, 0, 0)]
    assert rows_of(3, 3, "fermion") == [(1, 1, 1)]
    for enumerate_sector in (kernels.fermion_occupations, kernels.boson_states):
        vacuum = enumerate_sector(5000, 0)
        assert vacuum.dtype == np.int8  # every occupation fits one byte
        np.testing.assert_array_equal(vacuum, np.zeros((1, 5000), np.int8))


def test_single_fermion_rows_are_the_identity():
    # one particle: row m holds it on mode m, at a cost of the L x L output
    np.testing.assert_array_equal(
        kernels.fermion_occupations(2000, 1), np.eye(2000, dtype=np.int16)
    )


def test_boson_particle_number_fits_int16():
    # occupations are int16, so a boson sector is refused above its limit
    limit = int(np.iinfo(np.int16).max)
    assert _capped_dim(2, limit, "boson") == limit + 1
    with pytest.raises(SectorTooLargeError, match=f"int16 occupation limit of {limit}"):
        _capped_dim(2, limit + 1, "boson")


def test_enumeration_invalid_sectors():
    with pytest.raises(SectorError):
        build_spectrum(ring_levels(4), "fermion", 5)
    with pytest.raises(SectorError):
        build_spectrum(ring_levels(4), "boson", -1)
    with pytest.raises(ValueError):
        build_spectrum(ring_levels(4), "anyon", 2)
    with pytest.raises(SectorTooLargeError):
        build_spectrum(ring_levels(40), "fermion", 20)


def energy_route(stats, occ):
    return energy_of_config(ring_levels(4), stats, occ)


def eigenstate_route(stats, occ):
    return eigenstate_from_config(HNParams(L=4, g=0.5), stats, occ)


@pytest.mark.parametrize("stats", ["fermion", "boson", "hardcore"])
@pytest.mark.parametrize("route", [energy_route, eigenstate_route], ids=["energy", "eigenstate"])
def test_occupation_row_checks(route, stats):
    route(stats, [1, 0, 1, 0])
    route(stats, np.array([0, 1, 1, 1], dtype=np.int16))
    for wrong_length in ([1, 0, 1], [1, 0, 1, 0, 0], [[1, 0, 1, 0]]):
        with pytest.raises(SectorError, match="shape"):
            route(stats, wrong_length)
    with pytest.raises(SectorError, match="non-negative"):
        route(stats, [-1, 1, 1, 1])
    with pytest.raises(SectorError, match="integers"):
        route(stats, [0.5, 1.7, 1, 0])
    if stats == "boson":
        route(stats, [2, 0, 1, 0])
    else:
        with pytest.raises(SectorError, match="0 or 1"):
            route(stats, [2, 0, 1, 0])
    with pytest.raises(ValueError, match="statistics"):
        route("anyon", [1, 0, 1, 0])


# ----------------------------------------------------------- build_spectrum


def test_spectrum_sizes():
    levels = ring_levels(10)
    assert len(build_spectrum(levels, "fermion", 5)) == 252
    assert len(build_spectrum(levels, "boson", 5)) == 2002
    assert len(build_spectrum(levels, "hardcore", 5)) == 252


def test_spectrum_size_formula_small_grid():
    for L in range(2, 9):
        levels = ring_levels(L)
        for N in range(0, min(L, 4) + 1):
            for stats in ("fermion", "boson", "hardcore"):
                want = count_configs(L, N, stats)
                assert len(build_spectrum(levels, stats, N)) == want


def test_spectrum_rank_and_group_structure():
    spec = build_spectrum(ring_levels(10), "fermion", 5)
    assert [lv.rank for lv in spec] == list(range(252))
    groups = [lv.degeneracy_group for lv in spec]
    assert groups[0] == 0
    assert all(b - a in (0, 1) for a, b in zip(groups, groups[1:]))
    re = [lv.energy.real for lv in spec]
    assert all(b >= a - 1e-9 for a, b in zip(re, re[1:]))


def test_degeneracy_groups_ring_l10_n5():
    # ground level is unique; the first excited group is 4-fold for
    # fermions and 2-fold for bosons
    levels = ring_levels(10)
    for stats, first_excited in (("fermion", 4), ("boson", 2)):
        spec = build_spectrum(levels, stats, 5)
        groups = [lv.degeneracy_group for lv in spec]
        sizes = [len(list(run)) for _, run in itertools.groupby(groups)]
        assert sizes[0] == 1
        assert sizes[1] == first_excited


def test_ground_energy_frozen_ring_l10():
    spec = build_spectrum(ring_levels(10), "fermion", 5)
    assert spec[0].energy.real == pytest.approx(-7.298148553203322, abs=1e-12)
    assert spec[0].energy.imag == pytest.approx(0.0, abs=1e-12)
    bspec = build_spectrum(ring_levels(10), "boson", 5)
    assert bspec[0].energy.real == pytest.approx(-11.276259652063807, abs=1e-12)
    assert bspec[0].energy.imag == pytest.approx(0.0, abs=1e-12)


def test_spectrum_closed_under_conjugation_ring():
    for stats in ("fermion", "boson"):
        spec = build_spectrum(ring_levels(6), stats, 3)
        energies = np.array([lv.energy for lv in spec])
        a = sort_complex_spectrum(energies)
        b = sort_complex_spectrum(energies.conj())
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_spectrum_real_when_reciprocal():
    for stats in ("fermion", "boson"):
        spec = build_spectrum(ring_levels(8, g=0.0), stats, 4)
        for lv in spec:
            assert abs(lv.energy.imag) < 1e-10


# (statistics, L, N, boundary, twist, g): every statistics on a ring, an
# open chain and a twist (even hard-core N fills the twisted image), the
# few-mode boson L = 4, N = 30 and bosons in int16 cells (N > 127)
ENERGY_SECTORS = [
    (stats, 7, 3, boundary, twist, g)
    for stats in ("fermion", "boson", "hardcore")
    for boundary, twist, g in (("periodic", 0.0, 0.5), ("open", 0.0, 1.5), ("twisted", 0.7, -2.0))
] + [
    ("fermion", 10, 5, "periodic", 0.0, 0.5),
    ("hardcore", 10, 4, "periodic", 0.0, 0.5),
    ("hardcore", 9, 4, "open", 0.0, 0.5),
    ("boson", 6, 4, "twisted", 1.1, 0.5),
    ("boson", 4, 30, "periodic", 0.0, 0.5),
    ("boson", 4, 30, "open", 0.0, 1.5),
    ("boson", 3, 130, "twisted", 0.4, 0.5),
    ("boson", 2, 300, "open", 0.0, -2.0),
]


def test_spectrum_energy_consistency():
    # every row's energy re-derives from its occupations, bit for bit,
    # through energy_of_config's one-configuration sum, and ground_state
    # holds rank 0's row and bits
    for stats, L, N, boundary, twist, g in ENERGY_SECTORS:
        levels = single_particle_levels(
            HNParams(L=L, t=1.0, g=g, boundary=boundary, twist=twist))
        spec = build_spectrum(levels, stats, N)
        rows = spec.occupations(slice(None))
        energies = np.array([energy_of_config(levels, stats, occ) for occ in rows])
        assert energies.tobytes() == spec.energies.tobytes(), (stats, L, N, boundary)
        gs = ground_state(levels, stats, N)
        assert np.complex128(gs.energy).tobytes() == spec.energies[0].tobytes()
        assert gs.config.occupations == tuple(rows[0].tolist())


@pytest.mark.parametrize("boundary", ["periodic", "open"])
@pytest.mark.parametrize("t", [1.0, 2.5])
@pytest.mark.parametrize("g", [0.0, 0.5, 1.5, -2.0])
def test_fermion_particle_hole_duality(boundary, t, g):
    # the complement of a configuration holds the remaining levels, and all
    # levels sum to 0 on a phi = 0 ring and on an open chain, so sector N is
    # minus sector L - N. Both sides come from the same levels: this checks
    # that each sector is enumerated completely and summed right, not the
    # levels themselves
    for L in range(2, 13):
        levels = single_particle_levels(HNParams(L=L, t=t, g=g, boundary=boundary))
        for N in range(L + 1):
            a = sort_complex_spectrum(build_spectrum(levels, "fermion", N).energies)
            b = sort_complex_spectrum(-build_spectrum(levels, "fermion", L - N).energies)
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-12 * (1 + np.max(np.abs(a))), (L, N)


def test_spectrum_arrays_and_level_views():
    spec = build_spectrum(ring_levels(6), "boson", 3)
    assert isinstance(spec, Spectrum)
    assert len(spec) == 56
    assert spec.energies.dtype == np.complex128 and spec.energies.shape == (56,)
    # boson rows stay in colex order, one byte a cell; colex maps rank to row
    assert spec.rows.dtype == np.int8 and spec.rows.shape == (56, 6)
    assert spec.colex.dtype == np.int32 and sorted(spec.colex) == list(range(56))
    assert spec.groups.dtype == np.int32
    assert np.all(np.diff(spec.groups) >= 0)
    levels = list(spec)
    assert [lv.rank for lv in levels] == list(range(56))
    for lv in levels:
        assert lv.energy == complex(spec.energies[lv.rank])
        assert lv.config.occupations == tuple(spec.occupations(lv.rank).tolist())
        assert lv.config.statistics == "boson"
        assert lv.degeneracy_group == spec.groups[lv.rank]
    assert spec[-1] == levels[-1] and spec[-1].rank == 55
    assert spec[-56] == levels[0]
    assert spec[np.int64(3)] == levels[3]
    with pytest.raises(TypeError):
        spec[2:5]  # ranges of ranks are slices of the arrays
    with pytest.raises(IndexError):
        spec[56]
    with pytest.raises(IndexError):
        spec[-57]


# (statistics, L, N, boundary, twist): up to dim 2e5, thin, near-full and
# few-mode boson sectors, and bosons past the int8 occupation
REPRESENTATION_SECTORS = [
    ("fermion", 20, 10, "periodic", 0.0),
    ("fermion", 300, 2, "open", 0.0),
    ("fermion", 14, 12, "twisted", 0.7),
    ("fermion", 9, 0, "periodic", 0.0),
    ("hardcore", 16, 6, "periodic", 0.0),
    ("hardcore", 13, 5, "open", 0.0),
    ("hardcore", 11, 10, "twisted", 2.0),
    ("boson", 13, 7, "open", 0.0),
    ("boson", 40, 3, "twisted", 1.1),
    ("boson", 3, 127, "periodic", 0.0),
    ("boson", 2, 128, "twisted", 0.4),
    ("boson", 3, 400, "open", 0.0),
    ("boson", 2, 5, "open", 0.0),
    ("boson", 4, 30, "periodic", 0.0),
    ("hardcore", 12, 6, "twisted", 0.7),
]


@pytest.mark.parametrize("stats,L,N,boundary,twist", REPRESENTATION_SECTORS)
def test_spectrum_holds_colex_rows_once(stats, L, N, boundary, twist):
    levels = single_particle_levels(
        HNParams(L=L, t=1.0, g=0.5, boundary=boundary, twist=twist))
    spec = build_spectrum(levels, stats, N)
    want = _occupation_rows(L, N, stats)
    assert want.dtype == (np.int8 if stats != "boson" or N <= 127 else np.int16)
    if stats == "boson":
        assert spec.rows.dtype == want.dtype and np.array_equal(spec.rows, want)
    else:  # 0/1 rows packed eight cells to a byte
        assert spec.rows.dtype == np.uint8 and np.array_equal(spec.rows, np.packbits(want, 1))
    dim = len(want)
    assert spec.colex.dtype == np.int32
    assert np.array_equal(np.sort(spec.colex), np.arange(dim))
    # reference rank order: chain the real parts within the default tie
    # tolerance, then sort by (chain, Im, colex position) and gather the rows
    sector = _sector_levels(levels, stats, N)
    energies = kernels.config_energies_boson(want, sort_levels(sector), sector.energies)
    by_re = np.argsort(energies.real, kind="stable")
    chain = np.empty(dim, np.int64)
    chain[by_re] = np.cumsum(np.diff(energies.real[by_re], prepend=-np.inf)
                             > default_tie_tol(energies.real)) - 1
    order = np.lexsort((np.arange(dim), energies.imag, chain))
    assert spec.occupations(slice(None)).dtype == want.dtype
    assert np.array_equal(spec.occupations(slice(None)), want[order])
    assert spec.energies.tobytes() == energies[order].tobytes()
    assert np.array_equal(spec.groups, chain[order])
    ranks = np.random.default_rng(dim).integers(0, dim, size=25)
    for r in [0, dim - 1, *ranks.tolist()]:
        energy = energy_of_config(levels, stats, spec.occupations(r))
        assert np.complex128(energy).tobytes() == spec.energies[r].tobytes()
        assert spec[r].config.occupations == tuple(want[order[r]].tolist())
    gs = ground_state(levels, stats, N)
    assert np.complex128(gs.energy).tobytes() == spec.energies[0].tobytes()


@pytest.mark.parametrize("L", [*range(1, 10), 16, 17])
@pytest.mark.parametrize("stats", ["fermion", "boson", "hardcore"])
def test_occupations_accessor_matches_enumeration(stats, L):
    # every sector of the L up to dim 2e5, N = 0 and full ones included; on a
    # ring an even hard-core N fills the twisted image; bosons past int8
    levels = ring_levels(L) if L > 1 else fake_levels([0.5 - 0.25j])
    if stats == "boson":
        counts = [n for n in (*range(10), 127, 128) if count_configs(L, n, stats) <= 200_000]
    else:
        counts = range(L + 1)
    for N in counts:
        spec = build_spectrum(levels, stats, N)
        want = _occupation_rows(L, N, stats)
        dim = len(want)
        got = spec.occupations(np.arange(dim))
        assert got.dtype == want.dtype and np.array_equal(got, want[spec.colex])
        assert spec.colex.dtype == spec.groups.dtype == np.int32
        if stats != "boson":
            assert spec.rows.nbytes == dim * math.ceil(L / 8)


def test_spectrum_memory_holds_one_bit_rows():
    # ring L = 20, N = 10 (184,756 rows): the rows once, one bit a cell, and
    # int32 rank indices; one-byte rows or int64 indices would pass 10 MB
    levels = ring_levels(20)
    build_spectrum(levels, "fermion", 10)  # caches and first-call allocations
    tracemalloc.start()
    try:
        spec = build_spectrum(levels, "fermion", 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.rows.nbytes == 184_756 * 3
    assert peak < 10_000_000


def test_enumeration_matches_spectrum_rows():
    for stats in ("fermion", "boson", "hardcore"):
        rows = set(rows_of(6, 3, stats))
        spec = build_spectrum(ring_levels(6), stats, 3)
        assert rows == set(map(tuple, spec.occupations(slice(None)).tolist()))
        assert spec.statistics == stats


def test_spectrum_cap_enforced():
    # 7.9e9 states: refused before the occupation matrix is allocated
    levels = ring_levels(30)
    with pytest.raises(SectorTooLargeError):
        build_spectrum(levels, "boson", 12)
    assert count_configs(30, 12, "boson") > DEFAULT_MAX_STATES
    assert DEFAULT_MAX_STATES == 5_000_000


# -------------------------------------------------------------- ground_state


def test_ground_state_fermion_ring_l4_frozen():
    gs = ground_state(ring_levels(4), "fermion", 2)
    assert gs.energy.real == pytest.approx(-2.2552519304127614, abs=1e-12)
    assert gs.energy.imag == pytest.approx(-1.0421906109874948, abs=1e-12)
    # occupies k=pi and k=pi/2, i.e. modes 2 and 1
    assert gs.config.occupations == (1, 1, 0, 0)


def test_ground_state_boson_ring_l4_frozen():
    gs = ground_state(ring_levels(4), "boson", 2)
    assert gs.energy.real == pytest.approx(-4.510503860825523, abs=1e-12)
    assert abs(gs.energy.imag) < 1e-12
    assert gs.config.occupations == (0, 2, 0, 0)


def test_ground_state_fermion_chain_l4():
    gs = ground_state(chain_levels(4), "fermion", 2)
    assert gs.energy.real == pytest.approx(-math.sqrt(5), abs=1e-12)
    assert abs(gs.energy.imag) < 1e-12


def test_ground_state_boson_condenses():
    levels = ring_levels(9, g=0.7)
    lowest = levels.energies[sort_levels(levels)[0]]
    for N in (1, 3, 6):
        gs = ground_state(levels, "boson", N)
        assert gs.energy == pytest.approx(N * lowest, abs=1e-12)
        assert max(gs.config.occupations) == N


def test_ground_state_matches_rank0_exactly():
    # same Kahan summation order in both routes: equality is exact
    for stats in ("fermion", "boson", "hardcore"):
        for make in (ring_levels, chain_levels):
            levels = make(8)
            gs = ground_state(levels, stats, 4)
            spec = build_spectrum(levels, stats, 4)
            assert gs.energy == spec[0].energy
            assert gs.config.occupations == spec[0].config.occupations


def tie_tol_sectors(max_dim=2000):
    """(statistics, L, N) of every sector of L = 2..10 up to max_dim states;
    bosons up to N = 20, which leaves out only the L = 2 and 3 sectors of
    more particles."""
    for L in range(2, 11):
        for stats in ("fermion", "boson", "hardcore"):
            for N in range(21 if stats == "boson" else L + 1):
                if count_configs(L, N, stats) <= max_dim:
                    yield stats, L, N


@pytest.mark.parametrize("boundary,twist", [("periodic", 0.0), ("open", 0.0), ("twisted", 0.7)])
@pytest.mark.parametrize("g", [0.5, 1.5])
def test_tie_tol_never_changes_an_energy(boundary, twist, g):
    # tie_tol groups and orders the ranks only: each row's energy, matched
    # through colex, keeps the bits of the default-tolerance spectrum, and
    # a rank 0 that holds the filled row has ground_state's bits
    for stats, L, N in tie_tol_sectors():
        levels = single_particle_levels(
            HNParams(L=L, t=1.0, g=g, boundary=boundary, twist=twist))
        gs = ground_state(levels, stats, N)
        want = None
        for tie_tol in (None, 0.0, 1e-3, 1.0):
            spec = build_spectrum(levels, stats, N, tie_tol)
            by_row = spec.energies[np.argsort(spec.colex)].tobytes()
            want = by_row if want is None else want
            assert by_row == want, (stats, L, N, tie_tol)
            if tuple(spec.occupations(0).tolist()) == gs.config.occupations:
                assert spec.energies[0].tobytes() == np.complex128(gs.energy).tobytes()


def test_ground_state_vacuum():
    gs = ground_state(ring_levels(5), "fermion", 0)
    assert gs.energy == 0
    assert gs.config.occupations == (0, 0, 0, 0, 0)


def test_ground_state_full_band():
    # all fermion modes filled: energy is the trace, which vanishes
    gs = ground_state(ring_levels(6), "fermion", 6)
    assert abs(gs.energy) < 1e-12


@settings(deadline=None, max_examples=30)
@given(
    L=st.integers(2, 8),
    g=st.floats(-1.5, 1.5, allow_nan=False),
    data=st.data(),
)
def test_ground_state_is_minimal_real_part_property(L, g, data):
    N = data.draw(st.integers(0, L), label="N")
    levels = ring_levels(L, g=g)
    gs = ground_state(levels, "fermion", N)
    spec = build_spectrum(levels, "fermion", N)
    lo = min(lv.energy.real for lv in spec)
    assert gs.energy.real <= lo + 1e-9 * (1 + abs(lo))


# ------------------------------------------------- string round-trips, misc


def test_occupation_string_roundtrip_digits():
    s = occupation_string((1, 0, 1, 1))
    assert s == "1011"
    back = parse_occupation_string(s)
    assert back.dtype == np.int64
    assert back.tolist() == [1, 0, 1, 1]


def test_occupation_string_roundtrip_wide_boson():
    s = occupation_string(np.array([12, 0, 1]))
    assert s == "12;0;1"
    assert parse_occupation_string(s).tolist() == [12, 0, 1]


def test_occupation_string_of_plain_rows():
    # the same text from a list, a tuple and a numpy row
    assert occupation_string([0, 1, 9, 0]) == "0190"
    assert occupation_string((0, 10, 255, 256)) == "0;10;255;256"
    assert occupation_string(np.array([3, 0, 1], dtype=np.int16).tolist()) == "301"
    # a bytes row, the writer's, holds one number per byte
    assert occupation_string(bytes([0, 10, 255])) == "0;10;255"
    assert occupation_string(bytes([1, 0, 9])) == "109"
    for row in (b"", b"\x0a", b"\xff\x00"):
        assert occupation_string(row) == occupation_string(list(row))
    assert [occupation_string(row) for row in (b"", b"\x0a", b"\xff\x00")] == ["", "10", "255;0"]
    # lists and arrays are still checked for negatives
    for row in ([1, -1, 0], np.array([12, -1]), (-300,)):
        with pytest.raises(ValueError, match="non-negative"):
            occupation_string(row)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64, np.uint8])
def test_occupation_string_of_numpy_rows(dtype):
    # the numbers of the row, not the bytes of its buffer
    assert occupation_string(np.array([1, 0, 2], dtype=dtype)) == "102"
    assert occupation_string(np.array([0, 11, 0], dtype=dtype)) == "0;11;0"
    assert occupation_string(np.array([1, 0, 2], dtype=dtype)) == occupation_string((1, 0, 2))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(0, 6),
    L=st.integers(0, 7),
    top=st.sampled_from([1, 9, 10, 256]),
    seed=st.integers(0, 2**32 - 1),
)
def test_occupation_strings_match_occupation_string_per_row(rows, L, top, seed):
    occ = np.random.default_rng(seed).integers(0, top + 1, size=(rows, L), dtype=np.int16)
    texts = occupation_strings(occ)
    assert texts == [occupation_string(row) for row in occ.tolist()]
    # the rule written out per row: one digit per mode, or ';'-joined numbers
    assert texts == [
        "".join(map(str, row)) if max(row, default=0) <= 9 else ";".join(map(str, row))
        for row in occ.tolist()
    ]


def test_occupation_strings_mixed_rows_and_bad_input():
    occ = np.array([[9, 1, 0], [10, 0, 0], [0, 0, 256]], dtype=np.int16)
    assert occupation_strings(occ) == ["910", "10;0;0", "0;0;256"]
    with pytest.raises(ValueError):
        occupation_strings(np.array([1, 0]))
    with pytest.raises(ValueError):
        occupation_strings([[1, -1]])


def scalar_energy(energies, counts):
    """Reference: the compensated sum of n * e over the pairs of energies and
    counts, in the order given, skipping n == 0 and adding e itself for
    n == 1, one Python complex at a time."""
    acc = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    for e, n in zip(energies, counts):
        if n == 0:
            continue
        term = e if n == 1 else n * e
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
    return acc


@settings(deadline=None, max_examples=60)
@given(
    stats=st.sampled_from(["fermion", "boson", "hardcore"]),
    bc=st.sampled_from([("periodic", 0.0), ("open", 0.0), ("twisted", 0.7)]),
    L=st.integers(2, 7),
    N=st.integers(0, 6),
    g=st.sampled_from([0.0, 0.5, 1.5, -2.0]),
)
@example(stats="boson", bc=("open", 0.0), L=3, N=6, g=0.5)
@example(stats="boson", bc=("twisted", 0.7), L=4, N=5, g=-2.0)
def test_energy_kernel_bits_match_scalar_kahan(stats, bc, L, N, g):
    # every row of the whole-sector kernel against the scalar oracle, bit
    # for bit; boson rows with n > 1 take the n * eps branch
    if stats != "boson":
        N = min(N, L)
    boundary, twist = bc
    levels = single_particle_levels(HNParams(L=L, t=1.0, g=g, boundary=boundary, twist=twist))
    levels = _sector_levels(levels, stats, N)
    perm = sort_levels(levels)
    occ = _occupation_rows(L, N, stats)
    got = kernels.config_energies_boson(occ, perm, levels.energies)
    eps = levels.energies[perm].tolist()
    want = np.array([scalar_energy(eps, row) for row in occ[:, perm].tolist()], np.complex128)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    if stats == "boson" and N > 1:
        assert (occ > 1).any()


@pytest.mark.parametrize(
    "stats, L, N, g",
    [("fermion", 7, 3, 0.5), ("hardcore", 6, 3, 1.5), ("boson", 4, 5, -2.0)],
)
def test_blocked_energy_kernel_matches_scalar_kahan(monkeypatch, stats, L, N, g):
    # blocks of 1, 2, dim - 1, dim and dim + 1 rows all give every row's
    # scalar compensated sum, bit for bit
    levels = _sector_levels(
        single_particle_levels(HNParams(L=L, t=1.0, g=g, boundary="open")), stats, N)
    perm = sort_levels(levels)
    occ = _occupation_rows(L, N, stats)
    eps = levels.energies[perm].tolist()
    want = np.array([scalar_energy(eps, row) for row in occ[:, perm].tolist()], np.complex128)
    dim = len(occ)
    for block in (1, 2, dim - 1, dim, dim + 1):
        monkeypatch.setattr(kernels, "BLOCK_ROWS", block)
        got = kernels.config_energies_boson(occ, perm, levels.energies)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), block
    assert stats != "boson" or (occ > 1).any()


def test_energy_kernel_holds_block_sized_buffers():
    # 48,620 rows, several blocks: the traced peak stays below the output
    # plus twice one block's buffers (the occupation columns, up to four complex
    # and two bool vectors); whole-sector buffers would be about 5 MB
    L, N = 18, 9
    levels = single_particle_levels(HNParams(L=L, t=1.0, g=0.5))
    perm = sort_levels(levels)
    occ = _occupation_rows(L, N, "fermion")
    dim = len(occ)
    assert dim > 4 * kernels.BLOCK_ROWS
    block = kernels.BLOCK_ROWS * (L * occ.itemsize + 4 * 16 + 2)
    tracemalloc.start()
    try:
        energies = kernels.config_energies_boson(occ, perm, levels.energies)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert energies.shape == (dim,)
    assert peak < dim * 16 + 2 * block


def test_energy_of_config_raises_beyond_float_range():
    # 3 bosons in one g = 709 ring level: a real part near 1.2e308 and an
    # imaginary part beyond float range, as build_spectrum and ground_state see
    levels = ring_levels(6, g=709.0)
    with pytest.raises(OverflowError):
        energy_of_config(levels, "boson", [3, 0, 0, 0, 0, 0])


def test_energy_of_config_matches_manual_sum():
    levels = ring_levels(6)
    got = energy_of_config(levels, "boson", (0, 2, 1, 0, 0, 0))
    want = 2 * levels[1].energy + levels[2].energy
    assert got == pytest.approx(want, abs=1e-13)


def test_many_body_level_is_frozen():
    cfg = OccupationConfig(statistics="fermion", occupations=(1, 0))
    lv = ManyBodyLevel(energy=1.0 + 0j, config=cfg, rank=0, degeneracy_group=0)
    with pytest.raises(AttributeError):
        lv.rank = 3
