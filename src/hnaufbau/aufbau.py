"""Generalized Aufbau assembly of many-body spectra.

Single-particle levels (an array-backed lattice.Levels) are ordered by the
real part of their complex energy; imaginary parts never influence which
level fills first, only the tie-break inside real-part-degenerate groups
(ascending imaginary part, then position). The ordering comes back as the
array of level positions in filling order, and no orbital is ever read here.
Each sector is enumerated once as an occupation matrix (kernels), its
energies are occupation-weighted sums of level energies over all rows at
once, and build_spectrum returns them as a Spectrum: the rows stay in the
colex order they were enumerated in (fermion and hard-core rows packed
eight cells to a byte once their energies are summed), and the rank order
is an int32 index into them, so the matrix is never copied in rank order.
Spectrum.occupations unpacks the rows of the ranks asked for.

A many-body state is passed around as its occupation row: an int array of
n_m per mode, mode m at position m-1. energy_of_config (and
fock.eigenstate_from_config) take that row and check it with
_check_occupations. The records ManyBodyLevel and OccupationConfig exist
only as what spectrum[r] and ground_state return; no function here takes
one.

Ties are resolved with a tolerance, not exact comparison: values whose real
parts differ by at most a tie tolerance are chained into one degeneracy
cluster and ordered within it, so float noise of order 1e-16 in cos(pi/2) vs
cos(3pi/2) cannot flip which of two complex-conjugate partners counts as the
ground state. Levels always fill in sort_levels order (default tolerance), so
build_spectrum's tie_tol groups many-body energies and never changes one.

Hard-core bosons fill as fermions, but on the Jordan-Wigner image of their
chain (lattice.hardcore_image): a "hardcore" sector of Levels that carry
their params fills the levels of the image, so callers pass the physical
chain. Levels built from bare energies have no chain to map and fill
hard-core sectors exactly like fermions. Hard-core occupations therefore
index the modes of the image chain.

A configuration's energy has one rule: a compensated (Kahan) sum in filling
order over the occupied modes, adding e for n = 1 and n * e above.
_config_energy sums one configuration (energy_of_config, the ground fill),
kernels.config_energies_boson every row of a sector at once, and
kernels.column_sums the ground fills of a block of gap-scan lengths.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .lattice import hardcore_image, single_particle_levels

__all__ = [
    "STATISTICS",
    "ManyBodyLevel",
    "OccupationConfig",
    "SectorError",
    "SectorTooLargeError",
    "Spectrum",
    "build_spectrum",
    "count_configs",
    "default_tie_tol",
    "energy_of_config",
    "ground_state",
    "occupation_string",
    "occupation_strings",
    "parse_occupation_string",
    "sort_complex_spectrum",
    "sort_levels",
]

STATISTICS = ("fermion", "boson", "hardcore")

DEFAULT_MAX_STATES = 5_000_000
# dim x L cells of the occupation matrix as enumerated: 1 GiB of int8 (2 GiB
# of int16 for bosons with N > 127) while the energies are summed; a
# spectrum then keeps fermion and hard-core rows at one bit a cell
MAX_OCCUPATION_CELLS = 1 << 30
# largest particle number one int16 occupation cell holds
MAX_OCCUPATION = int(np.iinfo(np.int16).max)


class SectorError(ValueError):
    """Invalid (L, N, statistics) sector."""


class SectorTooLargeError(SectorError):
    """Sector dimension exceeds the configured enumeration cap."""


@dataclass(frozen=True)
class OccupationConfig:
    """The configuration of a ManyBodyLevel: its statistics and the tuple of
    n_m per mode, mode m at position m-1."""

    statistics: str
    occupations: tuple


@dataclass(frozen=True)
class ManyBodyLevel:
    """One many-body level: its energy, configuration, position in the
    (Re, Im)-sorted spectrum, and the real-part degeneracy group it falls in."""

    energy: complex
    config: OccupationConfig
    rank: int
    degeneracy_group: int


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A sector's many-body levels, held as arrays.

    ``rows`` is the sector's occupation matrix of L modes in colex order,
    exactly as enumerated: for fermions and hard-core bosons np.packbits of
    the 0/1 rows (dim x ceil(L/8) uint8, one bit a cell), for bosons int8,
    or int16 with N > 127. Entry r of ``energies`` (complex128), ``colex``
    (int32) and ``groups`` (int32 real-part degeneracy cluster ids,
    non-decreasing) belongs to rank r, and ``colex[r]`` is the row of rank
    r. ``occupations(ranks)`` gives the occupation rows of ranks, the one
    reader of ``rows``; ``spectrum[r]`` builds the ManyBodyLevel of rank r
    (negative r counts from the end).
    """

    statistics: str
    L: int
    energies: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    colex: np.ndarray = field(repr=False)
    groups: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.energies.shape[0]

    def __getitem__(self, key) -> ManyBodyLevel:
        rank = operator.index(key)
        if rank < 0:
            rank += len(self)
        if not 0 <= rank < len(self):
            raise IndexError(f"rank {key} outside a spectrum of {len(self)} states")
        return ManyBodyLevel(
            energy=complex(self.energies[rank]),
            config=OccupationConfig(self.statistics, tuple(self.occupations(rank).tolist())),
            rank=rank,
            degeneracy_group=int(self.groups[rank]),
        )

    def occupations(self, ranks) -> np.ndarray:
        """The occupation rows of ranks (an int, a slice or an index array of
        ranks), with the cells as enumerated: int8, or int16 for bosons with
        N > 127."""
        rows = self.rows[self.colex[ranks]]
        if self.statistics == "boson":
            return rows
        return np.unpackbits(rows, axis=-1, count=self.L).view(np.int8)


def default_tie_tol(real_parts) -> float:
    """1e-9 scaled by (1 + spread of the real parts being compared). Raises
    OverflowError when the spread is not finite."""
    arr = np.asarray(real_parts, dtype=np.float64)
    if arr.size == 0:
        return 1e-9
    width = float(arr.max()) - float(arr.min())
    if not math.isfinite(width):
        raise OverflowError(f"real parts spread over {width}, beyond float range")
    return 1e-9 * (1.0 + width)


def _cluster_sort(values, tie_tol=None):
    """Order complex values by Re, chain runs with adjacent gaps <= tie_tol
    into clusters, sort each cluster by Im, then position. Returns (order,
    cluster_ids), both int32 (a sector holds at most DEFAULT_MAX_STATES <
    2^31 values). tie_tol defaults to default_tie_tol of the real parts,
    whose spread check runs either way.

    The Re pass only finds the clusters, whose ids do not depend on how it
    orders equal real parts; it stays a stable sort because numpy's
    unstable one, though about 4x faster on many-body energies, is 2-8x
    slower on the short level arrays sort_levels passes. The (id, Im,
    position) order is a stable sort by Im followed by stable passes over
    the 16-bit digits of the ids, low digit first: numpy sorts a uint16 key
    stably by radix, one pass below 65,536 clusters and two up to 2^32,
    which is faster than np.lexsort((im, cid)) and gives the same order."""
    re, im = values.real, values.imag
    spread_tol = default_tie_tol(re)  # raises on a spread beyond float range
    tie_tol = spread_tol if tie_tol is None else float(tie_tol)
    order = np.argsort(re, kind="stable")
    cid = np.zeros(re.size, dtype=np.int32)
    max_id = 0
    if re.size > 1:
        # cluster id of each value, scattered back to its position
        ids = np.cumsum(np.diff(re[order]) > tie_tol, dtype=np.int32)
        cid[order[1:]], max_id = ids, int(ids[-1])
    # held as int32, so each pass's gathered copy takes 4 bytes a value
    order = np.argsort(im, kind="stable").astype(np.int32)
    for shift in range(0, max_id.bit_length(), 16):
        digits = (cid[order] >> shift if shift else cid[order]).astype(np.uint16)
        order = order[np.argsort(digits, kind="stable")]
    return order, cid[order]


def sort_levels(levels) -> np.ndarray:
    """Positions of Levels in filling order, as int64: by Re energy, and
    levels whose real parts chain within default_tie_tol of the real parts
    by Im ascending, then position.
    """
    if len(levels) == 0:
        raise ValueError("sort_levels requires a non-empty level list")
    return _cluster_sort(levels.energies)[0].astype(np.int64)


def _check_sector(L, N, statistics, ring=False):
    """Raise SectorError unless (L, N) is a sector of the statistics. A ring
    sector (the fermion/hard-core comparison) also needs L >= 2 and N >= 1."""
    if statistics not in STATISTICS:
        raise ValueError(f"statistics must be one of {STATISTICS}, got {statistics!r}")
    min_L, min_N = (2, 1) if ring else (1, 0)
    if not isinstance(L, (int, np.integer)) or isinstance(L, bool) or L < min_L:
        raise SectorError(f"L must be an integer >= {min_L}, got {L!r}")
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool) or N < min_N:
        raise SectorError(f"N must be an integer >= {min_N}, got {N!r}")
    if statistics in ("fermion", "hardcore") and N > L:
        raise SectorError(f"{statistics} sector requires N <= L, got N={N}, L={L}")


def count_configs(L, N, statistics) -> int:
    """Sector dimension: C(L, N) for fermion/hardcore, C(L+N-1, N) for boson."""
    _check_sector(L, N, statistics)
    if statistics == "boson":
        return math.comb(L + N - 1, N)
    return math.comb(L, N)


def _capped_dim(L, N, statistics, max_cells=MAX_OCCUPATION_CELLS):
    """count_configs, raising SectorTooLargeError above DEFAULT_MAX_STATES
    states, max_cells cells of the dim x L occupation matrix, or (bosons)
    more particles than an int16 occupation holds."""
    dim = count_configs(L, N, statistics)
    if statistics == "boson" and N > MAX_OCCUPATION:
        raise SectorTooLargeError(
            f"boson sector has N = {N}, above the int16 occupation limit of {MAX_OCCUPATION}"
        )
    if dim > DEFAULT_MAX_STATES:
        raise SectorTooLargeError(
            f"sector has {dim} states, above the cap of {DEFAULT_MAX_STATES}"
        )
    if dim * L > max_cells:
        raise SectorTooLargeError(
            f"sector has {dim} states x {L} modes = {dim * L} occupation cells, "
            f"above the cap of {max_cells}"
        )
    return dim


def _sector_levels(levels, statistics, N):
    """The levels a sector fills: those of the Jordan-Wigner image for a
    hard-core sector of levels that carry their chain, else levels itself."""
    if statistics != "hardcore" or levels.params is None:
        return levels
    image = hardcore_image(levels.params, N)
    return levels if image is levels.params else single_particle_levels(image)


def _occupation_rows(L, N, statistics):
    """The sector's dim x L occupation matrix (int8, or int16 for bosons with
    N > 127), each state once, in colex order (for fermion/hardcore,
    ascending as L-bit occupation words)."""
    if statistics == "boson":
        return kernels.boson_states(L, N)
    return kernels.fermion_occupations(L, N)


def _config_energy(terms, counts=None):
    """Energy of counts[i] particles on the level of energy terms[i] (arrays
    in sort_levels order; counts None puts one on each, with no weight
    pass): kernels.config_energies_boson's recursion on one configuration,
    so it has the bits of the configuration's spectrum row."""
    terms = terms.tolist()
    if counts is not None:
        for i in np.flatnonzero(counts > 1).tolist():
            terms[i] *= complex(counts[i])  # n + 0j, the kernel's product
    acc = comp = 0j
    for term in terms:
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
    return acc


def build_spectrum(levels, statistics, N, tie_tol=None):
    """All many-body levels of the sector, sorted by (Re E, Im E), as a Spectrum.

    Ranks run 0..dim-1 in sorted order; degeneracy groups are maximal
    runs of energies whose real parts chain within tie_tol, ordered by Im
    and then by the row's position in the sector's colex order. The ground
    state is rank 0. Sectors above DEFAULT_MAX_STATES states or
    MAX_OCCUPATION_CELLS occupation cells raise SectorTooLargeError before
    any allocation, a tie_tol not finite and >= 0 ValueError, and an energy
    beyond float range OverflowError. No energy depends on tie_tol.
    """
    if tie_tol is not None and not 0.0 <= float(tie_tol) < math.inf:
        raise ValueError(f"tie_tol must be finite and >= 0, got {float(tie_tol)}")
    L = len(levels)
    _capped_dim(L, N, statistics)
    levels = _sector_levels(levels, statistics, N)
    perm = sort_levels(levels)
    rows = _occupation_rows(L, N, statistics)
    with np.errstate(over="ignore", invalid="ignore"):
        energies = kernels.config_energies_boson(rows, perm, levels.energies)
    if not np.isfinite(energies).all():
        raise OverflowError("a many-body energy is not finite")
    if statistics != "boson":
        rows = np.packbits(rows, axis=1)  # 0/1 cells, one bit each
    colex, groups = _cluster_sort(energies, tie_tol)
    return Spectrum(statistics, L, energies[colex], rows, colex, groups)


def _ground_fill(levels, statistics, N):
    """The ground_state fill as (filled positions in filling order, their
    level energies), taken from the image's levels for a hard-core sector."""
    _check_sector(len(levels), N, statistics)
    levels = _sector_levels(levels, statistics, N)
    filled = sort_levels(levels)[: min(N, 1) if statistics == "boson" else N]
    return filled, levels.energies[filled]


def _finite_ground(energy):
    """A ground energy, once it is finite; raises OverflowError otherwise."""
    if not cmath.isfinite(energy):
        raise OverflowError(f"ground energy {energy} is not finite")
    return energy


def ground_state(levels, statistics, N) -> ManyBodyLevel:
    """Aufbau ground state without enumerating the sector.

    Fermions and hard-core bosons occupy the first N ranks of the level
    ordering (of the image's levels, for hard-core bosons on a known chain);
    bosons put all N particles in rank 0. Cost is the level sort,
    O(L log L). The energy matches rank 0 of build_spectrum bit for bit.
    """
    filled, terms = _ground_fill(levels, statistics, N)
    boson = statistics == "boson"
    energy = _finite_ground(_config_energy(terms, np.full(filled.size, N) if boson else None))
    occ = np.zeros(len(levels), dtype=np.int64)
    occ[filled] = N if boson else 1
    config = OccupationConfig(statistics, tuple(occ.tolist()))
    return ManyBodyLevel(energy=energy, config=config, rank=0, degeneracy_group=0)


def _check_occupations(L, statistics, occupations, ndim=1) -> np.ndarray:
    """The occupation row (ndim 1), or matrix of rows (ndim 2), as int64,
    once each row is a state of L modes of the statistics: L integers, none
    negative, at most 1 per mode for fermions and hard-core bosons. Raises
    SectorError otherwise."""
    if statistics not in STATISTICS:
        raise ValueError(f"statistics must be one of {STATISTICS}, got {statistics!r}")
    occ = np.asarray(occupations)
    if occ.dtype.kind not in "iu":  # a cast would truncate 0.5 to 0
        raise SectorError(f"occupations must be integers, got {occ.dtype}")
    occ = occ.astype(np.int64, copy=False)
    if occ.ndim != ndim or occ.shape[-1:] != (L,):
        want = f"({L},)" if ndim == 1 else f"(rows, {L})"
        raise SectorError(f"occupations have shape {occ.shape}, expected {want}")
    if occ.min(initial=0) < 0:
        raise SectorError("occupations must be non-negative")
    if statistics != "boson" and occ.max(initial=0) > 1:
        raise SectorError(f"{statistics} occupations must be 0 or 1")
    return occ


def energy_of_config(levels, statistics, occupations) -> complex:
    """Energy of one occupation row, summed by the ground fill's rule, so it
    has the row's bits in build_spectrum. A row that is not a state of the
    levels raises SectorError, an energy beyond float range OverflowError."""
    occ = _check_occupations(len(levels), statistics, occupations)
    levels = _sector_levels(levels, statistics, int(occ.sum()))
    positions = sort_levels(levels)
    filled = positions[occ[positions] > 0]
    counts = occ[filled] if statistics == "boson" else None
    energy = _config_energy(levels.energies[filled], counts)
    if not cmath.isfinite(energy):
        raise OverflowError(f"configuration energy {energy} is not finite")
    return energy


# byte n -> ASCII digit n for occupation numbers 0..9, '?' for larger ones
_DIGITS = bytes(range(48, 58)).ljust(256, b"?")


def occupation_string(occ) -> str:
    """Compact occupation text of a sequence of occupation numbers (a bytes
    row holds one number per byte): digit string when all n <= 9
    ("0101100000"), ';'-joined otherwise ("0;11;0"), so the text stays one
    CSV field."""
    if type(occ) is bytes:  # the writer's row: no copy, and no negative number
        text = occ.translate(_DIGITS)
        return text.decode("ascii") if text.isdigit() else ";".join(map(str, occ))
    occ = occ.tolist() if isinstance(occ, np.ndarray) else occ  # numbers, not buffer
    try:
        text = bytes(occ).translate(_DIGITS)
    except ValueError:  # an entry outside 0..255
        text = b""
    if text.isdigit():
        return text.decode("ascii")
    if min(occ, default=0) < 0:
        raise ValueError("occupations must be non-negative")
    return ";".join(map(str, occ))


def occupation_strings(occupations) -> list:
    """occupation_string of each row of a 2-D array of occupation numbers,
    as a list of str. When no entry exceeds 255 the rows are cut as bytes
    from one uint8 buffer, so each row's text costs one translate."""
    occ = np.asarray(occupations)
    if occ.ndim != 2:
        raise ValueError(f"occupations must be a 2-D array, got {occ.ndim} dimensions")
    if occ.size and occ.min() < 0:
        raise ValueError("occupations must be non-negative")
    if occ.size and occ.max() <= 255:
        rows = occ.astype(np.uint8).view(f"V{occ.shape[1]}")[:, 0].tolist()
    else:
        rows = occ.tolist()
    return list(map(occupation_string, rows))


def parse_occupation_string(s) -> np.ndarray:
    """Inverse of occupation_string: the occupation row as int64."""
    s = s.strip()
    if not s:
        raise ValueError("empty occupation string")
    return np.array([int(n) for n in (s.split(";") if ";" in s else s)], dtype=np.int64)


def sort_complex_spectrum(values):
    """Cluster-sort a complex array by (Re, Im), chaining within default_tie_tol.

    Used for multiset comparisons between spectra from different routes:
    plain lexicographic (Re, Im) sorting would let 1e-16 real-part noise
    swap complex-conjugate partners between the two lists.
    """
    arr = np.asarray(values, dtype=np.complex128).ravel()
    if arr.size == 0:
        return arr.copy()
    return arr[_cluster_sort(arr)[0]]
