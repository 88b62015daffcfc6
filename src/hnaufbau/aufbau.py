"""Generalized Aufbau assembly of many-body spectra.

Single-particle levels (an array-backed lattice.Levels) are ordered by the
real part of their complex energy; imaginary parts never influence which
level fills first, only the tie-break inside real-part-degenerate groups
(ascending imaginary part, then label). The ordering comes back as the array
of level positions in filling order, and no orbital is ever read here.
Each sector is enumerated once as an occupation matrix (kernels), its
energies are occupation-weighted sums of level energies over all rows at
once, and build_spectrum returns the rank-ordered arrays as a Spectrum.

A many-body state is passed around as its occupation row: an int array of
n_m per mode, mode m at position m-1. energy_of_config (and
fock.eigenstate_from_config) take that row and check it with
_check_occupations. The records ManyBodyLevel and OccupationConfig exist
only as what spectrum[r] and ground_state return; no function here takes
one.

Ties are resolved with a tolerance, not exact comparison: levels (or
many-body energies) whose real parts differ by at most tie_tol are chained
into one degeneracy cluster and ordered within the cluster. Without this,
float noise of order 1e-16 in cos(pi/2) vs cos(3pi/2) would flip which of
two complex-conjugate partners counts as the ground state.

Hard-core bosons fill as fermions, but on the Jordan-Wigner image of their
chain (lattice.hardcore_image): a "hardcore" sector of Levels that carry
their params fills the levels of the image, so callers pass the physical
chain. Levels built from bare energies have no chain to map and fill
hard-core sectors exactly like fermions. Hard-core occupations therefore
index the modes of the image chain.

Energy sums run in sorted-mode order with compensated (Kahan) summation so
that a spectrum row and the direct ground-state fill agree bit for bit. The
fill sums its N filled modes only, which gives the same bits because the
summation skips empty modes.
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
# dim x L cells of the int16 occupation matrix: 2 GiB, about 6 GB at the
# peak of a spectrum run
MAX_OCCUPATION_CELLS = 1 << 30


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
    """A sector's many-body levels in rank order, held as arrays.

    Row r of ``energies`` (complex128), ``occupations`` (dim x L, int16) and
    ``groups`` (real-part degeneracy cluster ids, non-decreasing) belongs to
    rank r. ``spectrum[r]`` builds the ManyBodyLevel of rank r (negative r
    counts from the end).
    """

    statistics: str
    energies: np.ndarray = field(repr=False)
    occupations: np.ndarray = field(repr=False)
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
            config=OccupationConfig(self.statistics, tuple(self.occupations[rank].tolist())),
            rank=rank,
            degeneracy_group=int(self.groups[rank]),
        )


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


def _clustered_order(re, im, tiebreak, tie_tol):
    """Order by Re, chain runs with adjacent gaps <= tie_tol into clusters,
    sort each cluster by (Im, tiebreak). Returns (order, cluster_ids)."""
    order1 = np.argsort(re, kind="stable")
    re_sorted = re[order1]
    if re_sorted.size > 1:
        breaks = np.diff(re_sorted) > tie_tol
        cid = np.concatenate(([0], np.cumsum(breaks)))
    else:
        cid = np.zeros(re_sorted.size, dtype=np.int64)
    final = np.lexsort((tiebreak[order1], im[order1], cid))
    return order1[final], cid[final]


def sort_levels(levels, tie_tol=None) -> np.ndarray:
    """Positions of Levels in filling order, as int64: by Re energy, and
    levels whose real parts chain within tie_tol by Im ascending, then mode
    label. Default tie_tol is default_tie_tol over the real parts.
    """
    if len(levels) == 0:
        raise ValueError("sort_levels requires a non-empty level list")
    energies = levels.energies
    labels = levels.labels
    if tie_tol is None:
        tie_tol = default_tie_tol(energies.real)
    tie_tol = float(tie_tol)
    if not (tie_tol >= 0.0 and math.isfinite(tie_tol)):
        raise ValueError(f"tie_tol must be finite and >= 0, got {tie_tol}")
    return _clustered_order(energies.real, energies.imag, labels, tie_tol)[0]


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
    states or max_cells cells of the dim x L occupation matrix."""
    dim = count_configs(L, N, statistics)
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
    """The sector's dim x L int16 occupation matrix, each state once, in colex
    order (for fermion/hardcore, ascending as L-bit occupation words)."""
    if statistics == "boson":
        return kernels.boson_states(L, N)
    return kernels.fermion_occupations(L, N)


def _kahan_energy(energies, counts):
    """Compensated sum of n * e over the pairs of energies and counts, in the
    order given, skipping n == 0.

    Called with the level energies in filling order, it mirrors the spectrum
    kernels operation for operation, so a value computed here is
    bit-identical to the corresponding spectrum row.
    """
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


def build_spectrum(levels, statistics, N, tie_tol=None):
    """All many-body levels of the sector, sorted by (Re E, Im E), as a Spectrum.

    Ranks run 0..dim-1 in sorted order; degeneracy groups are maximal
    runs of energies whose real parts chain within tie_tol. The ground
    state is rank 0. Sectors above DEFAULT_MAX_STATES states or
    MAX_OCCUPATION_CELLS occupation cells raise SectorTooLargeError before
    any allocation; an energy beyond float range raises OverflowError.
    """
    L = len(levels)
    dim = _capped_dim(L, N, statistics)
    levels = _sector_levels(levels, statistics, N)
    perm = sort_levels(levels, tie_tol)
    occupations = _occupation_rows(L, N, statistics)
    with np.errstate(over="ignore", invalid="ignore"):
        energies = kernels.config_energies_boson(occupations, perm, levels.energies)
    if not np.isfinite(energies).all():
        raise OverflowError("a many-body energy is not finite")
    mb_tol = default_tie_tol(energies.real) if tie_tol is None else float(tie_tol)
    positions = np.arange(dim, dtype=np.int64)
    order, groups = _clustered_order(energies.real, energies.imag, positions, mb_tol)
    return Spectrum(statistics, energies[order], occupations[order], groups)


def _fill(levels, statistics, N):
    """The ground_state fill as (energy, filled positions in filling order,
    occupation of each); only the filled modes enter the compensated sum."""
    _check_sector(len(levels), N, statistics)
    levels = _sector_levels(levels, statistics, N)
    positions = sort_levels(levels)
    if statistics == "boson":
        filled, counts = positions[: min(N, 1)], [N] * min(N, 1)
    else:
        filled, counts = positions[:N], [1] * N
    energy = _kahan_energy(levels.energies[filled].tolist(), counts)
    if not cmath.isfinite(energy):
        raise OverflowError(f"ground energy {energy} is not finite")
    return energy, filled, counts


def ground_state(levels, statistics, N) -> ManyBodyLevel:
    """Aufbau ground state without enumerating the sector.

    Fermions and hard-core bosons occupy the first N ranks of the level
    ordering (of the image's levels, for hard-core bosons on a known chain);
    bosons put all N particles in rank 0. Cost is the level sort,
    O(L log L). The energy matches rank 0 of build_spectrum bit for bit.
    """
    energy, filled, counts = _fill(levels, statistics, N)
    occ = np.zeros(len(levels), dtype=np.int64)
    occ[filled] = counts
    config = OccupationConfig(statistics, tuple(occ.tolist()))
    return ManyBodyLevel(energy=energy, config=config, rank=0, degeneracy_group=0)


def _check_occupations(L, statistics, occupations) -> np.ndarray:
    """The occupation row as int64, once it is a state of L modes of the
    statistics: L integers, none negative, at most 1 per mode for fermions
    and hard-core bosons. Raises SectorError otherwise."""
    if statistics not in STATISTICS:
        raise ValueError(f"statistics must be one of {STATISTICS}, got {statistics!r}")
    occ = np.asarray(occupations)
    if occ.dtype.kind not in "iu":  # a cast would truncate 0.5 to 0
        raise SectorError(f"occupations must be integers, got {occ.dtype}")
    occ = occ.astype(np.int64, copy=False)
    if occ.shape != (L,):
        raise SectorError(f"occupations have shape {occ.shape}, expected ({L},)")
    if occ.min() < 0:
        raise SectorError("occupations must be non-negative")
    if statistics != "boson" and occ.max() > 1:
        raise SectorError(f"{statistics} occupations must be 0 or 1")
    return occ


def energy_of_config(levels, statistics, occupations) -> complex:
    """Energy of one occupation row, summed exactly as build_spectrum does.
    A row that is not a state of the levels raises SectorError, an energy
    beyond float range OverflowError."""
    occ = _check_occupations(len(levels), statistics, occupations)
    levels = _sector_levels(levels, statistics, int(occ.sum()))
    perm = sort_levels(levels)
    energy = _kahan_energy(levels.energies[perm].tolist(), occ[perm].tolist())
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
    if type(occ) is not bytes:  # bytes rows, the spectrum writer's, skip the check
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
    positions = np.arange(arr.size, dtype=np.int64)
    order, _groups = _clustered_order(arr.real, arr.imag, positions, default_tie_tol(arr.real))
    return arr[order]
