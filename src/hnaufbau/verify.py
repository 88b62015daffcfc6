"""Named invariant suites exercised by the `verify` CLI command.

Each suite bundles checks that hold for the implementation as a whole:
dimension counting, analytic single-particle data, the dense eigenvalue
route (numpy's LAPACK zgeev) against trace/determinant/analytic oracles,
many-body spectra against dense diagonalization of the Fock Hamiltonian,
eigenstate residuals, distribution sum rules, the fermion/hard-core
equivalences, the filling closed form, and the g = 0 Hermitian regression.

A suite is a generator of (name, passed, detail) rows. run_checks owns the
rest: it labels each row with the suite's key in the one name -> suite
table (SUITES, the run order, is its key order), iterates every suite under
np.errstate(all="ignore"), and turns a suite that raises into one failing
<suite>/no-exception row after the rows it yielded before. Worst cases are
folded with np.max, and a NaN fails its check.

The residual suite takes fock.residual with the hopping matrix after a
bond_transform hook (matrix -> matrix), so a test can inject a fault, e.g.
flip one hopping sign, and confirm the residuals catch it. Checks are
deterministic given the echoed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics, observables
from .aufbau import (
    _occupation_rows,
    build_spectrum,
    count_configs,
    ground_state,
    sort_complex_spectrum,
)
from .fock import build_dense_hamiltonian, eigenstate_from_config, get_basis, residual
from .hardcore import im_delta_closed_form, obc_equivalence_check
from .lattice import HNParams, hopping_matrix, single_particle_levels

__all__ = ["CheckResult", "SUITES", "run_checks", "summary_table"]

TOLERANCES = {
    "level_residual": 1e-10,
    "eigen_multiset": 1e-8,
    "spectrum_multiset": 1e-8,
    "residual_pbc": 1e-10,
    "residual_obc": 1e-9,
    "sum_rule": 1e-8,
    "dual_route": 1e-10,
    "closed_form": 1e-10,
    "hermitian_im": 1e-10,
}


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


# --- suites ---------------------------------------------------------------


def _chains(L, g, t):
    """The periodic and open chains' levels, built once for every statistics."""
    return {b: single_particle_levels(HNParams(L=L, t=t, g=g, boundary=b))
            for b in ("periodic", "open")}


def _basis_faults(stats):
    """The first failed check of each small sector's basis, in sector order."""
    for L in range(2, 7):
        for N in range(0, min(L, 4) + 1):
            basis = get_basis(stats, L, N)
            rows, pos = basis.occupations, np.arange(basis.dim)
            if len(rows) != basis.dim:
                yield f"basis dim mismatch at L={L} N={N}: {len(rows)} rows, dim {basis.dim}"
            # strict colex order: lexsort keys on the last mode first, and
            # breaks a tie by falling position, so a repeated row fails too
            elif not (np.lexsort((pos[::-1], *rows.T)) == pos).all():
                yield f"basis rows out of strict colex order at L={L} N={N}"
            elif not (rows.sum(axis=1) == N).all():
                yield f"basis row sums differ from N at L={L} N={N}"


def _suite_counting(g, t, bond_transform):
    for stats, L, N, want in (
        ("fermion", 10, 5, 252),
        ("boson", 10, 5, 2002),
        ("hardcore", 10, 5, 252),
        ("fermion", 4, 0, 1),
        ("boson", 4, 0, 1),
    ):
        got = count_configs(L, N, stats)
        streamed = len(_occupation_rows(L, N, stats))
        yield (f"{stats}-L{L}-N{N}", got == want and streamed == want,
               f"count={got} streamed={streamed} want={want}")
    for stats in ("fermion", "boson", "hardcore"):
        fault = next(_basis_faults(stats), None)
        yield f"basis-dims-{stats}", fault is None, fault or "all sectors match"


def _suite_single_particle(g, t, bond_transform):
    chains = {p.boundary: single_particle_levels(p) for p in (
        HNParams(L=12, t=t, g=g, boundary="periodic"),
        HNParams(L=12, t=t, g=g, boundary="twisted", twist=math.pi / 3),
        HNParams(L=12, t=t, g=g, boundary="open"),
    )}
    for boundary, levels in chains.items():
        h = hopping_matrix(levels.params)
        worst = float(np.max([
            np.linalg.norm(h @ orb - e * orb) / np.linalg.norm(orb)
            for orb, e in zip(levels.orbitals, levels.energies)
        ]))
        yield (f"level-residual-{boundary}", worst < TOLERANCES["level_residual"],
               f"max rel residual {worst:.3e} < {TOLERANCES['level_residual']:.0e}")
    ring = chains["periodic"]
    tr = sum(ring.energies.tolist())
    yield ("ring-energies-traceless", abs(tr) < 1e-10 * (1 + abs(g)) * t * len(ring),
           f"|sum eps| = {abs(tr):.3e}")
    eo = chains["open"].energies
    sym = float(np.max(np.abs(eo + eo[::-1])))
    yield ("open-energies-symmetric", np.max(np.abs(eo.imag)) < 1e-12 and sym < 1e-12,
           f"max |eps_m + eps_{{L+1-m}}| = {sym:.3e}")
    e0 = single_particle_levels(HNParams(L=12, t=t, boundary="open")).energies
    gdiff = float(np.max(np.abs(eo - e0)))
    yield "open-energies-g-independent", gdiff < 1e-12, f"max |eps(g) - eps(0)| = {gdiff:.3e}"


def _suite_eigensolver(g, t, bond_transform):
    for p in (
        HNParams(L=60, t=t, g=g, boundary="periodic"),
        HNParams(L=40, t=t, g=g, boundary="open"),
    ):
        eigs = numerics.eigenvalues(hopping_matrix(p))
        analytic = single_particle_levels(p).energies
        diff = float(
            np.max(np.abs(sort_complex_spectrum(eigs) - sort_complex_spectrum(analytic)))
        )
        yield (f"analytic-multiset-{p.boundary}-L{p.L}", diff < TOLERANCES["eigen_multiset"],
               f"max |diff| = {diff:.3e}")
    rng = np.random.default_rng(1234)
    a = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
    eigs = numerics.eigenvalues(a)
    tr_err = abs(eigs.sum() - np.trace(a)) / max(abs(np.trace(a)), 1.0)
    yield "trace-sum-dim60", tr_err < 1e-8, f"relative trace error {tr_err:.3e}"
    b = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    det = complex(np.linalg.det(b))
    prod = complex(np.prod(numerics.eigenvalues(b)))
    det_err = abs(prod - det) / max(abs(det), 1e-300)
    yield "det-product-dim30", det_err < 1e-6, f"relative det error {det_err:.3e}"
    jordan = numerics.eigenvalues(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    jd = float(np.max(np.abs(np.sort_complex(jordan) - np.array([1.0, 1.0]))))
    yield "jordan-block", jd < 1e-6, f"max |diff| = {jd:.3e}"


def _suite_aufbau_oracle(g, t, bond_transform):
    p = HNParams(L=6, t=t, g=g, boundary="periodic")
    ring = single_particle_levels(p)
    for stats in ("fermion", "boson"):
        spec = build_spectrum(ring, stats, 3)
        dense = numerics.eigenvalues(build_dense_hamiltonian(p, stats, 3))
        a = sort_complex_spectrum(spec.energies)
        b = sort_complex_spectrum(dense)
        diff = float(np.max(np.abs(a - b)))
        yield (f"dense-multiset-{stats}-L6-N3", diff < TOLERANCES["spectrum_multiset"],
               f"max |diff| = {diff:.3e}")
    chains = _chains(8, g, t)
    for stats in ("fermion", "boson", "hardcore"):
        for boundary, levels in chains.items():
            gs = ground_state(levels, stats, 4)
            rank0 = complex(build_spectrum(levels, stats, 4).energies[0])
            yield (f"ground-vs-rank0-{stats}-{boundary}", gs.energy == rank0,
                   f"fill {gs.energy:.12g}, rank0 {rank0:.12g}")


def _suite_residuals(g, t, bond_transform):
    chains = _chains(8, g, t)
    for stats in ("fermion", "boson"):
        for boundary, levels in chains.items():
            p = levels.params
            tol = TOLERANCES["residual_pbc" if boundary == "periodic" else "residual_obc"]
            spec = build_spectrum(levels, stats, 4)
            ranks = sorted({0, 1, len(spec) // 2, len(spec) - 1})
            h = hopping_matrix(p)
            if bond_transform is not None:
                h = bond_transform(h)
            worst = float(np.max([
                residual(eigenstate_from_config(p, stats, spec.occupations(r)), h,
                         spec.energies[r])
                for r in ranks
            ]))
            yield (f"{stats}-{boundary}-L8-N4", worst < tol,
                   f"max ||Hv - Ev|| = {worst:.3e} over ranks {ranks}")


def _suite_sumrules(g, t, bond_transform):
    tol = TOLERANCES["sum_rule"]
    chains = _chains(8, g, t)
    specs = {}
    for stats in ("fermion", "boson"):
        for boundary, levels in chains.items():
            p = levels.params
            spec = specs[stats, boundary] = build_spectrum(levels, stats, 3)
            ok = True
            detail = "sum rules hold"
            for r in (0, 1, len(spec) - 1):
                v = eigenstate_from_config(p, stats, spec.occupations(r))
                nj = observables.density_from_fock(v)
                nk = observables.momentum_distribution(observables.correlation_matrix(v))
                if abs(nj.total - 3) > tol or abs(nk.total - 3) > tol:
                    ok = False
                    detail = f"rank {r}: sum n_j = {nj.total!r}, sum n_k = {nk.total!r}"
                    break
                if nj.values.min() < -1e-12 or nk.values.min() < -1e-10:
                    ok = False
                    detail = f"rank {r}: negative weight"
                    break
                if stats == "fermion" and nk.values.max() > 1 + 1e-8:
                    ok = False
                    detail = f"rank {r}: n_k = {nk.values.max()} above the Pauli bound"
                    break
            yield f"{stats}-{boundary}-L8-N3", ok, detail
    # dual route: Fock-space correlations against the orbital projector
    p = HNParams(L=6, t=t, g=g, boundary="open")
    levels = single_particle_levels(p)
    occ = build_spectrum(levels, "fermion", 3).occupations(0)
    g1 = observables.correlation_matrix(eigenstate_from_config(p, "fermion", occ))
    g2 = observables.density_matrix_from_orbitals(levels.orbitals[occ > 0])
    diff = float(np.max(np.abs(g1 - g2)))
    yield ("correlation-dual-route", diff < TOLERANCES["dual_route"],
           f"max |G_fock - G_proj| = {diff:.3e}")
    # ring eigenstates resolve their own occupations in momentum space
    occ = specs["fermion", "periodic"].occupations(0)
    v = eigenstate_from_config(chains["periodic"].params, "fermion", occ)
    nk = observables.momentum_distribution(observables.correlation_matrix(v))
    diff = float(np.max(np.abs(nk.values - occ)))
    yield "ring-momentum-occupations", diff < tol, f"max |n_k - n_m| = {diff:.3e}"


def _suite_equivalence(g, t, bond_transform):
    for L, N, gg, boundary, want in (
        (6, 3, 0.7, "open", True),
        (7, 3, 1.1, "open", True),
        (6, 3, g, "periodic", True),
        (6, 2, g, "periodic", False),
    ):
        got = obc_equivalence_check(L, N, gg, t=t, boundary=boundary)
        yield f"{boundary}-L{L}-N{N}", got == want, f"multiset equal = {got}, expected {want}"
    p = HNParams(L=8, t=t, g=g, boundary="periodic")
    ring = single_particle_levels(p)
    for stats in ("hardcore", "fermion"):
        dense = numerics.eigenvalues(build_dense_hamiltonian(p, stats, 4))
        diff = abs(sort_complex_spectrum(dense)[0] - ground_state(ring, stats, 4).energy)
        yield (f"{stats}-ground-dense-vs-fill", diff < 1e-8,
               f"|E0_dense - E0_fill| = {diff:.3e}")


def _ring_gaps(lengths, g, t):
    """(L, E0_fermion - E0_hcb, E0_hcb) of each half-filled ring, filled here
    rather than by delta_E_scan, which raises on the non-real hard-core
    energy that hardcore-ground-real is there to report."""
    for L in lengths:
        levels = single_particle_levels(HNParams(L=L, t=t, g=g))
        ef, eb = (ground_state(levels, stats, L // 2).energy for stats in ("fermion", "hardcore"))
        yield L, ef - eb, eb


def _suite_closedform(g, t, bond_transform):
    lengths = list(range(160, 481, 16))
    gaps = list(_ring_gaps(lengths, g, t))
    worst = float(np.max(
        [abs(delta.imag - im_delta_closed_form(L, L // 2, g, t)) for L, delta, _ in gaps]
    ))
    yield ("im-gap-matches-filling-formula", worst < TOLERANCES["closed_form"],
           f"max |Im gap - formula| = {worst:.3e}")
    worst_im = float(np.max([abs(e0_hcb.imag) for _, _, e0_hcb in gaps]))
    yield ("hardcore-ground-real", worst_im < TOLERANCES["closed_form"],
           f"max |Im E0_hcb| = {worst_im:.3e}")
    re = [abs(delta.real) for _, delta, _ in gaps]
    dec = all(b < a for a, b in zip(re, re[1:]))
    yield "re-gap-strictly-decreasing", dec, f"|Re gap| spans {re[0]:.4e} .. {re[-1]:.4e}"
    worst0 = float(np.max([abs(delta.imag) for _, delta, _ in _ring_gaps(lengths[:6], 0.0, t)]))
    yield "reciprocal-limit-gap-real", worst0 < 1e-12, f"max |Im gap| at g=0: {worst0:.3e}"


def _suite_hermitian(g, t, bond_transform):
    # regression at g = 0, whatever g the caller asked for elsewhere
    p = HNParams(L=6, t=t, g=0.0, boundary="periodic")
    for stats in ("fermion", "boson"):
        h = build_dense_hamiltonian(p, stats, 3)
        dev = float(np.max(np.abs(h - np.conj(h.T))))
        yield f"dense-hermitian-{stats}", dev < 1e-14, f"max |H - H^dag| = {dev:.3e}"
    for boundary, levels in _chains(8, 0.0, t).items():
        worst = float(np.max([
            np.max(np.abs(build_spectrum(levels, stats, 4).energies.imag))
            for stats in ("fermion", "boson")
        ]))
        yield (f"real-spectra-{boundary}", worst < TOLERANCES["hermitian_im"],
               f"max |Im E| = {worst:.3e}")


_SUITE_FNS = {
    "counting": _suite_counting,
    "single_particle": _suite_single_particle,
    "eigensolver": _suite_eigensolver,
    "aufbau_oracle": _suite_aufbau_oracle,
    "residuals": _suite_residuals,
    "sumrules": _suite_sumrules,
    "equivalence": _suite_equivalence,
    "closedform": _suite_closedform,
    "hermitian": _suite_hermitian,
}
SUITES = tuple(_SUITE_FNS)


def run_checks(g=0.5, t=1.0, suites=None, bond_transform=None):
    """Run the selected suites (all by default) and return CheckResults."""
    if suites is None:
        selected = SUITES
    else:
        selected = tuple(suites)
        unknown = [s for s in selected if s not in SUITES]
        if unknown:
            raise ValueError(f"unknown suites {unknown}; available: {SUITES}")
        if not selected:
            raise ValueError(f"no suite selected; available: {SUITES}")
    HNParams(L=2, t=t, g=g)  # bad model parameters are a usage error, not failed checks
    results = []
    for suite in SUITES:
        if suite in selected:
            # a value beyond float range is inf or nan, which fails its row
            with np.errstate(all="ignore"):
                try:
                    rows = _SUITE_FNS[suite](float(g), float(t), bond_transform)
                    for name, passed, detail in rows:
                        results.append(CheckResult(suite, name, bool(passed), detail))
                except Exception as exc:  # a crash is a failed check, not an abort
                    detail = f"{type(exc).__name__}: {exc}"
                    results.append(CheckResult(suite, "no-exception", False, detail))
    return results


def summary_table(results, g, t) -> str:
    """Fixed-width pass/fail table with the parameter and tolerance echo."""
    lines = [f"# parameters: g={g!r} t={t!r} seed=1234"]
    tol_echo = " ".join(f"{k}={v:.0e}" for k, v in TOLERANCES.items())
    lines.append(f"# tolerances: {tol_echo}")
    width = max((len(f"{r.suite}/{r.name}") for r in results), default=10)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.suite + '/' + r.name:<{width}}  {r.detail}")
    n_pass = sum(1 for r in results if r.passed)
    lines.append(f"# {n_pass}/{len(results)} checks passed")
    return "\n".join(lines)
