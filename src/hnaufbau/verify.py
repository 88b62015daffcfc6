"""Named invariant suites exercised by the `verify` CLI command.

Each suite bundles checks that hold for the implementation as a whole:
dimension counting, analytic single-particle data, the dense eigenvalue
route (numpy's LAPACK zgeev) against trace/determinant/analytic oracles,
many-body spectra against dense diagonalization of the Fock Hamiltonian,
eigenstate residuals, distribution sum rules, the fermion/hard-core
equivalences, the filling closed form, and the g = 0 Hermitian regression.
SUITES, the run order, is the key order of the one name -> suite table.

The residual suite takes fock.residual with the hopping matrix after a
bond_transform hook (matrix -> matrix), so a test can inject a fault, e.g.
flip one hopping sign, and confirm the residuals catch it. Each suite runs
under np.errstate(all="ignore"), worst cases are folded with np.max, and a
NaN fails its check. Checks are deterministic given the echoed seed.
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
from .hardcore import delta_E_scan, im_delta_closed_form, obc_equivalence_check
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


def _add(results, suite, name, passed, detail):
    results.append(CheckResult(suite, name, bool(passed), detail))


# --- suites ---------------------------------------------------------------


def _suite_counting(results, g, t, bond_transform):
    for stats, L, N, want in (
        ("fermion", 10, 5, 252),
        ("boson", 10, 5, 2002),
        ("hardcore", 10, 5, 252),
        ("fermion", 4, 0, 1),
        ("boson", 4, 0, 1),
    ):
        got = count_configs(L, N, stats)
        streamed = len(_occupation_rows(L, N, stats))
        ok = got == want and streamed == want
        _add(
            results, "counting", f"{stats}-L{L}-N{N}", ok,
            f"count={got} streamed={streamed} want={want}",
        )
    for stats in ("fermion", "boson", "hardcore"):
        ok = True
        worst = ""
        for L in range(2, 7):
            for N in range(0, min(L, 4) + 1):
                basis = get_basis(stats, L, N)
                rows, pos = basis.occupations, np.arange(basis.dim)
                # strict colex order: lexsort keys on the last mode first, and
                # breaks a tie by falling position, so a repeated row fails too
                if not (
                    len(rows) == basis.dim
                    and (np.lexsort((pos[::-1], *rows.T)) == pos).all()
                    and (rows.sum(axis=1) == N).all()
                ):
                    ok = False
                    worst = f"basis dim mismatch at L={L} N={N}"
        _add(results, "counting", f"basis-dims-{stats}", ok, worst or "all sectors match")


def _suite_single_particle(results, g, t, bond_transform):
    params = (
        HNParams(L=12, t=t, g=g, boundary="periodic"),
        HNParams(L=12, t=t, g=g, boundary="twisted", twist=math.pi / 3),
        HNParams(L=12, t=t, g=g, boundary="open"),
    )
    for p in params:
        h = hopping_matrix(p)
        levels = single_particle_levels(p)
        worst = float(np.max([
            np.linalg.norm(h @ orb - e * orb) / np.linalg.norm(orb)
            for orb, e in zip(levels.orbitals, levels.energies)
        ]))
        _add(
            results, "single_particle", f"level-residual-{p.boundary}",
            worst < TOLERANCES["level_residual"],
            f"max rel residual {worst:.3e} < {TOLERANCES['level_residual']:.0e}",
        )
    p = HNParams(L=12, t=t, g=g, boundary="periodic")
    tr = sum(single_particle_levels(p).energies.tolist())
    _add(
        results, "single_particle", "ring-energies-traceless",
        abs(tr) < 1e-10 * (1 + abs(g)) * t * p.L,
        f"|sum eps| = {abs(tr):.3e}",
    )
    po = HNParams(L=12, t=t, g=g, boundary="open")
    eo = single_particle_levels(po).energies
    sym = float(np.max(np.abs(eo + eo[::-1])))
    _add(
        results, "single_particle", "open-energies-symmetric",
        np.max(np.abs(eo.imag)) < 1e-12 and sym < 1e-12,
        f"max |eps_m + eps_{{L+1-m}}| = {sym:.3e}",
    )
    e0 = single_particle_levels(HNParams(L=12, t=t, boundary="open")).energies
    gdiff = float(np.max(np.abs(eo - e0)))
    _add(
        results, "single_particle", "open-energies-g-independent",
        gdiff < 1e-12, f"max |eps(g) - eps(0)| = {gdiff:.3e}",
    )


def _suite_eigensolver(results, g, t, bond_transform):
    for p in (
        HNParams(L=60, t=t, g=g, boundary="periodic"),
        HNParams(L=40, t=t, g=g, boundary="open"),
    ):
        eigs = numerics.eigenvalues(hopping_matrix(p))
        analytic = single_particle_levels(p).energies
        diff = float(
            np.max(np.abs(sort_complex_spectrum(eigs) - sort_complex_spectrum(analytic)))
        )
        _add(
            results, "eigensolver", f"analytic-multiset-{p.boundary}-L{p.L}",
            diff < TOLERANCES["eigen_multiset"], f"max |diff| = {diff:.3e}",
        )
    rng = np.random.default_rng(1234)
    a = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
    eigs = numerics.eigenvalues(a)
    tr_err = abs(eigs.sum() - np.trace(a)) / max(abs(np.trace(a)), 1.0)
    _add(
        results, "eigensolver", "trace-sum-dim60",
        tr_err < 1e-8,
        f"relative trace error {tr_err:.3e}",
    )
    b = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    det = complex(np.linalg.det(b))
    prod = complex(np.prod(numerics.eigenvalues(b)))
    det_err = abs(prod - det) / max(abs(det), 1e-300)
    _add(
        results, "eigensolver", "det-product-dim30",
        det_err < 1e-6,
        f"relative det error {det_err:.3e}",
    )
    jordan = numerics.eigenvalues(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    jd = float(np.max(np.abs(np.sort_complex(jordan) - np.array([1.0, 1.0]))))
    _add(results, "eigensolver", "jordan-block", jd < 1e-6, f"max |diff| = {jd:.3e}")


def _suite_aufbau_oracle(results, g, t, bond_transform):
    for stats in ("fermion", "boson"):
        p = HNParams(L=6, t=t, g=g, boundary="periodic")
        spec = build_spectrum(single_particle_levels(p), stats, 3)
        dense = numerics.eigenvalues(build_dense_hamiltonian(p, stats, 3))
        a = sort_complex_spectrum(spec.energies)
        b = sort_complex_spectrum(dense)
        diff = float(np.max(np.abs(a - b)))
        _add(
            results, "aufbau_oracle", f"dense-multiset-{stats}-L6-N3",
            diff < TOLERANCES["spectrum_multiset"],
            f"max |diff| = {diff:.3e}",
        )
    for stats in ("fermion", "boson", "hardcore"):
        for boundary in ("periodic", "open"):
            p = HNParams(L=8, t=t, g=g, boundary=boundary)
            levels = single_particle_levels(p)
            gs = ground_state(levels, stats, 4)
            rank0 = complex(build_spectrum(levels, stats, 4).energies[0])
            _add(
                results, "aufbau_oracle", f"ground-vs-rank0-{stats}-{boundary}",
                gs.energy == rank0,
                f"fill {gs.energy:.12g}, rank0 {rank0:.12g}",
            )


def _suite_residuals(results, g, t, bond_transform):
    for stats in ("fermion", "boson"):
        for boundary in ("periodic", "open"):
            p = HNParams(L=8, t=t, g=g, boundary=boundary)
            tol = TOLERANCES["residual_pbc" if boundary == "periodic" else "residual_obc"]
            spec = build_spectrum(single_particle_levels(p), stats, 4)
            ranks = sorted({0, 1, len(spec) // 2, len(spec) - 1})
            h = hopping_matrix(p)
            if bond_transform is not None:
                h = bond_transform(h)
            worst = float(np.max([
                residual(eigenstate_from_config(p, stats, spec.occupations(r)), h,
                         spec.energies[r])
                for r in ranks
            ]))
            _add(
                results, "residuals", f"{stats}-{boundary}-L8-N4",
                worst < tol,
                f"max ||Hv - Ev|| = {worst:.3e} over ranks {ranks}",
            )


def _suite_sumrules(results, g, t, bond_transform):
    tol = TOLERANCES["sum_rule"]
    for stats in ("fermion", "boson"):
        for boundary in ("periodic", "open"):
            p = HNParams(L=8, t=t, g=g, boundary=boundary)
            spec = build_spectrum(single_particle_levels(p), stats, 3)
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
            _add(results, "sumrules", f"{stats}-{boundary}-L8-N3", ok, detail)
    # dual route: Fock-space correlations against the orbital projector
    p = HNParams(L=6, t=t, g=g, boundary="open")
    levels = single_particle_levels(p)
    spec = build_spectrum(levels, "fermion", 3)
    occ = spec.occupations(0)
    g1 = observables.correlation_matrix(eigenstate_from_config(p, "fermion", occ))
    g2 = observables.density_matrix_from_orbitals(levels.orbitals[occ > 0])
    diff = float(np.max(np.abs(g1 - g2)))
    _add(
        results, "sumrules", "correlation-dual-route",
        diff < TOLERANCES["dual_route"],
        f"max |G_fock - G_proj| = {diff:.3e}",
    )
    # ring eigenstates resolve their own occupations in momentum space
    p = HNParams(L=8, t=t, g=g, boundary="periodic")
    spec = build_spectrum(single_particle_levels(p), "fermion", 3)
    occ = spec.occupations(0)
    v = eigenstate_from_config(p, "fermion", occ)
    nk = observables.momentum_distribution(observables.correlation_matrix(v))
    diff = float(np.max(np.abs(nk.values - occ)))
    _add(
        results, "sumrules", "ring-momentum-occupations",
        diff < tol, f"max |n_k - n_m| = {diff:.3e}",
    )


def _suite_equivalence(results, g, t, bond_transform):
    for L, N, gg, boundary, want in (
        (6, 3, 0.7, "open", True),
        (7, 3, 1.1, "open", True),
        (6, 3, g, "periodic", True),
        (6, 2, g, "periodic", False),
    ):
        got = obc_equivalence_check(L, N, gg, t=t, boundary=boundary)
        _add(
            results, "equivalence", f"{boundary}-L{L}-N{N}",
            got == want, f"multiset equal = {got}, expected {want}",
        )
    p = HNParams(L=8, t=t, g=g, boundary="periodic")
    ring = single_particle_levels(p)
    dense_b = numerics.eigenvalues(build_dense_hamiltonian(p, "hardcore", 4))
    e0_dense = sort_complex_spectrum(dense_b)[0]
    e0_fill = ground_state(ring, "hardcore", 4).energy
    db = abs(e0_dense - e0_fill)
    _add(
        results, "equivalence", "hardcore-ground-dense-vs-fill",
        db < 1e-8,
        f"|E0_dense - E0_fill| = {db:.3e}",
    )
    dense_f = numerics.eigenvalues(build_dense_hamiltonian(p, "fermion", 4))
    e0f_dense = sort_complex_spectrum(dense_f)[0]
    e0f_fill = ground_state(ring, "fermion", 4).energy
    df = abs(e0f_dense - e0f_fill)
    _add(
        results, "equivalence", "fermion-ground-dense-vs-fill",
        df < 1e-8,
        f"|E0_dense - E0_fill| = {df:.3e}",
    )


def _suite_closedform(results, g, t, bond_transform):
    lengths = list(range(160, 481, 16))
    gaps = delta_E_scan(lengths, 0.5, g, t)
    worst = float(np.max(
        [abs(gap.delta.imag - im_delta_closed_form(gap.L, gap.N, g, t)) for gap in gaps]
    ))
    _add(
        results, "closedform", "im-gap-matches-filling-formula",
        worst < TOLERANCES["closed_form"],
        f"max |Im gap - formula| = {worst:.3e}",
    )
    worst_im = float(np.max([abs(gap.E0_hcb.imag) for gap in gaps]))
    _add(
        results, "closedform", "hardcore-ground-real",
        worst_im < TOLERANCES["closed_form"],
        f"max |Im E0_hcb| = {worst_im:.3e}",
    )
    re = [abs(gap.delta.real) for gap in gaps]
    dec = all(b < a for a, b in zip(re, re[1:]))
    _add(
        results, "closedform", "re-gap-strictly-decreasing",
        dec, f"|Re gap| spans {re[0]:.4e} .. {re[-1]:.4e}",
    )
    gaps0 = delta_E_scan(lengths[:6], 0.5, 0.0, t)
    worst0 = float(np.max([abs(gap.delta.imag) for gap in gaps0]))
    _add(
        results, "closedform", "reciprocal-limit-gap-real",
        worst0 < 1e-12, f"max |Im gap| at g=0: {worst0:.3e}",
    )


def _suite_hermitian(results, g, t, bond_transform):
    # regression at g = 0, whatever g the caller asked for elsewhere
    for stats in ("fermion", "boson"):
        p = HNParams(L=6, t=t, g=0.0, boundary="periodic")
        h = build_dense_hamiltonian(p, stats, 3)
        dev = float(np.max(np.abs(h - np.conj(h.T))))
        _add(
            results, "hermitian", f"dense-hermitian-{stats}",
            dev < 1e-14, f"max |H - H^dag| = {dev:.3e}",
        )
    for boundary in ("periodic", "open"):
        p = HNParams(L=8, t=t, g=0.0, boundary=boundary)
        worst = float(np.max([
            np.max(np.abs(build_spectrum(single_particle_levels(p), stats, 4).energies.imag))
            for stats in ("fermion", "boson")
        ]))
        _add(
            results, "hermitian", f"real-spectra-{boundary}",
            worst < TOLERANCES["hermitian_im"],
            f"max |Im E| = {worst:.3e}",
        )


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
    for name in SUITES:
        if name in selected:
            # a value beyond float range is inf or nan, which fails its row
            with np.errstate(all="ignore"):
                try:
                    _SUITE_FNS[name](results, float(g), float(t), bond_transform)
                except Exception as exc:  # a crash is a failed check, not an abort
                    _add(results, name, "no-exception", False, f"{type(exc).__name__}: {exc}")
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
